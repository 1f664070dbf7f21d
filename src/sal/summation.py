"""Poisson and Euler--Maclaurin summation, and closed-form actions.

The Poisson comparison S(g_t) - I(g_t) quantifies how far a lattice sum is
from its integral; for Schwartz g the discrepancy is O(t^inf), while for
g(x) = e^{-t|x|} it carries the Bernoulli series t/6 - ...

Both Euler--Maclaurin routines (`euler_maclaurin` over [0, N], `em_tail`
over [U, oo)) bound the remainder after the B_m term by |B_m|/m! times the
integral of |g^(m)|: |B~_m(x)| <= |B_m| for even m (DLMF 24.9.1).  Over
[0, N] that integral is exact from g^(m-1): the sum of |g^(m-1)(b) - g^(m-1)(a)|
over the pieces where g^(m) keeps its sign, found on a fixed grid, provided
g^(m) changes sign at most once per grid cell.

The closed-form actions:

  S^3:  L^3 int_R x^2 f - (L/4) int_R f                     (even f),
  T^3:  (1/4 pi^3) L^3 int_{R^3} f(|x|) dx,
  S^4:  (4/3) L^4 int u^3 f - (4/3) L^2 int u f + (11/90) f(0)
        + sum_m c_m L^{-2m} phi^(m)(0),   phi(u) := f(sqrt(u)),

with the c_m exact rationals produced by the Euler--Maclaurin pipeline:
c_1 = -31/1890, c_2 = 41/7560, c_3 = -31/11880 (the constant term 11/90
is c_0 of the same pipeline).  Coefficients beyond c_3 are engine-derived.
The moments int_0^oo x^k f come from the cut-off itself (`x_moment`), exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .special import (_E1_SERIES_TO, _e1_series, _em_coeffs, bernoulli_number,
                      upper_gamma)

__all__ = [
    "EmShape",
    "Envelope",
    "RadialSummand",
    "gaussian_summand",
    "exp_abs_summand",
    "poisson_compare",
    "euler_maclaurin",
    "s3_action",
    "t3_action",
    "s4_action",
    "s4_coefficients",
    "s4_constant_term",
    "poly_gauss_derivative",
    "upper_gamma_array",
    "lattice_sq_counts",
]


# ---------------------------------------------------------------------------
# Array forms: the incomplete Gamma and the lattice-norm counts
# ---------------------------------------------------------------------------

def upper_gamma_array(a: float, x: np.ndarray) -> np.ndarray:
    """`special.upper_gamma` over an array x > 0 for real a >= 0: the engines
    screen whole blocks of tail bounds with it.  To about 1e-14, at a positive
    integer it is (a-1)! e^{-x} sum_{k<a} x^k/k!; at a half-integer, sqrt(pi)
    erfc(sqrt(x)) climbed up from a = 1/2; at a = 0, the E_1 series up to
    x = 2 and the continued fraction beyond.  At any other a (no engine asks
    for one) it maps the scalar function over x: within 1e-13 relative of
    mpmath for a in [0.01, 7.25] and x in [1e-3, 700]."""
    if a < 0.0:
        raise ValueError("upper_gamma_array: need a real a >= 0")
    if a == 0.0:
        return _e1_array(x)
    if a == int(a) or 2.0 * a == int(2.0 * a):
        with np.errstate(all="ignore"):
            ex = np.exp(-x)
            if a == int(a):
                # (a-1)! e^{-x} sum_{k<a} x^k/k!, Horner over the integer coefficients
                n = int(a)
                poly = np.zeros(x.shape)
                for k in range(n - 1, -1, -1):
                    poly = poly * x + math.factorial(n - 1) // math.factorial(k)
                # e^{-x} = 0 where x^k/k! may overflow: the product is 0 there
                return np.where(ex > 0.0, ex * poly, 0.0)
            root = np.sqrt(x)
            val = math.sqrt(math.pi) * np.fromiter(
                map(math.erfc, root.ravel().tolist()), float, x.size).reshape(x.shape)
            for m in range(int(a)):
                # Gamma(a+1, x) = a Gamma(a, x) + x^a e^{-x}, x^{m+1/2} taken as x^m sqrt(x)
                val = (m + 0.5) * val + np.where(ex > 0.0, x ** m * root * ex, 0.0)
            return val
    return np.array([upper_gamma(a, v).real for v in x.ravel().tolist()]).reshape(x.shape)


def _e1_array(x: np.ndarray) -> np.ndarray:
    """E_1(x) = Gamma(0, x) over an array x > 0: the series up to x = 2, beyond
    it the continued fraction e^{-x}/(x+1 - 1/(x+3 - 4/(x+5 - ...))) taken
    bottom-up from a depth of 120/x + 4 at the smallest x (3e-16 relative)."""
    out = np.empty(x.shape)
    low = x <= _E1_SERIES_TO
    out[low] = _e1_series(x[low], np.log)
    if not low.all():
        xs = x[~low]
        depth = math.ceil(120.0 / float(xs.min())) + 4
        f = xs + (2.0 * depth + 1.0)
        for i in range(depth, 0, -1):
            f = xs + (2.0 * i - 1.0) - i * i / f
        with np.errstate(under="ignore"):
            out[~low] = np.exp(-xs) / f
    return out


def _squares(parity, m_max: int) -> np.ndarray:
    # n^2 <= m_max over n >= 0: all n (parity None), or n = parity mod 2
    n = np.arange(parity or 0, math.isqrt(m_max) + 1, 1 if parity is None else 2)
    return n * n


def lattice_sq_counts(parities: tuple, m_max: int) -> np.ndarray:
    """#{n in Z^d : |n|^2 = m} for m = 0..m_max, exact int64 counts (the
    Epstein zeta, the torus spectra and the Poisson comparison).

    Axis j runs over all integers (parities[j] None) or over the integers of
    parity parities[j]: a spin-shifted torus axis, |2k + s_j|, is parity s_j.
    The first axis's table of squares is shift-added once per further axis
    (n and -n counted apart, n = 0 once).
    """
    first, *rest = parities
    out = np.zeros(m_max + 1, dtype=np.int64)
    out[_squares(first, m_max)] = 2
    if first != 1:
        out[0] = 1
    for p in rest:
        acc = np.zeros_like(out)
        for k in _squares(p, m_max).tolist():
            if k:
                acc[k:] += out[:m_max + 1 - k]
        out = 2 * acc + (out if p != 1 else 0)
    return out


# ---------------------------------------------------------------------------
# Poisson comparison
# ---------------------------------------------------------------------------

@dataclass
class RadialSummand:
    """Radial g with a declared integral and a decreasing radial envelope."""
    fn: Callable[[np.ndarray], np.ndarray]     # of the radius
    integral: Callable[[int], float]           # int_{R^m} g dx
    envelope: Callable[[float], float]         # decreasing bound for r >= 0
    label: str = ""


def gaussian_summand(a: float = 1.0) -> RadialSummand:
    """g(x) = e^{-a |x|^2}."""
    return RadialSummand(
        fn=lambda r: np.exp(-a * np.asarray(r) ** 2),
        integral=lambda m: (math.pi / a) ** (m / 2.0),
        envelope=lambda r: math.exp(-a * r * r),
        label=f"gauss[{a:g}]")


def exp_abs_summand(a: float = 1.0) -> RadialSummand:
    """g(x) = e^{-a |x|};  int over R^m = S_{m-1} (m-1)! / a^m."""
    def integral(m: int) -> float:
        if m == 1:
            return 2.0 / a
        surf = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
        return surf * math.factorial(m - 1) / a ** m

    return RadialSummand(
        fn=lambda r: np.exp(-a * np.asarray(r)),
        integral=integral,
        envelope=lambda r: math.exp(-a * r),
        label=f"expabs[{a:g}]")


def poisson_compare(g: RadialSummand, t: float, m: int,
                    tol: float = 1e-14) -> tuple[float, float, float]:
    """Return (S, I, S - I) with S = sum_{k in Z^m} g(t k), I = t^{-m} F[g](0).

    The lattice sum is truncated when the declared radial envelope bounds the
    tail below tol * |S|.
    """
    if t <= 0:
        raise ValueError("poisson_compare: need t > 0")
    r_sq_max = 64
    while True:
        counts = lattice_sq_counts((None,) * m, r_sq_max)
        radii = t * np.sqrt(np.arange(r_sq_max + 1, dtype=float))
        vals = g.fn(radii)
        S = float(np.sum(np.asarray(counts, dtype=float) * vals))
        # tail: shells r^2 > r_sq_max; #points in shell [R, R+1) <= c_m R^{m-1}
        R = math.sqrt(r_sq_max)
        surf = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
        tail = 0.0
        rr = R
        env = g.envelope(t * rr)
        while env > 0.0:
            shell = surf * (rr + 2.0) ** (m - 1) * 1.5 + 2.0 ** m
            tail += shell * env
            rr += 1.0
            env = g.envelope(t * rr)
            if rr > R + 2000:
                tail = math.inf
                break
        if tail <= tol * (abs(S) + 1e-300) or r_sq_max > 4_000_000:
            break
        r_sq_max *= 4
    I = t ** (-m) * g.integral(m)
    return S, I, S - I


# ---------------------------------------------------------------------------
# Euler--Maclaurin
# ---------------------------------------------------------------------------

_SIGN_CELLS = 256


def euler_maclaurin(g: Callable[[float], float], N: int, m: int,
                    derivs: Callable[[int], Callable[[float], float]] | None = None,
                    integral: float | None = None) -> tuple[float, float]:
    """Reconstruct sum_{k=0}^N g(k) from the Euler--Maclaurin formula.

    estimate = int_0^N g + (g(0)+g(N))/2
               + sum_{j=2}^m B_j/j! (g^{(j-1)}(N) - g^{(j-1)}(0))
    with the remainder bound |R_m| <= |B_m|/m! int_0^N |g^(m)|, since the
    periodic Bernoulli function obeys |B~_m| <= |B_m| for even m (DLMF
    24.9.1).  `derivs(j)` is the exact j-th derivative of g, which the
    remainder bound needs.  `integral` defaults to int_0^N g by Gauss--Legendre.
    int_0^N |g^(m)| comes from g^(m-1) (module docstring) on the pieces where
    g^(m) keeps its sign, found on `_SIGN_CELLS` equal cells of [0, N]: the
    bound holds if g^(m) changes sign at most once in each cell.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError("euler_maclaurin: m must be even and >= 2")
    if derivs is None:
        raise ValueError("euler_maclaurin: need the exact derivatives derivs")
    if integral is None:
        integral = _gauss_legendre(g, 0.0, float(N)).real
    est = integral + 0.5 * (g(0.0) + g(float(N)))
    for j in range(2, m + 1):
        bj = float(bernoulli_number(j))
        if bj == 0.0:
            continue
        dj = derivs(j - 1)
        est += bj / math.factorial(j) * (dj(float(N)) - dj(0.0))
    dm, prev = derivs(m), derivs(m - 1)
    grid = np.linspace(0.0, float(N), _SIGN_CELLS + 1).tolist()
    pos = [dm(x) > 0.0 for x in grid]
    ends = [0.0] + [_sign_change(dm, grid[i], grid[i + 1], pos[i])
                    for i in range(_SIGN_CELLS) if pos[i] != pos[i + 1]] + [float(N)]
    at = [prev(x) for x in ends]
    absint = sum(abs(b - a) for a, b in zip(at, at[1:]))
    return est, abs(float(bernoulli_number(m))) / math.factorial(m) * absint


def _sign_change(fn, lo: float, hi: float, pos: bool) -> float:
    """The point of [lo, hi] where fn > 0 turns false (pos) or true (not pos), by bisection."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if (fn(mid) > 0.0) == pos:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


@lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss--Legendre rule on [-1, 1] as read-only (nodes, weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(fn: Callable[[float], complex], a: float, b: float) -> complex:
    """int_a^b fn (real or complex scalar fn) by composite 20-node Gauss--Legendre
    on 1, 2, 4, ..., 1024 equal panels, until two levels agree to 1e-12 times
    int_a^b |fn| (ArithmeticError if none do); the terms are summed exactly."""
    x, w = _legendre(20)
    old = None
    for k in range(11):
        edges = np.linspace(a, b, 2 ** k + 1)
        half = 0.5 * np.diff(edges)
        nodes = (edges[:-1, None] + half[:, None] * (x + 1.0)).ravel()
        terms = (half[:, None] * w).ravel() * np.array([fn(t) for t in nodes.tolist()])
        new = complex(math.fsum(terms.real.tolist()), math.fsum(np.imag(terms).tolist()))
        if old is not None and abs(new - old) <= 1e-12 * np.abs(terms).sum():
            return new
        old = new
    raise ArithmeticError(f"Gauss-Legendre on [{a:g}, {b:g}]: no two panel levels agree")


def _falling(e, r: int):
    """e (e - 1) ... (e - r + 1)."""
    out = 1.0
    for i in range(r):
        out *= e - i
    return out


def _laurent(coef: dict, U: np.ndarray, xp):
    """sum_k coef[k] U^k by Horner's rule, times the lowest power once."""
    lo = min(coef)
    acc = 0.0
    for k in range(max(coef), lo - 1, -1):
        acc = acc * U + coef.get(k, 0.0)
    return acc * xp.power(U, float(lo)) if lo else acc


class Envelope(NamedTuple):
    """f(x) <= C e^{-a x} (kind "exp") or C e^{-(x/a)^2} (kind "gauss") for every x >= 0."""
    kind: str
    C: float
    a: float


class EmShape(NamedTuple):
    """One term weight u^low h(u) of a summand, at u = mu + delta, with
    h(u) = e^{-param u} ("exp", low 0 or -1), e^{-param u^2} ("gauss", low 0)
    or u^{-param} ("power", low 0).  Against a multiplicity M(mu) it sums by
    `em_tail` with the coefficients of M(u - delta)."""
    weight: float
    kind: str
    param: complex
    delta: float = 0.0
    low: int = 0


EM_KAPPA = 64.0         # ulps: the rounding allowance of `em_tail` on cancelling shapes
_EPS = float(np.finfo(float).eps)
_CELLS = 1 << 16        # (tail points) x (shapes) evaluated at once


def _libm(fn, x: np.ndarray, *consts) -> np.ndarray:
    """A `math` function over an array.  numpy's SIMD exp, pow and log differ
    from libm in the last place on a few percent of inputs, and by CPU."""
    if x.ndim > 1:
        return _libm(fn, x.ravel(), *consts).reshape(x.shape)
    return np.fromiter(map(fn, x.tolist(), *map(repeat, consts)), float, x.size)


def _pow_of(t):
    """libm's x^k for x of the type of t: a float or an array."""
    return math.pow if isinstance(t, float) else partial(_libm, math.pow)


def em_tail(coeffs, shape: str, param, low: int = 0, weight=1.0, U0: float = 0.0):
    """Euler--Maclaurin tail sum_{k>=0} sum_p weight_p g_p(U + k) of
    g_p(u) = sum_j coeffs[j] u^{low+j} h_p(u), h_p(u) = u^{-param_p} (shape
    "power", complex params), e^{-param_p u} ("exp", low >= -1) or
    e^{-param_p u^2} ("gauss", low >= 0).  `param` and `weight` are one value
    each or, for the exp and gauss shapes, equal-length lists, one entry per
    shape: the shapes of a kind are evaluated as one array call over their
    params.

    Returns tail(U, xp) -> (estimate, bound) over an array U > 0, in closed form:

        estimate = sum_p weight_p e_p,   bound = sum_p |weight_p| b_p,
        e_p = int_U^oo g_p + g_p(U)/2 - sum_{k=1}^{m} B_2k/(2k)! g_p^(2k-1)(U),
        b_p = |B_2m|/(2m)! int_U^oo |g_p^(2m)|, bounded from above as below,

    with m = 5.  The remainder is -int_U^oo B~_2m(u)/(2m)! g^(2m)(u) du (DLMF
    2.10.1 carried one term further) and |B~_2m| <= |B_2m| (DLMF 24.9.1), so
    the bound holds.  For the power shape u^i h(u) = u^{i-param} has falling-
    factorial derivatives whose modulus keeps one sign.  For the exponential
    shape int_U^oo u^i e^{-tu} = t^{-i-1} Gamma(i+1, tU) (E_1(tU) at i = -1),
    and the 2m-th derivative is bounded term by term of Leibniz's rule, but
    for the u^{-1} term: h = u^{-1} e^{-tu} is completely monotone, so
    int_U^oo |h^(2m)| = |h^(2m-1)(U)|.
    For the Gaussian shape g^(r) = Q_r e^{-tu^2} with Q_{r+1} = Q_r' - 2tu Q_r
    (the recurrence of `poly_gauss_derivative`), int_U^oo u^i e^{-tu^2} =
    Gamma((i+1)/2, tU^2)/(2 t^{(i+1)/2}), and |Q_2m(u)| <= sum_i |q_i| u^i
    for u > 0.  `xp` supplies exp, log, power and upper_gamma over arrays.

    `U0`, the smallest U the tail is taken at, lets it leave out the shapes
    whose terms are all 0 in floats from there on.

    Shapes of both signs can cancel far below their own size (a narrow
    window's two estimates are each about 1e4 times their difference), and
    then the rounding of the e_p is no longer small next to the estimate.
    Where the weights have both signs the bound therefore adds

        eps sum_p |weight_p e_p| (EM_KAPPA + 2 y_p),   y_p = t_p U (exp) or t_p U^2 (gauss),

    y_p = 0 for power shapes.  Against the same formula in 40-digit
    arithmetic, at the same float t and U, one shape's e_p was within
    16 + 1.3 y_p ulps of |e_p| (5,329 points: exp shapes of low -1 and
    0 and Gaussian shapes on the S^1..S^4 multiplicities, t from 1e-31 to
    1e3, y from 1e-30 to 690; the E_1 and Gamma(j+1, .) arrays, the Horner
    sums, and the rounding of y itself, which e^{-y} turns into y/2 to y
    ulps).  EM_KAPPA = 64 covers the 16 with room for the products
    weight_p e_p and their pairwise sum over at most 4096 shapes, and 2 y_p
    covers 1.3 y_p.  Sums of one shape, or of shapes of one sign, keep the
    bound without the term.
    """
    if shape != "power" and low < (-1 if shape == "exp" else 0):
        raise ValueError(f"em_tail: low = {low} is below the {shape} shape's range")
    em_b = _em_coeffs()[:5]                    # B_2k/(2k)!, k = 1..m
    m, top = len(em_b), abs(em_b[-1])
    # (weight, order) of g(U)/2 and of the derivatives g^(2k-1)(U) in the estimate
    orders = [(0.5, 0)] + [(-b, 2 * k - 1) for k, b in enumerate(em_b, start=1)]
    params, w = (list(param), list(weight)) if isinstance(param, list) else ([param], [weight])
    power = {"power": 0, "exp": 1, "gauss": 2}[shape]      # y_p = t_p U^power
    if power and U0 > 0.0 and len(params) > 1:
        # from y = t U0^power on, e^{-y} y^J is 0 in floats for every power J
        # the terms take: such shapes add exact zeros, and are left out
        J = max(0, low + len(coeffs))
        kept = [(p, v) for p, v in zip(params, w)
                if (y := p * U0 ** power) - J * math.log(y) <= 746.0]
        params, w = [p for p, _ in kept], [v for _, v in kept]
    mixed = min(w, default=0.0) < 0.0 < max(w, default=0.0)
    if shape == "power":
        if len(params) != 1:
            raise ValueError("em_tail: the power shape takes one param")
        t, rows = 0.0, _power_tail(coeffs, params[0], low, orders, m, top)
    else:
        # one shape's coefficients are floats, several shapes' arrays
        t = float(params[0]) if len(params) == 1 else np.array(params, dtype=float)
        with np.errstate(all="ignore"):     # array coefficients past the floats are inf, as floats'
            rows = (_gauss_tail if shape == "gauss" else _exp_tail)(coeffs, low, t, orders, m, top)
    ww, step = np.array(w), max(1, _CELLS // max(len(w), 1))

    def tail(U, xp):
        if len(w) == 1:             # one shape: its float coefficients take U as it is
            e, b = rows(U, xp)
            return w[0] * e, abs(w[0]) * b
        est, bound = [], []
        for i in range(0, U.size, step):
            u = U[i:i + step, None]
            e, b = rows(u, xp)                              # (points, shapes)
            we = ww * e
            est.append(we.sum(axis=1))
            bound.append((np.abs(ww) * b).sum(axis=1))
            if mixed:
                y = t * u ** power
                bound[-1] = bound[-1] + _EPS * (np.abs(we) * (EM_KAPPA + 2.0 * y)).sum(axis=1)
        return np.concatenate(est), np.concatenate(bound)
    return tail


def _power_tail(coeffs, param, low: int, orders, m: int, top: float):
    """em_tail's power shape: rows(U, xp) of g(u) = sum_j coeffs[j] u^{low+j-param}."""
    est, err = {}, {}
    s = complex(param) - low
    sigma = s.real
    s = s if s.imag else sigma
    for j, a in enumerate(coeffs):
        if a:
            # (u^{j-s})^(r) = (j-s)_r u^{j-s-r}: Laurent coefficients in U of g / U^{-s}
            est[j + 1] = est.get(j + 1, 0.0) + a / (s - j - 1)
            for w, r in orders:
                est[j - r] = est.get(j - r, 0.0) + w * a * _falling(j - s, r)
            err[j + 1 - 2 * m] = abs(a * _falling(j - s, 2 * m)) / (sigma + 2 * m - 1 - j)

    def rows(U, xp):
        mod = xp.power(U, -sigma)                               # |U^{-s}|
        base = mod * np.exp(-1j * s.imag * xp.log(U)) if isinstance(s, complex) else mod
        return base * _laurent(est, U, xp), top * mod * _laurent(err, U, xp)
    return rows


def _exp_tail(coeffs, low: int, t, orders, m: int, top: float):
    """em_tail's exponential shape: rows(U, xp) of g_p(u) = sum_j coeffs[j] u^{low+j} e^{-t_p u}."""
    pw = _pow_of(t)
    neg = [pw(-t, k) for k in range(2 * m)]        # (-t)^k
    integral, gam = {}, {}          # coefficients of Gamma(j+1, tU) in the integral, the bound
    inv = {}                        # of e^{-tU} U^k in the bound, from the u^{-1} term
    est = {}                        # of e^{-tU} U^k in the estimate
    # (u^j e^{-tu})^(r) = e^{-tu} sum_i C(r, i) (j)_i u^{j-i} (-t)^{r-i}: the estimate
    # takes (j)_i u^{j-i} times lead[i], the sum over its orders r of w C(r, i) (-t)^{r-i}
    lead = {}
    for j, a in enumerate(coeffs, start=low):
        if a:
            integral[j] = a * pw(t, -j - 1)
            for i in range(j + 1 if j >= 0 else 2 * m):
                if i not in lead:
                    lead[i] = sum(w * math.comb(r, i) * neg[r - i]
                                  for w, r in orders if r >= i)
                est[j - i] = est.get(j - i, 0.0) + a * _falling(j, i) * lead[i]
                if j >= 0:
                    # int_U^oo u^{j-i} t^{2m-i} e^{-tu} du = t^{2m-j-1} Gamma(j-i+1, tU)
                    gam[j - i] = gam.get(j - i, 0.0) + abs(a) * math.comb(2 * m, i) \
                        * _falling(j, i) * pw(t, 2 * m - j - 1)
                else:
                    # u^{-1} e^{-tu} is completely monotone: int_U^oo |h^(2m)| = |h^(2m-1)(U)|
                    inv[-1 - i] = abs(a) * math.comb(2 * m - 1, i) * math.factorial(i) \
                        * pw(t, 2 * m - 1 - i)

    need = list(gam) + [j for j in integral if j not in gam]

    def rows(U, xp):
        y = t * U
        g = {i: xp.upper_gamma(i + 1.0, y) for i in need}
        bound = sum(c * g[i] for i, c in gam.items())
        if inv:
            bound = bound + xp.exp(-y) * _laurent(inv, U, xp)
        return (sum(c * g[j] for j, c in integral.items()) + xp.exp(-y) * _laurent(est, U, xp),
                top * bound)
    return rows


def _gauss_tail(coeffs, low: int, t, orders, m: int, top: float):
    """em_tail's Gaussian shape: rows(U, xp) of g_p(u) = sum_j coeffs[j] u^{low+j} e^{-t_p u^2}."""
    order = 2 * m
    q = [0.0] * low + [float(a) for a in coeffs]      # g^(r) = Q_r e^{-tu^2}, from Q_0
    weight = {r: w for w, r in orders}
    est = [0.0] * (len(q) + order)      # of U^i e^{-tU^2} in the estimate
    pw = _pow_of(t)
    integral = {i: c / (2.0 * pw(t, (i + 1) / 2.0)) for i, c in enumerate(q) if c}
    # the coefficient of u^i in Q_r carries t^{(i+r-low)/2} or more: below t = 2^-64
    # the recurrence runs on q_i / s^{i+1}, s a power of 2 near sqrt(t), so that
    # they underflow only where the bound does (s = 1 above: the plain recurrence)
    scale = lambda v: 1.0 if v >= 2.0 ** -64 else 2.0 ** round(math.log2(v) / 2.0)
    s = scale(t) if isinstance(t, float) else np.array([scale(v) for v in t.tolist()])
    spow = [pw(s, i + 1) for i in range(len(q) + order)]      # exact
    q = [c / spow[i] for i, c in enumerate(q)]
    for r in range(order):
        if r in weight:
            for i, c in enumerate(q):
                est[i] += weight[r] * c * spow[i]
        q = _gauss_step(q, t, s)
    # int_U^oo u^i e^{-tu^2} du = Gamma((i+1)/2, tU^2) / (2 t^{(i+1)/2})
    err = {i: top * abs(c) / (2.0 * pw(t / (s * s), (i + 1) / 2.0))
           for i, c in enumerate(q) if (c.any() if isinstance(c, np.ndarray) else c)}
    poly = dict(enumerate(est))

    def rows(U, xp):
        y = t * U * U
        ey = xp.exp(-y)
        g = _half_ladder(y, ey, xp, set(integral) | set(err))
        return (sum(c * g[i] for i, c in integral.items()) + ey * _laurent(poly, U, xp),
                sum((c * g[i] for i, c in err.items()), np.zeros(y.shape)))
    return rows


def _half_ladder(y, ey, xp, need: set) -> dict:
    """{i: Gamma((i+1)/2, y) for i in need}, climbing Gamma(a+1, y) = a Gamma(a, y)
    + y^a e^{-y} from Gamma(1/2, y) (even i) and Gamma(1, y) = e^{-y} (odd i)."""
    out = {}
    for first in (0, 1):
        chain = sorted(i for i in need if i % 2 == first)
        if not chain:
            continue
        val = xp.upper_gamma(0.5, y) if first == 0 else ey
        term = (xp.power(y, 0.5) if first == 0 else y) * ey       # y^a e^{-y}
        for i in range(first, chain[-1] + 1, 2):
            if i in need:
                out[i] = val
            if i < chain[-1]:
                val = (i + 1) / 2.0 * val + term
                term = term * y
    return out


# ---------------------------------------------------------------------------
# Closed-form actions
# ---------------------------------------------------------------------------

def _x_moment(f, k: int) -> float:
    """int_0^oo x^k f(x) dx from the cut-off's own data."""
    if not hasattr(f, "x_moment"):
        raise TypeError("closed-form action: need a cut-off with moment data, not a bare callable")
    return f.x_moment(k)


def s3_action(f, lam: float) -> float:
    """Leading asymptotics of Tr f(|D|/Lambda) on S^3 (f even):
    Lambda^3 int_R x^2 f(x) dx - (Lambda/4) int_R f(x) dx."""
    return lam ** 3 * 2.0 * _x_moment(f, 2) - lam / 4.0 * 2.0 * _x_moment(f, 0)


def t3_action(f, lam: float) -> float:
    """(1/4 pi^3) Lambda^3 int_{R^3} f(|x|) dx = (Lambda^3/pi^2) int r^2 f."""
    return lam ** 3 / math.pi ** 2 * _x_moment(f, 2)


def s4_coefficients(M: int) -> list[Fraction]:
    """Exact c_m, m = 1..M, of the S^4 Euler--Maclaurin pipeline.

    c_m = (4/3) [ (2m+1)!/m! B_{2m+2}/(2m+2)! - (2m+3)!/m! B_{2m+4}/(2m+4)! ],
    multiplying Lambda^{-2m} phi^(m)(0) with phi(u) = f(sqrt(u)).
    """
    out = []
    for mm in range(1, M + 1):
        c = (Fraction(math.factorial(2 * mm + 1), math.factorial(mm))
             * bernoulli_number(2 * mm + 2) / math.factorial(2 * mm + 2)
             - Fraction(math.factorial(2 * mm + 3), math.factorial(mm))
             * bernoulli_number(2 * mm + 4) / math.factorial(2 * mm + 4))
        out.append(Fraction(4, 3) * c)
    return out


def s4_constant_term() -> Fraction:
    """Coefficient of f(0): (4/3)(B_2/2! - 3! B_4/4!) = 11/90."""
    c0 = bernoulli_number(2) / 2 - Fraction(6) * bernoulli_number(4) / 24
    return Fraction(4, 3) * c0


def s4_action(f, lam: float, M_terms: int = 3) -> float:
    """S^4 action through order Lambda^{-2 M_terms} (f even Schwartz).

    The cut-off must carry sqrt_derivs[m-1] = phi^(m)(0) with
    phi(u) = f(sqrt(u)) (Gaussians do).
    """
    val = (4.0 / 3.0) * lam ** 4 * _x_moment(f, 3) - (4.0 / 3.0) * lam ** 2 * _x_moment(f, 1)
    sqrt_derivs = tuple(getattr(f, "sqrt_derivs", ()) or ())
    if len(sqrt_derivs) < M_terms:
        raise ValueError("s4_action: need sqrt_derivs up to order M_terms")
    val += float(s4_constant_term()) * float(f.evaluate(0.0))
    for mm, c in enumerate(s4_coefficients(M_terms), start=1):
        val += float(c) * lam ** (-2 * mm) * sqrt_derivs[mm - 1]
    return val


# ---------------------------------------------------------------------------
# Exact derivatives for the polynomial x Gaussian family
# ---------------------------------------------------------------------------

def _gauss_step(c: list, a: float, s: float = 1.0) -> list:
    """Coefficients of P' - 2 a x P from those of P: (P e^{-a x^2})' = (P' - 2 a x P) e^{-a x^2},
    each coefficient of x^j held as c_j / s^{j+1}."""
    new = [0.0] * (len(c) + 1)
    for j, v in enumerate(c):
        if j:
            new[j - 1] += v * j * s
        new[j + 1] -= 2.0 * (a / s) * v
    return new


def poly_gauss_derivative(coeffs: list[float], a: float, order: int):
    """d^order/dx^order of (sum_j coeffs[j] x^j) e^{-a x^2}, exactly.

    Returns a callable; used for certified Euler--Maclaurin remainder bounds
    in the S^4 pipeline (g(x) = (x^3 - x) f(x/L), Gaussian f).
    """
    c = list(coeffs)
    for _ in range(order):
        c = _gauss_step(c, a)
    poly = np.polynomial.Polynomial(c)

    def fn(x: float) -> float:
        return float(poly(x) * math.exp(-a * x * x))

    return fn
