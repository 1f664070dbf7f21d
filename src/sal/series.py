"""Certified direct summation of general Dirichlet series.

Heat traces, zeta values in the convergence half-plane, spectral actions
and counting functions, all by direct summation over a `Spectrum` with an
explicit truncation certificate attached to every result
(`TruncationReport`), and partial traces of a list of (value, multiplicity).

Summation is deterministic: one kernel walks the spectrum's blocks in
ascending singular value order, and the terms are folded through a fixed
pairwise reduction tree with Kahan compensation at its 64-term leaves
(`PairwiseSummer`), bit for bit as if one at a time, whatever the block
sizes.  Heat-trace exponentials and the reported tail bounds are libm's.

Tail bounds follow the spectrum's declared growth model:
polynomial-counting spectra use an incomplete-gamma integral comparison,
exponential spectra a geometric bound from the growth ratio, and the
log-square family a dedicated substitution bound.  The heat trace is the
action of the envelope e^{-tx} at Lambda = 1, so it takes the envelope bound.
Each engine hands the kernel a bound or none, and the kernel alone decides
`converged` and `certified`: a spectrum without a tail model (a JSON-lines
file) is summed to its end and never converges.  On the round spheres the
data are exact (singular values n + c, multiplicities a polynomial in them),
and heat traces of |D| and D^2, zeta values of |D| and D^2, and the actions
of every cut-off whose parts report Euler--Maclaurin shapes (every Laplace
cut-off: `exp`, `window:a,b` with a > 0, `nulltaylor` and their products,
and `powerlaw`; and `gauss`) add a closed-form Euler--Maclaurin estimate of
the tail (`summation.em_tail`) and certify only its remainder: a few to a
few dozen terms instead of up to 2e6.  On D^2 the exponential shapes become
Gaussian ones (`_sphere_shapes`); other shapes keep the counting bound there.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Iterable, NamedTuple

import numpy as np

from .special import gamma, riemann_zeta, upper_gamma
from .spectra import ExponentialTail, LogSquareTail, PolynomialTail, SphereTail, Spectrum
from .summation import EmShape, Envelope, _gauss_legendre, _libm, em_tail, upper_gamma_array

log = logging.getLogger(__name__)

__all__ = [
    "DivergentSeriesError",
    "TruncationReport",
    "PairwiseSummer",
    "heat_trace",
    "zeta_direct",
    "spectral_action_direct",
    "counting",
    "averaged_counting",
    "partial_trace",
    "mellin_check",
]

_MAX_TERMS = 2_000_000


class DivergentSeriesError(ValueError):
    """The requested series diverges for the given parameter."""


@dataclass
class TruncationReport:
    """A certified sum: |value - exact| <= tail_bound, up to rounding, when `certified`.

    `certified` is false only where the sum was tested for a stop with no
    tail certificate; `converged` says the bound met the tolerance.
    `terms_used` counts the summed terms (the head).  Where the tail has a
    closed-form Euler--Maclaurin estimate (round spheres; see the module
    docstring), value = head + estimate and `tail_bound` bounds the
    Euler--Maclaurin remainder; elsewhere the estimate is 0 and `tail_bound`
    bounds the whole tail.
    """
    value: complex
    terms_used: int
    tail_bound: float
    converged: bool
    certified: bool


class PairwiseSummer:
    """Fixed-order pairwise reduction with Kahan-compensated leaf blocks.

    The reduction tree depends only on the order in which terms arrive,
    never on how callers batch them, so re-running with different chunk
    sizes is bit-identical.
    """

    _BLOCK = 64
    _LANES = 16     # from this many leaves on, `extend` runs them lane-wise

    def __init__(self):
        self._stack: list[tuple[int, float]] = []  # (level, partial)
        self._acc = 0.0
        self._comp = 0.0
        self._in_block = 0
        self._count = 0

    def add(self, x: float) -> None:
        # Kahan step inside the current leaf block
        y = x - self._comp
        t = self._acc + y
        self._comp = (t - self._acc) - y
        self._acc = t
        self._in_block += 1
        self._count += 1
        if self._in_block == self._BLOCK:
            self._push(self._acc)
            self._acc = 0.0
            self._comp = 0.0
            self._in_block = 0

    def extend(self, xs: np.ndarray) -> None:
        """`add` each term of xs, bit for bit.  The leaves xs completes are laid
        out as rows (the first starting at the fill of the open leaf), and the
        Kahan step runs down all rows at once, one numpy call per column."""
        B, k0 = self._BLOCK, self._in_block
        rows = (k0 + xs.size) // B
        head = rows * B - k0 if rows >= self._LANES else 0
        if head:
            grid = np.zeros(rows * B, dtype=xs.dtype)
            grid[k0:] = xs[:head]
            grid = grid.reshape(rows, B)
            acc, comp = np.zeros(rows, dtype=xs.dtype), np.zeros(rows, dtype=xs.dtype)
            for j in range(B):
                if j == k0:         # row 0 holds zeros before the open leaf
                    acc[0], comp[0] = self._acc, self._comp
                y = grid[:, j] - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
            for leaf in acc.tolist():
                self._push(leaf)
            self._acc, self._comp, self._in_block = 0.0, 0.0, 0
            self._count += head
        for x in xs[head:].tolist():
            self.add(x)

    def _push(self, val: float) -> None:
        level = 0
        while self._stack and self._stack[-1][0] == level:
            _, prev = self._stack.pop()
            val = prev + val
            level += 1
        self._stack.append((level, val))

    def total(self) -> float:
        out = self._acc
        for _, v in reversed(self._stack):
            out += v
        return out

    @property
    def count(self) -> int:
        return self._count


# ---------------------------------------------------------------------------
# The summation kernel
# ---------------------------------------------------------------------------

class _Cols(NamedTuple):
    """Index, value, multiplicity and term columns of a block."""
    n: np.ndarray
    v: np.ndarray
    m: np.ndarray
    x: np.ndarray

    def at(self, k: int) -> "_Cols":
        return _Cols(*(c[k:k + 1] for c in self))


# Tail bounds are screened with numpy over whole blocks; the one reported is
# libm's, as the scalar formulas had it.  The two differ by a few ulps, far
# below _SCREEN.
_NUMPY = SimpleNamespace(exp=np.exp, log=np.log, power=np.power,
                         upper_gamma=lambda a, y: upper_gamma_array(a, y))
_LIBM = SimpleNamespace(exp=partial(_libm, math.exp), log=partial(_libm, math.log),
                        power=partial(_libm, math.pow),
                        upper_gamma=lambda a, y: _libm(lambda v: upper_gamma(a, v).real, y))
_SCREEN = 1e-9
_EPS = np.finfo(float).eps


def _tails(bound, cols: _Cols, xp):
    """(estimate, bound) of the tails past each index of cols."""
    if bound is None:
        return 0.0, np.full(cols.x.size, math.inf)
    with np.errstate(all="ignore"):     # inf and nan are bounds like any other
        return bound(cols, xp)


def _tail_at(bound, cols: _Cols) -> tuple[float | complex, float]:
    """libm's (estimate, bound) at the single index of cols."""
    est, tail = _tails(bound, cols, _LIBM)
    return (est if np.ndim(est) == 0 else est[0].item()), float(tail[0])


def _certified_sum(spectrum: Spectrum, block_terms, bound, tol: float, base: float):
    """Sum a spectrum's terms up to the first certified stop.

    `block_terms(n, v, m)` gives a block's terms (real or complex), the mask
    of indices where the tail bound holds, and the index of a sharp edge
    ending the sum (or None); `bound(cols, xp)` gives the tails past each
    index as (estimate, bound) with |tail - estimate| <= bound (None: no
    certificate).  The stop is the first n >= 4 where the bound holds and is
    < tol (|base + S_n + estimate| + 1), S_n the running sum; the total is
    S_n + estimate there.  Indices that pass a screen on cumulative sums
    (widened by their rounding error) are tested on the exact sum and libm
    bound, so it is the term-by-term stop.  Index _MAX_TERMS + 1 ends the sum
    unconverged in any case, with an infinite bound where it is not tested.
    A spectrum that runs out is decided by the bound at its final entry,
    whatever its index: without a certificate that bound is infinite.
    The sum is `certified` unless some index was tested without a
    certificate; a sharp edge ends an exact, certified sum.
    Returns (total, terms_used, tail_bound, converged, certified).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"need 0 < tol < inf, got tol={tol}")
    summer = PairwiseSummer()
    count, absum, tested, final = 0, 0.0, False, None
    for v, m in spectrum.blocks():
        n = np.arange(count, count + v.size)
        x, holds, cut = block_terms(n, v, m)
        x, holds = x[:cut], holds[:cut]
        live = holds & (n[:x.size] >= 4)
        absum += float(np.abs(x).sum())
        done = 0
        cols = _Cols(n, v, m, x)
        near = n[:x.size] > _MAX_TERMS          # the term cap, tested or not
        if live.any():
            # the cumulative sums miss the exact running sums by less than slack
            slack = 4.0 * _EPS * (x.size + 64) * absum
            est, tails = _tails(bound, cols, _NUMPY)
            scale = np.abs(base + summer.total() + np.cumsum(x) + est) + slack + 1.0
            near |= live & (tails < tol * (1.0 + _SCREEN) * scale)
        for k in np.flatnonzero(near).tolist():
            summer.extend(x[done:k + 1])
            done = k + 1
            est, tail = _tail_at(bound, cols.at(k)) if live[k] else (0.0, math.inf)
            total = summer.total() + est
            limit = tol * (abs(base + total) + 1.0)
            if tail < limit or n[k] > _MAX_TERMS:
                tested |= bool(live[:k + 1].any())
                return total, k + count + 1, tail, tail < limit, bound is not None or not tested
        tested |= bool(live.any())
        summer.extend(x[done:])
        if cut is not None:
            return summer.total(), count + cut + 1, 0.0, True, True
        final = cols.at(x.size - 1) if holds[-1] else None
        count += v.size
    est, tail = (0.0, math.inf) if final is None else _tail_at(bound, final)
    total = summer.total() + est
    return (total, count, tail, tail < tol * (abs(base + total) + 1.0),
            bound is not None or not tested)


# ---------------------------------------------------------------------------
# Tail bounds
# ---------------------------------------------------------------------------

def _geometric(term: np.ndarray, rho: np.ndarray) -> np.ndarray:
    # term * rho / (1 - rho): the tail of a series whose term ratios stay below rho
    return np.where(rho < 1.0, term * rho / (1.0 - rho), math.inf)


def _poly_heat_tail(tail: PolynomialTail, t: float, X: np.ndarray, xp) -> np.ndarray:
    # sum_{mu_n > X} M_n e^{-t mu_n} <= A e^{tc} t^{-P} Gamma(P+1, t(c+X))
    A, P, c = tail.coeff, tail.power, tail.offset
    y = t * (c + X)
    far = y > 2.0 * (P + 1.0) + 4.0
    out = np.empty(X.shape)
    # Gamma(P+1, y) <= 2 y^P e^{-y} there, so the bound collapses to
    # 2 A (c+X)^P e^{-tX} without the overflowing e^{tc} factor
    out[far] = 2.0 * A * xp.power(c + X[far], P) * xp.exp(np.maximum(-t * X[far], -745.0))
    if not far.all():
        out[~far] = A * math.exp(t * c) * t ** (-P) * xp.upper_gamma(P + 1.0, y[~far])
    return out


def _poly_power_tail(tail: PolynomialTail, sigma: float, X: np.ndarray, xp) -> np.ndarray:
    # sum_{mu_n > X} M_n mu_n^{-sigma} <= sigma A ((c+X)/X)^P X^{P-sigma}/(sigma-P)
    A, P, c = tail.coeff, tail.power, tail.offset
    if sigma <= P:
        return np.full(X.shape, math.inf)
    return sigma * A * xp.power((c + X) / X, P) * xp.power(X, P - sigma) / (sigma - P)


def _power_tail(tail, sigma: float):
    """bound(cols, xp) on sum_{m>n} M_m mu_m^{-sigma} for a polynomial or
    exponential tail model, None for any other."""
    if isinstance(tail, PolynomialTail):
        return lambda c, xp: _poly_power_tail(tail, sigma, c.v, xp)
    if isinstance(tail, ExponentialTail):
        return lambda c, xp: _geometric(c.m * xp.power(c.v, -sigma),
                                        (c.n + 2) / (c.n + 1) * tail.ratio ** -sigma)
    return None


def _shifted(coeffs: tuple, delta: float) -> tuple:
    """Coefficients in u of sum_j coeffs[j] (u - delta)^j."""
    return tuple(sum(a * math.comb(j, k) * (-delta) ** (j - k)
                     for j, a in enumerate(coeffs) if j >= k) for k in range(len(coeffs)))


def _sphere_shapes(tail, shapes):
    """A summand given as `summation.EmShape`s in mu as shapes in u_n on exact
    sphere data (`SphereTail`), or None.  On |D| mu = u; on D^2 mu = u^2, so
    e^{-t mu} is the Gaussian shape e^{-t u^2} and mu^{-s} is u^{-2s}, and
    any other shape (a u^{-1} factor, a shift, a Gaussian) has no image."""
    if not shapes or not isinstance(tail, SphereTail):
        return None
    if not tail.squared:
        return shapes
    if any(sh.low or sh.delta or sh.kind == "gauss" for sh in shapes):
        return None
    return [sh._replace(kind="gauss") if sh.kind == "exp" else sh._replace(param=2.0 * sh.param)
            for sh in shapes]


def _estimated(tail, shapes, counting):
    """The tail model's bound(cols, xp) -> (estimate, bound) from the
    array bound `counting` (None: no certificate).

    `shapes` (from `_sphere_shapes`, or None) lists the summand on exact
    sphere data as `summation.EmShape`s in u_n: M_n sum weight u^low h(u),
    u = u_n + delta, all of one kind, low and delta, and one shape if a power
    (every cut-off's are).  Their Euler--Maclaurin tail, one array call over
    all of them, gives the estimate and bound wherever those are finite;
    elsewhere, and without such shapes, the estimate is 0 and the bound
    `counting`.
    """
    if counting is None:
        return None
    em = None
    if (shapes and len({(sh.kind, sh.delta, sh.low) for sh in shapes}) == 1
            and (len(shapes) == 1 or shapes[0].kind != "power")):
        kind, delta, low = shapes[0].kind, shapes[0].delta, shapes[0].low
        lead = 1.0 + tail.shift + delta                     # U at n = 0
        try:
            em = em_tail(_shifted(tail.mults, delta), kind, [sh.param for sh in shapes], low,
                         [sh.weight for sh in shapes], lead)
        except OverflowError:           # the tail's own coefficients overflow
            pass
    if em is None:
        return lambda c, xp: (0.0, counting(c, xp))

    def bound(c, xp):
        try:
            est, err = em(c.n + lead, xp)                   # U = u_{n+1} + delta
        except OverflowError:           # libm's refusal of what numpy takes to inf
            est = err = np.full(c.n.size, math.inf)
        ok = np.isfinite(est) & np.isfinite(err)
        if ok.all():
            return est, err
        return np.where(ok, est, 0.0), np.where(ok, err, counting(c, xp))

    return bound


def _logsq_heat_tail(tail: LogSquareTail, t: float, n, term, xp) -> np.ndarray:
    X = n + tail.shift + 1.0
    lead = 2.0 * t * xp.log(X)
    return np.where(lead <= 1.0, math.inf, term * X / (lead - 1.0))


# ---------------------------------------------------------------------------
# Heat trace
# ---------------------------------------------------------------------------

def heat_trace(spectrum: Spectrum, t: float, tol: float = 1e-12,
               include_kernel: bool = True) -> TruncationReport:
    """Tr K e^{-t|D|} = kernel_dim + sum_n M_n e^{-t mu_n}.

    The kernel enters with weight 1, i.e. the convention
    h(t) = Tr_{(1-P0)H} e^{-t|D|} + dim ker D.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"heat_trace: need 0 < t < inf, got t={t}")
    meta, tail = spectrum.meta, spectrum.meta.tail
    base = float(meta.kernel_dim) if include_kernel and meta.kernel_dim else 0.0
    # the action of e^{-tx} at Lambda = 1, whose terms are its envelope's terms
    bound = _estimated(tail, _sphere_shapes(tail, [EmShape(1.0, "exp", t)]),
                       _envelope_tail(tail, Envelope("exp", 1.0, t), 1.0, lambda c, xp: c.x))

    def block_terms(n, v, m):
        x = m * _libm(math.exp, np.maximum(-t * v, -745.0))
        x[t * v >= 745] = 0.0
        return x, np.ones(x.size, bool), None

    total, terms, tail_bound, converged, certified = _certified_sum(
        spectrum, block_terms, bound, tol, base=base)
    return TruncationReport(base + total, terms, tail_bound, converged, certified)


# ---------------------------------------------------------------------------
# Zeta values by direct summation
# ---------------------------------------------------------------------------

def zeta_direct(spectrum: Spectrum, s: complex, tol: float = 1e-12,
                include_kernel: bool = True) -> TruncationReport:
    """zeta_D(s) = Tr |D|^{-s} with the D = curly-D + P_0 convention:
    kernel eigenvalues contribute 1^{-s} * kernel_dim, the rest is the sum
    over nonzero singular values of M_n mu_n^{-s}.

    Refuses (DivergentSeriesError) unless Re(s) > dimension_p strictly.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"zeta_direct: need a finite s, got s={s}")
    meta, tail = spectrum.meta, spectrum.meta.tail
    sigma = s.real
    if not math.isfinite(meta.dimension_p) or sigma <= meta.dimension_p:
        raise DivergentSeriesError(
            f"zeta_direct: Re(s)={sigma} <= p={meta.dimension_p}: series diverges")
    log.debug("zeta_direct: convergence margin Re(s) - p = %g",
              sigma - meta.dimension_p)

    base = float(meta.kernel_dim) if include_kernel and meta.kernel_dim else 0.0

    def block_terms(n, v, m):
        x = m * v ** (-sigma)
        return x * np.exp(-1j * s.imag * np.log(v)) if s.imag else x, np.ones(x.size, bool), None

    bound = _estimated(tail, _sphere_shapes(tail, [EmShape(1.0, "power", s)]),
                       _power_tail(tail, sigma))
    total, terms, tail_bound, converged, certified = _certified_sum(
        spectrum, block_terms, bound, tol, base=base)
    return TruncationReport(complex(base + total), terms, tail_bound, converged, certified)


# ---------------------------------------------------------------------------
# Spectral action
# ---------------------------------------------------------------------------

def spectral_action_direct(spectrum: Spectrum, f, lam: float,
                           tol: float = 1e-12) -> TruncationReport:
    """Tr f(|D|/Lambda) = kernel_dim f(0) + sum_n M_n f(mu_n/Lambda).

    `f` exposes `evaluate`, `f0` and exactly one tail certificate: a sharp
    `edge`, which ends the sum; an `envelope` f <= C h for every x >= 0,
    h(x) = e^{-ax} or e^{-(x/w)^2}; or a `decay_certificate` (p, C, x0),
    |f(x)| <= C x^{-p} for x >= x0 (CutoffFunction, SchwartzCutoff or
    IndicatorCutoff).  Any other cut-off, a bare callable included, is
    refused with a TypeError, since no truncation can be certified.  On a
    spectrum with polynomial growth a decay p <= dimension_p diverges
    (DivergentSeriesError).  An envelope bound past the floats raises
    OverflowError.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"spectral_action_direct: need 0 < Lambda < inf, got {lam}")
    edge, env, cert = (getattr(f, k, None) for k in ("edge", "envelope", "decay_certificate"))
    if (edge is not None) + (env is not None) + (cert is not None) != 1:
        raise TypeError("spectral_action_direct: the cutoff must report exactly one tail "
                        "certificate (a sharp edge, an envelope or a decay certificate)")
    meta, tail = spectrum.meta, spectrum.meta.tail
    if cert is not None and isinstance(tail, PolynomialTail) and cert[0] <= meta.dimension_p:
        raise DivergentSeriesError(
            f"spectral_action_direct: cutoff decay p={cert[0]} <= p={meta.dimension_p}: "
            "series diverges")
    base = meta.kernel_dim * f.f0() if meta.kernel_dim else 0.0
    shapes = (_sphere_shapes(tail, f.em_shapes(lam))
              if isinstance(tail, SphereTail) and hasattr(f, "em_shapes") else None)
    # the bound holds from x = mu/Lambda >= x0 on: an edge ends the sum there
    x0 = edge if edge is not None else cert[2] if cert is not None else 0.0

    def block_terms(n, v, m):
        x = v / lam
        beyond = np.flatnonzero(x > edge) if edge is not None else ()
        return (m * f.evaluate(x), np.ones(x.size, bool) if shapes else x >= x0,
                int(beyond[0]) if len(beyond) else None)

    if env is not None:
        counting = _envelope_tail(tail, env, lam)
    elif cert is not None and (power := _power_tail(tail, cert[0])) is not None:
        p_f, C_f, _ = cert
        counting = lambda c, xp: np.where(c.v / lam >= x0, C_f * lam ** p_f * power(c, xp),
                                          math.inf)
    else:
        counting = None
    bound = _estimated(tail, shapes, counting)
    total, terms, tail_bound, converged, certified = _certified_sum(
        spectrum, block_terms, bound, tol, base=base)
    return TruncationReport(base + total, terms, tail_bound, converged, certified)


def _envelope_tail(tail, env, lam: float, term=None):
    """bound(cols, xp) on sum_{m>n} M_m f(mu_m/Lambda) from an envelope
    f <= C h, h(x) = e^{-ax} or e^{-(x/w)^2}, on a polynomial, exponential
    or log-square tail model; None on any other.  `term(cols, xp)`, the
    column M_n h(mu_n/Lambda), defaults to computing it: the heat trace, the
    envelope e^{-tx} at Lambda = 1, hands over its own term column.

    With h decreasing and N(L) <= A (c+L)^P, Stieltjes integration (dropping
    -h(X/Lambda) N(X) <= 0) bounds the tail past X by
    int_X^oo A (c+u)^P d(-h(u/Lambda)): the incomplete-gamma heat-trace bound
    at t = a/Lambda for h = e^{-ax}, and, with Q = ceil(P),
    A ((c+X)/X)^P X^{P-Q} (w Lambda)^Q Gamma(Q/2+1, (X/(w Lambda))^2)
    for h = e^{-(x/w)^2}, since (c+u)^P <= ((c+X)/X)^P X^{P-Q} u^Q past X;
    so Gamma is only needed at integer and half-integer a.
    With mu_{m+1} >= r mu_m and h(r x)/h(x) falling in x, the terms
    M_m h(mu_m/Lambda) past n fall by at most
    (n+2)/(n+1) h(r mu_n/Lambda)/h(mu_n/Lambda) each: a geometric bound.
    On mu_n = ln^2(n + shift) the substitution u = ln x bounds the heat tail
    past n by the term M_n e^{-t mu_n} times X/(2t ln X - 1), X = n + shift + 1.
    A Gaussian takes that bound through e^{-(x/w)^2} <= e^{(aw)^2/4} e^{-ax},
    which holds for every a > 0 (the difference of the exponents is a
    square); at index n, a = 2 mu_n/(Lambda w^2) makes the right side
    e^{-(mu_n/(w Lambda))^2}, the envelope at mu_n itself, with the heat rate
    t = a/Lambda = 2 mu_n/(w Lambda)^2.
    """
    if env.kind == "exp":
        t = env.a / lam
        y = lambda v: t * v                 # h(v/Lambda) = e^{-y(v)}
    else:
        s = env.a * lam
        y = lambda v: (v / s) ** 2
    if term is None:
        term = lambda c, xp: c.m * xp.exp(-y(c.v))
    if isinstance(tail, ExponentialTail):
        # h(r mu/Lambda)/h(mu/Lambda) = e^{-(k-1) y}
        k = tail.ratio if env.kind == "exp" else tail.ratio * tail.ratio
        return lambda c, xp: env.C * _geometric(
            term(c, xp), (c.n + 2) / (c.n + 1) * xp.exp(-(k - 1.0) * y(c.v)))
    if isinstance(tail, LogSquareTail):
        rate = (lambda v: t) if env.kind == "exp" else (lambda v: 2.0 * v / (s * s))
        return lambda c, xp: env.C * _logsq_heat_tail(tail, rate(c.v), c.n, term(c, xp), xp)
    if not isinstance(tail, PolynomialTail):
        return None
    if env.kind == "exp":
        return lambda c, xp: env.C * _poly_heat_tail(tail, t, c.v, xp)
    A, P, off = tail.coeff, tail.power, max(tail.offset, 0.0)
    Q = float(math.ceil(P))
    scale = env.C * A * s ** Q
    return lambda c, xp: scale * xp.power((off + c.v) / c.v, P) * xp.power(c.v, P - Q) \
        * xp.upper_gamma(Q / 2.0 + 1.0, (c.v / s) ** 2)


# ---------------------------------------------------------------------------
# Counting functions
# ---------------------------------------------------------------------------

def counting(spectrum: Spectrum, lam: float) -> int:
    """N(Lambda) = total multiplicity of singular values <= Lambda (kernel included)."""
    total = spectrum.meta.kernel_dim
    for v, m in spectrum.blocks():
        k = int(np.searchsorted(v, lam, side="right"))
        total += int(m[:k].sum())
        if k < v.size:
            break
    return total


def averaged_counting(coeffs: Iterable[float], lam: float, kernel_dim: int = 0) -> float:
    """<N(Lambda)> = int_0^Lambda P(u) du + sum_j c_j zeta(-j) + kernel_dim,

    for spec(D) = Z^* with total multiplicity P(n) = sum_j c_j n^j of {+-n}.
    """
    coeffs = list(coeffs)
    acc = kernel_dim * 1.0
    for j, c in enumerate(coeffs):
        acc += c * lam ** (j + 1) / (j + 1)
        acc += c * riemann_zeta(complex(-j, 0.0)).real
    return acc


# ---------------------------------------------------------------------------
# Partial trace
# ---------------------------------------------------------------------------

def partial_trace(pairs: Iterable[tuple[float, int]], level: float) -> float:
    """Tr_lambda(T) for a positive compact T given as decreasing (value, mult).

    Piecewise-linear interpolation between integer cut counts: this is the
    attained infimum of the trace-class + compact splitting formula for
    positive operators.
    """
    if level < 0:
        raise ValueError("partial_trace: need level >= 0")
    acc = 0.0
    count = 0.0
    prev = math.inf
    for v, m in pairs:
        if v <= 0:
            raise ValueError("partial_trace: values must be positive")
        if v > prev + 1e-12:
            raise ValueError("partial_trace: values must be nonincreasing")
        prev = v
        if count + m >= level:
            return acc + (level - count) * v
        acc += m * v
        count += m
    return acc


# ---------------------------------------------------------------------------
# Mellin identity check
# ---------------------------------------------------------------------------

def mellin_check(spectrum: Spectrum, s: complex) -> float:
    """Relative residual of  int_0^oo t^{s-1} h0(t) dt = Gamma(s) zeta(s)

    with the kernel-free heat trace h0.  The integral is split at t = 1 with
    a log substitution on (0, 1), each part by composite Gauss--Legendre;
    both sides use independent code paths.
    """
    s = complex(s)
    meta = spectrum.meta
    if s.real <= meta.dimension_p:
        raise DivergentSeriesError("mellin_check: need Re(s) > p")

    h0 = spectrum.heat0_closed
    if h0 is None:
        def h0(t: float) -> float:
            return float(heat_trace(spectrum, t, tol=1e-13,
                                    include_kernel=False).value)

    # (0, 1] as t = e^{-v}, v in [0, V]; then [1, T]
    r = meta.dimension_p + 0.25 * (s.real - meta.dimension_p)
    V = (40.0 + math.log(h0(1.0) + 2.0)) / (s.real - r)
    T = 1.0 + 45.0 / next(iter(spectrum.entries())).value
    total = (_gauss_legendre(lambda v: h0(math.exp(-v)) * cmath.exp(-s * v), 0.0, V)
             + _gauss_legendre(lambda t: h0(t) * cmath.exp((s - 1.0) * math.log(t)), 1.0, T))

    rep = zeta_direct(spectrum, s, tol=1e-13, include_kernel=False)
    if not rep.converged:
        raise ArithmeticError(f"mellin_check: zeta_direct at s={s} did not converge "
                              f"({rep.terms_used} terms, tail bound {rep.tail_bound:.3g})")
    rhs = gamma(s) * rep.value
    return abs(total - rhs) / abs(rhs)
