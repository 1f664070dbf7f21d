"""Certified direct summation of general Dirichlet series.

Heat traces, zeta values in the convergence half-plane, spectral actions,
counting functions and partial/Dixmier traces, all by direct summation over
a `Spectrum` with an explicit truncation certificate attached to every
result (`TruncationReport`).

Summation is deterministic: one kernel walks the spectrum's blocks in
ascending singular value order, and the terms are folded through a fixed
pairwise reduction tree with Kahan compensation at its 64-term leaves
(`PairwiseSummer`), bit for bit as if one at a time, whatever the block
sizes.  Heat-trace exponentials and the reported tail bounds are libm's.

Tail bounds follow the spectrum's declared growth model:
polynomial-counting spectra use an incomplete-gamma integral comparison,
exponential spectra a geometric bound from the growth ratio, and the
log-square family a dedicated substitution bound.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from types import SimpleNamespace
from typing import Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad

from .special import gamma, riemann_zeta, upper_gamma
from .spectra import ExponentialTail, LogSquareTail, PolynomialTail, Spectrum, block_ranges

log = logging.getLogger(__name__)

__all__ = [
    "DivergentSeriesError",
    "TruncationReport",
    "PairwiseSummer",
    "heat_trace",
    "zeta_direct",
    "zeta_richardson",
    "spectral_action_direct",
    "counting",
    "averaged_counting",
    "partial_trace",
    "dixmier_estimate",
    "mellin_check",
]

_MAX_TERMS = 2_000_000


class DivergentSeriesError(ValueError):
    """The requested series diverges for the given parameter."""


@dataclass
class TruncationReport:
    value: complex
    terms_used: int
    tail_bound: float
    converged: bool
    certified: bool = True

    def __float__(self) -> float:
        return float(self.value.real if isinstance(self.value, complex) else self.value)


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
    """Index, value, multiplicity, term and engine column (`aux`) of a block."""
    n: np.ndarray
    v: np.ndarray
    m: np.ndarray
    x: np.ndarray
    aux: np.ndarray | None

    def at(self, k: int) -> "_Cols":
        return _Cols(*(None if c is None else c[k:k + 1] for c in self))


def _libm(fn, x: np.ndarray, *consts) -> np.ndarray:
    """A `math` function over an array.  numpy's SIMD exp, pow and log differ
    from libm in the last place on a few percent of inputs, and by CPU."""
    return np.fromiter(map(fn, x.tolist(), *map(repeat, consts)), float, x.size)


# Tail bounds are screened with numpy over whole blocks; the one reported is
# libm's, as the scalar formulas had it.  The two differ by a few ulps, far
# below _SCREEN.
_NUMPY = SimpleNamespace(exp=np.exp, log=np.log, power=np.power,
                         upper_gamma=lambda a, y: upper_gamma(a, y))
_LIBM = SimpleNamespace(exp=partial(_libm, math.exp), log=partial(_libm, math.log),
                        power=partial(_libm, math.pow),
                        upper_gamma=lambda a, y: np.array([upper_gamma(a, v).real
                                                           for v in y.tolist()]))
_SCREEN = 1e-9
_EPS = np.finfo(float).eps


def _tails(bound, cols: _Cols, xp) -> np.ndarray:
    if bound is None:
        return np.full(cols.n.size, math.inf)
    with np.errstate(all="ignore"):     # inf and nan are bounds like any other
        return bound(cols, xp)


def _certified_sum(spectrum: Spectrum, block_terms, bound, tol: float,
                   base: float = 0.0, seed: float | None = None):
    """Sum a spectrum's terms up to the first certified stop.

    `block_terms(n, v, m)` gives a block's terms (real or complex), its `aux`
    column, the mask of indices where the stop is tested, and the index of a
    sharp edge ending the sum (or None); `bound(cols, xp)` gives tail bounds
    (None: no certificate).  The stop is the first tested n with bound
    < tol (|base + S_n| + 1), S_n the running sum from `seed`.  Indices that
    pass a screen on cumulative sums (widened by their rounding error) are
    tested on the exact sum and libm bound, so it is the term-by-term stop.
    Index _MAX_TERMS + 1 ends the sum unconverged in any case, with an
    infinite bound where it is not tested.
    Returns (total, terms_used, tail_bound, converged, tested).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"need 0 < tol < inf, got tol={tol}")
    summer = PairwiseSummer()
    if seed is not None:
        summer.add(seed)
    count, absum, last = 0, 0.0, None           # last: the last tested index
    for v, m in spectrum.blocks():
        n = np.arange(count, count + v.size)
        x, aux, live, cut = block_terms(n, v, m)
        x, live = x[:cut], live[:cut]
        absum += float(np.abs(x).sum())
        done = 0
        cols = _Cols(n, v, m, x, aux)
        near = n[:x.size] > _MAX_TERMS          # the term cap, tested or not
        if live.any():
            # the cumulative sums miss the exact running sums by less than slack
            slack = 4.0 * _EPS * (x.size + 64) * absum
            scale = np.abs(base + summer.total() + np.cumsum(x)) + slack + 1.0
            near |= live & (_tails(bound, cols, _NUMPY)[:x.size]
                            < tol * (1.0 + _SCREEN) * scale)
        for k in np.flatnonzero(near).tolist():
            summer.extend(x[done:k + 1])
            done = k + 1
            tail = float(_tails(bound, cols.at(k), _LIBM)[0]) if live[k] else math.inf
            limit = tol * (abs(base + summer.total()) + 1.0)
            if tail < limit or n[k] > _MAX_TERMS:
                return (summer.total(), k + count + 1, tail, tail < limit,
                        bool(live[:k + 1].any()) or last is not None)
        if live.any():
            last = cols.at(int(np.flatnonzero(live)[-1]))
        summer.extend(x[done:])
        if cut is not None:
            return summer.total(), count + cut + 1, 0.0, True, last is not None
        count += v.size
    tail = math.inf if last is None else float(_tails(bound, last, _LIBM)[0])
    return summer.total(), count, tail, False, last is not None


# ---------------------------------------------------------------------------
# Tail bounds
# ---------------------------------------------------------------------------

def _geometric(term: np.ndarray, rho: np.ndarray, cap: float = 1.0) -> np.ndarray:
    # term * rho / (1 - rho): the tail of a series whose term ratios stay below rho
    return np.where(rho < cap, term * rho / (1.0 - rho), math.inf)


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


def _logsq_heat_tail(tail: LogSquareTail, t: float, n, term, xp) -> np.ndarray:
    X = n + tail.shift + 1.0
    lead = 2.0 * t * xp.log(X)
    return np.where(lead <= 1.0, math.inf, term * X / (lead - 1.0))


def _ratio_window():
    """rho_n for spectra without a tail model: the largest ratio term_k / term_{k-1}
    between positive terms over the last 8 indices k <= n, or 1 if there is none."""
    before = np.zeros(8)

    def rho(x: np.ndarray) -> np.ndarray:
        nonlocal before
        ext = np.concatenate((before, x))
        r = np.divide(ext[1:], ext[:-1], out=np.full(ext.size - 1, -math.inf),
                      where=(ext[:-1] > 0) & (ext[1:] > 0))
        before = ext[-8:]
        window = sliding_window_view(r, 8).max(axis=1)
        return np.where(window > -math.inf, window, 1.0)

    return rho


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
    bound = {
        PolynomialTail: lambda c, xp: _poly_heat_tail(tail, t, c.v, xp),
        # mu_{m+1} - mu_m >= (ratio - 1) mu_n for every m >= n
        ExponentialTail: lambda c, xp: _geometric(
            c.x, (c.n + 2) / (c.n + 1) * xp.exp(-t * (tail.ratio - 1.0) * c.v)),
        LogSquareTail: lambda c, xp: _logsq_heat_tail(tail, t, c.n, c.x, xp),
    }.get(type(tail))
    window = None
    if bound is None:           # uncertified: a geometric tail from recent term ratios
        window = _ratio_window()
        bound = lambda c, xp: _geometric(c.x, c.aux, cap=0.95)

    def block_terms(n, v, m):
        x = m * _libm(math.exp, np.maximum(-t * v, -745.0))
        x[t * v >= 745] = 0.0
        return x, window(x) if window else None, n >= 4, None

    total, terms, tail_bound, converged, _ = _certified_sum(
        spectrum, block_terms, bound, tol, base=base)
    return TruncationReport(base + total, terms, tail_bound, converged, tail is not None)


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

    def block_terms(n, v, m):
        x = m * v ** (-sigma)
        return x * np.exp(-1j * s.imag * np.log(v)) if s.imag else x, None, n >= 4, None

    bound = _power_tail(tail, sigma)
    total, terms, tail_bound, converged, tested = _certified_sum(
        spectrum, block_terms, bound, tol,
        seed=float(meta.kernel_dim) if include_kernel and meta.kernel_dim else None)
    certified = tail is not None and not (bound is None and tested)
    return TruncationReport(complex(total), terms, tail_bound, converged, certified)


def zeta_richardson(spectrum: Spectrum, s: complex, n_terms: int = 400_000,
                    include_kernel: bool = True) -> complex:
    """Tail-extrapolated zeta for polynomial-growth spectra.

    The tail past the cut mu obeys T(mu) = c1 mu^{p-sigma} + c2 mu^{p-sigma-1}
    + O(mu^{p-sigma-2}); partial sums at cuts mu, mu/2, mu/4 determine
    (S_infty, c1, c2) exactly through that order.
    """
    s = complex(s)
    meta = spectrum.meta
    if not isinstance(meta.tail, PolynomialTail):
        return zeta_direct(spectrum, s, include_kernel=include_kernel).value
    if s.real <= meta.dimension_p:
        raise DivergentSeriesError("zeta_richardson: Re(s) <= p")
    blocks = [block for _, block in zip(block_ranges(n_terms), spectrum.blocks())]
    values, mults = (np.concatenate(part)[:n_terms] for part in zip(*blocks))
    mu_f = values[-1]
    cuts = [mu_f / 4.0, mu_f / 2.0, mu_f]
    # running sums, the kernel first; partials stop before the first value past a cut
    acc = np.cumsum(np.concatenate((
        [complex(meta.kernel_dim if include_kernel else 0.0)],
        mults * values.astype(complex) ** (-s))))
    partials = [acc[np.searchsorted(values, c, side="right")] for c in cuts[:2]] + [acc[-1]]
    beta = s - meta.dimension_p
    # S_inf = S(mu_k) + c1 mu_k^{-beta} + c2 mu_k^{-beta-1}, k = 0,1,2
    mus = np.array(cuts, dtype=complex)
    A = np.vstack([np.ones(3, dtype=complex), mus ** (-beta),
                   mus ** (-beta - 1.0)]).T
    sol = np.linalg.solve(A, np.array(partials, dtype=complex))
    return complex(sol[0])


# ---------------------------------------------------------------------------
# Spectral action
# ---------------------------------------------------------------------------

def spectral_action_direct(spectrum: Spectrum, f, lam: float,
                           tol: float = 1e-12) -> TruncationReport:
    """Tr f(|D|/Lambda) = kernel_dim f(0) + sum_n M_n f(mu_n/Lambda).

    `f` must expose `evaluate`, `f0` and `decay_certificate` (CutoffFunction,
    SchwartzCutoff or IndicatorCutoff); a bare callable is refused since no
    truncation can be certified.  Without a sharp edge, the certificate must
    decay: p = inf is refused, and on a spectrum with polynomial growth a
    decay p <= dimension_p diverges (DivergentSeriesError).
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"spectral_action_direct: need 0 < Lambda < inf, got {lam}")
    if not hasattr(f, "decay_certificate"):
        raise TypeError("spectral_action_direct: cutoff lacks a decay certificate")
    p_f, C_f, x0_f = f.decay_certificate
    meta, tail = spectrum.meta, spectrum.meta.tail
    edge = getattr(f, "edge", None)
    if edge is None and math.isinf(p_f):
        raise ValueError("spectral_action_direct: decay p = inf needs a sharp edge")
    if edge is None and isinstance(tail, PolynomialTail) and p_f <= meta.dimension_p:
        raise DivergentSeriesError(
            f"spectral_action_direct: cutoff decay p={p_f} <= p={meta.dimension_p}: "
            "series diverges")
    base = meta.kernel_dim * f.f0() if meta.kernel_dim else 0.0

    def block_terms(n, v, m):
        x = v / lam
        beyond = np.flatnonzero(x > edge) if edge is not None else ()
        return (m * f.evaluate(x), x, (n >= 4) & (x >= x0_f),
                int(beyond[0]) if len(beyond) else None)

    # f(x) <= C_f x^{-p_f} from x0_f on; an edge ends the sum
    power = None if edge is not None else _power_tail(tail, p_f)
    bound = None if power is None else lambda c, xp: C_f * lam ** p_f * power(c, xp)
    total, terms, tail_bound, converged, tested = _certified_sum(
        spectrum, block_terms, bound, tol, base=base)
    certified = isinstance(tail, (PolynomialTail, ExponentialTail)) or not tested
    return TruncationReport(base + total, terms, tail_bound, converged, certified)


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
        if j == 0:
            acc += c * (-0.5)  # zeta(0)
        else:
            acc += c * riemann_zeta(complex(-j, 0.0)).real
    return acc


# ---------------------------------------------------------------------------
# Partial trace and Dixmier estimate
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


def dixmier_estimate(spectrum: Spectrum, exponent: float, N: int) -> float:
    """Dixmier-trace estimate for T = |D|^{-exponent}: Tr_N(T)/log N with a
    two-point Richardson extrapolation over N and N/2 in h = 1/log N."""
    if N < 8:
        raise ValueError("dixmier_estimate: need N >= 8")

    def tr_over_log(cut: int) -> float:
        acc, count = 0.0, 0
        for v, m in spectrum.blocks():
            w = v ** (-exponent)
            reached = count + np.cumsum(m)
            k = int(np.searchsorted(reached, cut))      # first entry reaching cut
            if k < v.size:
                before = count if k == 0 else int(reached[k - 1])
                return float(acc + np.sum(m[:k] * w[:k]) + (cut - before) * w[k]) / math.log(cut)
            acc += float(np.sum(m * w))
            count = int(reached[-1])
        return acc / math.log(cut)

    r1, r2 = tr_over_log(N), tr_over_log(N // 2)
    h1, h2 = 1.0 / math.log(N), 1.0 / math.log(N // 2)
    return (r1 * h2 - r2 * h1) / (h2 - h1)


# ---------------------------------------------------------------------------
# Mellin identity check
# ---------------------------------------------------------------------------

def mellin_check(spectrum: Spectrum, s: complex) -> float:
    """Relative residual of  int_0^oo t^{s-1} h0(t) dt = Gamma(s) zeta(s)

    with the kernel-free heat trace h0.  The integral is split at t = 1 with
    a log substitution on (0, 1); both sides use independent code paths.
    """
    s = complex(s)
    meta = spectrum.meta
    if s.real <= meta.dimension_p:
        raise DivergentSeriesError("mellin_check: need Re(s) > p")

    if spectrum.heat0_closed is not None:
        h0 = spectrum.heat0_closed
    else:
        def h0(t: float) -> float:
            return float(heat_trace(spectrum, t, tol=1e-13,
                                    include_kernel=False).value)

    # lower part: t = e^{-v}
    r = meta.dimension_p + 0.25 * (s.real - meta.dimension_p)
    amp = h0(1.0) + 1.0
    V = (40.0 + math.log(amp + 1.0)) / (s.real - r)

    def low_integrand(v: float, part: int) -> float:
        val = h0(math.exp(-v)) * cmath.exp(-s * v)
        return val.real if part == 0 else val.imag

    mu0 = next(iter(spectrum.entries())).value
    T = 1.0 + 45.0 / mu0

    def high_integrand(t: float, part: int) -> float:
        val = h0(t) * cmath.exp((s - 1.0) * math.log(t))
        return val.real if part == 0 else val.imag

    total = 0.0 + 0.0j
    for part in (0, 1):
        lo, _ = quad(low_integrand, 0.0, V, args=(part,), limit=400,
                     epsabs=1e-13, epsrel=1e-11)
        hi, _ = quad(high_integrand, 1.0, T, args=(part,), limit=400,
                     epsabs=1e-13, epsrel=1e-11)
        total += complex(lo + hi) * (1.0 if part == 0 else 1.0j)

    if isinstance(meta.tail, PolynomialTail):
        zval = zeta_richardson(spectrum, s, include_kernel=False)
    else:
        zval = zeta_direct(spectrum, s, tol=1e-13, include_kernel=False).value
    rhs = gamma(s) * zval
    return abs(total - rhs) / abs(rhs)
