"""Cut-off functions as Laplace transforms of signed measures on [0, oo).

A cut-off f = L[phi] is represented by its measure phi, decomposed into
atoms, gamma-type densities, window (indicator) densities and quadrature
densities (nodes + weights, used for tabulated measures and convolutions).
The class membership data is carried explicitly as the decay certificate
(p, C, x0):  f(x) <= C x^{-p} for x >= x0.

Pointwise evaluation of products multiplies the factors' closed forms
(L[phi * chi] = L[phi] L[chi]), so direct summation stays cheap even when
the measure-side data of a product is a quadrature convolution.

Schwartz cut-offs without a Laplace representation (Gaussians) are supported
as pointwise callables only; they are rejected by the measure-side services.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .special import digamma, log_gamma, trigamma

__all__ = [
    "Atom",
    "GammaDensity",
    "WindowDensity",
    "QuadDensity",
    "SignedMeasure",
    "CutoffFunction",
    "SchwartzCutoff",
    "IndicatorCutoff",
    "exp_cutoff",
    "window_cutoff",
    "powerlaw_cutoff",
    "null_taylor_cutoff",
    "gaussian_cutoff",
    "product",
    "parse_cutoff",
]


# ---------------------------------------------------------------------------
# Measure components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    location: float
    weight: float

    def evaluate(self, x):
        return self.weight * np.exp(-self.location * x)

    def moment(self, m: float, absolute: bool = False) -> float:
        w = abs(self.weight) if absolute else self.weight
        if self.location == 0.0:
            if m == 0:
                return w
            if m > 0:
                return 0.0
            raise ValueError("Atom at 0 has no negative moments")
        return w * self.location ** m

    def f_moment(self, z: complex, n: int) -> complex:
        a = self.location
        if a == 0.0:
            if n == 0 and z == 0:
                return complex(self.weight)
            raise ValueError("Atom at 0: f_moment undefined for z != 0 or n > 0")
        return self.weight * cmath.exp(-z * math.log(a)) * math.log(a) ** n


@dataclass(frozen=True)
class GammaDensity:
    """weight * rate^r s^{r-1} e^{-rate s} / Gamma(r); L -> weight (1 + x/rate)^{-r}."""
    r: float
    rate: float
    weight: float = 1.0
    shift: float = 0.0  # measure translated by `shift` (from atom products)

    def evaluate(self, x):
        base = self.weight * (1.0 + np.asarray(x, dtype=float) / self.rate) ** (-self.r)
        if self.shift:
            base = base * np.exp(-self.shift * np.asarray(x, dtype=float))
        return base

    def moment(self, m: float, absolute: bool = False) -> float:
        w = abs(self.weight) if absolute else self.weight
        if self.shift == 0.0:
            if self.r + m <= 0:
                raise ValueError(f"GammaDensity: moment m={m} diverges (r={self.r})")
            lg = log_gamma(self.r + m).real - log_gamma(self.r).real
            return w * math.exp(lg - m * math.log(self.rate))
        if m == int(m) and m >= 0:
            acc = 0.0
            for j in range(int(m) + 1):
                lg = log_gamma(self.r + j).real - log_gamma(self.r).real
                acc += math.comb(int(m), j) * self.shift ** (int(m) - j) \
                    * math.exp(lg - j * math.log(self.rate))
            return w * acc
        return self._quad_moment(m, absolute)

    def _quad_nodes(self, n: int = 400):
        # Gauss-Legendre on [0, span] against the gamma pdf
        span = self.shift + (self.r + 40.0) / self.rate
        x, wq = np.polynomial.legendre.leggauss(n)
        s = 0.5 * span * (x + 1.0) + self.shift
        wq = wq * 0.5 * span
        lpdf = (self.r * math.log(self.rate) + (self.r - 1.0) * np.log(np.maximum(s - self.shift, 1e-300))
                - self.rate * (s - self.shift) - log_gamma(self.r).real)
        return s, self.weight * wq * np.exp(lpdf)

    def _quad_moment(self, m: float, absolute: bool) -> float:
        s, w = self._quad_nodes()
        if absolute:
            w = np.abs(w)
        return float(np.sum(w * s ** m))

    def f_moment(self, z: complex, n: int) -> complex:
        if self.shift != 0.0:
            s, w = self._quad_nodes()
            ls = np.log(s)
            vals = np.exp(-complex(z) * ls) * ls ** n
            return complex(np.sum(w * vals))
        # int s^{-z} log^n s dphi = d^n/dmu^n [ Gamma(r+mu) / (Gamma(r) rate^mu) ] at mu=-z
        mu = -complex(z)
        if (self.r + mu.real) <= 0:
            raise ValueError("GammaDensity: f_moment diverges (certificate violated)")
        m0 = self.weight * cmath.exp(log_gamma(self.r + mu) - log_gamma(self.r)
                                     - mu * math.log(self.rate))
        if n == 0:
            return m0
        l1 = digamma(self.r + mu) - math.log(self.rate)
        if n == 1:
            return m0 * l1
        if n == 2:
            return m0 * (l1 * l1 + trigamma(self.r + mu))
        raise ValueError("GammaDensity: f_moment supports n <= 2 in closed form")


@dataclass(frozen=True)
class WindowDensity:
    """weight * chi_[a,b](s) ds; L -> weight (e^{-ax} - e^{-bx})/x."""
    a: float
    b: float
    weight: float = 1.0

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        small = np.abs(x) < 1e-8
        xs = np.where(small, 1.0, x)
        out = self.weight * (np.exp(-self.a * xs) - np.exp(-self.b * xs)) / xs
        lin = self.weight * ((self.b - self.a) - (self.b ** 2 - self.a ** 2) / 2.0 * x)
        return np.where(small, lin, out)

    def moment(self, m: float, absolute: bool = False) -> float:
        w = abs(self.weight) if absolute else self.weight
        if m == -1.0:
            if self.a <= 0:
                raise ValueError("WindowDensity: moment -1 diverges at a = 0")
            return w * math.log(self.b / self.a)
        if self.a == 0.0 and m <= -1.0:
            raise ValueError(f"WindowDensity: moment {m} diverges at a = 0")
        lo = 0.0 if self.a == 0.0 else self.a ** (m + 1.0)
        return w * (self.b ** (m + 1.0) - lo) / (m + 1.0)

    def f_moment(self, z: complex, n: int) -> complex:
        # int_a^b s^{-z} log^n(s) ds, closed-form antiderivative (recursive)
        def anti(n_: int, s: float) -> complex:
            if s == 0.0:
                # valid for Re(1-z) > 0
                if (1.0 - z.real) <= 0:
                    raise ValueError("WindowDensity: f_moment diverges at a = 0")
                return 0.0
            ls = math.log(s)
            wexp = 1.0 - complex(z)
            if abs(wexp) < 1e-14:
                return ls ** (n_ + 1) / (n_ + 1)
            val = cmath.exp(wexp * ls) / wexp * ls ** n_
            if n_ == 0:
                return val
            return val - (n_ / wexp) * anti(n_ - 1, s)

        z = complex(z)
        return self.weight * (anti(n, self.b) - anti(n, self.a))


@dataclass(frozen=True)
class QuadDensity:
    """Quadrature representation: int F dphi ~= sum_i weights[i] F(nodes[i])."""
    nodes: tuple
    weights: tuple

    def _arr(self):
        return np.asarray(self.nodes, dtype=float), np.asarray(self.weights, dtype=float)

    def evaluate(self, x):
        s, w = self._arr()
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return float(np.sum(w * np.exp(-s * float(x))))
        # a few rows of the (points x nodes) matrix at a time, about 8 MB
        step = max(1, (1 << 20) // s.size)
        x = x.ravel()
        return np.concatenate([np.exp(-np.outer(x[i:i + step], s)) @ w
                               for i in range(0, x.size, step)] or [np.empty(0)])

    def moment(self, m: float, absolute: bool = False) -> float:
        s, w = self._arr()
        if absolute:
            w = np.abs(w)
        if m < 0:
            mask = s > 0
            if np.any(~mask & (w != 0)):
                raise ValueError("QuadDensity: negative moment with mass at 0")
            return float(np.sum(w[mask] * s[mask] ** m))
        return float(np.sum(w * s ** m))

    def f_moment(self, z: complex, n: int) -> complex:
        s, w = self._arr()
        mask = s > 0
        ls = np.log(s[mask])
        vals = np.exp(-complex(z) * ls) * ls ** n
        return complex(np.sum(w[mask] * vals))


_COMPONENT_TYPES = (Atom, GammaDensity, WindowDensity, QuadDensity)


@dataclass(frozen=True)
class SignedMeasure:
    """Hahn--Jordan style view of a cutoff's measure: atoms + densities."""
    atoms: tuple
    densities: tuple

    def total_variation(self) -> float:
        tv = sum(abs(a.weight) for a in self.atoms)
        tv += sum(c.moment(0.0, absolute=True) for c in self.densities)
        return float(tv)


# ---------------------------------------------------------------------------
# Cut-off functions
# ---------------------------------------------------------------------------

@dataclass
class CutoffFunction:
    """f = L[phi] with phi a signed measure on [0, oo)."""
    components: tuple
    decay_p: float
    decay_C: float
    decay_x0: float
    label: str = ""
    factors: tuple = ()   # nonempty for products: pointwise f = prod of factors

    # -- pointwise -----------------------------------------------------------
    def evaluate(self, x):
        if self.factors:
            out = self.factors[0].evaluate(x)
            for fac in self.factors[1:]:
                out = out * fac.evaluate(x)
            return out
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for c in self.components:
            out = out + c.evaluate(x)
        if out.ndim == 0:
            return float(out)
        return out

    def __call__(self, x):
        return self.evaluate(x)

    def f0(self) -> float:
        """f(0) = total mass of the measure."""
        return self.moment(0.0)

    @property
    def measure(self) -> SignedMeasure:
        atoms = tuple(c for c in self.components if isinstance(c, Atom))
        densities = tuple(c for c in self.components if not isinstance(c, Atom))
        return SignedMeasure(atoms, densities)

    # -- measure side ---------------------------------------------------------
    def moment(self, m: float, absolute: bool = False) -> float:
        return float(sum(c.moment(m, absolute=absolute) for c in self.components))

    def f_moment(self, z: complex, n: int = 0) -> complex:
        """f_{z,n} = int s^{-z} log^n(s) dphi(s)."""
        if n < 0:
            raise ValueError("f_moment: need n >= 0")
        zc = complex(z)
        if zc.real > 0 and math.isfinite(self.decay_p) and zc.real >= self.decay_p + 1e-9:
            raise ValueError(
                f"f_moment: Re(z)={zc.real} outside certificate p={self.decay_p}")
        return complex(sum(c.f_moment(zc, n) for c in self.components))

    @property
    def decay_certificate(self) -> tuple[float, float, float]:
        return (self.decay_p, self.decay_C, self.decay_x0)

    def nonnegativity_minimum(self, n_grid: int = 1000) -> float:
        xs = np.logspace(-4, 4, n_grid)
        return float(np.min(self.evaluate(xs)))

    def is_schwartz_only(self) -> bool:
        return False


@dataclass
class SchwartzCutoff:
    """Pointwise-only Schwartz cut-off (no Laplace measure).

    Usable for direct summation and Poisson / Euler--Maclaurin paths; the
    residue-expansion machinery rejects it.  `sqrt_derivs` optionally supplies
    the derivatives at 0 of u -> f(sqrt(u)) for the S^4 pipeline.
    """
    fn: object
    decay_p: float
    decay_C: float
    decay_x0: float
    label: str = "schwartz"
    sqrt_derivs: tuple = ()

    def evaluate(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def __call__(self, x):
        return self.evaluate(x)

    def f0(self) -> float:
        return float(self.fn(np.asarray(0.0)))

    @property
    def decay_certificate(self):
        return (self.decay_p, self.decay_C, self.decay_x0)

    def is_schwartz_only(self) -> bool:
        return True


@dataclass
class IndicatorCutoff:
    """Sharp cut-off chi_[0, edge]: compactly supported in x."""
    edge: float = 1.0
    label: str = "sharp"

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x <= self.edge, 1.0, 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def __call__(self, x):
        return self.evaluate(x)

    def f0(self) -> float:
        return 1.0

    @property
    def decay_certificate(self):
        return (math.inf, 0.0, self.edge)

    def is_schwartz_only(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def exp_cutoff(a: float) -> CutoffFunction:
    """f(x) = e^{-a x} = L[delta_a]."""
    if not 0 < a < math.inf:
        raise ValueError("exp_cutoff: need 0 < a < inf")
    # power-law certificate with p = 16: max of x^16 e^{-ax} at x = 16/a
    p = 16.0
    C = (p / a) ** p * math.exp(-p)
    return CutoffFunction((Atom(a, 1.0),), p, C, 16.0 / a, label=f"exp:{a:g}")


def window_cutoff(a: float, b: float) -> CutoffFunction:
    """f(x) = (e^{-ax} - e^{-bx})/x = L[chi_[a,b]]."""
    if not 0 <= a < b < math.inf:
        raise ValueError("window_cutoff: need 0 <= a < b < inf")
    if a > 0:
        p = 16.0
        # f(x) <= (b-a) e^{-a x}; bound against x^{-p} as for atoms
        C = (b - a) * (p / a) ** p * math.exp(-p)
        x0 = p / a
    else:
        p, C, x0 = 1.0, 1.0, 0.0  # x f(x) = 1 - e^{-bx} <= 1
    return CutoffFunction((WindowDensity(a, b, 1.0),), p, C, x0,
                          label=f"window:{a:g},{b:g}")


def powerlaw_cutoff(a: float, b: float, r: float) -> CutoffFunction:
    """f(x) = (a x + b)^{-r} = L[Gamma(r)^{-1} a^{-r} s^{r-1} e^{-b s/a}]."""
    if not all(0 < x < math.inf for x in (a, b, r)):
        raise ValueError("powerlaw_cutoff: need 0 < a, b, r < inf")
    comp = GammaDensity(r=r, rate=b / a, weight=b ** (-r))
    return CutoffFunction((comp,), r, a ** (-r), 1e-6,
                          label=f"powerlaw:{a:g},{b:g},{r:g}")


def null_taylor_cutoff() -> CutoffFunction:
    """Cut-off with all measure moments zero: phi(s) = e^{-s^{1/4}} sin(s^{1/4}).

    Tabulated in the substituted variable s = y^4 (integrand e^{-y} sin(y) 4y^3)
    so that the oscillatory cancellations are resolved by the quadrature.
    f(x) = O(x^{-5/4}); the certificate constant is fitted on a grid.
    """
    # 12-point Gauss-Legendre on each unit cell of y in [0, 140]
    xg, wg = np.polynomial.legendre.leggauss(12)
    nodes, weights = [], []
    for i in range(140):
        y = 0.5 * (xg + 1.0) + i
        w = 0.5 * wg
        s = y ** 4
        dens = np.exp(-y) * np.sin(y) * 4.0 * y ** 3
        nodes.extend(s.tolist())
        weights.extend((w * dens).tolist())
    comp = QuadDensity(tuple(nodes), tuple(weights))
    cut = CutoffFunction((comp,), 1.25, 1.0, 1.0, label="nulltaylor")
    xs = np.logspace(0, 6, 400)
    C = 1.2 * float(np.max(xs ** 1.25 * np.abs(cut.evaluate(xs))))
    cut.decay_C = C
    return cut


def gaussian_cutoff(width: float = 1.0) -> SchwartzCutoff:
    """f(x) = exp(-(x/width)^2), Schwartz-only."""
    if not 0 < width < math.inf:
        raise ValueError("gaussian_cutoff: need 0 < width < inf")
    p = 12.0
    # C = max over x >= x0 of x^p e^{-(x/width)^2}, attained at x = width sqrt(p/2)
    xstar = width * math.sqrt(p / 2.0)
    C = xstar ** p * math.exp(-(xstar / width) ** 2) * 1.01
    # derivatives at 0 of u -> exp(-u/width^2): (-1/width^2)^m
    derivs = tuple((-1.0 / width ** 2) ** m for m in range(1, 13))
    return SchwartzCutoff(lambda x, _w=width: np.exp(-(np.asarray(x) / _w) ** 2),
                          p, C, xstar, label=f"gauss:{width:g}",
                          sqrt_derivs=derivs)


# ---------------------------------------------------------------------------
# Products (measure convolution)
# ---------------------------------------------------------------------------

def _to_quad(comp) -> QuadDensity:
    if isinstance(comp, QuadDensity):
        return comp
    if isinstance(comp, Atom):
        return QuadDensity((comp.location,), (comp.weight,))
    if isinstance(comp, WindowDensity):
        xg, wg = np.polynomial.legendre.leggauss(160)
        s = 0.5 * (comp.b - comp.a) * (xg + 1.0) + comp.a
        w = 0.5 * (comp.b - comp.a) * wg * comp.weight
        return QuadDensity(tuple(s.tolist()), tuple(w.tolist()))
    if isinstance(comp, GammaDensity):
        s, w = comp._quad_nodes(160)
        return QuadDensity(tuple(s.tolist()), tuple(w.tolist()))
    raise TypeError(f"cannot tabulate {type(comp)!r}")


def _convolve(c1, c2):
    """Convolution of two components, keeping closed forms where possible."""
    if isinstance(c1, Atom) and isinstance(c2, Atom):
        return Atom(c1.location + c2.location, c1.weight * c2.weight)
    if isinstance(c1, Atom) and isinstance(c2, GammaDensity):
        g = c2
        return GammaDensity(g.r, g.rate, g.weight * c1.weight, g.shift + c1.location)
    if isinstance(c2, Atom) and isinstance(c1, GammaDensity):
        return _convolve(c2, c1)
    if isinstance(c1, Atom) and isinstance(c2, WindowDensity):
        w = c2
        return WindowDensity(w.a + c1.location, w.b + c1.location,
                             w.weight * c1.weight)
    if isinstance(c2, Atom) and isinstance(c1, WindowDensity):
        return _convolve(c2, c1)
    q1, q2 = _to_quad(c1), _to_quad(c2)
    s1, w1 = np.asarray(q1.nodes), np.asarray(q1.weights)
    s2, w2 = np.asarray(q2.nodes), np.asarray(q2.weights)
    s = (s1[:, None] + s2[None, :]).ravel()
    w = (w1[:, None] * w2[None, :]).ravel()
    if s.size > 120_000:
        # re-bin onto a uniform grid to keep products of products tractable
        order = np.argsort(s)
        s, w = s[order], w[order]
        n_bins = 4000
        edges = np.linspace(s[0], s[-1], n_bins + 1)
        idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, n_bins - 1)
        sw = np.bincount(idx, weights=w * s, minlength=n_bins)
        ww = np.bincount(idx, weights=w, minlength=n_bins)
        centers = 0.5 * (edges[:-1] + edges[1:])
        pos = np.abs(ww) > 0
        s = np.where(pos, np.divide(sw, ww, out=np.zeros_like(sw), where=pos), centers)[pos]
        w = ww[pos]
    return QuadDensity(tuple(s.tolist()), tuple(w.tolist()))


def product(f: CutoffFunction, g: CutoffFunction) -> CutoffFunction:
    """Product of cut-off functions: convolution of their measures."""
    comps = []
    for c1 in f.components:
        for c2 in g.components:
            comps.append(_convolve(c1, c2))
    factors = (f.factors or (f,)) + (g.factors or (g,))
    return CutoffFunction(
        tuple(comps),
        decay_p=f.decay_p + g.decay_p,
        decay_C=f.decay_C * g.decay_C,
        decay_x0=max(f.decay_x0, g.decay_x0),
        label=f"product({f.label},{g.label})",
        factors=factors,
    )


# ---------------------------------------------------------------------------
# CLI grammar
# ---------------------------------------------------------------------------

def parse_cutoff(text: str):
    """Parse `exp:a`, `window:a,b`, `powerlaw:a,b,r`, `gauss[:w]`,
    `nulltaylor`, `sharp`, `product(c1,c2)`."""
    text = text.strip()
    if text.startswith("product(") and text.endswith(")"):
        inner = text[len("product("):-1]
        depth = 0
        # argument specs may themselves contain commas (window:a,b), so try
        # every top-level comma as the split point
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                try:
                    left = parse_cutoff(inner[:i])
                    right = parse_cutoff(inner[i + 1:])
                except ValueError:
                    continue
                return product(left, right)
        raise ValueError(f"parse_cutoff: malformed product in {text!r}")
    if text == "gauss":
        return gaussian_cutoff()
    if text.startswith("gauss:"):
        return gaussian_cutoff(float(text.split(":", 1)[1]))
    if text == "nulltaylor":
        return null_taylor_cutoff()
    if text == "sharp":
        return IndicatorCutoff()
    if text.startswith("exp:"):
        return exp_cutoff(float(text[4:]))
    if text.startswith("window:"):
        a, b = (float(v) for v in text[7:].split(","))
        return window_cutoff(a, b)
    if text.startswith("powerlaw:"):
        a, b, r = (float(v) for v in text[9:].split(","))
        return powerlaw_cutoff(a, b, r)
    raise ValueError(f"parse_cutoff: unknown cutoff {text!r}")
