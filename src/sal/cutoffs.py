"""Cut-off functions as Laplace transforms of signed measures on [0, oo).

A cut-off f = L[phi] is represented by its measure phi, decomposed into
atoms, gamma-type densities, window (indicator) densities and quadrature
densities (nodes + weights, used for tabulated measures and convolutions).
Every cut-off reports exactly one tail certificate: a sharp `edge` (`sharp`);
an `envelope` that holds for every x >= 0, f(x) <= C e^{-ax} with a > 0 or
f(x) <= C e^{-(x/w)^2} (`exp`, `window:a,b` with a > 0, `gauss`, and every
product whose rates add up to a > 0); or, for a cut-off that decays only as
a power (`powerlaw`, `window:0,b`, `nulltaylor` and products of these), the
`decay_certificate` (p, C, x0): |f(x)| <= C x^{-p} for x >= x0.  A cut-off
may also report its x-moments int_0^oo x^k f(x) dx exactly, and f(mu/Lambda)
as Euler--Maclaurin shapes in mu (`em_shapes`), each measure component its
own: an atom e^{-(a/Lambda) mu}, a window w Lambda (e^{-(a/Lambda) mu} -
e^{-(b/Lambda) mu})/mu with a > 0, a tabulated density one exponential per
node, an unshifted gamma density a power of mu + Lambda rate, and a Gaussian
e^{-mu^2/(w Lambda)^2}.  A product's shapes are the pairwise products of its
factors' exponential ones, just as its pointwise values are the products of
its factors' values.

Pointwise evaluation of products multiplies the factors' closed forms
(L[phi * chi] = L[phi] L[chi]), so direct summation stays cheap even when
the measure-side data of a product is a quadrature convolution.

Schwartz cut-offs without a Laplace representation (Gaussians) are supported
as pointwise callables only; they are rejected by the measure-side services,
products included.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .special import digamma, log_gamma, trigamma
from .summation import EmShape, Envelope, _legendre

__all__ = [
    "Envelope",
    "Atom",
    "GammaDensity",
    "WindowDensity",
    "QuadDensity",
    "SignedMeasure",
    "CutoffFunction",
    "SchwartzCutoff",
    "GaussianCutoff",
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

    def exp_bound(self) -> tuple[float, float]:
        """(C, a): |L[component](x)| <= C e^{-ax} for every x >= 0."""
        return abs(self.weight), self.location

    def em_shapes(self, lam: float) -> list[EmShape] | None:
        """L[component](mu/Lambda) as Euler--Maclaurin shapes in mu, or None."""
        t = self.location / lam
        return [EmShape(self.weight, "exp", t)] if t > 0.0 else None

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

    def exp_bound(self) -> tuple[float, float]:
        return abs(self.weight), self.shift    # (1 + x/rate)^{-r} <= 1

    def em_shapes(self, lam: float) -> list[EmShape] | None:
        # unshifted: w (1 + mu/(Lambda rate))^{-r} = w (Lambda rate)^r (mu + Lambda rate)^{-r}
        if self.shift:
            return None
        delta = lam * self.rate
        try:
            return [EmShape(self.weight * delta ** self.r, "power", self.r, delta)]
        except OverflowError:           # (Lambda rate)^r past floats
            return None

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
        x, wq = _legendre(n)
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
        # e^{-ax} (1 - e^{-(b-a)x}) / x: the difference cancels at small x, expm1 does not
        out = self.weight * np.exp(-self.a * xs) * -np.expm1(-(self.b - self.a) * xs) / xs
        lin = self.weight * ((self.b - self.a) - (self.b ** 2 - self.a ** 2) / 2.0 * x)
        return np.where(small, lin, out)

    def exp_bound(self) -> tuple[float, float]:
        return (self.b - self.a) * abs(self.weight), self.a   # (1 - e^{-(b-a)x})/x <= b - a

    def em_shapes(self, lam: float) -> list[EmShape] | None:
        # w (e^{-a mu/Lambda} - e^{-b mu/Lambda}) / (mu/Lambda): two u^{-1} "exp"
        # shapes, none at a = 0 (or where a/Lambda underflows)
        t = self.a / lam
        if not t > 0.0:
            return None
        w = self.weight * lam
        return [EmShape(w, "exp", t, 0.0, -1), EmShape(-w, "exp", self.b / lam, 0.0, -1)]

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

    def exp_bound(self) -> tuple[float, float]:
        return float(np.sum(np.abs(self._arr()[1]))), 0.0     # nodes >= 0

    def em_shapes(self, lam: float) -> list[EmShape] | None:
        # sum_i w_i e^{-(s_i/Lambda) mu}: one "exp" shape per node, none with a node at 0
        s, w = self._arr()
        t = s / lam
        if not (t > 0.0).all():
            return None
        return [EmShape(wi, "exp", ti) for wi, ti in zip(w.tolist(), t.tolist())]

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

# Past this many Euler--Maclaurin shapes (product(nulltaylor,nulltaylor) has
# 1680^2) a product keeps its counting bound: the tail costs time in
# proportion to the shapes, and `nulltaylor` times a window has 3360.
_MAX_SHAPES = 4096


@dataclass
class CutoffFunction:
    """f = L[phi] with phi a signed measure on [0, oo).  `decay_certificate`
    (p, C, x0), |f(x)| <= C x^{-p} for x >= x0, is given exactly when f has
    no decaying `envelope`."""
    components: tuple
    decay_certificate: tuple[float, float, float] | None = None
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
        p = math.inf if self.decay_certificate is None else self.decay_certificate[0]
        if zc.real >= p + 1e-9:
            raise ValueError(f"f_moment: Re(z)={zc.real} outside certificate p={p}")
        return complex(sum(c.f_moment(zc, n) for c in self.components))

    def x_moment(self, k: float) -> float:
        """int_0^oo x^k f(x) dx = Gamma(k+1) f_{k+1,0}."""
        return math.gamma(k + 1.0) * self.f_moment(k + 1.0, 0).real

    def exp_bound(self) -> tuple[float, float]:
        """(C, a >= 0) with |f(x)| <= C e^{-ax} for every x >= 0: a product
        multiplies its factors' C and adds their rates, a sum of components
        adds their C and takes the smallest rate."""
        if self.factors:
            parts = [fac.exp_bound() for fac in self.factors]
            return math.prod(C for C, _ in parts), sum(a for _, a in parts)
        parts = [c.exp_bound() for c in self.components]
        return sum(C for C, _ in parts), min(a for _, a in parts)

    def em_shapes(self, lam: float) -> list[EmShape] | None:
        """f(mu/Lambda) as Euler--Maclaurin shapes in mu (`summation.EmShape`), or
        None unless every component of the measure reports its own.

        A product takes its shapes from its factors, as `evaluate` does, not from
        its tabulated components: the pairwise products of the factors' "exp"
        shapes (weights multiply, params and lows add), None where a factor has
        another shape, a low falls below -1, or there would be more than
        _MAX_SHAPES of them."""
        if self.factors:
            shapes = [EmShape(1.0, "exp", 0.0)]
            for fac in self.factors:
                part = fac.em_shapes(lam)
                if (part is None or any(sh.kind != "exp" for sh in part)
                        or len(shapes) * len(part) > _MAX_SHAPES):
                    return None
                shapes = [EmShape(a.weight * b.weight, "exp", a.param + b.param, 0.0, a.low + b.low)
                          for a in shapes for b in part]
            return shapes if all(sh.low >= -1 for sh in shapes) else None
        shapes = []
        for c in self.components:
            part = c.em_shapes(lam)
            if part is None:
                return None
            shapes += part
        return shapes

    @property
    def envelope(self) -> Envelope | None:
        """f(x) <= C e^{-ax} for every x >= 0 with a > 0, or None."""
        C, a = self.exp_bound()
        return Envelope("exp", C, a) if a > 0 else None

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
    the derivatives at 0 of u -> f(sqrt(u)) for the S^4 pipeline,
    `x_moments(k)` the moments int_0^oo x^k f(x) dx for the closed-form
    actions, and `envelope` a bound on f at every x >= 0, its tail certificate.
    """
    fn: object
    label: str = "schwartz"
    sqrt_derivs: tuple = ()
    x_moments: Callable[[float], float] | None = None
    envelope: Envelope | None = None

    def evaluate(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def f0(self) -> float:
        return float(self.fn(np.asarray(0.0)))

    def x_moment(self, k: float) -> float:
        if self.x_moments is None:
            raise TypeError(f"{self.label}: cut-off has no moment data")
        return self.x_moments(k)

    def is_schwartz_only(self) -> bool:
        return True


@dataclass
class GaussianCutoff(SchwartzCutoff):
    """f(x) = e^{-(x/width)^2} (`gaussian_cutoff`)."""
    width: float = 1.0

    def em_shapes(self, lam: float) -> list[EmShape] | None:
        """f(mu/Lambda) = e^{-t mu^2}, t = (width Lambda)^{-2}, as an Euler--Maclaurin
        shape in mu, or None where t overflows.  Where t falls below the normal
        floats (width Lambda > 6.7e153) no route certifies the sum: OverflowError."""
        try:
            t = (self.width * lam) ** -2.0
        except OverflowError:
            return None
        if t < sys.float_info.min:
            raise OverflowError(f"gauss: t = (width Lambda)^-2 = {t:g} is below the normal floats")
        return [EmShape(1.0, "gauss", t)]


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

    def f0(self) -> float:
        return 1.0

    def x_moment(self, k: float) -> float:
        return self.edge ** (k + 1.0) / (k + 1.0)

    def is_schwartz_only(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _finite_moments(f):
    """f, refused (OverflowError) unless its moments int_0^oo x^k f(x) dx,
    k <= 3, are finite: the closed-form S^3, T^3 and S^4 actions read them."""
    for k in range(4):
        if not math.isfinite(f.x_moment(k)):
            raise OverflowError(f"{f.label}: int_0^oo x^{k} f(x) dx is past the floats")
    return f


def exp_cutoff(a: float) -> CutoffFunction:
    """f(x) = e^{-a x} = L[delta_a]."""
    if not 0 < a < math.inf:
        raise ValueError("exp_cutoff: need 0 < a < inf")
    return _finite_moments(CutoffFunction((Atom(a, 1.0),), label=f"exp:{a:g}"))


def window_cutoff(a: float, b: float) -> CutoffFunction:
    """f(x) = (e^{-ax} - e^{-bx})/x = L[chi_[a,b]]."""
    if not 0 <= a < b < math.inf:
        raise ValueError("window_cutoff: need 0 <= a < b < inf")
    label = f"window:{a:g},{b:g}"
    if a == 0:      # x f(x) = 1 - e^{-bx} <= 1
        return CutoffFunction((WindowDensity(a, b, 1.0),), (1.0, 1.0, 0.0), label=label)
    return _finite_moments(CutoffFunction((WindowDensity(a, b, 1.0),), label=label))


def powerlaw_cutoff(a: float, b: float, r: float) -> CutoffFunction:
    """f(x) = (a x + b)^{-r} = L[Gamma(r)^{-1} a^{-r} s^{r-1} e^{-b s/a}]."""
    if not all(0 < x < math.inf for x in (a, b, r)):
        raise ValueError("powerlaw_cutoff: need 0 < a, b, r < inf")
    comp = GammaDensity(r=r, rate=b / a, weight=b ** (-r))
    return CutoffFunction((comp,), (r, a ** (-r), 1e-6), label=f"powerlaw:{a:g},{b:g},{r:g}")


def null_taylor_cutoff() -> CutoffFunction:
    """Cut-off with all measure moments zero: phi(s) = e^{-s^{1/4}} sin(s^{1/4}).

    Tabulated in the substituted variable s = y^4 (integrand e^{-y} sin(y) 4y^3)
    so that the oscillatory cancellations are resolved by the quadrature.
    f(x) = O(x^{-5/4}).  The tabulated f = sum_i w_i e^{-s_i x} obeys
    x^p |f(x)| <= C = sum_i |w_i| (p/(e s_i))^p for every x > 0, since each
    x^p e^{-s_i x} peaks at x = p/s_i.
    """
    # 12-point Gauss-Legendre on each unit cell of y in [0, 140]
    xg, wg = _legendre(12)
    nodes, weights = [], []
    for i in range(140):
        y = 0.5 * (xg + 1.0) + i
        w = 0.5 * wg
        s = y ** 4
        dens = np.exp(-y) * np.sin(y) * 4.0 * y ** 3
        nodes.extend(s.tolist())
        weights.extend((w * dens).tolist())
    p = 1.25
    C = math.fsum(abs(w) * (p / (math.e * s)) ** p for s, w in zip(nodes, weights))
    return CutoffFunction((QuadDensity(tuple(nodes), tuple(weights)),), (p, C, 1.0),
                          label="nulltaylor")


def gaussian_cutoff(width: float = 1.0) -> GaussianCutoff:
    """f(x) = exp(-(x/width)^2), Schwartz-only."""
    if not 0 < width < math.inf:
        raise ValueError("gaussian_cutoff: need 0 < width < inf")
    # derivatives at 0 of u -> exp(-u/width^2): (-1/width^2)^m
    derivs = tuple((-1.0 / width ** 2) ** m for m in range(1, 13))

    def moments(k: float) -> float:
        # int_0^oo x^k e^{-(x/width)^2} dx
        return math.gamma((k + 1.0) / 2.0) * width ** (k + 1.0) / 2.0

    return _finite_moments(GaussianCutoff(
        lambda x, _w=width: np.exp(-(np.asarray(x) / _w) ** 2), label=f"gauss:{width:g}",
        sqrt_derivs=derivs, x_moments=moments, envelope=Envelope("gauss", 1.0, width),
        width=width))


# ---------------------------------------------------------------------------
# Products (measure convolution)
# ---------------------------------------------------------------------------

def _to_quad(comp) -> QuadDensity:
    if isinstance(comp, QuadDensity):
        return comp
    if isinstance(comp, Atom):
        return QuadDensity((comp.location,), (comp.weight,))
    if isinstance(comp, WindowDensity):
        xg, wg = _legendre(160)
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
    """Product of cut-off functions: convolution of their measures.  A factor
    without a measure (`gauss`, `sharp`) is refused with a TypeError.  A
    product whose rates add up to 0 has no envelope; neither factor has one
    then, so both carry decay certificates, and Cl_0^p Cl_0^r is in Cl_0^{p+r}."""
    for h in (f, g):
        if not isinstance(h, CutoffFunction):
            raise TypeError(f"product: {getattr(h, 'label', h)!s} has no Laplace measure")
    comps = []
    for c1 in f.components:
        for c2 in g.components:
            comps.append(_convolve(c1, c2))
    out = CutoffFunction(tuple(comps), label=f"product({f.label},{g.label})",
                         factors=(f.factors or (f,)) + (g.factors or (g,)))
    if out.envelope is None:
        (p, C, x0), (r, D, y0) = f.decay_certificate, g.decay_certificate
        out.decay_certificate = (p + r, C * D, max(x0, y0))
    return out


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
