"""Residue-driven asymptotic expansions of heat traces and spectral actions.

Given the Laurent data of a spectral zeta function at its poles (plus its
values at the nonpositive integers, where Gamma contributes poles), the
small-t heat-trace expansion has terms

    a_{z,n} log^n(t) t^{-z},   a_{z,n} = ((-1)^n / n!) Res_{s=z} (s-z)^n Gamma(s) zeta(s),

organized into strips X_k = {z : -r_{k+1} < Re z < -r_k} by a scale sequence
(r_k).  The corresponding large-Lambda spectral-action expansion follows by
pairing the a_{z,n} with the generalized moments f_{z,m} of the cut-off.

Also here: noncommutative integrals as residues, optimal truncation of
divergent expansions, and the convergence-radius estimator.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

from .special import _circle_coeff, gamma_laurent

__all__ = [
    "PoleDatum",
    "ExpansionTerm",
    "AsymptoticExpansion",
    "RadiusEstimate",
    "heat_expansion_from_poles",
    "action_expansion",
    "evaluate_expansion",
    "optimal_truncation",
    "ncint",
    "ncint_numeric",
    "ncint_from_heat_coeffs",
    "convergence_radius",
    "expansion_to_json",
    "expansion_from_json",
]


@dataclass(frozen=True)
class PoleDatum:
    """Laurent data of a zeta function at z: laurent[j] = coeff of (s-z)^j.

    order = 0 entries describe regular points (value, derivatives) that still
    matter because Gamma has a pole there.
    """
    z: complex
    order: int
    laurent: dict

    def coeff(self, j: int) -> complex:
        return complex(self.laurent.get(j, 0.0))

    def scaled_argument(self, c: float) -> "PoleDatum":
        """Pole data of s -> zeta(c s) at z/c: b'_j = c^j b_j."""
        return PoleDatum(self.z / c, self.order,
                         {j: complex(v) * (c ** j) for j, v in self.laurent.items()})


@dataclass(frozen=True)
class ExpansionTerm:
    z: complex
    n: int            # log power
    coeff: complex
    strip: int

    def value(self, x: float, variable: str) -> complex:
        lx = math.log(x)
        if variable == "heat-t":
            return self.coeff * lx ** self.n * cmath.exp(-self.z * lx)
        return self.coeff * lx ** self.n * cmath.exp(self.z * lx)


@dataclass
class AsymptoticExpansion:
    terms: list
    scale: list
    variable: str = "heat-t"   # or "action-L"

    def strips(self) -> dict[int, list[ExpansionTerm]]:
        out: dict[int, list[ExpansionTerm]] = {}
        for t in self.terms:
            out.setdefault(t.strip, []).append(t)
        return out

    def n_strips(self) -> int:
        return 1 + max((t.strip for t in self.terms), default=-1)

    def strip_value(self, k: int, x: float) -> float:
        acc = 0.0 + 0.0j
        for t in self.terms:
            if t.strip == k:
                acc += t.value(x, self.variable)
        return acc.real


def _strip_index(z: complex, scale: list[float]) -> int:
    re = z.real
    for k in range(len(scale) - 1):
        if -scale[k + 1] < re < -scale[k]:
            return k
    if re < -scale[-1]:
        return len(scale) - 1
    raise ValueError(
        f"strip scale does not cover Re(z) = {re}: first r must satisfy -r0 > max Re z")


def heat_expansion_from_poles(poles: list[PoleDatum], scale: list[float],
                              d: int = 2) -> AsymptoticExpansion:
    """Build the heat-trace expansion terms a_{z,n} from zeta Laurent data.

    Gamma's own poles at -N are merged automatically: the U = Gamma * zeta
    Laurent coefficients are c_m = sum_l b_l Gamma_{m-l}(z).
    """
    if any(scale[i] >= scale[i + 1] for i in range(len(scale) - 1)):
        raise ValueError("scale must be strictly increasing")
    for p in poles:
        if any(abs(p.z.real + r) < 1e-12 for r in scale):
            raise ValueError(f"scale line hits pole at Re(z) = {p.z.real}")
    terms: list[ExpansionTerm] = []
    for p in sorted(poles, key=lambda q: (-q.z.real, q.z.imag)):
        ells = sorted(p.laurent.keys())
        for n in range(0, d + 1):
            m = -n - 1
            c_m = 0.0 + 0.0j
            for ell in ells:
                j = m - ell
                if j < -1:
                    continue
                g = gamma_laurent(p.z, j)
                if g != 0:
                    c_m += p.coeff(ell) * g
            a = (-1.0) ** n / math.factorial(n) * c_m
            if abs(a) > 1e-300:
                terms.append(ExpansionTerm(p.z, n, a, _strip_index(p.z, scale)))
    return AsymptoticExpansion(terms, list(scale), "heat-t")


def action_expansion(heat_exp: AsymptoticExpansion, f, d: int = 2, *,
                     spectrum_p: float) -> AsymptoticExpansion:
    """Large-Lambda expansion of Tr f(|D|/Lambda) from the heat expansion.

    psi_k(L) = sum_{z in X_k} L^z sum_n (-1)^n log^n L
               sum_{m>=n} C(m, m-n) a_{z,m} f_{z,m-n}.
    """
    if not hasattr(f, "f_moment"):     # Schwartz-only, sharp, or a bare callable
        raise TypeError("action_expansion: cutoff has no Laplace measure")
    # an envelope (exponential decay) gives every moment; a power decay p_f needs p_f > p
    cert = f.decay_certificate
    if cert is not None and cert[0] <= spectrum_p:
        raise ValueError(
            f"action_expansion: cutoff decay p={cert[0]} must exceed spectrum p={spectrum_p}")
    by_z: dict[complex, dict[int, complex]] = {}
    strip_of: dict[complex, int] = {}
    for t in heat_exp.terms:
        by_z.setdefault(t.z, {})[t.n] = t.coeff
        strip_of[t.z] = t.strip
    out: list[ExpansionTerm] = []
    for z, a_map in by_z.items():
        d_here = max(a_map.keys())
        for n in range(0, d_here + 1):
            coeff = 0.0 + 0.0j
            for m in range(n, d_here + 1):
                if m not in a_map:
                    continue
                fm = f.f_moment(z, m - n)
                coeff += math.comb(m, m - n) * a_map[m] * fm
            coeff *= (-1.0) ** n
            if abs(coeff) > 1e-300:
                out.append(ExpansionTerm(z, n, coeff, strip_of[z]))
    return AsymptoticExpansion(out, list(heat_exp.scale), "action-L")


def evaluate_expansion(exp: AsymptoticExpansion, x: float,
                       k_strips: int | None = None) -> float:
    """Sum the strips 0..k_strips at x (t for heat, Lambda for action)."""
    if not exp.terms:
        raise ValueError("evaluate_expansion: empty expansion")
    kmax = exp.n_strips() - 1 if k_strips is None else k_strips
    acc = 0.0
    for k in range(kmax + 1):
        acc += exp.strip_value(k, x)
    return acc


def optimal_truncation(exp: AsymptoticExpansion, x: float) -> tuple[float, float]:
    """Superasymptotic truncation: stop at the first strip whose magnitude
    exceeds the previous one, i.e. keep everything through the smallest strip.

    Returns (value, predicted_remainder); the remainder estimate is the
    magnitude of the smallest (last kept) strip contribution.
    """
    if not exp.terms:
        raise ValueError("optimal_truncation: empty expansion")
    populated = sorted(exp.strips().keys())
    mags = [(k, abs(exp.strip_value(k, x))) for k in populated]
    k_min = mags[0][0]
    smallest = mags[0][1]
    for k, m in mags[1:]:
        if m > smallest:
            break
        k_min, smallest = k, m
    value = sum(exp.strip_value(k, x) for k in populated if k <= k_min)
    return value, smallest


# ---------------------------------------------------------------------------
# Noncommutative integrals
# ---------------------------------------------------------------------------

def ncint(pole: PoleDatum, k: int) -> complex:
    """ncint^[k] T |D|^{-z} = Res_{s=0} s^{k-1} zeta(s + z) = b_{-k}(z)."""
    return pole.coeff(-k)


def ncint_numeric(zeta_fn, k: int, z: complex, radius: float = 0.1,
                  n_nodes: int = 256) -> complex:
    """Numeric Laurent fit: b_{-k}(z) by a Cauchy circle integral of zeta."""
    return _circle_coeff(zeta_fn, complex(z), -k, radius, n_nodes)


def ncint_from_heat_coeffs(a_map: dict[int, complex], z: complex,
                           d: int) -> dict[int, complex]:
    """Invert a_{z,n} = ((-1)^n/n!) sum_{l=n}^{d+1} Gamma_{l-n-1}(z) I_l for I_l.

    Triangular solve from n = d downward; I_{d+1} = 0 is assumed when Gamma
    is singular at z (dimension-spectrum order <= d).
    """
    z = complex(z)
    at_gamma_pole = abs(z.imag) < 1e-12 and abs(z.real - round(z.real)) < 1e-12 \
        and z.real <= 0.0
    I: dict[int, complex] = {}
    if at_gamma_pole:
        I[d + 1] = 0.0
        for n in range(d, -1, -1):
            acc = 0.0 + 0.0j
            for ell in range(n + 1, d + 2):
                acc += gamma_laurent(z, ell - n - 1) * I[ell]
            g = gamma_laurent(z, -1)
            I[n] = ((-1.0) ** n * math.factorial(n) * complex(a_map.get(n, 0.0)) - acc) / g
    else:
        for n in range(d, -1, -1):
            acc = 0.0 + 0.0j
            for ell in range(n + 2, d + 2):
                acc += gamma_laurent(z, ell - n - 1) * I.get(ell, 0.0)
            g0 = gamma_laurent(z, 0)
            I[n + 1] = ((-1.0) ** n * math.factorial(n) * complex(a_map.get(n, 0.0)) - acc) / g0
    return I


# ---------------------------------------------------------------------------
# Convergence radius
# ---------------------------------------------------------------------------

@dataclass
class RadiusEstimate:
    T: float
    limsup: float
    window: tuple[int, int]
    kind: str   # "finite" | "infinite" | "divergent"


def convergence_radius(c_k, eps_k, r_k) -> RadiusEstimate:
    """T = [limsup_k (c_k/eps_k)^{1/r_k}]^{-1} from finitely many samples.

    The limsup is estimated on the trailing half of the valid samples: a
    monotone envelope classifies clear growth (T = 0) and clear decay to 0
    (T = inf); otherwise the log of the sequence is extrapolated linearly in
    1/r_k, which removes the O(1/r_k) bias of the raw envelope.
    """
    data = [(float(r), float(c) / float(e))
            for c, e, r in zip(c_k, eps_k, r_k)
            if r > 0 and c > 0 and e > 0 and math.isfinite(c / e)]
    if len(data) < 5:
        raise ValueError("convergence_radius: need at least 5 valid samples")
    vs = [(r, q ** (1.0 / r)) for r, q in data]
    w0 = len(vs) // 2
    window = vs[w0:]
    v_vals = [v for _, v in window]
    v_start, v_end = v_vals[0], v_vals[-1]
    nondecr = all(v_vals[i + 1] >= v_vals[i] * (1 - 1e-9) for i in range(len(v_vals) - 1))
    noninc = all(v_vals[i + 1] <= v_vals[i] * (1 + 1e-9) for i in range(len(v_vals) - 1))
    if noninc and v_end <= 0.6 * v_start:
        return RadiusEstimate(math.inf, 0.0, (w0, len(vs) - 1), "infinite")
    if nondecr and v_end >= 1.67 * v_start:
        return RadiusEstimate(0.0, math.inf, (w0, len(vs) - 1), "divergent")
    # least squares of log v against 1/r on the window
    xs = [1.0 / r for r, _ in window]
    ys = [math.log(v) for _, v in window]
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx < 1e-30:
        A = ybar
    else:
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
        A = ybar - slope * xbar
    limsup = math.exp(A)
    T = math.inf if limsup == 0.0 else 1.0 / limsup
    return RadiusEstimate(T, limsup, (w0, len(vs) - 1), "finite")


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def expansion_to_json(exp: AsymptoticExpansion) -> str:
    """Stable ordering: (strip, Re z desc, Im z asc, n asc)."""
    rows = sorted(exp.terms,
                  key=lambda t: (t.strip, -t.z.real, t.z.imag, t.n))
    return json.dumps([
        {"re_z": t.z.real, "im_z": t.z.imag, "n": t.n,
         "re_a": t.coeff.real, "im_a": t.coeff.imag, "strip_k": t.strip}
        for t in rows
    ])


def expansion_from_json(text: str, scale: list[float] | None = None,
                        variable: str = "heat-t") -> AsymptoticExpansion:
    rows = json.loads(text)
    terms = [ExpansionTerm(complex(r["re_z"], r["im_z"]), int(r["n"]),
                           complex(r["re_a"], r["im_a"]), int(r["strip_k"]))
             for r in rows]
    return AsymptoticExpansion(terms, scale or [], variable)
