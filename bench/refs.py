"""Independent reference values for the benchmark's output checks.

Everything here is written from the definitions of the catalog spectra with
mpmath and numpy only; nothing imports `sal`.  The spectra, as (mu_n, M_n)
for n = 0, 1, 2, ...:

  s1       mu = n + 1,            M = 2,               kernel 1
  s2       mu = n + 1,            M = 4 (n + 1),       kernel 0
  s3       mu = n + 3/2,          M = 2 (n + 1)(n + 2), kernel 0
  podless  mu = u q^{-(n+1)},     M = 4 (n + 1),       kernel 0,
           u = |w| q / (1 - q^2)
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30

KERNEL = {"s1": 1, "s3": 0, "podless": 0}


def podles_u(q: float, w: float) -> float:
    return abs(w) * q / (1.0 - q * q)


def spectrum_arrays(family: str, n: int, q: float = 0.5, w: float = 1.0):
    """(mu, M) of the first n nonzero singular values, as float arrays."""
    k = np.arange(n, dtype=float)
    if family == "s1":
        return k + 1.0, np.full(n, 2.0)
    if family == "s3":
        return k + 1.5, 2.0 * (k + 1.0) * (k + 2.0)
    if family == "podless":
        return podles_u(q, w) * q ** (-(k + 1.0)), 4.0 * (k + 1.0)
    raise ValueError(f"no reference spectrum for {family!r}")


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def s1_heat(t: float) -> float:
    """1 + 2 sum_{n>=1} e^{-tn} = 1 + 2/(e^t - 1)."""
    return float(1 + 2 / mp.expm1(t))


def _s3_heat_mp(t):
    # sum_n 2(n+1)(n+2) x^{n+3/2} with x = e^{-t}: 4 x^{3/2} / (1 - x)^3
    return 4 * mp.exp(-1.5 * t) / (-mp.expm1(-t)) ** 3


def s3_heat(t: float) -> float:
    return float(_s3_heat_mp(mp.mpf(t)))


def s1_zeta(s: float) -> float:
    return float(1 + 2 * mp.zeta(s))


def s2_zeta(s: float) -> float:
    """4 zeta(s - 1)."""
    return float(4 * mp.zeta(s - 1))


def s3_zeta(s: float) -> float:
    """2 zeta_H(s - 2, 3/2) - zeta_H(s, 3/2) / 2."""
    return float(2 * mp.zeta(s - 2, 1.5) - mp.zeta(s, 1.5) / 2)


def podless_zeta(s: float, q: float, w: float) -> float:
    """4 u^{-s} q^s / (1 - q^s)^2."""
    u = mp.mpf(podles_u(q, w))
    q = mp.mpf(q)
    return float(4 * u ** (-s) * q ** s / (1 - q ** s) ** 2)


def podless_heat(t: float, q: float, w: float) -> float:
    """Brute-force sum; the terms fall off doubly exponentially."""
    u, q, t = mp.mpf(podles_u(q, w)), mp.mpf(q), mp.mpf(t)
    acc = mp.mpf(0)
    n = 0
    while True:
        term = 4 * (n + 1) * mp.exp(-t * u * q ** (-(n + 1)))
        acc += term
        if n > 4 and term < mp.mpf(10) ** -40 * acc:
            return float(acc)
        n += 1


def s3_gauss_action(lam: float) -> float:
    """sum_n 2(n+1)(n+2) exp(-((n + 3/2)/Lambda)^2), summed directly.

    mpmath's `nsum` extrapolation is wrong here once Lambda is large (at
    Lambda = 250 it is off by 8e-4 relative), so the sum runs term by term
    to (n + 3/2)/Lambda >= 9, past which the remainder is below e^{-80}.
    """
    lam = mp.mpf(lam)
    n_max = int(9 * lam) + 2
    return float(mp.fsum(2 * (n + 1) * (n + 2) * mp.exp(-((n + mp.mpf(1.5)) / lam) ** 2)
                         for n in range(n_max)))


def s3_action(cutoff: str, lam: float) -> float:
    """Tr f(|D|/Lambda) on S^3 for the cut-offs the workloads use.

    exp:a and products of exponentials are heat traces at t = a/Lambda;
    window:a,b is f(x) = (e^{-ax} - e^{-bx})/x, whose action is
    int_a^b h(s/Lambda) ds with h the S^3 heat trace.
    """
    if cutoff == "gauss":
        return s3_gauss_action(lam)
    a, b = _exp_rates(cutoff)
    if cutoff.startswith("window:"):
        return float(mp.quad(lambda s: _s3_heat_mp(s / lam), [a, b]))
    return s3_heat((a + b) / lam)


def s3_sharp_count(lam: float) -> int:
    """Tr chi_[0,1](|D|/Lambda) on S^3: sum of 2(n+1)(n+2) over n + 3/2 <= Lambda."""
    if lam < 1.5:
        return 0
    k = math.floor(lam - 1.5) + 1
    return 2 * k * (k + 1) * (k + 2) // 3


def _exp_rates(cutoff: str) -> tuple[float, float]:
    """(a, b) for exp:a (b = 0), window:a,b and product(exp:a,exp:b)."""
    if cutoff.startswith("exp:"):
        return float(cutoff[4:]), 0.0
    if cutoff.startswith("window:"):
        a, b = cutoff[7:].split(",")
        return float(a), float(b)
    if cutoff.startswith("product(exp:") and cutoff.endswith(")"):
        left, right = cutoff[len("product("):-1].split(",")
        return float(left[4:]), float(right[4:])
    raise ValueError(f"no reference for cut-off {cutoff!r}")


def cutoff_values(cutoff: str, x: np.ndarray) -> np.ndarray:
    """f(x) for the cut-offs above, in numpy."""
    if cutoff == "gauss":
        return np.exp(-x * x)
    a, b = _exp_rates(cutoff)
    if cutoff.startswith("window:"):
        return -np.exp(-a * x) * np.expm1(-(b - a) * x) / x
    return np.exp(-(a + b) * x)


def hurwitz(s: float, a: float) -> float:
    return float(mp.zeta(s, a))


def upper_gamma(a: float, x: float) -> float:
    return float(mp.gammainc(a, x))


def check_special(name: str, out, ref: float, rel: float = 1e-12) -> str | None:
    out = complex(out)
    if out.imag != 0.0 or abs(out.real - ref) > rel * abs(ref):
        return f"{name}: {out!r}, mpmath gives {ref!r}"
    return None


# ---------------------------------------------------------------------------
# Zeta pole data and the expansions built from it
# ---------------------------------------------------------------------------

def catalog_zeta_mp(name: str, q: float = 0.5, w: float = 1.0):
    """The closed-form zeta of s1, s3sq (zeta_{S^3}(2s)) or podless, in mpmath."""
    if name == "s1":
        return lambda s: 1 + 2 * mp.zeta(s)
    if name == "s3sq":
        return lambda s: 2 * mp.zeta(2 * s - 2, 1.5) - mp.zeta(2 * s, 1.5) / 2
    if name == "podless":
        u, qq = mp.mpf(podles_u(q, w)), mp.mpf(q)
        return lambda s: 4 * u ** (-s) * qq ** s / (1 - qq ** s) ** 2
    raise ValueError(name)


RESIDUES = {"s1": {1.0: 2.0}, "s3sq": {1.5: 1.0, 0.5: -0.25}, "podless": {}}


def heat_coeffs(name: str, q: float = 0.5, w: float = 1.0, k_max: int = 4) -> dict:
    """Small-t heat coefficients a_{z,n} (of log^n(t) t^{-z}) from Mellin residues.

    A simple pole r/(s-z) of zeta gives Gamma(z) r; Gamma's pole at -k gives
    (-1)^k zeta(-k)/k!; the simplified Podles double pole at 0 gives
    log^2: 2/ln^2 q and log: 4 (ln u + gamma_E)/ln^2 q.
    """
    zeta = catalog_zeta_mp(name, q, w)
    out = {(z, 0): float(mp.gamma(z) * r) for z, r in RESIDUES[name].items()}
    for k in range(0 if name != "podless" else 1, k_max + 1):
        out[(-float(k), 0)] = float((-1) ** k * zeta(-k) / mp.factorial(k))
    if name == "podless":
        lq2 = mp.log(q) ** 2
        out[(0.0, 2)] = float(2 / lq2)
        out[(0.0, 1)] = float(4 * (mp.log(podles_u(q, w)) + mp.euler) / lq2)
    return out


def action_coeffs(heat: dict, a: float) -> dict:
    """Large-Lambda coefficients of Tr e^{-a|D|/Lambda}: the heat ones at t = a/Lambda.

    t^{-z} = a^{-z} Lambda^z; at z = 0, log t = log a - log Lambda mixes the
    log powers.
    """
    out = {}
    for (z, n), c in heat.items():
        if z == 0.0 and (0.0, 2) in heat:
            if n == 2:
                out[(z, 2)] = c
            elif n == 1:
                out[(z, 1)] = -(c + 2 * heat[(0.0, 2)] * math.log(a))
        else:
            out[(z, n)] = c * a ** (-z)
    return out


def check_poles(name: str, poles, q: float = 0.5, w: float = 1.0) -> str | None:
    """Laurent data against the closed-form zeta, point by point.

    Simple poles: the residue, and the constant term as the symmetric mean
    (Z(z+e) + Z(z-e))/2, exact to O(e^2).  Regular points: the value.
    Simplified Podles double poles at z = 2 pi i j/ln q: with
    A = (u/q)^{-z}, b_{-2} = 4A/ln^2 q and b_{-1} = -4A ln u/ln^2 q.
    """
    zeta = catalog_zeta_mp(name, q, w)
    eps = mp.mpf("1e-10")
    lq, lu = math.log(q), math.log(podles_u(q, w))
    for p in poles:
        z = complex(p.z)
        if p.order == 2:
            A = complex(mp.exp(-mp.mpc(z) * mp.log(podles_u(q, w) / q)))
            want = {-2: 4 * A / lq ** 2, -1: -4 * A * lu / lq ** 2}
        elif p.order == 1:
            want = {-1: RESIDUES[name][z.real],
                    0: complex((zeta(z.real + eps) + zeta(z.real - eps)) / 2)}
        else:
            want = {0: complex(zeta(z.real))}
        for j, v in want.items():
            got = complex(p.laurent.get(j, 0.0))
            if abs(got - v) > 1e-9 * max(abs(v), 1.0):
                return f"poles {name}: b_{j} at z={z} is {got!r}, want {v!r}"
    return None


def check_expansion_value(terms, lam: float, k_strips: int, out: float) -> str | None:
    """evaluate_expansion must equal the sum of its terms' values, strips 0..k."""
    lam = mp.mpf(lam)
    vals = [mp.mpc(t.coeff) * mp.log(lam) ** t.n * mp.power(lam, mp.mpc(t.z))
            for t in terms if t.strip <= k_strips]
    want = float(mp.re(mp.fsum(vals)))
    size = float(mp.fsum(abs(v) for v in vals))
    if abs(out - want) > 1e-12 * max(size, 1.0):
        return f"evaluate_expansion at {float(lam)}: {out!r}, terms sum to {want!r}"
    return None


# ---------------------------------------------------------------------------
# Fewest terms a certified sum needed
# ---------------------------------------------------------------------------

def term_array(quantity: str, family: str, param: float, n: int,
               cutoff: str = "", q: float = 0.5, w: float = 1.0) -> np.ndarray:
    """The first n terms M_n g(mu_n) of a heat trace, zeta value or action."""
    mu, mult = spectrum_arrays(family, n, q, w)
    if quantity == "heat":
        return mult * np.exp(-param * mu)
    if quantity == "zeta":
        return mult * mu ** (-param)
    if quantity == "action":
        return mult * cutoff_values(cutoff, mu / param)
    raise ValueError(f"unknown quantity {quantity!r}")


def fewest_terms(terms: np.ndarray, base: float, ref: float, tol: float) -> int:
    """Fewest leading terms N with |ref - base - sum_{n<N} terms| < tol (|ref| + 1).

    `terms` must reach at least as far as the sum being judged.  The
    remainder after all of them is ref minus their correctly rounded sum;
    the earlier remainders add the dropped terms back, smallest first.
    """
    tail_end = ref - (base + math.fsum(terms.tolist()))
    tails = tail_end + np.cumsum(terms[::-1])[::-1]
    tails = np.append(tails, tail_end)
    ok = np.abs(tails) < tol * (abs(ref) + 1.0)
    return int(np.argmax(ok)) if ok.any() else len(terms)


def within(value: float, ref: float, tail_bound: float, rel: float = 1e-13) -> bool:
    """The certificate property: value lies within tail_bound (plus rounding) of ref."""
    return abs(value - ref) <= tail_bound + rel * (abs(ref) + 1.0)
