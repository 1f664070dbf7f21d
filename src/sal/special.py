"""Special functions used throughout the library.

Everything here is double precision with explicit algorithm choices so that
results are reproducible bit-for-bit across platforms:

  * gamma / log_gamma / digamma / trigamma -- Lanczos approximation with the
    coefficients embedded as literals (g = 7, n = 9), reflection formula on
    the left half-plane, recurrence + Bernoulli asymptotics for psi.
  * gamma_laurent -- Laurent/Taylor coefficients of Gamma at any point via
    `_circle_coeff`, the trapezoidal Cauchy integral on a small circle
    (spectrally accurate) that the oracles and the finite tadpoles share.
  * riemann_zeta -- hurwitz_zeta(s, 1).
  * hurwitz_zeta -- Euler--Maclaurin with an adaptive shift; exact rationals
    at nonpositive integers and the functional equation for Re(s) < 1/2.
  * epstein_Zd -- incomplete-gamma accelerated theta representation of the
    Epstein zeta of Z^d; globally meromorphic, single pole at s = d.
  * jacobi_theta3 -- direct lattice sum with certified truncation.
  * Bernoulli numbers/polynomials -- exact rationals from the defining
    recurrence (B_1 = -1/2 convention, so B_2 = +1/6).
  * q_number -- [x] = sinh(x ln(1/q)) / sinh(ln(1/q)).

All of it is scalar and loads no numpy; `summation` holds the array forms.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

EULER_GAMMA = 0.57721566490153286060651209008240243

__all__ = [
    "EULER_GAMMA",
    "PoleError",
    "gamma",
    "log_gamma",
    "digamma",
    "trigamma",
    "gamma_laurent",
    "riemann_zeta",
    "hurwitz_zeta",
    "zeta_nonpositive_int_rational",
    "epstein_Zd",
    "epstein_residue_at_pole",
    "jacobi_theta3",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_coeffs",
    "q_number",
    "upper_gamma",
]


class PoleError(ValueError):
    """Evaluation requested exactly at (or too close to) a pole."""


# ---------------------------------------------------------------------------
# Gamma and friends
# ---------------------------------------------------------------------------

_LANCZOS_G = 7
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)


def _is_nonpositive_int(z: complex) -> bool:
    return z.real <= 0.5 and abs(z.imag) < 1e-13 and abs(z.real - round(z.real)) < 1e-13


def gamma(z: complex) -> complex:
    """Gamma(z) for complex z, relative error <~ 1e-13 away from poles."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError(f"gamma: pole at nonpositive integer z = {z}")
    if z.real < 0.5:
        # reflection; sin is entire so no spurious poles here
        if abs(z.imag) * math.pi > 700.0:
            return 0.0 + 0.0j  # |Gamma| < 1e-150, sinh would overflow
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    zz = z - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, _LANCZOS_G + 2):
        x += _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    out = _SQRT_2PI * t ** (zz + 0.5) * cmath.exp(-t) * x
    if z.imag == 0.0:
        return complex(out.real, 0.0)
    return out


def log_gamma(z: complex) -> complex:
    """log Gamma(z) (principal branch on Re(z) > 0)."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError(f"log_gamma: pole at z = {z}")
    if z.real < 0.5:
        return cmath.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    zz = z - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, _LANCZOS_G + 2):
        x += _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (zz + 0.5) * cmath.log(t) - t + cmath.log(x)


# Bernoulli-over-2k coefficients B_{2k}/(2k) used by the psi asymptotics.
_PSI_ASY = (1.0 / 12, -1.0 / 120, 1.0 / 252, -1.0 / 240, 1.0 / 132,
            -691.0 / 32760, 1.0 / 12)


def digamma(z: complex) -> complex:
    """psi(z) = Gamma'(z)/Gamma(z)."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError(f"digamma: pole at z = {z}")
    if z.real < 0.5:
        # psi(1-z) - psi(z) = pi cot(pi z)
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    res = 0.0 + 0.0j
    while z.real < 12.0:
        res -= 1.0 / z
        z += 1.0
    s = cmath.log(z) - 0.5 / z
    zi2 = 1.0 / (z * z)
    p = zi2
    for c in _PSI_ASY:
        s -= c * p
        p *= zi2
    return res + s


def trigamma(z: complex) -> complex:
    """psi'(z)."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError(f"trigamma: pole at z = {z}")
    if z.real < 0.5:
        w = math.pi / cmath.sin(math.pi * z)
        return w * w - trigamma(1.0 - z)
    res = 0.0 + 0.0j
    while z.real < 12.0:
        res += 1.0 / (z * z)
        z += 1.0
    # psi'(z) ~ 1/z + 1/(2 z^2) + sum B_{2k} z^{-2k-1}
    s = 1.0 / z + 0.5 / (z * z)
    zi2 = 1.0 / (z * z)
    p = zi2 / z
    for k, b2k in enumerate((1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66), start=1):
        s += b2k * p
        p *= zi2
    return res + s


def _circle_coeff(fn, z: complex, j: int, radius: float, n_nodes: int) -> complex:
    """j-th Laurent coefficient of fn at z, Res_{s=z} (s-z)^{-j-1} fn(s), by the
    trapezoidal rule on the circle |s - z| = radius (spectrally accurate when
    fn has no other singularity within the circle and a little beyond)."""
    acc = 0.0 + 0.0j
    for m in range(n_nodes):
        th = 2.0 * math.pi * m / n_nodes
        acc += fn(z + radius * cmath.exp(1j * th)) * cmath.exp(-1j * th * j)
    return acc / (n_nodes * radius ** j)


def gamma_laurent(z: complex, j: int) -> complex:
    """j-th Laurent coefficient of Gamma at z:  Gamma_j(z) = Res_{s=z} (s-z)^{-j-1} Gamma(s).

    At a regular point z these are the Taylor coefficients (Gamma_{-1} = 0); at
    z = -k the leading coefficient is Gamma_{-1}(-k) = (-1)^k / k!.
    """
    if j < -1:
        return 0.0 + 0.0j
    z = complex(z)
    at_pole = _is_nonpositive_int(z)
    if at_pole:
        k = int(round(-z.real))
        z = complex(-k, 0.0)
        if j == -1:
            return complex((-1.0) ** k / math.factorial(k), 0.0)
    else:
        if j == -1:
            return 0.0 + 0.0j
        if j == 0:
            return gamma(z)
        if j == 1:
            return gamma(z) * digamma(z)
    # the next pole is >= 1 away, so a circle of radius 1/2 holds only z
    out = _circle_coeff(gamma, z, j, 0.5, 128)
    if abs(out.imag) < 1e-12 * (1.0 + abs(out.real)) and z.imag == 0.0:
        out = complex(out.real, 0.0)
    return out


# ---------------------------------------------------------------------------
# Riemann and Hurwitz zeta
# ---------------------------------------------------------------------------

def riemann_zeta(s: complex) -> complex:
    """Globally meromorphic Riemann zeta(s) = zeta(s, 1); raises at the pole s = 1."""
    return hurwitz_zeta(s, 1.0)


def zeta_nonpositive_int_rational(n: int, a: Fraction = Fraction(1)) -> Fraction:
    """Exact zeta(-n, a) = -B_{n+1}(a)/(n+1) for integer n >= 0, rational a."""
    if n < 0:
        raise ValueError("zeta_nonpositive_int_rational: need n >= 0")
    coeffs = bernoulli_poly_coeffs(n + 1)
    val = sum((c * a ** i for i, c in enumerate(coeffs)), Fraction(0))
    return -val / (n + 1)


@lru_cache(maxsize=1)
def _em_coeffs() -> tuple[float, ...]:
    # B_{2k}/(2k)!, k = 1..14: the Euler--Maclaurin corrections of hurwitz_zeta
    return tuple(float(bernoulli_number(2 * k)) / math.factorial(2 * k) for k in range(1, 15))


def hurwitz_zeta(s: complex, a: float) -> complex:
    """Hurwitz zeta(s, a) for a > 0 by Euler--Maclaurin; pole at s = 1.

    At nonpositive integer s the Bernoulli-polynomial closed form is used in
    exact rational arithmetic (the EM partial sums would cancel
    catastrophically there).
    """
    s = complex(s)
    if a <= 0.0:
        raise ValueError("hurwitz_zeta: need a > 0")
    if abs(s - 1.0) < 1e-13:
        raise PoleError("hurwitz_zeta: pole at s = 1")
    if abs(s.imag) < 1e-14 and s.real <= 0.25 and abs(s.real - round(s.real)) < 1e-13:
        n = int(round(-s.real))
        a_frac = Fraction(a).limit_denominator(1 << 20)
        if abs(float(a_frac) - a) < 1e-15 * max(1.0, abs(a)):
            return complex(float(zeta_nonpositive_int_rational(n, a_frac)), 0.0)
    if s.real < 0.5:
        # Euler--Maclaurin cancels catastrophically far left; for rational a
        # use the Hurwitz functional equation instead:
        # zeta(1-w, p/q) = 2 Gamma(w) (2 pi q)^{-w}
        #                  sum_r cos(pi w/2 - 2 pi r p / q) zeta(w, r/q)
        a_frac = Fraction(a).limit_denominator(64)
        if abs(float(a_frac) - a) < 1e-14 * max(1.0, abs(a)):
            p, q = a_frac.numerator, a_frac.denominator
            shift = (p - 1) // q  # steps down to a0 = p/q - shift in (0, 1]
            p0 = p - shift * q
            w = 1.0 - s
            acc = 0.0 + 0.0j
            for r in range(1, q + 1):
                acc += cmath.cos(math.pi * w / 2.0 - 2.0 * math.pi * r * p0 / q) \
                    * hurwitz_zeta(w, r / q)
            val = 2.0 * gamma(w) * cmath.exp(-w * math.log(2.0 * math.pi * q)) * acc
            for j in range(shift):
                val -= cmath.exp(-s * math.log(p0 / q + j))
            if s.imag == 0.0:
                return complex(val.real, 0.0)
            return val
    N = max(18, int(10 + 0.85 * abs(s)), int(2.0 - a) + 1)
    acc = 0.0 + 0.0j
    for n in range(N):
        acc += cmath.exp(-s * cmath.log(a + n))
    x = a + N
    lx = cmath.log(x)
    acc += cmath.exp((1.0 - s) * lx) / (s - 1.0)
    acc += 0.5 * cmath.exp(-s * lx)
    # sum_k B_{2k}/(2k)! * s(s+1)...(s+2k-2) * x^{-s-2k+1}
    poch = s  # (s)_1
    xp = cmath.exp((-s - 1.0) * lx)
    for k, b in enumerate(_em_coeffs(), start=1):
        acc += b * poch * xp
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        xp /= x * x
    if s.imag == 0.0:
        return complex(acc.real, 0.0)
    return acc


# ---------------------------------------------------------------------------
# Epstein zeta of Z^d
# ---------------------------------------------------------------------------

def upper_gamma(a: complex, x: float) -> complex:
    """Upper incomplete Gamma(a, x) for x > 0 and complex a.

    At a positive half-integer, sqrt(pi) erfc(sqrt(x)) climbed up from
    a = 1/2 with Gamma(a+1, x) = a Gamma(a, x) + x^a e^{-x}; at a = 0 up to
    x = 2, the series of E_1(x) = -gamma - ln x - sum_k (-x)^k/(k k!).
    Otherwise, below x = 0.5, Gamma(a) minus the power series of the lower
    function gamma(a, x).  From x = 0.5 on (and at negative integer a, where
    Gamma(a) has its poles and the fraction is accurate from x = 0.3 on, so
    smaller x is refused), shift Re(a) into (-1, 0] so the Lentz continued
    fraction converges fast, then climb back up.  At a positive integer the
    climb starts at a = 0, where Gamma(0, x) is multiplied by 0: the
    fraction is skipped.  `summation.upper_gamma_array` is the same function
    over an array x.
    """
    a = complex(a)
    if x <= 0.0:
        raise ValueError("upper_gamma: need x > 0")
    if a.imag == 0.0 and a.real > 0.0 and (2.0 * a.real) % 2.0 == 1.0:
        return _climb(complex(_SQRT_PI * math.erfc(math.sqrt(x))), 0.5 + 0j, x, int(a.real))
    if a == 0.0 and x <= _E1_SERIES_TO:
        return complex(_e1_series(x, math.log))
    if x < 0.3 and _is_nonpositive_int(a):
        raise ValueError(f"upper_gamma: need x >= 0.3 at a = {a.real:g}, got x={x}")
    if x < 0.5 and not _is_nonpositive_int(a):
        # Gamma(a) - gamma(a, x), gamma(a, x) = x^a e^{-x} sum_n x^n / (a)_{n+1};
        # the terms fall once n > -Re(a)
        term = total = 1.0 / a
        n = 0
        while n <= -a.real or abs(term) > 1e-17 * abs(total):
            n += 1
            term *= x / (a + n)
            total += term
        return gamma(a) - cmath.exp(-x + a * math.log(x)) * total
    shift = max(0, int(math.ceil(a.real)) )
    a0 = a - shift
    if a0 == 0 and shift:   # a positive integer: Gamma(0, x) enters the climb times 0
        return _climb(0j, a0, x, shift)
    # Lentz continued fraction for Gamma(a0, x), a0.real <= 1
    tiny = 1e-300
    b0 = x + 1.0 - a0
    c = 1.0 / tiny
    d = 1.0 / b0 if b0 != 0 else 1.0 / tiny
    h = d
    for i in range(1, 400):
        an = -i * (i - a0)
        b0 += 2.0
        d = an * d + b0
        if abs(d) < tiny:
            d = tiny
        c = b0 + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return _climb(cmath.exp(-x + a0 * math.log(x)) * h, a0, x, shift)


# (-1)^(k+1) / (k k!), k = 1..25: the series of E_1 - (-gamma - ln x), to 1e-19 at x = 2
_E1_SERIES = tuple((-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 26))
_E1_SERIES_TO = 2.0


def _e1_series(x, log):
    """E_1(x) from its power series for a float or an array x <= 2 (about
    1e-14 relative), with the matching `log`."""
    acc = 0.0
    for c in reversed(_E1_SERIES):
        acc = (acc + c) * x
    return acc - EULER_GAMMA - log(x)


def _climb(val: complex, a0: complex, x: float, shift: int) -> complex:
    # Gamma(a0 + shift, x) from val = Gamma(a0, x) by Gamma(a+1, x) = a Gamma(a, x) + x^a e^{-x}
    for m in range(shift):
        am = a0 + m
        val = am * val + cmath.exp(-x + am * math.log(x))
    return val


def epstein_Zd(s: complex, d: int) -> complex:
    """Epstein zeta Z_d(s) = sum'_{k in Z^d} |k|^{-s}, meromorphic in s.

    Via the theta representation: with xi(s) = pi^{-s/2} Gamma(s/2) Z_d(s),

      xi(s) = 2/(s-d) - 2/s
              + sum'_k [ (pi|k|^2)^{-s/2} Gamma(s/2, pi|k|^2)
                        + (pi|k|^2)^{-(d-s)/2} Gamma((d-s)/2, pi|k|^2) ].

    The lattice sum is truncated at |k|^2 <= 36 (tail < e^{-113}).
    Simple pole at s = d with residue 2 pi^{d/2} / Gamma(d/2); Z_d(0) = -1.
    """
    s = complex(s)
    if d < 1:
        raise ValueError("epstein_Zd: need d >= 1")
    if abs(s - d) < 1e-12:
        raise PoleError(f"epstein_Zd: pole at s = d = {d}")
    if _is_nonpositive_int(s / 2.0):
        # 1/Gamma(s/2) = 0 kills the regular part; s = 0 leaves -2/s * (s/2)
        if abs(s) < 1e-12:
            return complex(-1.0, 0.0)
        return complex(0.0, 0.0)
    from .summation import lattice_sq_counts
    m_max = 36
    counts = lattice_sq_counts((None,) * d, m_max).tolist()
    a1 = s / 2.0
    a2 = (d - s) / 2.0
    acc = 2.0 / (s - d) - 2.0 / s
    for m in range(1, m_max + 1):
        c = counts[m]
        if c == 0:
            continue
        x = math.pi * m
        t1 = cmath.exp(-a1 * math.log(x)) * upper_gamma(a1, x)
        t2 = cmath.exp(-a2 * math.log(x)) * upper_gamma(a2, x)
        acc += c * (t1 + t2)
    out = cmath.exp((s / 2.0) * math.log(math.pi)) / gamma(s / 2.0) * acc
    if s.imag == 0.0:
        return complex(out.real, 0.0)
    return out


def epstein_residue_at_pole(d: int) -> float:
    """Residue of Z_d at its single simple pole s = d."""
    return 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0).real


# ---------------------------------------------------------------------------
# Jacobi theta3
# ---------------------------------------------------------------------------

def jacobi_theta3(z: complex, q: complex) -> complex:
    """theta_3(z; q) = sum_n q^{n^2} e^{2 i n z} for |q| < 1."""
    q = complex(q)
    z = complex(z)
    aq = abs(q)
    if aq >= 1.0:
        raise ValueError("jacobi_theta3: need |q| < 1")
    if aq == 0.0:
        return 1.0 + 0.0j
    grow = abs(2.0 * z.imag)
    n = 2
    while aq ** (n * n) * math.exp(grow * n) > 1e-18 and n < 4000:
        n += 1
    acc = 1.0 + 0.0j
    for m in range(1, n + 1):
        acc += q ** (m * m) * (cmath.exp(2j * m * z) + cmath.exp(-2j * m * z))
    return acc


# ---------------------------------------------------------------------------
# Bernoulli numbers & polynomials (exact rationals)
# ---------------------------------------------------------------------------

_BERNOULLI_CAP = 130
_BERNOULLI = [Fraction(1)]      # B_0, B_1, ...: grown on demand


def bernoulli_number(k: int) -> Fraction:
    """Exact B_k with B_1 = -1/2 (so B_2 = 1/6, B_4 = -1/30, B_6 = 1/42)."""
    if k < 0 or k > _BERNOULLI_CAP:
        raise ValueError(f"bernoulli_number: 0 <= k <= {_BERNOULLI_CAP}")
    B = _BERNOULLI
    for n in range(len(B), k + 1):
        # sum_{j<=n} C(n+1, j) B_j = 0
        B.append(-sum((Fraction(math.comb(n + 1, j)) * B[j] for j in range(n)),
                      Fraction(0)) / (n + 1))
    return B[k]


@lru_cache(maxsize=64)
def bernoulli_poly_coeffs(k: int) -> tuple[Fraction, ...]:
    """Exact coefficients (ascending in x) of B_k(x) = sum_j C(k,j) B_j x^{k-j}."""
    return tuple(Fraction(math.comb(k, k - i)) * bernoulli_number(k - i)
                 for i in range(k + 1))


def bernoulli_poly(k: int, x: float) -> float:
    coeffs = bernoulli_poly_coeffs(k)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


# ---------------------------------------------------------------------------
# q-numbers
# ---------------------------------------------------------------------------

def q_number(x: float, q: float) -> float:
    """[x] = (q^{-x} - q^x) / (q^{-1} - q), evaluated as sinh(xL)/sinh(L).

    L = ln(1/q) > 0; the sinh form postpones overflow to the float limit and
    keeps full precision for small x.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q_number: need 0 < q < 1")
    L = -math.log(q)
    xl = x * L
    if abs(xl) < 700.0:
        return math.sinh(xl) / math.sinh(L)
    # extended range: sinh(xL)/sinh(L) = sign * e^{|x|L - L} (1-e^{-2|x|L})/(1-e^{-2L})
    sign = 1.0 if x > 0 else -1.0
    loga = (abs(x) - 1.0) * L + math.log1p(-math.exp(-2.0 * abs(xl))) \
        - math.log1p(-math.exp(-2.0 * L))
    if loga > 709.0:
        return sign * math.inf
    return sign * math.exp(loga)
