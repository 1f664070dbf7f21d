import cmath
import itertools
import math
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sal.special import (EULER_GAMMA, PoleError, bernoulli_number,
                         bernoulli_poly, bernoulli_poly_coeffs, digamma,
                         epstein_Zd, epstein_residue_at_pole, gamma,
                         gamma_laurent, hurwitz_zeta, jacobi_theta3, q_number,
                         riemann_zeta, trigamma, upper_gamma)
from sal.summation import lattice_sq_counts, upper_gamma_array

mp.mp.dps = 30


def test_gamma_basic_values():
    assert abs(gamma(5.0).real - 24.0) < 1e-12
    assert abs(gamma(0.5).real - math.sqrt(math.pi)) < 1e-14
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        gamma(-3.0)


@pytest.mark.parametrize("z", [0.3 + 10j, 0.3 + 20j, -2.7 + 4.2j, 7.5 - 3.0j, 12.0])
def test_gamma_vs_mpmath(z):
    ref = complex(mp.gamma(z))
    val = gamma(z)
    assert abs(val - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("y", [10.0, 20.0])
def test_gamma_vertical_decay(y):
    # |Gamma(x+iy)| = O(e^{-pi |y|/2}) for x <= 1/2
    val = abs(gamma(0.3 + 1j * y))
    assert val <= 5.0 * math.exp(-math.pi * y / 2.0)


@pytest.mark.parametrize("z", [1.0, 4.5, 0.5 + 2j, -1.3 + 0.4j])
def test_digamma_trigamma_vs_mpmath(z):
    assert abs(digamma(z) - complex(mp.digamma(z))) < 1e-11 * (1 + abs(complex(mp.digamma(z))))
    ref = complex(mp.polygamma(1, mp.mpc(z))) if z != 1.0 else complex(mp.pi ** 2 / 6)
    assert abs(trigamma(z) - ref) < 1e-10 * (1 + abs(ref))


def test_gamma_laurent_values():
    assert gamma_laurent(1.0, -1) == 0.0
    assert abs(gamma_laurent(0.0, -1) - 1.0) < 1e-13
    assert abs(gamma_laurent(-3.0, -1) - (-1.0 / 6.0)) < 1e-13
    # Gamma_1(1) = Gamma(1) psi(1) = -gamma_E
    assert abs(gamma_laurent(1.0, 1).real + EULER_GAMMA) < 1e-12


@pytest.mark.parametrize("z", [0.0, -1.0, 2.0])
def test_gamma_laurent_taylor_consistency(z):
    # Gamma(z+h) - sum_{j=-1}^{3} Gamma_j(z) h^j = O(h^4)
    coeffs = [gamma_laurent(z, j) for j in range(-1, 4)]
    errs = []
    for h in (0.05, 0.025):
        approx = sum(c * h ** j for j, c in zip(range(-1, 4), coeffs))
        errs.append(abs(gamma(z + h) - approx))
    rate = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert rate > 3.6


def test_riemann_zeta_values():
    assert abs(riemann_zeta(2.0).real - math.pi ** 2 / 6) < 1e-14
    assert abs(riemann_zeta(0.0).real + 0.5) == 0.0
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


@pytest.mark.parametrize("s", [3.0, 0.5 + 14.134j, -2.5, 7.1 - 3.3j, 0.25 + 30j])
def test_riemann_zeta_vs_mpmath(s):
    ref = complex(mp.zeta(s))
    assert abs(riemann_zeta(s) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_zeta_functional_equation_grid():
    # zeta(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s) zeta(1-s)
    # on Re(s) in [-5, 5], |Im(s)| <= 10 (excluding the pole)
    worst = 0.0
    for re in (-5.0, -4.6, -2.3, -0.7, 0.3, 1.7, 3.4, 4.9, 5.0):
        for im in (-10.0, -9.5, -3.1, 0.4, 5.7, 9.9, 10.0):
            s = complex(re, im)
            lhs = riemann_zeta(s)
            rhs = (2.0 ** s * math.pi ** (s - 1) * cmath.sin(math.pi * s / 2)
                   * gamma(1.0 - s) * riemann_zeta(1.0 - s))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-10


def test_hurwitz_identities():
    assert abs(hurwitz_zeta(3.0, 1.0) - riemann_zeta(3.0)) < 1e-13
    assert abs(hurwitz_zeta(2.0, 1.5).real - (math.pi ** 2 / 2 - 4.0)) < 1e-13
    for k in range(5):
        assert hurwitz_zeta(float(-2 * k), 0.5) == 0.0
    for s in (2.4, -1.3, 0.5 + 3j):
        lhs = hurwitz_zeta(s, 2.7)
        rhs = hurwitz_zeta(s, 1.7) - 1.7 ** (-complex(s))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("s,a", [(2.5, 0.5), (-3.3, 1.5), (0.5 + 8j, 2.0), (10.0, 3.5)])
def test_hurwitz_vs_mpmath(s, a):
    ref = complex(mp.zeta(s, a))
    assert abs(hurwitz_zeta(s, a) - ref) <= 1e-11 * max(1.0, abs(ref))


def test_epstein_special_values():
    assert epstein_Zd(0.0, 2) == -1.0
    assert epstein_Zd(0.0, 3) == -1.0
    # residue at s = d
    eps = 1e-7
    for d in (2, 3, 4):
        lim = epstein_Zd(d + eps, d).real * eps
        assert abs(lim - epstein_residue_at_pole(d)) < 1e-5


def test_epstein_direct_sum():
    # Z_2(4) vs truncated lattice sum + integral tail bound
    val = epstein_Zd(4.0, 2).real
    R = 240
    acc = 0.0
    for i in range(-R, R + 1):
        for j in range(-R, R + 1):
            if i == 0 and j == 0:
                continue
            acc += (i * i + j * j) ** -2.0
    tail_hi = math.pi / (R - 1) ** 2  # int over |x| > R-1 of |x|^{-4}
    assert acc < val < acc + 1.5 * tail_hi
    assert abs(val - acc) < tail_hi * 1.2


def test_epstein_functional_equation_grid():
    # Re(s) in [-5, 5], |Im(s)| <= 10, poles and Gamma zeros excluded
    worst = 0.0
    for d in (2, 3):
        for re in (-5.0, -3.4, -1.2, 0.6, 1.4, 4.2, 5.0):
            for im in (-10.0, -7.7, 0.3, 6.1, 10.0):
                s = complex(re, im)
                if abs(s - d) < 0.3 or abs(s) < 0.3 or abs(s - (d - s)) < 1e-9:
                    continue
                lhs = epstein_Zd(s, d)
                pref = (cmath.exp((s - d / 2.0) * math.log(math.pi))
                        * gamma((d - s) / 2.0) / gamma(s / 2.0))
                rhs = pref * epstein_Zd(d - s, d)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-10


def test_upper_gamma_vs_mpmath():
    for a in (0.3, 2.5, -1.7, 1.2 + 3j, 8.0):
        for x in (math.pi, 10.0):
            ref = complex(mp.gammainc(mp.mpc(a), x, mp.inf))
            assert abs(upper_gamma(a, x) - ref) < 1e-11 * max(1e-12, abs(ref))


def test_theta3():
    assert jacobi_theta3(0.0, 0.0) == 1.0
    q = math.exp(-1.0)
    direct = 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, 40))
    assert abs(jacobi_theta3(0.0, q).real - direct) < 1e-15
    # Jacobi identity theta3(0; e^{-t}) = (pi/t)^{1/2} theta3(0; e^{-pi^2/t})
    for t in (0.5, 1.0, 2.0):
        lhs = jacobi_theta3(0.0, math.exp(-t)).real
        rhs = math.sqrt(math.pi / t) * jacobi_theta3(0.0, math.exp(-math.pi ** 2 / t)).real
        assert abs(lhs - rhs) < 1e-12 * lhs


def test_bernoulli_numbers():
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(6) == Fraction(1, 42)
    assert bernoulli_number(1) == Fraction(-1, 2)
    for j in range(1, 8):
        assert bernoulli_number(2 * j + 1) == 0
    assert bernoulli_number(130) == Fraction(*(int(x) for x in mp.bernfrac(130)))
    with pytest.raises(ValueError):
        bernoulli_number(131)


def test_importing_the_cli_computes_no_bernoulli_numbers():
    # the table grows on demand: importing the package must not build it
    code = "import sal.cli, sal.special\nprint(len(sal.special._BERNOULLI))\n"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) <= 11        # B_0..B_10 at most


def test_bernoulli_polynomials():
    # B_j' = j B_{j-1} and int_0^1 B_j = 0 (exact rational checks)
    for j in range(1, 10):
        cj = bernoulli_poly_coeffs(j)
        cjm = bernoulli_poly_coeffs(j - 1)
        deriv = [c * i for i, c in enumerate(cj)][1:]
        assert deriv == [j * c for c in cjm]
        integral = sum(c / (i + 1) for i, c in enumerate(cj))
        assert integral == 0
    assert bernoulli_poly(0, 0.3) == 1.0


def test_coth_laurent_identity():
    # coth s = 1/s + sum 2^{2k} B_{2k}/(2k)! s^{2k-1}, partial sums k <= 10
    s = 0.5
    acc = 1.0 / s
    for k in range(1, 11):
        acc += float(Fraction(4 ** k) * bernoulli_number(2 * k)
                     / math.factorial(2 * k)) * s ** (2 * k - 1)
    assert abs(acc - 1.0 / math.tanh(s)) < 1e-12


def test_q_number():
    assert abs(q_number(1.0, 0.5) - 1.0) < 1e-15
    assert abs(q_number(3.0, 0.5) - 5.25) < 1e-14
    # extended range does not overflow
    big = q_number(3000.0, 0.5)
    assert big == math.inf or big > 1e300
    v = q_number(1000.0, 0.9)
    assert math.isfinite(v) and v > 0
    with pytest.raises(ValueError):
        q_number(1.0, 1.5)


def test_log_gamma_vs_mpmath():
    from sal.special import log_gamma
    for z in (0.7, 5.5, 2.0 + 3.0j, 30.0):
        ref = complex(mp.loggamma(z))
        assert abs(log_gamma(z) - ref) < 1e-12 * max(1.0, abs(ref))


@settings(max_examples=40, deadline=None)
@given(parities=st.lists(st.sampled_from([None, 0, 1]), min_size=1, max_size=4),
       m_max=st.integers(0, 25))
def test_lattice_sq_counts_brute_force(parities, m_max):
    # every axis over all integers (None) or one parity class, enumerated
    r = math.isqrt(m_max)
    axes = [[n for n in range(-r, r + 1) if p is None or n % 2 == p] for p in parities]
    want = [0] * (m_max + 1)
    for k in itertools.product(*axes):
        m = sum(n * n for n in k)
        if m <= m_max:
            want[m] += 1
    got = lattice_sq_counts(tuple(parities), m_max)
    assert got.dtype == np.int64 and got.tolist() == want


def test_lattice_sq_counts_large_tables_follow_jacobi():
    # r_2(n) = 4 sum_{d | n, d odd} (-1)^{(d-1)/2},  r_4(n) = 8 sum_{d | n, 4 !| d} d
    def divisors(n):
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return set(small) | {n // d for d in small}

    m_max = 200_000
    r2 = lattice_sq_counts((None, None), m_max)
    r4 = lattice_sq_counts((None,) * 4, 40_000)
    for n in list(range(1, 60)) + list(range(20_011, m_max + 1, 9_973)):
        assert r2[n] == 4 * sum((-1) ** ((d - 1) // 2) for d in divisors(n) if d % 2)
        if n <= 40_000:
            assert r4[n] == 8 * sum(d for d in divisors(n) if d % 4)


@pytest.mark.parametrize("a", [0.5, 1.5, 2.5, 3.0, 2.5 + 1j])
def test_upper_gamma_small_x_vs_mpmath(a):
    for x in np.logspace(-3.0, math.log10(8.0), 31).tolist():
        ref = complex(mp.gammainc(a, x))
        val = upper_gamma(a, x)
        assert abs(val - ref) <= 1e-12 * abs(ref), (a, x, val, ref)
        if isinstance(a, float):
            assert val.imag == 0.0


def test_upper_gamma_real_grid_exactly_real():
    for a in np.linspace(0.5, 4.0, 15).tolist():
        for x in np.linspace(0.5, 8.0, 16).tolist():
            val = upper_gamma(a, x)
            assert val.imag == 0.0
            assert abs(val.real - float(mp.gammainc(a, x))) <= 1e-12 * val.real


@pytest.mark.parametrize("a", [1, 2, 3, 4, 1.5, 2.5, 3.5, 0.3, 1.7, 7.25])
def test_upper_gamma_array_closed_forms_vs_mpmath(a):
    # integer a: a finite sum times e^{-y}; half-integer a: erfc climbed up;
    # any other a: the scalar upper_gamma point by point
    y = np.logspace(-3.0, math.log10(700.0), 241)
    ref = np.array([float(mp.gammainc(a, v)) for v in y.tolist()])
    assert np.all(np.abs(upper_gamma_array(a, y) - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("a, x", [(-1, 0.01)])
def test_upper_gamma_refuses_small_x_at_nonpositive_integers(a, x):
    # the continued fraction has not converged there (3e-5 relative off)
    with pytest.raises(ValueError):
        upper_gamma(a, x)


def test_upper_gamma_at_zero_is_the_e1_series():
    # Gamma(0, x) = E_1(x): its series on the scalar path below x = 2, and on
    # the array path with the continued fraction beyond
    xs = np.concatenate((np.logspace(-6.0, math.log10(0.3), 60, endpoint=False),
                         np.linspace(0.3, 2.0, 18), np.logspace(0.31, 2.8, 40)))
    ref = np.array([float(mp.e1(x)) for x in xs.tolist()])
    scalar = np.array([upper_gamma(0, x).real for x in xs.tolist()])
    assert np.all(np.abs(scalar - ref) <= 1e-14 * ref)
    assert np.all(np.abs(upper_gamma_array(0, xs) - ref) <= 1e-14 * ref)
    assert upper_gamma(0, 1e-3).imag == 0.0


@pytest.mark.parametrize("a", [0.5, 1.5, 2.5, 5.5])
def test_upper_gamma_scalar_half_integer_closed_form(a):
    # sqrt(pi) erfc(sqrt(x)) climbed up, as on the array path
    xs = np.logspace(-6.0, math.log10(700.0), 80)
    for x in xs.tolist():
        val, ref = upper_gamma(a, x), float(mp.gammainc(a, x))
        assert val.imag == 0.0 and abs(val.real - ref) <= 1e-13 * ref, (a, x)


@pytest.mark.parametrize("a", [0, -1, -2, -3])
def test_upper_gamma_nonpositive_integers_vs_mpmath(a):
    for x in (0.3, 0.5, 1.0, 3.0):
        ref = complex(mp.gammainc(a, x))
        assert abs(upper_gamma(a, x) - ref) <= 1e-13 * abs(ref), (a, x)
