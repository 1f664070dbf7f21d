import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from sal.cutoffs import gaussian_cutoff, parse_cutoff
from sal.series import spectral_action_direct
from sal.special import bernoulli_number
from sal.spectra import sphere_spectrum, torus_spectrum
from sal.summation import (euler_maclaurin, exp_abs_summand, gaussian_summand,
                           poisson_compare, poly_gauss_derivative, s3_action,
                           s4_action, s4_coefficients, s4_constant_term,
                           t3_action)


def test_poisson_gaussian_m1():
    S, I, disc = poisson_compare(gaussian_summand(1.0), 1.0, 1)
    ref = 2.0 * math.sqrt(math.pi) * sum(math.exp(-math.pi ** 2 * n * n)
                                         for n in range(1, 6))
    assert abs(disc - ref) < 1e-14
    assert abs(I - math.sqrt(math.pi)) < 1e-15


def test_poisson_exp_abs():
    t = 0.3
    S, I, disc = poisson_compare(exp_abs_summand(1.0), t, 1)
    assert abs(S - (math.exp(t) + 1.0) / (math.exp(t) - 1.0)) < 1e-13
    assert abs(I - 2.0 / t) < 1e-13


def test_poisson_leading_discrepancy_coefficient():
    # S - I = 2 sum B_{2n}/(2n)! t^{2n-1} = t/6 + O(t^3): polynomial fit
    ts = np.linspace(0.04, 0.24, 9)
    ds = np.array([poisson_compare(exp_abs_summand(1.0), t, 1)[2] for t in ts])
    coeffs = np.polyfit(ts, ds, 5)
    assert abs(coeffs[-2] - 1.0 / 6.0) < 1e-6
    assert abs(coeffs[-1]) < 1e-8


def test_poisson_truncation_invariance():
    # absolute convergence: a larger enumeration changes nothing
    S1, _, _ = poisson_compare(gaussian_summand(0.5), 0.7, 2, tol=1e-14)
    S2, _, _ = poisson_compare(gaussian_summand(0.5), 0.7, 2, tol=1e-16)
    assert abs(S1 - S2) < 1e-13 * abs(S1)


def test_poisson_gaussian_m3():
    S, I, disc = poisson_compare(gaussian_summand(2.0), 0.4, 3)
    direct = sum(math.exp(-2.0 * 0.16 * (i * i + j * j + k * k))
                 for i in range(-12, 13) for j in range(-12, 13)
                 for k in range(-12, 13))
    assert abs(S - direct) < 1e-12 * direct


def test_euler_maclaurin_polynomial_exact():
    est, bound = euler_maclaurin(lambda x: x, 10, 2,
                                 derivs=lambda j: (lambda x: 1.0 if j == 1 else 0.0))
    assert est == 55.0
    est, _ = euler_maclaurin(lambda x: x * x, 12, 2,
                             derivs=lambda j: (lambda x, _j=j: [x * x, 2 * x, 2.0, 0.0][_j]),
                             integral=12.0 ** 3 / 3.0)
    assert abs(est - 650.0) < 1e-10


def test_euler_maclaurin_exponential_within_bound():
    g = lambda x: math.exp(-x / 5.0)
    derivs = lambda j: (lambda x, _j=j: (-0.2) ** _j * math.exp(-x / 5.0))
    est, bound = euler_maclaurin(g, 50, 8, derivs=derivs)
    direct = sum(math.exp(-k / 5.0) for k in range(51))
    assert abs(est - direct) <= bound
    assert bound < 1e-9


def test_euler_maclaurin_rejects_odd_m():
    with pytest.raises(ValueError):
        euler_maclaurin(lambda x: x, 5, 3)


def test_euler_maclaurin_s4_pipeline_input():
    # g(x) = x^3 e^{-(x/L)^2}-type input reproduces the S^4 structure
    lam = 6.0
    coeffs = [0.0, -1.0, 0.0, 1.0]  # x^3 - x
    a = 1.0 / lam ** 2
    g = poly_gauss_derivative(coeffs, a, 0)
    derivs = lambda j: poly_gauss_derivative(coeffs, a, j)
    est, bound = euler_maclaurin(g, 120, 10, derivs=derivs)
    direct = sum((k ** 3 - k) * math.exp(-(k / lam) ** 2) for k in range(121))
    assert abs(est - direct) <= bound


@pytest.mark.parametrize("lam, N", [(6.0, 120), (10.0, 200)])
def test_euler_maclaurin_bound_across_sign_changes(lam, N):
    # g^(10) = Q_10 e^{-a x^2} of g = (x^3 - x) e^{-a x^2} changes sign six times in
    # [0, N]: the bound is |B_10|/10! int_0^N |g^(10)|, by mpmath between the zeros of Q_10
    coeffs, a, m = [0.0, -1.0, 0.0, 1.0], 1.0 / lam ** 2, 10
    derivs = lambda j: poly_gauss_derivative(coeffs, a, j)
    est, bound = euler_maclaurin(derivs(0), N, m, derivs=derivs)
    with mp.workdps(30):
        q = [mp.mpf(c) for c in coeffs]                 # Q_0, ascending powers
        for _ in range(m):
            # (Q e^{-a x^2})' = (Q' - 2 a x Q) e^{-a x^2}
            dq = [k * q[k] for k in range(1, len(q))] + [0, 0]
            q = [d - x for d, x in zip(dq, [0] + [2 * mp.mpf(a) * c for c in q])]
        zeros = sorted(r.real for r in mp.polyroots(q[::-1], maxsteps=100, extraprec=100)
                       if abs(r.imag) < 1e-20 and 0 < r.real < N)
        absint = mp.quad(lambda x: abs(mp.polyval(q[::-1], x)) * mp.exp(-a * x * x),
                         [0] + zeros + [N])
    assert len(zeros) == 6
    assert bound == pytest.approx(float(abs(bernoulli_number(m))) / math.factorial(m)
                                  * float(absint), rel=1e-9)
    direct = math.fsum((k ** 3 - k) * math.exp(-a * k * k) for k in range(N + 1))
    assert abs(est - direct) <= bound


def test_s3_action_value():
    f = gaussian_cutoff()
    ref = math.sqrt(math.pi) / 2.0 * 1000.0 - math.sqrt(math.pi) / 4.0 * 10.0
    assert abs(s3_action(f, 10.0) - ref) < 1e-9 * ref
    assert abs(ref - 881.8295) < 0.05  # approximate printed magnitude


def _quad_moment(f, k: int) -> float:
    """int_0^oo x^k f(x) dx by mpmath quadrature of f.evaluate (split at the sharp edge)."""
    return float(mp.quad(lambda x: x ** k * float(f.evaluate(float(x))), [0, 1, 4, mp.inf]))


@pytest.mark.parametrize("cutoff", ["exp:0.7", "window:1,2", "powerlaw:1,1,5",
                                    "product(exp:1,exp:1)", "gauss:0.5", "sharp"])
def test_closed_form_actions_take_exact_moments(cutoff):
    f, lam = parse_cutoff(cutoff), 7.0
    i0, i1, i2, i3 = (_quad_moment(f, k) for k in range(4))
    assert s3_action(f, lam) == pytest.approx(lam ** 3 * 2.0 * i2 - lam / 2.0 * i0, rel=1e-12)
    assert t3_action(f, lam) == pytest.approx(lam ** 3 / math.pi ** 2 * i2, rel=1e-12)
    want = (4.0 / 3.0) * (lam ** 4 * i3 - lam ** 2 * i1) + 11.0 / 90.0 * float(f.evaluate(0.0))
    assert s4_action(f, lam, M_terms=0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("action", [s3_action, t3_action, s4_action])
def test_closed_form_actions_refuse_bare_callables(action):
    with pytest.raises(TypeError):
        action(lambda x: np.exp(-x * x), 5.0)


def test_s4_exact_rationals():
    cs = s4_coefficients(3)
    assert cs[0] == Fraction(-31, 1890)
    assert cs[1] == Fraction(41, 7560)
    assert cs[2] == Fraction(-31, 11880)
    assert s4_constant_term() == Fraction(11, 90)


def test_s4_action_vs_direct():
    f = gaussian_cutoff()
    lam = 10.0
    val = s4_action(f, lam, 3)
    direct = (4.0 / 3.0) * sum((k ** 3 - k) * math.exp(-(k / lam) ** 2)
                               for k in range(2, 400))
    # remainder bound of the m = 10 Euler-Maclaurin pipeline
    a = 1.0 / lam ** 2
    derivs = lambda j: poly_gauss_derivative([0.0, -1.0, 0.0, 1.0], a, j)
    g = poly_gauss_derivative([0.0, -1.0, 0.0, 1.0], a, 0)
    _, bound = euler_maclaurin(g, 200, 10, derivs=derivs)
    assert abs(val - direct) <= (4.0 / 3.0) * bound + 1e-9


def test_s4_coefficient_recomputation_from_odd_derivatives():
    # reproduce c_m from the odd g-derivative structure
    # g^{(2m-1)}(0) = (2m-1)! [phi^{(m-2)}(0) L^{-2(m-2)}/(m-2)!
    #                          - phi^{(m-1)}(0) L^{-2(m-1)}/(m-1)!]
    # so the L^{-2j} phi^{(j)}(0) coefficient of -sum B_{2m}/(2m)! g^{(2m-1)}(0)
    # is (4/3)^{-1} c_j: check j = 1, 2, 3 exactly in rationals.
    for j in (1, 2, 3):
        contrib = Fraction(0)
        for m in (j + 1, j + 2):
            B = bernoulli_number(2 * m)
            fact = Fraction(math.factorial(2 * m - 1), math.factorial(2 * m))
            if m == j + 1:
                term = -B * fact * Fraction(-1, math.factorial(j))
            else:
                term = -B * fact * Fraction(1, math.factorial(j))
            contrib += term
        assert Fraction(4, 3) * contrib == s4_coefficients(3 if j <= 3 else j)[j - 1]


def test_s3_poisson_consistency_log_slope():
    # |direct - s3_action| decays faster than Lambda^{-8} over {4, 8, 16}
    w = 0.19
    f = gaussian_cutoff(width=w)
    lams = [4.0, 8.0, 16.0]
    diffs = []
    for lam in lams:
        direct = spectral_action_direct(sphere_spectrum(3), f, lam, tol=1e-14).value
        diffs.append(abs(direct - s3_action(f, lam)))
    xs = np.log(lams)
    ys = np.log(np.maximum(diffs, 1e-300))
    slope = -np.polyfit(xs, ys, 1)[0]
    assert slope >= 8.0


def test_t3_spin_structure_insensitivity():
    f = gaussian_cutoff()
    lams = [4.0, 8.0, 16.0]
    diffs = []
    for lam in lams:
        cut = 22.0 / (2 * math.pi) * lam / 4.0 + 3.0
        s0 = spectral_action_direct(torus_spectrum(3, (0, 0, 0), cut), f, lam,
                                    tol=1e-15).value
        s1 = spectral_action_direct(torus_spectrum(3, (1, 0, 0), cut), f, lam,
                                    tol=1e-15).value
        diffs.append(abs(s0 - s1))
    xs = np.log(lams)
    ys = np.log(np.maximum(diffs, 1e-300))
    slope = -np.polyfit(xs, ys, 1)[0]
    assert slope >= 8.0
    # and the difference is asymptotically negligible relative to Lambda^3
    assert diffs[-1] / lams[-1] ** 3 < 1e-12


def test_t3_action_closed_form():
    # the Poisson remainder is O(L^{-inf}): at L = 16 it sits at roundoff
    f = gaussian_cutoff()
    lam = 16.0
    cut = lam * 6.5 / (2 * math.pi) + 2.0
    direct = spectral_action_direct(torus_spectrum(3, (0, 0, 0), cut), f, lam,
                                    tol=1e-14).value
    assert abs(direct - t3_action(f, lam)) / direct < 1e-9


def test_euler_maclaurin_needs_exact_derivatives():
    with pytest.raises(ValueError, match="derivs"):
        euler_maclaurin(lambda x: math.exp(-x), 10, 4)
