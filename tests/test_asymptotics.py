import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from sal.asymptotics import (AsymptoticExpansion, PoleDatum, action_expansion,
                             convergence_radius, evaluate_expansion,
                             expansion_from_json, expansion_to_json,
                             heat_expansion_from_poles, ncint,
                             ncint_from_heat_coeffs, ncint_numeric,
                             optimal_truncation)
from sal.catalog import default_scale
from sal.cutoffs import exp_cutoff, gaussian_cutoff, powerlaw_cutoff
from sal.oracles import (catalog_zeta, podles_radius_data, s1_radius_data,
                         s2_radius_data)
from sal.series import heat_trace, spectral_action_direct
from sal.special import EULER_GAMMA, bernoulli_number, gamma
from sal.spectra import PodlesParams, podles_spectrum, sphere_spectrum


def _terms_by_z(exp, n=0):
    return {t.z: t.coeff for t in exp.terms if t.n == n}


def test_s2_heat_coefficients():
    # a_{1,0} = 2 and a_{-k,0} = -4 (-1)^k B_{2k+2}/(k! (2k+2))
    cz = catalog_zeta("s2sq")
    exp = heat_expansion_from_poles(cz.poles(), default_scale(cz.dimension_p), d=1)
    terms = _terms_by_z(exp)
    assert abs(terms[complex(1.0)] - 2.0) < 1e-12
    for k in range(6):
        ref = float(Fraction(-4 * (-1) ** k) * bernoulli_number(2 * k + 2)
                    / (math.factorial(k) * (2 * k + 2)))
        assert abs(terms[complex(-k)] - ref) < 1e-12 * max(1.0, abs(ref))


def test_s3_heat_two_terms():
    cz = catalog_zeta("s3sq")
    exp = heat_expansion_from_poles(cz.poles(), default_scale(cz.dimension_p), d=1)
    terms = _terms_by_z(exp)
    assert abs(terms[complex(1.5)] - math.sqrt(math.pi) / 2.0) < 1e-13
    assert abs(terms[complex(0.5)] + math.sqrt(math.pi) / 4.0) < 1e-13
    others = {z: c for z, c in terms.items() if z.real < 0.4 and abs(c) > 1e-12}
    assert not others  # all zeta(-2k, 1/2)-type terms vanish
    # two-term evaluation matches the direct sum at t = 0.05
    direct = heat_trace(sphere_spectrum(3).squared(), 0.05, tol=1e-14).value
    val = evaluate_expansion(exp, 0.05)
    assert abs(val - direct) / direct < 1e-10


def test_nct2_single_term_and_zeta0():
    cz = catalog_zeta("nct2sq")
    exp = heat_expansion_from_poles(cz.poles(), default_scale(cz.dimension_p), d=1)
    terms = _terms_by_z(exp)
    assert abs(terms[complex(1.0)] - 2.0 * math.pi) < 1e-10
    # a_{0,0} = 0 <=> zeta_D(0) = 0 (after the kernel convention)
    assert abs(terms.get(complex(0.0), 0.0)) < 1e-10


def test_podles_pole_data_vs_printed():
    pp = PodlesParams(0.5, 1.0)
    cz = catalog_zeta("podless", pp)
    lnq, u = math.log(pp.q), pp.u
    exp = heat_expansion_from_poles(cz.poles(), default_scale(0.0), d=2)
    a = {(t.z, t.n): t.coeff for t in exp.terms}
    assert abs(a[(complex(0.0), 2)] - 2.0 / lnq ** 2) < 1e-12
    assert abs(a[(complex(0.0), 1)] - 4.0 * (math.log(u) + EULER_GAMMA) / lnq ** 2) < 1e-12
    kap = pp.kappa
    g = gamma(kap)
    ref1 = -4.0 * u ** (-kap) * g / lnq ** 2
    assert abs(a[(kap, 1)] - ref1) < 1e-12 * max(1.0, abs(ref1))


def test_round_trip_residues():
    # engine coefficients vs a numeric Laurent fit of Gamma * zeta
    for tid, d in (("s1", 1), ("s2sq", 1)):
        cz = catalog_zeta(tid)
        exp = heat_expansion_from_poles(cz.poles(), default_scale(cz.dimension_p), d=d)
        for t in exp.terms:
            if abs(t.coeff) < 1e-10 or abs(t.z.imag) > 1e-9:
                continue
            # a_{z,n} = ((-1)^n/n!) * c_{-n-1} of U = Gamma zeta
            c = ncint_numeric(lambda s: gamma(s) * cz.value(s), t.n + 1, t.z,
                              radius=0.2)
            ref = (-1.0) ** t.n / math.factorial(t.n) * c
            assert abs(t.coeff - ref) < 1e-9 * max(1.0, abs(ref))


def test_regularity_at_zero_simple_catalog():
    # a_{0,1} = 0 for simple-spectrum catalog triples
    for tid in ("s1", "s2", "s3", "nct2"):
        cz = catalog_zeta(tid)
        exp = heat_expansion_from_poles(cz.poles(), default_scale(cz.dimension_p), d=1)
        bad = [t for t in exp.terms if t.n >= 1 and abs(t.coeff) > 1e-10]
        assert not bad


def test_optimal_truncation_s2():
    cz = catalog_zeta("s2sq")
    exp = heat_expansion_from_poles(cz.poles(), default_scale(cz.dimension_p), d=1)
    direct = heat_trace(sphere_spectrum(2).squared(), 0.1, tol=1e-14).value
    val, rem = optimal_truncation(exp, 0.1)
    assert abs(val - direct) <= rem


def test_podles_exactness_monotone():
    # increasing K monotonically reduces |direct - partial| below 1e-8 at t = 1
    pp = PodlesParams(0.5, 1.0)
    cz = catalog_zeta("podless", pp)
    exp = heat_expansion_from_poles(cz.poles(), default_scale(0.0), d=2)
    direct = heat_trace(podles_spectrum(pp, simplified=True), 1.0, tol=1e-14).value
    errs = [abs(evaluate_expansion(exp, 1.0, K) - direct) for K in range(0, 9)]
    assert errs[-1] < 1e-8
    assert all(errs[i + 1] <= errs[i] * (1 + 1e-9) for i in range(4, 8))


def test_asymptotic_order_slope():
    # |direct - sum_{k<=N} rho_k| / t^{r_N} -> 0 along t = 2^{-j} (S^2, D^2)
    cz = catalog_zeta("s2sq")
    scale = default_scale(cz.dimension_p)
    exp = heat_expansion_from_poles(cz.poles(), scale, d=1)
    spec = sphere_spectrum(2).squared()
    N = 3
    rN = scale[N]
    ratios = []
    for j in (3, 5, 7):
        t = 2.0 ** (-j)
        direct = heat_trace(spec, t, tol=1e-14).value
        part = evaluate_expansion(exp, t, N - 1)
        ratios.append(abs(direct - part) / t ** rN)
    assert ratios[1] < ratios[0] and ratios[2] < ratios[1]


def test_action_expansion_exp_cutoff():
    # f = e^{-x} (delta_1): action expansion at Lambda = heat expansion at 1/L
    cz = catalog_zeta("s1")
    hexp = heat_expansion_from_poles(cz.poles(), default_scale(1.0), d=1)
    aexp = action_expansion(hexp, exp_cutoff(1.0), d=1, spectrum_p=1.0)
    for lam in (5.0, 9.0):
        hv = evaluate_expansion(hexp, 1.0 / lam, 4)
        av = evaluate_expansion(aexp, lam, 4)
        assert abs(hv - av) < 1e-12 * max(1.0, abs(hv))


def test_action_expansion_certificate_and_schwartz():
    cz = catalog_zeta("s2")
    hexp = heat_expansion_from_poles(cz.poles(), default_scale(2.0), d=1)
    with pytest.raises(ValueError):
        action_expansion(hexp, powerlaw_cutoff(1.0, 1.0, 1.5), spectrum_p=2.0)
    with pytest.raises(TypeError):
        action_expansion(hexp, gaussian_cutoff(), spectrum_p=2.0)


def test_action_expansion_leading_term_s3():
    # Cor. 3.19: leading term L^3 int x^2 f dx * ncint |D|^{-3}, checked
    # against the direct action at Lambda = 50 to 1e-4 relative
    cz = catalog_zeta("s3")
    f = powerlaw_cutoff(1.0, 1.0, 5.0)
    hexp = heat_expansion_from_poles(cz.poles(), default_scale(3.0), d=1)
    aexp = action_expansion(hexp, f, d=1, spectrum_p=3.0)
    lam = 50.0
    rep = spectral_action_direct(sphere_spectrum(3), f, lam, tol=1e-12)
    assert rep.converged
    direct = rep.value
    approx = evaluate_expansion(aexp, lam, 4)
    assert abs(direct - approx) / direct < 1e-4
    # two-route moment identity: f_{3,0} = (1/Gamma(3)) int x^2 f dx
    i2 = float(mp.quad(lambda x: x * x * float(f.evaluate(float(x))), [0, mp.inf]))
    assert abs(f.f_moment(3.0, 0) - i2 / 2.0) < 1e-9


def test_ncints():
    # S^2: ncint |D|^{-2} = Res_{s=2} 4 zeta(s-1) = 4
    cz = catalog_zeta("s2")
    pole2 = [p for p in cz.poles() if abs(p.z - 2.0) < 1e-9][0]
    assert abs(ncint(pole2, 1) - 4.0) < 1e-12
    # commutative triples: ncint 1 = 0 (zeta regular at 0)
    val = ncint_numeric(cz.value, 1, 0.0, radius=0.2)
    assert abs(val) < 1e-10
    # Podles: invert a_{0,n} for the s^{-k} Laurent data at 0
    pp = PodlesParams(0.5, 1.0)
    czp = catalog_zeta("podless", pp)
    hexp = heat_expansion_from_poles(czp.poles(), default_scale(0.0), d=2)
    a_map = {t.n: t.coeff for t in hexp.terms if abs(t.z) < 1e-12}
    I = ncint_from_heat_coeffs(a_map, 0.0, 2)
    lnq = math.log(pp.q)
    assert abs(I[2] - 4.0 / lnq ** 2) < 1e-9          # ncint^[2] 1 = b_{-2}
    assert abs(I[3]) < 1e-9                            # ncint^[3] 1 = 0
    fit = ncint_numeric(czp.value, 2, 0.0, radius=0.1)
    assert abs(I[2] - fit) < 1e-8


def test_ncint_from_heat_coeffs_at_regular_points():
    # away from the poles of Gamma the inversion returns the Laurent data:
    # I[k] = b_{-k}(z) at the S^3 poles z = 3, 1 and at podless z = kappa j
    pp = PodlesParams(0.5, 1.0)
    for cz, zs, d in ((catalog_zeta("s3"), (3.0, 1.0), 1),
                      (catalog_zeta("podless", pp), [pp.kappa * j for j in (1, 2, 3)], 2)):
        hexp = heat_expansion_from_poles(cz.poles(), default_scale(cz.dimension_p), d=d)
        poles = {p.z: p for p in cz.poles()}
        for z in zs:
            a_map = {t.n: t.coeff for t in hexp.terms if abs(t.z - z) < 1e-12}
            assert a_map
            I = ncint_from_heat_coeffs(a_map, z, d)
            for k in range(1, d + 1):
                b = ncint(poles[complex(z)], k)
                assert b != 0 and abs(I[k] - b) < 1e-12 * max(1.0, abs(b))


def test_convergence_radius_cases():
    c, e, r = s1_radius_data()
    est = convergence_radius(c, e, r)
    assert 6.0 <= est.T <= 6.6
    c, e, r = s2_radius_data()
    assert convergence_radius(c, e, r).T == 0.0
    c, e, r = podles_radius_data(PodlesParams(0.5, 1.0))
    assert convergence_radius(c, e, r).T == math.inf
    # constant data c_k = eps_k = 1, r_k = k -> T = 1
    ks = list(range(1, 30))
    est = convergence_radius([1.0] * len(ks), [1.0] * len(ks), [float(k) for k in ks])
    assert abs(est.T - 1.0) < 1e-9
    with pytest.raises(ValueError):
        convergence_radius([1.0] * 3, [1.0] * 3, [1.0, 2.0, 3.0])


def test_scale_validation():
    poles = [PoleDatum(complex(1.0), 1, {-1: 2.0})]
    with pytest.raises(ValueError):
        heat_expansion_from_poles(poles, [-1.0, 1.0], d=1)  # hits Re z = 1
    with pytest.raises(ValueError):
        heat_expansion_from_poles(poles, [-0.5, -0.7], d=1)  # not increasing


def test_expansion_json_roundtrip():
    cz = catalog_zeta("s3sq")
    exp = heat_expansion_from_poles(cz.poles(), default_scale(1.5), d=1)
    text = expansion_to_json(exp)
    back = expansion_from_json(text, scale=exp.scale)
    assert expansion_to_json(back) == text
    rows = __import__("json").loads(text)
    keys = [(r["strip_k"], -r["re_z"], r["im_z"], r["n"]) for r in rows]
    assert keys == sorted(keys)


def test_podles_action_expansion_structure():
    # terms live at z = -k + kappa j with log powers <= 2; the L^0 log^2 L
    # coefficient is a_{0,2} f_{0,0} (binomial cross terms vanish for n = 2)
    pp = PodlesParams(0.5, 1.0)
    cz = catalog_zeta("podless", pp, j_max=10, k_range=20)
    hexp = heat_expansion_from_poles(cz.poles(), default_scale(0.0, n_strips=26), d=2)
    f = powerlaw_cutoff(1.0, 1.0, 3.0)
    aexp = action_expansion(hexp, f, d=2, spectrum_p=0.0)
    kap = pp.kappa
    for t in aexp.terms:
        on_lattice = any(abs(t.z - (-k + kap * j)) < 1e-9
                         for k in range(0, 22) for j in range(-11, 12))
        assert on_lattice and t.n <= 2
    a_map = {(t.z, t.n): t.coeff for t in hexp.terms}
    got = [t.coeff for t in aexp.terms if abs(t.z) < 1e-12 and t.n == 2][0]
    ref = a_map[(complex(0.0), 2)] * f.f_moment(0.0, 0)
    assert abs(got - ref) < 1e-12 * abs(ref)
    # and the action expansion evaluates close to the direct action (exact
    # expansion for all Lambda)
    from sal.series import spectral_action_direct
    from sal.spectra import podles_spectrum
    lam = 2.0
    direct = spectral_action_direct(podles_spectrum(pp, simplified=True), f,
                                    lam, tol=1e-13).value
    approx = evaluate_expansion(aexp, lam, 22)
    assert abs(direct - approx) / direct < 1e-12
