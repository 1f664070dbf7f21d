"""Euler--Maclaurin tails on the round spheres against mpmath.

Heat traces on |D| and D^2, zeta values on |D| and D^2, and the actions of
every Laplace cut-off (`exp`, `window`, `nulltaylor`, their products,
`powerlaw`) and of `gauss` on the spheres add a closed-form Euler--Maclaurin
estimate of the tail to a short head.  Every value must lie within its tail
bound (plus rounding) of an independent mpmath value, built here from the
sphere multiplicities: Hurwitz zeta values for power sums, the geometric
closed forms of the heat trace and their integrals over a window, sums of
those over the nodes of the tabulated `nulltaylor`, and direct 40-digit sums
(or, at small t, the Mellin residue series) for the Gaussian summands.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sal.cutoffs import (exp_cutoff, gaussian_cutoff, null_taylor_cutoff, parse_cutoff,
                         powerlaw_cutoff, window_cutoff)
from sal.series import _LIBM, heat_trace, spectral_action_direct, zeta_direct
from sal.spectra import sphere_spectrum
from sal.summation import EM_KAPPA, em_tail, upper_gamma_array
from test_golden import ACTION, HEAT, ZETA, counted

mp.mp.dps = 40

# name: (d, spin); p = d
SPHERES = {"s1": (1, "trivial"), "s1nt": (1, "nontrivial"), "s2": (2, "nontrivial"),
           "s3": (3, "nontrivial"), "s4": (4, "nontrivial")}


def _sphere(name):
    return sphere_spectrum(*SPHERES[name])


def _data(name):
    """(kernel, c, a): mu_n = n + c for n >= 0, M_n = sum_j a_j mu_n^j."""
    d, spin = SPHERES[name]
    if spin == "trivial":
        return 1, mp.mpf(1), [mp.mpf(2)]
    # M_n = 2^{floor(d/2)+1} C(n+d-1, d-1) with n = mu - d/2, as a polynomial in mu
    a = [Fraction(2 ** (d // 2 + 1), math.factorial(d - 1))]
    for i in range(1, d):
        shift = Fraction(i) - Fraction(d, 2)            # factor (mu + shift)
        a = [(a[j - 1] if j else 0) + shift * (a[j] if j < len(a) else 0)
             for j in range(len(a) + 1)]
    return 0, mp.mpf(d) / 2, [mp.mpf(x.numerator) / x.denominator for x in a]


def ref_zeta(name, s, squared=False):
    kernel, c, a = _data(name)
    s = mp.mpc(s) * (2 if squared else 1)
    return kernel + sum(aj * mp.zeta(s - j, c) for j, aj in enumerate(a))


def ref_heat(name, t):
    d, spin = SPHERES[name]
    t = mp.mpf(t)
    if spin == "trivial":
        return 1 + 2 / mp.expm1(t)
    return 2 ** (d // 2 + 1) * mp.exp(-t * d / 2) / (-mp.expm1(-t)) ** d


def ref_powerlaw(name, a, b, r, lam):
    # sum M_n (a mu_n/L + b)^{-r} = (L/a)^r sum_n M(u - delta) u^{-r}, u = mu_n + delta
    kernel, c, coeffs = _data(name)
    a, b, r, lam = map(mp.mpf, (a, b, r, lam))
    delta = b * lam / a
    shifted = [sum(coeffs[j] * mp.binomial(j, k) * (-delta) ** (j - k)
                   for j in range(k, len(coeffs))) for k in range(len(coeffs))]
    return kernel * b ** (-r) + (lam / a) ** r * sum(
        bk * mp.zeta(r - k, c + delta) for k, bk in enumerate(shifted))


def ref_gaussian(name, t):
    """kernel + sum_n M_n e^{-t mu_n^2}, summed directly."""
    kernel, c, a = _data(name)
    t, total, n = mp.mpf(t), mp.mpf(kernel), 0
    while True:
        u = c + n
        term = sum(aj * u ** j for j, aj in enumerate(a)) * mp.exp(-t * u * u)
        total += term
        if u * u * t > 1 and term < mp.mpf(10) ** -45 * total:
            return total
        n += 1


def ref_gaussian_small(name, t, K=40):
    """kernel + sum_n M_n e^{-t mu_n^2} at small t from the residues of
    Gamma(s) t^{-s} sum_n mu_n^{j-2s}: Gamma((j+1)/2)/(2 t^{(j+1)/2}) at the
    Hurwitz pole and (-t)^k/k! zeta(-2k-j, c) at s = -k, for each power mu^j
    of M (asymptotic; at t <= 0.01 the k-th term is below 1e-40 by k = 20)."""
    kernel, c, a = _data(name)
    t = mp.mpf(t)
    return kernel + sum(aj * (mp.gamma((j + 1) / mp.mpf(2)) / (2 * t ** ((j + 1) / mp.mpf(2)))
                              + sum((-t) ** k / mp.factorial(k) * mp.zeta(-2 * k - j, c)
                                    for k in range(K)))
                        for j, aj in enumerate(a) if aj)


def ref_window(name, a, b, lam):
    """Tr f(|D|/Lambda) of f = window:a,b, Lambda int_{a/Lambda}^{b/Lambda} of the
    heat trace: on S^1 (b - a) + 2 Lambda ln((1 - e^{-b/Lambda})/(1 - e^{-a/Lambda})),
    on S^3 by the antiderivative x (1 + x^2)/(1 - x^2)^2 + ln((1 - x)/(1 + x))/2
    of 8 x^2/(1 - x^2)^3, which 4 e^{-3 tau/2} (1 - e^{-tau})^{-3} d tau is in
    x = e^{-tau/2} (one mp.quad is off by 1e-4 relative at a = 1e-30)."""
    a, b, lam = map(mp.mpf, (a, b, lam))
    if name == "s1":
        return (b - a) + 2 * lam * mp.log(mp.expm1(-b / lam) / mp.expm1(-a / lam))
    assert name == "s3"

    def F(tau):
        x = mp.exp(-tau / 2)
        return x * (1 + x * x) / mp.expm1(-tau) ** 2 + mp.log(-mp.expm1(-tau / 2) / (1 + x)) / 2

    return lam * (F(a / lam) - F(b / lam))


NULLTAYLOR = null_taylor_cutoff().components[0]


def ref_tabulated(name, lam, shift=0, squared=False):
    """The action of e^{-shift x} f(x), f = sum_i w_i e^{-s_i x} the tabulated
    `nulltaylor`: sum_i w_i times the heat trace at t = (shift + s_i)/Lambda
    (of D^2 if squared)."""
    total = mp.mpf(0)
    for s_i, w_i in zip(NULLTAYLOR.nodes, NULLTAYLOR.weights):
        t = (shift + mp.mpf(s_i)) / lam
        if squared:
            heat = ref_gaussian_small(name, t) if t <= 0.01 else ref_gaussian(name, t)
        else:
            heat = ref_heat(name, t)
        total += mp.mpf(w_i) * heat
    return total


def _within(rep, ref, terms=1024):
    assert rep.converged and rep.certified and rep.terms_used <= terms, rep
    err = abs(mp.mpc(rep.value) - ref)
    assert err <= rep.tail_bound + 1e-13 * (abs(ref) + 1), (rep, ref)


# ---------------------------------------------------------------------------
# the tail function
# ---------------------------------------------------------------------------

XP = SimpleNamespace(exp=np.exp, log=np.log, power=np.power,
                     upper_gamma=upper_gamma_array)


@pytest.mark.parametrize("coeffs, shape, param, U, exact", [
    ((0.0, 4.0), "power", 3.5, 6.0, lambda: 4 * mp.zeta(2.5, 6)),
    ((2.0,), "power", 3 + 2j, 10.0, lambda: 2 * mp.zeta(mp.mpc(3, 2), 10)),
    ((-0.5, 0.0, 2.0), "power", 3.02, 7.5,
     lambda: 2 * mp.zeta(1.02, 7.5) - mp.zeta(3.02, 7.5) / 2),
    ((-0.5, 0.0, 2.0), "exp", 1.5e-3, 5.5,
     lambda: mp.nsum(lambda k: (2 * (5.5 + k) ** 2 - 0.5) * mp.exp(-1.5e-3 * (5.5 + k)),
                     [0, mp.inf])),
    ((2.0,), "exp", 5.0, 5.0, lambda: 2 * mp.exp(-25) / -mp.expm1(-5)),
])
def test_em_tail_bounds_its_remainder(coeffs, shape, param, U, exact):
    est, bound = em_tail(coeffs, shape, param)(np.array([U]), XP)
    assert 0 < bound[0] < math.inf
    assert abs(mp.mpc(complex(est[0])) - exact()) <= bound[0] + 1e-15 * abs(exact())


# g = sum_j coeffs[j] u^{low+j} h(u): the u^{-1} term of the exp shape (a window's
# M(mu)/mu on S^3 and S^1) by the Lerch transcendent, the Gaussian shape summed directly
@pytest.mark.parametrize("coeffs, shape, param, low, U, exact", [
    ((-0.5, 0.0, 2.0), "exp", 1 / 120, -1, 6.5,
     lambda: mp.exp(-mp.mpf(6.5) / 120) * (2 * mp.lerchphi(mp.exp(-mp.mpf(1) / 120), -1, 6.5)
                                           - mp.lerchphi(mp.exp(-mp.mpf(1) / 120), 1, 6.5) / 2)),
    ((2.0,), "exp", 0.3, -1, 2.0,
     lambda: 2 * mp.exp(-mp.mpf(0.6)) * mp.lerchphi(mp.exp(-mp.mpf(0.3)), 1, 2)),
    ((-0.5, 0.0, 2.0), "gauss", 1e-3, 0, 6.5,
     lambda: mp.nsum(lambda k: (2 * (6.5 + k) ** 2 - 0.5) * mp.exp(-mp.mpf(1e-3) * (6.5 + k) ** 2),
                     [0, mp.inf])),
    ((2.0,), "gauss", 0.04, 0, 2.0,
     lambda: mp.nsum(lambda k: 2 * mp.exp(-mp.mpf(0.04) * (2 + k) ** 2), [0, mp.inf])),
])
def test_em_tail_new_shapes_bound_their_remainder(coeffs, shape, param, low, U, exact):
    est, bound = em_tail(coeffs, shape, param, low)(np.array([U]), XP)
    assert 0 < bound[0] < math.inf
    assert abs(mp.mpf(float(est[0])) - exact()) <= bound[0] + 1e-15 * abs(exact())


def _falling(x, i):
    return math.prod(x - k for k in range(i))


def _em_formula(coeffs, shape, low, t, U):
    """em_tail's estimate of one shape in mpmath: int_U^oo g + g(U)/2 -
    sum_{k<=5} B_2k/(2k)! g^(2k-1)(U), g^(r) by Leibniz's rule (exp) or the
    recurrence Q_{r+1} = Q_r' - 2tu Q_r (gauss)."""
    t, U = mp.mpf(t), mp.mpf(U)
    if shape == "exp":
        integral = sum(mp.mpf(c) * t ** (-(low + j) - 1) * mp.gammainc(low + j + 1, t * U)
                       for j, c in enumerate(coeffs))

        def der(r):
            return mp.exp(-t * U) * sum(
                mp.mpf(c) * mp.binomial(r, i) * _falling(low + j, i) * U ** (low + j - i)
                * (-t) ** (r - i) for j, c in enumerate(coeffs) for i in range(r + 1))
        ders = [der(r) for r in range(10)]
    else:
        q = [mp.mpf(0)] * low + [mp.mpf(c) for c in coeffs]
        integral = sum(c * mp.gammainc((i + 1) / mp.mpf(2), t * U * U)
                       / (2 * t ** ((i + 1) / mp.mpf(2))) for i, c in enumerate(q))
        ders = []
        for r in range(10):
            ders.append(mp.exp(-t * U * U) * sum(c * U ** i for i, c in enumerate(q)))
            q = [(q[i + 1] * (i + 1) if i + 1 < len(q) else 0) - (2 * t * q[i - 1] if i else 0)
                 for i in range(len(q) + 1)]
    return integral + ders[0] / 2 - sum(mp.bernoulli(2 * k) / mp.factorial(2 * k) * ders[2 * k - 1]
                                        for k in range(1, 6))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(SPHERES)), st.sampled_from([("exp", -1), ("exp", 0), ("gauss", 0)]),
       st.floats(math.log(1e-31), math.log(1e3)), st.floats(math.log(1e-30), math.log(690.0)))
def test_em_tail_estimate_rounding(name, shape_low, log_t, log_y):
    # the error model behind EM_KAPPA: one shape's estimate is within
    # 16 + 1.3 y ulps of the same formula at the same float t and U, y = tU
    # (exp) or tU^2 (gauss), with numpy's functions and with libm's
    shape, low = shape_low
    t, y = math.exp(log_t), math.exp(log_y)
    tail = _sphere(name).meta.tail
    U = y / t if shape == "exp" else math.sqrt(y / t)
    assume(1.0 + tail.shift <= U <= 1e17)
    U = math.floor(U - tail.shift - 1.0) + 1.0 + tail.shift
    y = t * U if shape == "exp" else t * U * U
    ref = _em_formula(tail.mults, shape, low, t, U)
    assume(abs(ref) > 1e-280)
    for xp in (XP, _LIBM):
        est, _ = em_tail(tail.mults, shape, t, low)(np.array([U]), xp)
        assert abs(mp.mpf(float(est[0])) - ref) <= (16 + 1.3 * y) * 2.0 ** -52 * abs(ref)


@pytest.mark.parametrize("shape, low", [("exp", -1), ("exp", 0), ("gauss", 0)])
def test_em_tail_batch_against_one_shape_at_a_time(shape, low):
    # the array call over several shapes against a loop of one-shape calls:
    # the same sums up to rounding, and where the weights have both signs the
    # bound adds eps sum_p |w_p e_p| (EM_KAPPA + 2 y_p), y_p = t_p U^k
    coeffs, U = (0.25, 0.0, 2.0), np.array([2.5, 7.5, 40.5])
    params, eps, k = [0.01, 0.2, 1.5], 2.0 ** -52, 1 if shape == "exp" else 2
    for weights in ([3.0, 1.0, 0.5], [3.0, -1.0, 0.5]):
        est, bound = em_tail(coeffs, shape, params, low, weights)(U, XP)
        parts = [em_tail(coeffs, shape, p, low, w)(U, XP) for p, w in zip(params, weights)]
        size = sum(abs(e) for e, _ in parts)
        assert np.allclose(est, sum(e for e, _ in parts), rtol=0.0, atol=4 * eps * size)
        extra = 0.0 if min(weights) > 0 else \
            eps * sum(abs(e) * (EM_KAPPA + 2.0 * p * U ** k) for p, (e, _) in zip(params, parts))
        assert np.allclose(bound, sum(b for _, b in parts) + extra, rtol=1e-13, atol=0.0)


def test_em_tail_refuses_powers_below_a_shape_s_range():
    with pytest.raises(ValueError):
        em_tail((1.0,), "exp", 1.0, -2)
    with pytest.raises(ValueError):
        em_tail((1.0,), "gauss", 1.0, -1)
    with pytest.raises(ValueError, match="one param"):
        em_tail((1.0,), "power", [3.0, 4.0], 0, [1.0, 1.0])


# ---------------------------------------------------------------------------
# the golden rows and the formerly stuck calls
# ---------------------------------------------------------------------------

def _golden(kind):
    rows = {"heat": HEAT, "zeta": ZETA, "action": ACTION}[kind]
    return [(r[0].removesuffix(".em"),) + r[1:] for r in rows if r[0].endswith(".em")]


@pytest.mark.parametrize("row", _golden("heat"))
def test_golden_heat_rows_within_bound(row):
    key, t, options = row[:3]
    if key.endswith("sq"):
        key = key.removesuffix("sq")
        ref, spec = ref_gaussian(key, t), _sphere(key).squared()
    else:
        ref, spec = ref_heat(key, t), _sphere(key)
    ref -= 0 if options.get("include_kernel", True) else _data(key)[0]
    _within(heat_trace(spec, t, **options), ref)


@pytest.mark.parametrize("row", _golden("zeta"))
def test_golden_zeta_rows_within_bound(row):
    key, s, options = row[:3]
    base = key.removesuffix("sq")
    ref = ref_zeta(base, s, squared=key.endswith("sq"))
    if not options.get("include_kernel", True):
        ref -= _data(base)[0]
    spec = _sphere(base).squared() if key.endswith("sq") else _sphere(base)
    _within(zeta_direct(spec, s, **options), ref)


@pytest.mark.parametrize("row", _golden("action"))
def test_golden_action_rows_within_bound(row):
    key, cutoff, lam = row[:3]
    if cutoff.startswith("powerlaw:"):
        ref = ref_powerlaw(key, *map(float, cutoff[9:].split(",")), lam)
    elif cutoff == "gauss":
        ref = ref_gaussian(key, mp.mpf(lam) ** -2)
    elif cutoff.startswith("window:"):
        ref = ref_window(key, *map(float, cutoff[7:].split(",")), lam)
    elif cutoff == "nulltaylor":
        ref = ref_tabulated(key, lam)
    else:   # exp:1 or product(exp:1,exp:1): heat at t = 1/Lambda or 2/Lambda
        ref = ref_heat(key, mp.mpf(1 if cutoff == "exp:1" else 2) / lam)
    _within(spectral_action_direct(_sphere(key), parse_cutoff(cutoff), lam), ref)


# the last row's weight (Lambda b / a)^r = 500^150 overflows: the counting bound takes over
@pytest.mark.parametrize("cutoff, lam", [("sharp", 40.5), ("powerlaw:1,10,150", 50.0)])
def test_other_cutoffs_keep_the_counting_bound(cutoff, lam):
    exact = _sphere("s1")
    assert spectral_action_direct(exact, parse_cutoff(cutoff), lam) \
        == spectral_action_direct(counted(exact), parse_cutoff(cutoff), lam)


@pytest.mark.parametrize("cutoff, lam", [("gauss", 5.0)])
def test_gauss_on_the_em_route(cutoff, lam):
    exact, f = _sphere("s1"), parse_cutoff(cutoff)
    rep = spectral_action_direct(exact, f, lam)
    _within(rep, ref_gaussian("s1", mp.mpf(lam) ** -2),
            terms=spectral_action_direct(counted(exact), f, lam).terms_used - 1)


@pytest.mark.parametrize("cutoff, lam", [("window:1,2", 120.0)])
def test_window_on_the_em_route(cutoff, lam):
    exact, f = _sphere("s1"), parse_cutoff(cutoff)
    rep = spectral_action_direct(exact, f, lam)
    _within(rep, ref_window("s1", *map(float, cutoff[7:].split(",")), lam),
            terms=spectral_action_direct(counted(exact), f, lam).terms_used - 1)


@pytest.mark.parametrize("name, cutoff, lam, terms", [
    ("s3", "window:1,2", 120.0, 10),        # 5,155 terms on the counting bound
    ("s3", "window:1e-30,1", 5.0, 10),      # the counting bound stays near 3e94 to the term cap
    # two shapes of about 6e4 that cancel to 6.25: their rounding joins the bound
    ("s3", "window:2,2.0001", 50.0, 1024),
])
def test_window_actions_take_the_em_route(name, cutoff, lam, terms):
    rep = spectral_action_direct(_sphere(name), parse_cutoff(cutoff), lam)
    _within(rep, ref_window(name, *map(float, cutoff[7:].split(",")), lam), terms=terms)


@pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
def test_nulltaylor_on_the_circle(lam):
    # 1,680 exponential shapes, one per node; the counting bound ran to the term cap
    rep = spectral_action_direct(_sphere("s1"), null_taylor_cutoff(), lam)
    _within(rep, ref_tabulated("s1", lam), terms=10)


def test_tabulated_products_and_squared_spheres():
    # product(exp:1,nulltaylor) takes its shapes from its factors (469 terms on
    # the counting bound), and on D^2 each exponential shape is a Gaussian one
    f = parse_cutoff("product(exp:1,nulltaylor)")
    _within(spectral_action_direct(_sphere("s3"), f, 10.0), ref_tabulated("s3", 10.0, shift=1),
            terms=10)
    rep = spectral_action_direct(_sphere("s2").squared(), null_taylor_cutoff(), 2.0)
    _within(rep, ref_tabulated("s2", 2.0, squared=True), terms=40)


@st.composite
def windows(draw):
    """(a, b): a log-uniform in [1e-3, 10], b/a - 1 log-uniform in [1e-4, 99]."""
    a = math.exp(draw(st.floats(math.log(1e-3), math.log(10.0))))
    return a, a * (1.0 + math.exp(draw(st.floats(math.log(1e-4), math.log(99.0)))))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["s1", "s3"]), windows(), st.floats(math.log(0.5), math.log(1e4)))
@example("s3", (2.0, 2.0001), math.log(50.0))
@example("s3", (1e-30, 1.0), math.log(5.0))
def test_window_action_within_bound(name, ab, log_lam):
    # a narrow window with a wide Lambda/a runs to the term cap: the rounding
    # of its cancelling shapes keeps the bound above the tolerance, and the
    # value stays within it all the same
    lam = math.exp(log_lam)
    rep = spectral_action_direct(_sphere(name), window_cutoff(*ab), lam)
    ref = ref_window(name, *ab, lam)
    assert rep.certified and abs(mp.mpf(rep.value) - ref) <= rep.tail_bound + 1e-13 * (abs(ref) + 1)


def test_squared_heat_on_the_em_route():
    exact = _sphere("s3").squared()
    rep = heat_trace(exact, 0.05)
    _within(rep, ref_gaussian("s3", 0.05), terms=heat_trace(counted(exact), 0.05).terms_used - 1)
    # at t = 1e-3 the counting bound needs 194 terms
    _within(heat_trace(exact, 1e-3), ref_gaussian("s3", 1e-3), terms=40)


@pytest.mark.parametrize("name, s", [("s3", 5.0), ("s2", 4.0), ("s4", 6.0), ("s2", 3.5)])
def test_zeta_a_unit_above_the_abscissa(name, s):
    _within(zeta_direct(_sphere(name), s), ref_zeta(name, s))


def test_small_t_heat_and_the_s3_powerlaw_action():
    _within(heat_trace(_sphere("s3"), 1e-4), ref_heat("s3", 1e-4))
    rep = spectral_action_direct(_sphere("s3"), powerlaw_cutoff(1.0, 1.0, 5.0), 50.0)
    assert rep.converged
    assert abs(rep.value - 20827.08687183049) <= rep.tail_bound + 1e-13 * 20827.08687183049
    _within(rep, ref_powerlaw("s3", 1, 1, 5, 50))


def test_s1_exp_action_far_below_x0():
    # mu_n / Lambda < 16 for the first 1.6e26 terms: the envelope's counting
    # bound cannot stop the sum there, the heat-shape tail at t = 1e-25 does
    rep = spectral_action_direct(_sphere("s1"), exp_cutoff(1.0), 1e25)
    _within(rep, ref_heat("s1", mp.mpf("1e-25")))


@pytest.mark.parametrize("name", ["s1", "s2"])
@pytest.mark.parametrize("lam", [1e34, 1e50])
def test_gauss_action_where_the_tail_coefficients_underflow(name, lam):
    # t = Lambda^-2 <= 1e-68, and every coefficient of the remainder's Q_10
    # carries t^5 or more.  The action is sqrt(pi) Lambda on S^1 and
    # 2 Lambda^2 - 1/3 on S^2: the Poisson corrections vanish in floats
    rep = spectral_action_direct(_sphere(name), gaussian_cutoff(), lam)
    exact = mp.sqrt(mp.pi) * lam if name == "s1" else 2 * mp.mpf(lam) ** 2 - mp.mpf(1) / 3
    _within(rep, exact, terms=5)


# ---------------------------------------------------------------------------
# property: every sphere call on the route converges within its bound
# ---------------------------------------------------------------------------

names = st.sampled_from(sorted(SPHERES))
margin = st.floats(0.02, 39.0)


@settings(max_examples=40, deadline=None)
@given(names, margin, st.booleans())
def test_real_zeta_within_bound(name, excess, squared):
    p = SPHERES[name][0]
    sigma = min(p + excess, 40.0)
    s = sigma / 2 if squared else sigma          # D^2 at s is |D| at 2s
    spec = _sphere(name).squared() if squared else _sphere(name)
    rep = zeta_direct(spec, s)
    _within(rep, ref_zeta(name, s, squared))
    assert zeta_direct(spec, s) == rep          # bit-identical repeats


@settings(max_examples=30, deadline=None)
@given(names, margin, st.floats(-20.0, 20.0), st.booleans())
def test_complex_zeta_within_bound(name, excess, tau, squared):
    p = SPHERES[name][0]
    s = complex(min(p + excess, 40.0), tau)
    s = s / 2 if squared else s
    spec = _sphere(name).squared() if squared else _sphere(name)
    _within(zeta_direct(spec, s), ref_zeta(name, s, squared))


@settings(max_examples=40, deadline=None)
@given(names, st.floats(math.log(1e-6), math.log(50.0)))
def test_heat_within_bound(name, log_t):
    t = math.exp(log_t)
    _within(heat_trace(_sphere(name), t), ref_heat(name, t))


@settings(max_examples=30, deadline=None)
@given(names, st.floats(0.5, 2.0), st.floats(0.0, math.log(1e6)))
def test_exp_action_within_bound(name, a, log_lam):
    lam = math.exp(log_lam)
    rep = spectral_action_direct(_sphere(name), exp_cutoff(a), lam)
    _within(rep, ref_heat(name, mp.mpf(a) / lam))


@settings(max_examples=25, deadline=None)
@given(names, st.floats(0.5, 2.0), st.floats(0.0, math.log(40.0)), st.booleans())
def test_gauss_action_and_squared_heat_within_bound(name, width, log_lam, heat):
    lam = math.exp(log_lam)
    t = (width * lam) ** -2.0
    rep = (heat_trace(_sphere(name).squared(), t) if heat
           else spectral_action_direct(_sphere(name), gaussian_cutoff(width), lam))
    _within(rep, ref_gaussian(name, t))


@settings(max_examples=30, deadline=None)
@given(names, st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 4.0),
       st.floats(0.0, math.log(1e6)))
def test_powerlaw_action_within_bound(name, a, b, excess, log_lam):
    r, lam = SPHERES[name][0] + excess, math.exp(log_lam)
    rep = spectral_action_direct(_sphere(name), powerlaw_cutoff(a, b, r), lam)
    _within(rep, ref_powerlaw(name, a, b, r, lam))
