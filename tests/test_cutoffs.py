import math

import mpmath as mp
import numpy as np
import pytest

from sal.cutoffs import (CutoffFunction, IndicatorCutoff, SchwartzCutoff,
                         exp_cutoff, gaussian_cutoff, null_taylor_cutoff,
                         parse_cutoff, powerlaw_cutoff, product, window_cutoff)
from sal.special import gamma


def test_evaluate_closed_forms():
    f = exp_cutoff(2.0)
    assert abs(f.evaluate(1.3) - math.exp(-2.6)) < 1e-15
    w = window_cutoff(0.5, 2.0)
    x = 0.7
    assert abs(w.evaluate(x) - (math.exp(-0.5 * x) - math.exp(-2.0 * x)) / x) < 1e-14
    assert abs(w.evaluate(0.0) - 1.5) < 1e-12  # total mass b - a
    p = powerlaw_cutoff(2.0, 3.0, 1.5)
    assert abs(p.evaluate(1.0) - (2.0 + 3.0) ** -1.5) < 1e-14


def test_moments():
    f = exp_cutoff(2.0)
    assert abs(f.moment(3.0) - 8.0) < 1e-14
    # gamma density for (x+1)^{-2}: moment 1 = Gamma(3)/Gamma(2) = 2
    p = powerlaw_cutoff(1.0, 1.0, 2.0)
    assert abs(p.moment(1.0) - 2.0) < 1e-12
    assert abs(p.moment(0.0) - 1.0) < 1e-13  # f(0) = 1
    w = window_cutoff(1.0, 2.0)
    assert abs(w.moment(2.0) - 7.0 / 3.0) < 1e-14
    assert abs(w.moment(-1.0) - math.log(2.0)) < 1e-14


def test_null_taylor_moments():
    # phi(s) = e^{-s^{1/4}} sin(s^{1/4}): all signed moments vanish,
    # absolute moments stay finite (tolerance relative to the |phi| scale)
    f = null_taylor_cutoff()
    for m in range(5):
        signed = f.moment(float(m))
        absolute = f.moment(float(m), absolute=True)
        assert math.isfinite(absolute) and absolute > 0
        assert abs(signed) <= 1e-8 * (1.0 + absolute)
    # exact absolute moments: 4 int y^{4m+3} e^{-y} |sin y| dy <= 4 (4m+3)!
    assert f.moment(4.0, absolute=True) <= 4.0 * math.factorial(19)


def test_f_moments():
    f = exp_cutoff(1.0)  # delta_1
    for z, n in ((0.7, 0), (2.0, 1), (-1.3, 2)):
        val = f.f_moment(z, n)
        assert abs(val - (1.0 if n == 0 else 0.0)) < 1e-15
    g = exp_cutoff(2.0)
    assert abs(g.f_moment(2.0, 0) - 0.25) < 1e-14
    # f = (x+1)^{-3}: f_{1,0} = int f dx / Gamma(1) = 1/2 = Gamma(2)/Gamma(3)
    p = powerlaw_cutoff(1.0, 1.0, 3.0)
    measure_side = p.f_moment(1.0, 0)
    quad_side = float(mp.quad(lambda x: float(p.evaluate(float(x))), [0, mp.inf]))
    assert abs(measure_side - 0.5) < 1e-12
    assert abs(quad_side / abs(gamma(1.0)) - 0.5) < 1e-9


def test_f_moment_quadrature_cross_check():
    # f_{z,0} = Gamma(z)^{-1} int x^{z-1} f(x) dx for Re z > 0
    f = powerlaw_cutoff(1.0, 2.0, 3.0)
    for z in (0.8, 1.7):
        lhs = f.f_moment(z, 0)
        rhs = float(mp.quad(lambda x: x ** (z - 1.0) * float(f.evaluate(float(x))), [0, mp.inf]))
        rhs /= gamma(z).real
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_product_rules():
    a, b = exp_cutoff(1.0), exp_cutoff(2.5)
    ab = product(a, b)
    x = 0.9
    assert abs(ab.evaluate(x) - math.exp(-3.5 * x)) < 1e-14
    assert len(ab.components) == 1 and ab.components[0].location == 3.5
    # certificates add: Cl_0^p * Cl_0^r in Cl_0^{p+r}
    p2 = powerlaw_cutoff(1.0, 1.0, 2.0)
    p3 = powerlaw_cutoff(1.0, 1.0, 3.0)
    assert product(p2, p3).decay_certificate[0] == 5.0
    # f^n certificate n*r
    f = p2
    fn = f
    for _ in range(2):
        fn = product(fn, f)
    assert fn.decay_certificate[0] == 6.0
    assert abs(fn.evaluate(1.0) - f.evaluate(1.0) ** 3) < 1e-14


def test_product_window_measures():
    w = window_cutoff(0.0, 1.0)
    ww = product(w, w)
    xs = np.array([0.3, 1.7, 8.0])
    expect = ((1 - np.exp(-xs)) / xs) ** 2
    assert np.max(np.abs(ww.evaluate(xs) - expect)) < 1e-12
    # measure side: moment of chi*chi on [0,2]: int s^1 rho = 1 (mean of sum of two U[0,1])
    assert abs(ww.moment(1.0) - 1.0) < 1e-9
    assert abs(ww.moment(0.0) - 1.0) < 1e-10


def test_moment_derivative_consistency():
    # lim_{x->0} f^(n)(x) = (-1)^n int s^n dphi, checked by finite differences
    for f in (exp_cutoff(1.5), window_cutoff(0.0, 1.0), powerlaw_cutoff(1.0, 1.0, 4.0),
              product(window_cutoff(0.0, 1.0), exp_cutoff(1.0))):
        assert abs(f.evaluate(0.0) - f.moment(0.0)) < 1e-9
        h = 1e-3
        # first derivative: second-order one-sided stencil at 0
        d1 = (-3 * f.evaluate(0.0) + 4 * f.evaluate(h) - f.evaluate(2 * h)) / (2 * h)
        assert abs(d1 - (-f.moment(1.0))) < 1e-5 * max(1.0, f.moment(1.0))
        # second derivative: third-order one-sided stencil
        d2 = (35.0 / 12.0 * f.evaluate(0.0) - 26.0 / 3.0 * f.evaluate(h)
              + 9.5 * f.evaluate(2 * h) - 14.0 / 3.0 * f.evaluate(3 * h)
              + 11.0 / 12.0 * f.evaluate(4 * h)) / h ** 2
        assert abs(d2 - f.moment(2.0)) < 1e-5 * max(1.0, f.moment(2.0))


def test_complete_monotonicity_sampled():
    # (-1)^n f^(n)(x) >= 0 for nonnegative measures, n <= 4
    for f in (exp_cutoff(1.0), window_cutoff(0.0, 2.0), powerlaw_cutoff(1.0, 2.0, 2.5)):
        for x in (0.1, 1.0, 10.0):
            h = 1e-2 * max(1.0, x)
            pts = [float(f.evaluate(x + k * h)) for k in range(-2, 3)]
            d1 = (pts[3] - pts[1]) / (2 * h)
            d2 = (pts[3] - 2 * pts[2] + pts[1]) / h ** 2
            d3 = (pts[4] - 2 * pts[3] + 2 * pts[1] - pts[0]) / (2 * h ** 3)
            d4 = (pts[4] - 4 * pts[3] + 6 * pts[2] - 4 * pts[1] + pts[0]) / h ** 4
            assert pts[2] >= 0
            assert -d1 >= -1e-9
            assert d2 >= -1e-9
            assert -d3 >= -1e-6 * max(1.0, abs(d3))
            assert d4 >= -1e-4 * max(1.0, abs(d4))


def test_evaluate_nonincreasing():
    xs = np.logspace(-3, 3, 200)
    for f in (exp_cutoff(0.7), window_cutoff(0.0, 1.0),
              powerlaw_cutoff(2.0, 1.0, 1.5), null_taylor_cutoff()):
        vals = f.evaluate(xs)
        if f.label == "nulltaylor":
            continue  # signed measure: monotonicity not asserted
        assert np.all(np.diff(vals) <= 1e-12)


def test_nonnegativity_sample():
    for f in (exp_cutoff(1.0), window_cutoff(0.0, 1.0), null_taylor_cutoff()):
        assert f.nonnegativity_minimum() > -1e-10


def test_null_taylor_decay_certificate():
    f = null_taylor_cutoff()
    p, C, x0 = f.decay_certificate
    assert p == 1.25
    # the tabulated f stops decaying like x^{-p} far out (x^p |f| peaks near 1.7e8)
    xs = np.logspace(0, 11, 1101)
    assert np.all(np.abs(f.evaluate(xs)) <= C * xs ** (-p) + 1e-18)


def test_schwartz_and_sharp():
    g = gaussian_cutoff()
    assert g.is_schwartz_only()
    assert abs(g.f0() - 1.0) < 1e-15
    assert g.envelope == ("gauss", 1.0, 1.0)
    sharp = IndicatorCutoff()
    assert sharp.edge == 1.0
    assert sharp.evaluate(0.5) == 1.0 and sharp.evaluate(1.5) == 0.0


def test_parse_grammar():
    assert parse_cutoff("exp:2").label == "exp:2"
    assert parse_cutoff("window:0,1").label == "window:0,1"
    assert parse_cutoff("powerlaw:1,2,3").decay_certificate[0] == 3.0
    assert parse_cutoff("gauss").is_schwartz_only()
    assert parse_cutoff("nulltaylor").label == "nulltaylor"
    pr = parse_cutoff("product(window:0,1,exp:1)")
    assert abs(pr.evaluate(2.0)
               - float(window_cutoff(0, 1).evaluate(2.0)) * math.exp(-2.0)) < 1e-14
    nested = parse_cutoff("product(product(exp:1,exp:1),exp:1)")
    assert abs(nested.evaluate(1.0) - math.exp(-3.0)) < 1e-14
    with pytest.raises(ValueError):
        parse_cutoff("mystery:1")


@pytest.mark.parametrize("text", [
    "exp:1", "window:1,2", "window:0,1", "powerlaw:1,1,5", "gauss", "gauss:0.5", "nulltaylor",
    "sharp", "product(exp:1,nulltaylor)", "product(powerlaw:1,1,2,powerlaw:1,1,3)",
    "product(window:0,1,exp:1)", "product(exp:1,powerlaw:1,1,3)", "product(window:0,1,nulltaylor)",
])
def test_every_cutoff_reports_exactly_one_tail_certificate(text):
    f = parse_cutoff(text)
    reported = [k for k in ("edge", "envelope", "decay_certificate")
                if getattr(f, k, None) is not None]
    # a power certificate only where f decays no faster than a power
    power = text in ("window:0,1", "powerlaw:1,1,5", "nulltaylor",
                     "product(powerlaw:1,1,2,powerlaw:1,1,3)", "product(window:0,1,nulltaylor)")
    expected = "edge" if text == "sharp" else "decay_certificate" if power else "envelope"
    assert reported == [expected]


def test_product_without_envelope_adds_decay_powers():
    assert parse_cutoff("product(window:0,1,nulltaylor)").decay_certificate[0] == 2.25
    # nulltaylor's |f| <= sum |w_i| (nodes >= 0) gives products with exp an envelope
    assert parse_cutoff("product(exp:1,nulltaylor)").envelope.a == 1.0


@pytest.mark.parametrize("text", ["product(gauss,exp:1)", "product(exp:1,sharp)",
                                  "product(product(exp:1,exp:1),gauss:2)"])
def test_product_refuses_a_factor_without_a_measure(text):
    with pytest.raises(TypeError, match="has no Laplace measure"):
        parse_cutoff(text)


def test_em_shapes_reproduce_the_cutoff():
    # sum over shapes of weight u^low h(u), u = mu + delta, is f(mu/Lambda)
    h = {"exp": lambda p, u: np.exp(-p * u), "gauss": lambda p, u: np.exp(-p * u * u),
         "power": lambda p, u: u ** -p}
    lam, mu = 7.0, np.linspace(0.5, 60.0, 40)
    for text in ("exp:1.5", "powerlaw:1,2,4", "gauss:1.3", "product(exp:1,exp:2)",
                 "window:1,2", "product(exp:1,window:1,2)", "nulltaylor"):
        f = parse_cutoff(text)
        shapes = f.em_shapes(lam)
        got = sum(sh.weight * (mu + sh.delta) ** sh.low * h[sh.kind](sh.param, mu + sh.delta)
                  for sh in shapes)
        assert np.allclose(got, f.evaluate(mu / lam), rtol=1e-13, atol=0.0), text
    # a power factor, a window at a = 0, and two windows' u^{-2}
    for text in ("product(exp:1,powerlaw:1,1,3)", "window:0,2",
                 "product(window:1,2,window:1,2)"):
        assert parse_cutoff(text).em_shapes(lam) is None, text
    # t = (w Lambda)^{-2} past floats: no shape where it overflows, and a
    # refusal where it falls below the normal floats
    assert gaussian_cutoff(1e-10).em_shapes(1e-150) is None
    for lam in (1e155, 1e300):
        with pytest.raises(OverflowError, match="below the normal floats"):
            gaussian_cutoff(1.0).em_shapes(lam)
    assert gaussian_cutoff(1.0).em_shapes(6e153)[0].param > 0.0


def test_signed_measure_view():
    from sal.cutoffs import SignedMeasure
    f = product(exp_cutoff(1.0), powerlaw_cutoff(1.0, 1.0, 2.0))
    m = f.measure
    assert isinstance(m, SignedMeasure)
    assert len(m.atoms) == 0 and len(m.densities) == 1  # atom*gamma -> gamma
    g = exp_cutoff(2.0).measure
    assert len(g.atoms) == 1 and g.atoms[0].location == 2.0
    assert abs(g.total_variation() - 1.0) < 1e-15
    nt = null_taylor_cutoff().measure
    assert nt.total_variation() > nt.densities[0].moment(0.0)  # |phi| > phi


def _close(val, ref, rel):
    return abs(complex(val) - complex(ref)) <= rel * max(abs(complex(ref)), 1.0)


def test_window_f_moment_vs_mpmath():
    w = window_cutoff(0.5, 2.0).components[0]
    for z in (0.3, 1.7 + 0.5j, -1.2, 1.0):
        for n in range(3):
            ref = mp.quad(lambda s: s ** (-mp.mpc(z)) * mp.log(s) ** n, [w.a, w.b])
            assert _close(w.f_moment(z, n), ref, 1e-13), (z, n)


@pytest.mark.parametrize("a, b", [(1.0, 1.130859375), (1.0, 2.0), (0.0, 1.0), (0.5, 3.0)])
def test_window_evaluate_vs_mpmath(a, b):
    # (e^{-ax} - e^{-bx})/x loses digits to cancellation at small x as a difference
    xs = [1e-7, 1e-6, 1e-4, 1e-2, 1.0, 30.0]
    got = window_cutoff(a, b).evaluate(np.array(xs)).tolist()
    with mp.workdps(30):
        for x, val in zip(xs, got):
            ref = (mp.exp(-a * mp.mpf(x)) - mp.exp(-b * mp.mpf(x))) / x
            assert abs(val - ref) <= 1e-15 * ref, (x, val)


def test_shifted_gamma_density_vs_mpmath():
    # e^{-x} (1 + x)^{-3}: the gamma density of the power law moved by the atom at 1
    (g,) = parse_cutoff("product(exp:1,powerlaw:1,1,3)").components
    assert g.shift == 1.0

    def dens(s):
        t = s - g.shift
        return g.weight * mp.mpf(g.rate) ** g.r * t ** (g.r - 1) \
            * mp.exp(-g.rate * t) / mp.gamma(g.r)

    for m in (0.0, 1.0, 2.0, 1.5, -0.5, 3.3):
        ref = mp.quad(lambda s: s ** m * dens(s), [g.shift, g.shift + 5, mp.inf])
        assert _close(g.moment(m), ref, 1e-12), m
    for z in (0.5, 2 + 1j, -1.5):
        for n in range(3):
            ref = mp.quad(lambda s: s ** (-mp.mpc(z)) * mp.log(s) ** n * dens(s),
                          [g.shift, g.shift + 5, mp.inf])
            assert _close(g.f_moment(z, n), ref, 1e-12), (z, n)


def test_quad_density_f_moment_vs_mpmath():
    # two unit windows on [1, 2] convolve to the triangle on [2, 4]
    (q,) = parse_cutoff("product(window:1,2,window:1,2)").components
    assert len(q.nodes) > 1

    def tri(s):
        return s - 2 if s <= 3 else 4 - s

    for z in (0.5, 2 + 1j, -1.5, 1.0):
        for n in range(3):
            ref = mp.quad(lambda s: s ** (-mp.mpc(z)) * mp.log(s) ** n * tri(s), [2, 3, 4])
            assert _close(q.f_moment(z, n), ref, 1e-13), (z, n)
