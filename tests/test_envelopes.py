"""Cut-off envelopes and the action tails they certify.

A cut-off reports f(x) <= C e^{-ax} (or C e^{-(x/w)^2}) for every x >= 0;
on a polynomial tail model the action's tail bound is then the heat-trace
bound at t = a/Lambda (or an incomplete-gamma Gaussian bound).  Each value
must lie within its bound of an mpmath sum over the whole spectrum.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sal.cutoffs import (CutoffFunction, GammaDensity, exp_cutoff, parse_cutoff)
from sal.series import spectral_action_direct
from sal.spectra import (PodlesParams, nctorus_spectrum, podles_spectrum, sphere_spectrum,
                         torus_spectrum)
from sal.summation import lattice_sq_counts

mp.mp.dps = 30


def _within(rep, exact):
    """Converged, and within its bound of the exact value, up to rounding."""
    assert rep.converged and rep.certified, rep
    assert abs(mp.mpf(rep.value) - exact) <= rep.tail_bound + 1e-14 * (abs(exact) + 1), rep


@pytest.mark.parametrize("f", [
    "exp:0.7", "window:1,2", "window:0.5,3", "product(exp:1,exp:1)",
    "product(exp:1,window:1,2)", "product(exp:1,powerlaw:1,1,5)",
    "product(window:1,2,window:0.5,1)", "gauss", "gauss:0.5",
], ids=str)
def test_envelope_holds(f):
    cut = parse_cutoff(f)
    env = cut.envelope
    assert env is not None
    x = np.logspace(-6.0, 3.0, 2001)
    h = np.exp(-env.a * x) if env.kind == "exp" else np.exp(-(x / env.a) ** 2)
    assert np.all(cut.evaluate(x) <= env.C * h * (1.0 + 1e-14))


def test_shifted_gamma_density_envelope():
    f = CutoffFunction((GammaDensity(r=5.0, rate=1.0, weight=2.0, shift=0.8),))
    assert f.envelope == ("exp", 2.0, 0.8)
    x = np.logspace(-6.0, 3.0, 2001)
    assert np.all(f.evaluate(x) <= 2.0 * np.exp(-0.8 * x) * (1.0 + 1e-14))


@pytest.mark.parametrize("f", ["powerlaw:1,1,5", "window:0,1", "nulltaylor", "sharp"])
def test_cutoffs_without_decaying_envelope(f):
    assert getattr(parse_cutoff(f), "envelope", None) is None


def test_envelope_composition():
    assert exp_cutoff(0.7).envelope == ("exp", 1.0, 0.7)
    assert parse_cutoff("window:1,3").envelope == ("exp", 2.0, 1.0)
    assert parse_cutoff("product(exp:1,window:1,3)").envelope == ("exp", 2.0, 2.0)
    assert parse_cutoff("product(exp:0.5,powerlaw:1,2,3)").envelope == ("exp", 0.125, 0.5)
    assert parse_cutoff("gauss:0.5").envelope == ("gauss", 1.0, 0.5)


# ---------------------------------------------------------------------------
# Actions within their bound of mpmath sums over the whole spectrum
# ---------------------------------------------------------------------------

def _mp_cutoff(text: str):
    if text.startswith("gauss"):
        w = mp.mpf(text[6:]) if ":" in text else mp.mpf(1)
        return lambda x: mp.exp(-(x / w) ** 2)
    if text == "window:1,2":
        a, b = 1, 2
    else:                               # product(exp:1,window:1,2) = window:2,3
        a, b = 2, 3
    return lambda x: mp.mpf(b - a) if x == 0 else (mp.exp(-a * x) - mp.exp(-b * x)) / x


def _mp_s3(f, lam: float):
    lam, out, n = mp.mpf(lam), mp.mpf(0), 0
    while True:
        term = 2 * (n + 1) * (n + 2) * f((n + mp.mpf(1.5)) / lam)
        out += term
        if n > 10 and term < mp.mpf(10) ** -40 * out:
            return out
        n += 1


def _mp_lattice(f, lam: float, d: int, scale: float, mult: int, x_max: float):
    # sum over Z^d of mult f(scale |k| / Lambda), shells m = |k|^2, up to f's negligible tail
    m_max = int((x_max * lam / scale) ** 2) + 1
    counts = lattice_sq_counts((None,) * d, m_max).tolist()
    lam, scale = mp.mpf(lam), mp.mpf(scale)
    return mp.fsum(mult * c * f(scale * mp.sqrt(m) / lam) for m, c in enumerate(counts) if c)


CUTOFFS = ["gauss", "gauss:0.5", "window:1,2", "product(exp:1,window:1,2)"]


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("lam", [3.0, 20.0])
def test_s3_action_within_envelope_bound(cutoff, lam):
    rep = spectral_action_direct(sphere_spectrum(3), parse_cutoff(cutoff), lam)
    _within(rep, _mp_s3(_mp_cutoff(cutoff), lam))


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("triple, lam", [("t3", 2.0), ("t3", 6.0), ("nct2", 1.5), ("nct2", 5.0)])
def test_lattice_action_within_envelope_bound(cutoff, triple, lam):
    f = parse_cutoff(cutoff)
    x_max = 12.0 if cutoff.startswith("gauss") else 80.0     # f < 1e-34 past x_max
    if triple == "t3":
        rep = spectral_action_direct(torus_spectrum(3, (0, 0, 0), radius_cut=70.0), f, lam)
        exact = _mp_lattice(_mp_cutoff(cutoff), lam, 3, 2.0 * math.pi, 2, x_max)
    else:
        rep = spectral_action_direct(nctorus_spectrum(2, radius_cut=450.0), f, lam)
        exact = _mp_lattice(_mp_cutoff(cutoff), lam, 2, 1.0, 2, x_max)
    _within(rep, exact)


# ---------------------------------------------------------------------------
# Property: the envelope route on exponential and polynomial tail models
# ---------------------------------------------------------------------------

# each cut-off as (text, f and f(0) in mpmath, decay rate a, Gaussian or not):
# f(x) <= C e^{-ax}, or C e^{-(ax)^2}
def _exp_text(a):
    return f"exp:{a!r}", lambda x: mp.exp(-a * x), mp.mpf(1), a, False


def _window_text(a, width):
    b = a + width
    return (f"window:{a!r},{b!r}", lambda x: (mp.exp(-a * x) - mp.exp(-b * x)) / x,
            mp.mpf(b) - a, a, False)


def _product(left, right):
    (lt, lf, l0, la, _), (rt, rf, r0, ra, _) = left, right
    return f"product({lt},{rt})", lambda x: lf(x) * rf(x), l0 * r0, la + ra, False


def _with_powerlaw(exp, alpha, beta, r):
    et, ef, e0, ea, _ = exp
    return (f"product({et},powerlaw:{alpha!r},{beta!r},{r!r})",
            lambda x: ef(x) * (alpha * x + beta) ** -r, e0 * mp.mpf(beta) ** -r, ea, False)


def _gauss_text(w):
    return f"gauss:{w!r}", lambda x: mp.exp(-(x / w) ** 2), mp.mpf(1), 1.0 / w, True


rates = st.floats(0.2, 3.0)
exps = st.builds(_exp_text, rates)
simple = st.one_of(exps, st.builds(_window_text, rates, st.floats(0.1, 3.0)))
ENVELOPE_CUTOFFS = st.one_of(
    simple, st.builds(_product, simple, simple),
    st.builds(_with_powerlaw, exps, st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 4.0)),
    st.builds(_gauss_text, st.floats(0.3, 3.0)))
# Podles spheres (exponential tail model) and their squares, and three
# spectra of polynomial growth
TRIPLES = st.one_of(
    st.tuples(st.sampled_from(["podles", "podless", "podlessq", "podlesq"]),
              st.floats(0.1, 0.95), st.floats(0.5, 2.0)),
    st.tuples(st.sampled_from(["s1", "s3", "nct2"]), st.just(0.0), st.just(0.0)))
# the largest mu_n/Lambda at which the reference sums run: f < 1e-45 f(0) past it
REACH = {"s1": 6000.0, "s3": 6000.0, "nct2": 150.0}


def _mp_action(spectrum, f, f0, lam: float):
    """kernel f(0) + sum M_n f(mu_n/Lambda) over the spectrum in 40 digits, up
    to the first falling term below 1e-45 of the sum: the terms fall
    geometrically from there, or the spectrum ends."""
    lam, total, last = mp.mpf(lam), spectrum.meta.kernel_dim * f0, mp.inf
    for v, m in spectrum.blocks():
        for mu, mult in zip(v.tolist(), m.tolist()):
            term = mult * f(mp.mpf(mu) / lam)
            total += term
            if term < last and term < mp.mpf(10) ** -45 * total:
                return total
            last = term
    return total


@settings(max_examples=80, deadline=None)
@given(TRIPLES, ENVELOPE_CUTOFFS, st.floats(0.0, 1.0))
@example(triple=("podles", 0.1, 0.5), cutoff=_window_text(1.0, 0.130859375), u=1.0)
def test_envelope_route_within_bound(triple, cutoff, u):
    """Lambda in [0.5, 1e3], log-uniform; on polynomial growth only up to where
    the reference sum stays within REACH (mu_n up to 110/a Lambda)."""
    family, q, w = triple
    text, f_mp, f0, rate, gauss = cutoff
    x_stop = 11.0 / rate if gauss else 110.0 / rate
    lam_max = 1e3 if family.startswith("podles") else max(0.5, min(1e3, REACH[family] / x_stop))
    lam = 0.5 * (lam_max / 0.5) ** u
    if family.startswith("podles"):
        spec = podles_spectrum(PodlesParams(q, w), simplified=family.startswith("podless"))
        spec = spec.squared() if family.endswith("q") else spec
    elif family == "nct2":
        spec = nctorus_spectrum(2, radius_cut=x_stop * lam)
    else:
        spec = sphere_spectrum(1, "trivial") if family == "s1" else sphere_spectrum(3)
    f = parse_cutoff(text)
    assert f.envelope is not None
    rep = spectral_action_direct(spec, f, lam)
    if family.startswith("podles"):
        assert rep.converged and rep.certified, rep
    if rep.converged and rep.certified:
        exact = _mp_action(spec, f_mp, f0, lam)
        assert abs(mp.mpf(rep.value) - exact) <= rep.tail_bound + 1e-13 * (abs(exact) + 1), rep
