import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from sal.cutoffs import (Atom, CutoffFunction, IndicatorCutoff, exp_cutoff,
                         gaussian_cutoff, null_taylor_cutoff)
from sal.series import (DivergentSeriesError, PairwiseSummer, averaged_counting,
                        counting, dixmier_estimate, heat_trace, mellin_check,
                        partial_trace, spectral_action_direct, zeta_direct,
                        zeta_richardson)
from sal.special import riemann_zeta
from sal.spectra import (LogSquareTail, PodlesParams, Spectrum, SpectrumMeta,
                         block_ranges, nctorus_spectrum, podles_spectrum,
                         sphere_spectrum)


def log_square_spectrum() -> Spectrum:
    meta = SpectrumMeta(math.inf, 0, "log^2 n", tail=LogSquareTail(shift=2.0))

    def gen():
        for lo, hi in block_ranges():
            yield (np.array([math.log(n + 2.0) ** 2 for n in range(lo, hi)]),
                   np.ones(hi - lo, dtype=np.int64))

    return Spectrum(meta, gen)


# ---------------------------------------------------------------------------
# heat traces
# ---------------------------------------------------------------------------

def test_heat_s1_coth():
    s1 = sphere_spectrum(1, "trivial")
    for t in (0.1, 0.5, 2.0):
        rep = heat_trace(s1, t, tol=1e-15)
        assert rep.converged and rep.certified
        assert abs(rep.value - 1.0 / math.tanh(t / 2.0)) < 1e-12


def test_heat_large_t_kernel():
    s1 = sphere_spectrum(1, "trivial")
    rep = heat_trace(s1, 80.0)
    assert abs(rep.value - 1.0) < 1e-30 + 1e-12


def test_heat_nct2_gaussian():
    spec = nctorus_spectrum(2, radius_cut=40.0).squared()
    rep = heat_trace(spec, 0.05, tol=1e-13)
    ref = 2.0 * math.pi / 0.05
    assert abs(rep.value - ref) / ref < 1e-10


def test_heat_monotone_in_t():
    spec = sphere_spectrum(2)
    vals = [heat_trace(spec, t).value for t in np.linspace(0.2, 3.0, 12)]
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


def test_heat_bounded_t_power():
    # t^r h(t) bounded on (0, 1] for every r > p
    for spec, p in ((sphere_spectrum(1, "trivial"), 1.0),
                    (sphere_spectrum(3), 3.0),
                    (podles_spectrum(PodlesParams(0.5, 1.0)), 0.0)):
        r = p + 0.3
        vals = [t ** r * heat_trace(spec, t, tol=1e-11).value
                for t in np.logspace(-3, 0, 12)]
        assert max(vals) < 1e4


def test_heat_infinite_t_decay_slope():
    # h(t) - kernel = O(e^{-mu0 t}): log-slope fit
    s1 = sphere_spectrum(1, "trivial")
    ts = np.array([4.0, 6.0, 8.0, 10.0])
    ys = np.array([heat_trace(s1, t).value - 1.0 for t in ts])
    slope = np.polyfit(ts, np.log(ys), 1)[0]
    assert abs(slope + 1.0) < 0.05  # mu0 = 1


def test_heat_log_square_spectrum_succeeds():
    spec = log_square_spectrum()
    rep = heat_trace(spec, 1.5, tol=1e-9)
    assert rep.converged and rep.certified
    direct = sum(math.exp(-1.5 * math.log(n + 2.0) ** 2) for n in range(200000))
    assert abs(rep.value - direct) < 1e-6


# ---------------------------------------------------------------------------
# zeta values
# ---------------------------------------------------------------------------

def test_zeta_examples():
    s1 = sphere_spectrum(1, "trivial")
    rep = zeta_direct(s1, 3.0, tol=1e-14)
    assert abs(rep.value.real - (1.0 + 2.0 * riemann_zeta(3.0).real)) < 1e-12
    s2sq = sphere_spectrum(2).squared()
    rep = zeta_direct(s2sq, 3.0, tol=1e-14)
    assert abs(rep.value.real - 4.0 * riemann_zeta(5.0).real) < 1e-12
    pp = PodlesParams(0.5, 1.0)
    ps = podles_spectrum(pp, simplified=True)
    rep = zeta_direct(ps, 3.0, tol=1e-15)
    ref = 4.0 * (pp.u / pp.q) ** -3.0 / (1.0 - pp.q ** 3) ** 2
    assert abs(rep.value.real - ref) < 1e-13


def test_zeta_refuses_below_p():
    s2 = sphere_spectrum(2)
    with pytest.raises(DivergentSeriesError):
        zeta_direct(s2, 2.0)
    with pytest.raises(DivergentSeriesError):
        zeta_direct(s2, complex(1.5, 40.0))
    # log-square spectrum refuses at every s while heat succeeds
    spec = log_square_spectrum()
    for s in (1.0, 5.0, 50.0):
        with pytest.raises(DivergentSeriesError):
            zeta_direct(spec, s)


@pytest.mark.parametrize("q, s, tol", [(0.99, 12.0, 1e-14), (0.99, 8.0, 1e-14),
                                        (0.95, 12.0, 1e-12), (0.9, 16.0, 1e-12)])
def test_zeta_full_podles_tail_within_bound(q, s, tol):
    # the full D_q ratios [n+2]/[n+1] fall towards 1/q: the certified bound
    # must hold the true tail sum_{n >= N} 4(n+1) |[n+1]|^{-s} (mpmath)
    import mpmath as mp
    rep = zeta_direct(podles_spectrum(PodlesParams(q, 1.0)), s, tol=tol)
    assert rep.converged and rep.certified
    with mp.workdps(40):
        L = -mp.log(mp.mpf(q))
        true_tail, n, term = mp.mpf(0), rep.terms_used, mp.mpf(1)
        while term > 1e-30 * true_tail:      # the terms fall geometrically
            term = 4 * (n + 1) * (mp.sinh((n + 1) * L) / mp.sinh(L)) ** (-s)
            true_tail, n = true_tail + term, n + 1
    assert true_tail <= rep.tail_bound


@pytest.mark.parametrize("q", [0.3, 0.9, 0.99])
@pytest.mark.parametrize("simplified, squared",
                         [(False, False), (False, True), (True, False), (True, True)])
@pytest.mark.parametrize("engine, param", [("heat", 0.01), ("heat", 0.3), ("zeta", 2.0),
                                           ("zeta", 12.0), ("action", 10.0), ("action", 100.0)])
def test_podles_certificates_vs_mpmath(engine, param, simplified, squared, q):
    # the value must lie within its certified tail bound of the whole sum
    # sum_n 4(n+1) g(mu_n) in mpmath, for D_q and D_q^S and their squares
    import mpmath as mp
    spec = podles_spectrum(PodlesParams(q, 1.0), simplified=simplified)
    spec = spec.squared() if squared else spec
    if engine == "heat":
        rep, g = heat_trace(spec, param, tol=1e-12), lambda mu: mp.exp(-param * mu)
    elif engine == "zeta":
        rep, g = zeta_direct(spec, param, tol=1e-12), lambda mu: mu ** -param
    else:
        rep = spectral_action_direct(spec, exp_cutoff(1.0), param, tol=1e-12)
        g = lambda mu: mp.exp(-mu / param)
    assert rep.converged and rep.certified
    with mp.workdps(30):
        qm = mp.mpf(q)
        L, u = -mp.log(qm), qm / (1 - qm * qm)
        total, n, term = mp.mpf(0), 0, mp.mpf(1)
        while n <= rep.terms_used or term > 1e-30 * total:
            mu = u * qm ** -(n + 1) if simplified else mp.sinh((n + 1) * L) / mp.sinh(L)
            term = 4 * (n + 1) * g(mu * mu if squared else mu)
            total, n = total + term, n + 1
    assert abs(rep.value - total) <= rep.tail_bound + 1e-13 * (abs(total) + 1)


def test_zeta_richardson_accuracy():
    s1 = sphere_spectrum(1, "trivial")
    val = zeta_richardson(s1, 2.0, include_kernel=False)
    assert abs(val.real - 2.0 * riemann_zeta(2.0).real) < 1e-10


# ---------------------------------------------------------------------------
# spectral action
# ---------------------------------------------------------------------------

def test_action_sharp_counting():
    s1 = sphere_spectrum(1, "trivial")
    rep = spectral_action_direct(s1, IndicatorCutoff(), 5.5)
    assert rep.value == 11.0
    assert counting(s1, 5.5) == 11


def test_action_s3_gaussian():
    s3 = sphere_spectrum(3)
    rep = spectral_action_direct(s3, gaussian_cutoff(), 10.0, tol=1e-13)
    ref = math.sqrt(math.pi) / 2.0 * 1000.0 - math.sqrt(math.pi) / 4.0 * 10.0
    assert rep.converged
    assert abs(rep.value - ref) / ref < 1e-8


def test_action_equals_heat_at_scaled_t():
    # f = e^{-a x} gives Tr f(|D|/L) = heat trace at t = a/L (same kernel rule)
    s2 = sphere_spectrum(2)
    a, lam = 1.3, 4.0
    act = spectral_action_direct(s2, exp_cutoff(a), lam, tol=1e-13)
    ht = heat_trace(s2, a / lam, tol=1e-13)
    assert abs(act.value - ht.value) < 1e-11 * abs(ht.value)


def test_action_refuses_uncertified():
    s2 = sphere_spectrum(2)
    with pytest.raises(TypeError):
        spectral_action_direct(s2, lambda x: math.exp(-x), 3.0)


def test_action_refuses_divergent_cutoffs():
    # nulltaylor decays like x^{-5/4}: no tail bound on S^3 (p = 3) ever certifies
    with pytest.raises(DivergentSeriesError):
        spectral_action_direct(sphere_spectrum(3), null_taylor_cutoff(), 10.0)
    # the same decay is summable on S^1 (p = 1) and on Podles spheres (p = 0)
    pp = PodlesParams(0.5, 1.0)
    assert spectral_action_direct(podles_spectrum(pp, simplified=True),
                                  null_taylor_cutoff(), 10.0).converged
    # decay p = inf is a promise only a sharp edge keeps
    flat = CutoffFunction((Atom(1.0, 1.0),), math.inf, 1.0, 1.0)
    with pytest.raises(ValueError):
        spectral_action_direct(sphere_spectrum(3), flat, 10.0)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_averaged_counting_s1():
    # P(u) = 2: <N> = 2L + 2 zeta(0) + 1 = 2L
    for lam in (10.0, 25.5):
        assert abs(averaged_counting([2.0], lam, kernel_dim=1) - 2.0 * lam) < 1e-12


def test_averaged_counting_quadratic():
    # P(u) = u^2: <N> = L^3/3 + zeta(-2) + ker = L^3/3 + ker
    val = averaged_counting([0.0, 0.0, 1.0], 6.0, kernel_dim=2)
    assert abs(val - (72.0 + 2.0)) < 1e-12


def test_counting_vs_averaged_bound():
    # |N - <N>| bounded by the max multiplicity near Lambda for S^1
    s1 = sphere_spectrum(1, "trivial")
    for lam in np.linspace(10.0, 100.0, 19):
        n = counting(s1, lam)
        avg = averaged_counting([2.0], lam, kernel_dim=1)
        assert abs(n - avg) <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# partial trace / Dixmier
# ---------------------------------------------------------------------------

def test_partial_trace_interpolation():
    pairs = [(3.0, 2), (1.0, 4)]
    assert partial_trace(pairs, 2.0) == 6.0
    assert partial_trace(pairs, 2.5) == 6.5
    assert partial_trace(pairs, 6.0) == 10.0
    assert partial_trace(pairs, 100.0) == 10.0  # trace-class saturation


def test_dixmier_s2():
    # S^2, T = |D|^{-2}: limit 2 (= (1/2) * ncint |D|^{-2} = 4/2)
    s2 = sphere_spectrum(2)
    est = dixmier_estimate(s2, 2.0, 10 ** 5)
    assert abs(est - 2.0) < 0.05 * 2.0


def test_dixmier_trace_class():
    s2 = sphere_spectrum(2)
    est = dixmier_estimate(s2, 4.0, 10 ** 5)
    assert abs(est) < 1e-3


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_pairwise_summer_chunk_invariance():
    rng = np.random.default_rng(0)
    xs = list(rng.normal(size=5000) * np.exp(-np.linspace(0, 30, 5000)))
    totals = []
    for chunk in (1, 7, 64, 1000):
        s = PairwiseSummer()
        i = 0
        while i < len(xs):
            for x in xs[i:i + chunk]:
                s.add(x)
            i += chunk
        totals.append(s.total())
    assert all(t == totals[0] for t in totals)
    ref = math.fsum(xs)
    assert abs(totals[0] - ref) < 1e-14 * max(1.0, abs(ref))


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 4000), seed=st.integers(0, 2 ** 32 - 1),
       cuts=st.lists(st.integers(0, 4000), max_size=6), lanes=st.sampled_from((1, 16)),
       start=st.integers(0, 200), imag=st.booleans())
def test_pairwise_summer_extend_matches_add(size, seed, cuts, lanes, start, imag):
    """`extend`, lane-wise over whole leaves, is `add` term by term, bit for bit."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=start + size) * np.exp(rng.uniform(-30.0, 30.0, start + size))
    if imag:                        # complex terms, as zeta values off the real axis
        xs = xs + 1j * xs[::-1]
    one, many = PairwiseSummer(), PairwiseSummer()
    many._LANES = lanes
    for x in xs[:start].tolist():   # both start inside some leaf
        one.add(x)
        many.add(x)
    xs = xs[start:]
    for lo, hi in zip([0] + sorted(cuts), sorted(cuts) + [xs.size]):
        many.extend(xs[lo:hi])
        for x in xs[lo:hi].tolist():
            one.add(x)
        assert (many._stack, many._acc, many._comp, many._in_block, many.count) == \
            (one._stack, one._acc, one._comp, one._in_block, one.count)
        assert many.total() == one.total()


def test_heat_trace_rerun_identical():
    spec = sphere_spectrum(3)
    a = heat_trace(spec, 0.2).value
    b = heat_trace(spec, 0.2).value
    assert a == b


# ---------------------------------------------------------------------------
# Mellin identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec_id,s", [("s1", 2.0), ("s1", 3.5),
                                       ("s2", 2.5), ("s2", 4.0)])
def test_mellin_spheres(spec_id, s):
    spec = sphere_spectrum(1, "trivial") if spec_id == "s1" else sphere_spectrum(2)
    assert mellin_check(spec, s) < 1e-8


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_mellin_podles(s):
    ps = podles_spectrum(PodlesParams(0.5, 1.0), simplified=True)
    assert mellin_check(ps, s) < 1e-7


def test_action_stops_at_term_cap_below_x0():
    # mu_n / Lambda stays far below the cut-off's x0 = 16, so no index is tested
    rep = spectral_action_direct(sphere_spectrum(1, "trivial"), exp_cutoff(1.0), 1e25)
    assert rep.terms_used == 2_000_002
    assert not rep.converged and rep.tail_bound == math.inf
