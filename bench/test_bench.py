"""Tests of the benchmark's own reference formulas and span arithmetic.

    python -m pytest bench/test_bench.py

The references are compared with brute-force mpmath sums over the spectra
as defined (refs.py docstring), at a few points each.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import Op  # noqa: E402


def brute(term, n_max: int):
    """sum_{n < n_max} term(n), in mpmath."""
    return mp.fsum(term(n) for n in range(n_max))


def close(a, b, rel=1e-13):
    return abs(float(a) - float(b)) <= rel * abs(float(b))


@pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
def test_heat_closed_forms(t):
    n = int(80 / t) + 10     # e^{-t mu} below e^{-80} beyond
    assert close(refs.s1_heat(t), 1 + brute(lambda k: 2 * mp.exp(-t * (k + 1)), n))
    assert close(refs.s3_heat(t),
                 brute(lambda k: 2 * (k + 1) * (k + 2) * mp.exp(-t * (k + 1.5)), n))


@pytest.mark.parametrize("s", [3.5, 5.0, 7.25])
def test_zeta_closed_forms(s):
    def nsum(term):
        # the default extrapolation is off by 2e-11 at s = 3.5
        return mp.nsum(term, [0, mp.inf], method="euler-maclaurin")
    assert close(refs.s1_zeta(s), 1 + nsum(lambda k: 2 * (k + 1) ** -s))
    assert close(refs.s2_zeta(s), nsum(lambda k: 4 * (k + 1) * (k + 1) ** -s))
    assert close(refs.s3_zeta(s + 2),
                 nsum(lambda k: 2 * (k + 1) * (k + 2) * (k + mp.mpf(1.5)) ** -(s + 2)))


@pytest.mark.parametrize("q,w,s", [(0.5, 1.0, 1.5), (0.43, 1.7, 0.8)])
def test_podless_zeta_and_heat(q, w, s):
    u = refs.podles_u(q, w)
    mu = lambda k: u * mp.mpf(q) ** (-(k + 1))
    assert close(refs.podless_zeta(s, q, w),
                 brute(lambda k: 4 * (k + 1) * mu(k) ** -s, 400), 1e-12)
    assert close(refs.podless_heat(0.3, q, w),
                 brute(lambda k: 4 * (k + 1) * mp.exp(-0.3 * mu(k)), 60))


@pytest.mark.parametrize("cutoff,lam", [("exp:1", 7.0), ("window:1,2", 6.0),
                                        ("product(exp:1,exp:1)", 9.0), ("gauss", 5.0)])
def test_s3_actions(cutoff, lam):
    def f(x):
        return refs.cutoff_values(cutoff, np.array([float(x)]))[0]
    # terms from numpy are double precision: compare at 1e-12
    want = math.fsum(2 * (k + 1) * (k + 2) * f((k + 1.5) / lam) for k in range(int(60 * lam)))
    assert close(refs.s3_action(cutoff, lam), want, 1e-12)


def test_gauss_action_matches_nsum_where_nsum_works():
    lam = 5.0
    want = mp.nsum(lambda k: 2 * (k + 1) * (k + 2) * mp.exp(-((k + 1.5) / lam) ** 2),
                   [0, mp.inf])
    assert close(refs.s3_gauss_action(lam), want)


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.49, 2.5, 40.3, 100.0])
def test_sharp_count(lam):
    want = sum(2 * (k + 1) * (k + 2) for k in range(1000) if k + 1.5 <= lam)
    assert refs.s3_sharp_count(lam) == want


def test_s1_heat_coefficients_match_bernoulli_series():
    # e^{-t} + 2/(e^t - 1) = 2/t + sum_k (2 B_k/k! + (-1)^{k-1}/(k-1)!) t^{k-1}
    got = refs.heat_coeffs("s1")
    assert got[(1.0, 0)] == pytest.approx(2.0)
    for k in range(1, 6):
        want = 2 * mp.bernoulli(k) / mp.factorial(k) + (-1) ** (k - 1) / mp.factorial(k - 1)
        assert got[(-float(k - 1), 0)] == pytest.approx(float(want), abs=1e-15)


def test_fewest_terms_on_a_geometric_series():
    terms = 0.5 ** np.arange(1, 60)        # sums to 1
    # remainder after N terms is 2^-N, below tol (1 + 1) from N > log2(1/(2 tol))
    assert refs.fewest_terms(terms, 0.0, 1.0, 1e-12) == 39
    assert refs.fewest_terms(terms, 0.0, 1.0, 1e-3) == 9


def test_within_allows_bound_plus_rounding():
    assert refs.within(1.0 + 1e-9, 1.0, 2e-9)
    assert not refs.within(1.0 + 1e-9, 1.0, 1e-10)


def test_self_times_subtract_direct_children_only():
    # 0: [0, 10] has children 1: [1, 4] and 3: [5, 6]; 1 has child 2: [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    assert spans.self_times(parent, start, end).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_layer_self_times_sum_to_the_root_duration():
    rec = spans.Recorder()
    for name, par, a, b in (("series.heat_trace", -1, 0.0, 10.0),
                            ("special.upper_gamma", 0, 1.0, 4.0),
                            ("special.upper_gamma", 0, 5.0, 6.0),
                            ("cutoffs.CutoffFunction.evaluate", 0, 7.0, 7.5)):
        rec.names.append(name)
        rec.name.append(len(rec.names) - 1)
        rec.parent.append(par)
        rec.op.append(0)
        rec.start.append(a)
        rec.end.append(b)
    busy = spans.layer_self_times(rec)
    assert busy["series"] == 5.5 and busy["special"] == 4.0 and busy["cutoffs"] == 0.5
    assert sum(busy.values()) == 10.0


def test_install_records_cross_layer_spans_and_uninstall_restores():
    import sal
    from sal import series, special

    original = (series.heat_trace, series.upper_gamma, sal.heat_trace)
    s1 = sal.sphere_spectrum(1, "trivial")
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        rep = series.heat_trace(s1, 0.5)
    finally:
        spans.uninstall(undo)
    assert (series.heat_trace, series.upper_gamma, sal.heat_trace) == original
    assert special.upper_gamma is original[1]
    names = rec.span_names()
    assert names[0] == "series.heat_trace" and "special.upper_gamma" in names
    assert rec.calls["series.heat_trace"] == 1
    assert rec.terms["series.heat_trace"] == rep.terms_used
    own = spans.self_times(rec.parent, rec.start, rec.end)
    assert (own >= 0).all()
    assert set(rec.parent[1:]) == {0}      # upper_gamma is called from the engine only


def test_a_wrong_output_fails_in_every_pass_that_repeats_it():
    ops = [Op("x.right", "right", lambda: 1, lambda out: None),
           Op("x.wrong", "wrong", lambda: 2, lambda out: "wrong: 2"),
           Op("x.open", "open", lambda: 3, lambda out: None, done=lambda out: False)]
    first, _ = worker.run_pass(ops)
    found = worker.verdicts(ops, first)
    second = worker.repeats(ops, first, first)
    assert second == [None, None, None]
    failed, notes, wrong = worker.tally(
        found + [v if v is not None else v0 for v, v0 in zip(second, found)])
    assert failed == 4 and wrong == ["wrong: 2"]
    assert notes == ["open: did not converge or exited non-zero"]
    changed = [(1, None), (5, None), (None, "open: RuntimeError: boom")]
    assert worker.repeats(ops, changed, first) == [
        None, ("wrong: output differs from the first pass", True),
        ("open: RuntimeError: boom", False)]
