import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from sal.spectra import (PodlesParams, load_spectrum_jsonl, nctorus_spectrum,
                         podles_diag_A, podles_spectrum, save_spectrum_jsonl,
                         sphere_spectrum, torus_spectrum)


def test_sphere_examples():
    s3 = sphere_spectrum(3)
    e0 = s3.take(1)[0]
    assert e0.value == 1.5 and e0.mult == 4
    s1 = sphere_spectrum(1, "trivial")
    e = s1.take(2)
    assert e[0].value == 1.0 and e[0].mult == 2
    assert s1.meta.kernel_dim == 1
    s2 = sphere_spectrum(2)
    e = s2.take(1)[0]
    assert e.value == 1.0 and e.mult == 4
    with pytest.raises(ValueError):
        sphere_spectrum(2, "trivial")
    with pytest.raises(ValueError):
        sphere_spectrum(0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sphere_hockey_stick(d):
    # total multiplicity up to n equals 2^{floor(d/2)+1} C(n+d, d), exactly
    spec = sphere_spectrum(d)
    total = 0
    for n, e in enumerate(spec.entries()):
        if n > 30:
            break
        total += e.mult
        assert total == 2 ** (d // 2 + 1) * math.comb(n + d, d)


def test_torus_values_and_kernel():
    t3 = torus_spectrum(3, (0, 0, 0), radius_cut=3.0)
    assert t3.meta.kernel_dim == 2
    first = t3.take(1)[0]
    assert abs(first.value - 2 * math.pi) < 1e-12
    assert first.mult == 12  # 6 lattice points x 2^{floor(3/2)}
    t3s = torus_spectrum(3, (1, 0, 0), radius_cut=3.0)
    assert t3s.meta.kernel_dim == 0
    assert abs(t3s.take(1)[0].value - math.pi) < 1e-12
    # brute-force check of the grouped multiplicities
    shift = np.array([0.5, 0.0, 0.0])
    norms = {}
    for k in itertools.product(range(-8, 9), repeat=3):
        v = 2 * math.pi * np.linalg.norm(np.array(k) + shift)
        if 0 < v <= 2 * math.pi * 2.5:
            key = round(v, 9)
            norms[key] = norms.get(key, 0) + 2
    got = [(e.value, e.mult) for e in t3s.entries() if e.value <= 2 * math.pi * 2.5]
    assert len(got) == len(norms)
    for v, mlt in got:
        assert norms[round(v, 9)] == mlt


def test_nctorus_values():
    n2 = nctorus_spectrum(2, radius_cut=5.0)
    assert n2.meta.kernel_dim == 2
    first = n2.take(1)[0]
    assert first.value == 1.0 and first.mult == 8  # 4 points x 2
    n4 = nctorus_spectrum(4, radius_cut=5.0)
    e = [x for x in n4.entries() if abs(x.value - math.sqrt(2)) < 1e-12]
    # enumerate Z^4 with |k|^2 = 2: 24 points, times 2^2
    count = sum(1 for k in itertools.product(range(-2, 3), repeat=4)
                if sum(x * x for x in k) == 2)
    assert count == 24
    assert e[0].mult == 4 * 24


def test_spectra_strictly_increasing():
    pp = PodlesParams(0.5, 1.0)
    for spec in (sphere_spectrum(3), torus_spectrum(2, (0, 1), 4.0),
                 nctorus_spectrum(3, 4.0), podles_spectrum(pp),
                 podles_spectrum(pp, simplified=True)):
        prev = -1.0
        for n, e in enumerate(spec.entries()):
            if n > 60:
                break
            assert e.value > prev
            assert e.mult >= 1 and isinstance(e.mult, int)
            prev = e.value


def test_podles_values():
    pp = PodlesParams(0.5, 1.0)
    full = podles_spectrum(pp).take(3)
    assert abs(full[0].value - 1.0) < 1e-15 and full[0].mult == 4
    assert abs(full[2].value - 5.25) < 1e-14 and full[2].mult == 12
    assert podles_spectrum(pp).meta.dimension_p == 0.0
    with pytest.raises(ValueError):
        PodlesParams(1.5, 1.0)
    with pytest.raises(ValueError):
        PodlesParams(0.5, 0.0)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_podles_full_vs_simplified_relation(q):
    # |w|[n+1] = mu_n^S - u^2 / mu_n^S to 1e-12 for n <= 50
    pp = PodlesParams(q, 1.3)
    full = podles_spectrum(pp).take(51)
    simp = podles_spectrum(pp, simplified=True).take(51)
    for n in range(51):
        muS = simp[n].value
        if not math.isfinite(muS):
            break
        lhs = full[n].value
        rhs = muS - pp.u ** 2 / muS
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_podles_diag_A_sanity():
    # q -> 1: sum_m A^0 -> (2l+1)/2 per representation
    pp = PodlesParams(0.999, 1.0)
    for l in (0.5, 1.5, 2.5):
        for sign in (+1, -1):
            val = podles_diag_A(pp, l, sign)
            assert abs(val - (2 * l + 1) / 2.0) < 0.02 * (2 * l + 1)
    pp2 = PodlesParams(0.5, 1.0)
    v = podles_diag_A(pp2, 0.5, +1)
    assert math.isfinite(v)
    with pytest.raises(ValueError):
        podles_diag_A(pp2, 1.0, +1)


def test_podles_diag_A_contraction_bound():
    # |A^0_{l,m,+-}| <= 1 for l <= 40 (A is a positive contraction)
    pp = PodlesParams(0.5, 1.0)
    for l in [0.5 + k for k in range(0, 41, 4)]:
        for sign in (+1, -1):
            _, terms = podles_diag_A(pp, l, sign, return_terms=True)
            assert all(-1e-12 <= t <= 1.0 + 1e-12 for t in terms)


def test_jsonl_roundtrip(tmp_path):
    pp = PodlesParams(0.5, 1.0)
    spec = podles_spectrum(pp)
    path = tmp_path / "spec.jsonl"
    save_spectrum_jsonl(str(path), spec, 10)
    loaded = load_spectrum_jsonl(str(path))
    assert loaded.meta.dimension_p == 0.0
    assert loaded.meta.kernel_dim == 0
    got = loaded.take(10)
    want = spec.take(10)
    assert [(e.value, e.mult) for e in got] == [(e.value, e.mult) for e in want]


def test_jsonl_rejects_nonincreasing(tmp_path):
    path = tmp_path / "bad.jsonl"
    rows = [{"p": 1.0, "kernel": 0, "label": "bad"},
            {"value": 2.0, "mult": 1}, {"value": 1.0, "mult": 1}]
    path.write_text("\n".join(json.dumps(r) for r in rows))
    with pytest.raises(ValueError, match="strictly increasing"):
        load_spectrum_jsonl(str(path))


def test_squared_spectrum():
    s2 = sphere_spectrum(2)
    sq = s2.squared()
    assert sq.meta.dimension_p == 1.0
    e = sq.take(3)
    assert [x.value for x in e] == [1.0, 4.0, 9.0]


@pytest.mark.parametrize("row, match", [
    ('{"value": NaN, "mult": 2}', "finite"),
    ('{"value": Infinity, "mult": 1}', "finite"),
    ('{"value": 3.0, "mult": 1.7}', "integer"),
    ('{"value": 3.0, "mult": true}', "integer"),
])
def test_jsonl_rejects_nonfinite_values_and_fractional_mults(tmp_path, row, match):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"p": 1.0, "kernel": 0, "label": "bad"}\n'
                    '{"value": 1.0, "mult": 2}\n' + row + "\n")
    with pytest.raises(ValueError, match=match):
        load_spectrum_jsonl(str(path))


def test_lattice_triples_do_not_import_scipy_signal():
    code = ("import sys\n"
            "from sal.catalog import resolve_triple\n"
            "for tid in ('nct2', 'nct4', 't3'):\n"
            "    resolve_triple(tid).spectrum.take(5)\n"
            "print('scipy.signal' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
