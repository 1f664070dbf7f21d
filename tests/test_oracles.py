import cmath
import math

import numpy as np
import pytest

from sal.asymptotics import ncint_numeric
from sal.oracles import (catalog_zeta, epstein_residue, podles_A_residue,
                         podles_A_residue_reference, podles_F1_mode0,
                         podles_heat_exact, s1_heat_exact, s1_laurent)
from sal.series import heat_trace, zeta_direct
from sal.special import EULER_GAMMA
from sal.spectra import (PodlesParams, nctorus_spectrum, podles_spectrum,
                         sphere_spectrum)


def test_s1_heat_exact():
    assert abs(s1_heat_exact(0.1) - 1.0 / math.tanh(0.05)) < 1e-15
    assert abs(s1_heat_exact(80.0) - 1.0) < 1e-15
    rep = heat_trace(sphere_spectrum(1, "trivial"), 0.1, tol=1e-15)
    assert abs(rep.value - s1_heat_exact(0.1)) < 1e-12


def test_s1_laurent():
    cs = s1_laurent(10)
    assert cs[0] == 1.0
    assert abs(cs[1] - 1.0 / 3.0) < 1e-15  # 2^2 B_2 / 2!
    # partial sums of coth at s = t/2 = 0.25
    t = 0.5
    s = t / 2.0
    acc = cs[0] / s + sum(c * s ** (2 * k - 1) for k, c in enumerate(cs[1:], start=1))
    assert abs(acc - s1_heat_exact(t)) < 1e-12


@pytest.mark.parametrize("tid,s,spec_fn", [
    ("s1", 3.0, lambda: sphere_spectrum(1, "trivial")),
    ("s2", 3.5, lambda: sphere_spectrum(2)),
    ("s3", 4.0, lambda: sphere_spectrum(3)),
    ("nct2", 10.0, lambda: nctorus_spectrum(2, radius_cut=80.0)),
])
def test_catalog_zeta_matches_direct(tid, s, spec_fn):
    ref = catalog_zeta(tid).value(complex(s))
    rep = zeta_direct(spec_fn(), complex(s))
    assert rep.converged and rep.certified
    assert abs(rep.value - ref) / abs(ref) < 1e-10


def _epstein_closed_form(d, s):
    """sum over Z^d minus 0 of |k|^{-s}: 4 zeta(w) beta(w) for d = 2 and
    8 (1 - 4^{1-w}) zeta(w) zeta(w-1) for d = 4 (Jacobi), w = s/2."""
    import mpmath as mp
    w = mp.mpc(s) / 2
    if d == 2:
        return 4 * mp.zeta(w) * mp.dirichlet(w, [0, 1, 0, -1])
    return 8 * (1 - mp.power(4, 1 - w)) * mp.zeta(w) * mp.zeta(w - 1)


@pytest.mark.parametrize("tid,s", [
    ("nct2", 3), ("nct2", 4), ("nct2", 2.5 + 1j),
    ("nct4", 5), ("nct4", 6), ("nct4", 4.5 + 2j),
])
def test_lattice_zeta_matches_closed_forms(tid, s):
    # 2^{d/2} spinor components on each lattice point and on the kernel
    d = int(tid[3:])
    ref = complex(2 ** (d // 2) * (_epstein_closed_form(d, s) + 1))
    assert abs(catalog_zeta(tid).value(complex(s)) - ref) < 1e-14 * abs(ref)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_podles_zetas_vs_direct(q):
    pp = PodlesParams(q, 1.0)
    for simplified in (True, False):
        cz = catalog_zeta("podless" if simplified else "podles", pp)
        spec = podles_spectrum(pp, simplified=simplified)
        for s in (2.0, 3.0):
            ref = cz.value(complex(s))
            rep = zeta_direct(spec, complex(s), tol=1e-14)
            assert abs(rep.value - ref) / abs(ref) < 1e-10, (q, simplified, s)


def test_podles_simplified_residues_closed_form():
    pp = PodlesParams(0.5, 1.0)
    lnq, u = math.log(pp.q), pp.u
    cz = catalog_zeta("podless", pp)
    # a_{0,2} = 2/ln^2 q via the U-Laurent of the stored pole data
    pole0 = [p for p in cz.poles() if abs(p.z) < 1e-12][0]
    assert abs(pole0.coeff(-2) - 4.0 / lnq ** 2) < 1e-12
    # numeric Laurent fit of the closed form cross-checks b_{-2}, b_{-1}
    b2 = ncint_numeric(cz.value, 2, 0.0, radius=0.1)
    b1 = ncint_numeric(cz.value, 1, 0.0, radius=0.1)
    assert abs(b2 - pole0.coeff(-2)) < 1e-10
    assert abs(b1 - pole0.coeff(-1)) < 1e-10
    assert abs(pole0.coeff(-1) + 4.0 * math.log(u) / lnq ** 2) < 1e-12


def test_podles_heat_exact_matches_direct():
    pp = PodlesParams(0.5, 1.0)
    spec = podles_spectrum(pp, simplified=True)
    for t in (0.5, 1.0, 5.0):
        d = heat_trace(spec, t, tol=1e-14).value
        e = podles_heat_exact(pp, t, j_max=25, k_max=25)
        assert abs(d - e) < 1e-8 * max(1.0, abs(d))


def test_podles_heat_exact_ut_scaling():
    # the expression depends on (u t) only
    p1 = PodlesParams(0.5, 1.0)
    p2 = PodlesParams(0.5, 2.0)  # u doubles
    v1 = podles_heat_exact(p1, 2.0)
    v2 = podles_heat_exact(p2, 1.0)
    assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))


def test_podles_F1_constant_mode():
    assert abs(podles_F1_mode0() - 4.0 * EULER_GAMMA) < 1e-15


def test_epstein_residues():
    assert abs(epstein_residue((0, 0), 2) - 2.0 * math.pi) < 1e-13
    assert abs(epstein_residue((2,), 1) - 2.0) < 1e-13
    assert epstein_residue((1, 2), 2) == 0.0
    assert epstein_residue((3, 0, 2), 3) == 0.0
    with pytest.raises(ValueError):
        epstein_residue((2,), 2)


def test_podles_A_residue_structure():
    # residue scales as |w|^2 regardless of the normalization dispute
    p1 = PodlesParams(0.5, 1.0)
    p2 = PodlesParams(0.5, 2.0)
    r1 = podles_A_residue(p1)
    r2 = podles_A_residue(p2)
    assert abs(r2 / r1 - 4.0) < 1e-6
    assert math.isfinite(r1) and r1 > 0
    # the representation coefficients resum exactly to
    # 2(1+q^2)|w|^2/((1-q^2)^2 ln^2 q); the quoted reference closed form
    # 2q(1+q^2)|w|^2/ln^2 q is inconsistent with them (kept for contrast)
    own = 2.0 * (1.0 + 0.25) / (1.0 - 0.25) ** 2 / math.log(0.5) ** 2
    assert abs(r1 - own) / own < 1e-4
    assert podles_A_residue_reference(p1) == pytest.approx(
        2.0 * 0.5 * 1.25 / math.log(0.5) ** 2)


def test_zeta_1_regular_at_minus_two():
    # contrast: zeta_{1, D_q^S} is regular at s = -2
    pp = PodlesParams(0.5, 1.0)
    cz = catalog_zeta("podless", pp)
    b1 = ncint_numeric(cz.value, 1, -2.0, radius=0.2)
    b2 = ncint_numeric(cz.value, 2, -2.0, radius=0.2)
    assert abs(b1) < 1e-10 and abs(b2) < 1e-10


def test_squared_catalog_consistency():
    cz = catalog_zeta("s2")
    czsq = catalog_zeta("s2sq")
    s = 2.6
    assert abs(czsq.value(complex(s)) - cz.value(complex(2 * s))) < 1e-12
    # residue scaling: Res at z/2 is half the residue at z
    p2 = [p for p in cz.poles() if abs(p.z - 2.0) < 1e-9][0]
    p1 = [p for p in czsq.poles() if abs(p.z - 1.0) < 1e-9][0]
    assert abs(p1.coeff(-1) - p2.coeff(-1) / 2.0) < 1e-12


def test_nct_zeta_zero():
    # zeta_D(0) = 2^{floor(d/2)}(Z_d(0) + 1) = 0
    for tid in ("nct2", "nct4"):
        cz = catalog_zeta(tid)
        assert abs(cz.value(0.0)) < 1e-10
