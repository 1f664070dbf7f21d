"""Engine reports pinned to those of the term-by-term summation loop.

The table was recorded with the per-term engines the block kernel replaced
(one scalar term, tail bound and stop test per singular value).  The kernel
must stop at the same index, and give heat traces and spectral actions bit
for bit; zeta values may differ in the last place, since numpy's power is not
libm's (and Python's complex power multiplies out integer exponents).  Every
tail model is covered: polynomial (spheres, lattices, squared), exponential
(Podles, squared Podles), log-square, and none (a JSON-lines spectrum).
"""

import math

import pytest

from sal.cutoffs import parse_cutoff
from sal.series import counting, dixmier_estimate, heat_trace, spectral_action_direct, zeta_direct
from sal.spectra import (PodlesParams, load_spectrum_jsonl, nctorus_spectrum, podles_spectrum,
                         save_spectrum_jsonl, sphere_spectrum, torus_spectrum)
from test_series import log_square_spectrum


@pytest.fixture(scope="module")
def spectra(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "s2.jsonl"
    save_spectrum_jsonl(str(path), sphere_spectrum(2), 300)
    pp = PodlesParams(0.5, 1.0)
    return {
        "s1": sphere_spectrum(1, "trivial"), "s1nt": sphere_spectrum(1, "nontrivial"),
        "s2": sphere_spectrum(2), "s3": sphere_spectrum(3),
        "s3sq": sphere_spectrum(3).squared(), "s2sq": sphere_spectrum(2).squared(),
        "nct2": nctorus_spectrum(2, radius_cut=80.0),
        "nct2sq": nctorus_spectrum(2, radius_cut=40.0).squared(),
        "t3": torus_spectrum(3, (1, 0, 0), radius_cut=120 / (2 * math.pi)),
        "podles": podles_spectrum(pp), "podless": podles_spectrum(pp, simplified=True),
        "podlessq": podles_spectrum(pp, simplified=True).squared(),
        "logsq": log_square_spectrum(), "jsonl": load_spectrum_jsonl(str(path)),
    }


HEAT = [   # spectrum, t, options, terms_used, value, tail_bound, converged, certified
    ('s1', 0.1, {}, 318, 20.016663889549804, 1.9737227629343748e-11, True, True),
    ('s1', 0.5, {'tol': 1e-15}, 78, 4.082988165073597, 3.649238838672989e-15, True, True),
    ('s1', 2.0, {}, 16, 1.3130352854993275, 8.611632573384039e-13, True, True),
    ('s1', 0.001, {}, 31783, 2000.0001666666324, 2.0002626472459645e-09, True, True),
    ('s1', 80.0, {}, 5, 1.0, 4.596407032113614e-173, True, True),
    ('s1', 0.3, {'include_kernel': False}, 106, 5.716591827020077, 6.620324001065168e-12, True, True),
    ('s1nt', 0.3, {}, 109, 6.6417321363326245, 6.400571011067049e-12, True, True),
    ('s3', 0.13, {}, 323, 1816.822988731444, 1.6162696986572724e-09, True, True),
    ('s3', 0.0015, {}, 27932, 1185184851.8519042, 0.0011835650541685023, True, True),
    ('s2', 0.7, {}, 53, 7.837942523837097, 8.40819163122358e-12, True, True),
    ('s3sq', 0.05, {'tol': 1e-14}, 29, 77.2848823033172, 2.8524263458337485e-13, True, True),
    ('nct2', 0.05, {}, 1811, 4565.321405147011, 1253.074297893041, False, True),
    ('nct2', 0.5, {}, 1400, 50.493090371746, 5.090126592372944e-11, True, True),
    ('nct2sq', 0.05, {'tol': 1e-13}, 235, 125.66370614359157, 1.1685378206210207e-11, True, True),
    ('t3', 0.3, {}, 365, 7.534691292578097, 4.138177428974084e-11, False, True),
    ('podles', 0.3, {}, 7, 9.920200763661594, 1.860423417589316e-21, True, True),
    ('podless', 0.05, {}, 9, 39.44566969722657, 5.999867980463628e-14, True, True),
    ('podless', 1.0, {'tol': 1e-14}, 5, 1.6685645186558675, 7.084567580812618e-18, True, True),
    ('podlessq', 0.01, {}, 6, 25.74916837394277, 5.356593948394061e-23, True, True),
    ('logsq', 1.5, {'tol': 1e-09}, 44, 0.7410341798256203, 1.5933750865905606e-09, True, True),
    ('jsonl', 0.5, {}, 62, 15.670792356117355, 1.379784862504854e-11, True, False),
    ('jsonl', 0.01, {}, 300, 32063.5747791169, math.inf, False, False),
]
ZETA = [   # spectrum, s, options, terms_used, value, tail_bound, converged, certified
    ('s1', 3.35, {}, 107366, complex(3.2902478163489315, 0.0), 4.290165714224574e-12, True, True),
    ('s1', (3+2j), {}, 870295, complex(2.9460839208388094, -0.2953911860007813), 3.960853476449042e-12, True, True),
    ('s1', 4.5, {'include_kernel': False}, 2542, complex(2.1094150215222194, 0.0), 3.106210384557875e-12, True, True),
    ('s3', 6.0, {}, 39141, complex(0.4233905588239867, 0.0), 1.4233318627360088e-12, True, True),
    ('s3', 6.3, {}, 14953, complex(0.36322404897239097, 0.0), 1.3630922971393715e-12, True, True),
    ('s2', 3.5, {}, 2000002, complex(5.36594902806086, 0.0), 1.4849249829507148e-08, False, True),
    ('s2sq', 3.0, {'tol': 1e-14}, 4786, complex(4.147711020573478, 0.0), 5.146040000536907e-14, True, True),
    ('nct2', 3.0, {}, 1811, complex(19.91006495089893, 0.0), 0.2500549174393531, False, True),
    ('podles', 2.0, {}, 22, complex(5.919697155194006, 0.0), 3.982537376802292e-12, True, True),
    ('podless', 1.5, {}, 30, complex(6.217081527976627, 0.0), 3.6067963708252815e-12, True, True),
    ('podless', (2+5j), {}, 23, complex(0.37781125306916585, -1.4148270963282583), 1.0382283268400525e-12, True, True),
    ('podlessq', 2.0, {}, 11, complex(1.439999999999074, 0.0), 9.264784061886574e-13, True, True),
    ('jsonl', 4.0, {}, 300, complex(4.808205464366772, 0.0), math.inf, False, False),
]
ACTION = [   # spectrum, cut-off, Lambda, terms_used, value, tail_bound, converged, certified
    ('s3', 'gauss', 5.0, 292, 108.56279836796286, 1.067312261866226e-10, True, True),
    ('s3', 'gauss', 10.0, 582, 881.7957908254942, 8.740151849741711e-10, True, True),
    ('s3', 'gauss', 15.0, 872, 2984.3691714621623, 2.9728142121556204e-09, True, True),
    ('s3', 'gauss', 20.0, 1162, 7080.953134367536, 7.0740915991669965e-09, True, True),
    ('s3', 'exp:1', 150.0, 13573, 13499925.00023611, 1.3496694502921199e-05, True, True),
    ('s3', 'window:1,2', 120.0, 11710, 2591958.411611871, 2.589562068776701e-06, True, True),
    ('s3', 'product(exp:1,exp:1)', 500.0, 10723, 62499875.00014165, 6.235929168744864e-05, True, True),
    ('s3', 'powerlaw:1,1,5', 10.0, 2000002, 165.4339905768506, 2.6666719999855e-06, False, True),
    ('s3', 'sharp', 40.5, 41, 45920.0, 0.0, True, True),
    ('s1', 'sharp', 5.5, 6, 11.0, 0.0, True, True),
    ('s1', 'powerlaw:1,1,3', 3.0, 2000002, 3.1610727706113417, 2.0249969625030375e-11, False, True),
    ('podless', 'exp:1', 10.0, 8, 24.88536657202477, 2.201196113370824e-11, True, True),
    ('podless', 'gauss', 100.0, 11, 94.15110676219163, 3.262831439922862e-14, True, True),
    ('podless', 'nulltaylor', 10.0, 39, 31.647241987522133, 1.4275948164816007e-11, True, True),
    ('nct2', 'gauss', 20.0, 1811, 2513.2738341494364, 0.3565393271748477, False, True),
    ('jsonl', 'exp:1', 3.0, 300, 35.66851038502603, math.inf, False, False),
]


def _check(rep, terms, tail_bound, converged, certified):
    assert (rep.terms_used, rep.converged, rep.certified) == (terms, converged, certified)
    assert rep.tail_bound == tail_bound or math.isnan(tail_bound) and math.isnan(rep.tail_bound)


@pytest.mark.parametrize("key, t, options, terms, value, tail_bound, converged, certified", HEAT)
def test_heat_trace_pinned(spectra, key, t, options, terms, value, tail_bound, converged,
                           certified):
    rep = heat_trace(spectra[key], t, **options)
    _check(rep, terms, tail_bound, converged, certified)
    assert repr(rep.value) == repr(value)


@pytest.mark.parametrize("key, s, options, terms, value, tail_bound, converged, certified", ZETA)
def test_zeta_direct_pinned(spectra, key, s, options, terms, value, tail_bound, converged,
                            certified):
    rep = zeta_direct(spectra[key], s, **options)
    _check(rep, terms, tail_bound, converged, certified)
    assert abs(rep.value - value) <= 1e-15 * abs(value)


@pytest.mark.parametrize("key, cutoff, lam, terms, value, tail_bound, converged, certified",
                         ACTION)
def test_spectral_action_pinned(spectra, key, cutoff, lam, terms, value, tail_bound, converged,
                                certified):
    rep = spectral_action_direct(spectra[key], parse_cutoff(cutoff), lam)
    _check(rep, terms, tail_bound, converged, certified)
    assert repr(rep.value) == repr(value)


def test_counting_and_dixmier_pinned(spectra):
    assert [counting(spectra[k], lam) for k, lam in (("s1", 5.5), ("s3", 20.0), ("nct2", 10.0))] \
        == [11, 5320, 634]
    assert math.isclose(dixmier_estimate(spectra["s2"], 2.0, 10_000), 2.0001929120334703,
                        rel_tol=1e-12)
