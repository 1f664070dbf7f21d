"""Engine reports pinned bit for bit.

The table was recorded with the per-term engines the block kernel replaced
(one scalar term, tail bound and stop test per singular value).  The kernel
must stop at the same index, and give heat traces and spectral actions bit
for bit; zeta values may differ in the last place, since numpy's power is not
libm's (and Python's complex power multiplies out integer exponents).  Every
tail model is covered: polynomial (spheres, lattices, squared), exponential
(Podles, squared Podles), log-square, and none (a JSON-lines spectrum).
A spectrum without a tail model has no certificate: every engine sums all of
its entries and reports an infinite bound, neither converged nor (past the
four entries before the first stop test) certified.

The sphere keys `s1`, `s1nt`, `s2`, `s3`, `s2sq` and `s3sq` are the catalog
spheres, which declare exact data.  Off the Euler--Maclaurin route (sharp,
products with a `powerlaw` factor, and `counting`) they keep their
counting-bound reports bit for bit.  On that route (heat on |D| and D^2, zeta
on |D| and D^2, and the actions of every Laplace cut-off: `exp`, `window`,
`nulltaylor` and their products, `powerlaw`, and `gauss`) a catalog sphere's
report is its `.em` row: the value is the head sum plus the tail estimate,
`terms` counts the head, and `test_em_tails` checks every `.em` row against
mpmath within its bound.  A sphere row with an `.em` twin was recorded
before its call took that route: it runs on the sphere's `counted` copy and
pins the counting-bound kernel on sums of up to 2,000,002 terms.

Every cut-off has one tail certificate.  Where it is an envelope (f <= C e^{-ax}:
`exp`, `window`, their products; f <= e^{-(x/w)^2}: `gauss`), the counting
bound is the envelope's: on polynomial tail models a heat-trace or
incomplete-gamma bound, on exponential ones (Podles) a geometric bound.
Those rows (`window:1,2`, and `gauss`, `exp:1` and `product(exp:1,exp:1)` on
the counted s3, `gauss` on nct2, and `exp:1` and `gauss` on podless) were each
checked against a 40-digit mpmath value within their bound.
"""

import math

import pytest

from sal.cutoffs import parse_cutoff
from sal.series import counting, heat_trace, spectral_action_direct, zeta_direct
from sal.spectra import (PodlesParams, load_spectrum_jsonl, nctorus_spectrum, podles_spectrum,
                         save_spectrum_jsonl, sphere_spectrum, torus_spectrum)
from test_series import counted, log_square_spectrum


@pytest.fixture(scope="module")
def spectra(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "s2.jsonl"
    save_spectrum_jsonl(str(path), sphere_spectrum(2), 300)
    pp = PodlesParams(0.5, 1.0)
    spheres = {"s1": sphere_spectrum(1, "trivial"), "s1nt": sphere_spectrum(1, "nontrivial"),
               "s2": sphere_spectrum(2), "s3": sphere_spectrum(3),
               "s2sq": sphere_spectrum(2).squared(), "s3sq": sphere_spectrum(3).squared()}
    return {
        **spheres, **{k + ".em": sp for k, sp in spheres.items()},
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
    ('podles', 0.3, {}, 7, 9.920200763661594, 1.8647888987742307e-21, True, True),
    ('podless', 0.05, {}, 9, 39.44566969722657, 5.999867980463628e-14, True, True),
    ('podless', 1.0, {'tol': 1e-14}, 5, 1.6685645186558675, 7.084567580812618e-18, True, True),
    ('podlessq', 0.01, {}, 6, 25.74916837394277, 6.6496526166984385e-31, True, True),
    ('logsq', 1.5, {'tol': 1e-09}, 44, 0.7410341798256203, 1.5933750865905606e-09, True, True),
    ('jsonl', 0.5, {}, 300, 15.670792356131056, math.inf, False, False),
    ('jsonl', 0.01, {}, 300, 32063.5747791169, math.inf, False, False),
    ('s1.em', 0.1, {}, 5, 20.0166638895501, 2.291481431769859e-17, True, True),
    ('s1.em', 0.5, {'tol': 1e-15}, 19, 4.082988165073596, 3.7023566442096745e-15, True, True),
    ('s1.em', 2.0, {}, 8, 1.3130352854993612, 3.2558344812597147e-13, True, True),
    ('s1.em', 0.001, {}, 5, 2000.0001666666635, 4.1503742954258833e-35, True, True),
    ('s1.em', 80.0, {}, 5, 1.0, 1.9370980366605282e-199, True, True),
    ('s1.em', 0.3, {'include_kernel': False}, 5, 5.716591827020166, 1.358483151983412e-13, True, True),
    ('s1nt.em', 0.3, {}, 5, 6.641732136332666, 1.5783322441437785e-13, True, True),
    ('s3.em', 0.13, {}, 5, 1816.8229887314449, 1.477779623204924e-12, True, True),
    ('s3.em', 0.0015, {}, 5, 1185184851.8519058, 7.927692978323023e-26, True, True),
    ('s2.em', 0.7, {}, 13, 7.8379425238371105, 5.552451320288565e-12, True, True),
    ('s3sq.em', 0.05, {'tol': 1e-14}, 22, 77.2848823033172, 1.6748760299538912e-13, True, True),
    ('s3sq.em', 0.001, {}, 5, 28010.943603948646, 1.184201828185038e-11, True, True),
    ('s2sq.em', 0.01, {}, 25, 199.66633253689204, 1.634047152424432e-10, True, True),
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
    ('s1.em', 3.35, {}, 8, complex(3.2902478163503224, 0.0), 2.286552872218171e-12, True, True),
    ('s1.em', (3+2j), {}, 9, complex(2.946083920837893, -0.29539118600096276), 1.467005837519133e-12, True, True),
    ('s1.em', 4.5, {'include_kernel': False}, 8, complex(2.1094150215229543, 0.0), 8.052090749775823e-13, True, True),
    ('s3.em', 6.0, {}, 8, complex(0.4233905588240279, 0.0), 6.657079750037955e-13, True, True),
    ('s3.em', 6.3, {}, 8, complex(0.3632240489724243, 0.0), 4.905508619752677e-13, True, True),
    ('s2.em', 3.5, {}, 9, complex(5.365949029003751, 0.0), 2.3638109147473446e-12, True, True),
    ('s2sq.em', 3.0, {'tol': 1e-14}, 11, complex(4.147711020573481, 0.0), 1.6875422594907364e-14, True, True),
]
ACTION = [   # spectrum, cut-off, Lambda, terms_used, value, tail_bound, converged, certified
    ('s3', 'gauss', 5.0, 31, 108.56279836796286, 1.0536720974249456e-11, True, True),
    ('s3', 'gauss', 10.0, 61, 881.7957908254941, 4.464490165067887e-10, True, True),
    ('s3', 'gauss', 15.0, 91, 2984.3691714621614, 2.5922275473942552e-09, True, True),
    ('s3', 'gauss', 20.0, 122, 7080.953134367534, 4.471332590699366e-09, True, True),
    ('s3', 'exp:1', 150.0, 6285, 13499925.000236103, 1.3439201523873045e-05, True, True),
    ('s3', 'window:1,2', 120.0, 5155, 2591958.411611871, 2.5722450281625524e-06, True, True),
    ('s3', 'product(exp:1,exp:1)', 500.0, 10474, 62499875.00014163, 6.249158159394787e-05, True, True),
    ('s3', 'powerlaw:1,1,5', 10.0, 2000002, 165.4339905768506, 2.6666719999855e-06, False, True),
    ('s3', 'sharp', 40.5, 41, 45920.0, 0.0, True, True),
    ('s1', 'sharp', 5.5, 6, 11.0, 0.0, True, True),
    ('s1', 'powerlaw:1,1,3', 3.0, 2000002, 3.1610727706113417, 2.0249969625030375e-11, False, True),
    ('podless', 'exp:1', 10.0, 8, 24.88536657202477, 5.399881185321907e-14, True, True),
    ('podless', 'gauss', 100.0, 9, 94.15110676219163, 2.303934798619744e-19, True, True),
    ('podless', 'nulltaylor', 10.0, 40, 31.647241987522133, 2.646724132775004e-11, True, True),
    ('nct2', 'gauss', 20.0, 1811, 2513.2738341494364, 0.005102715253318484, False, True),
    ('jsonl', 'exp:1', 3.0, 300, 35.66851038502603, math.inf, False, False),
    ('s3.em', 'exp:1', 150.0, 5, 13499925.000236114, 2.643267431732154e-21, True, True),
    ('s3.em', 'product(exp:1,exp:1)', 500.0, 5, 62499875.00014169, 7.503334706150407e-23, True, True),
    ('s3.em', 'powerlaw:1,1,5', 10.0, 9, 165.4339906018502, 1.2084148133169484e-10, True, True),
    ('s1.em', 'powerlaw:1,1,3', 3.0, 8, 3.1610727706181585, 2.523524732653839e-12, True, True),
    ('s3.em', 'gauss', 5.0, 21, 108.56279836796288, 3.1446304132738575e-11, True, True),
    ('s3.em', 'gauss', 10.0, 29, 881.7957908254942, 7.233031103514862e-10, True, True),
    ('s3.em', 'gauss', 15.0, 5, 2984.3691714621627, 2.1725273117887503e-09, True, True),
    ('s3.em', 'gauss', 20.0, 5, 7080.953134367535, 2.914815869534474e-10, True, True),
    ('s3.em', 'window:1,2', 120.0, 5, 2591958.411611871, 6.814768926108376e-08, True, True),
    ('s1.em', 'window:1,2', 120.0, 10, 166.35740666169207, 1.5141970266938914e-10, True, True),
    ('s1.em', 'nulltaylor', 10.0, 7, 58.916022758233886, 2.1780958575641756e-11, True, True),
]


def _on(spectra, table, key, a, b):
    """The spectrum the row (key, a, b, ...) of `table` runs on: the `counted`
    copy if an `.em` row pins the same call on the catalog sphere."""
    if any(row[:3] == (key + ".em", a, b) for row in table):
        return counted(spectra[key])
    return spectra[key]


def _check(rep, terms, tail_bound, converged, certified):
    assert (rep.terms_used, rep.converged, rep.certified) == (terms, converged, certified)
    assert rep.tail_bound == tail_bound or math.isnan(tail_bound) and math.isnan(rep.tail_bound)


@pytest.mark.parametrize("key, t, options, terms, value, tail_bound, converged, certified", HEAT)
def test_heat_trace_pinned(spectra, key, t, options, terms, value, tail_bound, converged,
                           certified):
    rep = heat_trace(_on(spectra, HEAT, key, t, options), t, **options)
    _check(rep, terms, tail_bound, converged, certified)
    assert repr(rep.value) == repr(value)


@pytest.mark.parametrize("key, s, options, terms, value, tail_bound, converged, certified", ZETA)
def test_zeta_direct_pinned(spectra, key, s, options, terms, value, tail_bound, converged,
                            certified):
    rep = zeta_direct(_on(spectra, ZETA, key, s, options), s, **options)
    _check(rep, terms, tail_bound, converged, certified)
    assert abs(rep.value - value) <= 1e-15 * abs(value)


@pytest.mark.parametrize("key, cutoff, lam, terms, value, tail_bound, converged, certified",
                         ACTION)
def test_spectral_action_pinned(spectra, key, cutoff, lam, terms, value, tail_bound, converged,
                                certified):
    rep = spectral_action_direct(_on(spectra, ACTION, key, cutoff, lam), parse_cutoff(cutoff),
                                 lam)
    _check(rep, terms, tail_bound, converged, certified)
    assert repr(rep.value) == repr(value)


def test_counting_pinned(spectra):
    assert [counting(spectra[k], lam) for k, lam in (("s1", 5.5), ("s3", 20.0), ("nct2", 10.0))] \
        == [11, 5320, 634]
