import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from sal.cli import main
from sal.finite import ko_reference_triple, triple_to_json


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_heat_matches_coth(capsys):
    code, out, err = run_cli(["heat", "--triple", "s1", "--t-grid", "0.1:1:10",
                              "--tol", "1e-15", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,value,terms,tail_bound,converged"
    assert len(lines) == 11
    for row in lines[1:]:
        cols = row.split(",")
        t, v = float(cols[0]), float(cols[1])
        assert abs(v - 1.0 / math.tanh(t / 2.0)) < 1e-12


def test_byte_identical_invocations(capsys):
    a = run_cli(["heat", "--triple", "s2", "--t-grid", "0.2:2:5"], capsys)
    b = run_cli(["heat", "--triple", "s2", "--t-grid", "0.2:2:5"], capsys)
    assert a == b


def test_expand_s3sq_two_terms(capsys):
    code, out, err = run_cli(["expand", "--triple", "s3sq", "--strips", "3",
                              "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    big = [r for r in rows if abs(float(r["re_a"])) > 1e-11]
    assert len(big) == 2
    got = {float(r["re_z"]): float(r["re_a"]) for r in big}
    assert abs(got[1.5] - math.sqrt(math.pi) / 2) < 1e-12
    assert abs(got[0.5] + math.sqrt(math.pi) / 4) < 1e-12


def test_expand_s1nt_is_the_laurent_series_of_the_heat_trace(capsys):
    # sum_n 2 e^{-t(n + 1/2)} = 1/sinh(t/2) = 2/t - t/12 + 7 t^3/2880 - ...
    code, out, err = run_cli(["expand", "--triple", "s1nt", "--strips", "3",
                              "--format", "json"], capsys)
    assert code == 0
    got = {float(r["re_z"]): float(r["re_a"]) for r in json.loads(out)}
    expected = {1.0: 2.0, -1.0: -1.0 / 12.0, -3.0: 7.0 / 2880.0}
    assert {1.0, -1.0} <= set(got) <= set(expected)
    assert all(abs(a - expected[z]) < 1e-12 for z, a in got.items())


def test_compare_s4_exp_agrees_with_the_expansion(capsys):
    code, out, err = run_cli(["compare", "--triple", "s4", "--cutoff", "exp:1",
                              "--lambda-grid", "5:20:2", "--strips", "12"], capsys)
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert len(rows) == 2 and [r[-1] for r in rows] == ["True"] * 2
    assert all(abs(float(r[3])) <= 1e-14 * abs(float(r[1])) for r in rows)


def test_zeta_subcommand(capsys):
    code, out, err = run_cli(["zeta", "--triple", "s1", "--s", "3,0",
                              "--tol", "1e-12"], capsys)
    assert code == 0
    val = float(out.strip().splitlines()[1].split(",")[2])
    from sal.special import riemann_zeta
    assert abs(val - (1 + 2 * riemann_zeta(3.0).real)) < 1e-9


def test_zeta_divergence_is_argument_error(capsys):
    code, out, err = run_cli(["zeta", "--triple", "s2", "--s", "1.5,0"], capsys)
    assert code == 2
    assert "diverges" in err


def test_action_divergence_is_argument_error(capsys):
    code, out, err = run_cli(["action", "--triple", "s3", "--cutoff", "nulltaylor",
                              "--lambda-grid", "10:10:1"], capsys)
    assert code == 2
    assert "diverges" in err


def test_action_sharp(capsys):
    code, out, err = run_cli(["action", "--triple", "s1", "--cutoff", "sharp",
                              "--lambda-grid", "5.5:5.5:1"], capsys)
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[1]) == 11.0


def test_compare_t3_gauss_log_slope(capsys):
    code, out, err = run_cli(["compare", "--triple", "t3", "--cutoff", "gauss",
                              "--lambda-grid", "4:16:3", "--tol", "1e-14",
                              "--lattice-cut", "120"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:4] == ["lambda", "direct", "expansion", "discrepancy"]
    slopes = [float(r.split(",")[4]) for r in lines[2:]]
    assert all(s >= 8.0 or s == math.inf for s in slopes)


@pytest.mark.parametrize("args", [
    ["compare", "--triple", "s3", "--cutoff", "sharp", "--lambda-grid", "4:16:3"],
    ["expand", "--triple", "s3", "--cutoff", "sharp"],
])
def test_sharp_cutoff_has_no_expansion(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "no Laplace measure" in err


def test_readme_calls_do_not_import_scipy():
    code = ("import contextlib, io, sys\n"
            "import sal.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "calls = ['heat --triple s1 --t-grid 0.1:1:10 --format csv',\n"
            "         'zeta --triple s2 --s 3.5,0',\n"
            "         'action --triple s3 --cutoff gauss --lambda-grid 5:20:4',\n"
            "         'expand --triple s3sq --strips 2 --format json',\n"
            "         'compare --triple t3 --cutoff gauss --lambda-grid 4:16:3 --lattice-cut 120',\n"
            "         'radius --triple podless:0.5,1',\n"
            "         'action --triple s3sq --cutoff gauss --lambda-grid 10:30:3']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [sal.cli.main(c.split()) for c in calls]\n"
            "print(codes)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:3] == ["[]", "[0, 0, 0, 0, 0, 0, 0]", "[]"]


README_CALLS = {
    "heat": "heat --triple s1 --t-grid 0.1:1:10 --format csv",
    "zeta": "zeta --triple s2 --s 3.5,0",
    "action": "action --triple s3 --cutoff gauss --lambda-grid 5:20:4",
    "expand": "expand --triple s3sq --strips 2 --format json",
    "compare": "compare --triple t3 --cutoff gauss --lambda-grid 4:16:3 --lattice-cut 120",
    "finite": "finite --file {path} --check all",
    "radius": "radius --triple podless:0.5,1",
}
# modules a README call must not load: expand and radius are scalar pole and
# radius arithmetic, finite is matrices, heat and zeta are direct sums
NOT_LOADED = {
    "expand": {"numpy"},
    "radius": {"numpy"},
    "finite": {"sal.series", "sal.cutoffs", "sal.oracles"},
    "heat": {"sal.cutoffs", "sal.finite", "sal.asymptotics"},
    "zeta": {"sal.cutoffs", "sal.finite", "sal.asymptotics"},
}


def _imported(args: list[str]) -> tuple[int, set[str]]:
    """Exit code and every module a fresh `python -m ...` process imports."""
    res = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True, timeout=120)
    names = {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
             if line.startswith("import time:")}
    return res.returncode, names


@pytest.mark.parametrize("name", list(README_CALLS))
def test_readme_calls_load_only_what_their_subcommand_uses(tmp_path, name):
    path = tmp_path / "triple.json"
    path.write_text(triple_to_json(ko_reference_triple(2, np.random.default_rng(0))))
    code, names = _imported(["-m", "sal.cli", *README_CALLS[name].format(path=path).split()])
    assert code == 0
    assert "sal.catalog" in names       # sal.cli itself runs as __main__
    assert not names & NOT_LOADED.get(name, set()), names & NOT_LOADED[name]


# stdout and exit code of the deterministic README calls, byte for byte
README_OUTPUTS = {
    'heat': (0, """\
t,value,terms,tail_bound,converged
1.0000000000000001e-01,2.0016663889550099e+01,5,2.2914814317698590e-17,True
2.0000000000000001e-01,1.0033311132253989e+01,5,6.4388693690813357e-15,True
3.0000000000000004e-01,6.7165918270201646e+00,5,1.3584831519834137e-13,True
4.0000000000000002e-01,5.0664895634394762e+00,5,9.9294729483574824e-13,True
5.0000000000000000e-01,4.0829881650736217e+00,5,4.0601270603682436e-12,True
5.9999999999999998e-01,3.4327384303217729e+00,7,3.4629065504967392e-12,True
7.0000000000000007e-01,2.9728677272689641e+00,8,3.0939989054085476e-12,True
7.9999999999999993e-01,2.6319324418322187e+00,9,1.8799532922639320e-12,True
9.0000000000000002e-01,2.3702355008100557e+00,9,1.9962975759018596e-12,True
9.9999999999999989e-01,2.1639534137387000e+00,9,1.8956066018353545e-12,True
"""),
    'zeta': (0, """\
re_s,im_s,re_value,im_value,terms,tail_bound,converged
3.5000000000000000e+00,0.0000000000000000e+00,5.3659490290037510e+00,0.0000000000000000e+00,9,2.3638109147473446e-12,True
"""),
    'action': (0, """\
lambda,value,terms,tail_bound,converged
5.0000000000000000e+00,1.0856279836796288e+02,21,3.1446304132738575e-11,True
1.0000000000000000e+01,8.8179579082549424e+02,29,7.2330311035148618e-10,True
1.5000000000000000e+01,2.9843691714621627e+03,5,2.1725273117887503e-09,True
2.0000000000000000e+01,7.0809531343675353e+03,5,2.9148158695344739e-10,True
"""),
    'expand': (0, """\
[
 {
  "strip_k": 0,
  "re_z": "1.5000000000000000e+00",
  "im_z": "0.0000000000000000e+00",
  "n": 0,
  "re_a": "8.8622692545275861e-01",
  "im_a": "0.0000000000000000e+00"
 },
 {
  "strip_k": 1,
  "re_z": "5.0000000000000000e-01",
  "im_z": "0.0000000000000000e+00",
  "n": 0,
  "re_a": "-4.4311346272637897e-01",
  "im_a": "0.0000000000000000e+00"
 }
]
"""),
    'compare': (0, """\
lambda,direct,expansion,discrepancy,log_slope,tail_bound,converged
4.0000000000000000e+00,3.2008725485562479e+00,2.8733939540026654e+00,3.2747859455358252e-01,,2.3615375915981039e-12,True
1.0000000000000000e+01,4.4896780535032008e+01,4.4896780531291640e+01,3.7403680153147434e-09,1.9958457079396908e+01,3.9920025609288196e-11,True
1.6000000000000000e+01,1.8389721305616663e+02,1.8389721305617059e+02,-3.9506176108261570e-12,1.4580881795573692e+01,1.5849998310987995e-10,True
"""),
    'radius': (0, """\
T,limsup,kind,window_lo,window_hi
inf,0.0000000000000000e+00,infinite,19,37
"""),
}


@pytest.mark.parametrize("name", list(README_OUTPUTS))
def test_readme_outputs_are_pinned(capsys, name):
    code, out, err = run_cli(README_CALLS[name].split(), capsys)
    assert (code, out) == README_OUTPUTS[name]


def test_importing_sal_loads_no_submodule():
    code, names = _imported(["-c", "import sal"])
    assert code == 0 and "sal" in names
    assert not {n for n in names if n.startswith("sal.")}


def test_every_exported_name_resolves_lazily():
    import importlib

    import sal
    for name in sal.__all__:
        scope = {}
        exec(f"from sal import {name}", scope)
        assert scope[name] is getattr(sal, name)
        assert getattr(importlib.import_module(f"sal.{sal._HOME[name]}"), name) is scope[name]
    assert set(sal.__all__) <= set(dir(sal))
    from sal import asymptotics, catalog, cutoffs, finite, oracles, series  # noqa: F401
    assert sal.summation is importlib.import_module("sal.summation")
    assert sal.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        sal.no_such_name


def test_resolve_triple_builds_closed_form_data_on_first_read():
    from sal import oracles, summation
    from sal.catalog import resolve_triple
    rt = resolve_triple("s2")
    assert not {"zeta", "radius_data", "action"} & set(vars(rt))
    assert rt.radius_data == oracles.s2_radius_data() and rt.action is None
    assert rt.zeta.value(3.5) == oracles.catalog_zeta("s2").value(3.5)
    sq = resolve_triple("s3sq")
    assert sq.action is None and sq.zeta.dimension_p == 1.5
    assert resolve_triple("s3").action is summation.s3_action
    t3 = resolve_triple("t3:100")
    assert t3.zeta is None and t3.action is summation.t3_action and t3.radius_data is None
    # the simplified Podles data are a few dozen logs, checked at resolve time
    pl = resolve_triple("podless:0.5,1")
    assert vars(pl)["radius_data"] == oracles.podles_radius_data(pl.params)


@pytest.mark.parametrize("args", [
    ["expand", "--triple", "s3sq", "--strips", "-1", "--format", "json"],
    ["compare", "--triple", "s3", "--cutoff", "exp:1", "--lambda-grid", "5:10:2",
     "--strips", "-3"],
])
def test_negative_strip_counts_are_argument_errors(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "argument --strips: need a strip count >= 0" in err


def test_gauss_past_the_float_range_names_lambda(capsys):
    # t = (w Lambda)^-2 underflows: no route certifies the sum, and the
    # refusal names the parameter at fault
    code, out, err = run_cli(["action", "--triple", "s1", "--cutoff", "gauss",
                              "--lambda-grid", "1e200:1e200:1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: lambda 1e+200 is out of range (")


def test_radius_subcommand(capsys):
    code, out, err = run_cli(["radius", "--triple", "s1"], capsys)
    assert code == 0
    T = float(out.strip().splitlines()[1].split(",")[0])
    assert 6.0 <= T <= 6.6
    code, out, err = run_cli(["radius", "--triple", "s2"], capsys)
    assert float(out.strip().splitlines()[1].split(",")[0]) == 0.0
    code, out, err = run_cli(["radius", "--triple", "podless:0.5,1"], capsys)
    assert float(out.strip().splitlines()[1].split(",")[0]) == math.inf
    code, out, err = run_cli(["radius", "--triple", "s4"], capsys)
    assert code == 2


def test_finite_subcommand(tmp_path, capsys):
    tr = ko_reference_triple(2)
    path = tmp_path / "triple.json"
    path.write_text(triple_to_json(tr))
    code, out, err = run_cli(["finite", "--file", str(path), "--check", "all"],
                             capsys)
    assert code == 0
    assert "selfadjoint" in out and "index" in out


def test_file_triple(tmp_path, capsys):
    rows = [{"p": 1.0, "kernel": 1, "label": "custom"}]
    rows += [{"value": float(n), "mult": 2} for n in range(1, 400)]
    path = tmp_path / "spec.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows))
    code, out, err = run_cli(["heat", "--triple", f"file:{path}",
                              "--t-grid", "0.5:0.5:1", "--tol", "1e-10"], capsys)
    assert code == 3  # no tail model: every entry is summed, and no bound certifies the tail
    val = float(out.strip().splitlines()[1].split(",")[1])
    assert abs(val - 1.0 / math.tanh(0.25)) < 1e-9


def test_bad_arguments(capsys):
    assert run_cli(["heat", "--triple", "mystery", "--t-grid", "1:2:2"], capsys)[0] == 2
    assert run_cli(["action", "--triple", "s1", "--cutoff", "junk:1",
                    "--lambda-grid", "1:2:2"], capsys)[0] == 2
    assert run_cli(["nonsense"], capsys)[0] == 2


def test_console_script_entrypoint():
    res = subprocess.run([sys.executable, "-m", "sal.cli", "heat", "--triple",
                          "s1", "--t-grid", "1:1:1"], capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0
    assert res.stdout.startswith("t,value")


def test_compare_reports_and_exits_on_unconverged_direct_sums(capsys):
    # e^{-mu/Lambda} needs mu far past the lattice cut 120: the direct sums
    # do not converge, and compare says so in its columns and exit code
    code, out, err = run_cli(["compare", "--triple", "t3", "--cutoff", "exp:1",
                              "--lambda-grid", "4:16:3", "--lattice-cut", "120"], capsys)
    assert code == 3
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,direct,expansion,discrepancy,log_slope,tail_bound,converged"
    assert [r.split(",")[-1] for r in lines[1:]] == ["False"] * 3
    assert float(lines[-1].split(",")[-2]) > 60.0


def test_compare_readme_call_converges(capsys):
    code, out, err = run_cli(["compare", "--triple", "t3", "--cutoff", "gauss",
                              "--lambda-grid", "4:16:3", "--lattice-cut", "120"], capsys)
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert [r[-1] for r in rows] == ["True"] * 3
    assert all(float(r[-2]) < 1e-9 for r in rows)


def test_product_with_a_schwartz_factor_is_an_argument_error(capsys):
    code, out, err = run_cli(["action", "--triple", "s3", "--cutoff", "product(gauss,exp:1)",
                              "--lambda-grid", "5:5:1"], capsys)
    assert code == 2 and out == "" and "has no Laplace measure" in err


def test_compare_expansion_route(capsys):
    code, out, err = run_cli(["compare", "--triple", "s1", "--cutoff", "exp:1",
                              "--lambda-grid", "6:10:2", "--strips", "6"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    rows = [r.split(",") for r in lines[1:]]
    for r in rows:
        assert abs(float(r[3])) / abs(float(r[1])) < 1e-6


@pytest.mark.parametrize("d, seed", [(2, 0), (6, 5)])
def test_finite_gauge_row_is_covariant(tmp_path, capsys, d, seed):
    path = tmp_path / "triple.json"
    path.write_text(triple_to_json(ko_reference_triple(d, np.random.default_rng(seed))))
    code, out, err = run_cli(["finite", "--file", str(path), "--check", "gauge"], capsys)
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    assert float(rows["gauge_covariance_residual"]) < 1e-10


def test_bad_spectrum_file_is_argument_error(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"p": 1.0, "kernel": 0, "label": "bad"}\n'
                    '{"value": 1.0, "mult": 2}\n{"value": NaN, "mult": 2}\n')
    code, out, err = run_cli(["heat", "--triple", f"file:{path}", "--t-grid", "1:1:1"], capsys)
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("triple", ["s3sq", "t3sq"])
def test_compare_squared_triple_has_no_closed_form(capsys, triple):
    # the S^3 and T^3 closed-form actions are of |D|; D^2 has no route
    code, out, err = run_cli(["compare", "--triple", triple, "--cutoff", "gauss",
                              "--lambda-grid", "4:16:3"], capsys)
    assert code == 2 and out == "" and "no expansion route" in err


def test_t3_ids_other_than_spin_codes_are_refused(capsys):
    code, out, err = run_cli(["heat", "--triple", "t3xyz", "--t-grid", "0.5:1:2"], capsys)
    assert code == 2 and out == "" and "unknown triple id 't3xyz'" in err
    code, out, err = run_cli(["heat", "--triple", "t3:102", "--t-grid", "0.5:1:2"], capsys)
    assert code == 2 and out == "" and "spin structure" in err


@pytest.mark.parametrize("args", [
    ["action", "--triple", "s3", "--cutoff", "exp:nan", "--lambda-grid", "5:20:4"],
    ["zeta", "--triple", "s1", "--s", "1e400,0"],
    ["zeta", "--triple", "s1", "--s", "nan,0"],
    ["heat", "--triple", "s1", "--t-grid", "nan:1:2"],
    ["action", "--triple", "s3", "--cutoff", "gauss", "--lambda-grid", "inf:inf:1"],
])
def test_non_finite_inputs_are_argument_errors(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["action", "--triple", "s3", "--cutoff", "exp:1e-300", "--lambda-grid", "5:20:4"],
    ["action", "--triple", "s3", "--cutoff", "powerlaw:1e-300,1,5", "--lambda-grid", "5:20:4"],
    ["action", "--triple", "s3", "--cutoff", "window:1e-300,1", "--lambda-grid", "5:20:4"],
    ["compare", "--triple", "s3", "--cutoff", "gauss:1e-300", "--lambda-grid", "4:16:3"],
    ["heat", "--triple", "t3:100", "--t-grid", "0.5:1:2", "--lattice-cut", "1e300"],
    ["heat", "--triple", "podless:1e-100,1", "--t-grid", "0.1:0.1:1"],
    ["compare", "--triple", "t3", "--cutoff", "gauss", "--lambda-grid", "1e200:1e200:1"],
    ["compare", "--triple", "s3", "--cutoff", "gauss", "--lambda-grid", "1e200:1e200:1"],
    ["action", "--triple", "s3", "--cutoff", "gauss:1e300", "--lambda-grid", "5:20:4"],
    ["action", "--triple", "t3", "--cutoff", "gauss", "--lambda-grid", "1e110:1e110:1"],
    ["action", "--triple", "s3sq", "--cutoff", "gauss", "--lambda-grid", "1e160:1e160:1"],
])
def test_overflowing_parameters_are_argument_errors(capsys, args):
    # each row has one parameter past 1e+-100, and something built from it
    # overflows (or divides by zero) before any value is reported: the
    # cut-off's data (moments, derivatives at 0 or decay constant), the
    # spectrum, the triple's radius data (built at resolve time), or a
    # Lambda-dependent tail bound or expansion.  The message names that
    # parameter with its value.
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == "" and err.startswith("error:")
    option, value = next((o, v) for o, v in zip(args[1::2], args[2::2])
                         if re.search(r"e[+-]?[1-9]\d\d", v))
    name = option[2:].replace("-", " ")
    if option == "--lattice-cut":
        value = f"{float(value):g}"
    if option == "--lambda-grid":
        name, value = "lambda", repr(float(value.split(":")[0]))
    assert f"error: {name} {value} is out of range" in err


@pytest.mark.parametrize("triple", ["podles:1e-200,1", "podlessq:1e-200,1"])
def test_podles_values_past_the_float_range_converge(capsys, triple):
    # mu_2 (mu_1^2 for the square) overflows: the spectrum ends there, and
    # its tail model certifies that nothing is left
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["heat", "--triple", triple, "--t-grid", "0.1:0.1:1"], capsys)
    assert code == 0 and err == ""
    assert out.strip().splitlines()[1].endswith(",True")


def test_s1_heat_at_the_bottom_of_the_float_range(capsys):
    # Tr e^{-t|D|} = coth(t/2) = 2/t + O(t): the tail estimate carries it
    code, out, err = run_cli(["heat", "--triple", "s1", "--t-grid", "1e-300:1e-300:1"], capsys)
    assert code == 0
    t, value, terms, tail_bound, converged = out.strip().splitlines()[1].split(",")
    assert converged == "True" and int(terms) <= 1024
    assert abs(float(value) - 2.0 / float(t)) <= float(tail_bound) + 1e-13 * 2.0 / float(t)


def test_s1_heat_whose_value_overflows_is_refused(capsys):
    # 2/t overflows at t = 1e-310: no value can be reported, let alone certified
    code, out, err = run_cli(["heat", "--triple", "s1", "--t-grid", "1e-310:1e-310:1"], capsys)
    assert code == 2 and out == "" and err.startswith("error: t 1e-310 is out of range")


@pytest.mark.parametrize("args, terms", [
    (["action", "--triple", "s2sq", "--cutoff", "nulltaylor", "--lambda-grid", "2:2:1"], 40),
    (["action", "--triple", "s3", "--cutoff", "window:1e-30,1", "--lambda-grid", "5:5:1"], 10),
])
def test_actions_that_ran_to_the_term_cap_converge(capsys, args, terms):
    # both summed 2,000,002 terms on their counting bounds and exited 3; on the
    # Euler--Maclaurin route they stop after a few terms
    code, out, err = run_cli(args, capsys)
    assert code == 0
    lam, value, used, tail_bound, converged = out.strip().splitlines()[1].split(",")
    assert converged == "True" and int(used) <= terms
