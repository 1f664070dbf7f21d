import json
import math
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
    assert code in (0, 3)  # file spectra carry no certified tail model
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
])
def test_overflowing_parameters_are_argument_errors(capsys, args):
    # each overflows (or divides by zero) while building the cut-off or the spectrum
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == "" and err.startswith("error:")
