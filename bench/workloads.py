"""The benchmark's three workloads: seeded inputs, one pass of operations, checks.

Each workload is a fixed list of operations drawn from the seed.  The seed
picks each parameter inside a narrow band around a fixed centre, so every
seed does nearly the same amount of work while `sal` never sees the same
inputs twice.  Operation kinds are interleaved within a pass.

An operation is one CLI invocation or one API call.  Its check compares the
output with an independent reference from `refs` (mpmath or numpy), or, where
no closed form exists, with a property the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

TOL = 1e-12   # the engines' default tolerance, which every call here uses
# One short_calls pass: 100 rounds of 21 interleaved calls, about 2.7 s, so
# a 30 s run holds ten or more passes and one slow moment is not a pass.
ROUNDS = 100


def _lazy(name: str):
    """Module `name`, executed on its first attribute access (importlib's LazyLoader)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The references (and mpmath with them) load at the first check, after the
# timed passes, so set-up time and peak memory are those of `sal` and the inputs.
refs = _lazy("refs")


@dataclass
class Op:
    name: str                       # "<layer>.<function>": the span name when traced
    label: str                      # the inputs, for messages
    call: Callable[[], Any]
    check: Callable[[Any], str | None]           # None when the output is right
    done: Callable[[Any], bool] = lambda out: True   # converged, or exit code 0
    key: Callable[[Any], Any] = repr             # compared across passes
    needed: Callable[[Any], list[tuple[int, int]]] | None = None  # (summed, fewest)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    in_process: list[Op] | None = None   # cli_readme: the same calls through sal.cli.main
    warmup: Callable[[], Any] | None = None


def _rel(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Certified sums (API)
# ---------------------------------------------------------------------------

def _report_key(rep):
    return (repr(rep.value), rep.terms_used, repr(rep.tail_bound), rep.converged)


def _sum_op(name: str, label: str, call, ref: Callable[[], float],
            spec: tuple | None = None) -> Op:
    """An engine call whose value must lie within its tail bound of `ref`.

    `spec` = (quantity, family, param, cutoff, q, w) rebuilds its terms for
    the fewest-terms count.
    """
    memo: dict[str, float] = {}

    def reference() -> float:
        if "ref" not in memo:
            memo["ref"] = ref()
        return memo["ref"]

    def check(rep) -> str | None:
        value = complex(rep.value)
        r = reference()
        if value.imag != 0.0:
            return f"{label}: imaginary part {value.imag!r} on a real series"
        if not refs.within(value.real, r, rep.tail_bound):
            return f"{label}: {value.real!r} not within {rep.tail_bound:.3g} of {r!r}"
        return None

    def needed(rep) -> list[tuple[int, int]]:
        if spec is None or not rep.converged:
            return []
        quantity, family, param, cutoff, q, w = spec
        terms = refs.term_array(quantity, family, param, rep.terms_used, cutoff, q, w)
        base = float(refs.KERNEL[family])
        return [(rep.terms_used, refs.fewest_terms(terms, base, reference(), TOL))]

    return Op(name, label, call, check, done=lambda rep: rep.converged,
              key=_report_key, needed=needed)


def long_sums(seed: int, root: Path) -> Workload:
    """Engine calls that converge at tol 1e-12 after 10^4 - 10^5 terms."""
    from sal import catalog, cutoffs, series

    rng = random.Random(seed)
    s1 = catalog.resolve_triple("s1").spectrum
    s3 = catalog.resolve_triple("s3").spectrum
    spectra = {"s1": s1, "s3": s3}
    # The three S^1 zeta calls at s = 3.35 are the costliest (about 10^5
    # terms each), so the tail percentile always falls among them; five
    # kinds of about equal cost sit in the middle, so the median is theirs.
    plan = [("zeta", "s1", 3.35), ("heat", "s1", 1.0e-3), ("action", "exp:1", 150.0),
            ("zeta", "s3", 6.0), ("heat", "s3", 1.5e-3), ("action", "window:1,2", 120.0),
            ("zeta", "s1", 3.35), ("heat", "s1", 2.8e-3), ("action", "gauss", 250.0),
            ("zeta", "s3", 6.3), ("heat", "s3", 3.2e-3),
            ("action", "product(exp:1,exp:1)", 500.0),
            ("zeta", "s1", 3.35), ("heat", "s3", 2.5e-3), ("zeta", "s1", 3.55)]
    cuts = {c: cutoffs.parse_cutoff(c) for kind, c, _ in plan if kind == "action"}
    ops = []
    for kind, what, centre in plan:
        if kind == "heat":
            t = centre * rng.uniform(0.97, 1.03)
            ops.append(_sum_op(
                "series.heat_trace", f"heat_trace {what} t={t!r}",
                lambda sp=spectra[what], t=t: series.heat_trace(sp, t),
                lambda what=what, t=t: getattr(refs, f"{what}_heat")(t),
                ("heat", what, t, "", 0, 0)))
        elif kind == "zeta":
            s = centre + rng.uniform(-0.005, 0.005)
            ops.append(_sum_op(
                "series.zeta_direct", f"zeta_direct {what} s={s!r}",
                lambda sp=spectra[what], s=s: series.zeta_direct(sp, s),
                lambda what=what, s=s: getattr(refs, f"{what}_zeta")(s),
                ("zeta", what, s, "", 0, 0)))
        else:
            lam = centre * rng.uniform(0.97, 1.03)
            ops.append(_sum_op(
                "series.spectral_action_direct", f"spectral_action_direct s3 {what} L={lam!r}",
                lambda f=cuts[what], lam=lam: series.spectral_action_direct(s3, f, lam),
                lambda c=what, lam=lam: refs.s3_action(c, lam),
                ("action", "s3", lam, what, 0, 0)))
    return Workload("long_sums", ops)


# ---------------------------------------------------------------------------
# Short calls (API)
# ---------------------------------------------------------------------------

def _coeff_check(label: str, terms, expected: dict, tol: float = 1e-9) -> str | None:
    """Every (z, n) in `expected` is present with that coefficient."""
    have = {(complex(t.z), t.n): complex(t.coeff) for t in terms}
    for (z, n), want in expected.items():
        got = have.get((complex(z), n))
        if got is None and want == 0.0:
            continue            # zero coefficients are dropped
        if got is None:
            return f"{label}: no term at z={z}, n={n}"
        if abs(got - want) > tol * max(abs(want), 1.0):
            return f"{label}: coefficient at z={z}, n={n} is {got!r}, want {want!r}"
    return None


def _numpy_index(triple) -> int:
    """Tr(gamma P0) from numpy's eigendecomposition."""
    vals, vecs = np.linalg.eigh(triple.D)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(vals))))
    cols = vecs[:, np.abs(vals) < tol]
    return int(round(float(np.trace(triple.gamma @ cols @ cols.conj().T).real)))


def short_calls(seed: int, root: Path) -> Workload:
    """Thousands of cheap calls whose fixed per-call costs dominate."""
    from sal import (asymptotics, catalog, cutoffs, finite, oracles, series,
                     special, summation)

    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    podles = []
    for _ in range(3):
        q, w = round(rng.uniform(0.4, 0.6), 6), round(rng.uniform(0.5, 2.0), 6)
        podles.append((q, w, catalog.resolve_triple(f"podless:{q},{w}")))
    s1 = catalog.resolve_triple("s1").spectrum
    s3 = catalog.resolve_triple("s3").spectrum
    sharp = cutoffs.parse_cutoff("sharp")
    gauss = cutoffs.parse_cutoff("gauss")

    # pole data and expansions of three catalog zetas
    q0, w0, pl0 = podles[0]
    zetas = {"s1": catalog.resolve_triple("s1").zeta,
             "s3sq": catalog.resolve_triple("s3sq").zeta,
             "podless": pl0.zeta}
    poles = {k: z.poles() for k, z in zetas.items()}
    scales = {k: catalog.default_scale(z.dimension_p, n_strips=6) for k, z in zetas.items()}
    heat_exp = {k: asymptotics.heat_expansion_from_poles(poles[k], scales[k],
                                                         d=zetas[k].pole_order)
                for k in zetas}
    # check references, computed at the first check rather than in set-up
    expected_heat = functools.cache(
        lambda k: refs.heat_coeffs(k, q0, w0) if k == "podless" else refs.heat_coeffs(k))
    radius = {"s1": (oracles.s1_radius_data(), 2 * math.pi),
              "s2": (oracles.s2_radius_data(), 0.0),
              "podless": (oracles.podles_radius_data(pl0.params), math.inf)}
    triples = [finite.ko_reference_triple(d, nrng) for d in (0, 2, 4, 6)]
    indices = [functools.cache(functools.partial(_numpy_index, tr)) for tr in triples]

    ops: list[Op] = []
    ids = ("s1", "s3sq", "podless")
    for r in range(ROUNDS):
        q, w, pl = podles[r % 3]
        s = rng.uniform(1.0, 3.0)
        ops.append(_sum_op("series.zeta_direct", f"zeta_direct podless:{q},{w} s={s!r}",
                           lambda sp=pl.spectrum, s=s: series.zeta_direct(sp, s),
                           lambda s=s, q=q, w=w: refs.podless_zeta(s, q, w),
                           ("zeta", "podless", s, "", q, w)))
        t = rng.uniform(0.05, 1.0)
        ops.append(_sum_op("series.heat_trace", f"heat_trace podless:{q},{w} t={t!r}",
                           lambda sp=pl.spectrum, t=t: series.heat_trace(sp, t),
                           lambda t=t, q=q, w=w: refs.podless_heat(t, q, w),
                           ("heat", "podless", t, "", q, w)))
        lam = rng.uniform(40.0, 160.0)
        ops.append(Op("series.spectral_action_direct", f"sharp s3 L={lam!r}",
                      lambda lam=lam: series.spectral_action_direct(s3, sharp, lam),
                      lambda rep, lam=lam: None if rep.value == refs.s3_sharp_count(lam)
                      else f"sharp s3 L={lam!r}: {rep.value!r}",
                      done=lambda rep: rep.converged, key=_report_key))
        t = 0.1 * rng.uniform(0.95, 1.05)
        ops.append(_sum_op("series.heat_trace", f"heat_trace s1 t={t!r}",
                           lambda t=t: series.heat_trace(s1, t),
                           lambda t=t: refs.s1_heat(t), ("heat", "s1", t, "", 0, 0)))
        t = 0.13 * rng.uniform(0.95, 1.05)
        ops.append(_sum_op("series.heat_trace", f"heat_trace s3 t={t!r}",
                           lambda t=t: series.heat_trace(s3, t),
                           lambda t=t: refs.s3_heat(t), ("heat", "s3", t, "", 0, 0)))
        k = ids[r % 3]
        ops.append(Op("oracles.CatalogZeta.poles", f"poles {k}", zetas[k].poles,
                      lambda out, k=k: refs.check_poles(k, out, q0, w0)))
        k = ids[(r + 1) % 3]
        ops.append(Op("asymptotics.heat_expansion_from_poles", f"heat expansion {k}",
                      lambda k=k: asymptotics.heat_expansion_from_poles(
                          poles[k], scales[k], d=zetas[k].pole_order),
                      lambda out, k=k: _coeff_check(f"heat expansion {k}", out.terms,
                                                    expected_heat(k))))
        a = round(rng.uniform(0.5, 2.0), 6)
        f = cutoffs.parse_cutoff(f"exp:{a}")
        k = ids[(r + 2) % 3]
        act = asymptotics.action_expansion(heat_exp[k], f, d=zetas[k].pole_order,
                                           spectrum_p=zetas[k].dimension_p)
        ops.append(Op("asymptotics.action_expansion", f"action expansion {k} exp:{a}",
                      lambda k=k, f=f: asymptotics.action_expansion(
                          heat_exp[k], f, d=zetas[k].pole_order,
                          spectrum_p=zetas[k].dimension_p),
                      lambda out, k=k, a=a: _coeff_check(
                          f"action expansion {k} exp:{a}", out.terms,
                          refs.action_coeffs(expected_heat(k), a))))
        for lam in sorted(rng.uniform(20.0, 80.0) for _ in range(4)):
            ops.append(Op("asymptotics.evaluate_expansion",
                          f"evaluate_expansion {k} exp:{a} L={lam!r}",
                          lambda act=act, lam=lam: asymptotics.evaluate_expansion(act, lam, 2),
                          lambda out, act=act, lam=lam: refs.check_expansion_value(
                              act.terms, lam, 2, out)))
        lam = rng.uniform(5.0, 30.0)
        ops.append(Op("summation.s3_action", f"s3_action gauss L={lam!r}",
                      lambda lam=lam: summation.s3_action(gauss, lam),
                      lambda out, lam=lam: None if _rel(
                          out, lam ** 3 * math.sqrt(math.pi) / 2 - lam * math.sqrt(math.pi) / 4,
                          1e-10) else f"s3_action gauss L={lam!r}: {out!r}"))
        ops.append(Op("summation.t3_action", f"t3_action exp:{a} L={lam!r}",
                      lambda f=f, lam=lam: summation.t3_action(f, lam),
                      lambda out, a=a, lam=lam: None if _rel(
                          out, 2 * lam ** 3 / (math.pi ** 2 * a ** 3), 1e-10)
                      else f"t3_action exp:{a} L={lam!r}: {out!r}"))
        s, h = rng.uniform(2.0, 6.0), rng.uniform(0.5, 2.0)
        ops.append(Op("special.hurwitz_zeta", f"hurwitz_zeta({s!r}, {h!r})",
                      lambda s=s, h=h: special.hurwitz_zeta(s, h),
                      lambda out, s=s, h=h: refs.check_special(
                          "hurwitz_zeta", out, refs.hurwitz(s, h))))
        s = rng.uniform(2.0, 8.0)
        ops.append(Op("special.riemann_zeta", f"riemann_zeta({s!r})",
                      lambda s=s: special.riemann_zeta(s),
                      lambda out, s=s: refs.check_special(
                          "riemann_zeta", out, refs.hurwitz(s, 1.0))))
        ag, x = rng.uniform(0.5, 4.0), rng.uniform(0.5, 8.0)
        ops.append(Op("special.upper_gamma", f"upper_gamma({ag!r}, {x!r})",
                      lambda ag=ag, x=x: special.upper_gamma(ag, x),
                      lambda out, ag=ag, x=x: refs.check_special(
                          "upper_gamma", out, refs.upper_gamma(ag, x))))
        k = ("s1", "s2", "podless")[r % 3]
        data, want = radius[k]
        ops.append(Op("asymptotics.convergence_radius", f"convergence_radius {k}",
                      lambda data=data: asymptotics.convergence_radius(*data),
                      lambda out, k=k, want=want: None if (
                          out.T == want if not math.isfinite(want) or want == 0.0
                          else _rel(out.T, want, 1e-9))
                      else f"convergence_radius {k}: T={out.T!r}, want {want!r}"))
        i = r % 4
        tr, idx = triples[i], indices[i]
        ops.append(Op("finite.validate", f"validate KO-{tr.ko_dim}",
                      lambda tr=tr: finite.validate(tr), _check_axioms))
        t = rng.uniform(0.1, 10.0)
        ops.append(Op("finite.mckean_singer", f"mckean_singer KO-{tr.ko_dim} t={t!r}",
                      lambda tr=tr, t=t: finite.mckean_singer(tr, t),
                      lambda out, idx=idx, t=t: None if abs(out - idx()) < 1e-10
                      else f"mckean_singer t={t!r}: {out!r}, index {idx()}"))
        ops.append(Op("finite.index_of", f"index_of KO-{tr.ko_dim}",
                      lambda tr=tr: finite.index_of(tr),
                      lambda out, idx=idx: None if out == idx()
                      else f"index_of: {out}, numpy index {idx()}"))
    return Workload("short_calls", ops)


# ---------------------------------------------------------------------------
# README CLI examples
# ---------------------------------------------------------------------------

@dataclass
class CliOut:
    rc: int
    stdout: str
    maxrss_kb: int = 0


def run_cli(root: Path, argv: list[str]) -> CliOut:
    """One fresh `python -m sal.cli` process; rusage from wait4."""
    proc = subprocess.Popen([sys.executable, "-m", "sal.cli", *argv], cwd=root,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOut(proc.returncode, out.decode(), usage.ru_maxrss)


def main_in_process(argv: list[str]) -> CliOut:
    """The same call through sal.cli.main, stdout captured."""
    from sal import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return CliOut(rc, buf.getvalue())


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_heat(out: CliOut) -> str | None:
    for row in _rows(out.stdout):
        t, v, tb = float(row["t"]), float(row["value"]), float(row["tail_bound"])
        if not refs.within(v, refs.s1_heat(t), tb):
            return f"heat s1 t={t}: {v!r} not within {tb:.3g} of {refs.s1_heat(t)!r}"
    return None


def _check_zeta(out: CliOut) -> str | None:
    (row,) = _rows(out.stdout)
    v, tb = float(row["re_value"]), float(row["tail_bound"])
    ref = refs.s2_zeta(3.5)            # 4 zeta(2.5)
    if float(row["im_value"]) != 0.0 or not refs.within(v, ref, tb):
        return f"zeta s2 3.5: {v!r} not within {tb:.3g} of 4 zeta(2.5) = {ref!r}"
    return None


def _check_action(out: CliOut) -> str | None:
    for row in _rows(out.stdout):
        lam, v, tb = float(row["lambda"]), float(row["value"]), float(row["tail_bound"])
        ref = refs.s3_gauss_action(lam)
        if not refs.within(v, ref, tb):
            return f"action s3 gauss L={lam}: {v!r} not within {tb:.3g} of {ref!r}"
    return None


def _check_expand(out: CliOut) -> str | None:
    rows = json.loads(out.stdout)
    have = {(float(r["re_z"]), r["n"]): float(r["re_a"]) for r in rows}
    for (z, n), want in (((1.5, 0), math.sqrt(math.pi) / 2),
                         ((0.5, 0), -math.sqrt(math.pi) / 4)):
        got = have.get((z, n))
        if got is None or not _rel(got, want, 1e-12):
            return f"expand s3sq: a_{z} = {got!r}, want {want!r}"
    return None


def _check_compare(out: CliOut) -> str | None:
    disc = [abs(float(r["discrepancy"])) for r in _rows(out.stdout)]
    if any(b > a for a, b in zip(disc, disc[1:])) or not disc[-1] < disc[0]:
        return f"compare t3: discrepancy {disc} does not shrink as Lambda grows"
    return None


AXIOM_ROWS = ("selfadjoint", "grading_sq", "grading_anticommute",
              "grading_commute_algebra", "J_unitary", "reality_JD", "reality_J_sq",
              "reality_Jgamma", "order_zero", "first_order")


def _check_axioms(rep: dict) -> str | None:
    for k in AXIOM_ROWS:
        if not rep[k] < 1e-10:
            return f"validate: axiom residual {k} = {rep[k]!r}"
    return None if rep["passed"] else "validate: triple not reported as passing"


def _check_finite(out: CliOut, numpy_index: Callable[[], int]) -> str | None:
    rows = {r["check"]: r["value"] for r in _rows(out.stdout)}
    for k in AXIOM_ROWS:
        if k not in rows or not float(rows[k]) < 1e-10:
            return f"finite: axiom residual {k} = {rows.get(k)}"
    if rows.get("passed") != "True" or rows.get("ko_signs_match_table") != "True":
        return "finite: triple not reported as passing"
    index = numpy_index()
    if int(rows["index"]) != index:
        return f"finite: index {rows['index']}, numpy index {index}"
    ms = [float(v) for k, v in rows.items() if k.startswith("mckean_singer_t=")]
    if len(ms) != 3 or any(abs(v - index) > 1e-10 for v in ms):
        return f"finite: McKean-Singer {ms} differs from index {index}"
    return None


def _check_radius(out: CliOut) -> str | None:
    (row,) = _rows(out.stdout)
    # the simplified Podles small-t series has 1/k! coefficients: entire in t
    if row["T"] != "inf" or row["kind"] != "infinite":
        return f"radius podless: T={row['T']}, kind={row['kind']}"
    return None


def readme_examples(triple_path: str) -> list[tuple[str, str]]:
    """(name, arguments) of the seven README CLI examples."""
    return [
        ("heat", "heat --triple s1 --t-grid 0.1:1:10 --format csv"),
        ("zeta", "zeta --triple s2 --s 3.5,0"),
        ("action", "action --triple s3 --cutoff gauss --lambda-grid 5:20:4"),
        ("expand", "expand --triple s3sq --strips 2 --format json"),
        ("compare", "compare --triple t3 --cutoff gauss --lambda-grid 4:16:3 "
                    "--lattice-cut 120"),
        ("finite", f"finite --file {triple_path} --check all"),
        ("radius", "radius --triple podless:0.5,1"),
    ]


CHECKS = {"heat": _check_heat, "zeta": _check_zeta, "action": _check_action,
          "expand": _check_expand, "compare": _check_compare, "finite": None,
          "radius": _check_radius}
NEEDED = {"heat": ("heat", "s1", "t"), "action": ("action", "s3", "lambda")}


def cli_readme(seed: int, root: Path) -> Workload:
    """The seven README CLI examples, each a fresh `python -m sal.cli`."""
    from sal import finite

    rng = random.Random(seed)
    d = rng.choice((0, 2, 4, 6))
    triple = finite.ko_reference_triple(d, np.random.default_rng(seed))
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"triple-{seed}.json"
    path.write_text(finite.triple_to_json(triple), encoding="utf-8")
    index = functools.cache(functools.partial(_numpy_index, triple))  # at the first check
    examples = [(text, CHECKS[name], NEEDED.get(name))
                for name, text in readme_examples(path.relative_to(root).as_posix())]
    examples[5] = (examples[5][0], lambda out: _check_finite(out, index), None)

    def needed(spec):
        def fn(out: CliOut) -> list[tuple[int, int]]:
            quantity, family, col = spec
            pairs = []
            for row in _rows(out.stdout):
                if row["converged"] != "True":
                    continue
                p, n = float(row[col]), int(row["terms"])
                terms = refs.term_array(quantity, family, p, n, "gauss")
                ref = refs.s1_heat(p) if quantity == "heat" else refs.s3_gauss_action(p)
                pairs.append((n, refs.fewest_terms(terms, float(refs.KERNEL[family]),
                                                   ref, TOL)))
            return pairs
        return fn

    def make(runner):
        return [Op("cli.main", text, lambda a=text.split(): runner(a),
                   lambda out, c=check: c(out), done=lambda out: out.rc == 0,
                   key=lambda out: (out.rc, out.stdout),
                   needed=needed(spec) if spec else None)
                for text, check, spec in examples]

    return Workload("cli_readme", make(lambda a: run_cli(root, a)),
                    in_process=make(main_in_process),
                    warmup=lambda: run_cli(root, examples[0][0].split()))


BUILDERS = {"cli_readme": cli_readme, "long_sums": long_sums, "short_calls": short_calls}
