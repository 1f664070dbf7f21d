"""Per-layer probes: each public entry point of a `sal` layer timed on its own.

These run untraced in the `--trace 1` invocation, on fixed inputs (not the
workload seed), so each number moves only when its layer changes.  Every
timing is a median over repeats; units are in the metric names.
"""

from __future__ import annotations

import io
import contextlib
import math
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

CUTOFFS = {"exp": "exp:1", "window": "window:1,2", "powerlaw": "powerlaw:1,1,5",
           "gauss": "gauss", "product": "product(exp:1,exp:1)", "nulltaylor": "nulltaylor"}
TRIPLES = {"s1": "s1", "s2": "s2", "s3": "s3", "s3sq": "s3sq", "nct2": "nct2",
           "nct4": "nct4", "t3": "t3", "podless": "podless:0.5,1"}


def per_call(fn, n: int, reps: int = 5) -> float:
    """Median over `reps` batches of the mean seconds per call in a batch of n."""
    times = []
    for _ in range(reps):
        t = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t) / n)
    return statistics.median(times)


def _fresh_python(code: str) -> tuple[float, str]:
    t = perf_counter()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return perf_counter() - t, out


def measure(root: Path) -> dict[str, float]:
    from sal import (asymptotics, catalog, cutoffs, finite, oracles, series, special,
                     summation)

    m: dict[str, float] = {}

    # import: a bare interpreter, and `import sal` inside a fresh one
    m["import.python_s"] = statistics.median(_fresh_python("pass")[0] for _ in range(3))
    m["import.sal_s"] = statistics.median(
        float(_fresh_python("import time; t = time.perf_counter(); import sal; "
                            "print(time.perf_counter() - t)")[1]) for _ in range(3))

    # cli: sal.cli.main in-process on each README example, stdout captured
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "triple-layers.json"
    path.write_text(finite.triple_to_json(
        finite.ko_reference_triple(2, np.random.default_rng(0))), encoding="utf-8")
    from sal import cli
    for name, text in workloads.readme_examples(path.relative_to(root).as_posix()):
        argv = text.split()
        samples: list[float] = []
        while len(samples) < 3 and sum(samples) < 2.0:
            t = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            samples.append(perf_counter() - t)
        m[f"cli.main_s.{name}"] = statistics.median(samples)

    # catalog
    for name, tid in TRIPLES.items():
        cut = 120.0 if name == "t3" else 80.0
        m[f"catalog.resolve_triple_s.{name}"] = per_call(
            lambda: catalog.resolve_triple(tid, lattice_cut=cut), 1, 3)

    # spectra: ns per entry of Spectrum.entries()
    families = {"sphere": (catalog.resolve_triple("s3").spectrum, 100_000),
                "lattice": (catalog.resolve_triple("nct2").spectrum, 100_000),
                "podles": (catalog.resolve_triple("podless:0.5,1").spectrum, 500),
                "squared": (catalog.resolve_triple("s3sq").spectrum, 100_000)}
    for fam, (spec, n) in families.items():
        count = sum(1 for _ in islice(spec.entries(), n))
        reps = max(1, 100_000 // count)
        m[f"spectra.entries_ns.{fam}"] = per_call(
            lambda: sum(1 for _ in islice(spec.entries(), n)), reps, 3) / count * 1e9

    # cutoffs: parsing, one scalar, and a 4,096-point block
    xs = np.linspace(0.01, 20.0, 4096)
    for kind, text in CUTOFFS.items():
        heavy = kind == "nulltaylor"
        m[f"cutoffs.parse_cutoff_us.{kind}"] = per_call(
            lambda: cutoffs.parse_cutoff(text), 2 if heavy else 200, 3) * 1e6
        f = cutoffs.parse_cutoff(text)
        m[f"cutoffs.evaluate_us.{kind}"] = per_call(
            lambda: f.evaluate(0.7), 100 if heavy else 2000, 3) * 1e6
        m[f"cutoffs.evaluate_block_ns.{kind}"] = per_call(
            lambda: f.evaluate(xs), 2 if heavy else 50, 3) / xs.size * 1e9

    # series: the reduction alone
    vals = np.random.default_rng(0).random(100_000).tolist()

    def reduce_all():
        acc = series.PairwiseSummer()
        for v in vals:
            acc.add(v)
    m["series.pairwise_summer_ns"] = per_call(reduce_all, 1, 3) / len(vals) * 1e9

    # special
    for fn, call, n in (("upper_gamma", lambda: special.upper_gamma(2.5, 3.0), 500),
                        ("hurwitz_zeta", lambda: special.hurwitz_zeta(3.3, 1.5), 500),
                        ("riemann_zeta", lambda: special.riemann_zeta(3.3), 500),
                        ("gamma", lambda: special.gamma(2.3 + 0.5j), 2000),
                        ("epstein_Zd", lambda: special.epstein_Zd(3.5, 2), 50)):
        m[f"special.{fn}_us"] = per_call(call, n, 3) * 1e6

    # oracles: pole data
    params = catalog.resolve_triple("podless:0.5,1").params
    for name, cz in (("s1", oracles.catalog_zeta("s1")),
                     ("s3sq", oracles.catalog_zeta("s3sq")),
                     ("podless", oracles.catalog_zeta("podless", params))):
        m[f"oracles.poles_ms.{name}"] = per_call(cz.poles, 1, 5) * 1e3

    # asymptotics
    cz = oracles.catalog_zeta("s1")
    poles = cz.poles()
    scale = catalog.default_scale(cz.dimension_p, n_strips=6)
    heat = asymptotics.heat_expansion_from_poles(poles, scale)
    f = cutoffs.parse_cutoff("exp:1")
    act = asymptotics.action_expansion(heat, f, spectrum_p=1.0)
    m["asymptotics.heat_expansion_us"] = per_call(
        lambda: asymptotics.heat_expansion_from_poles(poles, scale), 100, 3) * 1e6
    m["asymptotics.action_expansion_us"] = per_call(
        lambda: asymptotics.action_expansion(heat, f, spectrum_p=1.0), 100, 3) * 1e6
    m["asymptotics.evaluate_expansion_us"] = per_call(
        lambda: asymptotics.evaluate_expansion(act, 10.0, 2), 1000, 3) * 1e6
    radius = oracles.s1_radius_data()
    m["asymptotics.convergence_radius_ms"] = per_call(
        lambda: asymptotics.convergence_radius(*radius), 200, 3) * 1e3

    # summation
    g = cutoffs.parse_cutoff("gauss")
    m["summation.s3_action_us"] = per_call(lambda: summation.s3_action(g, 10.0), 20, 3) * 1e6
    m["summation.t3_action_us"] = per_call(lambda: summation.t3_action(g, 10.0), 20, 3) * 1e6

    def em():
        # sum_{k=0}^{50} e^{-k/10} with exact derivatives and integral
        summation.euler_maclaurin(lambda x: math.exp(-x / 10.0), 50, 8,
                                  derivs=lambda j: (lambda x, j=j: (-0.1) ** j
                                                    * math.exp(-x / 10.0)),
                                  integral=10.0 * (1.0 - math.exp(-5.0)))
    m["summation.euler_maclaurin_us"] = per_call(em, 10, 3) * 1e6

    # finite
    triple = finite.ko_reference_triple(2, np.random.default_rng(0))
    text = finite.triple_to_json(triple)
    m["finite.triple_from_json_us"] = per_call(lambda: finite.triple_from_json(text),
                                               500, 3) * 1e6
    m["finite.validate_us"] = per_call(lambda: finite.validate(triple), 200, 3) * 1e6
    m["finite.mckean_singer_us"] = per_call(lambda: finite.mckean_singer(triple, 0.5),
                                            500, 3) * 1e6
    return m
