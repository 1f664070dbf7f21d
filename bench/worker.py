"""One workload in its own fresh process: set up, run, check, report.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

run from the checkout root with `src` on PYTHONPATH (bench/run.py does
both).  The worker prints `READY` on stdout the moment set-up ends, so the
parent can time set-up from process start, then one JSON line of results.

Untraced, it repeats whole passes over the workload's operations until
`--seconds` have gone by.  Traced, it runs the layer probes, then untraced
and traced passes in turn, and reports per-layer numbers from the spans of
the last traced pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
ENGINES = ("heat_trace", "zeta_direct", "spectral_action_direct")


def run_pass(ops, rec=None):
    """Each op once, in order: (outputs, latencies); an output is (value, error)."""
    outs, lat = [], []
    for i, op in enumerate(ops):
        if rec is not None:
            rec.current_op = i
            sid = rec.open(op.name, op.name.split(".", 1)[0])
        t = perf_counter()
        try:
            outs.append((op.call(), None))
        except Exception as exc:  # an operation that raises is counted as failed
            outs.append((None, f"{op.label}: {type(exc).__name__}: {exc}"))
        lat.append(perf_counter() - t)
        if rec is not None:
            rec.close(sid)
    return outs, lat


def verdicts(ops, outs) -> list[tuple[str, bool] | None]:
    """Per operation of a pass: None when its output is right and complete,
    else (note, wrong).  An error, no convergence or a non-zero exit is a
    failure (wrong False); an output that fails its check is wrong, and a
    failure too.  Each distinct (call, output) is checked once.
    """
    memo, res = {}, []
    for op, (out, err) in zip(ops, outs):
        if err is not None:
            res.append((err, False))
            continue
        k = (op.name, op.label, op.key(out))
        if k not in memo:
            memo[k] = op.check(out)
        if memo[k] is not None:
            res.append((memo[k], True))
        elif not op.done(out):
            res.append((f"{op.label}: did not converge or exited non-zero", False))
        else:
            res.append(None)
    return res


def repeats(ops, outs, first) -> list[tuple[str, bool] | None]:
    """Per operation of a later pass: None when it repeats its first-pass
    output (and so inherits that output's verdict), else (note, wrong): an
    error is a failure, a different output is wrong."""
    res = []
    for op, (out, err), (out0, _) in zip(ops, outs, first):
        if err is not None:
            res.append((err, False))
        elif out0 is None or op.key(out) != op.key(out0):
            res.append((f"{op.label}: output differs from the first pass", True))
        else:
            res.append(None)
    return res


def tally(found: list[tuple[str, bool] | None]) -> tuple[int, list[str], list[str]]:
    """(failed count, failure notes, wrong-output notes) of some verdicts."""
    bad = [v for v in found if v is not None]
    return (len(bad), sorted({note for note, wrong in bad if not wrong}),
            sorted({note for note, wrong in bad if wrong}))


def tail(lat: list[float]) -> float:
    """The highest percentile with ten samples beyond it (40 or more samples);
    with fewer, no percentile above the median has ten beyond it, and the
    slowest operation is reported."""
    s = sorted(lat)
    return s[len(s) - 11] if len(s) >= 40 else s[-1]


def timed(wl, seconds: float, warm) -> dict:
    """Whole passes until `seconds` have gone by.

    Only the first pass's outputs are kept, so memory does not grow with
    the number of passes; later passes are compared with it as they end.
    The checks run after the passes and after peak memory is read, so the
    references add to neither.
    """
    first, later, walls, lat, rss_kb = None, [], [], [], 0
    start = perf_counter()
    while True:
        t = perf_counter()
        outs, l = run_pass(wl.ops)
        walls.append(perf_counter() - t)
        lat.extend(l)
        if wl.in_process is not None:   # children: peak over the CLI processes
            rss_kb = max([rss_kb] + [out.maxrss_kb for out, _ in outs if out is not None])
        if first is None:
            first = outs
        else:
            later.append(repeats(wl.ops, outs, first))
        if perf_counter() - start >= seconds:
            break
    if wl.in_process is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    found = verdicts(wl.ops, first)
    failed, notes, wrong = tally(
        found + [v if v is not None else v0 for rep in later for v, v0 in zip(rep, found)])
    if warm is not None and first[0][0] is not None \
            and wl.ops[0].key(first[0][0]) != wl.ops[0].key(warm):
        wrong.append(f"{wl.ops[0].label}: output differs from the warm-up call")
    return {"attempted": len(wl.ops) * len(walls), "failed": failed,
            "notes": notes, "wrong": wrong,
            "metrics": {"wall_s": statistics.median(walls),
                        "op_p50_s": statistics.median(lat),
                        "op_tail_s": tail(lat),
                        "peak_rss_mb": rss_kb / 1024.0},
            "pass_s": walls, "passes": len(walls)}


def traced(wl, seed: int) -> dict:
    import layers
    import spans

    m = layers.measure(ROOT)
    ops = wl.in_process or wl.ops
    # tracing overhead: untraced and traced passes alternated in this
    # process; a README pass (in-process) is about 15 s, so it runs once each
    untraced, traced_ = [], []
    for _ in range(1 if wl.in_process is not None else 2):
        t = perf_counter()
        run_pass(ops)
        untraced.append(perf_counter() - t)
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            t = perf_counter()
            outs, _ = run_pass(ops, rec)
            traced_.append(perf_counter() - t)
        finally:
            spans.uninstall(undo)
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    rec.write(out_dir / f"spans-{wl.name}-{seed}.csv")

    m["trace.pass_s"] = statistics.median(traced_)
    m["trace.overhead_s"] = m["trace.pass_s"] - statistics.median(untraced)
    for layer, busy in spans.layer_self_times(rec).items():
        m[f"{layer}.self_s"] = busy
    for eng in ENGINES:
        name = f"series.{eng}"
        calls, terms = rec.calls.get(name, 0), rec.terms.get(name, 0)
        secs = spans.span_seconds(rec, name)
        m[f"{name}.calls"] = calls
        m[f"{name}.terms"] = terms
        m[f"{name}.s"] = secs
        m[f"{name}.ns_per_term"] = secs / terms * 1e9 if terms else 0.0
    pairs = [pair for op, (out, err) in zip(ops, outs)
             if err is None and op.needed is not None for pair in op.needed(out)]
    m["series.terms_over_needed"] = (sum(a for a, _ in pairs) / sum(b for _, b in pairs)
                                     if pairs else 0.0)
    failed, notes, wrong = tally(verdicts(ops, outs))
    return {"attempted": len(ops), "failed": failed, "notes": notes,
            "wrong": wrong, "metrics": m, "passes": 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.BUILDERS[args.workload](args.seed, ROOT)
    warm = wl.warmup() if wl.warmup is not None else None
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = traced(wl, args.seed) if args.trace else timed(wl, args.seconds, warm)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
