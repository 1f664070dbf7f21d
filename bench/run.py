"""Benchmark of `sal`, one workload per invocation, run from the checkout root:

    python3 bench/run.py --workload {cli_readme,long_sums,short_calls} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in its own fresh worker process (bench/worker.py), one
operation at a time.  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics of BENCHMARK.json; with --trace 1 the per-layer
ones.  Set-up time is the median over several fresh worker processes, each
timed from its start until it is ready for the first timed operation.
Results, with every pass time and set-up sample, are also written to
bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUPS = 4            # set-up samples per untraced run, the worker's own included
DEADLINE_S = 170.0    # every worker is killed past this, so the run ends in time


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds until it printed READY."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if not select.select([proc.stdout], [], [], DEADLINE_S)[0]:
        proc.kill()
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli_readme", "long_sums", "short_calls"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (ROOT / "src" / "sal" / "__init__.py").is_file():
        return fail(f"no sal sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # the workers and their CLI children inherit these
    env = os.environ
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"   # one client, one thread: no hidden parallelism
    env["PYTHONHASHSEED"] = "0"   # the same dict and set layouts in every run

    start = perf_counter()
    try:
        setups = []
        n = 1 if args.trace else SETUPS
        for i in range(n):
            last = i == n - 1
            extra = ["--trace"] if args.trace else ([] if last else ["--setup-only"])
            proc, ready = start_worker(args, extra)
            setups.append(ready)
            if not last:
                finish(proc, DEADLINE_S - (perf_counter() - start))
        out = finish(proc, DEADLINE_S - (perf_counter() - start))
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        return fail(str(exc))

    measured = result["metrics"]
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    missing = sorted(set(wanted) - set(measured))
    if missing:
        return fail(f"metrics not measured: {missing}")
    for note in result["notes"]:
        print(f"bench: failed: {note}", file=sys.stderr)
    for note in result["wrong"]:
        print(f"bench: WRONG: {note}", file=sys.stderr)
    final = {"correct": not result["wrong"], "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {k: {"value": measured[k], "unit": u} for k, u in wanted.items()}}
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = dict(final, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=result["passes"], setup_samples_s=setups,
                  pass_s=result.get("pass_s"))
    (out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"bench: {args.workload} seed {args.seed}: {result['passes']} pass(es), "
          f"{final['attempted']} operations, {final['failed']} failed")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
