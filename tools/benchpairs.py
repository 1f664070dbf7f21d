"""Alternating pairs of benchmark runs on two checkouts, with a verdict per metric.

    python3 tools/benchpairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...] \\
        --seeds 1-10 --seconds 30 [--json]

For each seed and workload it runs `python3 bench/run.py --workload W --seed N
--seconds S --trace 0` once in each checkout, the parent first on even pairs
and the change first on odd ones, and removes every `__pycache__` directory
under both checkouts' `src/` before every run, so that no run reads bytecode
the other side or an earlier run compiled.  The end-to-end metrics, their
direction and their bounds come from the change's BENCHMARK.json.

Per metric it prints both medians, the change/parent ratio, the pairs the
change won and the verdict under VERDICT_RULE; `--json` prints the same as
one JSON object (with every run) instead.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

VERDICT_RULE = (
    "per metric: 'better' if the change wins at least 9 of 10 pairs (ceil(0.9 n) of n) and "
    "the medians differ by more than the parent's IQR; 'unresolved' if the parent's IQR / "
    "median exceeds the bound and not every change run beats every parent run; else "
    "'within bound' if change median / parent median - 1 <= bound, 'worse' otherwise")


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' or '1-3,11-12' as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool = True):
    """(verdict, pairs won) for one metric over the pairs (parent[i], change[i])."""
    beats = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    won = sum(beats(c, p) for p, c in zip(parent, change))
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    if won >= math.ceil(0.9 * len(parent)) and beats(med_c, med_p) and abs(med_c - med_p) > q3 - q1:
        return "better", won
    if (q3 - q1) / med_p > bound and not all(beats(c, p) for c in change for p in parent):
        return "unresolved", won
    cost = med_c / med_p if lower_is_better else med_p / med_c
    return ("within bound" if cost - 1.0 <= bound else "worse"), won


def clear_bytecode(checkout: Path) -> None:
    for cache in (checkout / "src").rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its JSON line, or {'error': ...}."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}


def summarise(runs: dict, metrics: list[dict]) -> dict:
    """The per-workload block: quartiles, ratio of medians, pairs won and verdict."""
    ok = [i for i in range(len(runs["parent"]))
          if "error" not in runs["parent"][i] and "error" not in runs["change"][i]]
    out = {"pairs": len(ok), "quartiles_q1_median_q3": {}, "change_over_parent_median": {},
           "pairs_won_by_change": {}, "verdict": {}}
    for m in metrics if ok else []:
        name = m["name"]
        p = [runs["parent"][i][name] for i in ok]
        c = [runs["change"][i][name] for i in ok]
        v, won = verdict(p, c, m["bound"], m["better"] == "lower")
        out["quartiles_q1_median_q3"][name] = {"parent": quartiles(p), "change": quartiles(c)}
        out["change_over_parent_median"][name] = statistics.median(c) / statistics.median(p)
        out["pairs_won_by_change"][name] = f"{won} of {len(ok)}"
        out["verdict"][name] = v
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {"seeds": args.seeds, "verdict_rule": VERDICT_RULE, "workloads": {}}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(args.seeds):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                for checkout in sides.values():
                    clear_bytecode(checkout)
                out = run_once(sides[side], workload, seed, args.seconds)
                row = {"seed": seed, "ran_first": side == order[0]}
                if "error" in out:
                    row["error"] = out["error"]
                else:
                    row.update({key: out.get(key) for key in ("attempted", "failed", "correct")})
                    row.update({name: v["value"] for name, v in out["metrics"].items()})
                runs[side].append(row)
                print(f"{workload} seed {seed} {side}: "
                      f"{row.get('error') or row.get('wall_s')}", file=sys.stderr)
        result["workloads"][workload] = {**runs, **summarise(runs, metrics)}
    if args.json:
        print(json.dumps(result, indent=1))
        return 0
    for workload, block in result["workloads"].items():
        print(f"{workload}: {block['pairs']} pairs")
        for name, v in block["verdict"].items():
            (_, mp, _), (_, mc, _) = (block["quartiles_q1_median_q3"][name][s]
                                      for s in ("parent", "change"))
            print(f"  {name:12s} parent {mp:.6g}  change {mc:.6g}  "
                  f"ratio {block['change_over_parent_median'][name]:.3f}  "
                  f"won {block['pairs_won_by_change'][name]}  {v}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
