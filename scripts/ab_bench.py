#!/usr/bin/env python3
"""Compare two amrsched checkouts on one benchmark workload, run in pairs.

    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload h64-case \\
        --pairs 10 --seed 7

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, from
that checkout's root, so each side measures its own ``src`` with its own,
unchanged benchmark code.  The side that goes first alternates from pair to
pair.  For every end-to-end metric of the parent's ``BENCHMARK.json`` the
script prints:

* each side's median and quartiles;
* how many pairs the change won (ties count for neither side);
* whether the change's median is worse than the parent's by more than the
  metric's bound (a fraction of the parent's median);
* whether the gain rule holds: the change won at least 9 of every 10 pairs,
  and its median is better than the parent's by more than the parent's
  interquartile range.

The host's load average is read before every run, and the summary gives
each side's highest 1-minute load, so a set of pairs taken while other work
shared the host shows as such.

The last stdout line is the same summary as one JSON object: every pair's
metrics and loads, each run's unscaled ``# wall clock`` and ``# calibration
loops`` lines, the medians, quartiles, wins and verdicts per metric, the
host's core count, the Python version and each checkout's commit.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


UNSCALED = ("# wall clock", "# calibration loops")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its final JSON line as a dict, with its
    ``UNSCALED`` lines under ``"unscaled"``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: benchmark exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["unscaled"] = [line for line in lines if line.startswith(UNSCALED)]
    return result


def commit_of(checkout: Path) -> str | None:
    """HEAD of a git checkout, None for a plain directory."""
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    loads = {"parent": [], "change": []}    # 1-minute load before each run
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            loads[side].append(os.getloadavg()[0])
            runs[side].append(run_bench(sides[side], args.workload, args.seed, seconds))
        values = ", ".join(
            f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.6g}"
            f" -> {runs['change'][-1]['metrics'][m['name']]['value']:.6g}"
            for m in spec["end_to_end"])
        print(f"pair {i + 1} ({order[0]} first): {values}", flush=True)

    summary = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "commits": {side: commit_of(path) for side, path in sides.items()},
        "runs": {}, "metrics": {},
        "per_pair": [{side: {m["name"]: runs[side][i]["metrics"][m["name"]]["value"]
                             for m in spec["end_to_end"]} for side in sides}
                     for i in range(args.pairs)],
        "unscaled": {side: [run["unscaled"] for run in runs[side]] for side in sides},
        "load_1min": {side: loads[side] for side in sides},
        "max_load_1min": {side: max(loads[side]) for side in sides},
    }
    print(f"\nworkload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{seconds:g} s per run")
    for side in sides:
        failed = sum(run["failed"] for run in runs[side])
        correct = sum(run["correct"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        summary["runs"][side] = {"correct": correct, "failed": failed,
                                 "attempted": attempted}
        print(f"{side}: {correct}/{args.pairs} runs correct, "
              f"{failed} failed of {attempted}; "
              f"highest 1-minute load before a run {max(loads[side]):.2f}")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        gain = sign * (pm - cm)   # > 0 when the change's median is better
        regressed = -gain > metric["bound"] * abs(pm)
        gain_rule = 10 * wins >= 9 * args.pairs and gain > p3 - p1
        relative = f"{cm / pm - 1:+.1%}" if pm else "n/a"
        print(f"{name} [{metric['unit']}, {metric['better']} is better]: "
              f"parent {pm:.6g} (q1 {p1:.6g}, q3 {p3:.6g}); "
              f"change {cm:.6g} (q1 {c1:.6g}, q3 {c3:.6g}), {relative}; "
              f"change wins {wins}/{args.pairs}; "
              f"{'WORSE beyond' if regressed else 'within'} bound {metric['bound']:g}; "
              f"gain rule {'holds' if gain_rule else 'does not hold'}")
        summary["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "change_wins": wins, "bound": metric["bound"],
            "worse_beyond_bound": regressed, "gain_rule_holds": gain_rule}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
