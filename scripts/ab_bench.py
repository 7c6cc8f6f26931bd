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

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its final JSON line as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: benchmark exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


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
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(sides[side], args.workload, args.seed, seconds))
        values = ", ".join(
            f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.6g}"
            f" -> {runs['change'][-1]['metrics'][m['name']]['value']:.6g}"
            for m in spec["end_to_end"])
        print(f"pair {i + 1} ({order[0]} first): {values}", flush=True)

    print(f"\nworkload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{seconds:g} s per run")
    for side in sides:
        failed = sum(run["failed"] for run in runs[side])
        correct = sum(run["correct"] for run in runs[side])
        print(f"{side}: {correct}/{args.pairs} runs correct, "
              f"{failed} failed of {sum(run['attempted'] for run in runs[side])}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
