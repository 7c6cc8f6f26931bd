"""Command-line surface: solve, validate, oracle, convert, bench.

Exit codes: 0 success, 1 usage, I/O or parse failure (one ``error:`` line;
an option that leaves the instance invalid is one), 2 infeasibility (no
zero-penalty solution found, or a plan that fails evaluation).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from .evaluation import evaluate_solution, route_table, solution_to_dict
from .model import (CostParams, Instance, StructuralError, load_instance,
                    scale_distance, scale_variance, serialize_instance,
                    solution_from_ids)
from .oracle import NoFeasibleSolution, exact_solve, mc_validate
from .vns import solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line, not argparse's usage block and exit
    2 (the infeasibility code).  Subcommand parsers inherit this class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="amrsched",
                description="Multi-trip AMR routing under stochastic times")
    sub = p.add_subparsers(dest="command", required=True)

    def add_instance_opts(sp):
        sp.add_argument("--instance", required=True, help="instance JSON path")
        for f in dataclasses.fields(CostParams):
            sp.add_argument(f"--{f.metadata['key']}", type=float, default=None)
        sp.add_argument("--scale-distance", type=float, default=None,
                        metavar="K", help="multiply all distances by K")
        sp.add_argument("--scale-variance", type=float, default=None,
                        metavar="N", help="multiply all variances by N")

    sp = sub.add_parser("solve", help="run the VNS solver")
    add_instance_opts(sp)
    sp.add_argument("--iterations", type=int, default=4000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="write solution JSON here")
    sp.add_argument("--verbose", action="store_true",
                    help="emit iteration,best_objective,incumbent_penalized "
                         "CSV lines on stderr")

    sp = sub.add_parser("validate", help="Monte Carlo check of a fixed plan")
    add_instance_opts(sp)
    sp.add_argument("--solution", required=True, help="solution JSON path")
    sp.add_argument("--mc-samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("oracle", help="exact solver for small instances")
    add_instance_opts(sp)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("convert", help="Solomon VRPTW text to instance JSON")
    sp.add_argument("--solomon", required=True, help="Solomon text file")
    sp.add_argument("--profile", choices=("small", "large"), default="small")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("bench", help="repeat solve over seeds and N values")
    add_instance_opts(sp)
    sp.add_argument("--iterations", default="800,1000,2000,4000,5000",
                    help="comma-separated N values")
    sp.add_argument("--repeats", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0, help="first seed")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", default=None, help="write the CSV here")
    return p


def load_configured_instance(args) -> Instance:
    inst = load_instance(args.instance)
    updates = {f.name: getattr(args, f.metadata["key"])
               for f in dataclasses.fields(CostParams)
               if getattr(args, f.metadata["key"]) is not None}
    if updates:
        inst = dataclasses.replace(inst, cost=dataclasses.replace(inst.cost, **updates))
    if args.scale_variance is not None:
        inst = scale_variance(inst, args.scale_variance)
    if args.scale_distance is not None:
        inst = scale_distance(inst, args.scale_distance)
    return inst


def _write_or_print(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload + "\n")
    else:
        print(payload)


def cmd_solve(args) -> int:
    inst = load_configured_instance(args)
    trace = None
    if args.verbose:
        def trace(n, best_obj, pen):
            print(f"{n},{best_obj},{pen}", file=sys.stderr)
    sol, ev, _history = solve(inst, args.iterations, seed=args.seed,
                              on_iteration=trace)
    print(route_table(inst, sol, ev))
    payload = json.dumps(solution_to_dict(inst, sol, ev), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    if not ev.feasible:
        print("no zero-penalty solution found; best shown is infeasible",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_validate(args) -> int:
    inst = load_configured_instance(args)
    data = json.loads(Path(args.solution).read_text())
    amrs = data.get("amrs") if isinstance(data, dict) else None
    if not isinstance(amrs, list):
        raise StructuralError(f"solution file {args.solution} has no 'amrs' list")
    sol = solution_from_ids(
        inst, [a.get("trips") if isinstance(a, dict) else None for a in amrs])
    ev = evaluate_solution(inst, sol)
    if not ev.feasible:
        print("plan is infeasible under the analytic evaluation", file=sys.stderr)
        return EXIT_INFEASIBLE
    report = mc_validate(inst, sol, args.mc_samples, seed=args.seed)
    payload = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True)
    _write_or_print(payload, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = load_configured_instance(args)
    try:
        sol, objective = exact_solve(inst)
    except NoFeasibleSolution as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    ev = evaluate_solution(inst, sol)
    payload = json.dumps(solution_to_dict(inst, sol, ev), indent=2, sort_keys=True)
    _write_or_print(payload, args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    inst = load_instance(Path(args.solomon), format="solomon", profile=args.profile)
    _write_or_print(serialize_instance(inst), args.out)
    return EXIT_OK


def _bench_task(task):
    instance_json, n_iters, seed = task
    inst = load_instance(instance_json)
    t0 = time.perf_counter()
    _sol, ev, _ = solve(inst, n_iters, seed=seed)
    elapsed = time.perf_counter() - t0
    f = ev.objective if ev.feasible else math.inf
    return n_iters, seed, ev.amr_count, ev.total_distance, f, elapsed


def cmd_bench(args) -> int:
    inst = load_configured_instance(args)
    instance_json = serialize_instance(inst)
    try:
        n_values = [int(tok) for tok in str(args.iterations).split(",") if tok]
    except ValueError:
        raise ValueError(f"bad --iterations list: {args.iterations}") from None
    seeds = list(range(args.seed, args.seed + args.repeats))
    tasks = [(instance_json, n, s) for n in n_values for s in seeds]
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        from multiprocessing import Pool  # here, so that other commands start without it
        with Pool(processes=jobs) as pool:
            rows = pool.map(_bench_task, tasks)
    else:
        rows = [_bench_task(t) for t in tasks]
    lines = ["N,m,sum_distance,f,time_seconds,seed"]
    for n_iters, seed, m, dist, f, elapsed in rows:
        lines.append(f"{n_iters},{m},{dist:g},{f:.10g},{elapsed:.3f},{seed}")
    _write_or_print("\n".join(lines), args.out)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
    "convert": cmd_convert,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # ValueError covers InstanceError, StructuralError and JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
