#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for amrsched.

Run from the root of a source checkout (it imports ``src/amrsched`` and reads
``instances/``; nothing needs installing):

    python3 perfbench/run.py --workload h12-paper --seed 0 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen and which layer metric
should move which end-to-end metric on it):

* ``h12-paper``     hospital12 at N=4000, the paper's Table-6 setting.
* ``h64-case``      hospital64 at N=400; each plan is replayed by mc_validate.
* ``oracle-verify`` exact_solve on 6-request sub-instances of hospital12, each
                    plan replayed by mc_validate and cross-checked by a short
                    VNS run that must never beat the exact optimum.

The load is one process and one thread, a closed loop: the next operation
starts when the previous one has returned.  Every operation builds a fresh
``Instance`` from JSON text, because an instance's evaluation caches persist
across calls and users get cold caches.

``--trace 0`` runs the seed's fixed panel of operations, then keeps adding
operations with new solver seeds until ``--seconds`` have passed.  Quality
figures come from the panel, so they repeat exactly for a given seed; timings
come from every operation and are scaled to a reference machine speed measured
by fixed loops run between the operations (the unscaled figures are printed
too).  The last stdout line is the JSON result with the end-to-end metrics.

``--trace 1`` runs a fixed prefix of the panel twice per operation, untraced
and then traced (see spans.py), requires both to produce the same plans and
iteration counts, and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
INSTANCES = os.path.join(ROOT, "instances")

TARGET_OBJECTIVE = 71.90          # hospital12 optimum: m=2, 1190 m
MC_SAMPLES = 100_000
MC_SEED = 0
EPS_TOL = 1e-9
SETUP_REPEATS = 9
CALIBRATION_REF_S = (0.005, 0.0015)   # Python and numpy loop times at the reference speed
CALIBRATION_PER_OP = 3
SEED_STRIDE = 1000                # solver seeds of workload seed s: s*1000 + j

WORKLOADS = {
    "h12-paper": dict(instance="hospital12.json", iterations=4000,
                      panel=10, trace_panel=4),
    "h64-case": dict(instance="hospital64.json", iterations=400,
                     panel=8, trace_panel=8),
    "oracle-verify": dict(instance="hospital12.json", sub_requests=6,
                          check_iterations=100, panel=30, trace_panel=30),
}

END_TO_END = (
    ("setup_s", "s"),
    ("plan_s", "s"),
    ("solve_iters_per_s", "1/s"),
    ("validate_samples_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("best_objective", "cost"),
)


@dataclass
class Op:
    """One planning operation with everything the checks and metrics need."""
    label: str
    plan_s: float = 0.0           # solve or exact_solve wall time
    vns_iters: int = 0
    vns_s: float = 0.0            # wall time of the VNS runs (excludes MC)
    check_s: float = 0.0          # oracle-verify's cross-check solve
    mc_s: float = 0.0
    mc_samples: int = 0
    objective: float = math.nan
    m: int = 0
    distance: float = math.nan
    late: tuple = ()              # request ids over the MC lateness allowance
    iters_to_target: int | None = None
    time_to_target_s: float | None = None
    last_improvement_iter: int = 0
    nodes: int = 0
    plan: object = None
    inst_text: str = ""
    errors: list = field(default_factory=list)

    @property
    def program_s(self) -> float:
        return self.plan_s + self.mc_s + self.check_s

    def fingerprint(self):
        return (self.objective, self.m, self.distance, self.iters_to_target,
                self.last_improvement_iter, self.late, self.plan)


class Bench:
    def __init__(self, workload: str, seed: int):
        import amrsched.evaluation as evaluation
        import amrsched.model as model
        import amrsched.oracle as oracle
        import amrsched.vns as vns
        self.model, self.evaluation, self.oracle, self.vns = model, evaluation, oracle, vns
        self.name = workload
        self.cfg = WORKLOADS[workload]
        self.seed = seed
        with open(os.path.join(INSTANCES, self.cfg["instance"])) as fh:
            self.text = fh.read()
        self.n_requests = len(json.loads(self.text)["requests"])

    def solver_seed(self, j: int) -> int:
        return self.seed * SEED_STRIDE + j

    def run_op(self, j: int, tracer=None) -> Op:
        op = Op(label=f"{self.name}#{j}")
        try:
            if self.name == "oracle-verify":
                self._oracle_op(op, j, tracer)
            else:
                self._solve_op(op, j, tracer)
        except Exception as exc:  # an operation that raises is a failed operation
            op.errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        for err in op.errors:
            print(f"{op.label}: {err}", file=sys.stderr)
        return op

    # -- operations -----------------------------------------------------------

    def _solve_op(self, op: Op, j: int, tracer):
        inst = self.model.load_instance(self.text)
        n_iter = self.cfg["iterations"]
        target = TARGET_OBJECTIVE if self.name == "h12-paper" else None
        sol, ev, history, elapsed, hit = self._timed_solve(
            inst, n_iter, self.solver_seed(j), target, tracer)
        op.plan_s = op.vns_s = elapsed
        op.vns_iters = len(history)
        if hit is not None:
            op.iters_to_target, op.time_to_target_s = hit
        op.last_improvement_iter = last_improvement(history)
        self._check_plan(op, inst, sol, ev.objective, ev.feasible)
        if len(history) != n_iter:
            op.errors.append(f"history has {len(history)} entries, expected {n_iter}")
        if ev.feasible and history and abs(history[-1] - ev.objective) > EPS_TOL:
            op.errors.append("returned objective differs from the search history")
        if not ev.feasible:
            op.errors.append("solve returned an infeasible plan")
        self._validate(op, inst, sol, tracer)
        op.inst_text = self.text

    def _oracle_op(self, op: Op, j: int, tracer):
        rng = random.Random(self.solver_seed(j))
        ids = sorted(rng.sample(range(1, self.n_requests + 1), self.cfg["sub_requests"]))
        text = sub_instance_text(self.text, ids)
        op.label += f" ids={ids}"
        inst = self.model.load_instance(text)
        t0 = time.perf_counter()
        with active(tracer):
            sol, obj = self.oracle.exact_solve(inst)
        op.plan_s = time.perf_counter() - t0
        self._check_plan(op, inst, sol, obj, True)
        self._validate(op, inst, sol, tracer)
        # Cross-check on a fresh instance: a heuristic never beats the optimum.
        inst2 = self.model.load_instance(text)
        vsol, vev, history, elapsed, _ = self._timed_solve(
            inst2, self.cfg["check_iterations"], self.solver_seed(j), None, tracer)
        op.vns_iters = len(history)
        op.vns_s = op.check_s = elapsed
        op.last_improvement_iter = last_improvement(history)
        self.model.check_solution_structure(inst2, vsol)
        if vev.feasible and vev.objective < obj - EPS_TOL:
            op.errors.append(f"VNS objective {vev.objective} beats exact optimum {obj}")
        op.inst_text = text

    def _timed_solve(self, inst, n_iter, seed, target, tracer):
        hit = None
        t0 = time.perf_counter()

        def on_iteration(n, best, _pen):
            nonlocal hit
            if hit is None and target is not None and best <= target + EPS_TOL:
                hit = (n, time.perf_counter() - t0)

        with active(tracer):
            sol, ev, history = self.vns.solve(inst, n_iter, seed=seed,
                                              on_iteration=on_iteration)
        return sol, ev, history, time.perf_counter() - t0, hit

    def _check_plan(self, op: Op, inst, sol, objective: float, feasible: bool):
        """The plan is well formed, and the reference evaluator, the memoised
        one and what the solver returned agree on objective and feasibility."""
        self.model.check_solution_structure(inst, sol)
        ref = self.evaluation.evaluate_solution(inst, sol)
        fast = self.evaluation.solution_cost(inst, sol)
        if max(abs(ref.objective - fast.objective), abs(ref.objective - objective)) > EPS_TOL:
            op.errors.append(f"objectives disagree: evaluate_solution {ref.objective}, "
                             f"solution_cost {fast.objective}, returned {objective}")
        if not ref.feasible == fast.feasible == feasible:
            op.errors.append(f"feasibility disagrees: evaluate_solution {ref.feasible}, "
                             f"solution_cost {fast.feasible}, returned {feasible}")
        op.objective, op.m, op.distance = ref.objective, ref.amr_count, ref.total_distance
        op.plan = sol.amrs
        op.nodes = sum(len(trip) - 1 for trip in sol.trips())

    def _validate(self, op: Op, inst, sol, tracer):
        t0 = time.perf_counter()
        with active(tracer):
            report = self.oracle.mc_validate(inst, sol, MC_SAMPLES, seed=MC_SEED)
        op.mc_s = time.perf_counter() - t0
        op.mc_samples = MC_SAMPLES
        ids = [s.id for s in report.per_request]
        if sorted(ids) != sorted(r.id for r in inst.requests):
            op.errors.append("mc_validate did not report every request once")
        if any(not 0.0 <= s.violation_frequency <= 1.0 for s in report.per_request):
            op.errors.append("mc_validate frequency outside [0, 1]")
        eps = inst.cost.epsilon
        allowance = eps + 3.0 * math.sqrt(eps * (1.0 - eps) / MC_SAMPLES) + 0.02
        op.late = tuple(s.id for s in report.per_request
                        if s.violation_frequency > allowance)


def active(tracer):
    return nullcontext() if tracer is None else tracer.active()


def last_improvement(history) -> int:
    """1-based iteration at which the best objective last fell (0: never feasible)."""
    last, best = 0, math.inf
    for n, value in enumerate(history, start=1):
        if value < best:
            last, best = n, value
    return last


def sub_instance_text(text: str, ids) -> str:
    """JSON of the instance restricted to request ids (node order kept)."""
    data = json.loads(text)
    n = len(data["requests"])
    by_id = {r["id"]: i + 1 for i, r in enumerate(data["requests"])}
    keep = [0] + [by_id[i] for i in ids] + list(range(n + 1, len(data["distance"])))
    data["requests"] = [data["requests"][by_id[i] - 1] for i in ids]
    for key in ("distance", "floor_diff"):
        data[key] = [[data[key][a][b] for b in keep] for a in keep]
    data.pop("shift_start", None)
    return json.dumps(data)


# ---------------------------------------------------------------------------
# measurements


_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import amrsched
amrsched.load_instance(sys.argv[2])
print(time.perf_counter() - t0)
"""


def measure_setup(instance_path: str) -> list[float]:
    """Import plus load_instance in fresh interpreters, one at a time.  The
    first child is a warm-up (it may compile bytecode) and is not counted."""
    samples = []
    for k in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, SRC, instance_path],
                             capture_output=True, text=True, timeout=120, cwd=ROOT,
                             check=True)
        if k:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def miss_microbench(bench: Bench, ops, reps: int = 15):
    """Cold solution_cost and check_solution_structure on each op's plan, each
    repetition on a freshly loaded instance; median microseconds per node."""
    from amrsched.model import Solution
    miss, check = [], []
    for op in ops:
        if op.plan is None:
            continue
        sol = Solution(amrs=op.plan)
        for _ in range(reps):
            inst = bench.model.load_instance(op.inst_text)
            t0 = time.perf_counter()
            bench.model.check_solution_structure(inst, sol)
            t1 = time.perf_counter()
            bench.evaluation.solution_cost(inst, sol)
            t2 = time.perf_counter()
            check.append((t1 - t0) * 1e6 / op.nodes)
            miss.append((t2 - t1) * 1e6 / op.nodes)
    return statistics.median(miss), statistics.median(check)


def percentile_line(name: str, values, unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"# {name}: n={n} p50={statistics.median(values):.6g} {unit}"
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
        line += f" p{p}={q:.6g} {unit}"
    return line


def environment() -> str:
    import numpy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a"
    return (f"# env: nproc={nproc} cpu_count={os.cpu_count()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"commit={commit} machine={platform.machine()}")


# ---------------------------------------------------------------------------
# runs


def calibration_loops():
    """Two fixed loops whose times track the host's speed for the program's
    kinds of work: dict lookups with tuple keys over a table of cache size,
    plus float arithmetic (the solver), and normal draws with elementwise
    array operations (mc_validate).  Each call returns its wall time."""
    import numpy
    table = {(k * 7919 % 65536, k % 13): float(k) for k in range(65536)}
    rng = numpy.random.default_rng(0)

    def python_loop() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(6000):
            k = i * 40503 % 65536
            acc += table.get((k * 7919 % 65536, k % 13), 0.0) + math.sqrt(i) * len((k, i))
        return time.perf_counter() - t0

    def numpy_loop() -> float:
        t0 = time.perf_counter()
        t = numpy.zeros(20000)
        for _ in range(4):
            leg = rng.normal(1.0, 2.0, 20000)
            numpy.maximum(leg, 0.0, out=leg)
            t = t + leg
        int((t > 3.0).sum())
        return time.perf_counter() - t0

    return python_loop, numpy_loop


def run_untraced(bench: Bench, seconds: float):
    loops = calibration_loops()
    calibration = ([], [])

    def calibrate(times):
        for loop, samples in zip(loops, calibration):
            samples.extend(loop() for _ in range(times))

    calibrate(10)
    setup = measure_setup(os.path.join(INSTANCES, bench.cfg["instance"]))
    panel = bench.cfg["panel"]
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < panel or time.perf_counter() < deadline:
        calibrate(CALIBRATION_PER_OP)
        ops.append(bench.run_op(len(ops)))
    good = [op for op in ops if not op.errors]
    attempted, failed = len(ops), len(ops) - len(good)
    panel_ok = [op for op in ops[:panel] if not op.errors]
    if not good or not panel_ok:
        return None

    lines = []
    if bench.name == "h12-paper":
        attempted += 1
        best = min(panel_ok, key=lambda op: op.objective)
        if not (abs(best.objective - TARGET_OBJECTIVE) <= EPS_TOL and best.m == 2
                and abs(best.distance - 1190.0) <= EPS_TOL):
            failed += 1
            print(f"check failed: best of panel is {best.objective} "
                  f"(m={best.m}, {best.distance} m), expected 71.90 (m=2, 1190 m)",
                  file=sys.stderr)

    plan_times = [op.plan_s for op in good]
    times = {"setup_s": statistics.median(setup),
             "plan_s": sum(plan_times) / len(plan_times)}
    rates = {"solve_iters_per_s": sum(op.vns_iters for op in good) / sum(op.vns_s for op in good),
             "validate_samples_per_s": (sum(op.mc_samples for op in good)
                                        / sum(op.mc_s for op in good))}
    # The host's speed drifts by tens of percent over minutes, so timings are
    # reported at a reference speed, measured by fixed loops that run between
    # the operations of this same run: the numpy loop for mc_validate's rate,
    # the Python loop for the rest.
    py_scale, np_scale = (ref / statistics.mean(samples)
                          for ref, samples in zip(CALIBRATION_REF_S, calibration))
    metrics = {"setup_s": times["setup_s"] * py_scale,
               "plan_s": times["plan_s"] * py_scale,
               "solve_iters_per_s": rates["solve_iters_per_s"] / py_scale,
               "validate_samples_per_s": rates["validate_samples_per_s"] / np_scale}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["best_objective"] = min(op.objective for op in panel_ok)
    lines.append("# calibration loops (Python, numpy): mean " + ", ".join(
        f"{statistics.mean(samples) * 1e3:.4f} ms" for samples in calibration)
        + f" over {len(calibration[0])} samples each; reference "
        + ", ".join(f"{ref * 1e3:g} ms" for ref in CALIBRATION_REF_S)
        + f"; scale {py_scale:.6f}, {np_scale:.6f}")
    lines.append("# wall clock, before scaling: " + ", ".join(
        f"{name}={value:.6g}" for name, value in {**times, **rates}.items()))
    lines.append(f"# setup samples (s): {' '.join(f'{s:.6f}' for s in setup)}")
    lines.append(percentile_line("plan_s (wall clock)", plan_times, "s"))
    lines.append(f"# operations: {attempted} attempted, {failed} failed, "
                 f"failed_share={failed / attempted:.6g} (1)")
    lines.extend(panel_report(bench, panel_ok))
    return metrics, lines, attempted, failed


def panel_report(bench: Bench, ops) -> list[str]:
    """The remaining end-to-end figures over a fixed set of operations, so that
    they repeat exactly for a seed; they vary too much between seeds to gate."""
    objs = [op.objective for op in ops]
    late = [(op.label, op.late) for op in ops if op.late]
    out = [f"# fixed operations: {len(ops)}, solver seeds from {bench.solver_seed(0)}",
           f"# objective per op: {objs}",
           f"# median_objective = {statistics.median(objs):.10g} cost",
           f"# mc_late_requests = {sum(len(ids) for _, ids in late)} count "
           f"(MC {MC_SAMPLES} samples, allowance eps + 3se + 0.02) {late}"]
    if bench.name == "h12-paper":
        iters = [op.iters_to_target if op.iters_to_target is not None else math.inf
                 for op in ops]
        times = [op.time_to_target_s if op.time_to_target_s is not None else math.inf
                 for op in ops]
        out.append(f"# iters_to_target = {statistics.median(iters)} count "
                   f"(per op {iters})")
        out.append(f"# time_to_target_s = {statistics.median(times):.6g} s")
    if bench.name == "oracle-verify":
        out.append(f"# oracle_s_p50 = {statistics.median(op.plan_s for op in ops):.6g} s")
    out.append(f"# last_improvement_iter per op: {[op.last_improvement_iter for op in ops]}")
    return out


PER_LAYER_SPANS = (
    "evaluation.solution_cost", "model.check_solution_structure",
    "model.normalize_solution", "operators.shake_2opt_l",
    "operators.swap_star", "operators.two_opt_star", "operators.relocation_star",
    "vns.local_search", "operators.amr_decrease", "vns.feasible_operation", "oracle.mc_validate", "evaluation.evaluate_solution",
)

REPAIRS = ("depot_insert_repair", "charging_insert_repair")


def run_traced(bench: Bench):
    from spans import Tracer
    tracer = Tracer()
    pairs = []
    attempted = failed = 0
    for j in range(bench.cfg["trace_panel"]):
        plain = bench.run_op(j)
        traced = bench.run_op(j, tracer)
        attempted += 2
        if plain.fingerprint() != traced.fingerprint():
            traced.errors.append("traced run differs from the untraced run")
            print(f"{traced.label}: {traced.errors[-1]}", file=sys.stderr)
        failed += bool(plain.errors) + bool(traced.errors)
        pairs.append((plain, traced))
    if failed == attempted:
        return None
    plain_ops = [p for p, _ in pairs]
    miss_us, check_us = miss_microbench(bench, plain_ops)

    def ratio(num, den):
        return num / den if den else 0.0

    t, c = tracer, tracer.counts
    metrics = {}
    for span in PER_LAYER_SPANS:
        metrics[f"{span}.calls"] = t.calls(span)
        metrics[f"{span}.self_s"] = t.self_s(span)
    sc_calls = t.calls("evaluation.solution_cost")
    # The two repairs are not called at all on some workloads; their calls are
    # reported alone and their time together with the always-called merge.
    for name in REPAIRS:
        metrics[f"operators.{name}.calls"] = t.calls(f"operators.{name}")
    metrics["operators.feasibility.self_s"] = sum(
        t.self_s(f"operators.{name}") for name in REPAIRS + ("amr_decrease",))
    metrics["evaluation.solution_cost.misses"] = c["evaluation.solution_cost.misses"]
    metrics["evaluation.solution_cost.hit_ratio"] = ratio(
        sc_calls - c["evaluation.solution_cost.misses"], sc_calls)
    metrics["evaluation.solution_cost.miss_us_per_node"] = miss_us
    metrics["model.check_solution_structure.us_per_node"] = check_us
    for name in ("swap_star", "two_opt_star", "relocation_star"):
        metrics[f"operators.{name}.improve_ratio"] = ratio(
            c[f"operators.{name}.improved"], t.calls(f"operators.{name}"))
    metrics["vns.shaking.kept_ratio"] = ratio(c["vns.shaking.kept"], t.calls("vns.shaking"))
    metrics["vns.greedy_initial.self_s"] = t.self_s("vns.greedy_initial")
    metrics["vns.solve.last_improvement_iter"] = statistics.median(
        op.last_improvement_iter for _, op in pairs)
    metrics["oracle.exact_solve.repair_reject_ratio"] = ratio(
        c["oracle.exact_solve.repair_rejects"], c["oracle.exact_solve.repairs"])
    metrics["oracle.mc_validate.late_requests"] = sum(len(op.late) for _, op in pairs)
    metrics["stochastic.calls"], metrics["stochastic.self_s"] = t.layer_totals("stochastic")
    plain_s = sum(p.program_s for p, _ in pairs)
    traced_s = sum(q.program_s for _, q in pairs)
    metrics["trace.overhead_share"] = traced_s / plain_s - 1.0

    lines = [f"# traced panel: {len(pairs)} operations, each run untraced then traced",
             *panel_report(bench, [op for _, op in pairs]),
             f"# untraced program time {plain_s:.6f} s, traced {traced_s:.6f} s",
             f"# solution_cost miss without the structure check: "
             f"{miss_us - check_us:.6g} us/node (miss {miss_us:.6g}, check {check_us:.6g})",
             f"# exact_solve repairs: {c['oracle.exact_solve.repairs']} "
             f"({c['oracle.exact_solve.repair_rejects']} rejected)",
             f"# {'span':<38} {'calls':>10} {'self_s':>12} {'total_s':>12}"]
    lines.extend("# " + row for row in t.table())
    return metrics, lines, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(SRC, "amrsched", "__init__.py"),
              os.path.join(INSTANCES, WORKLOADS[args.workload]["instance"])]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"run from the root of an amrsched checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import amrsched
    if not os.path.abspath(amrsched.__file__).startswith(SRC + os.sep):
        print(f"imported amrsched from {amrsched.__file__}, not {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    print(f"# amrsched benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(environment())
    print("# load: one process, one thread, closed loop (one operation at a time)")
    t0 = time.perf_counter()
    result = run_traced(bench) if args.trace else run_untraced(bench, args.seconds)
    if result is None:
        print("every operation failed; no result", file=sys.stderr)
        return 1
    metrics, lines, attempted, failed = result
    for line in lines:
        print(line)
    units = dict(END_TO_END) if not args.trace else PER_LAYER_UNITS
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    print(f"# wall {time.perf_counter() - t0:.3f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _per_layer_units():
    units = {}
    for span in PER_LAYER_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({
        "operators.depot_insert_repair.calls": "count",
        "operators.charging_insert_repair.calls": "count",
        "operators.feasibility.self_s": "s",
        "evaluation.solution_cost.misses": "count",
        "evaluation.solution_cost.hit_ratio": "share",
        "evaluation.solution_cost.miss_us_per_node": "us/node",
        "model.check_solution_structure.us_per_node": "us/node",
        "operators.swap_star.improve_ratio": "share",
        "operators.two_opt_star.improve_ratio": "share",
        "operators.relocation_star.improve_ratio": "share",
        "vns.shaking.kept_ratio": "share",
        "vns.greedy_initial.self_s": "s",
        "vns.solve.last_improvement_iter": "count",
        "oracle.exact_solve.repair_reject_ratio": "share",
        "oracle.mc_validate.late_requests": "count",
        "stochastic.calls": "count",
        "stochastic.self_s": "s",
        "trace.overhead_share": "share",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


if __name__ == "__main__":
    sys.exit(main())
