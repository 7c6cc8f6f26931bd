"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line; run with `pytest -s`
(or read the captured output) for the scoreboard.  The bench sweep is shared
between criteria 1 and 5 through a module fixture.
"""

import dataclasses
import functools
import json
import math
import random
import time
from multiprocessing import Pool

import pytest

from amrsched.cli import _bench_task
from amrsched.evaluation import (evaluate_solution, evaluate_trip,
                                 solution_cost, solution_to_dict)
from amrsched.model import (DEPOT, Gaussian, load_instance, scale_distance,
                            scale_variance, serialize_instance,
                            solution_from_ids)
from amrsched.operators import amr_decrease, charging_insert_repair, depot_insert_repair
from amrsched.oracle import exact_solve, mc_validate
from amrsched.stochastic import truncated_start, violation_probability
from amrsched.vns import feasible_operation, solve
from helpers import (mc_truncated_moments, paper_optimum, random_instance,
                     random_solution)

N_VALUES = (800, 1000, 2000, 4000, 5000)
SEEDS = tuple(range(10))
JOBS = 2


def _solve_task(task):
    """Pool worker: solve and report (seed, f, m, charging visits, feasible)."""
    payload, n_iters, seed = task
    inst = load_instance(payload)
    sol, ev, _ = solve(inst, n_iters, seed=seed)
    charges = sum(1 for t in sol.trips() for node in t if inst.is_charging(node))
    f = ev.objective if ev.feasible else math.inf
    return seed, f, ev.amr_count, charges, ev.feasible


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:>2}] FAIL  {desc}")
                raise
            print(f"\n[criterion {num:>2}] PASS  {desc}")
            return result
        return inner
    return wrap


@pytest.fixture(scope="module")
def bench(hospital12, hospital12_path):
    # sanity-pin the experiment configuration the criteria assume
    assert hospital12.cost.epsilon == 0.05
    assert hospital12.cost.fixed_per_amr == 30.0
    assert hospital12.cost.per_meter == 0.01
    assert hospital12.stoch.sigma0_sq == 4.0 and hospital12.stoch.sigmaf_sq == 16.0
    payload = serialize_instance(hospital12)
    tasks = [(payload, n, s) for n in N_VALUES for s in SEEDS]
    t0 = time.perf_counter()
    with Pool(processes=JOBS) as pool:
        rows = pool.map(_bench_task, tasks)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


@criterion(1, "Table-6 reproduction: best-of-10 f(4000)=71.90, f(1000)<=72.30, "
              "nonincreasing in N, under 60 s")
@pytest.mark.slow
def test_criterion_01_table6(bench):
    rows, elapsed = bench
    best = {}
    for n_iters, seed, m, dist, f, _t in rows:
        if f < best.get(n_iters, (math.inf,))[0]:
            best[n_iters] = (f, m, dist)
    f4000, m4000, d4000 = best[4000]
    assert abs(f4000 - 71.90) < 1e-9
    assert m4000 == 2
    assert abs(d4000 - 1190.0) < 1e-9
    assert best[1000][0] <= 72.30 + 1e-9
    series = [best[n][0] for n in N_VALUES]
    assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
    assert elapsed < 60.0


@criterion(2, "§ optimum certificate: listed routes evaluate to 71.9, feasible, "
              "and exact_solve proves 71.9 optimal")
def test_criterion_02_optimum_certificate(hospital12):
    ev = evaluate_solution(hospital12, paper_optimum(hospital12))
    assert abs(ev.objective - 71.9) <= 1e-9
    assert ev.feasible is True
    assert ev.amr_count == 2 and abs(ev.total_distance - 1190.0) <= 1e-9
    sol, objective = exact_solve(hospital12)
    assert abs(objective - 71.9) <= 1e-9
    exact = evaluate_solution(hospital12, sol)
    assert exact.feasible is True and exact.amr_count == 2
    assert exact.objective == objective


@criterion(3, "oracle equivalence on 50 random instances (<=6 requests)")
@pytest.mark.slow
def test_criterion_03_oracle_equivalence():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    exact_hits = 0
    for case in range(50):
        inst = random_instance(rng, rng.randint(2, 6),
                               tight_windows=case % 2 == 0)
        exact_obj = exact_solve(inst)[1]
        best = math.inf
        for seed in range(5):
            _sol, ev, _ = solve(inst, 600, seed=seed)
            if ev.feasible:
                best = min(best, ev.objective)
        assert best < math.inf, f"case {case}: VNS found nothing feasible"
        assert best >= exact_obj - 1e-9, f"case {case}: heuristic beat the oracle"
        if abs(best - exact_obj) <= 1e-6:
            exact_hits += 1
        else:
            assert (best - exact_obj) / exact_obj <= 0.02, \
                f"case {case}: gap over 2% ({best} vs {exact_obj})"
    elapsed = time.perf_counter() - t0
    assert exact_hits >= 45, f"only {exact_hits}/50 matched within 1e-6"
    assert elapsed < 300.0


@criterion(4, "truncated-normal moments vs 1e7-sample Monte Carlo on the z grid")
def test_criterion_04_truncation_accuracy():
    mu, sigma = 100.0, 7.0
    for z in (-3, -1, 0, 1, 3):
        e = mu + z * sigma
        g = truncated_start(Gaussian(mu, sigma * sigma), e)
        mc_mean, mc_var = mc_truncated_moments(mu, sigma, e, 10_000_000,
                                               seed=1000 + z)
        assert abs(g.mean - mc_mean) / abs(mc_mean) <= 0.005
        assert abs(g.variance - mc_var) / abs(mc_var) <= 0.02


@criterion(5, "chance calibration: MC violation within eps + 3se + 0.02 on the "
              "criterion-1 best plan")
@pytest.mark.slow   # it takes criterion 1's sweep for its best plan
def test_criterion_05_chance_calibration(hospital12, bench):
    rows, _ = bench
    best_row = min((r for r in rows if r[0] == 4000), key=lambda r: r[4])
    sol, ev, _ = solve(hospital12, 4000, seed=best_row[1])
    assert abs(ev.objective - best_row[4]) < 1e-9
    report = mc_validate(hospital12, sol, 100_000, seed=0)
    samples = 100_000
    bound = 0.05 + 3 * math.sqrt(0.05 * 0.95 / samples) + 0.02
    for stat in report.per_request:
        assert stat.violation_frequency <= bound, \
            f"request {stat.id}: {stat.violation_frequency} > {bound}"


@criterion(6, "proposition suites: hard-order violations, monotone tail, "
              "merge saves exactly one fixed cost")
def test_criterion_06_propositions():
    # (a) serving a later-opening request first always breaks the earlier close
    rng = random.Random(31337)
    for case in range(1000):
        inst = random_instance(rng, rng.randint(2, 7))
        nodes = list(range(1, inst.n_requests + 1))
        early, late = rng.sample(nodes, 2)
        reqs = list(inst.requests)
        reqs[early - 1] = dataclasses.replace(
            reqs[early - 1], window_open=29_000.0, window_close=30_000.0)
        reqs[late - 1] = dataclasses.replace(
            reqs[late - 1], window_open=30_500.0 + rng.uniform(0, 2000),
            window_close=36_000.0)
        inst = dataclasses.replace(inst, requests=tuple(reqs))
        others = [n for n in nodes if n not in (early, late)]
        rng.shuffle(others)
        cut = rng.randint(0, len(others))
        body = others[:cut] + [late, early] + others[cut:]
        te = evaluate_trip(inst, (DEPOT, *body, DEPOT),
                           inst.shift_start, 1.0, 1e9)
        assert inst.requests[early - 1].id in te.violating_requests, \
            f"case {case}: hard-order violation missed"

    # (b) analytic violation probability strictly decreases in h
    arrival = Gaussian(35_000.0, 400.0)
    grid = [34_900.0 + 4.0 * k for k in range(100)]
    probs = [violation_probability(arrival, h) for h in grid]
    assert all(a > b for a, b in zip(probs, probs[1:]))

    # (c) every kept merge saves exactly one fixed cost per removed AMR
    rng = random.Random(23)
    merges = 0
    for _ in range(300):
        inst = random_instance(rng, rng.randint(2, 7))
        sol = random_solution(rng, inst)
        before = solution_cost(inst, sol)
        after_sol = amr_decrease(inst, sol)
        after = solution_cost(inst, after_sol)
        assert after.distance == pytest.approx(before.distance, abs=1e-9)
        saved = before.m - after.m
        assert after.objective == pytest.approx(
            before.objective - saved * inst.cost.fixed_per_amr, abs=1e-9)
        merges += saved
    assert merges > 0, "the sweep never exercised a merge"


@criterion(7, "repair completeness and idempotence on 1000 infeasible solutions")
def test_criterion_07_repair_completeness():
    rng = random.Random(555)
    done = 0
    attempts = 0
    while done < 1000:
        attempts += 1
        assert attempts < 20_000, "generator starved"
        inst = random_instance(rng, rng.randint(2, 9),
                               tight_battery=attempts % 2 == 0)
        sol = random_solution(rng, inst)
        if solution_cost(inst, sol).flag_failures == 0:
            continue
        out = feasible_operation(inst, sol)
        ev = evaluate_solution(inst, out)
        assert all(t.capacity_ok and t.battery_ok for t in ev.per_trip)
        d1 = depot_insert_repair(inst, out)
        assert depot_insert_repair(inst, d1) == d1
        c1 = charging_insert_repair(inst, out)
        assert charging_insert_repair(inst, c1) == c1
        done += 1


@criterion(8, "variance scaling trend: m nondecreasing in n, f=71.9 at n in {1,10}")
@pytest.mark.slow
def test_criterion_08_variance_trend(hospital12):
    results = {}
    for n in (1, 10, 100):
        scaled = scale_variance(hospital12, n)
        payload = serialize_instance(scaled)
        tasks = [(payload, 2000, s) for s in SEEDS]
        with Pool(processes=JOBS) as pool:
            rows = pool.map(_solve_task, tasks)
        best = min(rows, key=lambda r: r[1])
        results[n] = (best[1], best[2])  # (f, m)
    ms = [results[n][1] for n in (1, 10, 100)]
    assert ms == sorted(ms), f"AMR count not nondecreasing: {ms}"
    for n in (1, 10):
        f, m = results[n]
        assert abs(f - 71.9) <= 1e-9, f"n={n}: f={f}"
        assert m == 2


@criterion(9, "distance scaling trend: m and charging visits nondecreasing in k, "
              "no charging at k=1")
@pytest.mark.slow
def test_criterion_09_distance_trend(hospital12):
    ms = []
    charges = []
    for k in (1, 2, 4, 6, 8):
        scaled = scale_distance(hospital12, k)
        payload = serialize_instance(scaled)
        tasks = [(payload, 2000, s) for s in SEEDS]
        with Pool(processes=JOBS) as pool:
            rows = pool.map(_solve_task, tasks)
        feasible_rows = [r for r in rows if r[4]]
        assert feasible_rows, f"k={k}: nothing feasible"
        best = min(feasible_rows, key=lambda r: r[1])
        ms.append(best[2])
        charges.append(best[3])
    assert ms == sorted(ms), f"AMR counts not nondecreasing: {ms}"
    assert charges == sorted(charges), f"charges not nondecreasing: {charges}"
    assert charges[0] == 0


@criterion(10, "determinism: identical (instance, N, seed) gives byte-identical JSON")
def test_criterion_10_determinism(hospital12):
    blobs = []
    for _ in range(2):
        sol, ev, _ = solve(hospital12, 500, seed=7)
        blobs.append(json.dumps(solution_to_dict(hospital12, sol, ev),
                                indent=2, sort_keys=True).encode())
    assert blobs[0] == blobs[1]


@criterion(11, "chained-trip calibration: MC violation within eps + 3se + 0.02 on "
               "the hospital64 best plans of seeds 0-7 (N=400)")
def test_criterion_11_chained_trip_calibration(hospital64):
    """Later trips start from the depot-arrival law of the trip before, so
    the chance constraints of multi-trip plans hold when replayed."""
    samples = 200_000
    eps = hospital64.cost.epsilon
    bound = eps + 3 * math.sqrt(eps * (1 - eps) / samples) + 0.02
    for seed in range(8):
        sol, ev, _ = solve(hospital64, 400, seed=seed)
        assert ev.feasible, f"seed {seed}: best plan infeasible"
        assert any(len(amr) > 1 for amr in sol.amrs), f"seed {seed}: no reload"
        report = mc_validate(hospital64, sol, samples, seed=0)
        for stat in report.per_request:
            assert stat.violation_frequency <= bound, \
                f"seed {seed} request {stat.id}: {stat.violation_frequency} > {bound}"
