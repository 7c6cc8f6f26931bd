import dataclasses
import math
import random

import pytest

from amrsched.model import Gaussian, Solution, solution_from_ids
from amrsched.evaluation import evaluate_solution, solution_cost
from amrsched.oracle import NoFeasibleSolution, exact_solve, mc_validate
from amrsched.vns import solve
from helpers import paper_optimum, random_instance, sub_instance


def test_exact_single_request():
    rng = random.Random(0)
    inst = random_instance(rng, 1)
    sol, obj = exact_solve(inst)
    assert obj == pytest.approx(
        inst.cost.fixed_per_amr + inst.cost.per_meter * 2 * inst.distance[0][1])
    assert sol.amrs == (((0, 1, 0),),)


def test_exact_two_disjoint_tight_windows_need_two_amrs():
    rng = random.Random(5)
    inst = random_instance(rng, 2)
    # identical tight windows, long service: neither sequencing nor trip
    # chaining can serve both with one AMR
    from amrsched.model import default_shift_start
    reqs = tuple(dataclasses.replace(r, window_open=29400.0,
                                     window_close=29900.0,
                                     service=Gaussian(450.0, 36.0))
                 for r in inst.requests)
    shift = default_shift_start(reqs, inst.distance, inst.floor_diff,
                                inst.amr, inst.stoch)
    inst = dataclasses.replace(inst, requests=reqs, shift_start=shift)
    sol, obj = exact_solve(inst)
    assert len(sol.amrs) == 2
    round_trips = 2 * (inst.distance[0][1] + inst.distance[0][2])
    assert obj == pytest.approx(2 * inst.cost.fixed_per_amr
                                + inst.cost.per_meter * round_trips)


def test_exact_matches_vns_on_hospital_subset(hospital12):
    sub = sub_instance(hospital12, [1, 2, 3, 4])
    sol, obj = exact_solve(sub)
    assert evaluate_solution(sub, sol).feasible
    vns_best = min(solve(sub, 300, seed=s)[1].objective for s in range(10))
    assert obj == pytest.approx(vns_best, abs=1e-9)


def test_exact_never_above_heuristic():
    rng = random.Random(123)
    for _ in range(8):
        inst = random_instance(rng, rng.randint(2, 5))
        exact_obj = exact_solve(inst)[1]
        _, ev, _ = solve(inst, 150, seed=0)
        if ev.feasible:
            assert exact_obj <= ev.objective + 1e-9


def test_exact_refuses_oversize(hospital12):
    with pytest.raises(ValueError, match="refuses"):
        exact_solve(hospital12, max_requests=9)
    rng = random.Random(1)
    inst = random_instance(rng, 4)
    with pytest.raises(ValueError):
        exact_solve(inst, max_requests=3)


def test_exact_reports_infeasible():
    rng = random.Random(1)
    inst = random_instance(rng, 2)
    reqs = tuple(dataclasses.replace(r, window_open=10.0, window_close=20.0)
                 for r in inst.requests)
    inst = dataclasses.replace(inst, requests=reqs, shift_start=50_000.0)
    with pytest.raises(NoFeasibleSolution):
        exact_solve(inst)


def test_exact_empty_instance():
    import json
    from amrsched.model import load_instance
    data = {
        "requests": [], "depot": {"floor": 0}, "charging": [],
        "distance": [[0.0]], "floor_diff": [[0.0]],
        "amr": {"capacity": 20, "speed": 1, "consume_rate": 1e-5,
                "charge_rate": 1e-4, "alpha": 0, "beta": 0.8,
                "battery_init": 1},
        "cost": {"xi1": 30, "xi2": 0.01, "epsilon": 0.05},
    }
    inst = load_instance(json.dumps(data))
    sol, obj = exact_solve(inst)
    assert obj == 0.0 and sol.amrs == ()


# ---------------------------------------------------------------------------
# Monte Carlo validation


def test_mc_zero_variance_plan_is_exact(hospital12):
    inst = dataclasses.replace(
        hospital12,
        requests=tuple(dataclasses.replace(r, service=Gaussian(r.service.mean, 0.0))
                       for r in hospital12.requests),
        stoch=dataclasses.replace(hospital12.stoch, sigma0_sq=0.0, sigmaf_sq=0.0))
    sol = paper_optimum(inst)
    assert evaluate_solution(inst, sol).feasible
    report = mc_validate(inst, sol, 2000, seed=0)
    assert report.max_violation == 0.0
    assert all(s.violation_frequency == 0.0 for s in report.per_request)


def test_mc_boundary_first_stop_hits_epsilon():
    """One request whose window close sits exactly at the arrival's 0.95
    quantile: the empirical lateness must land on 5%."""
    rng = random.Random(8)
    inst = random_instance(rng, 1)
    mu = inst.shift_start + inst.travel_mean[0][1]
    sigma = math.sqrt(inst.travel_var[0][1])
    h = mu + 1.6448536269514722 * sigma
    reqs = (dataclasses.replace(inst.requests[0], window_open=0.0,
                                window_close=h),)
    inst = dataclasses.replace(inst, requests=reqs)
    sol = solution_from_ids(inst, [[[1]]])
    report = mc_validate(inst, sol, 1_000_000, seed=42)
    assert report.per_request[0].violation_frequency == pytest.approx(0.05,
                                                                      abs=0.002)
    # no truncation upstream: the analytic mean is exact
    assert report.per_request[0].mean_arrival == pytest.approx(
        mu, abs=3 * sigma / math.sqrt(1_000_000))


def test_mc_paper_optimum_within_allowance(hospital12):
    sol = paper_optimum(hospital12)
    report = mc_validate(hospital12, sol, 20_000, seed=7)
    assert report.max_violation <= hospital12.cost.epsilon + 0.02
    assert len(report.per_request) == 12


def test_mc_mean_arrivals_track_analytic(hospital12):
    sol = paper_optimum(hospital12)
    ev = evaluate_solution(hospital12, sol)
    report = mc_validate(hospital12, sol, 100_000, seed=1)
    analytic = {}
    idx = 0
    for amr in sol.amrs:
        for trip in amr:
            te = ev.per_trip[idx]
            idx += 1
            for node, timing in zip(trip, te.timings):
                if hospital12.is_request(node):
                    analytic[hospital12.request_at(node).id] = timing.arrival
    for stat in report.per_request:
        ana = analytic[stat.id]
        se = math.sqrt(max(ana.variance, 1e-9) / report.samples)
        tol = max(3 * se, 0.02 * abs(ana.mean - hospital12.shift_start))
        assert abs(stat.mean_arrival - ana.mean) <= tol + 1e-6


def test_mc_refuses_zero_samples(hospital12):
    with pytest.raises(ValueError):
        mc_validate(hospital12, paper_optimum(hospital12), 0)


def test_mc_deterministic(hospital12):
    sol = paper_optimum(hospital12)
    a = mc_validate(hospital12, sol, 5000, seed=3)
    b = mc_validate(hospital12, sol, 5000, seed=3)
    assert a == b
