import dataclasses
import json
import math
import random
import time

import pytest

from amrsched.model import DEPOT, Solution, load_instance, solution_from_ids
from amrsched.evaluation import evaluate_solution, solution_cost, solution_to_dict
from amrsched.vns import (feasible_operation, greedy_initial, local_search,
                          shaking, solve)
from amrsched.operators import shake_2opt_l
from helpers import battery_starved_payload, paper_optimum, random_instance


def test_greedy_single_request():
    rng = random.Random(0)
    inst = random_instance(rng, 1)
    sol = greedy_initial(inst, random.Random(0))
    assert len(sol.amrs) == 1
    assert sol.amrs[0][0] == (DEPOT, 1, DEPOT)
    ev = evaluate_solution(inst, sol)
    assert ev.objective == pytest.approx(
        inst.cost.fixed_per_amr + inst.cost.per_meter * 2 * inst.distance[0][1])


def test_greedy_covers_with_legal_loads(hospital12):
    sol = greedy_initial(hospital12, random.Random(0))
    served = sorted(hospital12.request_at(n).id
                    for n in sol.stops() if hospital12.is_request(n))
    assert served == list(range(1, 13))
    for trip in sol.trips():
        load = sum(hospital12.demand[n] for n in trip)
        assert load <= hospital12.amr.capacity + 1e-9


def test_greedy_deterministic(hospital12):
    assert (greedy_initial(hospital12, random.Random(0))
            == greedy_initial(hospital12, random.Random(0)))


def test_local_search_keeps_local_optimum(hospital12):
    opt = paper_optimum(hospital12)
    for seed in range(8):
        assert local_search(hospital12, opt, random.Random(seed)) == opt


def test_local_search_fixes_one_swap_violation():
    rng = random.Random(9)
    inst = random_instance(rng, 3)
    windows = [(29400.0, 30000.0), (38400.0, 39600.0), (38400.0, 42000.0)]
    reqs = tuple(dataclasses.replace(r, window_open=o, window_close=c)
                 for r, (o, c) in zip(inst.requests, windows))
    inst = dataclasses.replace(inst, requests=reqs)
    bad = solution_from_ids(inst, [[[2, 1, 3]]])   # 1 served after 2: hopeless
    assert not evaluate_solution(inst, bad).feasible
    swapped = solution_from_ids(inst, [[[1, 2, 3]]])
    assert evaluate_solution(inst, swapped).feasible
    out = local_search(inst, bad, random.Random(0))
    assert solution_cost(inst, out).penalized < solution_cost(inst, bad).penalized


def test_local_search_single_request_is_noop():
    rng = random.Random(3)
    inst = random_instance(rng, 1)
    sol = solution_from_ids(inst, [[[1]]])
    assert local_search(inst, sol, random.Random(0)) == sol


def test_shaking_delta_rule(hospital12):
    from amrsched.operators import shake_cost
    inst = hospital12
    x_l = paper_optimum(inst)
    pen_l = shake_cost(inst, solution_cost(inst, x_l))
    # find a seed whose best-of-L shake is strictly worse than the incumbent
    for seed in range(50):
        x_s = shake_2opt_l(inst, x_l, random.Random(seed))
        pen_s = shake_cost(inst, solution_cost(inst, x_s))
        if pen_s > pen_l:
            break
    else:
        pytest.fail("no worsening shake found")
    ratio = pen_s / pen_l

    def with_delta(delta):
        return dataclasses.replace(inst, cost=dataclasses.replace(
            inst.cost, shake_delta=delta))
    accept = shaking(with_delta(ratio * 1.01), x_l, random.Random(seed))
    reject = shaking(with_delta(max(1.0001, ratio * 0.99)), x_l,
                     random.Random(seed))
    assert accept == x_s
    assert reject == x_l


def test_feasible_operation_splits_overload():
    rng = random.Random(21)
    inst = random_instance(rng, 6)
    reqs = tuple(dataclasses.replace(r, demand=float(q), window_open=0.0,
                                     window_close=80000.0)
                 for r, q in zip(inst.requests, (5, 5, 5, 3, 5, 5)))
    inst = dataclasses.replace(inst, requests=reqs)
    sol = solution_from_ids(inst, [[[1, 2, 3, 4, 5, 6]]])
    out = feasible_operation(inst, sol)
    cs = solution_cost(inst, out)
    assert cs.flag_failures == 0
    assert cs.feasible


def test_feasible_operation_merges_and_fixed_point(hospital12):
    inst = hospital12
    split = solution_from_ids(inst, [[[1, 3, 6, 7]], [[9, 11, 10]],
                                     [[4, 2, 5, 8, 12]]])
    merged = feasible_operation(inst, split)
    assert len(merged.amrs) == 2
    assert feasible_operation(inst, merged) == merged


def test_solve_single_request_forced_optimum():
    rng = random.Random(2)
    inst = random_instance(rng, 1)
    sol, ev, history = solve(inst, 1, seed=0)
    assert ev.objective == pytest.approx(
        inst.cost.fixed_per_amr + inst.cost.per_meter * 2 * inst.distance[0][1])
    assert ev.feasible
    assert len(history) == 1


def test_solve_rejects_zero_iterations(hospital12):
    with pytest.raises(ValueError):
        solve(hospital12, 0)


def test_solve_history_nonincreasing_and_best_feasible(hospital12):
    sol, ev, history = solve(hospital12, 400, seed=3)
    assert all(a >= b for a, b in zip(history, history[1:]))
    assert ev.feasible
    assert ev.penalized == ev.objective
    assert history[-1] == pytest.approx(ev.objective)


def test_solve_deterministic(hospital12):
    r1 = solve(hospital12, 250, seed=11)
    r2 = solve(hospital12, 250, seed=11)
    assert r1[0] == r2[0]
    assert r1[2] == r2[2]
    j1 = json.dumps(solution_to_dict(hospital12, r1[0], r1[1]), sort_keys=True)
    j2 = json.dumps(solution_to_dict(hospital12, r2[0], r2[1]), sort_keys=True)
    assert j1 == j2


def test_solve_longer_run_extends_shorter(hospital12):
    """Same seed: a larger iteration budget replays the smaller run's
    trajectory, so best-f can only improve with N."""
    _, _, h_short = solve(hospital12, 150, seed=4)
    _, _, h_long = solve(hospital12, 300, seed=4)
    assert h_long[:150] == h_short


def test_solve_reports_infeasible_when_hopeless():
    rng = random.Random(1)
    inst = random_instance(rng, 2)
    # two requests that can never be served in time
    reqs = tuple(dataclasses.replace(r, window_open=10.0, window_close=20.0)
                 for r in inst.requests)
    inst = dataclasses.replace(inst, requests=reqs, shift_start=50_000.0)
    sol, ev, _ = solve(inst, 30, seed=0)
    assert not ev.feasible
    assert ev.penalized > ev.objective


@pytest.mark.parametrize("charger", [True, False])
def test_solve_flags_unrepairable_battery(charger):
    """A battery profile no charging stop can repair (or no charger at all)
    is infeasibility, not a malformed plan: solve returns its
    least-penalized plan with the battery flag raised."""
    inst = load_instance(json.dumps(battery_starved_payload(charger)))
    sol, ev, history = solve(inst, 20, seed=0)
    assert not ev.feasible
    assert not all(te.battery_ok for te in ev.per_trip)
    assert history[-1] == math.inf
    assert sorted(inst.request_at(n).id for n in sol.stops()
                  if inst.is_request(n)) == list(range(1, 13))


def test_iteration_cost_scaling():
    """Per-iteration work should stay near the quadratic trend: doubling the
    request count must not blow past a ~5x per-iteration cost ratio."""
    timings = []
    for n in (7, 14):
        inst = random_instance(random.Random(1), n)
        solve(inst, 30, seed=0)  # warm up caches and bytecode
        t0 = time.perf_counter()
        solve(inst, 250, seed=1)
        timings.append(time.perf_counter() - t0)
    assert timings[1] / timings[0] <= 6.0
