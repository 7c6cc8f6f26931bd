import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest

from amrsched.model import DEPOT, Solution, StructuralError, solution_from_ids
from amrsched.evaluation import (_MAX_COUNT, _amr_cost, _start_record, _walk_trip,
                                 evaluate_solution, evaluate_trip, route_table,
                                 solution_cost, solution_to_dict)
from amrsched.operators import charging_insert_repair
from amrsched.oracle import mc_validate
from helpers import paper_optimum, random_instance, random_solution, sub_instance


def test_trip_load_profile(hospital12):
    inst = hospital12
    trip = (DEPOT, inst.node_of_id[5], inst.node_of_id[6], DEPOT)
    te = evaluate_trip(inst, trip, 31000.0, 0.8)
    assert te.load_after[1] == inst.amr.capacity - 4
    assert te.load_after[2] == inst.amr.capacity - 8
    assert te.capacity_ok
    assert te.distance == 120 + 100 + 110
    # load profile never increases inside a trip
    assert all(a >= b for a, b in zip(te.load_after, te.load_after[1:]))


def test_empty_trip(hospital12):
    te = evaluate_trip(hospital12, (DEPOT, DEPOT), 30000.0, 0.7)
    assert te.distance == 0.0
    assert te.capacity_ok and te.battery_ok and te.tw_ok
    assert te.battery_after[-1] == 0.7


def test_hard_order_violation_any_start(hospital12):
    """A request served after one whose window opens past its close is late
    with probability ~1 regardless of the departure time."""
    inst = hospital12
    # request 9 opens 10:40; request 1 closes 8:20
    trip = (DEPOT, inst.node_of_id[9], inst.node_of_id[1], DEPOT)
    for start in (0.0, 28000.0, 36000.0):
        te = evaluate_trip(inst, trip, start, 0.8)
        assert not te.tw_ok
        assert 1 in te.violating_requests
    sol = Solution(amrs=((trip,), ((DEPOT,) + tuple(
        inst.node_of_id[r] for r in (2, 3, 4, 5, 6, 7, 8, 10, 11, 12)) + (DEPOT,),)))
    report = mc_validate(inst, sol, 20_000, seed=3)
    late_1 = next(s for s in report.per_request if s.id == 1)
    assert late_1.violation_frequency >= 0.999


def test_paper_optimum_evaluates_exactly(hospital12):
    ev = evaluate_solution(hospital12, paper_optimum(hospital12))
    assert ev.amr_count == 2
    assert ev.total_distance == pytest.approx(1190.0, abs=1e-9)
    assert ev.objective == pytest.approx(71.9, abs=1e-9)
    assert ev.feasible
    assert ev.penalized == ev.objective


def test_objective_additivity(hospital12):
    inst = hospital12
    sol = paper_optimum(inst)
    ev = evaluate_solution(inst, sol)
    arcs = 0.0
    for trip in sol.trips():
        arcs += sum(inst.distance[a][b] for a, b in zip(trip, trip[1:]))
    assert ev.objective == inst.cost.fixed_per_amr * ev.amr_count + \
        inst.cost.per_meter * arcs


def test_merge_drops_exactly_one_fixed_cost(hospital12):
    """Concatenating one AMR's trips onto another never touches the arc set,
    so the objective moves by exactly the fixed cost."""
    inst = hospital12
    sol = paper_optimum(inst)
    merged = Solution(amrs=(sol.amrs[0] + sol.amrs[1],))
    ev0 = evaluate_solution(inst, sol)
    ev1 = evaluate_solution(inst, merged)
    assert ev1.total_distance == ev0.total_distance
    assert ev0.objective - ev1.objective == pytest.approx(
        inst.cost.fixed_per_amr, abs=1e-9)


def test_battery_conservation_across_trips(hospital12):
    inst = hospital12
    sol = paper_optimum(inst)
    ev = evaluate_solution(inst, sol)
    # AMR 1 runs two trips; battery chains through the depot reload
    first, second = ev.per_trip[0], ev.per_trip[1]
    assert second.battery_after[0] == pytest.approx(first.battery_after[-1])
    # timing chains on the depot arrival law, mean and variance
    assert second.timings[0].arrival.mean == first.timings[-1].arrival.mean
    assert second.timings[0].arrival.variance == first.timings[-1].arrival.variance
    assert second.timings[0].arrival.variance > 0.0


def test_structural_errors_are_not_infeasibility(hospital12):
    inst = hospital12
    good = paper_optimum(inst)
    dup = Solution(amrs=(good.amrs[0], good.amrs[0]))
    with pytest.raises(StructuralError, match="twice"):
        evaluate_solution(inst, dup)
    missing = Solution(amrs=(good.amrs[0],))
    with pytest.raises(StructuralError, match="not served"):
        evaluate_solution(inst, missing)
    # an AMR with no trips would be charged a robot, and solution_cost's
    # prefix walk would never end on it
    idle = Solution(amrs=(*good.amrs, ()))
    for check in (evaluate_solution, lambda i, s: mc_validate(i, s, 10)):
        with pytest.raises(StructuralError, match="AMR 2 has no trips"):
            check(inst, idle)
    # nor may a trip with no stops: the AMR ((0, 0),) would cost a robot
    empty = Solution(amrs=(*good.amrs, ((DEPOT, DEPOT),)))
    for check in (evaluate_solution, lambda i, s: mc_validate(i, s, 10)):
        with pytest.raises(StructuralError, match=r"trip \(0, 0\) has no stops"):
            check(inst, empty)
    # a stop index past the last charging station, a non-integer stop and a
    # trip that starts at 0.0 instead of the depot index
    first = good.amrs[0][0]
    for trip, match in (((DEPOT, 99, *first[1:]), "unknown node"),
                        ((DEPOT, 1.5, *first[1:]), "unknown node"),
                        ((0.0, *first[1:]), "depot")):
        stray = Solution(amrs=((trip, *good.amrs[0][1:]), *good.amrs[1:]))
        for check in (evaluate_solution, lambda i, s: mc_validate(i, s, 10)):
            with pytest.raises(StructuralError, match=match):
                check(inst, stray)


def test_fast_path_agrees_with_reference():
    # seed 2024 draws the panel of tests/goldens/random_evaluations.json
    for seed in (99, 2024):
        rng = random.Random(seed)
        for case in range(60):
            inst = random_instance(rng, rng.randint(1, 8),
                                   tight_battery=case % 3 == 0)
            sol = random_solution(rng, inst)
            sols = [sol, charging_insert_repair(inst, sol)] if case % 3 == 0 else [sol]
            for sol in sols:
                ev = evaluate_solution(inst, sol)
                cs = solution_cost(inst, sol)
                # both paths sum distances per AMR first, then across AMRs
                assert cs.objective == ev.objective
                assert cs.penalized == ev.penalized
                assert cs.distance == ev.total_distance
                assert cs.feasible == ev.feasible
                assert cs.m == ev.amr_count
                assert cs.tw_violations == sum(t.tw_violations for t in ev.per_trip)
                assert cs.flag_failures == sum(
                    (not t.capacity_ok) + (not t.battery_ok) for t in ev.per_trip)
                assert cs.violating == tuple(inst.node_of_id[r]
                                             for r in ev.violating_requests)
                # every memoised trip prefix ends where the profile of its last
                # trip ends: depot arrival law and battery chain alike
                ends = iter(ev.per_trip)
                for trips in sol.amrs:
                    for k in range(1, len(trips) + 1):
                        *_, t, var, battery = inst._caches["amr"][trips[:k]]
                        end = next(ends)
                        assert battery == end.battery_after[-1]
                        assert (t, var) == (end.timings[-1].arrival.mean,
                                            end.timings[-1].arrival.variance)


def test_bounded_pricing_is_exact():
    """solution_cost(below=t) is None exactly when the full penalized cost
    is >= t, and otherwise the full summary, for t one ulp below, at and one
    ulp above it, with xi1 and xi3 at 0, 1e-300, 1e300 and 1e308 (where the
    penalized cost overflows to inf, which a bound of inf rejects).  The
    lower-bound records the bounded calls leave never change an unbounded
    summary."""
    rng = random.Random(12)
    rates = (0.0, 1e-300, 1e300, 1e308)
    outcomes = Counter()
    for case in range(16):
        base = random_instance(rng, rng.randint(2, 8), tight_battery=case % 2 == 1)
        sols = [random_solution(rng, base) for _ in range(3)]
        if case % 2:
            sols += [charging_insert_repair(base, s) for s in sols]    # stations
        # plans sharing an AMR, or the first AMR as a prefix
        sols += [Solution(amrs=(s.amrs[0] + s.amrs[1], *s.amrs[2:]))
                 for s in sols if len(s.amrs) > 1]
        for xi1, xi3 in itertools.product(rates, rates):
            inst = dataclasses.replace(base, cost=dataclasses.replace(
                base.cost, fixed_per_amr=xi1, tw_penalty=xi3))
            full = [solution_cost(dataclasses.replace(inst), s) for s in sols]
            calls = [(sol, summary, t) for sol, summary in zip(sols, full)
                     for t in (math.nextafter(summary.penalized, -math.inf),
                               summary.penalized,
                               math.nextafter(summary.penalized, math.inf))]
            rng.shuffle(calls)
            for sol, summary, t in calls:
                got = solution_cost(inst, sol, below=t)
                assert (got is None) == (summary.penalized >= t)
                if got is not None:
                    assert got == summary
                outcomes[got is None, not summary.feasible] += 1
            outcomes["stopped walks"] += sum(
                v > 0 for _, v in inst._caches["bound"].values())
            inst._caches["sol"].clear()
            assert [solution_cost(inst, s) for s in sols] == full
    assert len(outcomes) == 5 and all(outcomes.values()), outcomes


def test_walked_record_is_the_memo_record():
    """Folding _walk_trip over an AMR's trips from the start record gives the
    record _amr_cost keeps, float for float; under a limit the fold stops
    with None exactly where _amr_cost returns None, on random plans with and
    without charging stops."""
    outcomes = Counter()
    rng = random.Random(29)
    for case in range(60):
        inst = random_instance(rng, rng.randint(1, 8), tight_battery=case % 2 == 0)
        sol = random_solution(rng, inst)
        if case % 4 == 0:
            sol = charging_insert_repair(inst, sol)
        for trips in sol.amrs:
            for limit in (-1, 0, 1, 2, _MAX_COUNT):
                folded = _start_record(inst)
                for trip in trips:
                    folded = folded and _walk_trip(inst, folded, trip, limit)
                # a fresh instance, so that no stored record answers for the walk
                memo = _amr_cost(inst, trips, dataclasses.replace(inst)._caches, limit)
                assert folded == memo, (case, trips, limit)
                outcomes[memo is None, memo is not None and memo[3] > 0] += 1
    assert len(outcomes) == 3 and all(outcomes.values()), outcomes


def test_violation_budget_is_the_largest_passing_count():
    """The budget is the largest count v with objective + rate * v < below,
    also where rounding puts it far from the quotient (1e16 + 0.001 * v
    rounds back to 1e16 up to v = 1000), and no limit when every count
    passes."""
    from amrsched.evaluation import _MAX_COUNT, _violation_budget

    for objective, rate in itertools.product((0.0, 71.9, 1e16, 1e300),
                                             (0.0, 1e-300, 1e-3, 0.9, 1000.0, 1e300)):
        for below in {objective, math.nextafter(objective, math.inf),
                      objective + 2.0, objective + rate * 7, objective + rate * 2999,
                      math.nextafter(objective + rate * 7, -math.inf)}:
            budget = _violation_budget(objective, rate, below)
            if budget == _MAX_COUNT:
                assert objective + rate * _MAX_COUNT < below
                continue
            passing = [v for v in range(-1, 3001)
                       if v < 0 or objective + rate * v < below]
            assert budget == passing[-1] < 3000, (objective, rate, below)


def test_charging_rule_shared_by_profile_and_summary(hospital12):
    """A battery within 1e-12 under beta does not charge, in the profile and
    in the memoised walk alike: both report the depot arrival of a full one."""
    beta = hospital12.amr.battery_high
    base = dataclasses.replace(sub_instance(hospital12, [1]), shift_start=30000.0)
    trip = (DEPOT, base.charging_nodes[0], base.node_of_id[1], DEPOT)
    sol = Solution(amrs=((trip,),))
    full = evaluate_solution(base, sol).per_trip[0].timings[-1].arrival.mean
    inst = dataclasses.replace(base, amr=dataclasses.replace(
        base.amr, battery_init=beta - 5e-13))
    profile = evaluate_solution(inst, sol).per_trip[0].timings[-1].arrival.mean
    solution_cost(inst, sol)
    (*_, summary, _var, _battery), = inst._caches["amr"].values()
    assert profile == summary == full


def test_penalized_accounting(hospital12):
    inst = hospital12
    # all twelve requests crammed into one trip: overload plus late windows
    trip = (DEPOT, *range(1, 13), DEPOT)
    sol = Solution(amrs=((trip,),))
    ev = evaluate_solution(inst, sol)
    assert not ev.feasible
    flag_failures = sum((not t.capacity_ok) + (not t.battery_ok)
                        for t in ev.per_trip)
    expected = ev.objective + inst.cost.tw_penalty * (
        sum(t.tw_violations for t in ev.per_trip) + flag_failures)
    assert ev.penalized == pytest.approx(expected)
    assert flag_failures >= 1  # 48 kg in a 20 kg AMR


def test_timing_invariants_on_random_solutions():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(2, 7))
        sol = random_solution(rng, inst)
        ev = evaluate_solution(inst, sol)
        for te in ev.per_trip:
            for node_timing in te.timings:
                arr, start = node_timing.arrival, node_timing.start
                assert start.mean >= arr.mean - 1e-9
                assert start.variance <= arr.variance + 1e-9


def test_solution_json_and_route_table(hospital12):
    inst = hospital12
    sol = paper_optimum(inst)
    ev = evaluate_solution(inst, sol)
    payload = solution_to_dict(inst, sol, ev)
    assert payload["m"] == 2
    assert payload["objective"] == pytest.approx(71.9)
    ids = [row["id"] for row in payload["per_request"]]
    assert ids == list(range(1, 13))
    assert all(row["violation_prob"] <= inst.cost.epsilon
               for row in payload["per_request"])
    table = route_table(inst, sol, ev)
    head = table.splitlines()[0]
    for col in ("Service Route", "Distance (m)", "Load (kg)",
                "Number of Charges", "Mean Arrival Time"):
        assert col in head
    assert "d -> 1 -> 3 -> 6 -> 7 -> d" in table
