import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest

from amrsched.model import (DEPOT, Solution, StructuralError,
                            check_solution_structure, load_instance,
                            normalize_solution, solution_from_ids)
from amrsched import evaluation
from amrsched.evaluation import _fold, evaluate_solution, solution_cost
from amrsched.operators import (_apply, _below, _decreasing_run, _loosest_partner,
                                _plan_index, _relocate, _reverse, _shake_candidates,
                                _shake_change, _shake_trips, _swap,
                                _two_below, _violator_at, amr_decrease,
                                charging_insert_repair, depot_insert_repair,
                                relocation_star, shake_2opt_l, shake_cost,
                                swap_star, two_opt_star)
from amrsched.vns import feasible_operation, greedy_initial, local_search
from helpers import (built_move, paper_optimum, random_instance, random_solution,
                     reference_descent, reference_merge, reference_shake)


def request_multiset(inst, sol):
    return Counter(n for n in sol.stops() if inst.is_request(n))


# ---------------------------------------------------------------------------
# swap*


def test_swap_star_targets_violating_request(hospital12):
    inst = hospital12
    # 9 (opens 10:40) before 1 (closes 8:20) forces a violation at 1; the
    # other trips are clean, so 1 is the unique violator and the loosest
    # same-trip close is request 9's 11:00.
    sol = solution_from_ids(inst, [[[9, 1]], [[2, 3]], [[4, 5, 6]],
                                   [[7, 8, 10, 11, 12]]])
    ev = solution_cost(inst, sol)
    assert ev.violating == (inst.node_of_id[1],)
    out = built_move(swap_star, inst, sol, ev, random.Random(0))
    labels = [inst.node_label(n) for n in out.amrs[0][0]]
    assert labels == ["d", "1", "9", "d"]
    assert request_multiset(inst, out) == request_multiset(inst, sol)


def test_swap_star_random_branch_swaps_two(hospital12):
    inst = hospital12
    sol = paper_optimum(inst)
    ev = solution_cost(inst, sol)
    assert not ev.violating
    out = built_move(swap_star, inst, sol, ev, random.Random(7))
    assert request_multiset(inst, out) == request_multiset(inst, sol)
    moved = [n for n in range(1, 13)
             if _position(inst, out, n) != _position(inst, sol, n)]
    assert len(moved) == 2


def test_swap_star_single_request_unchanged():
    rng = random.Random(1)
    inst = random_instance(rng, 1)
    sol = solution_from_ids(inst, [[[1]]])
    assert built_move(swap_star, inst, sol, solution_cost(inst, sol), rng) == sol


def test_swap_star_cross_trip_fallback_takes_loosest_smallest_id(hospital12):
    inst = hospital12
    # Request 1 is late only through its chained trip and leads that trip,
    # so no same-trip partner exists.  Requests 7-12 share the loosest close
    # (11:00): 12 comes first in the plan and 5 (8:50) has a smaller id, but
    # the smallest id among the loosest, 7, takes the swap.
    sol = solution_from_ids(inst, [[[12], [1]], [[2, 3]], [[4]], [[5, 6]],
                                   [[11, 10]], [[9, 8, 7]]])
    ev = solution_cost(inst, sol)
    assert ev.violating == (inst.node_of_id[1],)
    rng = random.Random(0)
    out = built_move(swap_star, inst, sol, ev, rng)
    assert out == solution_from_ids(inst, [[[12], [7]], [[2, 3]], [[4]],
                                           [[5, 6]], [[11, 10]], [[9, 8, 1]]])
    assert rng.random() == random.Random(0).random()   # a lone violator: no draw


def _position(inst, sol, rid):
    node = inst.node_of_id[rid]
    for a, amr in enumerate(sol.amrs):
        for t, trip in enumerate(amr):
            for i, n in enumerate(trip):
                if n == node:
                    return (a, t, i)
    return None


# ---------------------------------------------------------------------------
# 2-opt*


def test_two_opt_star_reverses_decreasing_run(hospital12):
    inst = hospital12
    # closes: 9 -> 11:00, 5 -> 8:50, 1 -> 8:20 is a strictly decreasing run
    sol = solution_from_ids(inst, [[[9, 5, 1]], [[2, 3, 4, 6]], [[7, 8, 10, 11, 12]]])
    out = built_move(two_opt_star, inst, sol, solution_cost(inst, sol), random.Random(0))
    labels = [inst.node_label(n) for n in out.amrs[0][0]]
    assert labels == ["d", "1", "5", "9", "d"]
    assert request_multiset(inst, out) == request_multiset(inst, sol)


def test_two_opt_star_reverses_first_run_in_plan_order(hospital12):
    inst = hospital12
    # 9 -> 5 (AMR 0, trip 1) comes before the longer run 10 -> 6 -> 1 on
    # AMR 1; equal closes (2, 3, 4) are no run.
    sol = solution_from_ids(inst, [[[2, 3, 4], [9, 5]], [[10, 6, 1]],
                                   [[7, 8, 11, 12]]])
    out = built_move(two_opt_star, inst, sol, solution_cost(inst, sol), random.Random(0))
    assert out == solution_from_ids(inst, [[[2, 3, 4], [5, 9]], [[10, 6, 1]],
                                           [[7, 8, 11, 12]]])


def test_two_opt_star_random_reversal_of_adjacent_pair():
    rng = random.Random(0)
    inst = random_instance(rng, 4)
    # all closes equal: no decreasing run exists
    data_sol = solution_from_ids(inst, [[[1, 2, 3, 4]]])
    inst2 = inst
    closes = {r.window_close for r in inst2.requests}
    if len(closes) > 1:
        # force equal closes by rebuilding windows
        import dataclasses
        from amrsched.model import Gaussian
        reqs = tuple(dataclasses.replace(r, window_open=29000.0,
                                         window_close=36000.0)
                     for r in inst.requests)
        inst2 = dataclasses.replace(inst, requests=reqs)
    sol = solution_from_ids(inst2, [[[1, 2, 3, 4]]])
    out = built_move(two_opt_star, inst2, sol, solution_cost(inst2, sol), random.Random(3))
    assert request_multiset(inst2, out) == request_multiset(inst2, sol)
    assert out != sol  # some span reversed


def test_two_opt_star_no_eligible_trip():
    rng = random.Random(2)
    inst = random_instance(rng, 2)
    import dataclasses
    reqs = tuple(dataclasses.replace(r, window_open=29000.0, window_close=36000.0)
                 for r in inst.requests)
    inst = dataclasses.replace(inst, requests=reqs)
    sol = solution_from_ids(inst, [[[1]], [[2]]])
    assert built_move(two_opt_star, inst, sol, solution_cost(inst, sol), rng) == sol


# ---------------------------------------------------------------------------
# relocation*


def test_relocation_star_moves_violator_before_later_window(hospital12):
    inst = hospital12
    # trip 5 -> 1 -> 9: request 1 violates (served after 5 whose opening is
    # past 1's close); the first later-close request scanning the trip is 5,
    # so 1 lands immediately before it.
    sol = solution_from_ids(inst, [[[5, 1, 9]], [[2, 3]], [[4, 6]], [[7, 8]],
                                   [[10, 11, 12]]])
    ev = solution_cost(inst, sol)
    assert ev.violating == (inst.node_of_id[1],)
    out = built_move(relocation_star, inst, sol, ev, random.Random(0))
    labels = [inst.node_label(n) for n in out.amrs[0][0]]
    assert labels == ["d", "1", "5", "9", "d"]


def test_relocation_star_random_identity_allowed():
    rng = random.Random(11)
    inst = random_instance(rng, 3)
    import dataclasses
    # wide-open windows: no violator, so the uniform random branch runs
    reqs = tuple(dataclasses.replace(r, window_open=0.0, window_close=86000.0)
                 for r in inst.requests)
    inst = dataclasses.replace(inst, requests=reqs)
    sol = solution_from_ids(inst, [[[1, 2, 3]]])
    seen_identity = False
    for seed in range(40):
        out = built_move(relocation_star, inst, sol, solution_cost(inst, sol),
                         random.Random(seed))
        assert request_multiset(inst, out) == request_multiset(inst, sol)
        if out == sol:
            seen_identity = True
    assert seen_identity


def test_relocation_to_its_own_slot_is_no_move():
    """Putting a request back in its own slot changes nothing, so it is no
    move, (inf, None), even with no price to beat: at every request position
    of random plans."""
    rng = random.Random(13)
    seen = 0
    for case in range(10):
        inst = random_instance(rng, rng.randint(2, 8), tight_battery=case % 2 == 1)
        sol = random_solution(rng, inst)
        plan = _plan_index(inst, sol)
        now = solution_cost(inst, sol)._replace(penalized=math.inf)
        for k, i in plan[3]:
            assert _relocate(inst, plan, now, (k, i), k, i) == (math.inf, None)
            seen += 1
    assert seen > 20


# ---------------------------------------------------------------------------
# repairs


def test_depot_insert_splits_overloaded_route():
    """Capacity 20 against demands 5,5,5,3,5,5 splits before the fifth stop."""
    rng = random.Random(21)
    inst = random_instance(rng, 6)
    import dataclasses
    reqs = tuple(dataclasses.replace(r, demand=float(q), window_open=0.0,
                                     window_close=80000.0)
                 for r, q in zip(inst.requests, (5, 5, 5, 3, 5, 5)))
    inst = dataclasses.replace(inst, requests=reqs)
    sol = solution_from_ids(inst, [[[1, 2, 3, 4, 5, 6]]])
    out = depot_insert_repair(inst, sol)
    bodies = [[inst.node_label(n) for n in t[1:-1]] for t in out.amrs[0]]
    assert bodies == [["1", "2", "3", "4"], ["5", "6"]]
    assert depot_insert_repair(inst, out) == out  # idempotent


def test_depot_insert_boundary_sum_equal_capacity():
    rng = random.Random(22)
    inst = random_instance(rng, 4)
    import dataclasses
    reqs = tuple(dataclasses.replace(r, demand=5.0) for r in inst.requests)
    inst = dataclasses.replace(inst, requests=reqs)
    sol = solution_from_ids(inst, [[[1, 2, 3, 4]]])
    assert depot_insert_repair(inst, sol) == sol


def test_charging_insert_repairs_battery():
    rng = random.Random(30)
    inst = random_instance(rng, 6, tight_battery=True)
    sol = solution_from_ids(inst, [[[1, 2, 3, 4, 5, 6]]])
    ev_before = evaluate_solution(inst, sol)
    assert not all(t.battery_ok for t in ev_before.per_trip), \
        "fixture must stress the battery"
    out = charging_insert_repair(inst, sol)
    ev = evaluate_solution(inst, out)
    assert all(t.battery_ok for t in ev.per_trip)
    assert any(inst.is_charging(n) for n in out.stops())
    assert charging_insert_repair(inst, out) == out  # idempotent
    assert request_multiset(inst, out) == request_multiset(inst, sol)


def test_charging_insert_noop_on_feasible(hospital12):
    sol = paper_optimum(hospital12)
    assert charging_insert_repair(hospital12, sol) is sol


def test_unflagged_plan_is_left_to_itself_by_the_charging_repair():
    """exact_solve repairs only plans whose cost shows a flag: a plan with no
    flag has no sub-alpha arrival, so the repair returns it as it is."""
    rng = random.Random(78)
    unflagged_tight = flagged = 0
    for case in range(160):
        tight = case % 2 == 0
        inst = random_instance(rng, rng.randint(2, 9), tight_battery=tight)
        sol = random_solution(rng, inst, max_trip=rng.randint(1, 6))
        if solution_cost(inst, sol).flag_failures:
            flagged += 1
            continue
        unflagged_tight += tight
        assert charging_insert_repair(inst, sol) is sol
    assert flagged > 20 and unflagged_tight > 10


def test_charging_insert_without_station_raises():
    import dataclasses
    rng = random.Random(30)
    inst = random_instance(rng, 6, tight_battery=True)
    # drop the only charging station (the last node) from the instance
    inst = dataclasses.replace(
        inst, charging_floors=(),
        distance=tuple(row[:-1] for row in inst.distance[:-1]),
        floor_diff=tuple(row[:-1] for row in inst.floor_diff[:-1]))
    assert not inst.charging_nodes
    sol = solution_from_ids(inst, [[[1, 2, 3, 4, 5, 6]]])
    assert not all(t.battery_ok for t in evaluate_solution(inst, sol).per_trip)
    with pytest.raises(StructuralError, match="no charging station"):
        charging_insert_repair(inst, sol)


def test_charging_insert_stops_at_last_charging_stop():
    """Trip d->1->d where no full charge covers the leg into request 1: the
    repair places the station once, then reports the leg as unrepairable
    instead of stacking more stations in front of it."""
    import dataclasses
    inst = random_instance(random.Random(31), 1)
    assert inst.charging_nodes == (2,)
    far = 1000.0
    distance = ((0.0, far, 10.0), (far, 0.0, far), (10.0, far, 0.0))
    inst = dataclasses.replace(
        inst, distance=distance, floor_diff=((0.0,) * 3,) * 3,
        amr=dataclasses.replace(inst.amr, consume_rate=0.9 / far,
                                battery_init=inst.amr.battery_high))
    sol = solution_from_ids(inst, [[[1]]])
    with pytest.raises(StructuralError,
                       match="unrepairable battery profile.* node 1$"):
        charging_insert_repair(inst, sol)


def test_charging_insert_has_no_round_budget():
    """Requests 1 and 2 lie 10 m from the depot and from each other, the
    station 5 m from every node.  A full battery drives 13.3 m, so each
    trip needs a station on both sides of its request: the repair places
    four stations for two requests, with no cap on insertions per plan."""
    inst = random_instance(random.Random(31), 2)
    assert inst.charging_nodes == (3,)
    distance = ((0.0, 10.0, 10.0, 5.0), (10.0, 0.0, 10.0, 5.0),
                (10.0, 10.0, 0.0, 5.0), (5.0, 5.0, 5.0, 0.0))
    inst = dataclasses.replace(
        inst, distance=distance, floor_diff=((0.0,) * 4,) * 4,
        amr=dataclasses.replace(inst.amr, consume_rate=0.06, charge_rate=0.01,
                                battery_low=0.0, battery_high=0.8,
                                battery_init=0.8))
    sol = solution_from_ids(inst, [[[1], [2]]])
    out = charging_insert_repair(inst, sol)
    assert out == solution_from_ids(inst, [[["c", 1, "c"], ["c", 2, "c"]]])
    cost = solution_cost(inst, out)
    assert cost.feasible and cost.objective == pytest.approx(30.4)
    assert charging_insert_repair(inst, out) == out


def test_repair_completeness_random_sweep():
    rng = random.Random(77)
    repaired_battery = 0
    for case in range(120):
        inst = random_instance(rng, rng.randint(2, 9),
                               tight_battery=case % 2 == 0)
        sol = random_solution(rng, inst)
        before = solution_cost(inst, sol)
        out = depot_insert_repair(inst, sol)
        out = charging_insert_repair(inst, out)
        ev = evaluate_solution(inst, out)
        assert all(t.capacity_ok and t.battery_ok for t in ev.per_trip)
        assert request_multiset(inst, out) == request_multiset(inst, sol)
        assert depot_insert_repair(inst, out) == out
        assert charging_insert_repair(inst, out) == out
        if before.flag_failures:
            repaired_battery += 1
    assert repaired_battery > 20  # the sweep actually exercised repairs


def test_one_repair_pass_clears_every_flag():
    """feasible_operation repairs once: after the capacity split, a charging
    repair that returns leaves no capacity or battery flag.  Half the cases
    fill trips with fractional demands whose sums land within rounding (or
    within the load tolerance) of capacity."""
    rng = random.Random(79)
    split = charged = 0
    for case in range(200):
        inst = random_instance(rng, rng.randint(2, 9), tight_battery=True)
        if case % 2:
            share = inst.amr.capacity / rng.choice((3, 6, 7, 10))
            reqs = tuple(dataclasses.replace(
                r, demand=share * (1 + rng.choice((-1, 0, 0, 1)) * 1e-11))
                for r in inst.requests)
            inst = dataclasses.replace(inst, requests=reqs)
        sol = random_solution(rng, inst, max_trip=9)
        out = depot_insert_repair(inst, sol)
        split += out != sol
        try:
            repaired = charging_insert_repair(inst, out)
        except StructuralError:
            continue
        charged += repaired is not out
        assert solution_cost(inst, repaired).flag_failures == 0
    assert split > 30 and charged > 60


# ---------------------------------------------------------------------------
# AMR decrease


def test_amr_decrease_merges_chainable(hospital12):
    inst = hospital12
    split = solution_from_ids(inst, [[[1, 3, 6, 7]], [[9, 11, 10]], [[4, 2, 5, 8, 12]]])
    assert evaluate_solution(inst, split).feasible
    out = amr_decrease(inst, split)
    assert len(out.amrs) == 2
    ev_in = evaluate_solution(inst, split)
    ev_out = evaluate_solution(inst, out)
    assert ev_out.total_distance == ev_in.total_distance
    assert ev_in.objective - ev_out.objective == pytest.approx(
        inst.cost.fixed_per_amr)
    assert ev_out.feasible


def test_amr_decrease_single_amr_unchanged(hospital12):
    sol = Solution(amrs=(paper_optimum(hospital12).amrs[0]
                         + paper_optimum(hospital12).amrs[1],))
    assert amr_decrease(hospital12, sol) == sol


def test_amr_decrease_keeps_unmergeable():
    """Two identical tight windows on distant floors cannot share one AMR."""
    rng = random.Random(42)
    inst = random_instance(rng, 2, tight_windows=True)
    import dataclasses
    reqs = tuple(dataclasses.replace(r, window_open=29400.0, window_close=29900.0,
                                     service_mean=400.0)
                 for r in inst.requests)
    inst = dataclasses.replace(inst, requests=reqs)
    sol = solution_from_ids(inst, [[[1]], [[2]]])
    ev = evaluate_solution(inst, sol)
    assert ev.feasible
    merged_a = Solution(amrs=(sol.amrs[0] + sol.amrs[1],))
    merged_b = Solution(amrs=(sol.amrs[1] + sol.amrs[0],))
    assert not evaluate_solution(inst, merged_a).feasible
    assert not evaluate_solution(inst, merged_b).feasible
    assert amr_decrease(inst, sol) == sol


def test_amr_decrease_merge_can_clear_the_appended_flag():
    """A flagged AMR b may still merge behind a clean one: starting from a's
    charged depot arrival instead of a low initial battery, b's walk can stay
    above alpha.  Only a flag on a (the merged walk's prefix) or on a third
    AMR settles a merge without a walk."""
    merged = 0
    for seed in range(40):
        inst = random_instance(random.Random(seed), 2, tight_battery=True)
        inst = dataclasses.replace(inst, amr=dataclasses.replace(
            inst.amr, battery_init=0.3, charge_rate=1.0))
        a = ((DEPOT, inst.charging_nodes[0], 1, DEPOT),)
        b = ((DEPOT, 2, DEPOT),)
        if (solution_cost(inst, Solution(amrs=(a,))).feasible
                and solution_cost(inst, Solution(amrs=(b,))).flag_failures
                and solution_cost(inst, Solution(amrs=(a + b,))).feasible):
            assert amr_decrease(dataclasses.replace(inst),
                                Solution(amrs=(a, b))) == Solution(amrs=(a + b,))
            merged += 1
    assert merged


def test_amr_decrease_objective_never_increases():
    rng = random.Random(4)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(2, 8))
        sol = random_solution(rng, inst)
        out = amr_decrease(inst, sol)
        assert solution_cost(inst, out).objective <= \
            solution_cost(inst, sol).objective + 1e-12


# ---------------------------------------------------------------------------
# shake


def test_shake_tail_exchange_shape(hospital12):
    inst = hospital12
    sol = solution_from_ids(inst, [[[1, 2]], [[3, 4]],
                                   [[5, 6, 7, 8, 9, 10, 11, 12]]])
    out = shake_2opt_l(inst, sol, random.Random(0), candidates=30)
    assert request_multiset(inst, out) == request_multiset(inst, sol)
    for amr in out.amrs:
        for trip in amr:
            assert trip[0] == DEPOT and trip[-1] == DEPOT
            assert DEPOT not in trip[1:-1]


def test_shake_picks_minimum_of_its_candidates(hospital12_path, hospital64_path):
    """shake_2opt_l returns exactly the pick of the loop that builds and
    prices every candidate (the first-drawn minimum of shake_cost) and
    leaves the rng where that loop leaves it, on cold caches (bound-ordered
    pricing) and on warm ones (cache hits) alike."""
    rng = random.Random(17)
    cases = []
    for case in range(60):
        inst = random_instance(rng, rng.randint(1, 9),
                               tight_battery=case % 2 == 1)
        if case % 3 == 2:   # whole-number costs: ties everywhere
            inst = dataclasses.replace(
                inst, cost=dataclasses.replace(inst.cost, per_meter=0.0))
        cases.append((inst, random_solution(rng, inst)))
        if case % 6 == 0:   # a lone trip: the intra-trip reversal branch
            inst = random_instance(rng, rng.randint(2, 6))
            cases.append((inst, normalize_solution(
                [[(DEPOT, *range(1, inst.n_requests + 1), DEPOT)]])))
    # n trips, and a lone trip with n interior stops, around the n = 21 where
    # random.sample switches from a pool to rejection for a pair below n
    for n in (21, 22, 23):
        inst = random_instance(rng, n)
        cases.append((inst, random_solution(rng, inst, max_trip=1)))
        cases.append((inst, normalize_solution(
            [[(DEPOT, *range(1, inst.n_requests + 1), DEPOT)]])))
    for path in (hospital12_path, hospital64_path):
        for seed in range(2):
            inst = load_instance(path)
            cases.append((inst, feasible_operation(
                inst, greedy_initial(inst, random.Random(seed)))))
            cases.append((inst, random_solution(rng, inst)))
    seen = Counter()
    for inst, sol in cases:
        n_trips = sum(len(amr) for amr in sol.amrs)
        for seed, size in ((0, 20), (1, 20), (2, 5)):
            picked_rng, ref_rng = random.Random(seed), random.Random(seed)
            picked = shake_2opt_l(inst, sol, picked_rng, candidates=size)
            expected, built = reference_shake(inst, sol, ref_rng, candidates=size)
            assert picked == expected
            assert picked_rng.getstate() == ref_rng.getstate()
            assert shake_2opt_l(inst, sol, random.Random(seed), size) == expected
            # the population random.sample draws two indices from
            kind, n = (("reversal", len(sol.amrs[0][0]) - 2) if n_trips == 1
                       else ("inter-trip", n_trips))
            seen[f"{kind} of {'> 21' if n > 21 else '<= 21'}"] += bool(built)
            seen["emptied trip"] += any(
                sum(len(amr) for amr in c.amrs) < n_trips for c in built)
            seen["emptied amr"] += any(len(c.amrs) < len(sol.amrs) for c in built)
            seen["picked fewer amrs"] += len(picked.amrs) < len(sol.amrs)
            seen["tie priced later draw first"] += _tie_priced_later_first(
                inst, sol, seed, size, built)
    assert len(seen) == 8 and all(seen.values()), seen
    # and the pick can never beat the globally best tail exchange
    inst = load_instance(hospital12_path)
    sol = feasible_operation(inst, greedy_initial(inst, random.Random(0)))
    picked = shake_2opt_l(inst, sol, random.Random(123), candidates=20)
    global_best = _enumerate_all_tail_exchanges(inst, sol)
    assert shake_cost(inst, solution_cost(inst, picked)) >= global_best - 1e-9


def _tie_priced_later_first(inst, sol, seed, size, built):
    """Whether the shake's bound order visits a later draw that ties the
    first-drawn minimum before that minimum: only the limit one ulp above
    the best score then lets the earlier draw win."""
    if not built:
        return False
    scores = [shake_cost(inst, solution_cost(inst, c)) for c in built]
    first = scores.index(min(scores))
    flat = _shake_trips(sol)
    order = [k for _, k, _ in sorted(_shake_candidates(
        inst, sol, flat, random.Random(seed).getrandbits, size,
        solution_cost(inst, sol)))]
    return any(scores[k] == scores[first]
               for k in order[:order.index(first)] if k > first)


def test_memos_capped_at_three_change_no_cost_and_no_shake(monkeypatch):
    """With each memo, violation floors included, capped at three records
    the caches clear on nearly every store, also between the prefixes of one
    AMR's walk; no cost summary, shake pick, descent or merge may change
    from its full-pricing reference."""
    rng = random.Random(31)
    cases = []
    for case in range(20):
        inst = random_instance(rng, rng.randint(4, 9),
                               tight_battery=case % 2 == 1)
        sols = [random_solution(rng, inst, max_trip=2) for _ in range(3)]
        cases.append((inst, sols, [solution_cost(inst, s) for s in sols]))
    monkeypatch.setattr(evaluation, "_AMR_CACHE_LIMIT", 3)
    monkeypatch.setattr(evaluation, "_SOL_CACHE_LIMIT", 3)
    longest = merges = bounds = 0
    for inst, sols, expected in cases:
        inst = dataclasses.replace(inst)    # the same instance, empty memos
        for sol, summary in zip(sols, expected):
            longest = max(longest, *map(len, sol.amrs))
            for seed in range(3):
                picked = shake_2opt_l(inst, sol, random.Random(seed))
                ref, _ = reference_shake(inst, sol, random.Random(seed))
                assert picked == ref
                assert solution_cost(inst, picked) == solution_cost(
                    dataclasses.replace(inst), picked)
                assert local_search(inst, sol, random.Random(seed)) == \
                    reference_descent(dataclasses.replace(inst), sol,
                                      random.Random(seed))
                bounds += any(type(v) is int and v > 0
                              for v in inst._caches["amr"].values())
            repaired = charging_insert_repair(inst, depot_insert_repair(inst, sol))
            for plan in (sol, repaired):
                merged = amr_decrease(inst, plan)
                assert merged == reference_merge(dataclasses.replace(inst), plan)
                merges += len(merged.amrs) < len(plan.amrs)
            assert solution_cost(inst, sol) == summary
    assert longest > 3      # some walk stores more prefixes than the cap
    assert merges and bounds    # merges are kept and walks are stopped


def test_shake_draws_are_the_generators():
    """The shake's and the moves' getrandbits draws are random.Random's: a
    cut below n is ``_randbelow(n)`` (n = 1..70), two trips or two reversal
    ends are ``sample(range(n), 2)`` (n = 2..70: the pool up to 21,
    rejection above), the moves' ``_below`` and ``_two_below`` give
    ``randrange(n)``, ``randrange(1, n)``, ``sample(range(n), 2)`` and
    ``sample(idxs, 2)``, and the generator ends in the state those calls
    leave."""
    def kept(trip):
        return (trip,) if len(trip) > 2 else ()

    # nodes up to 100 to bound the draws with; the bounds are not under test
    inst = random_instance(random.Random(0), 100)
    now = _fold(inst, ())

    def check(sol, seed, expected_draws):
        rng, ref = random.Random(seed), random.Random(seed)
        flat = _shake_trips(sol)
        (_, _, draw), = _shake_candidates(inst, sol, flat, rng.getrandbits, 1, now)
        assert _shake_change(sol, flat, draw) == expected_draws(ref)
        assert rng.getstate() == ref.getstate()

    for seed in range(4):
        for n in range(1, 71):      # a lone cut below n: a trip of n + 1 stops
            trips = (tuple(range(n + 1)), (0, 100, 0))
            sol = Solution(amrs=tuple((trip,) for trip in trips))

            def cut_below_n(ref):
                i, j = ref.sample(range(2), 2)
                ci = ref._randbelow(len(trips[i]) - 1)
                cj = ref._randbelow(len(trips[j]) - 1)
                return {i: kept(trips[i][:ci + 1] + trips[j][cj + 1:]),
                        j: kept(trips[j][:cj + 1] + trips[i][ci + 1:])}
            check(sol, seed, cut_below_n)
        for n in range(2, 71):      # two of n one-trip AMRs; a reversal in n
            trips = tuple((0, a + 1, 0) for a in range(n))
            sol = Solution(amrs=tuple((trip,) for trip in trips))

            def two_of_n(ref):
                i, j = ref.sample(range(n), 2)
                ci, cj = ref._randbelow(2), ref._randbelow(2)
                return {i: kept(trips[i][:ci + 1] + trips[j][cj + 1:]),
                        j: kept(trips[j][:cj + 1] + trips[i][ci + 1:])}
            check(sol, seed, two_of_n)
            trip = (0, *range(1, n + 1), 0)

            def reversal(ref):
                i, j = sorted(ref.sample(range(1, n + 1), 2))
                return {0: (trip[:i] + trip[i:j + 1][::-1] + trip[j + 1:],)}
            check(Solution(amrs=((trip,),)), seed, reversal)
        for n in range(1, 71):      # the moves' draws
            rng, ref = random.Random(seed), random.Random(seed)
            bits = rng.getrandbits
            assert _below(bits, n) == ref.randrange(n)
            if n > 1:
                idxs = random.Random(n).sample(range(1, 100), n)
                assert 1 + _below(bits, n - 1) == ref.randrange(1, n)
                assert _two_below(bits, n) == tuple(ref.sample(range(n), 2))
                assert (tuple(idxs[h] for h in _two_below(bits, n))
                        == tuple(ref.sample(idxs, 2)))
            assert rng.getstate() == ref.getstate()


def _replaying(flat, draws):
    """A ``getrandbits`` under which ``_shake_candidates`` draws ``draws``
    of ``flat`` in order: each index is a value below its range, taken at
    once, and the second of a pair is read as ``_two_below`` reads it."""
    lone = len(flat) < 2
    n = len(flat[0][2]) - 2 if lone else len(flat)
    values = []
    for draw in draws:
        i, j = (draw[0] - 1, draw[1] - 2) if lone else draw[:2]
        values += [i, i if n <= 21 and j == n - 1 else j, *draw[2:]]
    it = iter(values)
    return lambda k: next(it)


def _exchange(sol, flat, draw):
    """The tail exchange ``draw`` of ``sol``, built and normalized in full."""
    i, j, c1, c2 = draw
    (a1, t1, trip1), (a2, t2, trip2) = flat[i], flat[j]
    lists = [list(amr) for amr in sol.amrs]
    lists[a1][t1] = trip1[:c1 + 1] + trip2[c2 + 1:]
    lists[a2][t2] = trip2[:c2 + 1] + trip1[c1 + 1:]
    return normalize_solution(lists)


def test_shake_bound_is_strictly_below_every_exchange(hospital12_path,
                                                      hospital64_path):
    """The O(1) bound of every tail exchange of random plans is strictly
    below the objective solution_cost gives the built candidate: on the
    shipped instances and random plain and tight-battery ones, with one-trip
    AMRs an exchange can empty, and with xi2 = 0."""
    rng = random.Random(41)
    insts = [load_instance(path) for path in (hospital12_path, hospital64_path)]
    insts += [random_instance(rng, rng.randint(2, 9), tight_battery=case % 2 == 1)
              for case in range(16)]
    insts += [dataclasses.replace(inst, cost=dataclasses.replace(
        inst.cost, per_meter=0.0)) for inst in insts[:6]]
    checked = emptied = 0
    for inst in insts:
        for _ in range(2):
            sol = random_solution(rng, inst)
            flat = _shake_trips(sol)
            draws = [(i, j, c1, c2)
                     for i, (_, _, trip1) in enumerate(flat)
                     for j, (_, _, trip2) in enumerate(flat) if i != j
                     for c1 in range(len(trip1) - 1)
                     for c2 in range(len(trip2) - 1)]
            entries = _shake_candidates(inst, sol, flat, _replaying(flat, draws),
                                        len(draws), solution_cost(inst, sol))
            assert [draw for _, _, draw in entries] == draws
            for bound, _, draw in entries:
                cand = _exchange(sol, flat, draw)
                assert bound < solution_cost(inst, cand).objective, (draw, sol)
                checked += 1
                emptied += len(cand.amrs) < len(sol.amrs)
    assert checked > 20_000 and emptied > 500


def _asymmetric(rng, inst):
    """``inst`` with a distance table that differs both ways.  Instance
    refuses an asymmetric matrix, so the copy's table is replaced after
    construction; the walk and the bounds read the same table."""
    n = len(inst.distance)
    copy = dataclasses.replace(inst)
    copy.distance = tuple(
        tuple(0.0 if i == j else inst.distance[i][j] * rng.uniform(0.2, 1.8)
              for j in range(n)) for i in range(n))
    return copy


def test_every_move_bound_is_strictly_below_its_objective(hospital12_path,
                                                          hospital64_path):
    """The bound of every swap, relocation and reversal of random plans,
    and of every lone-trip shake reversal, is strictly below the objective
    solution_cost gives the built move: on the shipped instances, random
    plain and tight-battery ones, with xi2 = 0 and with an asymmetric
    distance table."""
    rng = random.Random(47)
    insts = [load_instance(path) for path in (hospital12_path, hospital64_path)]
    insts += [random_instance(rng, rng.randint(2, 9), tight_battery=case % 2 == 1)
              for case in range(12)]
    insts += [dataclasses.replace(inst, cost=dataclasses.replace(
        inst.cost, per_meter=0.0)) for inst in insts[:5]]
    insts += [_asymmetric(rng, inst) for inst in insts[:5]]
    seen = Counter()

    def check(inst, sol, move, kind):
        bound, change = move
        built = _apply(sol, change)
        assert bound < solution_cost(inst, built).objective, (kind, sol, built)
        seen[kind] += 1
        seen["emptied trip"] += sum(map(len, built.amrs)) < sum(map(len, sol.amrs))
        seen["emptied amr"] += len(built.amrs) < len(sol.amrs)

    for inst in insts:
        for sol in (random_solution(rng, inst, max_trip=4), random_solution(rng, inst)):
            plan = _plan_index(inst, sol)
            _, flat, _, positions = plan
            now = solution_cost(inst, sol)._replace(penalized=math.inf)
            for p, q in itertools.combinations(positions, 2):
                adjacent = p[0] == q[0] and q[1] == p[1] + 1
                check(inst, sol, _swap(inst, plan, now, p, q),
                      "adjacent swap" if adjacent else "swap")
            for at, k in itertools.product(positions, range(len(flat))):
                for s in range(1, len(flat[k][2]) - (k == at[0])):
                    if (k, s) != at:    # its own slot is no move
                        check(inst, sol, _relocate(inst, plan, now, at, k, s),
                              "same-trip relocation" if k == at[0] else "relocation")
            for k, (_, _, trip) in enumerate(flat):
                for i, j in itertools.combinations(range(1, len(trip) - 1), 2):
                    check(inst, sol, _reverse(inst, plan, now, k, i, j), "reversal")
        # a lone trip: the shake reverses a slice of two stops or more
        lone = normalize_solution([[(DEPOT, *range(1, inst.n_requests + 1), DEPOT)]])
        flat = _shake_trips(lone)
        draws = [(i, j) for i in range(1, len(flat[0][2]))
                 for j in range(i + 2, len(flat[0][2]))]
        entries = _shake_candidates(inst, lone, flat, _replaying(flat, draws),
                                    len(draws), solution_cost(inst, lone))
        assert [draw for _, _, draw in entries] == draws
        for bound, _, draw in entries:
            check(inst, lone, (bound, _shake_change(lone, flat, draw)), "lone reversal")
    assert len(seen) == 8 and all(seen.values()), seen


def test_targeted_moves_descend_as_full_pricing_does():
    """On tight-window random plans, where moves target chance violations,
    local_search returns reference_descent's plan and leaves the generator
    where it does, and targeted swaps, targeted relocations and
    decreasing-run reversals are among the moves taken."""
    rng = random.Random(53)
    kinds = Counter()
    for case in range(60):
        inst = random_instance(rng, rng.randint(3, 10), tight_windows=True,
                               tight_battery=case % 3 == 0)
        sol = random_solution(rng, inst, max_trip=rng.randint(2, 6))
        for seed in range(2):
            got_rng, ref_rng = random.Random(seed), random.Random(seed)
            taken = []
            assert local_search(inst, sol, got_rng) == reference_descent(
                dataclasses.replace(inst), sol, ref_rng, taken)
            assert got_rng.getstate() == ref_rng.getstate()
            for x, cx, op, state in taken:
                kinds[op.__name__, _targeted(inst, x, cx, op, state)] += 1
    assert all(kinds[name, True] for name in
               ("swap_star", "two_opt_star", "relocation_star")), kinds


def _targeted(inst, x, cx, op, state):
    """Whether the move ``op`` makes of ``x`` from the generator ``state``
    takes its targeted branch: 2-opt* a decreasing run, swap* and
    relocation* a violator with a partner or a later-close request."""
    _, flat, idxs, positions = _plan_index(inst, x)
    if op is two_opt_star:
        return any(_decreasing_run(inst.window_close, trip, idxs[k]) is not None
                   for k, (_, _, trip) in enumerate(flat))
    rng = random.Random()
    rng.setstate(state)
    at = _violator_at(flat, positions, cx, rng.getrandbits)
    if at is None:
        return False
    if op is swap_star:
        return _loosest_partner(inst, flat, positions, at) is not None
    (k, vi), close = at, inst.window_close
    return any(close[flat[k][2][i]] > close[flat[k][2][vi]] for i in idxs[k])


def test_shake_below_gates_the_pick(hospital12_path, hospital64_path):
    """With ``below=T`` the shake returns reference_shake's pick when the
    pick's shake cost is under T and ``sol`` itself otherwise, for T one ulp
    above the pick's score, at it and one ulp below; the generator ends
    where the reference leaves it."""
    rng = random.Random(43)
    cases = []
    for case in range(24):
        inst = random_instance(rng, rng.randint(2, 9), tight_battery=case % 2 == 1)
        if case % 3 == 2:   # whole-number costs: ties everywhere
            inst = dataclasses.replace(
                inst, cost=dataclasses.replace(inst.cost, per_meter=0.0))
        cases.append((inst, random_solution(rng, inst)))
    for path in (hospital12_path, hospital64_path):
        inst = load_instance(path)
        cases.append((inst, feasible_operation(
            inst, greedy_initial(inst, random.Random(0)))))
        cases.append((inst, random_solution(rng, inst)))
    gated = 0
    for inst, sol in cases:
        for seed in range(3):
            ref = random.Random(seed)
            pick, built = reference_shake(inst, sol, ref)
            if not built:
                continue
            score = shake_cost(inst, solution_cost(inst, pick))
            for below, expected in ((math.nextafter(score, math.inf), pick),
                                    (score, sol),
                                    (math.nextafter(score, -math.inf), sol)):
                picked_rng = random.Random(seed)
                out = shake_2opt_l(inst, sol, picked_rng, below=below)
                assert out == expected
                assert expected is pick or out is sol
                assert picked_rng.getstate() == ref.getstate()
                gated += 1
    assert gated > 200


def test_shake_stores_only_stopped_walks(hospital12_path, hospital64_path):
    """On cold memos the shake adds int violation floors to the AMR store
    only where a walk stopped, each at least 1: a candidate priced without
    a walk, against its bound, stores nothing."""
    rng = random.Random(5)
    cases = [(load_instance(path), seed)
             for path in (hospital12_path, hospital64_path) for seed in range(2)]
    cases += [(random_instance(rng, rng.randint(4, 9), tight_battery=case % 2 == 1),
               case) for case in range(10)]
    stored = 0
    for inst, seed in cases:
        sol = random_solution(random.Random(seed), inst)
        cold = dataclasses.replace(inst)
        shake_2opt_l(cold, sol, random.Random(seed))
        floors = [v for v in cold._caches["amr"].values() if type(v) is int]
        assert all(floor >= 1 for floor in floors), floors
        stored += len(floors)
    assert stored     # some walk did stop


def _enumerate_all_tail_exchanges(inst, sol):
    flat = [(a, t) for a, amr in enumerate(sol.amrs) for t in range(len(amr))]
    best = None
    for i in range(len(flat)):
        for j in range(len(flat)):
            if i == j:
                continue
            a1, t1 = flat[i]
            a2, t2 = flat[j]
            trip1, trip2 = sol.amrs[a1][t1], sol.amrs[a2][t2]
            for c1 in range(len(trip1) - 1):
                for c2 in range(len(trip2) - 1):
                    lists = [[list(t) for t in amr] for amr in sol.amrs]
                    lists[a1][t1] = list(trip1[:c1 + 1] + trip2[c2 + 1:])
                    lists[a2][t2] = list(trip2[:c2 + 1] + trip1[c1 + 1:])
                    cost = shake_cost(
                        inst, solution_cost(inst, normalize_solution(lists)))
                    if best is None or cost < best:
                        best = cost
    return best


def test_shake_empty_tails_noop(hospital12):
    inst = hospital12
    sol = paper_optimum(inst)
    # candidates=1 with rng landing on end cuts leaves the solution unchanged
    for seed in range(200):
        out = shake_2opt_l(inst, sol, random.Random(seed), candidates=1)
        if out == sol:
            return
    pytest.fail("no end-cut candidate found in 200 seeds")


def test_operators_preserve_requests_random_sweep():
    """Every operator output is structurally valid and serves the same
    requests: the contract that lets solution_cost skip the structure check."""
    rng = random.Random(8)
    for case in range(40):
        inst = random_instance(rng, rng.randint(2, 9),
                               tight_battery=case % 2 == 1)
        sol = random_solution(rng, inst)
        ev = solution_cost(inst, sol)
        outs = [built_move(op, inst, sol, ev, rng)
                for op in (swap_star, two_opt_star, relocation_star)]
        outs.append(shake_2opt_l(inst, sol, rng, candidates=5))
        outs.append(depot_insert_repair(inst, sol))
        outs.append(charging_insert_repair(inst, outs[-1]))
        outs.append(amr_decrease(inst, outs[-1]))
        outs.append(greedy_initial(inst, rng))
        for out in outs:
            check_solution_structure(inst, out)
            assert request_multiset(inst, out) == request_multiset(inst, sol)


def test_swap_star_targeted_removes_forbidden_pair(hospital12):
    """After the targeted swap the trip no longer serves the late-window
    request ahead of the early-window one."""
    inst = hospital12
    sol = solution_from_ids(inst, [[[9, 1, 3]], [[2, 4, 5, 6]],
                                   [[7, 8, 10, 11, 12]]])
    ev = solution_cost(inst, sol)
    out = built_move(swap_star, inst, sol, ev, random.Random(0))
    trip = out.amrs[0][0]
    pos = {inst.node_label(n): i for i, n in enumerate(trip)}
    if "1" in pos and "9" in pos:
        assert pos["1"] < pos["9"]


def test_swap_star_targeted_clears_hard_pairs_random_sweep():
    """Whenever the targeted branch picks a violator with a hard-ordering
    cause on its own trip, the move leaves none of those causes ahead of it.
    A violator with no looser request ahead of it swaps with the loosest
    close on any other trip, smallest id on ties."""
    import dataclasses
    rng = random.Random(2)
    fired = fell_back = 0
    for _ in range(300):
        inst = random_instance(rng, rng.randint(3, 8))
        nodes = list(range(1, inst.n_requests + 1))
        early, late = rng.sample(nodes, 2)
        reqs = list(inst.requests)
        reqs[early - 1] = dataclasses.replace(
            reqs[early - 1], window_open=29_000.0, window_close=30_000.0)
        reqs[late - 1] = dataclasses.replace(
            reqs[late - 1], window_open=30_500.0, window_close=35_000.0)
        inst = dataclasses.replace(inst, requests=tuple(reqs))
        sol = random_solution(rng, inst)
        ev = solution_cost(inst, sol)
        if not ev.violating:
            continue
        pick_seed = rng.randint(0, 10_000)
        v = ev.violating[random.Random(pick_seed).randrange(len(ev.violating))] \
            if len(ev.violating) > 1 else ev.violating[0]
        home = next(t for t in sol.trips() if v in t)
        has_same_trip_partner = any(
            inst.is_request(n) and inst.window_close[n] > inst.window_close[v]
            for n in home[:home.index(v)])
        out = built_move(swap_star, inst, sol, ev, random.Random(pick_seed))
        if not has_same_trip_partner:
            looser = [(-inst.window_close[n], inst.request_at(n).id, n)
                      for t in sol.trips() if v not in t for n in t
                      if inst.is_request(n)
                      and inst.window_close[n] > inst.window_close[v]]
            if looser:
                flat = [n for t in sol.trips() for n in t]
                i, j = flat.index(v), flat.index(min(looser)[2])
                flat[i], flat[j] = flat[j], flat[i]
                assert [n for t in out.trips() for n in t] == flat
                fell_back += 1
            continue
        trip = next(t for t in out.trips() if v in t)
        vi = trip.index(v)
        ahead = [n for n in trip[1:vi] if inst.is_request(n)]
        assert all(inst.window_open[n] <= inst.window_close[v] + 1e-9
                   for n in ahead), "hard-ordering cause left ahead"
        fired += 1
    assert fired > 30
    assert fell_back > 30
