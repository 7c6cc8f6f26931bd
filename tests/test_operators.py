import dataclasses
import random
from collections import Counter

import pytest

from amrsched.model import (DEPOT, Solution, StructuralError,
                            check_solution_structure, load_instance,
                            normalize_solution, solution_from_ids)
from amrsched import evaluation
from amrsched.evaluation import evaluate_solution, solution_cost
from amrsched.operators import (amr_decrease, charging_insert_repair,
                                depot_insert_repair, relocation_star,
                                shake_2opt_l, shake_cost, swap_star,
                                two_opt_star)
from amrsched.vns import feasible_operation, greedy_initial, local_search
from helpers import (paper_optimum, random_instance, random_solution,
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
    out = swap_star(inst, sol, ev, random.Random(0))
    labels = [inst.node_label(n) for n in out.amrs[0][0]]
    assert labels == ["d", "1", "9", "d"]
    assert request_multiset(inst, out) == request_multiset(inst, sol)


def test_swap_star_random_branch_swaps_two(hospital12):
    inst = hospital12
    sol = paper_optimum(inst)
    ev = solution_cost(inst, sol)
    assert not ev.violating
    out = swap_star(inst, sol, ev, random.Random(7))
    assert request_multiset(inst, out) == request_multiset(inst, sol)
    moved = [n for n in range(1, 13)
             if _position(inst, out, n) != _position(inst, sol, n)]
    assert len(moved) == 2


def test_swap_star_single_request_unchanged():
    rng = random.Random(1)
    inst = random_instance(rng, 1)
    sol = solution_from_ids(inst, [[[1]]])
    assert swap_star(inst, sol, solution_cost(inst, sol), rng) == sol


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
    out = two_opt_star(inst, sol, solution_cost(inst, sol), random.Random(0))
    labels = [inst.node_label(n) for n in out.amrs[0][0]]
    assert labels == ["d", "1", "5", "9", "d"]
    assert request_multiset(inst, out) == request_multiset(inst, sol)


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
    out = two_opt_star(inst2, sol, solution_cost(inst2, sol), random.Random(3))
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
    assert two_opt_star(inst, sol, solution_cost(inst, sol), rng) == sol


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
    out = relocation_star(inst, sol, ev, random.Random(0))
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
        out = relocation_star(inst, sol, solution_cost(inst, sol),
                              random.Random(seed))
        assert request_multiset(inst, out) == request_multiset(inst, sol)
        if out == sol:
            seen_identity = True
    assert seen_identity


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
                                     service=dataclasses.replace(
                                         r.service, mean=400.0))
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
    assert len(seen) == 7 and all(seen.values()), seen
    # and the pick can never beat the globally best tail exchange
    inst = load_instance(hospital12_path)
    sol = feasible_operation(inst, greedy_initial(inst, random.Random(0)))
    picked = shake_2opt_l(inst, sol, random.Random(123), candidates=20)
    global_best = _enumerate_all_tail_exchanges(inst, sol)
    assert shake_cost(inst, solution_cost(inst, picked)) >= global_best - 1e-9


def test_memos_capped_at_three_change_no_cost_and_no_shake(monkeypatch):
    """With each memo, the lower-bound store included, capped at three
    records the caches clear on nearly every store, also between the
    prefixes of one AMR's walk; no cost summary, shake pick, descent or
    merge may change from its full-pricing reference."""
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
                bounds += any(v for _, v in inst._caches["bound"].values())
            repaired = charging_insert_repair(inst, depot_insert_repair(inst, sol))
            for plan in (sol, repaired):
                merged = amr_decrease(inst, plan)
                assert merged == reference_merge(dataclasses.replace(inst), plan)
                merges += len(merged.amrs) < len(plan.amrs)
            assert solution_cost(inst, sol) == summary
    assert longest > 3      # some walk stores more prefixes than the cap
    assert merges and bounds    # merges are kept and walks are stopped


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
        outs = [op(inst, sol, ev, rng)
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
    out = swap_star(inst, sol, ev, random.Random(0))
    trip = out.amrs[0][0]
    pos = {inst.node_label(n): i for i, n in enumerate(trip)}
    if "1" in pos and "9" in pos:
        assert pos["1"] < pos["9"]


def test_swap_star_targeted_clears_hard_pairs_random_sweep():
    """Whenever the targeted branch picks a violator with a hard-ordering
    cause on its own trip, the move leaves none of those causes ahead of it."""
    import dataclasses
    rng = random.Random(2)
    fired = 0
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
        if not has_same_trip_partner:
            continue  # cross-trip fallback: the guarantee is out of scope
        out = swap_star(inst, sol, ev, random.Random(pick_seed))
        trip = next(t for t in out.trips() if v in t)
        vi = trip.index(v)
        ahead = [n for n in trip[1:vi] if inst.is_request(n)]
        assert all(inst.window_open[n] <= inst.window_close[v] + 1e-9
                   for n in ahead), "hard-ordering cause left ahead"
        fired += 1
    assert fired > 30
