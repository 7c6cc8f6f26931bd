import dataclasses
import itertools
import math
import random

import pytest

from amrsched.model import DEPOT, Solution, StructuralError, solution_from_ids
from amrsched.evaluation import (_amr_cost, _walk_trip, evaluate_solution,
                                 solution_cost, solution_to_dict)
from amrsched.operators import charging_insert_repair, depot_insert_repair
from amrsched.oracle import (NoFeasibleSolution, _battery_never_binds,
                             _growth_prunes_sound, exact_solve, mc_validate)
from amrsched.vns import solve
from helpers import (brute_force_objective, paper_optimum, random_instance,
                     random_solution, reference_mc_validate, sub_instance)


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
    reqs = tuple(dataclasses.replace(r, window_open=29400.0,
                                     window_close=29900.0,
                                     service_mean=450.0, service_var=36.0)
                 for r in inst.requests)
    inst = dataclasses.replace(inst, requests=reqs, shift_start=None)
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


def test_exact_never_above_heuristic(hospital64):
    """On random instances and on an 8-request hospital64 subset, whose
    loose windows let nearly every ordered day through the order prunes."""
    rng = random.Random(123)
    insts = [random_instance(rng, rng.randint(2, 5)) for _ in range(8)]
    insts.append(sub_instance(hospital64, random.Random(5).sample(range(1, 65), 8)))
    for inst in insts:
        exact_obj = exact_solve(inst)[1]
        _, ev, _ = solve(inst, 150, seed=0)
        if ev.feasible:
            assert exact_obj <= ev.objective + 1e-9


def test_exact_refuses_oversize(hospital64):
    with pytest.raises(ValueError, match="refuses 13 requests"):
        exact_solve(sub_instance(hospital64, list(range(1, 14))))


def test_exact_matches_brute_force():
    """Against a reference with no pruning, on plain and tight-battery
    instances, and at epsilon = 0.6, where the growth prunes are off.  Label
    dominance is on for the plain cases at epsilon 0.05, and for a lone
    request, whose two legs no battery here fails to cover."""
    rng = random.Random(11)
    charged = 0
    for case in range(32):
        inst = random_instance(rng, rng.randint(1, 5), tight_battery=case % 2 == 0,
                               tight_windows=case % 3 == 0)
        if case % 4 == 0:  # one leg may drain half the battery
            inst = dataclasses.replace(inst, amr=dataclasses.replace(
                inst.amr, consume_rate=1.5 * inst.amr.consume_rate))
        if case % 8 >= 4:
            inst = dataclasses.replace(
                inst, cost=dataclasses.replace(inst.cost, epsilon=0.6))
        assert _growth_prunes_sound(inst) == (case % 8 < 4)
        assert (_growth_prunes_sound(inst) and _battery_never_binds(inst)) == (
            case % 8 < 4 and (case % 2 == 1 or inst.n_requests == 1)), case
        sol, obj = exact_solve(inst)
        assert obj == pytest.approx(brute_force_objective(inst), abs=1e-9), case
        charged += any(inst.is_charging(n) for trip in sol.trips() for n in trip)
    assert charged >= 3


def test_exact_lets_a_wide_arrival_pass_late_above_half_epsilon():
    """At epsilon > 0.5 the window test subtracts a multiple of sigma, so
    the order prune is off: request 2 opens after request 1 closes, yet its
    wide service law lets request 1 follow it, on the one-AMR optimum."""
    inst = random_instance(random.Random(5), 2)
    r1, r2 = inst.requests
    reqs = (dataclasses.replace(r1, window_open=30000.0, window_close=31000.0,
                                service_mean=3000.0, service_var=36.0),
            dataclasses.replace(r2, window_open=31010.0, window_close=32000.0,
                                service_mean=0.0, service_var=86400.0 ** 2))
    inst = dataclasses.replace(inst, requests=reqs, shift_start=None,
                               cost=dataclasses.replace(inst.cost, epsilon=0.6))
    sol, obj = exact_solve(inst)
    assert sol.amrs == (((DEPOT, 2, 1, DEPOT),),)
    assert obj == pytest.approx(brute_force_objective(inst), abs=1e-9)


def test_exact_stays_exact_where_a_charger_detour_is_a_shortcut():
    """A charger one metre from every node makes a detour shorter than the
    direct leg, so a repaired day can arrive earlier than its unrepaired
    walk: the growth prunes are off, and the search still finds the
    optimum."""
    inst = random_instance(random.Random(4), 4, tight_battery=True,
                           tight_windows=True)
    charger = inst.charging_nodes[0]
    distance = [[4.0 * d for d in row] for row in inst.distance]
    for x in range(inst.n_nodes):
        if x != charger:
            distance[x][charger] = distance[charger][x] = 1.0
    amr = dataclasses.replace(inst.amr, charge_rate=0.01,
                              consume_rate=1.5 / 4.0 * inst.amr.consume_rate)
    inst = dataclasses.replace(inst, distance=tuple(map(tuple, distance)),
                               amr=amr, shift_start=None)
    assert not _growth_prunes_sound(inst)
    sol, obj = exact_solve(inst)
    assert any(inst.is_charging(n) for trip in sol.trips() for n in trip)
    assert obj == pytest.approx(brute_force_objective(inst), abs=1e-9)


def test_growth_prune_premises_hold(hospital12, hospital64):
    """exact_solve prunes only where no detour through a charging station
    arrives earlier, in mean or in variance, than the direct leg, and drops
    dominated days only where, besides, no day can drain the battery below
    alpha: true of hospital12, of the hospital64 subsets exact_solve accepts
    and of criterion 3's generator, so the tests and the benchmark run the
    pruned search.  Full hospital64 has too many requests for the battery
    premise."""
    rng = random.Random(2024)
    ids = list(range(1, 65))
    subsets = [sub_instance(hospital64, rng.sample(ids, 12)) for _ in range(5)]
    insts = [hospital12, *subsets] + [
        random_instance(rng, rng.randint(2, 6), tight_windows=case % 2 == 0)
        for case in range(20)]
    assert _growth_prunes_sound(hospital64)
    assert all(_growth_prunes_sound(inst) for inst in insts)
    assert all(_battery_never_binds(inst) for inst in insts)
    assert not _battery_never_binds(hospital64)


def test_dominated_day_never_extends_better():
    """The premise of label dominance: where a day A that breaks no window
    (a day exact_solve may grow) has the same requests and the same last
    request as day B, and no larger open-trip load, depot arrival mean,
    depot arrival variance or distance, every extension of B that is
    feasible is feasible on A, and no shorter there."""
    rng = random.Random(41)
    pairs = 0
    for case in range(200):
        inst = random_instance(rng, rng.randint(4, 6), tight_windows=case % 2 == 0)
        assert _growth_prunes_sound(inst) and _battery_never_binds(inst)
        served = rng.sample(range(1, inst.n_requests + 1), rng.randint(2, 3))
        rest = [r for r in range(1, inst.n_requests + 1) if r not in served]
        days = []
        for _ in range(20):
            days.append(_random_day(rng, inst, rng.sample(served, len(served))))
        for a, b in itertools.permutations(dict.fromkeys(days), 2):
            if a[0][-1][-2] != b[0][-1][-2]:
                continue
            ra = _amr_cost(inst, a[0])
            rb = _amr_cost(inst, b[0])
            if ra[1] or not (a[1] <= b[1] and ra[5] <= rb[5] and ra[6] <= rb[6]
                             and ra[0] <= rb[0]):
                continue
            pairs += 1
            for _ in range(3):
                ext = rng.sample(rest, rng.randint(1, len(rest)))
                opens = [rng.random() < 0.5 for _ in ext]
                ea = _amr_cost(inst, _extend(a[0], ext, opens))
                eb = _amr_cost(inst, _extend(b[0], ext, opens))
                if not any(eb[1:4]):
                    assert not any(ea[1:4]), (case, a, b, ext, opens)
                assert ea[0] <= eb[0] + 1e-9, (case, a, b, ext, opens)
    assert pairs >= 500


def _random_day(rng, inst, order):
    """A day serving ``order`` in that order, with random trip breaks, and
    its open trip's load."""
    trips = [[order[0]]]
    for r in order[1:]:
        if rng.random() < 0.5:
            trips.append([r])
        else:
            trips[-1].append(r)
    day = tuple((DEPOT, *trip, DEPOT) for trip in trips)
    return day, sum(inst.demand[r] for r in trips[-1])


def _extend(day, ext, opens):
    """``day`` grown by each request of ``ext`` in turn: a new trip where
    ``opens`` says so, else appended to the open trip."""
    for r, new in zip(ext, opens):
        if new:
            day += ((DEPOT, r, DEPOT),)
        else:
            day = day[:-1] + (day[-1][:-1] + (r, DEPOT),)
    return day


def test_later_or_wider_start_never_ends_earlier_or_narrower():
    """The other premise of the window prune: in _walk_trip a start with a
    larger mean or variance never gives any node an earlier or narrower
    arrival or start, nor fewer window violations.  The tolerance covers the
    rounding of the truncated moments, which grows with the squared wait."""
    rng = random.Random(31)
    for case in range(300):
        inst = random_instance(rng, rng.randint(1, 6), tight_battery=case % 2 == 0,
                               tight_windows=case % 3 == 0)
        body = rng.sample(range(1, inst.n_requests + 1), rng.randint(1, inst.n_requests))
        for _ in range(rng.randint(0, 2)):
            body.insert(rng.randint(0, len(body)), inst.charging_nodes[0])
        trip = (DEPOT, *body, DEPOT)
        t0 = inst.shift_start + rng.uniform(-2000, 4000)
        v0 = rng.choice([0.0, rng.uniform(0, 4e4)])
        dt, dv = rng.choice([(rng.uniform(0, 3000), 0.0), (0.0, rng.uniform(0, 4e4)),
                             (rng.uniform(0, 3000), rng.uniform(0, 4e4))])
        b0 = rng.uniform(0.3, 0.8)
        base, later = [], []
        viol = _walk_trip(inst, (0.0, 0, 0, 0, (), t0, v0, b0), trip,
                          profile=base)[4]
        viol_later = _walk_trip(inst, (0.0, 0, 0, 0, (), t0 + dt, v0 + dv, b0), trip,
                                profile=later)[4]
        for x, y in zip(base, later):
            assert all(y[k] >= x[k] - 1e-6 for k in range(4)), (case, x, y)
        assert set(viol) <= set(viol_later), case


def test_exact_tests_capacity_as_the_walk_does(hospital12):
    """The walk takes each demand off the capacity in trip order.  Summed,
    these three demands pass the capacity by 1.5e-8, beyond the 1e-9
    tolerance; taken off in order they leave exactly 0.  So the one trip
    d 1 2 3 d is feasible, and it is the optimum."""
    demands = (17913596.56522111, 15179159.12030319, 80968567.77259612)
    sub = sub_instance(hospital12, [1, 2, 3])
    sub = dataclasses.replace(
        sub, amr=dataclasses.replace(sub.amr, capacity=114061323.4581204),
        requests=tuple(dataclasses.replace(r, demand=q, window_open=0.0,
                                           window_close=86400.0)
                       for r, q in zip(sub.requests, demands)))
    one_trip = solution_from_ids(sub, [[[1, 2, 3]]])
    ev = evaluate_solution(sub, one_trip)
    assert ev.feasible and ev.per_trip[0].load_after[-1] == 0.0
    assert exact_solve(sub) == (one_trip, ev.objective)


def test_exact_reports_infeasible():
    rng = random.Random(1)
    inst = random_instance(rng, 2)
    reqs = tuple(dataclasses.replace(r, window_open=10.0, window_close=20.0)
                 for r in inst.requests)
    inst = dataclasses.replace(inst, requests=reqs, shift_start=50_000.0)
    with pytest.raises(NoFeasibleSolution):
        exact_solve(inst)


def test_exact_returns_a_plan_whose_objective_overflows(hospital12):
    """At xi1 = 1e308 every one-AMR day is finite, but the two-AMR optimum of
    these requests sums to inf: still a feasible plan, not "no plan"."""
    sub = sub_instance(hospital12, [1, 2, 3, 4])
    sub = dataclasses.replace(sub, cost=dataclasses.replace(sub.cost,
                                                            fixed_per_amr=1e308))
    sol, obj = exact_solve(sub)
    cost = solution_cost(sub, sol)
    assert obj == math.inf and cost.objective == obj
    assert cost.feasible and len(sol.amrs) == 2


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


def test_exact_leaves_the_search_memos_alone(hospital12):
    """exact_solve prices each day from the records its days carry, not
    through the search's memos: a fresh instance keeps no violation floor
    and no trip-prefix record but those of the returned plan, whose
    objective is the one solution_cost gives.  On hospital12 subsets, and on
    tight-battery instances, whose days the charging repair rebuilds."""
    rng = random.Random(31)
    insts = [sub_instance(hospital12, rng.sample(range(1, 13), rng.randint(3, 6)))
             for _ in range(5)]
    for _ in range(6):  # one leg may drain half the battery
        inst = random_instance(rng, rng.randint(3, 5), tight_battery=True)
        insts.append(dataclasses.replace(inst, amr=dataclasses.replace(
            inst.amr, consume_rate=1.5 * inst.amr.consume_rate)))
    charged = 0
    for inst in insts:
        sol, obj = exact_solve(inst)
        caches = inst._caches
        assert not any(type(v) is int for v in caches["amr"].values())
        assert set(caches["amr"]) <= {amr[:k] for amr in sol.amrs
                                      for k in range(1, len(amr) + 1)}
        assert solution_cost(inst, sol).objective == obj
        charged += any(inst.is_charging(n) for trip in sol.trips() for n in trip)
    assert charged >= 2


# ---------------------------------------------------------------------------
# Monte Carlo validation


def test_mc_zero_variance_plan_is_exact(hospital12):
    inst = dataclasses.replace(
        hospital12,
        requests=tuple(dataclasses.replace(r, service_var=0.0)
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


def test_mc_replays_partial_charges():
    """Repaired tight-battery plans that charge part of the way to beta, with
    windows of [0, 86400] so that no request waits: every request's sampled
    mean arrival, charge times included, is the analytic one within 4
    standard errors."""
    rng = random.Random(4)
    plans = 0
    while plans < 4:
        inst = random_instance(rng, rng.randint(4, 8), tight_battery=True)
        inst = dataclasses.replace(inst, requests=tuple(
            dataclasses.replace(r, window_open=0.0, window_close=86400.0)
            for r in inst.requests))
        try:
            sol = charging_insert_repair(
                inst, depot_insert_repair(inst, random_solution(rng, inst)))
        except StructuralError:
            continue
        ev = evaluate_solution(inst, sol)
        trips = [trip for amr in sol.amrs for trip in amr]     # as ev.per_trip
        charged = [timing.departure_mean - timing.arrival.mean
                   for trip, te in zip(trips, ev.per_trip)
                   for node, timing in zip(trip, te.timings) if inst.is_charging(node)]
        if not charged:
            continue
        assert ev.feasible and min(charged) > 0.0
        plans += 1
        report = mc_validate(inst, sol, 200_000, seed=plans)
        analytic = {s["id"]: s for s in solution_to_dict(inst, sol, ev)["per_request"]}
        assert len(report.per_request) == len(analytic)
        for stat in report.per_request:
            s = analytic[stat.id]
            se = s["arrival_std"] / math.sqrt(report.samples)
            assert abs(stat.mean_arrival - s["arrival_mean"]) <= 4 * se, stat


def test_mc_reports_what_the_allocating_replay_reports(hospital12, hospital64):
    """The in-place replay reports exactly what the allocate-per-node
    reference does, at 1, 7 and 5000 samples and two seeds, on hospital12's
    paper optimum, a hospital64 N=400 plan and 24 random plans repaired by
    ``depot_insert_repair`` and then ``charging_insert_repair``, every other
    one on a tight-battery instance (so partial charges are replayed).

    Equality assumes numpy's ``normal`` computes ``loc + scale * z`` with a
    separate multiply and add, as the in-place replay does; a build that
    fused them into one FMA would round differently.  x86-64 builds do not
    fuse, and CI runs on x86-64."""
    cases = [(hospital12, paper_optimum(hospital12)),
             (hospital64, solve(hospital64, 400, seed=0)[0])]
    rng = random.Random(24)
    while len(cases) < 26:
        inst = random_instance(rng, rng.randint(3, 9), tight_battery=len(cases) % 2 == 0)
        try:
            sol = charging_insert_repair(
                inst, depot_insert_repair(inst, random_solution(rng, inst)))
        except StructuralError:
            continue
        cases.append((inst, sol))
    assert sum(any(inst.is_charging(node) for amr in sol.amrs for trip in amr
                   for node in trip) for inst, sol in cases) >= 5
    for inst, sol in cases:
        for samples in (1, 7, 5000):
            for seed in (0, 11):
                assert (mc_validate(inst, sol, samples, seed=seed)
                        == reference_mc_validate(inst, sol, samples, seed=seed))


def test_mc_refuses_zero_samples(hospital12):
    with pytest.raises(ValueError):
        mc_validate(hospital12, paper_optimum(hospital12), 0)


def test_mc_deterministic(hospital12):
    sol = paper_optimum(hospital12)
    a = mc_validate(hospital12, sol, 5000, seed=3)
    b = mc_validate(hospital12, sol, 5000, seed=3)
    assert a == b
