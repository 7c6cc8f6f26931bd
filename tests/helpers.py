"""Shared builders for the test suite: random instances/solutions and the
independent Monte Carlo oracle for truncated-normal moments."""

from __future__ import annotations

import json
import math
import random
from functools import partial
from pathlib import Path

import numpy as np

from amrsched.model import (AmrParams, CostParams, DEPOT, Instance,
                            Request, Solution, StochasticParams, StructuralError,
                            load_instance, normalize_solution,
                            serialize_instance, solution_from_ids)

# The depot and first 17 customers of Solomon's R101, in its text format.
SOLOMON_SAMPLE = """\
R101

VEHICLE
NUMBER     CAPACITY
  25         200

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME   DUE DATE   SERVICE TIME

    0      35         35          0          0        230          0
    1      41         49         10        161        171         10
    2      35         17          7         50         60         10
    3      55         45         13        116        126         10
    4      55         20         19        149        159         10
    5      15         30         26         34         44         10
    6      25         30          3         99        109         10
    7      20         50          5         81         91         10
    8      10         43          9         95        105         10
    9      55         60         16         97        107         10
   10      30         60         16        124        134         10
   11      20         65         12         67         77         10
   12      50         35         19         63         73         10
   13      30         25         23        159        169         10
   14      15         10         20         32         42         10
   15      30          5          8         61         71         10
   16      10         20         19         75         85         10
   17       5         30          2        157        167         10
"""

# The published optimum for the shipped 12-request instance.
OPTIMAL_ROUTES = [[[1, 3, 6, 7], [9, 11, 10]], [[4, 2, 5, 8, 12]]]


def paper_optimum(inst: Instance) -> Solution:
    return solution_from_ids(inst, OPTIMAL_ROUTES)


def random_instance(rng: random.Random, n_requests: int, *,
                    tight_battery: bool = False,
                    tight_windows: bool = False) -> Instance:
    """Random but always-serviceable instance.

    Windows are wide enough that every request alone on a fresh AMR passes
    its chance test, so a feasible solution always exists.  With
    tight_battery the consumption rate is raised until multi-stop trips
    need mid-route charging while any single leg stays coverable.
    """
    n_nodes = n_requests + 2  # depot + requests + one charging station
    coords = [(rng.uniform(0, 400), rng.uniform(0, 400)) for _ in range(n_nodes)]
    floors = [0] + [rng.randint(0, 4) for _ in range(n_requests)] + [0]
    distance = tuple(
        tuple(0.0 if i == j else round(math.dist(coords[i], coords[j]), 1)
              for j in range(n_nodes))
        for i in range(n_nodes)
    )
    floor_diff = tuple(
        tuple(float(abs(floors[i] - floors[j])) for j in range(n_nodes))
        for i in range(n_nodes)
    )
    capacity = 20.0
    requests = []
    for i in range(n_requests):
        if tight_windows:
            open_ = rng.uniform(29_000, 30_500)
            width = rng.uniform(1500, 2600)
        else:
            open_ = rng.uniform(29_000, 33_000)
            width = rng.uniform(1500, 3600)
        requests.append(Request(
            id=i + 1,
            demand=float(rng.randint(1, 8)),
            window_open=round(open_, 0),
            window_close=round(open_ + width, 0),
            service_mean=float(rng.randint(60, 240)), service_var=36.0,
            floor=floors[i + 1],
        ))
    max_arc = max(max(row) for row in distance)
    if tight_battery:
        consume = 0.8 / (3.0 * max_arc)   # one leg <= (beta-alpha)/3
        battery_init = 0.8
    else:
        consume = 1.0 / 21600.0
        battery_init = 1.0
    amr = AmrParams(capacity=capacity, speed=1.0, consume_rate=consume,
                    charge_rate=1.0 / 16200.0, battery_low=0.0,
                    battery_high=0.8, battery_init=battery_init)
    cost = CostParams(fixed_per_amr=30.0, per_meter=0.01, tw_penalty=1000.0,
                      epsilon=0.05, shake_delta=1.1)
    return Instance(requests=tuple(requests), depot_floor=0, charging_floors=(0,),
                    distance=distance, floor_diff=floor_diff, amr=amr,
                    cost=cost, stoch=StochasticParams(), shift_start=None)


def battery_starved_payload(charger: bool = True) -> dict:
    """hospital12 as a JSON payload with a battery no charging stop can save:
    it starts at 0.5 with alpha = 0.1 and the longest leg drains 0.5/1.05.
    Without ``charger`` the charging station is removed as well."""
    data = json.loads((INSTANCE_DIR / "hospital12.json").read_text())
    longest = max(max(row) for row in data["distance"])
    data["amr"].update(consume_rate=0.5 / (1.05 * longest), alpha=0.1,
                       battery_init=0.5)
    if not charger:
        keep = len(data["distance"]) - len(data["charging"])
        data["charging"] = []
        for name in ("distance", "floor_diff"):
            data[name] = [row[:keep] for row in data[name][:keep]]
    return data


def random_solution(rng: random.Random, inst: Instance,
                    max_trip: int = 6) -> Solution:
    """Random covering solution; may break capacity, battery or windows."""
    nodes = list(range(1, inst.n_requests + 1))
    rng.shuffle(nodes)
    amrs: list[list[tuple[int, ...]]] = []
    i = 0
    while i < len(nodes):
        k = rng.randint(1, min(max_trip, len(nodes) - i))
        trip = (DEPOT, *nodes[i:i + k], DEPOT)
        i += k
        if amrs and rng.random() < 0.5:
            amrs[-1].append(trip)
        else:
            amrs.append([trip])
    return normalize_solution(amrs)


def reference_shake(inst: Instance, sol: Solution, rng: random.Random,
                    candidates: int = 20):
    """The shake as a plain loop: build every candidate in full, price it
    with solution_cost and keep the first-drawn minimum of shake_cost.
    Returns (pick, candidates built); it draws from rng exactly as
    operators.shake_2opt_l must."""
    from amrsched.evaluation import solution_cost
    from amrsched.operators import shake_cost

    flat = [(a, t) for a, amr in enumerate(sol.amrs) for t in range(len(amr))]
    if not flat:
        return sol, []
    best = None
    best_pen = math.inf
    built = []
    for _ in range(candidates):
        if len(flat) >= 2:
            (a1, t1), (a2, t2) = (flat[k] for k in rng.sample(range(len(flat)), 2))
            trip1 = sol.amrs[a1][t1]
            trip2 = sol.amrs[a2][t2]
            c1 = rng.randint(0, len(trip1) - 2)
            c2 = rng.randint(0, len(trip2) - 2)
            amrs = [list(amr) for amr in sol.amrs]
            amrs[a1][t1] = trip1[:c1 + 1] + trip2[c2 + 1:]
            amrs[a2][t2] = trip2[:c2 + 1] + trip1[c1 + 1:]
            cand = normalize_solution(amrs)
        else:
            a, t = flat[0]
            trip = sol.amrs[a][t]
            if len(trip) < 4:
                continue
            i, j = sorted(rng.sample(range(1, len(trip) - 1), 2))
            body = list(trip)
            body[i:j + 1] = reversed(body[i:j + 1])
            cand = normalize_solution([[body]])
        built.append(cand)
        pen = shake_cost(inst, solution_cost(inst, cand))
        if pen < best_pen:
            best = cand
            best_pen = pen
    return (best if best is not None else sol), built


def reference_descent(inst: Instance, x: Solution, rng: random.Random) -> Solution:
    """vns.local_search with every candidate priced in full: the descent
    the bounded pricing must reproduce."""
    from amrsched.evaluation import solution_cost
    from amrsched.vns import _NEIGHBORHOODS

    cx = solution_cost(inst, x)
    k = 1
    while k <= len(_NEIGHBORHOODS):
        candidate = _NEIGHBORHOODS[k - 1](inst, x, cx, rng)
        cc = solution_cost(inst, candidate)
        if cc.penalized < cx.penalized:
            x, cx = candidate, cc
            k = 1
        else:
            k += 1
    return x


def reference_merge(inst: Instance, sol: Solution) -> Solution:
    """operators.amr_decrease with every merged plan priced in full: keep
    the first merge, in permutation order, whose plan is feasible."""
    from itertools import permutations

    from amrsched.evaluation import solution_cost

    current = sol
    while len(current.amrs) > 1:
        for a, b in permutations(range(len(current.amrs)), 2):
            merged = list(current.amrs)
            merged[a] = merged[a] + merged[b]
            del merged[b]
            candidate = Solution(amrs=tuple(merged))
            if solution_cost(inst, candidate).feasible:
                current = candidate
                break
        else:
            break
    return current


def brute_force_objective(inst: Instance) -> float:
    """Cheapest feasible objective over every plan, with no pruning: each
    partition of the requests into AMRs, each day of every part (request
    order and trip breaks), priced by solution_cost after the charging
    repair.  math.inf when no plan is feasible.  Meant for <= 5 requests."""
    from itertools import permutations, product

    from amrsched.evaluation import solution_cost
    from amrsched.operators import charging_insert_repair

    def partitions(items):
        if not items:
            yield []
            return
        for rest in partitions(items[1:]):
            yield [[items[0]], *rest]
            for k in range(len(rest)):
                yield [*rest[:k], [items[0], *rest[k]], *rest[k + 1:]]

    def days(part):
        for order in permutations(part):
            for breaks in product((False, True), repeat=len(order) - 1):
                trips = [[DEPOT, order[0]]]
                for node, new_trip in zip(order[1:], breaks):
                    if new_trip:
                        trips.append([DEPOT])
                    trips[-1].append(node)
                yield tuple((*t, DEPOT) for t in trips)

    best = math.inf
    for parts in partitions(list(range(1, inst.n_requests + 1))):
        for amrs in product(*(list(days(p)) for p in parts)):
            try:
                sol = charging_insert_repair(inst, Solution(amrs=amrs))
            except StructuralError:
                continue
            cost = solution_cost(inst, sol)
            if cost.feasible:
                best = min(best, cost.objective)
    return best


def mc_truncated_moments(mu: float, sigma: float, e: float, samples: int,
                         seed: int = 0, stratified: bool = True):
    """Monte Carlo mean/variance of max(X, e), X ~ N(mu, sigma^2).

    Stratified sampling (inverse CDF over a jittered uniform grid) is
    unbiased and shrinks the estimator noise enough that tight relative
    tolerances stay meaningful deep in the truncation regime.
    """
    from scipy.special import ndtri

    rng = np.random.default_rng(seed)
    if stratified:
        u = (np.arange(samples) + rng.random(samples)) / samples
        x = mu + sigma * ndtri(u)
    else:
        x = rng.normal(mu, sigma, samples)
    y = np.maximum(x, e)
    return float(y.mean()), float(y.var())


def reference_mc_validate(inst: Instance, sol: Solution, samples: int,
                          seed: int = 0):
    """oracle.mc_validate as a plain replay that allocates fresh arrays at
    every node: each duration is ``rng.normal(mu, sigma, samples)``, clamped
    at zero, and every update builds a new time array.  The in-place replay
    must report exactly what this one does."""
    from amrsched.evaluation import _BATTERY_EPS
    from amrsched.oracle import McReport, RequestStats

    rng = np.random.default_rng(seed)
    amrp = inst.amr
    late = {}
    arrival_sum = {}

    def duration(mu, var):
        if var > 0.0:
            return np.maximum(rng.normal(mu, math.sqrt(var), samples), 0.0)
        return max(mu, 0.0)

    for amr in sol.amrs:
        t = np.full(samples, float(inst.shift_start))
        battery = amrp.battery_init
        nodes = [DEPOT, *(node for trip in amr for node in trip[1:])]
        for prev, node in zip(nodes, nodes[1:]):
            t = t + duration(inst.travel_mean[prev][node], inst.travel_var[prev][node])
            battery -= inst.drain[prev][node]
            if inst.is_request(node):
                late[node] = int((t > inst.window_close[node]).sum())
                arrival_sum[node] = float(t.sum())
                t = np.maximum(t, inst.window_open[node])
                t = t + duration(inst.service_mean[node], inst.service_var[node])
            elif inst.is_charging(node) and battery < amrp.battery_high - _BATTERY_EPS:
                t = t + (amrp.battery_high - battery) / amrp.charge_rate
                battery = amrp.battery_high
    stats = [RequestStats(id=inst.request_at(node).id,
                          violation_frequency=late[node] / samples,
                          mean_arrival=arrival_sum[node] / samples)
             for node in sorted(late, key=lambda nd: inst.request_at(nd).id)]
    return McReport(
        samples=samples,
        per_request=tuple(stats),
        max_violation=max((s.violation_frequency for s in stats), default=0.0),
    )


def sub_instance(inst: Instance, ids: list[int]) -> Instance:
    """Restrict an instance to the given request ids (matrices re-sliced)."""
    keep_nodes = [DEPOT] + [inst.node_of_id[r] for r in ids] + list(inst.charging_nodes)
    requests = tuple(inst.request_at(inst.node_of_id[r]) for r in ids)
    distance = tuple(tuple(inst.distance[i][j] for j in keep_nodes)
                     for i in keep_nodes)
    floor_diff = tuple(tuple(inst.floor_diff[i][j] for j in keep_nodes)
                       for i in keep_nodes)
    return Instance(requests=requests, depot_floor=inst.depot_floor,
                    charging_floors=inst.charging_floors, distance=distance,
                    floor_diff=floor_diff, amr=inst.amr, cost=inst.cost,
                    stoch=inst.stoch, shift_start=None)


# ---------------------------------------------------------------------------
# goldens: outputs pinned byte for byte by tests/test_goldens.py and written
# by scripts/capture_goldens.py

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
GOLDEN_SOLVES = (("hospital12", 4000), ("hospital64", 400))


def golden_text(payload) -> str:
    """JSON text of a golden payload.  Floats are written as their repr, so
    equal text means bit-equal floats."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def golden_cases(h12_seeds: int = 4) -> dict:
    """Golden file stem -> zero-argument payload builder."""
    cases = {}
    for name, n_iter in GOLDEN_SOLVES:
        for seed in range(h12_seeds if name == "hospital12" else 4):
            cases[f"{name}_n{n_iter}_seed{seed}"] = partial(
                solve_payload, name, n_iter, seed)
    cases["random_evaluations"] = random_evaluations_payload
    cases["serialized_instances"] = serialized_instances_payload
    return cases


def serialized_instances_payload() -> dict:
    """serialize_instance text of hospital12 and of the small Solomon
    profile: the bytes convert writes and the bench workers load."""
    return {
        "hospital12": serialize_instance(
            load_instance(INSTANCE_DIR / "hospital12.json")),
        "solomon_small": serialize_instance(
            load_instance(SOLOMON_SAMPLE, format="solomon", profile="small")),
    }


def solve_payload(name: str, n_iter: int, seed: int) -> dict:
    """Solution JSON and best-objective history of one solve on a freshly
    loaded shipped instance."""
    from amrsched.evaluation import solution_to_dict
    from amrsched.vns import solve

    inst = load_instance(INSTANCE_DIR / f"{name}.json")
    sol, ev, history = solve(inst, n_iter, seed=seed)
    return {"solution": solution_to_dict(inst, sol, ev), "history": history}


def random_evaluations_payload() -> list:
    """Full profiles and memoised summaries of 60 random solutions, a third
    on tight-battery instances.  Those also record the charging-repaired
    solution, so the charging branch of the trip recurrence is pinned."""
    from amrsched.operators import charging_insert_repair

    rng = random.Random(2024)
    out = []
    for case in range(60):
        tight = case % 3 == 0
        inst = random_instance(rng, rng.randint(1, 8), tight_battery=tight)
        sol = random_solution(rng, inst)
        entry = {"case": case, "plain": _evaluation_record(inst, sol)}
        if tight:
            entry["repaired"] = _evaluation_record(
                inst, charging_insert_repair(inst, sol))
        out.append(entry)
    return out


def _evaluation_record(inst: Instance, sol: Solution) -> dict:
    from amrsched.evaluation import evaluate_solution, solution_cost

    ev = evaluate_solution(inst, sol)
    cs = solution_cost(inst, sol)
    return {
        "amrs": [[list(t) for t in amr] for amr in sol.amrs],
        "evaluation": {
            "amr_count": ev.amr_count,
            "total_distance": ev.total_distance,
            "objective": ev.objective,
            "penalized": ev.penalized,
            "feasible": ev.feasible,
            "per_trip": [{
                "timings": [[t.arrival.mean, t.arrival.variance, t.start.mean,
                             t.start.variance, t.departure_mean]
                            for t in te.timings],
                "load_after": list(te.load_after),
                "battery_after": list(te.battery_after),
                "distance": te.distance,
                "capacity_ok": te.capacity_ok,
                "battery_ok": te.battery_ok,
                "tw_ok": te.tw_ok,
                "tw_violations": te.tw_violations,
                "violating_requests": list(te.violating_requests),
            } for te in ev.per_trip],
        },
        "cost": {k: list(v) if isinstance(v, tuple) else v
                 for k, v in cs._asdict().items()},
    }
