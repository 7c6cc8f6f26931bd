"""Trip and solution evaluation: load/battery profiles, stochastic timings,
the two-term objective and its penalized search surrogate.

One trip recurrence, ``_walk_trip``, extends an AMR's cost record by a trip,
carrying the arrival law, the battery and the load from node to node, and
can record the per-node profile as it goes:

* ``evaluate_trip`` / ``evaluate_solution`` record it and return full
  ``TripEvaluation`` profiles (reports, tests, the solver's final answer);
  the solution totals are ``_fold`` of the AMR records, as in the memo.
* ``solution_cost`` is the memoized aggregate the search loop runs millions
  of times; it caches per solution, and one memo walk, ``_amr_cost``, per
  AMR trip prefix.  It prices in full.  A search move priced against a
  price to beat (``_price_within``) walks only until the verdict is
  certain: the move bounds its objective, violations only add up along a
  walk, and a walk stops once they exceed what the price leaves, storing
  the AMR's violation floor, an int, in its record's place.

Trips of one AMR chain at the depot: the next trip starts from the previous
depot-arrival distribution, mean and variance (the reload is instantaneous
and deterministic), and the battery carries over unchanged.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .model import (DEPOT, Gaussian, Instance, Solution, check_solution_structure,
                    format_time)
from .stochastic import _INV_SQRT_2PI, _SQRT2, NodeTiming, violation_probability

_BATTERY_EPS = 1e-12
_LOAD_EPS = 1e-9
# Violation counts never reach this, so as a limit it never stops a walk.
_MAX_COUNT = 1 << 50


@dataclass(frozen=True)
class TripEvaluation:
    timings: tuple[NodeTiming, ...]
    load_after: tuple[float, ...]
    battery_after: tuple[float, ...]
    distance: float
    capacity_ok: bool
    battery_ok: bool
    tw_ok: bool
    tw_violations: int
    violating_requests: tuple[int, ...]   # request ids failing the chance test


@dataclass(frozen=True)
class SolutionEvaluation:
    amr_count: int
    total_distance: float
    objective: float
    penalized: float
    feasible: bool
    per_trip: tuple[TripEvaluation, ...]  # AMR-major order

    @property
    def violating_requests(self) -> tuple[int, ...]:
        return tuple(r for te in self.per_trip for r in te.violating_requests)


def _walk_trip(inst: Instance, record, trip, limit: int = _MAX_COUNT,
               profile: list | None = None):
    """The trip recurrence every evaluator runs: the cost record (see
    ``_amr_cost``) of an AMR with ``record`` that then drives ``trip``.

    Each leg adds its travel mean and variance to the arrival and drains the
    battery per metre.  A request tests its window at the (1 - epsilon)
    quantile, starts at the truncated max(arrival, open), then adds its
    service law and takes its demand off the load; a charging station tops a
    battery below beta up to beta in deterministic time.

    The truncated start is ``stochastic.truncated_start`` written inline, with
    the one sigma the window test also uses; every operation is kept in its
    order, so the floats are the reference closed form's (the tests compare
    them with ``==``).

    The walk starts at the record's depot arrival law and battery, with a
    full load on board (the depot reloads); the trip's distance is summed on
    its own and then added to the record's.  With a ``profile`` list, one
    (arrival mean, arrival variance, start mean, start variance, departure
    mean, load, battery) tuple per node after the first is appended to it.

    The count (window violations plus capacity and battery flags) only rises
    along the walk.  Once the record's count plus the trip's exceeds
    ``limit`` the walk returns None; the limit is tested at the start and
    where the count rises, so a negative limit returns None at once.
    """
    tm = inst.travel_mean
    tv = inst.travel_var
    drain = inst.drain
    dmat = inst.distance
    wo = inst.window_open
    wc = inst.window_close
    sm = inst.service_mean
    sv = inst.service_var
    dem = inst.demand
    z = inst.z_quantile
    nreq = inst.n_requests
    beta = inst.amr.battery_high
    bat_low = inst.amr.battery_low - _BATTERY_EPS
    bat_full = beta - _BATTERY_EPS
    load_low = -_LOAD_EPS
    vq = inst.amr.charge_rate
    sqrt = math.sqrt
    erfc = math.erfc
    exp = math.exp
    sqrt2 = _SQRT2
    inv_sqrt_2pi = _INV_SQRT_2PI

    dist0, twv, cap_n, bat_n, viol, mean, var, bat = record
    load = inst.amr.capacity
    dist = 0.0
    cap_bad = False
    bat_bad = bat < bat_low
    room = limit - cap_n - bat_n - bat_bad    # the window violations allowed
    if twv > room:
        return None
    prev = trip[0]
    for node in trip[1:]:
        dist += dmat[prev][node]
        bat -= drain[prev][node]
        mean += tm[prev][node]
        var += tv[prev][node]
        if bat < bat_low and not bat_bad:
            bat_bad = True
            room -= 1
            if twv > room:
                return None
        if 0 < node <= nreq:
            sigma = sqrt(var)
            if mean + z * sigma > wc[node]:
                twv += 1
                viol += (node,)
                if twv > room:
                    return None
            e = wo[node]
            if var <= 0.0:
                start_mean = e if e > mean else mean
                start_var = 0.0
            else:
                u = (e - mean) / sigma
                upper = 0.5 * erfc(u / sqrt2)          # P(arrival > e)
                pdf = inv_sqrt_2pi * exp(-0.5 * u * u)
                c = mean - e
                excess = c * upper + sigma * pdf
                second = (c * c + var) * upper + c * sigma * pdf
                start_var = second - excess * excess
                if start_var < 0.0:
                    start_var = 0.0
                elif start_var > var:
                    start_var = var
                start_mean = e + excess
            load -= dem[node]
            if load < load_low and not cap_bad:
                cap_bad = True
                room -= 1
                if twv > room:
                    return None
            if profile is not None:
                profile.append((mean, var, start_mean, start_var,
                                start_mean + sm[node], load, bat))
            mean = start_mean + sm[node]
            var = start_var + sv[node]
        else:
            arrival = mean
            if node != DEPOT and bat < bat_full:
                mean += (beta - bat) / vq
                bat = beta
            if profile is not None:
                profile.append((arrival, var, arrival, var, mean, load, bat))
        prev = node
    return (dist0 + dist, twv, cap_n + cap_bad, bat_n + bat_bad, viol,
            mean, var, bat)


def evaluate_trip(inst: Instance, trip, start_time: float, start_battery: float,
                  start_var: float = 0.0) -> TripEvaluation:
    """Walk one depot-to-depot node sequence and return its per-node profile.

    Arrival at each node adds the travel law for the leg; request nodes wait
    for their window (truncated start), consume service time and demand;
    charging nodes top the battery up to beta in deterministic time.
    Infeasibility is reported in the flags, never raised.  The trip leaves
    the depot fully loaded, at mean ``start_time`` and variance ``start_var``.
    """
    return _profile_trip(inst, (0.0, 0, 0, 0, (), start_time, start_var, start_battery),
                         trip)[0]


def _profile_trip(inst, record, trip):
    """``evaluate_trip``'s profile of ``trip`` driven on from ``record``, and
    ``_walk_trip(inst, record, trip)``, from one walk: the walk starts from a
    fresh record, and adding its distance (``0.0 + d == d``), counts and
    violating nodes to ``record``'s gives the same floats, counts and tuple."""
    mean, var, bat = record[5:]
    profile = [(mean, var, mean, var, mean, inst.amr.capacity, bat)]
    distance, tw_violations, cap_bad, bat_bad, violating, *end = _walk_trip(
        inst, (0.0, 0, 0, 0, (), mean, var, bat), trip, profile=profile)
    te = TripEvaluation(
        timings=tuple(NodeTiming(Gaussian(am, av), Gaussian(sm, sv), dep)
                      for am, av, sm, sv, dep, _, _ in profile),
        load_after=tuple(p[5] for p in profile),
        battery_after=tuple(p[6] for p in profile),
        distance=distance,
        capacity_ok=not cap_bad,
        battery_ok=not bat_bad,
        tw_ok=tw_violations == 0,
        tw_violations=tw_violations,
        violating_requests=tuple(inst.request_at(n).id for n in violating),
    )
    return te, (record[0] + distance, record[1] + tw_violations, record[2] + cap_bad,
                record[3] + bat_bad, record[4] + violating, *end)


def evaluate_solution(inst: Instance, sol: Solution) -> SolutionEvaluation:
    """Every trip's profile, and the totals ``solution_cost`` gives: each
    AMR's trips chain from its record, and ``_fold`` sums the records.

    Raises StructuralError when a request is missing or duplicated, or an
    AMR has no trips; ordinary infeasibility only clears the flags.
    """
    check_solution_structure(inst, sol)
    per_trip = []
    records = []
    for amr_trips in sol.amrs:
        record = _start_record(inst)
        for trip in amr_trips:
            te, record = _profile_trip(inst, record, trip)
            per_trip.append(te)
        records.append(record)
    total = _fold(inst, records)
    return SolutionEvaluation(total.m, total.distance, total.objective,
                              total.penalized, total.feasible, tuple(per_trip))


# ---------------------------------------------------------------------------
# memoized aggregate

# Aggregate cost record used by the search; `violating` holds node indices.
CostSummary = namedtuple(
    "CostSummary",
    "objective penalized feasible m distance tw_violations flag_failures violating",
)

_AMR_CACHE_LIMIT = 1 << 17
_SOL_CACHE_LIMIT = 1 << 16


def _put(store, key, value, cap):
    """Store and return ``value``, first clearing a store of ``cap`` records."""
    if len(store) >= cap:
        store.clear()
    store[key] = value
    return value


def _amr_cost(inst, trips, limit=_MAX_COUNT):
    """Cost record of one AMR's chained trips: (distance, window violations,
    capacity flags, battery flags, violating nodes, depot arrival mean,
    depot arrival variance, battery).  The memo holds one record per trip
    prefix; a walk resumes from the longest recorded prefix and stores every
    prefix it completes.

    With a ``limit`` the walk returns None once the AMR's violations (window
    violations plus flags) exceed it, storing in the record's place an int
    floor on them, at least ``limit + 1``: a later call whose limit the floor
    exceeds returns None at once, any other walks again (a floor never
    stands for a prefix).  An exact record comes back whatever its count.
    """
    cache = inst._caches["amr"]
    hit = cache.get(trips)
    if hit.__class__ is tuple:
        return hit
    if hit is not None and hit > limit:     # a floor above the limit
        return None
    k = len(trips) - 1
    while k and (hit := cache.get(trips[:k])).__class__ is not tuple:
        k -= 1
    if not k:
        hit = _start_record(inst)
    for k in range(k, len(trips)):
        record = _walk_trip(inst, hit, trips[k], limit)
        if record is None:
            _put(cache, trips, max(sum(hit[1:4]), limit + 1), _AMR_CACHE_LIMIT)
            return None
        hit = _put(cache, trips[:k + 1], record, _AMR_CACHE_LIMIT)
    return hit


def _start_record(inst):
    return (0.0, 0, 0, 0, (), inst.shift_start, 0.0, inst.amr.battery_init)


def _fold(inst, amr_costs) -> CostSummary:
    """Sum per-AMR cost records in AMR order; () marks a removed AMR.

    ``solution_cost`` and the shake's candidate scoring both sum here, so a
    shake score is the float the candidate's summary gives.
    """
    m = 0
    dist = 0.0
    twv = 0
    flags = 0
    viol = ()
    for cost in amr_costs:
        if cost:
            m += 1
            dist += cost[0]
            twv += cost[1]
            flags += cost[2] + cost[3]
            viol += cost[4]
    objective = _objective(inst, m, dist)
    return CostSummary(objective, objective + inst.cost.tw_penalty * (twv + flags),
                       twv == 0 and flags == 0, m, dist, twv, flags, viol)


def _violation_budget(objective, rate, below):
    """The largest violation count v with ``objective + rate * v < below``,
    the float test the search makes; -1 when no count passes, ``_MAX_COUNT``
    (no limit) when every count does: a zero rate, or a quotient beyond any
    count."""
    if objective + rate * _MAX_COUNT < below:
        return _MAX_COUNT
    if not objective < below:
        return -1
    # rate > 0 here, and the quotient is off by rounding only: try it and the
    # next count, then bisect whatever is left
    v = int(min((below - objective) / rate, _MAX_COUNT - 1))
    lo, hi = (v, v + 1) if objective + rate * v < below else (0, v)
    if objective + rate * hi < below:
        lo, hi = hi, _MAX_COUNT
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if objective + rate * mid < below else (lo, mid)
    return lo


def _price_within(inst, base, change, rate, below, low):
    """Price the plan whose AMR records are ``base`` with the AMRs of
    ``change`` (AMR index -> trips, () for a removed AMR) replaced, walking
    each changed AMR only while ``objective + rate * violations`` may stay
    under ``below``, given a ``low`` bound on the plan's objective.  Returns
    the plan's records, or None once its score is certain to reach ``below``.

    A changed AMR starts from what the AMR store holds for its trips: an
    exact record, or an int violation floor where a walk has stopped on it.
    No distance is summed: the budget that ``low`` leaves is never tighter
    than the exact one, so every stop is sound, and the filled records make
    the exact test.
    """
    cache = inst._caches["amr"]
    costs = base.copy()
    for a, trips in change.items():
        costs[a] = cache.get(trips) if trips else ()
    known = 0
    floors = {}
    for i, cost in enumerate(costs):
        if cost is None or cost.__class__ is int:
            floors[i] = floor = cost or 0
        elif cost:
            floor = cost[1] + cost[2] + cost[3]
        else:
            continue
        known += floor
    budget = _violation_budget(low, rate, below)
    for i, floor in floors.items():
        if known > budget:
            return None
        cost = _amr_cost(inst, change[i], budget - known + floor)
        if cost is None:
            return None
        costs[i] = cost
        known += cost[1] + cost[2] + cost[3] - floor
    return costs if _fold(inst, costs).objective + rate * known < below else None


def solution_cost(inst: Instance, sol: Solution) -> CostSummary:
    """Memoized aggregate cost of a solution; same numbers as
    evaluate_solution but without per-node profiles.  It prices in full;
    the search prices a move against a price to beat with ``_price_within``.

    The solution must be structurally valid (see check_solution_structure);
    this is not checked.  The search only builds such solutions, and plans
    from outside enter through evaluate_solution or mc_validate, which check.
    """
    cache = inst._caches["sol"]
    result = cache.get(sol.amrs)
    if result is None:
        # Price every AMR before summing: summing as each AMR was priced
        # raised an oracle-verify benchmark run's peak RSS from 74 to 81 MiB.
        costs = [_amr_cost(inst, trips) for trips in sol.amrs]
        result = _put(cache, sol.amrs, _fold(inst, costs), _SOL_CACHE_LIMIT)
    return result


def _objective(inst, m, dist) -> float:
    return inst.cost.fixed_per_amr * m + inst.cost.per_meter * dist


# ---------------------------------------------------------------------------
# reporting


def solution_to_dict(inst: Instance, sol: Solution,
                     evaluation: SolutionEvaluation | None = None) -> dict:
    """Solution JSON payload: routes by request id plus per-request arrival stats."""
    if evaluation is None:
        evaluation = evaluate_solution(inst, sol)
    per_request = _per_request_stats(inst, sol, evaluation)
    return {
        "amrs": [
            {"trips": [[inst.node_label(n) if not inst.is_request(n)
                        else inst.request_at(n).id for n in trip]
                       for trip in amr]}
            for amr in sol.amrs
        ],
        "m": evaluation.amr_count,
        "objective": evaluation.objective,
        "distance": evaluation.total_distance,
        "feasible": evaluation.feasible,
        "per_request": per_request,
    }


def _per_request_stats(inst, sol, evaluation):
    stats = []
    per_trip = iter(evaluation.per_trip)    # AMR-major, as the loops run
    for amr in sol.amrs:
        for trip, te in zip(amr, per_trip):
            for node, timing in zip(trip, te.timings):
                if inst.is_request(node):
                    req = inst.request_at(node)
                    stats.append({
                        "id": req.id,
                        "arrival_mean": timing.arrival.mean,
                        "arrival_std": math.sqrt(max(timing.arrival.variance, 0.0)),
                        "violation_prob": violation_probability(
                            timing.arrival, req.window_close),
                    })
    stats.sort(key=lambda s: s["id"])
    return stats


def route_table(inst: Instance, sol: Solution,
                evaluation: SolutionEvaluation | None = None) -> str:
    """Human-readable per-route table: route, distance, load, charges and the
    mean arrival times along the route."""
    if evaluation is None:
        evaluation = evaluate_solution(inst, sol)
    header = ("AMR No. | Service Route | Distance (m) | Load (kg) | "
              "Number of Charges | Mean Arrival Time of Requests")
    lines = [header]
    per_trip = iter(evaluation.per_trip)    # AMR-major, as the loops run
    for amr_no, amr in enumerate(sol.amrs, start=1):
        for trip, te in zip(amr, per_trip):
            route = " -> ".join(inst.node_label(n) for n in trip)
            load = sum(inst.demand[n] for n in trip if inst.is_request(n))
            charges = sum(1 for n in trip if inst.is_charging(n))
            times = "-".join(format_time(t.arrival.mean) for t in te.timings)
            lines.append(f"{amr_no} | {route} | {te.distance:g} | {load:g} | "
                         f"{charges} | {times}")
    return "\n".join(lines)
