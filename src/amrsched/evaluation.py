"""Trip and solution evaluation: load/battery profiles, stochastic timings,
the two-term objective and its penalized search surrogate.

One trip recurrence, ``_walk_trip``, carries the arrival law, the battery and
the load from node to node, and can record the per-node profile as it goes:

* ``evaluate_trip`` / ``evaluate_solution`` record it and return full
  ``TripEvaluation`` profiles (reports, tests, the solver's final answer).
* ``solution_cost`` is the memoized aggregate the search loop runs millions
  of times; it walks without recording and caches per trip, per AMR and per
  solution.

Trips of one AMR chain at the depot: the next trip starts at the mean of the
previous depot-arrival distribution with the variance reset (the reload is
instantaneous and deterministic), and the battery carries over unchanged.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .model import (DEPOT, Gaussian, Instance, Solution, check_solution_structure,
                    format_time)
from .stochastic import NodeTiming, _truncated_moments, violation_probability

_BATTERY_EPS = 1e-12
_LOAD_EPS = 1e-9


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


def _walk_trip(inst: Instance, trip, t0: float, b0: float, load: float,
               profile: list | None = None):
    """The trip recurrence every evaluator runs.

    Each leg adds its travel mean and variance to the arrival and drains the
    battery per metre.  A request tests its window at the (1 - epsilon)
    quantile, starts at the truncated max(arrival, open), then adds its
    service law and takes its demand off the load; a charging station tops a
    battery below beta up to beta in deterministic time.

    Returns (depot arrival mean, battery, distance, window violations,
    capacity broken, battery broken, violating request nodes).  With a
    ``profile`` list, one (arrival mean, arrival variance, start mean, start
    variance, departure mean, load, battery) tuple per node after the first
    is appended to it.
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
    alpha = inst.amr.battery_low
    beta = inst.amr.battery_high
    vq = inst.amr.charge_rate
    truncate = _truncated_moments
    sqrt = math.sqrt

    mean = t0
    var = 0.0
    bat = b0
    dist = 0.0
    twv = 0
    cap_bad = False
    bat_bad = bat < alpha - _BATTERY_EPS
    viol = ()
    prev = trip[0]
    for node in trip[1:]:
        dist += dmat[prev][node]
        bat -= drain[prev][node]
        mean += tm[prev][node]
        var += tv[prev][node]
        if bat < alpha - _BATTERY_EPS:
            bat_bad = True
        if 0 < node <= nreq:
            if mean + z * sqrt(var) > wc[node]:
                twv += 1
                viol += (node,)
            start_mean, start_var = truncate(mean, var, wo[node])
            load -= dem[node]
            if load < -_LOAD_EPS:
                cap_bad = True
            if profile is not None:
                profile.append((mean, var, start_mean, start_var,
                                start_mean + sm[node], load, bat))
            mean = start_mean + sm[node]
            var = start_var + sv[node]
        else:
            arrival = mean
            if node != DEPOT and bat < beta - _BATTERY_EPS:
                mean += (beta - bat) / vq
                bat = beta
            if profile is not None:
                profile.append((arrival, var, arrival, var, mean, load, bat))
        prev = node
    return mean, bat, dist, twv, cap_bad, bat_bad, viol


def evaluate_trip(inst: Instance, trip, start_time: float, start_battery: float,
                  start_load: float) -> TripEvaluation:
    """Walk one depot-to-depot node sequence and return its per-node profile.

    Arrival at each node adds the travel law for the leg; request nodes wait
    for their window (truncated start), consume service time and demand;
    charging nodes top the battery up to beta in deterministic time.
    Infeasibility is reported in the flags, never raised.
    """
    profile = [(start_time, 0.0, start_time, 0.0, start_time, start_load,
                start_battery)]
    _, _, distance, tw_violations, cap_bad, bat_bad, violating = _walk_trip(
        inst, trip, start_time, start_battery, start_load, profile)
    return TripEvaluation(
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


def evaluate_solution(inst: Instance, sol: Solution) -> SolutionEvaluation:
    """Chain every AMR's trips and aggregate cost and feasibility.

    Raises StructuralError when a request is missing or duplicated; ordinary
    infeasibility only clears the flags.
    """
    check_solution_structure(inst, sol)
    per_trip = []
    total_distance = 0.0
    tw_violations = 0
    flag_failures = 0
    for amr_trips in sol.amrs:
        t = inst.shift_start
        battery = inst.amr.battery_init
        for trip in amr_trips:
            te = evaluate_trip(inst, trip, t, battery, inst.amr.capacity)
            per_trip.append(te)
            total_distance += te.distance
            tw_violations += te.tw_violations
            flag_failures += (not te.capacity_ok) + (not te.battery_ok)
            t = te.timings[-1].arrival.mean
            battery = te.battery_after[-1]
    m = len(sol.amrs)
    objective = inst.cost.fixed_per_amr * m + inst.cost.per_meter * total_distance
    penalized = objective + inst.cost.tw_penalty * (tw_violations + flag_failures)
    feasible = tw_violations == 0 and flag_failures == 0
    return SolutionEvaluation(
        amr_count=m,
        total_distance=total_distance,
        objective=objective,
        penalized=penalized,
        feasible=feasible,
        per_trip=tuple(per_trip),
    )


# ---------------------------------------------------------------------------
# memoized aggregate

# Aggregate cost record used by the search; `violating` holds node indices.
CostSummary = namedtuple(
    "CostSummary",
    "objective penalized feasible m distance tw_violations flag_failures violating",
)

_TRIP_CACHE_LIMIT = 1 << 18
_AMR_CACHE_LIMIT = 1 << 17
_SOL_CACHE_LIMIT = 1 << 16


def _amr_cost(inst, trips, caches):
    cache = caches["amr"]
    hit = cache.get(trips)
    if hit is not None:
        return hit
    trip_cache = caches["trip"]
    capacity = inst.amr.capacity
    t = inst.shift_start
    bat = inst.amr.battery_init
    dist = 0.0
    twv = 0
    cap_n = 0
    bat_n = 0
    viol = ()
    for trip in trips:
        key = (trip, t, bat)
        walked = trip_cache.get(key)
        if walked is None:
            walked = _walk_trip(inst, trip, t, bat, capacity)
            if len(trip_cache) >= _TRIP_CACHE_LIMIT:
                trip_cache.clear()
            trip_cache[key] = walked
        t, bat, d, tv_, cap_bad, bat_bad, v = walked
        dist += d
        twv += tv_
        cap_n += cap_bad
        bat_n += bat_bad
        viol += v
    result = (dist, twv, cap_n, bat_n, viol)
    if len(cache) >= _AMR_CACHE_LIMIT:
        cache.clear()
    cache[trips] = result
    return result


def solution_cost(inst: Instance, sol: Solution) -> CostSummary:
    """Memoized aggregate cost of a solution; same numbers as
    evaluate_solution but without per-node profiles.

    The solution must be structurally valid (see check_solution_structure);
    this is not checked.  The search only builds such solutions, and plans
    from outside enter through evaluate_solution or mc_validate, which check.
    """
    caches = inst._caches
    cache = caches["sol"]
    hit = cache.get(sol.amrs)
    if hit is not None:
        return hit
    dist = 0.0
    twv = 0
    flags = 0
    viol = ()
    for trips in sol.amrs:
        d, tv_, cap_n, bat_n, v = _amr_cost(inst, trips, caches)
        dist += d
        twv += tv_
        flags += cap_n + bat_n
        viol += v
    m = len(sol.amrs)
    objective = inst.cost.fixed_per_amr * m + inst.cost.per_meter * dist
    penalized = objective + inst.cost.tw_penalty * (twv + flags)
    result = CostSummary(
        objective=objective,
        penalized=penalized,
        feasible=twv == 0 and flags == 0,
        m=m,
        distance=dist,
        tw_violations=twv,
        flag_failures=flags,
        violating=viol,
    )
    if len(cache) >= _SOL_CACHE_LIMIT:
        cache.clear()
    cache[sol.amrs] = result
    return result


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
    idx = 0
    for amr in sol.amrs:
        for trip in amr:
            te = evaluation.per_trip[idx]
            idx += 1
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
    idx = 0
    for amr_no, amr in enumerate(sol.amrs, start=1):
        for trip in amr:
            te = evaluation.per_trip[idx]
            idx += 1
            route = " -> ".join(inst.node_label(n) for n in trip)
            load = sum(inst.demand[n] for n in trip if inst.is_request(n))
            charges = sum(1 for n in trip if inst.is_charging(n))
            times = "-".join(format_time(t.arrival.mean) for t in te.timings)
            lines.append(f"{amr_no} | {route} | {te.distance:g} | {load:g} | "
                         f"{charges} | {times}")
    return "\n".join(lines)
