"""Independent verification tools.

``exact_solve`` returns a provably cheapest feasible plan under the exact
evaluation the solver uses: it enumerates every one-AMR day once and picks
the cheapest partition of the requests into days by a DP over request
bitmasks.  ``mc_validate`` replays a fixed plan against sampled
travel/service times and reports empirical lateness frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DEPOT, Instance, Solution, StructuralError, check_solution_structure
from .evaluation import (_BATTERY_EPS, _LOAD_EPS, _amr_cost, _objective,
                         solution_cost)
from .operators import charging_insert_repair

_EXACT_HARD_LIMIT = 12


class NoFeasibleSolution(RuntimeError):
    """exact_solve exhausted the search space without a feasible plan."""


def exact_solve(inst: Instance):
    """Minimum-objective feasible solution.

    The objective ``xi1 * m + xi2 * distance`` is a sum over AMRs and every
    constraint holds per AMR, so an optimum is a partition of the requests
    in which each part is served by its cheapest feasible one-AMR day (the
    ordered trips one AMR drives; Azi, Gendreau & Potvin, 2010).  Days are
    built in layers by request count: each day of a layer grows by
    appending an unserved request to its open trip (capacity permitting) or
    by opening a new trip with it, so each day is built once.  It is priced
    by the AMR prefix memo, which walks only its last trip, and after the
    canonical charging repair when its record shows a battery flag.

    When ``_growth_prunes_sound`` holds, two provably late growths are
    skipped: a request ``r`` after one whose window opens after ``r``'s
    closes, and any growth of a day whose unrepaired walk breaks a window
    (appending never moves an earlier arrival, the battery moves no time on
    a day without stations, and no repair detour arrives earlier).  When
    ``_battery_never_binds`` holds as well, no day is repaired, and a day
    is not grown where another of its layer with the same requests and the
    same last request has no larger open-trip load, depot arrival mean,
    depot arrival variance or distance (label dominance; Feillet et al.,
    2004): every extension of it is then no cheaper and no more feasible
    than the same extension of the other.  Of equal days the first in layer
    order grows.  Both premises rest on the timing recurrence being
    monotone in the start's mean and variance, which holds up to the
    rounding of the truncated moments.

    A subset DP (Held & Karp, 1962) joins the days.  Returns (solution,
    objective); raises NoFeasibleSolution when nothing passes.

    The search is exact over plans whose stations ``charging_insert_repair``
    places, not over every station placement.  hospital12 never needs a
    charge (0.8 / 4.63e-5 ≈ 17.3 km of range), so its proof of 71.90 is
    unconditional.
    """
    n = inst.n_requests
    if n > _EXACT_HARD_LIMIT:
        raise ValueError(f"exact_solve refuses {n} requests (limit {_EXACT_HARD_LIMIT})")
    caches = inst._caches
    prune = _growth_prunes_sound(inst)
    dominance = prune and _battery_never_binds(inst)
    demand = inst.demand
    capacity = inst.amr.capacity + _LOAD_EPS
    bit = [0] + [1 << (r - 1) for r in range(1, n + 1)]
    # blocked[r]: the requests r may not follow on one day
    blocked = [sum(bit[x] for x in range(1, n + 1)
                   if prune and inst.window_open[x] > inst.window_close[r])
               for r in range(n + 1)]

    best_day = {}   # request bitmask -> (objective, cheapest feasible day)
    # A layer, and the days of it that may grow, are held as flat lists of
    # days, request masks and open-trip loads, so that no per-day container
    # outlives the layer for the cyclic garbage collector to scan.
    days = [((DEPOT, r, DEPOT),) for r in range(1, n + 1)]
    masks = bit[1:]
    loads = demand[1:n + 1]
    while days:
        grow_days, grow_masks, grow_loads = [], [], []
        labels = {}     # (mask, last request) -> [(load, mean, var, distance, day)]
        for day, mask, load in zip(days, masks, loads):
            priced = record = _amr_cost(inst, day, caches)
            plan = day
            if record[3]:
                try:
                    plan = charging_insert_repair(inst, Solution(amrs=(day,))).amrs[0]
                    priced = _amr_cost(inst, plan, caches)
                except StructuralError:
                    plan = priced = None
            if priced and not any(priced[1:4]):
                cost = _objective(inst, 1, priced[0])
                if mask not in best_day or cost < best_day[mask][0]:
                    best_day[mask] = (cost, plan)
            if prune and record[1]:
                continue
            if not dominance:
                grow_days.append(day)
                grow_masks.append(mask)
                grow_loads.append(load)
                continue
            dist, mean, var = record[0], record[5], record[6]
            kept = labels.setdefault((mask, day[-1][-2]), [])
            for a in kept:
                if a[0] <= load and a[1] <= mean and a[2] <= var and a[3] <= dist:
                    break
            else:
                kept[:] = [b for b in kept if not (load <= b[0] and mean <= b[1]
                                                   and var <= b[2] and dist <= b[3])]
                kept.append((load, mean, var, dist, day))
        for (mask, _), kept in labels.items():
            for load, _, _, _, day in kept:
                grow_days.append(day)
                grow_masks.append(mask)
                grow_loads.append(load)
        days, masks, loads = [], [], []
        for day, mask, load in zip(grow_days, grow_masks, grow_loads):
            for r in range(1, n + 1):
                if mask & (bit[r] | blocked[r]):
                    continue
                days.append(day + ((DEPOT, r, DEPOT),))
                masks.append(mask | bit[r])
                loads.append(demand[r])
                if load + demand[r] <= capacity:
                    days.append(day[:-1] + (day[-1][:-1] + (r, DEPOT),))
                    masks.append(mask | bit[r])
                    loads.append(load + demand[r])

    # best[mask]: (objective, AMRs, day holding mask's lowest request) of the
    # cheapest cover of mask, the fewest AMRs first among equal objectives
    # (a sum can overflow to inf); None when no plan covers mask
    best = [(0.0, 0, 0)]
    for mask in range(1, 1 << n):
        low = mask & -mask
        best.append(min(((cost + rest[0], rest[1] + 1, part)
                          for part, (cost, _) in best_day.items()
                          if part & low and part & mask == part
                          and (rest := best[mask ^ part])),
                         default=None))
    if best[-1] is None:
        raise NoFeasibleSolution("no feasible plan exists for this instance")
    amrs = []
    mask = len(best) - 1
    while mask:
        part = best[mask][2]
        amrs.append(best_day[part][1])
        mask ^= part
    sol = Solution(amrs=tuple(amrs))
    return sol, solution_cost(inst, sol).objective


def _growth_prunes_sound(inst: Instance) -> bool:
    """Whether exact_solve's two lateness prunes are sound: epsilon <= 0.5,
    so the window test ``mean + z * sigma`` rises with the arrival's mean and
    variance, and no detour u -> c -> w through a charging station has a
    smaller travel mean or variance than the leg u -> w.  Where this fails
    the search is slower but still exact."""
    tm = inst.travel_mean
    tv = inst.travel_var
    nodes = range(inst.n_nodes)
    return inst.cost.epsilon <= 0.5 and not any(
        tm[u][c] + tm[c][w] < tm[u][w] or tv[u][c] + tv[c][w] < tv[u][w]
        for c in inst.charging_nodes for u in nodes for w in nodes)


def _battery_never_binds(inst: Instance) -> bool:
    """Whether no day exact_solve builds can drain below alpha: a day has at
    most 2n legs between the depot and the requests, and battery_init minus
    2n of the most draining such leg stays at or above alpha.  No day is
    then repaired or visits a station, so battery is no part of its state."""
    n = inst.n_requests
    nodes = range(n + 1)
    most = max(inst.drain[u][w] for u in nodes for w in nodes)
    return inst.amr.battery_init - 2 * n * most >= inst.amr.battery_low


# ---------------------------------------------------------------------------
# Monte Carlo validation


@dataclass(frozen=True)
class RequestStats:
    id: int
    violation_frequency: float
    mean_arrival: float


@dataclass(frozen=True)
class McReport:
    samples: int
    per_request: tuple[RequestStats, ...]
    max_violation: float


def mc_validate(inst: Instance, sol: Solution, samples: int,
                seed: int = 0) -> McReport:
    """Simulate a fixed plan under sampled travel and service times.

    Each sample replays every AMR's chained trips: waiting to the window
    opening, deterministic partial charging to beta, and the next trip
    starting at the realized depot arrival.  Negative time draws are clamped
    at zero (they affect well under 0.1% of draws at realistic variances).
    Battery never depends on the draws, so charging decisions are common to
    all samples.
    """
    import numpy as np  # here, so that `import amrsched` stays free of numpy

    if samples < 1:
        raise ValueError("mc_validate needs samples >= 1")
    check_solution_structure(inst, sol)
    rng = np.random.default_rng(seed)
    amrp = inst.amr
    late = {}
    arrival_sum = {}
    for amr in sol.amrs:
        t = np.full(samples, float(inst.shift_start))
        battery = amrp.battery_init
        for trip in amr:
            prev = trip[0]
            for node in trip[1:]:
                mu = inst.travel_mean[prev][node]
                var = inst.travel_var[prev][node]
                if var > 0.0:
                    leg = rng.normal(mu, math.sqrt(var), samples)
                    np.maximum(leg, 0.0, out=leg)
                    t = t + leg
                else:
                    t = t + max(mu, 0.0)
                battery -= inst.drain[prev][node]
                if inst.is_request(node):
                    late[node] = int((t > inst.window_close[node]).sum())
                    arrival_sum[node] = float(t.sum())
                    t = np.maximum(t, inst.window_open[node])
                    smu = inst.service_mean[node]
                    svar = inst.service_var[node]
                    if svar > 0.0:
                        dur = rng.normal(smu, math.sqrt(svar), samples)
                        np.maximum(dur, 0.0, out=dur)
                        t = t + dur
                    else:
                        t = t + max(smu, 0.0)
                elif inst.is_charging(node):
                    if battery < amrp.battery_high - _BATTERY_EPS:
                        t = t + (amrp.battery_high - battery) / amrp.charge_rate
                        battery = amrp.battery_high
                prev = node
    stats = []
    for node in sorted(late, key=lambda nd: inst.request_at(nd).id):
        stats.append(RequestStats(
            id=inst.request_at(node).id,
            violation_frequency=late[node] / samples,
            mean_arrival=arrival_sum[node] / samples,
        ))
    return McReport(
        samples=samples,
        per_request=tuple(stats),
        max_violation=max((s.violation_frequency for s in stats), default=0.0),
    )
