"""Independent verification tools.

``exact_solve`` enumerates every assignment of requests to ordered trips and
trips to AMRs (symmetry-reduced), applies the canonical charging repair where
the cost flags a failure and keeps the provably cheapest feasible solution
under the exact same evaluation the solver uses.  ``mc_validate`` replays a
fixed plan against sampled travel/service times and reports empirical
lateness frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DEPOT, Instance, Solution, StructuralError, check_solution_structure
from .evaluation import solution_cost
from .operators import charging_insert_repair

_EXACT_HARD_LIMIT = 9


class NoFeasibleSolution(RuntimeError):
    """exact_solve exhausted the search space without a feasible plan."""


def exact_solve(inst: Instance, max_requests: int = _EXACT_HARD_LIMIT):
    """Minimum-objective feasible solution by exhaustive enumeration.

    Search layers: requests into ordered trips (capacity-pruned, plus the
    hard-ordering prune: placing a request after one whose window opens past
    its own close is provably late for any epsilon <= 0.5), then trips into
    per-AMR ordered lists.  Both layers use insertion-in-canonical-order so
    each unordered configuration is visited once.  Returns (solution,
    objective); raises NoFeasibleSolution when nothing passes.
    """
    limit = min(max_requests, _EXACT_HARD_LIMIT)
    n = inst.n_requests
    if n > limit:
        raise ValueError(f"exact_solve refuses {n} requests (limit {limit})")
    if n == 0:
        return Solution(amrs=()), 0.0

    xi1 = inst.cost.fixed_per_amr
    xi2 = inst.cost.per_meter
    hard_order_prune = inst.cost.epsilon <= 0.5
    e = inst.window_open
    h = inst.window_close
    dmat = inst.distance
    demand = inst.demand
    capacity = inst.amr.capacity

    best_sol: Solution | None = None
    best_obj = math.inf

    def trip_distance(t):
        d = dmat[DEPOT][t[0]] + dmat[t[-1]][DEPOT]
        for a, b in zip(t, t[1:]):
            d += dmat[a][b]
        return d

    def order_conflict(trip, pos, r):
        if not hard_order_prune:
            return False
        h_r = h[r]
        e_r = e[r]
        for x in trip[:pos]:
            if e[x] > h_r:
                return True
        for y in trip[pos:]:
            if e_r > h[y]:
                return True
        return False

    def evaluate_assignment(amrs, dist_lb):
        nonlocal best_sol, best_obj
        if xi1 * len(amrs) + xi2 * dist_lb >= best_obj - 1e-12:
            return
        sol = Solution(amrs=tuple(
            tuple((DEPOT, *t, DEPOT) for t in amr) for amr in amrs))
        cs = solution_cost(inst, sol)
        if cs.flag_failures:  # unflagged, no arrival is below alpha to repair
            try:
                sol = charging_insert_repair(inst, sol)
            except StructuralError:
                return
            cs = solution_cost(inst, sol)
        if cs.feasible and cs.objective < best_obj:
            best_obj = cs.objective
            best_sol = sol

    def assign(trips, idx, amrs, dist_lb):
        if xi1 * max(len(amrs), 1) + xi2 * dist_lb >= best_obj - 1e-12:
            return
        if idx == len(trips):
            evaluate_assignment(amrs, dist_lb)
            return
        t = trips[idx]
        amrs.append([t])
        assign(trips, idx + 1, amrs, dist_lb)
        amrs.pop()
        for amr in amrs:
            for pos in range(len(amr) + 1):
                amr.insert(pos, t)
                assign(trips, idx + 1, amrs, dist_lb)
                amr.pop(pos)

    def build(r, trips, loads):
        if r > n:
            dist_lb = sum(trip_distance(t) for t in trips)
            assign([tuple(t) for t in trips], 0, [], dist_lb)
            return
        q = demand[r]
        trips.append([r])
        loads.append(q)
        build(r + 1, trips, loads)
        trips.pop()
        loads.pop()
        for k, t in enumerate(trips):
            if loads[k] + q > capacity + 1e-9:
                continue
            loads[k] += q
            for pos in range(len(t) + 1):
                if order_conflict(t, pos, r):
                    continue
                t.insert(pos, r)
                build(r + 1, trips, loads)
                t.pop(pos)
            loads[k] -= q
        return

    build(1, [], [])
    if best_sol is None:
        raise NoFeasibleSolution("no feasible plan exists for this instance")
    return best_sol, best_obj


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

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_violation": self.max_violation,
            "per_request": [
                {
                    "id": s.id,
                    "violation_frequency": s.violation_frequency,
                    "mean_arrival": s.mean_arrival,
                }
                for s in self.per_request
            ],
        }


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
                    if battery < amrp.battery_high - 1e-12:
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
