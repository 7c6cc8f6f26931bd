"""Neighborhood moves, repair operators, AMR merging and the shake move.

All operators are pure: they copy the incoming solution, never mutate it,
and consume randomness only from the explicit rng argument.  Moves that
target time-window trouble use the chance-violating request nodes of the
incoming solution's ``CostSummary``; when nothing violates they fall back to
the uniform random variant.  Every operator preserves the multiset of request
nodes.
"""

from __future__ import annotations

import math
import random

from .model import DEPOT, Instance, Solution, StructuralError, normalize_solution
from .evaluation import solution_cost

_REPAIR_ROUNDS_PER_REQUEST = 2


def _to_lists(sol: Solution) -> list[list[list[int]]]:
    return [[list(t) for t in amr] for amr in sol.amrs]


def _request_positions(inst: Instance, amrs) -> list[tuple[int, int, int]]:
    out = []
    for a, amr in enumerate(amrs):
        for t, trip in enumerate(amr):
            for i, node in enumerate(trip):
                if inst.is_request(node):
                    out.append((a, t, i))
    return out


def _position_of(amrs, node: int) -> tuple[int, int, int]:
    for a, amr in enumerate(amrs):
        for t, trip in enumerate(amr):
            for i, n in enumerate(trip):
                if n == node:
                    return a, t, i
    raise StructuralError(f"node {node} not present in solution")


# ---------------------------------------------------------------------------
# neighborhood moves


def swap_star(inst: Instance, sol: Solution, evaluation, rng: random.Random) -> Solution:
    """Exchange the positions of two requests.

    With a chance violation present, the violating request is swapped with a
    looser-window partner: the earliest-positioned one on its own trip (this
    provably clears any hard-ordering pair involving the violator), falling
    back to the loosest close anywhere (ties to the smallest id).  Otherwise
    two uniformly random requests swap.
    """
    lists = _to_lists(sol)
    positions = _request_positions(inst, lists)
    if len(positions) < 2:
        return sol
    viol = evaluation.violating
    if viol:
        v = viol[rng.randrange(len(viol))] if len(viol) > 1 else viol[0]
        va, vt, vi = _position_of(lists, v)
        h_v = inst.window_close[v]
        partner = _loosest_partner(inst, lists, (va, vt), v, h_v)
        if partner is not None:
            pa, pt, pi = partner
            lists[va][vt][vi], lists[pa][pt][pi] = lists[pa][pt][pi], lists[va][vt][vi]
            return normalize_solution(lists)
    i, j = rng.sample(range(len(positions)), 2)
    (a1, t1, i1), (a2, t2, i2) = positions[i], positions[j]
    lists[a1][t1][i1], lists[a2][t2][i2] = lists[a2][t2][i2], lists[a1][t1][i1]
    return normalize_solution(lists)


def _loosest_partner(inst, lists, home, v_node, h_v):
    """Swap partner for a violating request.

    Same trip first: the earliest looser-close request ahead of the violator
    (swapping with it moves the violator in front of every opening that is
    past its own close, clearing any hard-ordering cause).  Without such a
    predecessor the loosest close on any other trip wins, smallest id on
    ties; None means no looser partner exists anywhere.
    """
    va, vt = home
    trip = lists[va][vt]
    v_pos = trip.index(v_node)
    for i, node in enumerate(trip[:v_pos]):
        if inst.is_request(node) and inst.window_close[node] > h_v:
            return va, vt, i
    best = None
    best_key = None
    for a, amr in enumerate(lists):
        for t, other in enumerate(amr):
            if a == va and t == vt:
                continue
            for i, node in enumerate(other):
                if not inst.is_request(node):
                    continue
                h = inst.window_close[node]
                if h <= h_v:
                    continue
                key = (-h, inst.request_at(node).id)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (a, t, i)
    return best


def two_opt_star(inst: Instance, sol: Solution, evaluation,
                 rng: random.Random) -> Solution:
    """Reverse a span inside one trip.

    Targets the first maximal run of strictly decreasing window closes; when
    no such run exists the span between two random requests of a random trip
    is reversed.
    """
    lists = _to_lists(sol)
    run = _decreasing_run(inst, lists)
    if run is not None:
        a, t, i, j = run
        lists[a][t][i:j + 1] = reversed(lists[a][t][i:j + 1])
        return normalize_solution(lists)
    eligible = [
        (a, t)
        for a, amr in enumerate(lists)
        for t, trip in enumerate(amr)
        if sum(1 for n in trip if inst.is_request(n)) >= 2
    ]
    if not eligible:
        return sol
    a, t = eligible[rng.randrange(len(eligible))]
    idxs = [i for i, n in enumerate(lists[a][t]) if inst.is_request(n)]
    i, j = sorted(rng.sample(idxs, 2))
    lists[a][t][i:j + 1] = reversed(lists[a][t][i:j + 1])
    return normalize_solution(lists)


def _decreasing_run(inst, lists):
    """First maximal same-trip request run with strictly decreasing window
    close, as (amr, trip, first_index, last_index); None when absent."""
    for a, amr in enumerate(lists):
        for t, trip in enumerate(amr):
            idxs = [i for i, n in enumerate(trip) if inst.is_request(n)]
            run_start = 0
            for k in range(1, len(idxs) + 1):
                ended = k == len(idxs) or not (
                    inst.window_close[trip[idxs[k]]]
                    < inst.window_close[trip[idxs[k - 1]]]
                )
                if ended:
                    if k - run_start >= 2:
                        return a, t, idxs[run_start], idxs[k - 1]
                    run_start = k
    return None


def relocation_star(inst: Instance, sol: Solution, evaluation,
                    rng: random.Random) -> Solution:
    """Remove one request and reinsert it.

    A violating request moves immediately before the first same-trip request
    with a later window close; otherwise a random request moves to a random
    interior slot of a random trip (possibly its own position).
    """
    lists = _to_lists(sol)
    positions = _request_positions(inst, lists)
    if len(positions) < 2:
        return sol
    viol = evaluation.violating
    if viol:
        v = viol[rng.randrange(len(viol))] if len(viol) > 1 else viol[0]
        va, vt, vi = _position_of(lists, v)
        h_v = inst.window_close[v]
        trip = lists[va][vt]
        target = next(
            (i for i, n in enumerate(trip)
             if inst.is_request(n) and n != v and inst.window_close[n] > h_v),
            None,
        )
        if target is not None:
            trip.pop(vi)
            if target > vi:
                target -= 1
            trip.insert(target, v)
            return normalize_solution(lists)
    a, t, i = positions[rng.randrange(len(positions))]
    node = lists[a][t].pop(i)
    flat = [(aa, tt) for aa, amr in enumerate(lists) for tt in range(len(amr))]
    ta, tt = flat[rng.randrange(len(flat))]
    slot = rng.randrange(1, len(lists[ta][tt]))
    lists[ta][tt].insert(slot, node)
    return normalize_solution(lists)


# ---------------------------------------------------------------------------
# repairs


def depot_insert_repair(inst: Instance, sol: Solution) -> Solution:
    """Split every overloaded trip in front of the first request the remaining
    load cannot cover; request order is preserved.  Idempotent."""
    out = []
    for amr in sol.amrs:
        trips = []
        for trip in amr:
            segment = [DEPOT]
            load = inst.amr.capacity
            for node in trip[1:-1]:
                q = inst.demand[node]
                if q > load + 1e-9:
                    segment.append(DEPOT)
                    trips.append(tuple(segment))
                    segment = [DEPOT]
                    load = inst.amr.capacity
                segment.append(node)
                load -= q
            segment.append(DEPOT)
            trips.append(tuple(segment))
        out.append(trips)
    return normalize_solution(out)


def charging_insert_repair(inst: Instance, sol: Solution) -> Solution:
    """Insert the nearest charging station in front of the first node whose
    arrival battery would undershoot alpha, repeating until the whole chained
    battery profile stays legal.

    When the battery is already too low at that point for the station itself
    to be reachable, the insertion slot walks backwards along the trip.
    Raises StructuralError when no slot works (a leg no full charge covers).
    """
    lists = _to_lists(sol)
    if not inst.charging_nodes:
        if any(_battery_violation(inst, amr) is not None for amr in lists):
            raise StructuralError("battery infeasible and no charging station exists")
        return sol
    alpha = inst.amr.battery_low
    beta = inst.amr.battery_high
    max_rounds = max(4, _REPAIR_ROUNDS_PER_REQUEST * inst.n_requests)
    for _ in range(max_rounds):
        for a, amr in enumerate(lists):
            hit = _battery_violation(inst, amr)
            if hit is not None:
                break
        else:
            return normalize_solution(lists)
        t, i, slots = hit
        placed = False
        for ti, ni, b_prev in reversed(slots):
            prev = lists[a][ti][ni - 1]
            if inst.is_charging(prev):
                continue
            station = _nearest_station(inst, prev)
            at_station = b_prev - inst.drain[prev][station]
            # the station must be reachable and the charge must change state
            if at_station >= alpha - 1e-12 and at_station < beta - 1e-12:
                lists[a][ti].insert(ni, station)
                placed = True
                break
        if not placed:
            raise StructuralError(
                "unrepairable battery profile: no charging slot can cover the "
                f"leg into node {lists[a][t][i]}")
    raise StructuralError("charging insertion did not converge")


def _battery_violation(inst, trips):
    """First sub-alpha arrival along one AMR's chained trips, else None.

    Returns (trip_index, node_index, slots): slots lists every insertion
    point up to and including the violating one, as (trip_index, node_index,
    battery when leaving the preceding node).  A charging station tops a
    battery below beta up to beta.
    """
    alpha = inst.amr.battery_low
    beta = inst.amr.battery_high
    drain = inst.drain
    battery = inst.amr.battery_init
    slots = []
    for t, trip in enumerate(trips):
        prev = trip[0]
        for i in range(1, len(trip)):
            node = trip[i]
            slots.append((t, i, battery))
            battery -= drain[prev][node]
            if battery < alpha - 1e-12:
                return t, i, slots
            if inst.is_charging(node) and battery < beta - 1e-12:
                battery = beta
            prev = node
    return None


def _nearest_station(inst, node):
    return min(inst.charging_nodes, key=lambda c: (inst.distance[node][c], c))


def amr_decrease(inst: Instance, sol: Solution) -> Solution:
    """Append one AMR's trip list onto another whenever the merged solution
    stays feasible; repeats greedily.  Each kept merge removes one fixed cost
    while leaving the traversed arcs unchanged."""
    current = sol
    improved = True
    while improved and len(current.amrs) > 1:
        improved = False
        m = len(current.amrs)
        for a in range(m):
            for b in range(m):
                if a == b:
                    continue
                merged = list(current.amrs)
                merged[a] = merged[a] + merged[b]
                del merged[b]
                candidate = Solution(amrs=tuple(merged))
                if solution_cost(inst, candidate).feasible:
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return current


# ---------------------------------------------------------------------------
# shake


def shake_cost(inst: Instance, summary) -> float:
    """Cost used to rank and accept shake candidates.

    Violated constraints are priced at one AMR fixed cost each (the trivial
    repair: serve the offending request alone on a fresh robot), so bold but
    window-breaking perturbations stay comparable to timid feasible ones
    instead of being walled off by the search surrogate's penalty.
    """
    return summary.objective + inst.cost.fixed_per_amr * (
        summary.tw_violations + summary.flag_failures)


def shake_2opt_l(inst: Instance, sol: Solution, rng: random.Random,
                 candidates: int = 20) -> Solution:
    """Best of L random inter-trip tail exchanges (by shake_cost).

    With fewer than two trips the move degrades to a best-of-L random
    intra-trip reversal.
    """
    flat = [(a, t) for a, amr in enumerate(sol.amrs) for t in range(len(amr))]
    if not flat:
        return sol
    # The incumbent itself is not part of the generated neighborhood: the best
    # candidate may be worse, and the delta acceptance rule downstream decides
    # whether the perturbation is kept.
    best = None
    best_pen = math.inf
    for _ in range(candidates):
        if len(flat) >= 2:
            (a1, t1), (a2, t2) = (flat[k] for k in rng.sample(range(len(flat)), 2))
            trip1 = sol.amrs[a1][t1]
            trip2 = sol.amrs[a2][t2]
            c1 = rng.randint(0, len(trip1) - 2)
            c2 = rng.randint(0, len(trip2) - 2)
            new1 = trip1[:c1 + 1] + trip2[c2 + 1:]
            new2 = trip2[:c2 + 1] + trip1[c1 + 1:]
            lists = _to_lists(sol)
            lists[a1][t1] = list(new1)
            lists[a2][t2] = list(new2)
            cand = normalize_solution(lists)
        else:
            a, t = flat[0]
            trip = sol.amrs[a][t]
            if len(trip) < 4:
                continue
            i, j = sorted(rng.sample(range(1, len(trip) - 1), 2))
            body = list(trip)
            body[i:j + 1] = reversed(body[i:j + 1])
            lists = _to_lists(sol)
            lists[a][t] = body
            cand = normalize_solution(lists)
        pen = shake_cost(inst, solution_cost(inst, cand))
        if pen < best_pen:
            best = cand
            best_pen = pen
    return best if best is not None else sol
