"""Neighborhood moves, repair operators, AMR merging and the shake move.

All operators are pure: they never mutate the incoming solution (one with
nothing to change may come back as is) and consume randomness only from the
explicit rng argument.  Moves that target time-window trouble use the
chance-violating request nodes of the incoming solution's ``CostSummary``;
when nothing violates they fall back to the uniform random variant.  Every
operator preserves the multiset of request nodes and the trip shape (depot at
both ends, none inside), so ``solution_cost`` can skip the structure check.
"""

from __future__ import annotations

import itertools
import math
import random

from .model import DEPOT, Instance, Solution, StructuralError, normalize_solution
from .evaluation import (_BATTERY_EPS, _LOAD_EPS, _amr_cost, _fold, _lower_bound,
                         _price_within)


def _to_lists(sol: Solution) -> list[list[list[int]]]:
    return [[list(t) for t in amr] for amr in sol.amrs]


def _request_positions(inst: Instance, amrs) -> list[tuple[int, int, int]]:
    out = []
    n = inst.n_requests
    for a, amr in enumerate(amrs):
        for t, trip in enumerate(amr):
            for i, node in enumerate(trip):
                if 1 <= node <= n:
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
    n = inst.n_requests
    for i, node in enumerate(trip[:v_pos]):
        if 1 <= node <= n and inst.window_close[node] > h_v:
            return va, vt, i
    best = None
    best_key = None
    for a, amr in enumerate(lists):
        for t, other in enumerate(amr):
            if a == va and t == vt:
                continue
            for i, node in enumerate(other):
                if not 1 <= node <= n:
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
    n = inst.n_requests
    eligible = [
        (a, t)
        for a, amr in enumerate(lists)
        for t, trip in enumerate(amr)
        if sum(1 for node in trip if 1 <= node <= n) >= 2
    ]
    if not eligible:
        return sol
    a, t = eligible[rng.randrange(len(eligible))]
    idxs = [i for i, node in enumerate(lists[a][t]) if 1 <= node <= n]
    i, j = sorted(rng.sample(idxs, 2))
    lists[a][t][i:j + 1] = reversed(lists[a][t][i:j + 1])
    return normalize_solution(lists)


def _decreasing_run(inst, lists):
    """First maximal same-trip request run with strictly decreasing window
    close, as (amr, trip, first_index, last_index); None when absent."""
    n = inst.n_requests
    for a, amr in enumerate(lists):
        for t, trip in enumerate(amr):
            idxs = [i for i, node in enumerate(trip) if 1 <= node <= n]
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
                # the trip walk's capacity test, so no split trip is flagged
                if load - q < -_LOAD_EPS:
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
    """Insert the nearest charging station in front of every node whose
    arrival battery would undershoot alpha, in one forward walk per AMR.  A
    solution that never undershoots comes back as is; so does the trip tuple
    of every AMR that never does.

    When the battery is already too low at that point for the station itself
    to be reachable, the insertion slot walks backwards along the AMR, no
    further than its last charging stop.  Raises StructuralError when no slot
    works (a leg no full charge covers, or no charging station at all).
    """
    amrs = tuple(_charge_amr(inst, trips) for trips in sol.amrs)
    if all(new is old for new, old in zip(amrs, sol.amrs)):
        return sol
    return Solution(amrs=amrs)


def _charge_amr(inst, trips):
    """The charging repair of one AMR's chained trips.

    Slots are the insertion points since the last charging stop, as (trip
    index, node index, battery when leaving the preceding node); a station
    tops the battery up to beta, so none placed before it helps after it.
    After an insertion the walk resumes at the new station from its slot's
    battery, the floats a rescan from the start would reach.  A slot behind
    a charging stop is skipped, so each leg takes at most one station.
    """
    alpha = inst.amr.battery_low
    beta = inst.amr.battery_high
    drain = inst.drain
    work = trips                    # a list of trip lists once a station goes in
    battery = inst.amr.battery_init
    slots = []
    t, i = 0, 1
    while t < len(work):
        trip = work[t]
        if i == len(trip):
            t, i = t + 1, 1
            continue
        prev, node = trip[i - 1], trip[i]
        slots.append((t, i, battery))
        battery -= drain[prev][node]
        if battery < alpha - _BATTERY_EPS:
            if not inst.charging_nodes:
                raise StructuralError("battery infeasible and no charging station exists")
            if work is trips:
                work = [list(tr) for tr in trips]
            for k in range(len(slots) - 1, -1, -1):
                t, i, battery = slots[k]   # on a break the walk resumes here
                prev = work[t][i - 1]
                if inst.is_charging(prev):
                    continue
                station = _nearest_station(inst, prev)
                at_station = battery - drain[prev][station]
                # the station must be reachable and the charge must change state
                if alpha - _BATTERY_EPS <= at_station < beta - _BATTERY_EPS:
                    break
            else:
                raise StructuralError(
                    "unrepairable battery profile: no charging slot can cover the "
                    f"leg into node {node}")
            work[t].insert(i, station)
            del slots[k:]
            continue
        if inst.is_charging(node):
            if battery < beta - _BATTERY_EPS:
                battery = beta
            slots = []
        i += 1
    return trips if work is trips else tuple(map(tuple, work))


def _nearest_station(inst, node):
    return min(inst.charging_nodes, key=lambda c: (inst.distance[node][c], c))


def amr_decrease(inst: Instance, sol: Solution) -> Solution:
    """Append one AMR's trip list onto another whenever the merged solution
    stays feasible; repeats greedily.  Each kept merge removes one fixed cost
    while leaving the traversed arcs unchanged.

    A merge of b onto a is feasible when every other AMR is clean and the
    merged AMR is.  Its walk starts with a's, so a flagged a (like a flagged
    third AMR) fails it without a walk; ``_amr_cost`` prices the merged AMR
    with a violation limit of 0, so its walk stops at the first violation.
    """
    caches = inst._caches
    current = sol
    while len(current.amrs) > 1:
        amrs = current.amrs
        flagged = {i for i, trips in enumerate(amrs)
                   if any(_amr_cost(inst, trips, caches)[1:4])}
        for a, b in itertools.permutations(range(len(amrs)), 2):
            if flagged <= {b}:
                cost = _amr_cost(inst, amrs[a] + amrs[b], caches, 0)
                if cost is not None and not any(cost[1:4]):
                    merged = list(amrs)
                    merged[a] += amrs[b]
                    del merged[b]
                    current = Solution(amrs=tuple(merged))
                    break
        else:
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
    """Best of L random inter-trip tail exchanges (by shake_cost); ties go to
    the first-drawn candidate.

    With fewer than two trips the move degrades to a best-of-L random
    intra-trip reversal.

    A candidate changes one or two AMRs, so it is scored from the incumbent's
    per-AMR costs with only the changed AMRs re-priced, and only the winner
    is built.  Every candidate gets a lower key first: its exact objective
    xi1*m + xi2*distance plus xi1 (>= 0 on every Instance) times the
    violations already known, from exact or lower-bound records, which is
    its score where its changed AMRs are all cached.  Those go first, so
    that the best of them bounds every walk; the rest are priced in
    ascending key order while they can still win.
    """
    flat = [(a, t) for a, amr in enumerate(sol.amrs) for t in range(len(amr))]
    if not flat:
        return sol
    caches = inst._caches
    amr_cache = caches["amr"]
    rate = inst.cost.fixed_per_amr
    base = [_amr_cost(inst, trips, caches) for trips in sol.amrs]

    # The incumbent itself is not part of the generated neighborhood: the best
    # candidate may be worse, and the delta acceptance rule downstream decides
    # whether the perturbation is kept.
    best = (math.inf, -1)       # (score, draw index) of the winner so far
    winner = None
    queued = []
    for k in range(candidates):
        change = _shake_candidate(sol, flat, rng)
        if change is None:
            continue
        amr_costs = base.copy()
        for a, trips in change.items():
            amr_costs[a] = amr_cache.get(trips) if trips else ()
        objective, known, floors = _lower_bound(inst, change, amr_costs, caches)
        queued.append((bool(floors), (objective + rate * known, k), objective, known,
                       floors, change, amr_costs))
    queued.sort()   # draw indices differ, so no two entries compare further
    for _, low, objective, known, floors, change, amr_costs in queued:
        if low >= best:
            continue
        # an earlier draw also wins a tie: the score may equal the best
        below = best[0] if low[1] > best[1] else math.nextafter(best[0], math.inf)
        amr_costs = _price_within(inst, change, amr_costs, caches, known,
                                  floors, objective, rate, below)
        if amr_costs is None:
            continue
        key = (shake_cost(inst, _fold(inst, amr_costs)), low[1])
        if key < best:
            best, winner = key, change
    if winner is None:
        return sol
    amrs = list(sol.amrs)
    for a, trips in winner.items():
        amrs[a] = trips
    return normalize_solution(amrs)


def _two_of(below, n):
    """Two distinct indices below n, drawn as ``random.sample(range(n), 2)``
    draws them in CPython: a pool for n <= 21, rejection above."""
    i = below(n)
    if n <= 21:
        j = below(n - 1)
        return i, n - 1 if j == i else j
    j = below(n)
    while j == i:
        j = below(n)
    return i, j


def _shake_candidate(sol, flat, rng):
    """Draw the next shake candidate as the AMRs it changes: a dict of AMR
    index -> new trips, where emptied trips are dropped and an AMR left
    with no trips gets ().  None when the only trip is too short to reverse;
    that draws nothing.

    The draws go through ``rng._randbelow``, the method ``sample`` and
    ``randint`` call, and consume the stream those calls would."""
    below = rng._randbelow
    if len(flat) >= 2:
        i, j = _two_of(below, len(flat))
        a1, t1 = flat[i]
        a2, t2 = flat[j]
        trip1 = sol.amrs[a1][t1]
        trip2 = sol.amrs[a2][t2]
        c1 = below(len(trip1) - 1)
        c2 = below(len(trip2) - 1)
        new1 = trip1[:c1 + 1] + trip2[c2 + 1:]
        new2 = trip2[:c2 + 1] + trip1[c1 + 1:]
        if a1 != a2:
            return {a1: _with_trip(sol.amrs[a1], t1, new1),
                    a2: _with_trip(sol.amrs[a2], t2, new2)}
        trips = list(sol.amrs[a1])
        trips[t1] = new1
        trips[t2] = new2
        return {a1: tuple([t for t in trips if len(t) > 2])}
    a, t = flat[0]
    trip = sol.amrs[a][t]
    if len(trip) < 4:
        return None
    i, j = sorted(_two_of(below, len(trip) - 2))
    i += 1
    j += 1
    return {a: (trip[:i] + trip[i:j + 1][::-1] + trip[j + 1:],)}


def _with_trip(trips, t, trip):
    """trips with trip t replaced, or dropped when the new trip is empty."""
    if len(trip) > 2:
        return trips[:t] + (trip,) + trips[t + 1:]
    return trips[:t] + trips[t + 1:]
