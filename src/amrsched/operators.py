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
from .evaluation import _BATTERY_EPS, _LOAD_EPS, _amr_cost, _fold, _price_within


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


def _violator_at(lists, positions, evaluation, rng):
    """Position of a violating request of ``evaluation``, drawn with ``rng``
    when there are several; None when nothing violates."""
    viol = evaluation.violating
    if not viol:
        return None
    v = viol[rng.randrange(len(viol))] if len(viol) > 1 else viol[0]
    for a, t, i in positions:
        if lists[a][t][i] == v:
            return a, t, i
    raise StructuralError(f"node {v} not present in solution")


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
    at = _violator_at(lists, positions, evaluation, rng)
    partner = _loosest_partner(inst, lists, positions, at) if at else None
    if partner:
        pairs = [at, partner]
    else:
        pairs = [positions[k] for k in rng.sample(range(len(positions)), 2)]
    (a1, t1, i1), (a2, t2, i2) = pairs
    lists[a1][t1][i1], lists[a2][t2][i2] = lists[a2][t2][i2], lists[a1][t1][i1]
    return normalize_solution(lists)


def _loosest_partner(inst, lists, positions, at):
    """Swap partner for the violating request at ``at``.

    Same trip first: the earliest looser-close request ahead of the violator
    (swapping with it moves the violator in front of every opening that is
    past its own close, clearing any hard-ordering cause).  Without such a
    predecessor the loosest close on any other trip wins, smallest id on
    ties; None means no looser partner exists anywhere.
    """
    va, vt, vi = at
    trip = lists[va][vt]
    close, n = inst.window_close, inst.n_requests
    h_v = close[trip[vi]]
    for i in range(1, vi):
        if 1 <= trip[i] <= n and close[trip[i]] > h_v:
            return va, vt, i
    best = min(((-close[node], inst.request_at(node).id, (a, t, i))
                for a, t, i in positions
                if (a != va or t != vt) and close[node := lists[a][t][i]] > h_v),
               default=None)
    return best[2] if best else None


def two_opt_star(inst: Instance, sol: Solution, evaluation,
                 rng: random.Random) -> Solution:
    """Reverse a span inside one trip.

    Targets the first maximal run of strictly decreasing window closes; when
    no such run exists the span between two random requests of a random trip
    is reversed.
    """
    lists = _to_lists(sol)
    n = inst.n_requests
    eligible = []       # (trip, its request indices) with two requests or more
    for trip in itertools.chain.from_iterable(lists):
        idxs = [i for i, node in enumerate(trip) if 1 <= node <= n]
        run = _decreasing_run(inst.window_close, trip, idxs)
        if run is not None:
            break
        if len(idxs) >= 2:
            eligible.append((trip, idxs))
    else:               # no run: a random span of a random eligible trip
        if not eligible:
            return sol
        trip, idxs = eligible[rng.randrange(len(eligible))]
        run = sorted(rng.sample(idxs, 2))
    i, j = run
    trip[i:j + 1] = reversed(trip[i:j + 1])
    return normalize_solution(lists)


def _decreasing_run(close, trip, idxs):
    """First maximal run of ``trip``'s request indices ``idxs`` with strictly
    decreasing window close, as (first_index, last_index); None when absent."""
    for k in range(1, len(idxs)):
        if close[trip[idxs[k]]] < close[trip[idxs[k - 1]]]:
            last = k
            while (last + 1 < len(idxs)
                   and close[trip[idxs[last + 1]]] < close[trip[idxs[last]]]):
                last += 1
            return idxs[k - 1], idxs[last]
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
    at = _violator_at(lists, positions, evaluation, rng)
    if at is not None:
        va, vt, vi = at
        trip = lists[va][vt]
        v = trip[vi]
        h_v = inst.window_close[v]
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
    arrival battery would undershoot alpha, in one walk over each AMR's node
    sequence.  A solution that never undershoots comes back as is; so does
    the trip tuple of every AMR that never does.

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
    """The charging repair of one AMR's chained trips, walked as one node
    sequence from the depot.

    Slots are the insertion points since the last charging stop, as (node
    index, battery when leaving the preceding node); a station tops the
    battery up to beta, so none placed before it helps after it.  No slot is
    taken behind a charging stop, so each leg takes at most one station.
    After an insertion the walk resumes at the new station from its slot's
    battery, the floats a rescan from the start would reach.
    """
    alpha = inst.amr.battery_low
    beta = inst.amr.battery_high
    drain = inst.drain
    nreq = inst.n_requests          # the nodes above it are charging stations
    nodes = [DEPOT, *(n for trip in trips for n in trip[1:])]
    size = len(nodes)
    battery = inst.amr.battery_init
    slots = []
    i = 1
    while i < len(nodes):
        prev, node = nodes[i - 1], nodes[i]
        if prev <= nreq:
            slots.append((i, battery))
        battery -= drain[prev][node]
        if battery < alpha - _BATTERY_EPS:
            if not inst.charging_nodes:
                raise StructuralError("battery infeasible and no charging station exists")
            for k in range(len(slots) - 1, -1, -1):
                i, battery = slots[k]      # on a break the walk resumes here
                prev = nodes[i - 1]
                station = _nearest_station(inst, prev)
                at_station = battery - drain[prev][station]
                # the station must be reachable and the charge must change state
                if alpha - _BATTERY_EPS <= at_station < beta - _BATTERY_EPS:
                    break
            else:
                raise StructuralError(
                    "unrepairable battery profile: no charging slot can cover the "
                    f"leg into node {node}")
            nodes.insert(i, station)
            del slots[k:]
            continue
        if node > nreq:
            if battery < beta - _BATTERY_EPS:
                battery = beta
            slots = []
        i += 1
    if len(nodes) == size:
        return trips
    depots = [j for j, n in enumerate(nodes) if n == DEPOT]     # split at them
    return tuple(tuple(nodes[a:b + 1]) for a, b in zip(depots, depots[1:]))


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
                 candidates: int = 20, below: float = math.inf) -> Solution:
    """Best of L random inter-trip tail exchanges (by shake_cost); ties go to
    the first-drawn candidate.  With ``below`` the pick must also score
    under it, as in ``solution_cost``; else ``sol`` comes back.

    With fewer than two trips the move degrades to a best-of-L random
    intra-trip reversal.

    All L draws come first, each with an O(1) bound (``_shake_bounds``),
    and are visited in ascending bound order; since a bound is strictly
    below its candidate's score, the visit ends at the first bound that
    reaches the best score.  A candidate changes one or two AMRs, so it is
    scored from the incumbent's per-AMR costs with only those re-priced,
    each walked only within the violation budget the best score leaves; only
    the winner becomes a plan.
    """
    flat = _shake_trips(sol)
    if not flat or len(flat) == 1 and len(flat[0][2]) < 4:
        return sol      # no trip, or a lone trip too short to reverse
    caches = inst._caches
    amr_cache = caches["amr"]
    rate = inst.cost.fixed_per_amr
    base = [_amr_cost(inst, trips, caches) for trips in sol.amrs]
    draws = _shake_draws(flat, rng.getrandbits, candidates)

    # The incumbent itself is not part of the generated neighborhood: the best
    # candidate may be worse, and the delta acceptance rule downstream decides
    # whether the perturbation is kept.
    best = (below, -1)          # (score, draw index) to beat
    winner = None
    for bound, k in sorted(_shake_bounds(inst, sol, flat, draws, _fold(inst, base))):
        if bound >= best[0]:
            break
        change = _shake_change(sol, flat, draws[k])
        amr_costs = base.copy()
        for a, trips in change.items():
            amr_costs[a] = amr_cache.get(trips) if trips else ()
        # an earlier draw also wins a tie: the score may equal the best
        limit = best[0] if k > best[1] else math.nextafter(best[0], math.inf)
        amr_costs = _price_within(inst, change, amr_costs, caches, rate, limit)
        if amr_costs is not None:   # its score is under the limit: it wins
            best, winner = (shake_cost(inst, _fold(inst, amr_costs)), k), change
    if winner is None:
        return sol
    amrs = list(sol.amrs)
    for a, trips in winner.items():
        amrs[a] = trips
    return Solution(amrs=tuple(trips for trips in amrs if trips))


def _shake_bounds(inst, sol, flat, draws, now):
    """A (bound, draw index) pair per shake draw on ``sol``, whose summary
    is ``now``.  A tail exchange swaps the two legs out of its cuts for the
    two that cross over and may empty an AMR; its objective from ``now``,
    less a relative slack for summing the legs in another order, is strictly
    below the candidate's, and so below its score.  A reversal gets -inf."""
    rate, per_meter = inst.cost.fixed_per_amr, inst.cost.per_meter
    dmat, amrs, m, dist = inst.distance, sol.amrs, now.m, now.distance
    bounds = []
    for k, draw in enumerate(draws):
        if len(draw) == 2:
            bounds.append((-math.inf, k))
            continue
        i, j, c1, c2 = draw
        a1, _, trip1, _ = flat[i]
        a2, _, trip2, _ = flat[j]
        u1, v1, u2, v2 = trip1[c1], trip1[c1 + 1], trip2[c2], trip2[c2 + 1]
        added = dmat[u1][v2] + dmat[u2][v1]
        # an AMR goes when its only trip is emptied: depot to depot
        gone = a1 != a2 and ((u1 == v2 == DEPOT and len(amrs[a1]) == 1)
                             + (u2 == v1 == DEPOT and len(amrs[a2]) == 1))
        low = rate * (m - gone) + per_meter * (
            dist - dmat[u1][v1] - dmat[u2][v2] + added)
        # far above the rounding of summing up to millions of legs anew
        slack = 1e-9 * (now.objective + per_meter * added)
        bounds.append((math.nextafter(low - slack, -math.inf), k))
    return bounds


def _shake_trips(sol):
    """Every trip of ``sol`` as (AMR index, trip index, trip, the bit count of
    a cut index below its length - 1): what the shake draws from."""
    return [(a, t, trip, (len(trip) - 1).bit_length())
            for a, amr in enumerate(sol.amrs) for t, trip in enumerate(amr)]


def _shake_draws(flat, bits, count):
    """Draw ``count`` shake candidates' indices: (trip i, trip j, cut c1,
    cut c2) of ``flat`` for a tail exchange, or the (first, end) slice of the
    lone trip's reversal, which must have two stops.

    ``bits`` is a ``random.Random``'s ``getrandbits``, and the draws consume
    its stream as ``sample`` and ``randint`` do: an index below n takes
    ``bits(n.bit_length())`` until it lands below n (``_randbelow``), and
    two distinct indices below n come as ``sample(range(n), 2)`` draws them,
    the second below n - 1 and standing for n - 1 where it hits the first
    when n <= 21, by rejection above."""
    lone = len(flat) < 2
    n = len(flat[0][2]) - 2 if lone else len(flat)
    k, k_pool = n.bit_length(), (n - 1).bit_length()
    draws = []
    for _ in range(count):
        i = bits(k)
        while i >= n:
            i = bits(k)
        if n <= 21:
            j = bits(k_pool)
            while j >= n - 1:
                j = bits(k_pool)
            if j == i:
                j = n - 1
        else:
            j = bits(k)
            while j >= n or j == i:
                j = bits(k)
        if lone:
            draws.append((i + 1, j + 2) if i < j else (j + 1, i + 2))
            continue
        _, _, trip, kc = flat[i]
        cuts = len(trip) - 1
        c1 = bits(kc)
        while c1 >= cuts:
            c1 = bits(kc)
        _, _, trip, kc = flat[j]
        cuts = len(trip) - 1
        c2 = bits(kc)
        while c2 >= cuts:
            c2 = bits(kc)
        draws.append((i, j, c1, c2))
    return draws


def _shake_change(sol, flat, draw):
    """The AMRs a drawn shake candidate changes: a dict of AMR index -> new
    trips, where emptied trips are dropped and an AMR left with no trips
    gets ()."""
    if len(draw) == 2:
        a, _, trip, _ = flat[0]
        i, j = draw
        return {a: (trip[:i] + trip[i:j][::-1] + trip[j:],)}
    i, j, c1, c2 = draw
    a1, t1, trip1, _ = flat[i]
    a2, t2, trip2, _ = flat[j]
    new1 = trip1[:c1 + 1] + trip2[c2 + 1:]
    new2 = trip2[:c2 + 1] + trip1[c1 + 1:]
    if a1 != a2:
        return {a1: _with_trip(sol.amrs[a1], t1, new1),
                a2: _with_trip(sol.amrs[a2], t2, new2)}
    trips = list(sol.amrs[a1])
    trips[t1] = new1
    trips[t2] = new2
    return {a1: tuple([t for t in trips if len(t) > 2])}


def _with_trip(trips, t, trip):
    """trips with trip t replaced, or dropped when the new trip is empty."""
    if len(trip) > 2:
        return trips[:t] + (trip,) + trips[t + 1:]
    return trips[:t] + trips[t + 1:]
