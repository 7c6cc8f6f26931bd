"""Neighborhood moves, repair operators, AMR merging and the shake move.

All operators are pure: they never mutate the incoming solution (one with
nothing to change may come back as is) and consume randomness only from the
explicit rng argument.  Every operator preserves the multiset of request
nodes and the trip shape (depot at both ends, none inside), so
``solution_cost`` can skip the structure check.

A neighborhood move reads the incumbent's ``_plan_index`` and
``CostSummary``, whose chance-violating requests it targets (it falls back
to a uniform random move when nothing violates), and returns (bound,
change), as the shake's candidates are priced: ``bound`` lies strictly
below the changed plan's objective, from the legs the move cuts and adds
and the AMR it may empty, and ``change`` maps an AMR index to its new trips
(an emptied trip dropped, () for an AMR left with none).  The change is
built only when the bound is under the incumbent's penalized cost, the
price a move must beat; else, and when there is no move, it is None.
"""

from __future__ import annotations

import itertools
import math
import random

from .model import DEPOT, Instance, Solution, StructuralError, normalize_solution
from .evaluation import _BATTERY_EPS, _LOAD_EPS, _amr_cost, _fold, _price_within


def _plan_index(inst: Instance, sol: Solution):
    """What the moves read of an incumbent: (sol, its trips as
    ``_shake_trips`` lists them, each trip's request indices, every request
    position as (trip, index) in plan order)."""
    n = inst.n_requests
    flat = _shake_trips(sol)
    idxs = [[i for i, node in enumerate(trip) if 1 <= node <= n] for _, _, trip in flat]
    return sol, flat, idxs, [(k, i) for k, ii in enumerate(idxs) for i in ii]


def _violator_at(flat, positions, evaluation, bits):
    """Position of a violating request of ``evaluation``, drawn with ``bits``
    when there are several; None when nothing violates."""
    viol = evaluation.violating
    if not viol:
        return None
    v = viol[_below(bits, len(viol))] if len(viol) > 1 else viol[0]
    for k, i in positions:
        if flat[k][2][i] == v:
            return k, i
    raise StructuralError(f"node {v} not present in solution")


# ---------------------------------------------------------------------------
# neighborhood moves


def swap_star(inst: Instance, plan, evaluation, rng: random.Random):
    """Exchange the positions of two requests.

    With a chance violation present, the violating request is swapped with a
    looser-window partner: the earliest-positioned one on its own trip (this
    provably clears any hard-ordering pair involving the violator), falling
    back to the loosest close anywhere (ties to the smallest id).  Otherwise
    two uniformly random requests swap.  Returns (bound, change) (see the
    module docstring), or (inf, None) with fewer than two requests.
    """
    _, flat, _, positions = plan
    if len(positions) < 2:
        return math.inf, None
    bits = rng.getrandbits
    at = _violator_at(flat, positions, evaluation, bits)
    partner = _loosest_partner(inst, flat, positions, at) if at else None
    if not partner:
        i, j = _two_below(bits, len(positions))
        at, partner = positions[i], positions[j]
    return _swap(inst, plan, evaluation, *sorted((at, partner)))


def _loosest_partner(inst, flat, positions, at):
    """Swap partner for the violating request at ``at``.

    Same trip first: the earliest looser-close request ahead of the violator
    (swapping with it moves the violator in front of every opening that is
    past its own close, clearing any hard-ordering cause).  Without such a
    predecessor the loosest close on any other trip wins, smallest id on
    ties; None means no looser partner exists anywhere.
    """
    vk, vi = at
    trip = flat[vk][2]
    close, n = inst.window_close, inst.n_requests
    h_v = close[trip[vi]]
    for i in range(1, vi):
        if 1 <= trip[i] <= n and close[trip[i]] > h_v:
            return vk, i
    best = min(((-close[node], inst.request_at(node).id, (k, i))
                for k, i in positions
                if k != vk and close[node := flat[k][2][i]] > h_v),
               default=None)
    return best[2] if best else None


def _swap(inst, plan, now, p, q):
    """The move that swaps the requests at positions p < q."""
    sol, flat = plan[0], plan[1]
    d = inst.distance
    (k1, i1), (k2, i2) = p, q
    t1, t2 = flat[k1][2], flat[k2][2]
    x, y = t1[i1], t2[i2]
    u, b, c, w = t1[i1 - 1], t1[i1 + 1], t2[i2 - 1], t2[i2 + 1]
    if b == y:          # adjacent: u x y w becomes u y x w
        removed = d[u][x] + d[x][y] + d[y][w]
        added = d[u][y] + d[y][x] + d[x][w]
    else:
        removed = d[u][x] + d[x][b] + d[c][y] + d[y][w]
        added = d[u][y] + d[y][b] + d[c][x] + d[x][w]
    bound = _bound(inst, now, 0, removed, added)
    if bound >= now.penalized:
        return bound, None
    if k1 == k2:
        return bound, _change(sol, flat, k1,
                              t1[:i1] + (y,) + t1[i1 + 1:i2] + (x,) + t1[i2 + 1:])
    return bound, _change(sol, flat, k1, t1[:i1] + (y,) + t1[i1 + 1:],
                          k2, t2[:i2] + (x,) + t2[i2 + 1:])


def two_opt_star(inst: Instance, plan, evaluation, rng: random.Random):
    """Reverse a span inside one trip.

    Targets the first maximal run of strictly decreasing window closes; when
    no such run exists the span between two random requests of a random trip
    is reversed.  Returns (bound, change), or (inf, None) when no trip has
    two requests.
    """
    _, flat, idxs, _ = plan
    eligible = []       # the trips with two requests or more
    for k, (_, _, trip) in enumerate(flat):
        run = _decreasing_run(inst.window_close, trip, idxs[k])
        if run is not None:
            break
        if len(idxs[k]) >= 2:
            eligible.append(k)
    else:               # no run: a random span of a random eligible trip
        if not eligible:
            return math.inf, None
        bits = rng.getrandbits
        k = eligible[_below(bits, len(eligible))]
        run = sorted(idxs[k][h] for h in _two_below(bits, len(idxs[k])))
    return _reverse(inst, plan, evaluation, k, *run)


def _reverse(inst, plan, now, k, i, j):
    """The move that reverses the span from index i to index j of trip k."""
    trip = plan[1][k][2]
    bound = _reversal_bound(inst, now, trip, i, j + 1)
    if bound >= now.penalized:
        return bound, None
    return bound, _change(plan[0], plan[1], k,
                          trip[:i] + trip[i:j + 1][::-1] + trip[j + 1:])


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


def _reversal_bound(inst, now, trip, i, j):
    """The bound of reversing ``trip[i:j]`` on ``now``'s plan: its two end
    legs change, and its interior legs are driven backwards."""
    d = inst.distance
    u, w = trip[i - 1], trip[j]
    removed = d[u][trip[i]] + d[trip[j - 1]][w]
    added = d[u][trip[j - 1]] + d[trip[i]][w]
    for h in range(i, j - 1):
        removed += d[trip[h]][trip[h + 1]]
        added += d[trip[h + 1]][trip[h]]
    return _bound(inst, now, 0, removed, added)


def relocation_star(inst: Instance, plan, evaluation, rng: random.Random):
    """Remove one request and reinsert it.

    A violating request moves immediately before the first same-trip request
    with a later window close; otherwise a random request moves to a random
    interior slot of a random trip.  Returns (bound, change), or (inf, None)
    with fewer than two requests or when the request lands in its own slot.
    """
    _, flat, idxs, positions = plan
    if len(positions) < 2:
        return math.inf, None
    bits = rng.getrandbits
    at = _violator_at(flat, positions, evaluation, bits)
    if at is not None:
        k, vi = at
        trip, close = flat[k][2], inst.window_close
        target = next((i for i in idxs[k] if close[trip[i]] > close[trip[vi]]), None)
        if target is not None:
            return _relocate(inst, plan, evaluation, at, k, target - (target > vi))
    at = positions[_below(bits, len(positions))]
    k = _below(bits, len(flat))
    # an interior slot of trip k once the request is out of its own trip
    slots = len(flat[k][2]) - 1 - (k == at[0])
    return _relocate(inst, plan, evaluation, at, k, 1 + _below(bits, slots))


def _relocate(inst, plan, now, at, k, s):
    """The move that takes the request at ``at`` out of its trip and puts it
    into slot ``s`` of trip ``k``, the slot counted after taking it out; no
    move, (inf, None), when that is its own slot."""
    sol, flat = plan[0], plan[1]
    d = inst.distance
    ko, i = at
    if k == ko and s == i:
        return math.inf, None
    a, _, trip = flat[ko]
    v, p, q = trip[i], trip[i - 1], trip[i + 1]
    dest = flat[k][2]
    if k == ko:         # the neighbours of slot s once v is out
        u, w = trip[s - 1 + (s > i)], trip[s + (s >= i)]
    else:
        u, w = dest[s - 1], dest[s]
    # an AMR goes when its only trip is emptied; the leg p -> q is then 0
    gone = k != ko and len(trip) == 3 and len(sol.amrs[a]) == 1
    bound = _bound(inst, now, gone, d[p][v] + d[v][q] + d[u][w],
                   d[p][q] + d[u][v] + d[v][w])
    if bound >= now.penalized:
        return bound, None
    rest = trip[:i] + trip[i + 1:]
    if k == ko:
        return bound, _change(sol, flat, k, rest[:s] + (v,) + rest[s:])
    return bound, _change(sol, flat, ko, rest, k, dest[:s] + (v,) + dest[s:])


def _bound(inst, now, gone, removed, added):
    """A bound strictly below the objective of ``now``'s plan after a move
    that takes out legs summing to ``removed``, drives legs summing to
    ``added`` and empties ``gone`` AMRs: its objective from ``now``, less a
    relative slack for summing the legs in another order."""
    rate, per_meter = inst.cost.fixed_per_amr, inst.cost.per_meter
    low = rate * (now.m - gone) + per_meter * (now.distance - removed + added)
    # far above the rounding of summing up to millions of legs anew
    slack = 1e-9 * (now.objective + per_meter * added)
    return math.nextafter(low - slack, -math.inf)


def _change(sol, flat, i, trip_i, j=None, trip_j=None):
    """A move's change: trip i of ``flat`` becomes ``trip_i`` and trip j, if
    given, ``trip_j``.  Each changed AMR maps to its trips, where an emptied
    trip is dropped and an AMR left with none gets ()."""
    a1, t1, _ = flat[i]
    if j is None:
        return {a1: _with_trip(sol.amrs[a1], t1, trip_i)}
    a2, t2, _ = flat[j]
    if a1 != a2:
        return {a1: _with_trip(sol.amrs[a1], t1, trip_i),
                a2: _with_trip(sol.amrs[a2], t2, trip_j)}
    trips = list(sol.amrs[a1])
    trips[t1] = trip_i
    trips[t2] = trip_j
    return {a1: tuple([t for t in trips if len(t) > 2])}


def _with_trip(trips, t, trip):
    """trips with trip t replaced, or dropped when the new trip is empty."""
    if len(trip) > 2:
        return trips[:t] + (trip,) + trips[t + 1:]
    return trips[:t] + trips[t + 1:]


def _apply(sol, change):
    """The plan ``sol`` becomes under a move's ``change``."""
    amrs = list(sol.amrs)
    for a, trips in change.items():
        amrs[a] = trips
    return Solution(amrs=tuple(trips for trips in amrs if trips))


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
    current = sol
    while len(current.amrs) > 1:
        amrs = current.amrs
        flagged = {i for i, trips in enumerate(amrs)
                   if any(_amr_cost(inst, trips)[1:4])}
        for a, b in itertools.permutations(range(len(amrs)), 2):
            if flagged <= {b}:
                cost = _amr_cost(inst, amrs[a] + amrs[b], 0)
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
    under it; else ``sol`` comes back.

    With fewer than two trips the move degrades to a best-of-L random
    intra-trip reversal.

    Each draw is bounded as it is drawn (``_shake_candidates``), and the
    draws are visited in ascending bound order; since a bound is strictly
    below its candidate's score, the visit ends at the first bound that
    reaches the best score.  A visited candidate is scored from the
    incumbent's per-AMR costs with only its changed AMRs walked, within the
    violation budget its bound leaves under the best score
    (``_price_within``); only the winner becomes a plan.
    """
    flat = _shake_trips(sol)
    if not flat or len(flat) == 1 and len(flat[0][2]) < 4:
        return sol      # no trip, or a lone trip too short to reverse
    rate = inst.cost.fixed_per_amr
    base = [_amr_cost(inst, trips) for trips in sol.amrs]
    entries = _shake_candidates(inst, sol, flat, rng.getrandbits, candidates,
                                _fold(inst, base))

    # The incumbent itself is not part of the generated neighborhood: the best
    # candidate may be worse, and the delta acceptance rule downstream decides
    # whether the perturbation is kept.
    best = (below, -1)          # (score, draw index) to beat
    winner = None
    for bound, k, draw in sorted(entries):
        if bound >= best[0]:
            break
        change = _shake_change(sol, flat, draw)
        # an earlier draw also wins a tie: the score may equal the best
        limit = best[0] if k > best[1] else math.nextafter(best[0], math.inf)
        amr_costs = _price_within(inst, base, change, rate, limit, bound)
        if amr_costs is not None:   # its score is under the limit: it wins
            best, winner = (shake_cost(inst, _fold(inst, amr_costs)), k), change
    return sol if winner is None else _apply(sol, winner)


def _shake_trips(sol):
    """Every trip of ``sol`` as (AMR index, trip index, trip): what the
    shake draws from."""
    return [(a, t, trip) for a, amr in enumerate(sol.amrs) for t, trip in enumerate(amr)]


def _shake_candidates(inst, sol, flat, bits, count, now):
    """Draw ``count`` shake candidates of ``sol``, whose summary is ``now``,
    as (bound, draw index, draw) entries (see ``_bound``).  A draw is (trip
    i, trip j, cut c1, cut c2) of ``flat`` for a tail exchange, which swaps
    the two legs out of its cuts for the two that cross over and may empty
    an AMR, or the (first, end) slice of the lone trip's reversal, which has
    two stops or more and is bounded as 2-opt*'s is.  ``bits`` is a
    ``random.Random``'s ``getrandbits``, and the draws consume its stream
    as ``sample(range(n), 2)`` and ``randint`` do (``_two_below``,
    ``_below``); a bound consumes none."""
    dmat, amrs = inst.distance, sol.amrs
    lone = len(flat) < 2
    n = len(flat[0][2]) - 2 if lone else len(flat)
    entries = []
    for k in range(count):
        i, j = _two_below(bits, n)
        if lone:
            draw = (i + 1, j + 2) if i < j else (j + 1, i + 2)
            entries.append((_reversal_bound(inst, now, flat[0][2], *draw), k, draw))
            continue
        (a1, _, trip1), (a2, _, trip2) = flat[i], flat[j]
        c1, c2 = _below(bits, len(trip1) - 1), _below(bits, len(trip2) - 1)
        u1, v1, u2, v2 = trip1[c1], trip1[c1 + 1], trip2[c2], trip2[c2 + 1]
        # an AMR goes when its only trip is emptied: depot to depot
        gone = a1 != a2 and ((u1 == v2 == DEPOT and len(amrs[a1]) == 1)
                             + (u2 == v1 == DEPOT and len(amrs[a2]) == 1))
        entries.append((_bound(inst, now, gone, dmat[u1][v1] + dmat[u2][v2],
                               dmat[u1][v2] + dmat[u2][v1]), k, (i, j, c1, c2)))
    return entries


def _below(bits, n):
    """An index below n, drawn from ``bits`` (a ``random.Random``'s
    ``getrandbits``) as ``Random._randbelow(n)``, and so ``randrange(n)``,
    draws it: ``n.bit_length()`` bits until they land below n."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _two_below(bits, n):
    """Two distinct indices below n, as ``sample(range(n), 2)`` draws them:
    for n <= 21 from a pool, the second below n - 1 and standing for n - 1
    where it hits the first; by rejection above."""
    i = _below(bits, n)
    if n <= 21:
        j = _below(bits, n - 1)
        return i, n - 1 if j == i else j
    j = _below(bits, n)
    while j == i:
        j = _below(bits, n)
    return i, j


def _shake_change(sol, flat, draw):
    """The change (see ``_change``) of a drawn shake candidate."""
    if len(draw) == 2:
        i, j = draw
        trip = flat[0][2]
        return _change(sol, flat, 0, trip[:i] + trip[i:j][::-1] + trip[j:])
    i, j, c1, c2 = draw
    trip1, trip2 = flat[i][2], flat[j][2]
    return _change(sol, flat, i, trip1[:c1 + 1] + trip2[c2 + 1:],
                   j, trip2[:c2 + 1] + trip1[c1 + 1:])
