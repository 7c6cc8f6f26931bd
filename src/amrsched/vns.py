"""Greedy construction, local search, shaking and the top-level VNS loop.

The loop follows the classic scheme: build a greedy covering solution, make
it feasible (capacity/battery repairs plus AMR merging), then iterate
local search -> feasibility pipeline -> shake.  The delta-gated shake always
becomes the next working solution; the best solution moves only on a strict
zero-penalty improvement, by the repaired local optimum or the shaken plan.
The returned best solution always carries zero penalty; when no zero-penalty
solution is ever reached the least-penalized one of those plans is returned
and flagged by its evaluation.

Runs are fully deterministic for a fixed (instance, iterations, seed).
"""

from __future__ import annotations

import math
import random

from .model import DEPOT, Instance, Solution, StructuralError, normalize_solution
from .evaluation import (_LOAD_EPS, _start_record, _walk_trip, evaluate_solution,
                         solution_cost)
from .operators import (_charge_amr, amr_decrease, charging_insert_repair,
                        depot_insert_repair, relocation_star, shake_2opt_l,
                        shake_cost, swap_star, two_opt_star)

_NEIGHBORHOODS = (swap_star, two_opt_star, relocation_star)


def greedy_initial(inst: Instance, rng: random.Random) -> Solution:
    """Nearest-feasible-insertion construction.

    Grows one trip at a time: repeatedly take the unserved request closest to
    the trip's last stop that still fits capacity and keeps every chance test
    green at its cheapest insertion slot, dropping in a charging stop when
    the battery profile would dip under alpha.  A full trip opens a new one;
    a request nothing can host feasibly is force-placed on a fresh trip (the
    feasibility pipeline deals with it afterwards).  Each trip starts on its
    own provisional AMR; merging is the AMR-decrease operator's job.

    The two nearest candidates trade places on a coin flip of ``rng``, so
    different seeds start the search from different constructions.
    """
    unserved = set(range(1, inst.n_requests + 1))
    trips: list[tuple[int, ...]] = []
    body: list[int] = []

    def trip_ok(nodes):
        _, twv, cap_bad, bat_bad, *_ = _walk_trip(inst, _start_record(inst),
                                                  (DEPOT, *nodes, DEPOT))
        return twv == 0 and not cap_bad, bat_bad

    while unserved:
        last = next((n for n in reversed(body) if not inst.is_charging(n)), DEPOT)
        load = sum(inst.demand[n] for n in body)
        order = sorted(unserved, key=lambda r: (inst.distance[last][r], r))
        if len(order) >= 2 and rng.random() < 0.5:
            order[0], order[1] = order[1], order[0]
        placed = False
        for r in order:
            if load + inst.demand[r] > inst.amr.capacity + _LOAD_EPS:
                continue
            best = None
            for pos in range(len(body) + 1):
                trial = body[:pos] + [r] + body[pos:]
                ok, bat_bad = trip_ok(trial)
                if ok and bat_bad:
                    trial = _patch_battery(inst, trial)
                    if trial is None:
                        continue
                    ok, bat_bad = trip_ok(trial)
                if ok and not bat_bad:
                    added = _insertion_cost(inst, body, pos, r)
                    if best is None or added < best[0]:
                        best = (added, trial)
            if best is not None:
                body = best[1]
                unserved.discard(r)
                placed = True
                break
        if not placed:
            if body:
                trips.append((DEPOT, *body, DEPOT))
                body = []
            else:
                r = order[0]
                patched = _patch_battery(inst, [r])
                body = patched if patched is not None else [r]
                unserved.discard(r)
    if body:
        trips.append((DEPOT, *body, DEPOT))
    return normalize_solution([[t] for t in trips])


def _insertion_cost(inst, body, pos, r):
    seq = [DEPOT] + body + [DEPOT]
    prev, nxt = seq[pos], seq[pos + 1]
    return inst.distance[prev][r] + inst.distance[r][nxt] - inst.distance[prev][nxt]


def _patch_battery(inst, body):
    """A single trip body with charging stops inserted by the charging repair
    until its battery profile is legal; None when impossible."""
    try:
        return list(_charge_amr(inst, ((DEPOT, *body, DEPOT),))[0][1:-1])
    except StructuralError:
        return None


def local_search(inst: Instance, x: Solution, rng: random.Random) -> Solution:
    """Variable neighborhood descent over swap*, 2-opt*, relocation*.

    Each accepted move (strictly smaller penalized cost) resets to the first
    neighborhood; three consecutive failures end the descent.  A candidate is
    priced only until its penalized cost is certain to reach the incumbent's
    (``solution_cost``'s ``below``, which an incumbent of inf also sets), so
    most rejections stop early.
    """
    cx = solution_cost(inst, x)
    k = 1
    while k <= len(_NEIGHBORHOODS):
        candidate = _NEIGHBORHOODS[k - 1](inst, x, cx, rng)
        cc = solution_cost(inst, candidate, cx.penalized)
        if cc is not None:
            x, cx = candidate, cc
            k = 1
        else:
            k += 1
    return x


def feasible_operation(inst: Instance, x: Solution) -> Solution:
    """One repair pass followed by AMR merging.

    A flagged plan is split at capacity and then given charging stops.  One
    pass clears every flag: the split applies the trip walk's capacity test
    and charging stops carry no demand, and the charging repair returns only
    when the walk's battery test passes everywhere.  A battery profile no
    charging stop can repair keeps the split plan with its flags, so a search
    that never clears them returns its least-penalized plan, flagged
    infeasible.  Chance-constraint violations are left to the penalized
    search.
    """
    if solution_cost(inst, x).flag_failures:
        x = depot_insert_repair(inst, x)
        try:
            x = charging_insert_repair(inst, x)
        except StructuralError:
            pass
    return amr_decrease(inst, x)


def shaking(inst: Instance, x_l: Solution, rng: random.Random) -> Solution:
    """Best-of-L tail-exchange shake, accepted when its shake cost stays
    under ``cost.shake_delta`` times the current one.

    Acceptance prices violated constraints at one fixed cost each (see
    shake_cost): under the full xi3 surrogate no window-breaking perturbation
    could ever pass a delta gate, and the search would stay locked inside the
    first feasible basin it reaches.

    The threshold is the shake's ``below``: a candidate that could not pass
    is priced only as far as that takes, and x_l comes back when none can.
    """
    gate = shake_cost(inst, solution_cost(inst, x_l)) * inst.cost.shake_delta
    return shake_2opt_l(inst, x_l, rng, below=gate)


def solve(inst: Instance, max_iterations: int, seed: int = 0,
          on_iteration=None):
    """Run the full VNS loop and return (solution, evaluation, history).

    history[i] is the best zero-penalty objective known after iteration i+1
    (inf until one exists).  `on_iteration(n, best_objective, incumbent_pen)`
    is invoked once per iteration when given.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    rng = random.Random(seed)
    x = best = feasible_operation(inst, greedy_initial(inst, rng))
    rank = _rank(solution_cost(inst, x))
    history: list[float] = []

    for n in range(1, max_iterations + 1):
        x_l = feasible_operation(inst, local_search(inst, x, rng))
        x = shaking(inst, x_l, rng)     # the next working solution
        for y in (x_l, x):
            cp = solution_cost(inst, y)
            if _rank(cp) < rank:
                best, rank = y, _rank(cp)
        history.append(math.inf if rank[0] else rank[1])
        if on_iteration is not None:
            on_iteration(n, history[-1], cp.penalized)

    return best, evaluate_solution(inst, best), history


def _rank(cost):
    # any feasible plan first; its penalized cost is its objective (xi3 < inf)
    return not cost.feasible, cost.penalized
