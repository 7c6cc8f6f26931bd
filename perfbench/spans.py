"""Aggregate spans around amrsched's public functions, installed from outside.

The program is not edited.  ``Tracer`` builds one wrapper per public function
of each layer module and, while ``active()`` is entered, rebinds every module
attribute that names one of those functions (including tuples of them, such as
``vns._NEIGHBORHOODS``), because the modules import each other by name.

Each span name keeps aggregate counters, not a record per call: calls, total
time and self time (the span's duration minus the time covered by its child
spans).  A few wrappers also count outcomes.  They only read arguments, results
and the solution cache's keys, and never call into the program, so the search
trajectory and the cache contents stay exactly as in an untraced run.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "amrsched"
LAYERS = ("model", "stochastic", "evaluation", "operators", "vns", "oracle")
NEIGHBORHOODS = ("swap_star", "two_opt_star", "relocation_star")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # span -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[float] = []      # child time accumulated per open span
        self._pending = None               # (neighborhood, candidate, incoming penalized)
        self._exact_depth = 0
        self._structural_error = sys.modules[f"{PACKAGE}.model"].StructuralError
        self._wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        self._patches = self._find_bindings()

    # -- installation -----------------------------------------------------

    def _find_bindings(self):
        patches = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    patches.append((mod, attr, value, self._wrappers[value]))
                elif isinstance(value, tuple) and any(
                        inspect.isfunction(v) and v in self._wrappers for v in value):
                    wrapped = tuple(self._wrappers.get(v, v)
                                    if inspect.isfunction(v) else v for v in value)
                    patches.append((mod, attr, value, wrapped))
        return patches

    @contextmanager
    def active(self):
        """Route every call between amrsched modules through the wrappers."""
        for mod, attr, _orig, wrapped in self._patches:
            setattr(mod, attr, wrapped)
        try:
            yield self
        finally:
            for mod, attr, orig, _wrapped in self._patches:
                setattr(mod, attr, orig)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, span: str, fn):
        rec = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        short = span.split(".", 1)[1]
        enter = getattr(self, f"_enter_{short}", None)
        leave = getattr(self, f"_leave_{short}", None)
        if short in NEIGHBORHOODS:
            leave = self._leave_neighborhood

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            result = exc = None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
                if leave is not None:
                    leave(span, args, result, exc)

        return wrapper

    def _enter_solution_cost(self, args):
        inst, sol = args[0], args[1]
        cache = getattr(inst, "_caches", {}).get("sol", ())
        if sol.amrs not in cache:
            self.counts["evaluation.solution_cost.misses"] += 1

    def _leave_solution_cost(self, _span, args, result, _exc):
        pending = self._pending
        if pending is not None and args[1] is pending[1]:
            self._pending = None
            if result is not None and result.penalized < pending[2]:
                self.counts[f"operators.{pending[0]}.improved"] += 1

    def _leave_neighborhood(self, span, args, result, _exc):
        # local_search prices the returned candidate next; that call decides
        # whether the move improved on the incoming penalized cost.
        self._pending = (span.split(".", 1)[1], result, args[2].penalized)

    def _leave_shaking(self, _span, args, result, _exc):
        if result is not None and result is not args[1]:
            self.counts["vns.shaking.kept"] += 1

    def _enter_exact_solve(self, _args):
        self._exact_depth += 1

    def _leave_exact_solve(self, _span, _args, _result, _exc):
        self._exact_depth -= 1

    def _leave_charging_insert_repair(self, _span, _args, _result, exc):
        if self._exact_depth:
            self.counts["oracle.exact_solve.repairs"] += 1
            if isinstance(exc, self._structural_error):
                self.counts["oracle.exact_solve.repair_rejects"] += 1

    # -- readout ------------------------------------------------------------

    def calls(self, span: str) -> int:
        return self.stats[span][0]

    def self_s(self, span: str) -> float:
        return self.stats[span][2]

    def layer_totals(self, layer: str) -> tuple[int, float]:
        """Calls and self time summed over every span of one module."""
        calls = self_s = 0
        for span, (n, _total, own) in self.stats.items():
            if span.startswith(layer + "."):
                calls += n
                self_s += own
        return calls, self_s

    def table(self) -> list[str]:
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        return [f"{span:<40} {n:>10d} {own:>12.6f} {total:>12.6f}"
                for span, (n, total, own) in rows if n]
