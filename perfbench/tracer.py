"""Outside-in span tracer for the ``probtrace`` modules.

The library has no counters of its own, so the benchmark wraps its public
functions from outside.  Callers import functions by name (``from .cfa
import difference_nfa``), so a wrapper must replace every binding of the
function object in every ``probtrace.*`` module, not only the defining one.
Self time is a span's duration minus the time its child spans cover.  A call
made directly inside a span of the same name (recursion, or
``difference_all`` calling ``difference_nfa``) is folded into the outer
call: it adds self time but no call and no size.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    size: int = 0  # summed output of the span's sizer, or yields of a generator


# Spans that group several functions; every other public function `f` of
# module `m` is traced as "m.f".
_GROUPS = {
    "cfa.difference_nfa": "cfa.difference",
    "cfa.difference_all": "cfa.difference",
    "hoare.generalize_nonviolating": "hoare.generalize",
    "hoare.generalize_violating": "hoare.generalize",
    "hoare.saturate_edges": "hoare.saturate",
    "evidence.validate_counterexample": "evidence.validate",
    "evidence.enumerate_by_weight": "evidence.enumerate",
    "solver.sequence_interpolants": "solver.interpolants",
}


def _automaton_size(aut) -> int:
    states = getattr(aut, "states", None)  # the internal NFA of difference_nfa
    return len(states if states is not None else aut.locations)


# span name -> sizer(args, result)
_SIZERS: dict[str, Callable] = {
    "cfa.difference": lambda args, out: _automaton_size(out),
    "hoare.saturate": lambda args, out: len(out.base.transitions) - len(args[0].base.transitions),
    "markov.analyze_mdp": lambda args, out: len(args[0].locations),
}

# The layers, in pipeline order.  Formula functions are traced only where
# other modules call them: inside `formula` they are the layer's own work.
LAYERS = ("lang", "cfa", "formula", "semantics", "hoare", "markov", "evidence", "cegar", "solver")
_FACADE_METHODS = ("is_sat", "get_model", "check_sat", "is_valid", "entails", "equivalent", "interpolants")


class Tracer:
    """Collects per-span call counts, self time and sizes while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [name, start, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> bool:
        outer = not (self._stack and self._stack[-1][0] == name)
        self._stack.append([name, self.clock(), 0.0])
        return outer

    def _exit(self) -> Stat:
        name, start, child = self._stack.pop()
        took = self.clock() - start
        stat = self.stats.setdefault(name, Stat())
        stat.self_s += took - child
        if self._stack:
            self._stack[-1][2] += took
        return stat

    def wrap(self, name: str, fn: Callable, sizer: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``; generator
        functions get one span per resumption and count their yields."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.stats.setdefault(name, Stat()).calls += 1
                it = fn(*args, **kwargs)
                while True:
                    self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stat = self._exit()
                    stat.size += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                stat = self._exit()
            if outer:
                stat.calls += 1
                if sizer is not None:
                    stat.size += sizer(args, out)
            return out

        return wrapper

    # -- installing ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original: Callable, wrapper: Callable, modules, skip=None) -> None:
        """Rebind every module-level name bound to ``original``."""
        for mod in modules:
            if mod is skip:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every layer module and the methods of
        the ``Solver`` facade and its builtin backend."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "probtrace" or n.startswith("probtrace.")]
        for layer in LAYERS:
            mod = sys.modules[f"probtrace.{layer}"]
            for fname, fn in sorted(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = _GROUPS.get(f"{layer}.{fname}", f"{layer}.{fname}")
                wrapper = self.wrap(name, fn, _SIZERS.get(name))
                self.replace_everywhere(fn, wrapper, modules, skip=mod if layer == "formula" else None)
        solver_mod = sys.modules["probtrace.solver"]
        for meth in _FACADE_METHODS:
            name = "solver.is_sat" if meth == "is_sat" else "solver.facade"
            self._set(solver_mod.Solver, meth, self.wrap(name, solver_mod.Solver.__dict__[meth]))
        self._set(solver_mod.BuiltinSolver, "check", self.wrap("solver.backend", solver_mod.BuiltinSolver.check))

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> dict[str, Stat]:
        """Return the statistics gathered so far and start afresh."""
        out, self.stats = self.stats, {}
        return out
