"""Brute-force ground truth on bounded domains.

Computes the exact violation probability of a deterministic PCFA by value
iteration over (remaining steps, location, concrete state): coins average,
action choices maximize, the accepting location scores the postcondition.
Truncation at the step bound yields a sound interval — the unresolved mass
goes entirely to the upper end — so callers can compare certified bounds
against it without ever trusting a point estimate.

Everything here is deliberately independent of the verification pipeline:
no transformers, no solver, no automata algebra beyond walking edges.  A
location's actions come from `cfa.actions_at`, and each label runs through
`semantics.interpret_label`, which no verifier path runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Optional

from .cfa import Assign, Assume, PCFA, actions_at
from .formula import IntTerm, bool_vars, feval, int_vars
from .semantics import interpret_label

DEFAULT_RANGE = (-4, 4)


@dataclass(frozen=True)
class StateDomain:
    ranges: tuple[tuple[str, tuple[int, int]], ...] = ()
    limit: int = 10**6

    @staticmethod
    def of(ranges: Mapping[str, tuple[int, int]], limit: int = 10**6) -> "StateDomain":
        for v, (a, b) in ranges.items():
            if a > b:
                raise ValueError(f"empty range for {v}: [{a}, {b}]")
        return StateDomain(tuple(sorted(ranges.items())), limit)

    def range_of(self, var: str) -> tuple[int, int]:
        for v, r in self.ranges:
            if v == var:
                return r
        return DEFAULT_RANGE


def _variables(P: PCFA, spec) -> tuple[list[str], list[str]]:
    """Integer and boolean variable names mentioned anywhere."""
    ints: set[str] = set()
    bools: set[str] = set()
    for f in (spec.pre, spec.post):
        ints |= int_vars(f)
        bools |= bool_vars(f)
    for _, lab, _ in P.transitions:
        if isinstance(lab, Assign):
            if isinstance(lab.expr, IntTerm):
                ints.add(lab.var)
                ints |= lab.expr.vars()
            else:
                bools.add(lab.var)
                ints |= int_vars(lab.expr)
                bools |= bool_vars(lab.expr)
        elif isinstance(lab, Assume):
            ints |= int_vars(lab.cond)
            bools |= bool_vars(lab.cond)
    return sorted(ints), sorted(bools)


def _initial_states(P: PCFA, spec, dom: StateDomain):
    ints, bools = _variables(P, spec)
    count = 2 ** len(bools)
    for v in ints:
        a, b = dom.range_of(v)
        count *= b - a + 1
        if count > dom.limit:
            raise ValueError(
                f"initial-state domain exceeds limit ({count} > {dom.limit}); "
                "narrow the ranges or raise the limit"
            )
    int_axes = [range(dom.range_of(v)[0], dom.range_of(v)[1] + 1) for v in ints]
    for ivals in product(*int_axes):
        for bvals in product((False, True), repeat=len(bools)):
            state = dict(zip(ints, ivals))
            state.update(zip(bools, bvals))
            if feval(spec.pre, state):
                yield state


Interval = tuple[Fraction, Fraction]

_ZERO = (Fraction(0), Fraction(0))
_UNKNOWN = (Fraction(0), Fraction(1))


def exact_violation_probability(
    P: PCFA, spec, dom: Optional[StateDomain] = None, step_bound: int = 64
) -> Interval:
    """Interval containing the worst-case violation probability over all
    initial states in the domain that satisfy the precondition.

    Raises ValueError when no state in the domain satisfies the
    precondition and some integer variable took the default range: the
    answer would be 0 only because that range misses the precondition."""
    if not P.is_deterministic():
        raise ValueError("oracle expects a deterministic automaton")
    dom = dom or StateDomain()
    neg_post_holds = lambda s: not feval(spec.post, s)

    memo: dict[tuple, Interval] = {}
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 3 * step_bound + 500))

    def value(k: int, loc: int, state: tuple) -> Interval:
        if loc == P.accepting:
            s = dict(state)
            one = Fraction(int(neg_post_holds(s)))
            return (one, one)
        edges = P.out_edges(loc)
        if not edges:
            return _ZERO
        if k == 0:
            return _UNKNOWN
        key = (k, loc, state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        lo_best, hi_best = _ZERO
        for act, step in actions_at(P, loc).items():
            if isinstance(act, int):
                lo = hi = Fraction(0)
                # a missing side accepts no trace: contributes exactly 0
                for tgt in step.values():
                    l, h = value(k - 1, tgt, state)
                    lo += l / 2
                    hi += h / 2
                v = (lo, hi)
            else:
                new = interpret_label(act, dict(state))  # None: a blocked assume
                v = _ZERO if new is None else value(k - 1, step, tuple(sorted(new.items())))
            if v[0] > lo_best:
                lo_best = v[0]
            if v[1] > hi_best:
                hi_best = v[1]
        out = (lo_best, hi_best)
        memo[key] = out
        return out

    best = _ZERO
    seen_any = False
    for s0 in _initial_states(P, spec, dom):
        seen_any = True
        lo, hi = value(step_bound, P.initial, tuple(sorted(s0.items())))
        best = (max(best[0], lo), max(best[1], hi))
    if not seen_any:
        pinned = dict(dom.ranges)
        unpinned = [v for v in _variables(P, spec)[0] if v not in pinned]
        if unpinned:
            ranges = ", ".join(f"{v}={DEFAULT_RANGE[0]}..{DEFAULT_RANGE[1]}" for v in unpinned)
            raise ValueError(
                f"no state in the domain satisfies the precondition; {ranges} "
                "took the default range: pin each to a range that meets the precondition"
            )
    return best
