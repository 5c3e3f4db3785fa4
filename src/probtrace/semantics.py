"""Trace-level semantics: execution, weights, backward transformers.

Two backward transformers live here and they differ only on assumptions:
``pre_exists`` conjoins the guard (states that *can* pass it), which is the
right reading for path conditions of individual traces; ``wp_demonic`` turns
the guard into a hypothesis (states that cannot slip past it into error),
which is the right reading for Hoare-triple validity.  On assumption-free
traces they coincide.

Every backward chain the verifier builds (path conditions, the propositions
of a violating trace's automaton, the rests of sequence interpolation) comes
from ``pre_exists_chain``, which walks the run's ``Solver.wp_memo``: the
same memo Hoare saturation fills, keyed by (label, formula) and hashed by
identity, so a step some earlier chain or automaton took builds no formula.
``pre_exists_trace`` stays the plain fold, for readers that must not share
the verifier's memo, such as counterexample validation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .cfa import Assign, Assume, Label, Pb
from .formula import (
    Formula,
    IntTerm,
    feval,
    fand,
    fimplies,
    fnot,
    subst_bool,
    subst_int,
)

State = Mapping[str, object]  # int or bool values


def weight(trace: Sequence[Label]) -> Fraction:
    n = sum(1 for lab in trace if isinstance(lab, Pb))
    return Fraction(1, 2**n)


def interpret_label(lab: Label, state: State) -> Optional[dict]:
    if isinstance(lab, Assign):
        new = dict(state)
        if isinstance(lab.expr, IntTerm):
            new[lab.var] = lab.expr.eval(state)
        else:
            new[lab.var] = feval(lab.expr, state)
        return new
    if isinstance(lab, Assume):
        return dict(state) if feval(lab.cond, state) else None
    return dict(state)  # skip, coins, nondeterministic tags


def interpret_trace(trace: Sequence[Label], state: State) -> Optional[dict]:
    cur: Optional[dict] = dict(state)
    for lab in trace:
        cur = interpret_label(lab, cur)
        if cur is None:
            return None
    return cur


def pre_exists(lab: Label, phi: Formula) -> Formula:
    """States from which `lab` is executable and leads into `phi`."""
    if isinstance(lab, Assign):
        if isinstance(lab.expr, IntTerm):
            return subst_int(phi, lab.var, lab.expr)
        return subst_bool(phi, lab.var, lab.expr)
    if isinstance(lab, Assume):
        return fand(lab.cond, phi)
    return phi


def wp_demonic(lab: Label, phi: Formula) -> Formula:
    """States from which every execution of `lab` (if any) lands in `phi`."""
    if isinstance(lab, Assume):
        return fimplies(lab.cond, phi)
    return pre_exists(lab, phi)


def pre_exists_trace(trace: Sequence[Label], phi: Formula) -> Formula:
    for lab in reversed(trace):
        phi = pre_exists(lab, phi)
    return phi


def pre_exists_chain(trace: Sequence[Label], phi: Formula, solver) -> list[Formula]:
    """Every suffix precondition of `trace`: entry k is
    ``pre_exists_trace(trace[k:], phi)``, so the first entry is the whole
    trace's and the last is `phi`.

    The walk runs backwards from `phi`: each label steps through
    ``solver.wp_memo``, which maps (label, formula) to ``pre_exists`` of
    the two, built only on a miss.  Labels and formulas are hash-consed, so
    a hit hashes by identity and builds no formula."""
    wp_memo = solver.wp_memo
    out = [phi]
    for lab in reversed(trace):
        w = wp_memo.get((lab, phi))
        if w is None:
            w = wp_memo[lab, phi] = pre_exists(lab, phi)
        phi = w
        out.append(phi)
    out.reverse()
    return out


def path_condition(trace: Sequence[Label], spec, solver) -> Formula:
    """Initial states satisfying the precondition from which the trace runs
    to completion and ends in violation of the postcondition.  The backward
    chain comes from ``pre_exists_chain``, so traces that share a suffix
    share its steps for the rest of the solver's run."""
    return fand(spec.pre, pre_exists_chain(trace, fnot(spec.post), solver)[0])


def classify(trace: Sequence[Label], spec, solver) -> Optional[Formula]:
    """The trace's path condition when it is satisfiable, so the trace
    violates the contract from those initial states; None otherwise."""
    pc = path_condition(trace, spec, solver)
    return pc if solver.is_sat(pc) else None


def hoare_valid(p: Formula, lab: Label, q: Formula, solver) -> bool:
    return not solver.is_sat(fand(p, pre_exists(lab, fnot(q))))
