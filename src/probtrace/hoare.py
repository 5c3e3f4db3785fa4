"""Floyd-Hoare automata: generalizing single traces into certified languages.

A Floyd-Hoare automaton pairs a plain labelled automaton with a proposition
per location such that every edge (l, sigma, l') is a valid Hoare triple
{lam(l)} sigma {lam(l')}.  Generalization turns one trace into such an
automaton in two phases: proposition insertion along the trace, with one
location per distinct proposition, and edge saturation.  Which of the two
generalizers applies is what ``classify`` returns: None for a trace that
satisfies the contract, its error precondition for one that violates it.

Propositions come from the formula smart constructors, which build canonical
formulas, so the chain compares them as built.  Saturation adds every valid
edge but asks the solver once per distinct weakest precondition: for a
target t, skip, coin and nondeterministic labels, and assignments to
variables lam(t) does not mention, all leave !lam(t) unchanged and share one
query per source.  Propositions recur across the automata of one run (pre,
post, false, repeated interpolants), so the solver memoizes weakest
preconditions and triples for the run, keyed by the hash-consed formulas and
labels themselves, so a lookup hashes by identity.  Most candidate triples
fail, and the solver keeps the model of every sat answer as a witness state:
a triple whose source proposition and weakest precondition both hold in one
witness fails without a query.  Which witnesses a formula holds in comes
from ``Solver.holds``, a bitset kept for the run, so each formula is
evaluated on each witness at most once.  Negations of propositions come
from `fnot`, which the run's formula memo answers after the first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cfa import PCFA, Label, label_key
from .formula import FALSE, Formula, fand, fnot
from .semantics import classify, hoare_valid, pre_exists, pre_exists_chain
from .solver import Solver, sequence_interpolants


@dataclass(frozen=True, eq=False)
class FloydHoareAutomaton:
    base: PCFA
    lam: dict  # location -> Formula


def check_floyd_hoare(fha: FloydHoareAutomaton, solver: Solver) -> bool:
    """Re-verify the defining invariant on every edge."""
    if set(fha.lam) != set(fha.base.locations):
        return False
    return all(
        hoare_valid(fha.lam[s], lab, fha.lam[t], solver)
        for s, lab, t in fha.base.transitions
    )


def _chain(props: Sequence[Formula], labels: Sequence[Label]) -> FloydHoareAutomaton:
    """The trace `labels` with `props` at its positions, one location per
    distinct proposition, numbered in order of first occurrence: positions
    whose propositions are syntactically equal share a location.  Preserves
    every accepted trace (may add more)."""
    num: dict[Formula, int] = {}
    locs = [num.setdefault(f, len(num)) for f in props]
    base = PCFA(
        {(locs[k], lab, locs[k + 1]) for k, lab in enumerate(labels)},
        initial=locs[0],
        accepting=locs[-1],
    )
    return FloydHoareAutomaton(base, {loc: f for f, loc in num.items()})


def saturate_edges(
    fha: FloydHoareAutomaton, alphabet: Iterable[Label], solver: Solver
) -> FloydHoareAutomaton:
    """Add every edge (l, sigma, l') whose Hoare triple holds.  Idempotent.

    The triple {lam(s)} sigma {lam(t)} fails exactly when
    lam(s) && pre_exists(sigma, !lam(t)) is satisfiable.  For each target t
    the labels are grouped by that weakest precondition w, so each (s, w)
    pair is one query, asked only while one of its edges is missing; when it
    is unsat, every missing edge of the group is added.  Validity of a triple
    does not depend on which edges already exist, so the edge set is the one
    checking each triple on its own would give.

    ``solver.wp_memo`` and ``solver.triple_memo`` are keyed by the
    hash-consed propositions and labels, so a lookup hashes by identity,
    and last for the solver's lifetime: a weakest precondition or triple
    seen in an earlier automaton builds no formula and asks nothing.  The
    negation of each target comes from `fnot`, which the run's memo answers
    after its first call.

    Before asking about a new pair, the witnesses in ``solver.witnesses``
    are tried: ``solver.holds`` gives the witnesses lam(s) and w each hold
    in as a bitset, so each formula meets each witness once per run.  A
    witness in both sets satisfies lam(s) && w, so the pair is memoized as
    failing with no conjunction built and no query asked.  Only pairs no
    witness refutes reach ``solver.is_sat``, whose sat answers add witnesses
    in turn.
    """
    labels = sorted(set(alphabet) | set(fha.base.alphabet), key=label_key)
    trans = set(fha.base.transitions)
    locs = sorted(fha.base.locations)
    holds, wp_memo, triple_memo = solver.holds, solver.wp_memo, solver.triple_memo
    for t in locs:
        q = fnot(fha.lam[t])
        groups: dict[Formula, list[Label]] = {}
        for a in labels:
            w = wp_memo.get((a, q))
            if w is None:
                w = wp_memo[a, q] = pre_exists(a, q)
            groups.setdefault(w, []).append(a)
        for s in locs:
            p = fha.lam[s]
            for w, group in groups.items():
                missing = [(s, a, t) for a in group if (s, a, t) not in trans]
                if not missing:
                    continue
                valid = triple_memo.get((p, w))
                if valid is None:
                    if holds(p) & holds(w):
                        solver.witness_refutations += 1
                        valid = triple_memo[p, w] = False
                    else:
                        valid = triple_memo[p, w] = not solver.is_sat(fand(p, w))
                if valid:
                    trans.update(missing)
    base = PCFA(trans, fha.base.initial, fha.base.accepting, fha.base.locations)
    return FloydHoareAutomaton(base, dict(fha.lam))


def generalize_nonviolating(
    trace: Sequence[Label],
    spec,
    alphabet: Iterable[Label],
    solver: Solver,
) -> FloydHoareAutomaton:
    """Generalize a trace that satisfies the contract into an automaton all
    of whose accepted traces satisfy it.

    Head proposition is the precondition; interior propositions come from
    sequence interpolation, weakened against the rest of the trace; the
    accepting proposition is False when the final step cannot run from the
    weakened last interior, otherwise the postcondition.  Interpolation
    weakens an infeasible trace's chain against its own infeasibility, so a
    forward chain gives False exactly for infeasible traces.
    """
    if classify(trace, spec, solver) is not None:
        raise ValueError("trace does not satisfy the contract")
    labels = list(trace)
    head = spec.pre
    if not labels:
        return saturate_edges(_chain([head], []), alphabet, solver)
    interiors = sequence_interpolants(solver, spec.pre, labels, fnot(spec.post))
    last = interiors[-1] if interiors else head
    if hoare_valid(last, labels[-1], FALSE, solver):
        acc = FALSE
    else:
        acc = spec.post
    props = [head] + interiors + [acc]
    return saturate_edges(_chain(props, labels), alphabet, solver)


def generalize_violating(
    trace: Sequence[Label],
    spec,
    alphabet: Iterable[Label],
    solver: Solver,
) -> FloydHoareAutomaton:
    """Generalize a violating trace.  Propositions are backward existential
    preconditions of the negated postcondition, so the head equals the
    trace's violation precondition exactly.  Accepted traces need not all be
    violating; only the per-edge Hoare invariant is promised.

    The propositions are the trace's ``pre_exists_chain``, the chain
    ``classify`` has just walked for the path condition, so every step is
    a hit in ``solver.wp_memo``; the head is the path condition
    ``classify`` returns.
    """
    error_pre = classify(trace, spec, solver)
    if error_pre is None:
        raise ValueError("trace does not violate the contract")
    labels = list(trace)
    props = pre_exists_chain(labels, fnot(spec.post), solver)
    props[0] = error_pre
    return saturate_edges(_chain(props, labels), alphabet, solver)
