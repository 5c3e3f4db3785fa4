"""Quantitative examination of a violating module.

Given a violating module (a CFMDP over-approximating the violating traces,
already intersected with the program), decide whether its violation mass is
at most the threshold, or extract a counterexample: a set of mutually
compatible violating traces whose shared precondition makes them all fire,
with total weight above the threshold.

The procedure mines traces in order of weight from the sub-CFMDP of
value-optimal actions, classifies each one, and accumulates either a
growing mainstream (compatible violating traces) or a certificate that the
current optimum cannot be realized (fake / incompatible mass); certificates
trigger erasures and a split of the initial-state space, and the loop
continues on the refined module.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .cfa import (
    PCFA,
    Label,
    Pb,
    action_of,
    difference_all,
    trace_tree,
    trim,
)
from .formula import TRUE, Formula, fand, fnot
from .hoare import FloydHoareAutomaton, generalize_nonviolating
from .markov import analyze_mdp, check_cfmdp, merge_traces
from .semantics import path_condition, pre_exists_trace, weight
from .solver import Solver

Trace = tuple[Label, ...]


# ---------------------------------------------------------------------------
# outcome types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Counterexample:
    traces: tuple[Trace, ...]
    error_pre: Formula
    total_vp: Fraction


@dataclass(frozen=True)
class Verified:
    upper_bound: Fraction


@dataclass(frozen=True)
class CounterexampleFound:
    counterexample: Counterexample


@dataclass(frozen=True)
class Certificate:
    """Fake/incompatible mass covering the gap between bound and threshold."""

    fakes: tuple[Trace, ...]
    incompatibles: tuple[Trace, ...]
    mass: Fraction


@dataclass(frozen=True)
class Exhausted:
    reason: str


ExamineOutcome = object  # Verified | CounterexampleFound | Exhausted


# ---------------------------------------------------------------------------
# strongest-evidence enumeration
# ---------------------------------------------------------------------------

def enumerate_by_weight(m: PCFA) -> Iterator[Trace]:
    """Accepted traces in non-increasing weight order; ties broken by length,
    then by the label order.  Best-first search; the stream may be infinite.

    Works for any CFMDP (in particular any CFMC): determinism makes partial
    traces identify unique paths, so the ordering is total.  Each entry
    carries its trace's ``trace_key``, extended by one ``label_key`` per
    push, so no two entries are keyed alike and the heap never compares
    past the key.
    """
    check_cfmdp(m)
    heap = [(0, 0, (), m.initial, ())]
    while heap:
        npb, length, key, loc, trace = heapq.heappop(heap)
        if loc == m.accepting:
            yield trace
            continue
        for lab, tgt in m.out_edges(loc):
            heapq.heappush(
                heap,
                (
                    npb + (1 if isinstance(lab, Pb) else 0),
                    length + 1,
                    key + (lab.sort_key,),
                    tgt,
                    trace + (lab,),
                ),
            )


# ---------------------------------------------------------------------------
# the examine loop
# ---------------------------------------------------------------------------

# the rounds one call of `examine` may take before it gives up
_ROUND_CAP = 64


@dataclass
class _Cell:
    """One compartment of the split initial-state space."""

    guard: Formula
    aut: PCFA
    mined: bool = False


def _erase_traces(aut: PCFA, traces: Sequence[Trace]) -> PCFA:
    """Remove the traces, complete traces of `aut` and so prefix-free, by
    one difference with their trace tree."""
    if not traces:
        return aut
    return difference_all(aut, [trace_tree(traces)])


def _optimal_subcfmdp(aut: PCFA, optimal_actions: dict) -> PCFA:
    keep = set()
    for s, lab, t in aut.transitions:
        acts = optimal_actions.get(s)
        if acts is None:
            continue
        if action_of(lab) in acts:
            keep.add((s, lab, t))
    return trim(PCFA(keep, aut.initial, aut.accepting))


def examine(
    a: PCFA,
    spec,
    beta: Fraction,
    solver: Solver,
    *,
    alphabet: Optional[Iterable[Label]] = None,
    trace_budget: int = 10_000,
    events: Optional[list] = None,
) -> tuple[ExamineOutcome, list[PCFA], list[FloydHoareAutomaton]]:
    """Decide the violating module quantitatively.

    The module may be any CFMDP: paired coin branches may share a target,
    since maximal reachability and the mined traces do not depend on it.
    Cells are kept as the products build them (the difference and erasures
    below are deterministic and trimmed) and never minimized: the bounds,
    optimal actions and mined traces depend only on the languages of the
    locations, which bisimilar copies share.

    Each round mines its cell's optimal sub-CFMDP trace by trace in order
    of weight and stops where the weight drops once the certificate mass
    covers the gap p - beta, at a counterexample, or at the trace budget.

    Returns (outcome, cells, certified non-violating automata).  The cells
    are the automata of the surviving compartments with guards stripped,
    and no union of them is built: erasures only ever remove words that
    are infeasible from the compartment's own initial states, so together
    they still cover every feasibly violating trace of the input and can
    stand in for the module in the outer covering check.  The returned
    Floyd-Hoare automata certify the fake traces found along the way; the
    caller should add them to the certified side.
    """
    if events is None:
        events = []
    sigma = frozenset(alphabet) if alphabet is not None else a.alphabet
    cells = [_Cell(spec.pre, a)]
    q_new: list[FloydHoareAutomaton] = []

    for round_no in range(1, _ROUND_CAP + 1):
        analyses = [analyze_mdp(c.aut) for c in cells]
        values = [r.bound for r in analyses]
        p = max(values, default=Fraction(0))
        if p <= beta:
            events.append(("verified", p))
            return Verified(p), [c.aut for c in cells], q_new

        pick_from = [i for i, c in enumerate(cells) if not c.mined and values[i] > beta]
        if not pick_from:
            pick_from = list(range(len(cells)))
        idx = max(pick_from, key=lambda i: (values[i], -i))
        cell, analysis = cells[idx], analyses[idx]
        events.append(("round", round_no, p, idx, cell.guard))

        sub = _optimal_subcfmdp(cell.aut, analysis.optimal_actions)
        mainstream_traces: list[Trace] = []
        mainstream_pcs: list[Formula] = []
        total_pre = fand(spec.pre, cell.guard)
        pc_core = TRUE  # conjunction of mainstream pcs
        mainstream_mass = Fraction(0)
        incompat: list[Trace] = []
        fakes: list[Trace] = []
        accum = Fraction(0)
        last: Optional[Fraction] = None

        for tr in itertools.islice(enumerate_by_weight(sub), trace_budget):
            w = weight(tr)
            if w != last and accum >= p - beta:
                break
            last = w
            pc = path_condition(tr, spec, solver)
            here = solver.is_sat(fand(cell.guard, pc))
            if (
                here
                and solver.is_sat(fand(total_pre, pc))
                and merge_traces(mainstream_traces + [tr]) is not None
            ):
                mainstream_traces.append(tr)
                mainstream_pcs.append(pc)
                total_pre = fand(total_pre, pc)
                pc_core = fand(pc_core, pc)
                mainstream_mass += w
                events.append(("mainstream", tr, pc, mainstream_mass))
                if mainstream_mass > beta:
                    cex = Counterexample(tuple(mainstream_traces), total_pre, mainstream_mass)
                    events.append(("counterexample", cex))
                    return CounterexampleFound(cex), [c.aut for c in cells], q_new
                continue
            accum += w
            if here or solver.is_sat(pc):  # violating, not with the mainstream
                incompat.append(tr)
                events.append(("incompatible", tr, pc, accum))
            else:
                fakes.append(tr)
                events.append(("fake", tr, accum))

        if accum < p - beta:
            reason = f"trace budget ({trace_budget}) exhausted in round {round_no}"
            events.append(("exhausted", reason))
            return Exhausted(reason), [c.aut for c in cells], q_new

        cert = Certificate(tuple(fakes), tuple(incompat), accum)
        events.append(("certificate", cert))

        # fake erasure: certify each fake's whole generalization and remove
        # its language from every compartment
        fresh_fhas: list[FloydHoareAutomaton] = []
        for tr in fakes:
            if any(f.base.accepts(tr) for f in q_new + fresh_fhas):
                continue
            fresh_fhas.append(generalize_nonviolating(tr, spec, sigma, solver))
        if fresh_fhas:
            q_new.extend(fresh_fhas)
            for c in cells:
                c.aut = difference_all(c.aut, [f.base for f in fresh_fhas])

        # split on the mainstream's shared precondition, erasing each trace
        # only from compartments whose states cannot run it; with no
        # mainstream the shared precondition is TRUE, so the mined cell
        # keeps the guard and the other one is empty
        if mainstream_traces:
            events.append(("split", pc_core))
        mined_aut = _erase_traces(cell.aut, incompat)
        new_cells = [_Cell(fand(cell.guard, pc_core), mined_aut, mined=True)]
        other_guard = fand(cell.guard, fnot(pc_core))
        if solver.is_sat(other_guard):
            erasable = [
                tr
                for tr, pc in zip(mainstream_traces, mainstream_pcs)
                if not solver.is_sat(fand(other_guard, pc))
            ]
            new_cells.append(_Cell(other_guard, _erase_traces(cell.aut, erasable)))
        cells[idx : idx + 1] = new_cells

    reason = f"round cap ({_ROUND_CAP}) exhausted"
    events.append(("exhausted", reason))
    return Exhausted(reason), [c.aut for c in cells], q_new


# ---------------------------------------------------------------------------
# counterexample validation
# ---------------------------------------------------------------------------

def validate_counterexample(
    p: PCFA, spec, beta: Fraction, cex: Counterexample, solver: Solver
) -> tuple[bool, list[str]]:
    """Re-check every defining property of a counterexample; on failure the
    reasons list says which ones broke."""
    reasons: list[str] = []
    if not solver.is_sat(cex.error_pre):
        reasons.append("error precondition unsatisfiable")
    if not solver.entails(cex.error_pre, spec.pre):
        reasons.append("error precondition does not entail the precondition")
    total = sum((weight(tr) for tr in cex.traces), Fraction(0))
    if total != cex.total_vp:
        reasons.append(f"stated probability {cex.total_vp} != recomputed {total}")
    if not cex.total_vp > beta:
        reasons.append(f"total probability {cex.total_vp} not above {beta}")
    if merge_traces(cex.traces) is None:
        reasons.append("trace set is not mergeable into one structure")
    for i, tr in enumerate(cex.traces):
        if not p.accepts(tr):
            reasons.append(f"trace {i} is not a program trace")
        cond = pre_exists_trace(tr, fnot(spec.post))
        if not solver.entails(cex.error_pre, cond):
            reasons.append(f"trace {i} not violating under the error precondition")
    return (not reasons, reasons)
