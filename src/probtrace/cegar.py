"""Top-level verification loops and decomposition certificates.

The main loop maintains two tracked objects: a growing list of certified
Floyd-Hoare automata (languages proven to satisfy the contract) and a
violating module (the automata of candidate violating traces whose
violation mass the examination loop has bounded).  Each iteration either
declares the program covered — yielding a certified upper bound — or picks
the shortest uncovered trace and dispatches on its classification.  Both
loops keep the uncovered language between iterations and narrow it only by
what the last iteration certified (or, in the refutational variant, found);
the violating module, which examination may shrink, is searched past at
each pick.

The refutational variant never generalizes violating traces: it keeps them
verbatim in a repository, so that a genuinely violated contract is always
eventually refuted, at the price of possible divergence on satisfied ones.

Certificate files (see ``dump_certificate``) bundle the certified automata
with their propositions, the violating module, and the threshold, in a
line-oriented text format:

    beta 1/2

    module A
    initial 0
    accepting 2
    edge 0 1 X := 0
    edge 1 2 sigma
    edge 2 2 sigma \\ {X := X + 1; skip}

    hoare Q1
    initial 0
    accepting 1
    prop 0 true
    prop 1 X = 0
    edge 0 1 X := 0

``sigma`` in an edge's label position stands for every label of the
program's alphabet; ``sigma \\ {...}`` excludes the ``;``-separated labels
listed in the braces.  ``#`` and ``//`` start comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cfa import (
    PCFA,
    _to_pcfa,
    difference_all,
    difference_nfa,
    empty_pcfa,
    intersect,
    label_key,
    nfa_is_empty,
    nfa_shortest,
    trace_tree,
)
from .evidence import (
    Counterexample,
    CounterexampleFound,
    Verified,
    examine,
    validate_counterexample,
)
from .formula import Formula, fand
from .hoare import FloydHoareAutomaton, check_floyd_hoare, generalize_nonviolating, generalize_violating
from .lang import ParseError, parse_formula, parse_label, to_pcfa
from .markov import analyze_mdp, merge_traces
from .semantics import classify, weight
from .solver import Solver, SolverUnknown


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sat:
    upper_bound: Fraction
    iterations: int


@dataclass(frozen=True)
class Unsat:
    counterexample: Counterexample
    iterations: int


@dataclass(frozen=True)
class Inconclusive:
    reason: str
    iterations: int


Verdict = object  # Sat | Unsat | Inconclusive


def _checked(p: PCFA, spec, beta: Fraction, cex: Counterexample, solver: Solver) -> Counterexample:
    ok, reasons = validate_counterexample(p, spec, beta, cex, solver)
    if not ok:
        raise RuntimeError(
            "internal error: counterexample failed validation: " + "; ".join(reasons)
        )
    return cex


# ---------------------------------------------------------------------------
# the main loop
# ---------------------------------------------------------------------------

def verify(
    p: PCFA,
    spec,
    beta: Optional[Fraction] = None,
    solver: Optional[Solver] = None,
    *,
    max_iters: int = 500,
    trace_budget: int = 10_000,
    events: Optional[list] = None,
) -> Verdict:
    """Decide whether the probability of violating the contract is at most
    the threshold: Sat carries a certified upper bound, Unsat a validated
    counterexample, Inconclusive an honest resource/decidability report."""
    solver = solver or Solver()
    beta = spec.beta if beta is None else beta
    if events is None:
        events = []
    sigma = p.alphabet
    residual = difference_nfa(p, [])  # L(P) less every base certified so far
    fresh: list[PCFA] = []  # bases certified since the last pick
    module: list[PCFA] = []  # the violating module: examine's cells, once it has bounded one
    last_bound = Fraction(0)
    iters = 0
    try:
        with solver.run():
            while iters < max_iters:
                if fresh:
                    residual, fresh = difference_nfa(residual, fresh), []
                # examine's erasures can drop words from the module, so it is
                # searched past at each pick and never kept in the residual
                tau = nfa_shortest(residual, module)
                if tau is None:
                    events.append(("sat", last_bound))
                    return Sat(last_bound, iters)
                iters += 1
                events.append(("pick", iters, tau))
                error_pre = classify(tau, spec, solver)
                if error_pre is None:
                    fresh.append(generalize_nonviolating(tau, spec, sigma, solver).base)
                    continue
                w = weight(tau)
                if w > beta:
                    cex = Counterexample((tuple(tau),), error_pre, w)
                    events.append(("counterexample", cex))
                    return Unsat(_checked(p, spec, beta, cex, solver), iters)
                gv = generalize_violating(tau, spec, sigma, solver)
                outcome, cells, new_q = examine(
                    intersect(p, *module, gv.base),
                    spec,
                    beta,
                    solver,
                    alphabet=sigma,
                    trace_budget=trace_budget,
                    events=events,
                )
                fresh.extend(q.base for q in new_q)
                if isinstance(outcome, Verified):
                    module = cells
                    last_bound = outcome.upper_bound
                    continue
                if isinstance(outcome, CounterexampleFound):
                    cex = outcome.counterexample
                    return Unsat(_checked(p, spec, beta, cex, solver), iters)
                return Inconclusive(outcome.reason, iters)
            return Inconclusive(f"iteration cap ({max_iters}) reached", iters)
    except SolverUnknown as exc:
        return Inconclusive(f"solver gave up: {exc}", iters)


# ---------------------------------------------------------------------------
# refutationally complete variant
# ---------------------------------------------------------------------------

def _greedy_counterexample(
    found: list[tuple[tuple, Formula]], beta: Fraction, solver: Solver
) -> Optional[Counterexample]:
    """Best-effort compatible subset with mass above the threshold: anchor on
    each found trace in turn and greedily add compatible, mergeable traces in
    weight order."""
    order = sorted(found, key=lambda fp: (-weight(fp[0]), len(fp[0])))
    for i, (anchor, anchor_pc) in enumerate(order):
        traces = [anchor]
        pre = anchor_pc
        mass = weight(anchor)
        if mass > beta:
            return Counterexample((tuple(anchor),), pre, mass)
        for j, (tr, pc) in enumerate(order):
            if j == i:
                continue
            joint = fand(pre, pc)
            if not solver.is_sat(joint):
                continue
            if merge_traces(traces + [tr]) is None:
                continue
            traces.append(tr)
            pre = joint
            mass += weight(tr)
            if mass > beta:
                return Counterexample(tuple(tuple(t) for t in traces), pre, mass)
    return None


def verify_refutational(
    p: PCFA,
    spec,
    beta: Optional[Fraction] = None,
    solver: Optional[Solver] = None,
    *,
    max_iters: int = 500,
    events: Optional[list] = None,
) -> Verdict:
    """Variant that keeps every violating trace verbatim: complete for
    refutation (a violated contract is eventually refuted) but may diverge
    on satisfied ones, reported honestly via the iteration cap.

    Each iteration bounds the residual by policy iteration only when that
    bound could still answer Sat: when the residual is empty, or when the
    found mass plus the weight of its shortest trace tau is at most beta.
    Any other time the bound is above beta anyway, since it is at least
    that sum, so skipping it changes no verdict, iteration or event."""
    solver = solver or Solver()
    beta = spec.beta if beta is None else beta
    if events is None:
        events = []
    sigma = p.alphabet
    found: list[tuple[tuple, Formula]] = []
    found_mass = Fraction(0)
    # L(P) less every base certified and every trace found so far: neither
    # is ever taken back, so each pick subtracts only what the last one added
    uncovered = difference_nfa(p, [])
    fresh: list[PCFA] = []
    iters = 0
    try:
        with solver.run():
            while iters < max_iters:
                if fresh:
                    uncovered, fresh = difference_nfa(uncovered, fresh), []
                tau = nfa_shortest(uncovered)
                # the bound is at least found_mass + weight(tau), since a
                # scheduler can follow tau: past beta, it cannot answer Sat
                if tau is None or found_mass + weight(tau) <= beta:
                    bound = analyze_mdp(_to_pcfa(uncovered)).bound + found_mass
                    if bound <= beta:
                        events.append(("sat", bound))
                        return Sat(bound, iters)
                    if tau is None:
                        return Inconclusive(
                            "all traces classified, but the found violating traces are "
                            "not jointly realizable above the threshold",
                            iters,
                        )
                iters += 1
                events.append(("pick", iters, tau))
                error_pre = classify(tau, spec, solver)
                if error_pre is None:
                    fresh.append(generalize_nonviolating(tau, spec, sigma, solver).base)
                    continue
                found.append((tuple(tau), error_pre))
                found_mass += weight(tau)
                cex = _greedy_counterexample(found, beta, solver)
                if cex is not None:
                    events.append(("counterexample", cex))
                    return Unsat(_checked(p, spec, beta, cex, solver), iters)
                fresh.append(trace_tree([tau]))
            return Inconclusive(f"iteration cap ({max_iters}) reached", iters)
    except SolverUnknown as exc:
        return Inconclusive(f"solver gave up: {exc}", iters)


# ---------------------------------------------------------------------------
# decomposition checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certified:
    upper_bound: Fraction


@dataclass(frozen=True)
class Rejected:
    reason: str


def check_decomposition(
    p: PCFA,
    spec,
    beta: Fraction,
    qs: Sequence[FloydHoareAutomaton],
    a: Optional[PCFA],
    solver: Optional[Solver] = None,
):
    """Check a claimed decomposition directly against the proof rule: every
    certified component is a valid Floyd-Hoare automaton for the contract,
    the components and the violating module jointly cover the program, and
    the module's residual violation mass stays within the threshold.  A
    missing module (a certificate without a ``module`` section) is the
    empty one, whose mass is 0."""
    solver = solver or Solver()
    a = empty_pcfa() if a is None else a
    try:
        with solver.run():
            for i, q in enumerate(qs):
                if not check_floyd_hoare(q, solver):
                    return Rejected(f"component {i}: an edge is not Hoare-valid")
                head = q.lam[q.base.initial]
                if not solver.entails(spec.pre, head):
                    return Rejected(
                        f"component {i}: initial proposition not implied by the precondition"
                    )
                accp = q.lam[q.base.accepting]
                if solver.is_sat(accp) and not solver.entails(accp, spec.post):
                    return Rejected(
                        f"component {i}: accepting proposition satisfiable "
                        "but not implying the postcondition"
                    )
            bases = [q.base for q in qs]
            if not nfa_is_empty(difference_nfa(p, bases + [a])):
                return Rejected("program traces escape the certified union")
            residual = difference_all(a, bases) if bases else a
            bound = analyze_mdp(intersect(residual, p)).bound
            if bound <= beta:
                return Certified(bound)
            return Rejected(f"violating mass bound {bound} exceeds threshold {beta}")
    except SolverUnknown as exc:
        return Rejected(f"solver gave up: {exc}")


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

def dump_certificate(
    beta: Optional[Fraction],
    a: Optional[PCFA],
    qs: Sequence[FloydHoareAutomaton],
) -> str:
    lines: list[str] = []
    if beta is not None:
        lines.append(f"beta {beta.numerator}/{beta.denominator}")
        lines.append("")
    if a is not None:
        lines.append("module A")
        lines.append(f"initial {a.initial}")
        lines.append(f"accepting {a.accepting}")
        for s, lab, t in sorted(a.transitions, key=lambda e: (e[0], label_key(e[1]), e[2])):
            lines.append(f"edge {s} {t} {lab}")
        lines.append("")
    for i, q in enumerate(qs):
        lines.append(f"hoare Q{i + 1}")
        lines.append(f"initial {q.base.initial}")
        lines.append(f"accepting {q.base.accepting}")
        for loc in sorted(q.lam):
            lines.append(f"prop {loc} {q.lam[loc]}")
        for s, lab, t in sorted(
            q.base.transitions, key=lambda e: (e[0], label_key(e[1]), e[2])
        ):
            lines.append(f"edge {s} {t} {lab}")
        lines.append("")
    return "\n".join(lines)


def _parse_edge_label(text: str, sorts, alphabet) -> list:
    s = text.strip()
    if s == "sigma":
        return sorted(alphabet, key=label_key)
    if s.startswith("sigma"):
        rest = s[len("sigma"):].strip()
        if rest.startswith("\\") :
            rest = rest[1:].strip()
            if not (rest.startswith("{") and rest.endswith("}")):
                raise ParseError(f"malformed label set in {text!r}")
            excluded = {
                parse_label(part, sorts)
                for part in rest[1:-1].split(";")
                if part.strip()
            }
            return sorted(set(alphabet) - excluded, key=label_key)
        raise ParseError(f"cannot parse label {text!r}")
    return [parse_label(s, sorts)]


def load_certificate(
    text: str, program
) -> tuple[Optional[Fraction], Optional[PCFA], list[FloydHoareAutomaton]]:
    """Parse a certificate bundle against a program: the program supplies the
    variable sorts and the alphabet that ``sigma`` edges expand over."""
    sorts = dict(program.declarations)
    alphabet = to_pcfa(program).alphabet

    beta: Optional[Fraction] = None
    a: Optional[PCFA] = None
    qs: list[FloydHoareAutomaton] = []
    section: Optional[dict] = None
    sections: list[dict] = []

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split("//", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "beta":
            num, _, den = rest.partition("/")
            try:
                beta = Fraction(int(num), int(den) if den else 1)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad certificate beta {rest!r}") from exc
            if not 0 <= beta <= 1:
                raise ParseError(f"certificate beta {beta} is outside [0,1]")
        elif word in ("module", "hoare"):
            section = {"kind": word, "name": rest, "trans": set(), "props": {},
                       "initial": None, "accepting": None}
            sections.append(section)
        elif section is None:
            raise ParseError(f"certificate line outside any section: {line!r}")
        elif word == "initial":
            section["initial"] = int(rest)
        elif word == "accepting":
            section["accepting"] = int(rest)
        elif word == "prop":
            loc, _, f = rest.partition(" ")
            section["props"][int(loc)] = parse_formula(f, sorts)
        elif word == "edge":
            src, _, rest2 = rest.partition(" ")
            dst, _, lab_text = rest2.partition(" ")
            for lab in _parse_edge_label(lab_text, sorts, alphabet):
                section["trans"].add((int(src), lab, int(dst)))
        else:
            raise ParseError(f"unknown certificate directive {word!r}")

    for sec in sections:
        if sec["initial"] is None or sec["accepting"] is None:
            raise ParseError(f"section {sec['name']!r} lacks initial/accepting")
        base = PCFA(sec["trans"], sec["initial"], sec["accepting"])
        if sec["kind"] == "module":
            if a is not None:
                raise ParseError("multiple module sections")
            a = base
        else:
            lam = {loc: sec["props"].get(loc) for loc in base.locations}
            missing = [loc for loc, f in lam.items() if f is None]
            if missing:
                raise ParseError(
                    f"section {sec['name']!r} lacks propositions for {missing}"
                )
            qs.append(FloydHoareAutomaton(base, lam))
    return beta, a, qs
