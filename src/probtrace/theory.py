"""The paper's constructions on automata and CFMDPs that the verifier does
not run.

The verifier needs only the maximal-reachability bound of a violating
module, which `markov.analyze_mdp` computes on the deterministic, trimmed
automata the subset construction builds.  This module holds the results the
paper's proofs rest on: emptiness of a whole automaton, determinization and
minimization; the appendix procedure that normalizes a CFMDP, so that paired
probabilistic branches target distinct locations; finite-memory strategies,
their application to a CFMDP, and the strategy that carves a given sub-CFMC
out of a normalized CFMDP; and `mdp_upper_bound`, the bound paired with a
memoryless optimal strategy.

Acceptance criteria 5-7 and the tests check these constructions against
the verifier's own code.  No verifier module (`cegar`, `evidence`, `hoare`,
`markov`, `cfa`, `semantics`, `solver`, `formula`) imports this one, and
`tests/test_source.py` holds them to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cfa import (
    PCFA,
    Label,
    Pb,
    _nfa_of,
    _nfa_trim,
    _reach,
    _subset_product,
    _to_pcfa,
    actions_at,
    difference_nfa,
    empty_pcfa,
    nfa_is_empty,
    trim,
)
from .markov import analyze_mdp, check_cfmdp


# ---------------------------------------------------------------------------
# emptiness, determinization, minimization
# ---------------------------------------------------------------------------

def is_empty(a: PCFA) -> bool:
    succ = {s: [t for _, t in a.out_edges(s)] for s in a.locations}
    return a.accepting not in _reach({a.initial}, succ)


def determinize(a: PCFA) -> PCFA:
    if a.is_deterministic():
        return trim(a)
    return _to_pcfa(_nfa_trim(_subset_product(_nfa_of(trim(a)), [], lambda x, y: x)))


def minimize(a: PCFA) -> PCFA:
    """Language-preserving state minimization (Moore refinement on the
    determinized, trimmed automaton).

    Refinement uses sparse signatures: a state's class plus the
    (label index, target class) pairs of its own edges, labels numbered once
    per call.  On a deterministic automaton two states agree on these exactly
    when they agree on every label of the alphabet, a missing edge included.
    Should determinization leave a label twice at a state (a language that is
    not prefix-free), the classes still form a bisimulation, so the quotient
    keeps the language."""
    a = determinize(a)
    if is_empty(a):
        return empty_pcfa()
    index: dict[Label, int] = {}
    states = sorted(a.locations)
    # class 0: non-accepting, class 1: accepting
    cls = {s: (1 if s == a.accepting else 0) for s in states}
    adj: dict[int, list[tuple[int, int]]] = {s: [] for s in states}
    for s, lab, t in a.transitions:
        adj[s].append((index.setdefault(lab, len(index)), t))
    for edges in adj.values():
        edges.sort()
    while True:
        sig = {s: (cls[s], tuple([(i, cls[t]) for i, t in adj[s]])) for s in states}
        mapping: dict[tuple, int] = {}
        new_cls = {}
        for s in states:
            if sig[s] not in mapping:
                mapping[sig[s]] = len(mapping)
            new_cls[s] = mapping[sig[s]]
        if new_cls == cls:
            break
        cls = new_cls
    trans = {(cls[s], lab, cls[t]) for s, lab, t in a.transitions}
    out = PCFA(trans, cls[a.initial], cls[a.accepting])
    return trim(out).renumber()


# ---------------------------------------------------------------------------
# normalization (distinct targets for paired probabilistic branches)
# ---------------------------------------------------------------------------

def _pb_pairs(a: PCFA):
    """(loc, pid, L-target, R-target) for every paired coin at a location."""
    out = []
    for loc in sorted(a.locations):
        here = actions_at(a, loc)
        for pid in sorted(act for act in here if isinstance(act, int)):
            sides = here[pid]
            if "L" in sides and "R" in sides:
                out.append((loc, pid, sides["L"], sides["R"]))
    return out


def is_normalized(a: PCFA) -> bool:
    return all(lt != rt for _, _, lt, rt in _pb_pairs(a))


def normalize(a: PCFA) -> PCFA:
    """Appendix procedure: first rewrite self-loop coin pairs (case 1), then
    duplicate shared non-self targets (case 2) until none remain.

    Only the strategy constructions (``strategy_for_sublanguage`` below)
    need a normalized CFMDP; the verifier never calls this."""
    if not a.is_cfmdp():
        raise ValueError("normalize expects a CFMDP")
    trans = set(a.transitions)
    next_loc = max(a.locations, default=0) + 1

    def out_of(loc: int) -> list[tuple[Label, int]]:
        return [(lab, t) for s, lab, t in trans if s == loc]

    # case 1: both branches loop back to their origin
    while True:
        hit = None
        for loc, pid, lt, rt in _pb_pairs(PCFA(trans, a.initial, a.accepting)):
            if lt == rt == loc:
                hit = (loc, pid)
                break
        if hit is None:
            break
        loc, pid = hit
        l1, l2 = next_loc, next_loc + 1
        next_loc += 2
        pl, pr = Pb(pid, "L"), Pb(pid, "R")
        trans.discard((loc, pl, loc))
        trans.discard((loc, pr, loc))
        others = [(lab, t) for lab, t in out_of(loc)]
        trans |= {
            (loc, pl, l1),
            (loc, pr, l2),
            (l1, pr, l2),
            (l1, pl, loc),
            (l2, pr, loc),
            (l2, pl, l1),
        }
        for lab, t in others:
            trans.add((l1, lab, t))
            trans.add((l2, lab, t))

    # case 2: both branches reach the same non-origin location
    guard = 0
    while True:
        guard += 1
        if guard > 10_000:
            raise RuntimeError("normalization did not converge")
        cur = PCFA(trans, a.initial, a.accepting)
        hit = None
        for loc, pid, lt, rt in _pb_pairs(cur):
            if lt == rt and lt != loc:
                hit = (loc, pid, lt)
                break
        if hit is None:
            break
        loc, pid, tgt = hit
        if tgt == a.accepting:
            raise ValueError(
                "cannot normalize a coin pair that enters the accepting "
                "location directly (not produced by program automata)"
            )
        dup = next_loc
        next_loc += 1
        trans.discard((loc, Pb(pid, "R"), tgt))
        trans.add((loc, Pb(pid, "R"), dup))
        for lab, t in cur.out_edges(tgt):
            trans.add((dup, lab, t))

    out = PCFA(trans, a.initial, a.accepting)
    return trim(out).renumber()


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@dataclass
class Strategy:
    """Finite-memory strategy: partial map (location, memory) -> (action, memory).

    `dead` holds the (location, memory) pairs where the play is dropped: a
    branch entering one of them is cut even when it enters the accepting
    location.  It defaults to empty, so a strategy without it only stops
    where `delta` has no entry.
    """

    delta: dict  # (loc, q) -> (Action, q')
    q0: object
    dead: frozenset = frozenset()  # {(loc, q)}


def memoryless(policy: dict) -> Strategy:
    """Lift a location -> action map to a single-memory-state strategy."""
    return Strategy({(loc, 0): (act, 0) for loc, act in policy.items()}, 0)


def apply_strategy(a: PCFA, psi: Strategy) -> PCFA:
    """Product of a CFMDP with a strategy, with a fresh accepting location.

    An edge survives when its target is live, so paired coin branches
    survive together only when both targets are live; a branch whose partner
    is missing or dead is kept alone (the run then carries the stuck
    partner's mass away).  A (location, memory) pair is live when it is not
    in the strategy's `dead` set and either the strategy continues there or
    the location is the CFMDP's accepting one — acceptance ends the play, so
    no strategy entry can be demanded for it.
    """
    check_cfmdp(a)
    if a.initial == a.accepting:
        raise ValueError("cannot apply a strategy to an automaton accepting ε")

    def live(loc: int, q) -> bool:
        if (loc, q) in psi.dead:
            return False
        return loc == a.accepting or (loc, q) in psi.delta

    index: dict = {}
    fresh = [0]

    def state_id(loc: int, q) -> int:
        # T transform: every entry into the old accepting location lands in
        # one shared new accepting location
        key = "acc" if loc == a.accepting else (loc, q)
        if key not in index:
            index[key] = fresh[0]
            fresh[0] += 1
        return index[key]

    init = state_id(a.initial, psi.q0)
    acc = state_id(a.accepting, None)
    trans: set[tuple[int, Label, int]] = set()
    todo = [(a.initial, psi.q0)]
    seen = {(a.initial, psi.q0)}
    while todo:
        loc, q = todo.pop()
        entry = psi.delta.get((loc, q))
        if entry is None:
            continue
        act, q2 = entry
        here = actions_at(a, loc)
        if isinstance(act, int):
            sides = here.get(act)
            if not isinstance(sides, dict):
                raise ValueError(f"strategy plays coin {act} not present at {loc}")
            steps = [(Pb(act, side), tgt) for side, tgt in sides.items()]
        else:
            tgt = here.get(act)
            if tgt is None or isinstance(tgt, dict):
                raise ValueError(f"strategy plays label {act} not present at {loc}")
            steps = [(act, tgt)]
        for lab, tgt in steps:
            if not live(tgt, q2):
                continue
            trans.add((state_id(loc, q), lab, state_id(tgt, q2)))
            if tgt != a.accepting and (tgt, q2) not in seen:
                seen.add((tgt, q2))
                todo.append((tgt, q2))

    out = trim(PCFA(trans, init, acc))
    assert out.is_cfmc(), "strategy application must yield a CFMC"
    return out


# ---------------------------------------------------------------------------
# a strategy carving a sub-CFMC out of a normalized CFMDP
# ---------------------------------------------------------------------------

_BOT = None  # dummy symbol outside both location sets


def strategy_for_sublanguage(a: PCFA, m: PCFA) -> Strategy:
    """Build a strategy on `a` whose application accepts exactly L(m).

    Memory states are m's locations plus resolver states ("dual", T, l2, l3):
    after playing coin i, the strategy cannot know which branch the coin
    took, so the resolver compares the actual location against T — the
    target a's L-branch had — and continues with l2 on the L side, l3 on
    the R side.  A side m does not contain resolves to ⊥ there; the search
    records each such (location, memory) pair in the strategy's `dead` set,
    so the side goes dead in `apply_strategy` even where it enters the
    accepting location.  Normalization of `a` (paired branches reach
    distinct locations) is what makes the comparison against T unambiguous.
    """
    check_cfmdp(a)
    if not m.is_cfmc():
        raise ValueError("the sublanguage argument must be a CFMC")
    if not is_normalized(a):
        raise ValueError("strategy construction needs a normalized CFMDP")
    if not nfa_is_empty(difference_nfa(m, [a])):
        raise ValueError("the CFMC's language is not a sublanguage")

    def m_step(loc_m: int):
        """m's unique action at loc_m: (kind, payload)."""
        acts = actions_at(m, loc_m)
        if not acts:
            return None
        (act, payload), = acts.items()
        return act, payload

    def delta_minus(loc_a: int, loc_m: int):
        step = m_step(loc_m)
        if step is None:
            return None
        act, payload = step
        if not isinstance(act, int):
            return (act, payload)  # (label, next m-location)
        sides = payload  # {side: m-target}
        a_sides = actions_at(a, loc_a).get(act)
        l_target = a_sides.get("L") if isinstance(a_sides, dict) else None
        t = l_target if l_target is not None else _BOT
        l2 = sides.get("L", _BOT)
        l3 = sides.get("R", _BOT)
        return (act, ("dual", t, l2, l3))

    def resolve(loc_a: int, q):
        """The m-location a memory state stands for at an actual a-location."""
        if isinstance(q, tuple) and q and q[0] == "dual":
            _, t, l2, l3 = q
            if loc_a == t:
                return l2  # may be ⊥: this side is not in m
            return l3
        return q

    delta: dict = {}
    dead: set = set()
    q0 = m.initial
    todo = [(a.initial, q0)]
    seen = {(a.initial, q0)}
    while todo:
        loc_a, q = todo.pop()
        loc_m = resolve(loc_a, q)
        if loc_m is _BOT:
            dead.add((loc_a, q))
            continue
        if loc_a == a.accepting:
            continue
        entry = delta_minus(loc_a, loc_m)
        if entry is None:
            continue
        act, q2 = entry
        delta[(loc_a, q)] = (act, q2)
        here = actions_at(a, loc_a)
        nexts: list[int] = []
        if isinstance(act, int):
            sides = here.get(act)
            if isinstance(sides, dict):
                nexts = [t for t in sides.values()]
        else:
            tgt = here.get(act)
            if tgt is not None and not isinstance(tgt, dict):
                nexts = [tgt]
        for t in nexts:
            if (t, q2) not in seen:
                seen.add((t, q2))
                todo.append((t, q2))
    return Strategy(delta, q0, frozenset(dead))


# ---------------------------------------------------------------------------
# the bound with a memoryless optimal strategy
# ---------------------------------------------------------------------------

def mdp_upper_bound(a: PCFA) -> tuple[Fraction, Strategy]:
    r = analyze_mdp(a)
    return r.bound, memoryless(r.policy)
