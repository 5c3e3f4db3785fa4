"""Control-flow automata over program labels, and their boolean algebra.

The central value type is :class:`PCFA`: a finite automaton with a single
initial and a single accepting location, labelled by program labels
(assignments, assumptions, skip, tagged probabilistic branches, tagged
nondeterministic branches).  Program trace languages are prefix-free, which
is what makes the single-accepting shape closed under the operations here;
boolean combinations are computed on an internal multi-accepting
representation and coerced back at the end.  Every operation is one
on-the-fly subset construction: that of the left operand runs in lockstep
with that of the right operands' union, and only the pairs that words of
the left operand reach are built, so neither side is determinized or
completed over the alphabet up front.  Intersection and difference take
several right operands; `theory.determinize` is the same construction with
none.  The loop's pick (`nfa_shortest`) searches the pairs of a
difference product as it reaches them, and builds no product.

Labels are hash-consed, by the mechanism formulas use
(`formula.HashConsed`): each distinct label is one object, so `==` and
`hash` on labels are identity, and every set and dict keyed by labels here
and in the layers above hashes them in C.  Construct a label through its
class only; the class returns the existing object when there is one.  Each
label stores its key in the fixed label order (``sort_key``, which
`label_key` reads) when it is built.  That fixed total order on labels makes
every enumeration in the package reproducible.

This module owns the action model of a control-flow MDP, which no other
module derives: `action_of`, `action_key` and `actions_at`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Optional, Sequence, Union

from .formula import Formula, HashConsed, IntTerm


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

_TABLE: "weakref.WeakValueDictionary[tuple, Label]" = weakref.WeakValueDictionary()


class Label(HashConsed):
    """A program label, hash-consed in ``_TABLE`` (see `formula.HashConsed`):
    constructing a label returns the one live object with its class and
    field values, so `==` and `hash` are object identity, computed in C
    without visiting the formula or term a label carries.  Build labels
    through their class only (`Assign(x, e)`, `Pb(0, "L")`)."""

    __slots__ = ()
    _table = _TABLE

    def _order(self):
        """Fixed total order: Assign < Assume < Skip < Pb < Nd, then
        operands; stored as ``sort_key`` when the label is built."""
        if isinstance(self, Assign):
            if isinstance(self.expr, IntTerm):
                ek = (0, self.expr.coeffs, self.expr.const)
            else:
                ek = (1, self.expr.sort_key)
            return (0, self.var, ek)
        if isinstance(self, Assume):
            return (1, self.cond.sort_key)
        if isinstance(self, SkipL):
            return (2,)
        if isinstance(self, Pb):
            return (3, self.pid, 0 if self.side == "L" else 1)
        return (4, self.tag)


@dataclass(frozen=True, eq=False, init=False)
class Assign(Label):
    var: str
    expr: Union[IntTerm, Formula]  # Formula when the variable is boolean

    def __str__(self) -> str:
        return f"{self.var} := {self.expr}"


@dataclass(frozen=True, eq=False, init=False)
class Assume(Label):
    cond: Formula

    def __str__(self) -> str:
        return f"assume {self.cond}"


@dataclass(frozen=True, eq=False, init=False)
class SkipL(Label):
    def __str__(self) -> str:
        return "skip"


SKIP = SkipL()


@dataclass(frozen=True, eq=False, init=False)
class Pb(Label):
    pid: int
    side: str  # "L" or "R"

    def __str__(self) -> str:
        return f"pb({self.pid},{self.side})"


@dataclass(frozen=True, eq=False, init=False)
class Nd(Label):
    tag: int

    def __str__(self) -> str:
        return f"nd({self.tag})"


def label_key(lab: Label):
    """The label's key in the fixed total order on labels."""
    return lab.sort_key


def trace_key(trace: Sequence[Label]):
    return tuple(l.sort_key for l in trace)


Action = Union[int, Label]  # coin identifier, or a non-random label


def action_of(lab: Label) -> Action:
    """The CFMDP action a label belongs to: both sides of a coin share one."""
    if isinstance(lab, Pb):
        return lab.pid
    return lab


def action_key(act: Action):
    """The fixed order on actions: labels in label order, then coins."""
    if isinstance(act, int):
        return (1, act)
    return (0, act.sort_key)


def actions_at(a: PCFA, loc: int) -> dict:
    """Available actions at a location: action -> {side: target} for coins,
    action -> target for plain labels."""
    out: dict[Action, object] = {}
    for lab, tgt in a.out_edges(loc):
        if isinstance(lab, Pb):
            out.setdefault(lab.pid, {})[lab.side] = tgt
        else:
            out[lab] = tgt
    return out


# ---------------------------------------------------------------------------
# the automaton
# ---------------------------------------------------------------------------

Transition = tuple[int, Label, int]


class PCFA:
    """Single-initial / single-accepting automaton over labels.

    Treated as immutable; all operations return fresh values.  The order of
    `out_edges` is unspecified: a consumer that needs an order sorts for
    itself.
    """

    def __init__(
        self,
        transitions: Iterable[Transition],
        initial: int,
        accepting: int,
        locations: Optional[Iterable[int]] = None,
    ):
        self.transitions = frozenset(transitions)
        self.initial = initial
        self.accepting = accepting
        locs = {initial, accepting}
        for s, _, t in self.transitions:
            locs.add(s)
            locs.add(t)
        if locations is not None:
            locs |= set(locations)
        self.locations = frozenset(locs)
        self._out: dict[int, list[tuple[Label, int]]] = {l: [] for l in self.locations}
        for s, lab, t in self.transitions:
            self._out[s].append((lab, t))

    # -- basic views --------------------------------------------------------

    def out_edges(self, loc: int) -> list[tuple[Label, int]]:
        return self._out.get(loc, [])

    @property
    def alphabet(self) -> frozenset[Label]:
        return frozenset(lab for _, lab, _ in self.transitions)

    def is_deterministic(self) -> bool:
        return all(
            len(out) < 2 or len({lab for lab, _ in out}) == len(out) for out in self._out.values()
        )

    def is_cfmdp(self) -> bool:
        return self.is_deterministic() and not self.out_edges(self.accepting)

    def is_cfmc(self) -> bool:
        if not self.is_cfmdp():
            return False
        for loc in self.locations:
            if len({action_of(lab) for lab, _ in self.out_edges(loc)}) > 1:
                return False
        return True

    @cached_property
    def _adj(self) -> dict[int, dict[Label, set[int]]]:
        return _adjacency(self.transitions)

    def accepts(self, trace: Sequence[Label]) -> bool:
        adj = self._adj
        states = {self.initial}
        for lab in trace:
            states = {t for s in states for t in adj.get(s, {}).get(lab, ())}
            if not states:
                return False
        return self.accepting in states

    def renumber(self) -> "PCFA":
        order = sorted(self.locations)
        remap = {loc: i for i, loc in enumerate(order)}
        return PCFA(
            {(remap[s], lab, remap[t]) for s, lab, t in self.transitions},
            remap[self.initial],
            remap[self.accepting],
            locations={remap[l] for l in self.locations},
        )

    def __repr__(self) -> str:
        return (
            f"PCFA(|L|={len(self.locations)}, |T|={len(self.transitions)}, "
            f"init={self.initial}, acc={self.accepting})"
        )


def empty_pcfa() -> PCFA:
    """The empty-language automaton (accepting unreachable)."""
    return PCFA((), 0, 1)


def trace_tree(traces: Sequence[Sequence[Label]]) -> PCFA:
    """The prefix tree of non-empty traces, one location per distinct
    proper prefix, with one shared accepting location.  Deterministic when
    the set is prefix-free, as complete program traces are (the accepting
    location is a sink)."""
    acc = 0
    nxt = 2
    children: dict[tuple, int] = {}
    trans = set()
    for tr in traces:
        cur = 1
        for lab in tr[:-1]:
            key = (cur, lab)
            tgt = children.get(key)
            if tgt is None:
                tgt = nxt
                nxt += 1
                children[key] = tgt
                trans.add((cur, lab, tgt))
            cur = tgt
        trans.add((cur, tr[-1], acc))
    return PCFA(trans, 1, acc)


# ---------------------------------------------------------------------------
# reachability / trimming
# ---------------------------------------------------------------------------

def _reach(starts: Iterable[int], succ: dict[int, Iterable[int]]) -> set[int]:
    """Every node reachable from `starts` along `succ`, the starts included."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for t in succ.get(todo.pop(), ()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _live(transitions, initials: Iterable[int], accepting: Iterable[int]) -> set[int]:
    """The states on some path from an initial to an accepting state."""
    fwd: dict[int, list[int]] = {}
    bwd: dict[int, list[int]] = {}
    for s, _, t in transitions:
        fwd.setdefault(s, []).append(t)
        bwd.setdefault(t, []).append(s)
    return _reach(initials, fwd) & _reach(accepting, bwd)


def trim(a: PCFA) -> PCFA:
    """Keep only locations on some initial-to-accepting path."""
    live = _live(a.transitions, {a.initial}, {a.accepting})
    if not live:
        return empty_pcfa()
    return PCFA(
        {(s, lab, t) for s, lab, t in a.transitions if s in live and t in live},
        a.initial,
        a.accepting,
        locations=live,
    )


# ---------------------------------------------------------------------------
# internal multi-accepting layer
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _NFA:
    transitions: AbstractSet[tuple[int, Label, int]]
    initials: AbstractSet[int]
    accepting: AbstractSet[int]
    states: AbstractSet[int]

    @cached_property
    def _adj(self) -> dict[int, dict[Label, set[int]]]:
        return _adjacency(self.transitions)


def _nfa_of(a: PCFA) -> _NFA:
    """`a` as an internal value, sharing its transitions and its adjacency."""
    n = _NFA(a.transitions, {a.initial}, {a.accepting}, a.locations)
    n._adj = a._adj
    return n


def _nfa_union(parts: Sequence[PCFA]) -> _NFA:
    trans: set[tuple[int, Label, int]] = set()
    inits: set[int] = set()
    accs: set[int] = set()
    states: set[int] = set()
    base = 0
    for a in parts:
        remap = {s: base + i for i, s in enumerate(sorted(a.locations))}
        trans |= {(remap[s], lab, remap[t]) for s, lab, t in a.transitions}
        inits.add(remap[a.initial])
        accs.add(remap[a.accepting])
        states |= set(remap.values())
        base += len(a.locations)
    return _NFA(trans, inits, accs, states)


def _adjacency(transitions) -> dict[int, dict[Label, set[int]]]:
    adj: dict[int, dict[Label, set[int]]] = {}
    for s, lab, t in transitions:
        adj.setdefault(s, {}).setdefault(lab, set()).add(t)
    return adj


def _step(adj: dict[int, dict[Label, set[int]]], states) -> dict[Label, set[int]]:
    """The successor set of a state set under every label leaving it."""
    table: dict[Label, set[int]] = {}
    for s in states:
        for lab, ts in adj.get(s, {}).items():
            table.setdefault(lab, set()).update(ts)
    return table


def _subset_product(a: _NFA, bs: Sequence[PCFA], accept_pair) -> _NFA:
    """The subset construction of `a` run in lockstep with that of the
    disjoint union of the `bs`, built on the fly from the initial pair.

    Only labels leaving `a`'s current state set are followed, so just the
    pairs that words of `a` reach are built.  A label no state of the b-side
    reads leads to the empty set, which is the sink: no completion over the
    alphabet is needed.  accept_pair decides acceptance from whether each
    side's set holds an accepting state; when it rejects every pair with an
    empty b-side, those pairs are not entered at all.  With no `bs` every
    b-side is that sink, so the result is the plain subset construction of
    `a`: `theory.determinize` is this construction with no right operand."""
    b = _nfa_of(bs[0]) if len(bs) == 1 else _nfa_union(bs)
    a_adj, b_adj = a._adj, b._adj
    sink_live = accept_pair(True, False)
    start = (frozenset(a.initials), frozenset(b.initials))
    index = {start: 0}
    todo = [start]
    trans: set[tuple[int, Label, int]] = set()
    accs: set[int] = set()
    while todo:
        pair = todo.pop()
        sa, sb = pair
        i = index[pair]
        if accept_pair(not a.accepting.isdisjoint(sa), not b.accepting.isdisjoint(sb)):
            accs.add(i)
        for lab, ta in _step(a_adj, sa).items():
            tb = frozenset(t for s in sb for t in b_adj.get(s, {}).get(lab, ()))
            if not tb and not sink_live:
                continue
            npair = (frozenset(ta), tb)
            if npair not in index:
                index[npair] = len(index)
                todo.append(npair)
            trans.add((i, lab, index[npair]))
    return _NFA(trans, {0}, accs, set(index.values()))


def _nfa_trim(n: _NFA) -> _NFA:
    live = _live(n.transitions, n.initials, n.accepting)
    return _NFA(
        {(s, lab, t) for s, lab, t in n.transitions if s in live and t in live},
        n.initials & live,
        n.accepting & live,
        live or {0},
    )


class NotRepresentable(Exception):
    """A language that the single-accepting shape cannot carry (ε plus more)."""


def _to_pcfa(n: _NFA) -> PCFA:
    """Coerce a trimmed multi-accepting automaton with one initial state to
    the single-accepting shape (every producer here starts from state 0
    alone, and trims before coercing).  Exact when accepted words are
    prefix-free (accepting states are dead ends) — the case for program
    trace languages; general ε-free languages are handled with a fresh
    final (may lose determinism, fine for membership/emptiness uses)."""
    if not n.accepting or not n.initials:
        return empty_pcfa()
    (init,) = n.initials
    trans, accs = n.transitions, n.accepting
    has_out = {s for s, _, _ in trans}
    if init in accs:
        # one accepting location equal to the initial one carries exactly {ε}
        if init in has_out:
            raise NotRepresentable("language contains ε and longer words")
        return PCFA((), init, init, locations={init})
    if all(s not in has_out for s in accs):
        # merge accepting dead-ends (exact, determinism-preserving) into
        # min(accs)'s place, numbering the locations in sorted order
        target = min(accs)
        num = {s: i for i, s in enumerate(sorted(n.states - accs | {target}))}
        num.update((s, num[target]) for s in accs)
        return PCFA({(num[s], lab, num[t]) for s, lab, t in trans}, num[init], num[target])
    # fresh final with duplicated in-edges
    final = max(n.states) + 1
    extra = {(s, lab, final) for s, lab, t in trans if t in accs}
    return PCFA(trans | extra, init, final).renumber()


# ---------------------------------------------------------------------------
# the public boolean algebra
# ---------------------------------------------------------------------------

def intersect(a: PCFA, *bs: PCFA) -> PCFA:
    """L(a) intersected with the union of the bs, in one product."""
    return _to_pcfa(_nfa_trim(_subset_product(_nfa_of(a), bs, lambda x, y: x and y)))


def difference_all(a: PCFA, bs: list["PCFA"]) -> PCFA:
    """L(a) minus the union of the bs."""
    return _to_pcfa(difference_nfa(a, bs))


def difference_nfa(a: Union[PCFA, _NFA], bs: list[PCFA]) -> _NFA:
    """L(a) minus the union of the bs, as a trimmed deterministic internal
    value.  `a` may be an earlier result, so a loop can keep its residual
    and narrow it by only the automata added since: subtracting B1 and then
    B2 leaves the same language as subtracting their union at once."""
    left = a if isinstance(a, _NFA) else _nfa_of(a)
    return _nfa_trim(_subset_product(left, bs, lambda x, y: x and not y))


def nfa_is_empty(n: _NFA) -> bool:
    return not _live(n.transitions, n.initials, n.accepting)


def nfa_shortest(n: _NFA, minus: Sequence[PCFA] = ()) -> Optional[tuple[Label, ...]]:
    """Shortest word of L(n) less the union of the `minus` automata, ties
    broken by the label order; None when there is none.

    Breadth-first over the difference product's pairs (state of `n`, state
    set of the `minus` union), each built when its depth is reached, up to
    the first depth with an accepting pair; every pair on the way is live, so
    the word is the trimmed product's.  A pair keeps the least trace reaching
    it at its depth and is expanded at the first depth it is reached only: a
    shortest word never revisits a pair.  With no `minus` no set is built."""
    b = _nfa_of(minus[0]) if len(minus) == 1 else _nfa_union(minus)
    a_adj, b_adj, a_acc, b_acc = n._adj, b._adj, n.accepting, b.accepting
    best: dict[tuple, tuple] = {(s, frozenset(b.initials)): () for s in n.initials}
    seen = set(best)
    while best:
        hits = [tr for (s, sb), tr in best.items() if s in a_acc and b_acc.isdisjoint(sb)]
        if hits:
            return min(hits, key=trace_key)
        nxt: dict[tuple, tuple] = {}
        for (s, sb), tr in best.items():
            for lab, ts in a_adj.get(s, {}).items():
                tb = frozenset(t for q in sb for t in b_adj.get(q, {}).get(lab, ())) if sb else sb
                cand = tr + (lab,)
                for t in ts:
                    pair = (t, tb)
                    if pair in seen:
                        continue
                    old = nxt.get(pair)
                    if old is None or trace_key(cand) < trace_key(old):
                        nxt[pair] = cand
        seen.update(nxt)
        best = nxt
    return None
