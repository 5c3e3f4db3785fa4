"""Quantifier-free formulas over integer and boolean program variables.

Atoms are linear integer constraints (kept canonical: a term compared
against zero, tightened and gcd-reduced) and boolean literals.  Connectives
are n-ary conjunction/disjunction; negation is *applied*, not represented,
so every formula built through the smart constructors is in negation normal
form with complement-free atoms.  That makes syntactic deduplication do a
lot of semantic work for free, which the proof-generalisation code relies
on when it merges equal propositions.

`cmp_fact` is the one reading of a comparison as a fact on its linear
base (a bound, a point or an excluded point), and `_meet_facts` is the one
rule for facts on one base: it meets them into the fewest facts that allow
the same integers, or finds that none does.  The constructors resolve
comparisons on one base with it (`_absorb_cmps`), a disjunction as the
negation of the conjunction of its negated atoms, so `for_` of comparisons
always equals `fnot` of `fand` of their negations.  `forced_value` is the
one test of what a set of comparisons forces on another: the constructors
settle nested atoms with it.  A fact is negated arithmetically by
`negate_fact`, which agrees with `fnot` on every comparison.

Constructor output is canonical: flat, sorted and free of duplicates and
complementary literals, its comparisons on one base absorbed, and no atom
nested under an `And`'s arguments that the `And`'s own atoms decide
(`_settle_nested`).  In an `And` the atoms among its arguments hold
wherever a nested argument matters, so a nested comparison their facts
imply or contradict, or a nested literal that is one of them or its
complement, is replaced by TRUE or FALSE, and the changed node is rebuilt
and the step run again until nothing changes.  An `Or` does the same with
its atoms negated, since A ∨ B ≡ A ∨ (¬A ∧ B).  So
``X = 0 && (X >= 0 || X <= -6)`` is built as ``X = 0``, and a triple
whose two sides contradict that way is FALSE before it reaches the solver
(the on-line simplification of Dillig, Dillig & Aiken, SAS 2010).

This module is the only one that knows the canonical form: no code
elsewhere in the package builds a node directly (parsed programs and
certificates both go through the constructors, and `tests/test_source.py`
checks that no other module calls a node class, by name or through
``type``), so every formula is used as built.  The tests hold the
constructors to a rebuild through them (``simplify`` in
``tests/helpers.py``), which returns every formula they built unchanged.

Nodes are hash-consed (`HashConsed`, which program labels share): each
distinct formula is one live object, so `==` and `hash` are identity,
computed in C, and every dict or set keyed by formulas, here and in the
layers above, hashes them without walking a tree.  Each node stores its
key in the fixed total order (``sort_key``) when it is built, from its
arguments' stored keys, and finds its least atom (``least_atom``, where
the solver branches), its variables (``variables``) and, for a comparison,
its fact (``fact``, which `cmp_fact` reads) at most once.  While a run is
in progress (`memoizing`, which `Solver.run` enters for each
verification loop) the constructors `fand` and `for_` and the tree
operations `fnot`, `subst_int` and `subst_bool` look their arguments up in
the run's memo before building, so arguments the run has seen before cost
one dict lookup; outside a run they build every time, and the result is
the same object either way.  A substitution returns a node that does not
mention its variable unchanged, without a lookup.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# linear integer terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntTerm:
    """A linear term  sum(coeff * var) + const  with integer coefficients.

    ``coeffs`` is sorted by variable name and never contains a zero
    coefficient, so structural equality is semantic equality.
    """

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def make(coeffs: Mapping[str, int], const: int = 0) -> "IntTerm":
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return IntTerm(items, const)

    def __add__(self, other: "IntTerm") -> "IntTerm":
        acc = dict(self.coeffs)
        for v, c in other.coeffs:
            acc[v] = acc.get(v, 0) + c
        return IntTerm.make(acc, self.const + other.const)

    def __neg__(self) -> "IntTerm":
        return IntTerm(tuple((v, -c) for v, c in self.coeffs), -self.const)

    def __sub__(self, other: "IntTerm") -> "IntTerm":
        return self + (-other)

    def scale(self, k: int) -> "IntTerm":
        if k == 0:
            return IntTerm((), 0)
        return IntTerm(tuple((v, k * c) for v, c in self.coeffs), k * self.const)

    def subst(self, var: str, repl: "IntTerm") -> "IntTerm":
        c = dict(self.coeffs).get(var)
        if c is None:
            return self
        rest = IntTerm.make({v: k for v, k in self.coeffs if v != var}, self.const)
        return rest + repl.scale(c)

    def coeff(self, var: str) -> int:
        return dict(self.coeffs).get(var, 0)

    def vars(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.coeffs)

    def eval(self, state: Mapping[str, object]) -> int:
        total = self.const
        for v, c in self.coeffs:
            total += c * int(state[v])  # type: ignore[arg-type]
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return str(self.const)
        parts: list[str] = []
        for v, c in self.coeffs:
            if c == 1:
                mono = v
            elif c == -1:
                mono = f"-{v}"
            else:
                mono = f"{c}*{v}"
            if parts and not mono.startswith("-"):
                parts.append(f"+ {mono}")
            elif parts:
                parts.append(f"- {mono[1:]}")
            else:
                parts.append(mono)
        if self.const > 0:
            parts.append(f"+ {self.const}")
        elif self.const < 0:
            parts.append(f"- {-self.const}")
        return " ".join(parts)


TermLike = Union["IntTerm", int, str]


def as_term(x: TermLike) -> IntTerm:
    if isinstance(x, IntTerm):
        return x
    if isinstance(x, bool):
        raise TypeError("boolean used where an integer term is expected")
    if isinstance(x, int):
        return IntTerm((), x)
    if isinstance(x, str):
        return IntTerm(((x, 1),), 0)
    raise TypeError(f"cannot coerce {x!r} to IntTerm")


def ivar(name: str) -> IntTerm:
    return IntTerm(((name, 1),), 0)


# ---------------------------------------------------------------------------
# hash-consing
# ---------------------------------------------------------------------------

_TABLE: "weakref.WeakValueDictionary[tuple, Formula]" = weakref.WeakValueDictionary()
_TABLE_LOCK = threading.Lock()  # held to insert, so two threads cannot mint twins


class HashConsed:
    """A frozen value of which each distinct one is a single live object.

    Constructing one looks (class, field values) up in the class's weak
    ``_table`` and returns the live object there, so `==` and `hash` are
    object identity, computed in C without visiting the values an object
    holds.  A miss builds the object, stores its ``sort_key`` (the class's
    fixed total order, computed once by ``_order`` from the fields) and
    inserts it under a lock.  Copying, pickling and `dataclasses.replace`
    come back through the constructor too.  The table holds its objects
    weakly: one no one holds is dropped, and building it again makes a
    fresh canonical object.  Subclasses are dataclasses declared
    ``frozen=True, eq=False, init=False``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        names = cls.__dataclass_fields__
        if kwargs or len(args) != len(names):
            args = _bind(cls, args, kwargs)
        key = (cls, *args)
        table = cls._table
        obj = table.get(key)
        if obj is None:
            fresh = object.__new__(cls)
            for name, value in zip(names, args):
                object.__setattr__(fresh, name, value)
            object.__setattr__(fresh, "sort_key", fresh._order())
            with _TABLE_LOCK:
                obj = table.setdefault(key, fresh)
        return obj

    def __init__(self, *args, **kwargs):
        pass  # __new__ has set the fields

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values, in field order, of a call that names some of them
    or passes the wrong number of them."""
    names = tuple(cls.__dataclass_fields__)
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name not in kwargs:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        values.append(kwargs.pop(name))
    if kwargs:
        raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments {sorted(kwargs)}")
    return tuple(values)


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

class Formula(HashConsed):
    """Base class; all nodes are hash-consed frozen dataclasses."""

    __slots__ = ()
    _table = _TABLE

    def _order(self):
        """Deterministic total order on formulas, used to canonicalise arg
        lists; stored as ``sort_key`` when the node is built."""
        if isinstance(self, TrueF):
            return (0,)
        if isinstance(self, FalseF):
            return (1,)
        if isinstance(self, BoolLit):
            return (2, self.name, self.positive)
        if isinstance(self, Cmp):
            return (3, self.op, self.term.coeffs, self.term.const)
        return (4 if isinstance(self, And) else 5, tuple(a.sort_key for a in self.args))

    @cached_property
    def least_atom(self) -> Optional["Formula"]:
        """The atom (a boolean literal or a comparison) with the least
        ``sort_key``, None in TRUE and FALSE: the atom the solver's search
        branches on.  Found once per node, from its arguments' own."""
        if isinstance(self, (And, Or)):
            return min((a.least_atom for a in self.args), key=_key)
        return self if isinstance(self, (BoolLit, Cmp)) else None

    @cached_property
    def variables(self) -> frozenset[str]:
        """The names of the integer and boolean variables the formula
        mentions.  Found once per node, from its arguments' own."""
        if isinstance(self, (And, Or)):
            return frozenset().union(*(a.variables for a in self.args))
        if isinstance(self, Cmp):
            return self.term.vars()
        return frozenset({self.name}) if isinstance(self, BoolLit) else frozenset()


@dataclass(frozen=True, eq=False, init=False)
class TrueF(Formula):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True, eq=False, init=False)
class FalseF(Formula):
    def __str__(self) -> str:
        return "false"


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True, eq=False, init=False)
class BoolLit(Formula):
    """A boolean program variable or its negation."""

    name: str
    positive: bool

    def __str__(self) -> str:
        return self.name if self.positive else f"!{self.name}"


# comparison kinds, all against zero
LE = "<="   # term <= 0
EQ = "=="   # term == 0
NE = "!="   # term != 0


@dataclass(frozen=True, eq=False, init=False)
class Cmp(Formula):
    """term op 0, canonicalised (gcd-reduced, tightened, sign-normalised)."""

    term: IntTerm
    op: str

    @cached_property
    def fact(self) -> tuple[tuple, str, int]:
        """The comparison's fact on its base, stored when first read (see `cmp_fact`)."""
        coeffs, const = self.term.coeffs, self.term.const
        if self.op == LE:
            if coeffs[0][1] < 0:
                return tuple((v, -c) for v, c in coeffs), "lb", const  # -base + const <= 0
            return coeffs, "ub", -const  # base + const <= 0
        return coeffs, "eq" if self.op == EQ else "ne", -const

    def __str__(self) -> str:
        return _render_cmp(self)


@dataclass(frozen=True, eq=False, init=False)
class And(Formula):
    args: tuple[Formula, ...]

    def __str__(self) -> str:
        return " && ".join(_paren(a, self) for a in self.args)


@dataclass(frozen=True, eq=False, init=False)
class Or(Formula):
    args: tuple[Formula, ...]

    def __str__(self) -> str:
        return " || ".join(_paren(a, self) for a in self.args)


def _paren(child: Formula, parent: Formula) -> str:
    if isinstance(parent, And) and isinstance(child, Or):
        return f"({child})"
    if isinstance(parent, Or) and isinstance(child, And):
        return f"({child})"
    return str(child)


def _render_cmp(a: Cmp) -> str:
    # move negative monomials and the constant to the right-hand side
    lhs = {v: c for v, c in a.term.coeffs if c > 0}
    rhs = {v: -c for v, c in a.term.coeffs if c < 0}
    left = IntTerm.make(lhs, 0)
    right = IntTerm.make(rhs, -a.term.const)
    if not lhs and rhs:
        # prefer "C >= 1" over "0 <= C - 1" when everything sits on one side
        sym = {LE: ">=", EQ: "=", NE: "!="}[a.op]
        return f"{IntTerm.make(rhs, 0)} {sym} {a.term.const}"
    sym = {LE: "<=", EQ: "=", NE: "!="}[a.op]
    return f"{left} {sym} {right}"


# ---------------------------------------------------------------------------
# smart constructors (the only way formulas should be built)
# ---------------------------------------------------------------------------

def _cmp(term: IntTerm, op: str) -> Formula:
    if not term.coeffs:
        c = term.const
        if op == LE:
            return TRUE if c <= 0 else FALSE
        if op == EQ:
            return TRUE if c == 0 else FALSE
        return TRUE if c != 0 else FALSE
    g = 0
    for _, c in term.coeffs:
        g = gcd(g, abs(c))
    if op == LE:
        if g > 1:
            # g*s + c <= 0  <=>  s <= floor(-c/g)
            new_const = -((-term.const) // g)
            term = IntTerm(tuple((v, c // g) for v, c in term.coeffs), new_const)
    else:
        if term.const % g != 0:
            return FALSE if op == EQ else TRUE
        if g > 1:
            term = IntTerm(tuple((v, c // g) for v, c in term.coeffs), term.const // g)
        if term.coeffs[0][1] < 0:
            term = -term
    return Cmp(term, op)


def le(a: TermLike, b: TermLike) -> Formula:
    return _cmp(as_term(a) - as_term(b), LE)


def lt(a: TermLike, b: TermLike) -> Formula:
    return _cmp(as_term(a) - as_term(b) + IntTerm((), 1), LE)


def ge(a: TermLike, b: TermLike) -> Formula:
    return le(b, a)


def gt(a: TermLike, b: TermLike) -> Formula:
    return lt(b, a)


def eq(a: TermLike, b: TermLike) -> Formula:
    return _cmp(as_term(a) - as_term(b), EQ)


def ne(a: TermLike, b: TermLike) -> Formula:
    return _cmp(as_term(a) - as_term(b), NE)


def bvar(name: str) -> Formula:
    return BoolLit(name, True)


def _key(f: Formula):
    """The node's key in the deterministic total order on formulas."""
    return f.sort_key


def cmp_fact(a: Cmp) -> tuple[tuple, str, int]:
    """Read a comparison as a fact on its linear base: (base, kind, bound).

    The base is the comparison's coefficients with a positive first one;
    the fact says base <= bound ("ub"), base >= bound ("lb"), base = bound
    ("eq") or base != bound ("ne").  Every canonical comparison has a
    gcd-reduced term, so `_fact_cmp` builds the same node back."""
    return a.fact


def negate_fact(kind: str, bound: int) -> tuple[str, int]:
    """The fact on the same base that holds exactly where (kind, bound)
    fails, over the integers: it reads as `fnot` of the fact's comparison."""
    if kind == "ub":
        return "lb", bound + 1
    if kind == "lb":
        return "ub", bound - 1
    return "ne" if kind == "eq" else "eq", bound


def _fact_cmp(base: tuple, kind: str, bound: int) -> Cmp:
    """The canonical comparison that reads as the fact (base, kind, bound)."""
    if kind == "lb":
        return Cmp(IntTerm(tuple((v, -c) for v, c in base), bound), LE)
    return Cmp(IntTerm(base, -bound), {"ub": LE, "eq": EQ, "ne": NE}[kind])


def _meet_facts(facts) -> Optional[list[tuple[str, int]]]:
    """The conjunction of (kind, bound) facts on one linear base as the
    fewest facts that allow the same integers, or None when no integer
    meets them all.

    The least upper and greatest lower bound stand for all bounds, an
    excluded point on a bound moves it inward, bounds that meet collapse
    into an equality, an equality absorbs every fact it satisfies, and
    exclusions outside the interval go.  The result depends only on the
    integers the facts allow, so a fact alone comes back as itself."""
    ub = lb = point = None
    nes = set()
    for kind, bound in facts:
        if kind == "ub":
            ub = bound if ub is None else min(ub, bound)
        elif kind == "lb":
            lb = bound if lb is None else max(lb, bound)
        elif kind == "ne":
            nes.add(bound)
        elif point is None or point == bound:  # "eq"
            point = bound
        else:
            return None
    if point is not None:
        if (ub is not None and point > ub) or (lb is not None and point < lb) or point in nes:
            return None
        return [("eq", point)]
    while ub in nes or lb in nes:  # boundary exclusions tighten the interval
        if ub in nes:
            ub -= 1
        if lb in nes:
            lb += 1
    if ub is not None and lb is not None:
        if lb > ub:
            return None
        if lb == ub:
            return [("eq", lb)]
    met = [(kind, v) for kind, v in (("ub", ub), ("lb", lb)) if v is not None]
    met.extend(
        ("ne", v) for v in sorted(nes) if (ub is None or v < ub) and (lb is None or v > lb)
    )
    return met


def forced_value(atom: Cmp, known: Iterable[tuple[Cmp, bool]]) -> Optional[bool]:
    """The value that the comparisons in `known`, each set to its value,
    force on the comparison `atom`: True when their facts on the atom's
    linear base imply it, False when they contradict it, None when they do
    neither.  Their facts are met with the atom's (`_meet_facts`): no meet
    contradicts, and a meet that allows the integers theirs alone allow
    implies.  The comparisons in `known` must not contradict one another."""
    base, kind, bound = cmp_fact(atom)
    facts = []
    for c, value in known:
        cbase, k, b = cmp_fact(c)
        if cbase == base:
            facts.append((k, b) if value else negate_fact(k, b))
    if not facts:
        return None
    met = _meet_facts([*facts, (kind, bound)])
    if met is None:
        return False
    return True if met == _meet_facts(facts) else None


def _absorb_cmps(cmps: list["Cmp"], conj: bool) -> Optional[list[Formula]]:
    """Resolve comparison atoms sharing one linear base into interval facts.

    Per base, a conjunction is the meet of its atoms' facts (`_meet_facts`).
    A disjunction is the negation of the conjunction of its negated atoms,
    so it negates each atom's fact on the way in and each resulting fact on
    the way out.  A comparison alone on its base is kept as given: its fact
    reads back as the same node.  Returns None when the atoms alone force
    the absorbing element (false for a conjunction, true for a
    disjunction)."""
    by_base: dict[tuple, list] = {}
    for a in cmps:
        key, kind, bound = cmp_fact(a)
        by_base.setdefault(key, []).append((a, kind, bound))
    out: list[Formula] = []
    for key, atoms in by_base.items():
        if len(atoms) == 1:
            out.append(atoms[0][0])
            continue
        met = _meet_facts((k, b) if conj else negate_fact(k, b) for _, k, b in atoms)
        if met is None:
            return None
        out.extend(_fact_cmp(key, *(f if conj else negate_fact(*f))) for f in met)
    return out


def _assoc(parts: Iterable[Formula], unit: Formula, zero: Formula, node):
    """Flatten, deduplicate and sort the arguments of an `And`/`Or`, and
    settle the atoms nested under them that their own atoms decide
    (`_settle_nested`), building again until none is left.

    A complementary pair of boolean literals gives the absorbing element
    here; comparisons get their complement check in `_absorb_cmps`, which
    resolves a complementary pair on one linear base the same way."""
    flat: list[Formula] = []
    for p in parts:
        if p is zero:
            return zero
        if p is unit:
            continue
        if isinstance(p, node):
            flat.extend(p.args)
        else:
            flat.append(p)
    seen = dict.fromkeys(flat)  # equal nodes are one object
    items = sorted(seen, key=_key)
    for p in items:
        if isinstance(p, BoolLit) and fnot(p) in seen:
            return zero
    cmps = [p for p in items if isinstance(p, Cmp)]
    if len(cmps) > 1:
        absorbed = _absorb_cmps(cmps, conj=node is And)
        if absorbed is None:
            return zero
        rest = [p for p in items if not isinstance(p, Cmp)]
        items = sorted(set(rest + absorbed), key=_key)
    if not items:
        return unit
    if len(items) == 1:
        return items[0]
    settled = _settle_nested(items, node is And)
    if settled is not items:
        return _assoc(settled, unit, zero, node)
    return node(tuple(items))


def _settle_nested(items: list[Formula], conj: bool) -> list[Formula]:
    """The arguments of an `And` (``conj``) or `Or` with every atom nested
    under them that their own atoms decide set to its value, or `items`
    itself when no such atom is left.

    In a conjunction the atoms among the arguments hold wherever the
    nested arguments matter; in a disjunction their negations do, since
    A ∨ B ≡ A ∨ (¬A ∧ B).  So a nested comparison that those facts imply
    (contradict) is TRUE (FALSE), as is a nested literal that is one of
    the atoms (their complement) in a conjunction, and the other way round
    in a disjunction.  A nested node that changes is rebuilt through
    `fand`/`for_`."""
    units = [p for p in items if isinstance(p, (BoolLit, Cmp))]
    if not units or len(units) == len(items):
        return items
    names = frozenset().union(*(p.variables for p in units))
    known = [(p, conj) for p in units if isinstance(p, Cmp)]
    lits = {p for p in units if isinstance(p, BoolLit)}

    def settle(f: Formula) -> Formula:
        if f.variables.isdisjoint(names):
            return f
        if isinstance(f, (And, Or)):
            args = [settle(a) for a in f.args]
            if all(b is a for a, b in zip(f.args, args)):
                return f
            return fand(*args) if isinstance(f, And) else for_(*args)
        if isinstance(f, Cmp):
            value = forced_value(f, known)
        elif f in lits:
            value = conj
        elif BoolLit(f.name, not f.positive) in lits:
            value = not conj
        else:
            return f
        if value is None:
            return f
        return TRUE if value else FALSE

    out = [p if isinstance(p, (BoolLit, Cmp)) else settle(p) for p in items]
    return items if all(a is b for a, b in zip(items, out)) else out


# The memo of the run in progress: (operation, *arguments) to the result,
# or None outside a run.  Arguments are hash-consed formulas, names and
# terms, so a lookup hashes formulas by identity.
_RUN_MEMO: ContextVar[Optional[dict]] = ContextVar("probtrace_run_memo", default=None)


@contextmanager
def memoizing(memo: dict):
    """Make `memo` the memo of `fand`, `for_`, `fnot`, `subst_int` and
    `subst_bool` for the body: each argument list is built once and looked
    up after.  Outside such a body they build every time; the output is the
    same object either way."""
    token = _RUN_MEMO.set(memo)
    try:
        yield
    finally:
        _RUN_MEMO.reset(token)


def _run_memo(op, *args) -> Formula:
    """``op(*args)``, answered from the run's memo under the key
    (op, *args) while a run is in progress."""
    memo = _RUN_MEMO.get()
    if memo is None:
        return op(*args)
    key = (op, *args)
    out = memo.get(key)
    if out is None:
        out = memo[key] = op(*args)
    return out


def fand(*parts: Formula) -> Formula:
    return _run_memo(_conjoin, *parts)


def for_(*parts: Formula) -> Formula:
    return _run_memo(_disjoin, *parts)


def fnot(f: Formula) -> Formula:
    return _run_memo(_negate, f)


def _conjoin(*parts: Formula) -> Formula:
    return _assoc(parts, TRUE, FALSE, And)


def _disjoin(*parts: Formula) -> Formula:
    return _assoc(parts, FALSE, TRUE, Or)


def _negate(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, BoolLit):
        return BoolLit(f.name, not f.positive)
    if isinstance(f, Cmp):
        if f.op == LE:
            # not(t <= 0)  <=>  t >= 1  <=>  -t + 1 <= 0
            return _cmp(-f.term + IntTerm((), 1), LE)
        return _cmp(f.term, NE if f.op == EQ else EQ)
    if isinstance(f, And):
        return for_(*(fnot(a) for a in f.args))
    if isinstance(f, Or):
        return fand(*(fnot(a) for a in f.args))
    raise TypeError(f"not a formula: {f!r}")


def fimplies(a: Formula, b: Formula) -> Formula:
    return for_(fnot(a), b)


# ---------------------------------------------------------------------------
# substitution / variables / evaluation
# ---------------------------------------------------------------------------

def subst_int(f: Formula, var: str, repl: IntTerm) -> Formula:
    if var not in f.variables:
        return f
    return _run_memo(_subst_int, f, var, repl)


def subst_bool(f: Formula, name: str, repl: Formula) -> Formula:
    if name not in f.variables:
        return f
    return _run_memo(_subst_bool, f, name, repl)


def _subst_int(f: Formula, var: str, repl: IntTerm) -> Formula:
    if isinstance(f, Cmp):
        return _cmp(f.term.subst(var, repl), f.op)
    if isinstance(f, And):
        return fand(*(subst_int(a, var, repl) for a in f.args))
    if isinstance(f, Or):
        return for_(*(subst_int(a, var, repl) for a in f.args))
    return f


def _subst_bool(f: Formula, name: str, repl: Formula) -> Formula:
    if isinstance(f, BoolLit) and f.name == name:
        return repl if f.positive else fnot(repl)
    if isinstance(f, And):
        return fand(*(subst_bool(a, name, repl) for a in f.args))
    if isinstance(f, Or):
        return for_(*(subst_bool(a, name, repl) for a in f.args))
    return f


def int_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Cmp):
        return f.term.vars()
    if isinstance(f, (And, Or)):
        out: frozenset[str] = frozenset()
        for a in f.args:
            out |= int_vars(a)
        return out
    return frozenset()


def bool_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, BoolLit):
        return frozenset({f.name})
    if isinstance(f, (And, Or)):
        out: frozenset[str] = frozenset()
        for a in f.args:
            out |= bool_vars(a)
        return out
    return frozenset()


def feval(f: Formula, state: Mapping[str, object]) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, BoolLit):
        val = bool(state[f.name])
        return val if f.positive else not val
    if isinstance(f, Cmp):
        v = f.term.eval(state)
        if f.op == LE:
            return v <= 0
        if f.op == EQ:
            return v == 0
        return v != 0
    if isinstance(f, And):
        return all(feval(a, state) for a in f.args)
    if isinstance(f, Or):
        return any(feval(a, state) for a in f.args)
    raise TypeError(f"not a formula: {f!r}")


def feval_bits(f: Formula, states: Sequence[Mapping[str, object]]) -> int:
    """The states `f` holds in, as a bitset: bit i is set when `f` holds in
    ``states[i]``.  A variable a state leaves out reads 0 or False, so every
    state is total.  Each node is visited once for all the states."""
    if isinstance(f, And):
        out = (1 << len(states)) - 1
        for a in f.args:
            out &= feval_bits(a, states)
            if not out:
                break
        return out
    if isinstance(f, Or):
        full = (1 << len(states)) - 1
        out = 0
        for a in f.args:
            out |= feval_bits(a, states)
            if out == full:
                break
        return out
    out = 0
    if isinstance(f, Cmp):
        coeffs, const, op = f.term.coeffs, f.term.const, f.op
        for i, state in enumerate(states):
            v = const
            for x, c in coeffs:
                v += c * state.get(x, 0)
            if v <= 0 if op == LE else v == 0 if op == EQ else v != 0:
                out |= 1 << i
        return out
    if isinstance(f, BoolLit):
        for i, state in enumerate(states):
            if bool(state.get(f.name, False)) == f.positive:
                out |= 1 << i
        return out
    if isinstance(f, TrueF):
        return (1 << len(states)) - 1
    if isinstance(f, FalseF):
        return 0
    raise TypeError(f"not a formula: {f!r}")
