"""Formula layer: construction, simplification, evaluation, substitution.

Randomized checks treat `feval` over concrete states as ground truth, so
every simplification is validated against brute-force evaluation.
"""

import copy
import dataclasses
import gc
import pickle
import random
import sys
import threading
import weakref
from itertools import product

import pytest

from probtrace import formula
from probtrace.formula import (
    EQ,
    FALSE,
    LE,
    NE,
    TRUE,
    And,
    BoolLit,
    Cmp,
    FalseF,
    Formula,
    IntTerm,
    Or,
    TrueF,
    _absorb_cmps,
    _fact_cmp,
    _key,
    _meet_facts,
    _settle_nested,
    as_term,
    bool_vars,
    bvar,
    cmp_fact,
    eq,
    fand,
    feval,
    feval_bits,
    fimplies,
    fnot,
    for_,
    ge,
    gt,
    int_vars,
    ivar,
    le,
    lt,
    memoizing,
    ne,
    negate_fact,
    subst_bool,
    subst_int,
)

from helpers import BENCH_DIR, DATA_DIR, reference_cmp_fact, reference_formula_key, simplify

X, Y = ivar("X"), ivar("Y")


# ---------------------------------------------------------------------------
# terms


def test_term_arithmetic_and_eval():
    t = X + X - as_term(3)
    assert t.eval({"X": 5}) == 7
    assert (X - X).coeffs == ()
    assert t.subst("X", Y + as_term(1)).eval({"Y": 2}) == 3
    assert as_term("X") == X
    assert as_term(7).const == 7


def test_term_canonical_form():
    assert IntTerm.make({"X": 0, "Y": 2}, 1) == IntTerm((("Y", 2),), 1)
    assert X + Y == Y + X
    assert str(X - Y) in ("X - Y", "X - Y")


# ---------------------------------------------------------------------------
# constructors and simplification identities


def test_boolean_units():
    p = le(X, 3)
    assert fand() == TRUE
    assert for_() == FALSE
    assert simplify(fand(p, TRUE)) == simplify(p)
    assert simplify(for_(p, FALSE)) == simplify(p)
    assert simplify(fand(p, FALSE)) == FALSE
    assert simplify(for_(p, TRUE)) == TRUE
    assert simplify(fnot(fnot(p))) == simplify(p)


def test_complement_collapse():
    p = le(X, 3)
    assert simplify(fand(p, fnot(p))) == FALSE
    assert simplify(for_(p, fnot(p))) == TRUE
    b = bvar("B")
    assert simplify(fand(b, fnot(b))) == FALSE


def test_comparison_negation_is_exact():
    # integer semantics: not (X <= 3)  <=>  X >= 4
    state_hits = [
        (s, feval(fnot(le(X, 3)), {"X": s}), feval(ge(X, 4), {"X": s}))
        for s in range(-6, 7)
    ]
    assert all(a == b for _, a, b in state_hits)
    assert simplify(fnot(le(X, 3))) == simplify(ge(X, 4))
    assert simplify(fnot(eq(X, 0))) == simplify(ne(X, 0))
    assert simplify(fnot(ne(X, 0))) == simplify(eq(X, 0))


def test_interval_absorption_conjunction():
    assert simplify(fand(le(X, 3), le(X, 5))) == simplify(le(X, 3))
    assert simplify(fand(ge(X, 2), le(X, 1))) == FALSE
    assert simplify(fand(ge(X, 2), le(X, 2))) == simplify(eq(X, 2))
    assert simplify(fand(eq(X, 2), eq(X, 3))) == FALSE
    assert simplify(fand(eq(X, 2), le(X, 5))) == simplify(eq(X, 2))
    assert simplify(fand(eq(X, 7), le(X, 5))) == FALSE
    # a disequality at the boundary tightens the bound
    assert simplify(fand(le(X, 3), ne(X, 3))) == simplify(le(X, 2))
    assert simplify(fand(ge(X, 1), le(X, 2), ne(X, 1), ne(X, 2))) == FALSE


def test_interval_absorption_disjunction():
    assert simplify(for_(le(X, 3), le(X, 5))) == simplify(le(X, 5))
    assert simplify(for_(le(X, 2), ge(X, 3))) == TRUE
    assert simplify(for_(le(X, 2), ge(X, 4))) != TRUE
    assert simplify(for_(ne(X, 1), ne(X, 2))) == TRUE
    assert simplify(for_(le(X, 2), eq(X, 3))) == simplify(le(X, 3))


def test_disjunction_of_rays_around_one_point_is_a_disequality():
    # dual of `lb == ub` collapsing into an equality in a conjunction
    assert for_(le(X, 2), ge(X, 4)) == ne(X, 3)
    assert for_(le(X - Y, 2), ge(X - Y, 4), ne(X - Y, 7)) == TRUE


def _random_cmp_atoms(rng: random.Random) -> list:
    """Two to five comparison atoms over one or two linear bases: upper and
    lower bounds (LE of both signs), equalities and disequalities."""
    bases = rng.choice([[{"X": 1}], [{"X": 1, "Y": -2}], [{"X": 1}, {"Y": 1}]])
    atoms = []
    for _ in range(rng.randint(2, 5)):
        t = IntTerm.make(rng.choice(bases), 0)
        atoms.append(rng.choice([le, ge, eq, ne])(t, rng.randint(-3, 3)))
    return atoms


def test_disjunction_is_the_dual_of_conjunction_seeded():
    rng = random.Random(1717)
    collapsed = 0
    for _ in range(1500):
        atoms = _random_cmp_atoms(rng)
        dual = fnot(fand(*(fnot(a) for a in atoms)))
        assert for_(*atoms) == dual, atoms
        collapsed += isinstance(dual, Cmp) and dual.op == NE and all(a.op == LE for a in atoms)
    assert collapsed > 0


def _absorb_cmps_round_trip(cmps, conj):
    """Reference: `_absorb_cmps` reading every comparison as a fact and back,
    lone ones included."""
    groups = {}
    for a in cmps:
        key, kind, bound = cmp_fact(a)
        if not conj:
            kind, bound = negate_fact(kind, bound)
        groups.setdefault(key, {"ub": set(), "lb": set(), "eq": set(), "ne": set()})[kind].add(bound)
    facts = []
    for key, g in groups.items():
        eqs, nes = g["eq"], g["ne"]
        ub = min(g["ub"]) if g["ub"] else None
        lb = max(g["lb"]) if g["lb"] else None
        if len(eqs) > 1:
            return None
        if eqs:
            e = next(iter(eqs))
            if (ub is not None and e > ub) or (lb is not None and e < lb) or e in nes:
                return None
            facts.append((key, "eq", e))
            continue
        while ub in nes or lb in nes:
            if ub in nes:
                ub -= 1
            if lb in nes:
                lb += 1
        if ub is not None and lb is not None:
            if lb > ub:
                return None
            if lb == ub:
                facts.append((key, "eq", lb))
                continue
        if ub is not None:
            facts.append((key, "ub", ub))
        if lb is not None:
            facts.append((key, "lb", lb))
        facts.extend(
            (key, "ne", v) for v in nes if (ub is None or v < ub) and (lb is None or v > lb)
        )
    if conj:
        return [_fact_cmp(*f) for f in facts]
    return [_fact_cmp(key, *negate_fact(kind, bound)) for key, kind, bound in facts]


def test_absorption_matches_the_round_trip_reference_seeded():
    # a comparison alone on its base is kept as the object given; the result
    # is the one reading every atom as a fact and back gives
    rng = random.Random(2727)
    bases = [{"X": 1}, {"Y": 1}, {"X": 1, "Y": -2}, {"X": -1, "Y": 1}, {"X": 2, "Y": 3}]
    kept = 0
    for _ in range(1500):
        atoms = []
        for _ in range(rng.randint(2, 6)):
            t = IntTerm.make(rng.choice(bases), 0)
            atom = rng.choice([le, ge, eq, ne])(t, rng.randint(-3, 3))
            if isinstance(atom, Cmp):
                atoms.append(atom)
        cmps = sorted(set(atoms), key=_key)
        for conj in (True, False):
            got = _absorb_cmps(cmps, conj)
            want = _absorb_cmps_round_trip(cmps, conj)
            assert (got is None) == (want is None), (cmps, conj)
            if got is not None:
                assert sorted(got, key=_key) == sorted(want, key=_key), (cmps, conj)
                lone = [a for a in cmps if [cmp_fact(b)[0] for b in cmps].count(cmp_fact(a)[0]) == 1]
                assert all(any(a is g for g in got) for a in lone)
                kept += len(lone)
    assert kept > 500


def test_meet_of_facts_matches_brute_force_seeded():
    # facts on one base with bounds in -4..4, read on the integers -12..12,
    # past which no fact changes its answer: the meet allows exactly what
    # every fact allows, is None exactly when that is nothing, and depends
    # only on the allowed integers, in the fewest facts any list of them takes
    allows = {
        "ub": lambda v, k: v <= k,
        "lb": lambda v, k: v >= k,
        "eq": lambda v, k: v == k,
        "ne": lambda v, k: v != k,
    }
    states = range(-12, 13)
    rng = random.Random(2828)
    by_set: dict[frozenset, list] = {}
    shortest: dict[frozenset, int] = {}
    for _ in range(4000):
        facts = [
            (rng.choice(list(allows)), rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))
        ]
        want = frozenset(v for v in states if all(allows[k](v, b) for k, b in facts))
        met = _meet_facts(facts)
        assert (met is None) == (not want), facts
        if met is not None:
            assert want == {v for v in states if all(allows[k](v, b) for k, b in met)}, facts
        assert by_set.setdefault(want, met) == met, (facts, met, by_set[want])
        shortest[want] = min(shortest.get(want, len(facts)), len(facts))
    assert all(met is None or len(met) <= shortest[s] for s, met in by_set.items())
    assert len(by_set) > 200, len(by_set)
    assert _meet_facts([("ub", 2), ("ne", 2), ("lb", 1)]) == [("eq", 1)]


def test_a_comparison_keeps_the_fact_it_was_read_as_seeded():
    # every comparison the seeded absorption and meet tests build: the
    # comparisons they draw on five bases, and each drawn fact on each base.
    # `cmp_fact` answers the fact read from the term and sign, and the node
    # keeps it, so a later call returns the same object
    bases = [{"X": 1}, {"Y": 1}, {"X": 1, "Y": -2}, {"X": -1, "Y": 1}, {"X": 2, "Y": 3}]
    rng = random.Random(2727)
    cmps = []
    for _ in range(1500):
        for _ in range(rng.randint(2, 6)):
            t = IntTerm.make(rng.choice(bases), 0)
            atom = rng.choice([le, ge, eq, ne])(t, rng.randint(-3, 3))
            if isinstance(atom, Cmp):
                cmps.append(atom)
    rng = random.Random(2828)
    keys = [cmp_fact(le(IntTerm.make(b, 0), 0))[0] for b in bases]
    for _ in range(4000):
        for _ in range(rng.randint(1, 5)):
            fact = (rng.choice(["ub", "lb", "eq", "ne"]), rng.randint(-4, 4))
            cmps.extend(_fact_cmp(key, *fact) for key in keys)
    kinds = set()
    for a in cmps:
        want = reference_cmp_fact(a)
        first = cmp_fact(a)
        assert first == want, a
        assert cmp_fact(a) is first, a
        assert _fact_cmp(*first) is a
        kinds.add(first[1])
    assert kinds == {"ub", "lb", "eq", "ne"}


def test_absorption_keeps_distinct_axes_apart():
    f = simplify(fand(le(X, 3), le(Y, 3), ge(X, 0)))
    for sx, sy in product(range(-1, 5), repeat=2):
        assert feval(f, {"X": sx, "Y": sy}) == (0 <= sx <= 3 and sy <= 3)


def test_substitution():
    f = fand(le(X, 3), bvar("B"))
    g = subst_int(f, "X", Y + as_term(2))
    assert feval(g, {"Y": 1, "B": True})
    assert not feval(g, {"Y": 2, "B": True})
    h = subst_bool(f, "B", FALSE)
    assert simplify(h) == FALSE


def test_substituting_an_unmentioned_variable_builds_nothing_seeded(monkeypatch):
    rng = random.Random(2728)
    formulas = [_random_built(rng) for _ in range(400)]
    repl = IntTerm.make({"X": 1, "Y": -1}, 2)
    not_c = fnot(bvar("C"))

    def no_build(*args):
        raise AssertionError("built a formula")

    for name in ("_cmp", "_assoc", "_run_memo", "_negate"):
        monkeypatch.setattr(formula, name, no_build)
    memo = {}
    with memoizing(memo):
        for f in formulas:
            assert subst_int(f, "Z", repl) is f
            assert subst_bool(f, "D", bvar("B")) is f
            if "X" not in int_vars(f):
                assert subst_int(f, "X", repl) is f
            if "B" not in bool_vars(f):
                assert subst_bool(f, "B", not_c) is f
    assert not memo


def test_each_node_finds_its_variables_once_seeded():
    rng = random.Random(2729)
    for _ in range(300):
        f = _random_built(rng)
        assert f.variables == int_vars(f) | bool_vars(f)
        assert f.variables is f.variables


def test_var_collection():
    f = fand(le(X + Y, 3), bvar("B"), fnot(bvar("C")))
    assert int_vars(f) == frozenset({"X", "Y"})
    assert bool_vars(f) == frozenset({"B", "C"})


def test_implication():
    f = fimplies(le(X, 2), le(X, 5))
    assert all(feval(f, {"X": s}) for s in range(-8, 9))


# ---------------------------------------------------------------------------
# randomized: simplify is semantics-preserving


def _random_formula(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.15:
            return rng.choice([TRUE, FALSE])
        if kind < 0.3:
            return bvar(rng.choice(["B", "C"]))
        t = IntTerm.make(
            {v: rng.randint(-2, 2) for v in ("X", "Y")}, rng.randint(-3, 3)
        )
        op = rng.choice([le, lt, ge, gt, eq, ne])
        return op(t, rng.randint(-3, 3))
    kind = rng.random()
    if kind < 0.4:
        return fand(*(_random_formula(rng, depth - 1) for _ in range(2)))
    if kind < 0.8:
        return for_(*(_random_formula(rng, depth - 1) for _ in range(2)))
    return fnot(_random_formula(rng, depth - 1))


STATES = [
    {"X": x, "Y": y, "B": b, "C": c}
    for x in range(-3, 4)
    for y in (-2, 0, 2)
    for b in (False, True)
    for c in (False, True)
]


def test_simplify_preserves_semantics_randomized():
    rng = random.Random(20250819)
    for _ in range(300):
        f = _random_formula(rng)
        g = simplify(f)
        for s in STATES:
            assert feval(f, s) == feval(g, s), f"{f}  vs  {g}  at {s}"


def test_bitset_evaluation_matches_feval_on_partial_states_randomized():
    # a variable a state leaves out reads 0 or False
    rng = random.Random(1616)
    states = [{k: v for k, v in s.items() if rng.random() < 0.7} for s in STATES]
    for _ in range(300):
        f = _random_formula(rng)
        bits = feval_bits(f, states)
        for i, s in enumerate(states):
            total = {"X": 0, "Y": 0, "B": False, "C": False, **s}
            assert (bits >> i & 1) == feval(f, total), f"{f} at {s}"
        assert bits >> len(states) == 0
    assert feval_bits(TRUE, []) == feval_bits(FALSE, states) == 0


def test_simplify_idempotent_randomized():
    rng = random.Random(991)
    for _ in range(200):
        g = simplify(_random_formula(rng))
        assert simplify(g) == g


def _random_built(rng: random.Random, depth: int = 3):
    """A formula built only through the smart constructors and substitution.
    Terms often share a linear base, so interval absorption gets exercised."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.2:
            return bvar(rng.choice(["B", "C"]))
        base = rng.choice([{"X": 1}, {"Y": 1}, {"X": 1, "Y": 1}, {"X": -2}, None])
        if base is None:
            base = {v: rng.randint(-3, 3) for v in ("X", "Y")}
        t = IntTerm.make(base, rng.randint(-3, 3))
        return rng.choice([le, lt, eq, ne])(t, rng.randint(-3, 3))
    kind = rng.random()
    if kind < 0.3:
        return fand(*(_random_built(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind < 0.6:
        return for_(*(_random_built(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind < 0.75:
        return fnot(_random_built(rng, depth - 1))
    if kind < 0.9:
        repl = IntTerm.make({v: rng.randint(-2, 2) for v in ("X", "Y")}, rng.randint(-3, 3))
        return subst_int(_random_built(rng, depth - 1), rng.choice("XY"), repl)
    return subst_bool(
        _random_built(rng, depth - 1), rng.choice("BC"), _random_built(rng, depth - 1)
    )


def test_constructor_output_is_canonical_randomized():
    # the solver facade and the Hoare layer use constructor output as built,
    # which is sound only while simplify leaves it unchanged
    rng = random.Random(4404)
    for _ in range(2500):
        f = _random_built(rng)
        assert simplify(f) == f, f"{f}  simplifies to  {simplify(f)}"


def _assoc_testing_every_complement(parts, unit, zero, node):
    """Reference: `_assoc` with a complement test on every boolean literal
    and comparison, made before `_absorb_cmps` sees the comparisons, and
    the same step that settles nested atoms under the arguments' own."""
    flat = []
    for p in parts:
        if p == zero:
            return zero
        if p == unit:
            continue
        if isinstance(p, node):
            flat.extend(p.args)
        else:
            flat.append(p)
    seen = {}
    for p in flat:
        seen.setdefault(_key(p), p)
    items = [seen[k] for k in sorted(seen)]
    keys = set(seen)
    for p in items:
        if isinstance(p, (BoolLit, Cmp)) and _key(fnot(p)) in keys:
            return zero
    cmps = [p for p in items if isinstance(p, Cmp)]
    if len(cmps) > 1:
        absorbed = _absorb_cmps(cmps, conj=node is And)
        if absorbed is None:
            return zero
        rest = [p for p in items if not isinstance(p, Cmp)]
        merged = {_key(p): p for p in rest + absorbed}
        items = [merged[k] for k in sorted(merged)]
    if not items:
        return unit
    if len(items) == 1:
        return items[0]
    settled = _settle_nested(items, node is And)
    if settled is not items:
        return _assoc_testing_every_complement(settled, unit, zero, node)
    return node(tuple(items))


def _random_args(rng: random.Random) -> list:
    """Arguments for one `fand`/`for_` call: comparisons on a few linear
    bases, several with a negative leading coefficient, often next to their
    complement, among literals, units and built formulas."""
    out = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.6:
            base = rng.choice([{"X": -1}, {"X": -2, "Y": 1}, {"X": 1, "Y": -1}, {"Y": 3}])
            t = IntTerm.make(base, rng.randint(-3, 3))
            atom = rng.choice([le, eq, ne])(t, rng.randint(-3, 3))
            out.append(atom)
            if rng.random() < 0.4:
                out.append(fnot(atom))
        elif kind < 0.75:
            out.append(rng.choice([bvar("B"), fnot(bvar("B")), bvar("C")]))
        elif kind < 0.85:
            out.append(rng.choice([TRUE, FALSE]))
        else:
            out.append(_random_built(rng, 2))
    rng.shuffle(out)
    return out


def test_constructors_match_the_every_complement_reference_seeded():
    # comparisons need no complement test of their own: `_absorb_cmps`
    # turns a complementary pair on one base into the absorbing element
    rng = random.Random(1414)
    complementary = 0
    for _ in range(4000):
        args = _random_args(rng)
        keys = {_key(a) for a in args}
        complementary += any(
            isinstance(a, Cmp) and _key(fnot(a)) in keys for a in args
        )
        assert fand(*args) == _assoc_testing_every_complement(args, TRUE, FALSE, And), args
        assert for_(*args) == _assoc_testing_every_complement(args, FALSE, TRUE, Or), args
    assert complementary > 1000


def test_a_nested_atom_that_its_siblings_decide_is_settled():
    T = ivar("T")
    # walk_ok's first violating proposition: X = 0 implies X >= 0
    assert fand(eq(T, 3), eq(X, 0), for_(ge(X, 0), le(X, -6))) is fand(eq(T, 3), eq(X, 0))
    # T = 1 contradicts T != 1, so the disjunction becomes the unit X = 0,
    # which the step, run again, finds contradicting both X >= 2 and X <= -4
    assert fand(eq(T, 1), for_(ne(T, 1), eq(X, 0)), for_(ge(X, 2), le(X, -4))) is FALSE
    # a disjunction's atoms, negated, decide its nested conjunctions
    assert for_(ne(T, 1), fand(eq(T, 1), eq(X, 0))) is for_(ne(T, 1), eq(X, 0))
    assert for_(le(X, 0), fand(ge(X, 1), le(Y, 0))) is for_(le(X, 0), le(Y, 0))
    # literals, and atoms under a nested conjunction of a nested disjunction
    B, C = bvar("B"), bvar("C")
    assert fand(B, for_(fnot(B), eq(X, 0))) is fand(B, eq(X, 0))
    assert fand(B, for_(B, eq(X, 0))) is B
    assert for_(B, fand(fnot(B), le(X, 0))) is for_(B, le(X, 0))
    assert fand(le(X, 0), for_(C, fand(ge(X, 1), B))) is fand(le(X, 0), C)
    # undecided atoms stay: X <= 2 neither implies nor contradicts X >= 1
    f = fand(le(X, 2), for_(ge(X, 1), B))
    assert isinstance(f, And) and len(f.args) == 2


def test_constructors_settle_nested_atoms_under_their_siblings_seeded(monkeypatch):
    # arguments with nested conjunctions and disjunctions beside units on
    # the same bases and literals: the result means the conjunction
    # (disjunction) of the arguments, is canonical, and is the same object
    # whatever the order and association of the arguments
    rng = random.Random(3401)
    built = []
    for _ in range(1200):
        args = _random_args(rng) + [_random_built(rng, 2) for _ in range(rng.randint(1, 2))]
        for op, combine in ((fand, all), (for_, any)):
            f = op(*args)
            built.append((op, args, f))
            assert simplify(f) is f, (op.__name__, [str(a) for a in args], str(f))
            for s in STATES:
                assert feval(f, s) == combine(feval(a, s) for a in args), (str(f), s)
            for _ in range(2):
                shuffled = rng.sample(args, len(args))
                k = rng.randint(0, len(args))
                assert op(*shuffled) is f
                assert op(op(*shuffled[:k]), *shuffled[k:]) is f
                assert op(*shuffled[:k], op(*shuffled[k:])) is f
    # the step decided a nested atom in a good share of the calls
    monkeypatch.setattr(formula, "_settle_nested", lambda items, conj: items)
    settled = sum(op(*args) is not f for op, args, f in built)
    assert settled > 100, settled


def test_simplify_orders_deterministically():
    f1 = fand(le(X, 3), bvar("B"), ge(Y, 0))
    f2 = fand(ge(Y, 0), bvar("B"), le(X, 3))
    assert simplify(f1) == simplify(f2)
    assert str(simplify(f1)) == str(simplify(f2))


def test_negative_weight_rendering_roundtrip():
    # rendering uses comparison surface syntax that the parser accepts back
    from probtrace.lang import parse_formula

    rng = random.Random(7)
    sorts = {"X": "int", "Y": "int", "B": "bool", "C": "bool"}
    for _ in range(200):
        f = simplify(_random_formula(rng))
        g = parse_formula(str(f), sorts)
        for s in STATES:
            assert feval(f, s) == feval(g, s), f"{f} reparsed as {g}"


def test_a_comparison_reads_as_a_fact_on_its_base():
    # (base, kind, bound) holds exactly where the comparison does, builds
    # the same node back, and its arithmetic negation builds `fnot` of it
    x, y = ivar("X"), ivar("Y")
    states = [{"X": a, "Y": b} for a in range(-6, 7) for b in range(-6, 7)]
    holds = {
        "ub": lambda v, k: v <= k,
        "lb": lambda v, k: v >= k,
        "eq": lambda v, k: v == k,
        "ne": lambda v, k: v != k,
    }
    kinds = set()
    for t in (x, -x, x - y, y - x, x.scale(2) + y.scale(3), x.scale(2) - y.scale(4)):
        for op in (le, lt, ge, gt, eq, ne):
            for k in range(-3, 4):
                a = op(t, k)
                if not isinstance(a, Cmp):
                    continue
                base, kind, bound = cmp_fact(a)
                assert base[0][1] > 0
                value = IntTerm(base, 0)
                assert all(
                    holds[kind](value.eval(s), bound) == feval(a, s) for s in states
                ), (str(a), kind, bound)
                assert _fact_cmp(base, kind, bound) == a
                assert _fact_cmp(base, *negate_fact(kind, bound)) == fnot(a)
                kinds.add(kind)
    assert kinds == {"ub", "lb", "eq", "ne"}


# ---------------------------------------------------------------------------
# hash-consed nodes

NODE_CLASSES = (TrueF, FalseF, BoolLit, Cmp, And, Or)
X_LE_3 = Cmp(IntTerm((("X", 1),), -3), LE)
SAMPLES = (
    TRUE,
    FALSE,
    bvar("B"),
    fnot(bvar("B")),
    X_LE_3,
    fand(X_LE_3, bvar("B")),
    for_(X_LE_3, eq(Y, 1)),
    fand(for_(X_LE_3, bvar("C")), ne(X + Y, 2)),
)


def test_equal_constructions_give_one_formula():
    term = IntTerm.make({"X": 1}, -3)
    assert le(X, 3) is X_LE_3 is Cmp(term, LE) is Cmp(term=term, op=LE) is Cmp(term, op=LE)
    assert TrueF() is TRUE and FalseF() is FALSE
    assert BoolLit(name="B", positive=False) is fnot(bvar("B")) is BoolLit("B", False)
    conj = fand(X_LE_3, bvar("B"))
    assert conj is fand(bvar("B"), le(X, 3)) is And((bvar("B"), X_LE_3)) is And(args=conj.args)
    assert for_(X_LE_3, eq(Y, 1)) is Or((X_LE_3, eq(Y, 1)))
    assert le(X, 3) is not le(X, 4)
    assert And(conj.args) is not Or(conj.args)


def test_formula_construction_checks_its_arguments():
    for bad in (
        lambda: BoolLit("B"),
        lambda: BoolLit("B", True, 1),
        lambda: BoolLit("B", True, name="B"),
        lambda: Cmp(X, op=LE, side=1),
        lambda: TrueF(1),
        lambda: And(),
    ):
        with pytest.raises(TypeError):
            bad()


def test_copies_of_a_formula_are_the_formula():
    for f in SAMPLES:
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f
        assert dataclasses.replace(f) is f
    assert dataclasses.replace(X_LE_3, op=EQ) is eq(X, 3)
    assert dataclasses.replace(bvar("B"), positive=False) is fnot(bvar("B"))


def test_formulas_stay_frozen():
    for f in SAMPLES:
        for field in dataclasses.fields(f):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(f, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.sort_key = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        TRUE.extra = 1
    assert X_LE_3.term == IntTerm((("X", 1),), -3)


def test_formulas_compare_and_hash_by_identity():
    for cls in NODE_CLASSES:
        assert issubclass(cls, Formula)
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__
    assert repr(X_LE_3) == "Cmp(term=IntTerm(coeffs=(('X', 1),), const=-3), op='<=')"
    assert repr(fand(X_LE_3, bvar("B"))) == f"And(args=(BoolLit(name='B', positive=True), {X_LE_3!r}))"
    assert str(fand(for_(X_LE_3, bvar("C")), ne(X + Y, 2))) == "X + Y != 2 && (C || X <= 3)"


def test_each_node_stores_its_key_in_the_formula_order_randomized():
    rng = random.Random(4405)
    for _ in range(300):
        f = _random_built(rng)
        assert f.sort_key == reference_formula_key(f), str(f)
        assert _key(f) is f.sort_key


def test_a_formula_no_one_holds_leaves_the_table():
    key = (BoolLit, "Unheld987654", True)
    ref = weakref.ref(bvar("Unheld987654"))
    gc.collect()
    assert ref() is None
    assert key not in formula._TABLE
    f = bvar("Unheld987654")
    assert formula._TABLE[key] is f
    assert BoolLit(name="Unheld987654", positive=True) is f


def test_threads_building_equal_formulas_get_one_object():
    # a lost race in the table would hand two threads two equal formulas
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    built = [None] * 4
    try:
        def build(i):
            built[i] = [fand(le(X, 500_000 + k), bvar(f"T{k}")) for k in range(2_000)]

        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(built))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for fs in built[1:]:
        assert all(a is b and a.args[1] is b.args[1] for a, b in zip(fs, built[0], strict=True))


def test_the_run_memo_changes_no_constructor_output_randomized(monkeypatch):
    # the generator of test_constructor_output_is_canonical_randomized builds
    # the same objects inside a run as outside one, `fnot`, `subst_int` and
    # `subst_bool` included; built twice in one run, every `fand`/`for_` and
    # tree operation of the second time is answered by the memo, so no tree
    # is walked
    outside = [_random_built(rng) for rng in [random.Random(4404)] for _ in range(2500)]
    memo = {}
    with memoizing(memo):
        inside = [_random_built(rng) for rng in [random.Random(4404)] for _ in range(2500)]
        assert all(simplify(f) is f for f in inside)
        ops = {formula._conjoin, formula._disjoin, formula._negate}
        assert {key[0] for key in memo} == ops | {formula._subst_int, formula._subst_bool}
        entries = len(memo)  # a tree operation walks only on a miss, which adds an entry
        builds = []
        assoc = formula._assoc

        def counted(*args):
            builds.append(args[3])
            return assoc(*args)

        monkeypatch.setattr(formula, "_assoc", counted)
        again = [_random_built(rng) for rng in [random.Random(4404)] for _ in range(2500)]
    assert formula._RUN_MEMO.get() is None
    assert len(memo) == entries and not builds
    assert all(a is b is c for a, b, c in zip(outside, inside, again, strict=True))


def test_printed_formulas_parse_back_to_themselves():
    # the certificate loader reads propositions this way; each parse builds
    # through the constructors, so it must find the one canonical node
    from probtrace.lang import parse, parse_formula, to_pcfa

    for path in sorted(BENCH_DIR.glob("*.prob")) + [DATA_DIR / "motivating.prob"]:
        program, spec = parse(path.read_text())
        sorts = dict(program.declarations)
        conds = [lab.cond for lab in to_pcfa(program).alphabet if hasattr(lab, "cond")]
        for f in [spec.pre, spec.post, *conds]:
            assert parse_formula(str(f), sorts) is f, (path.name, str(f))
    rng = random.Random(4406)
    sorts = {"X": "int", "Y": "int", "B": "bool", "C": "bool"}
    for _ in range(300):
        f = _random_built(rng)
        assert parse_formula(str(f), sorts) is f, str(f)
