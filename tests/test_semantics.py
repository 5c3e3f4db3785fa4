"""Trace semantics: weights, interpretation, backward preconditions, and
trace classification — validated exhaustively against the concrete
interpreter on small state boxes."""

import random
from fractions import Fraction

from probtrace.cfa import Assign, Assume, Nd, Pb, SkipL
from probtrace.formula import (
    FALSE,
    TRUE,
    as_term,
    bvar,
    eq,
    fand,
    feval,
    fnot,
    for_,
    ge,
    ivar,
    le,
    ne,
)
from probtrace.lang import to_pcfa
from probtrace.semantics import (
    NonViolating,
    Violating,
    classify,
    hoare_valid,
    interpret_label,
    interpret_trace,
    path_condition,
    pre_exists,
    pre_exists_chain,
    pre_exists_trace,
    weight,
)
from probtrace.solver import Solver

from helpers import load_program, simplify, wp_demonic_trace

X, Y = ivar("X"), ivar("Y")


def test_weight_counts_probabilistic_labels():
    assert weight(()) == 1
    assert weight((SkipL(), Assume(TRUE))) == 1
    assert weight((Pb(0, "L"),)) == Fraction(1, 2)
    assert weight((Pb(0, "L"), Pb(1, "R"), Nd(0), SkipL())) == Fraction(1, 4)


def test_interpret_label_semantics():
    s = {"X": 1, "B": False}
    assert interpret_label(Assign("X", X + as_term(2)), s)["X"] == 3
    assert interpret_label(Assign("B", fnot(bvar("B"))), s)["B"] is True
    assert interpret_label(Assume(ge(X, 2)), s) is None
    assert interpret_label(Assume(ge(X, 1)), s) == s
    assert interpret_label(Pb(0, "L"), s) == s
    assert interpret_label(Nd(1), s) == s
    assert interpret_label(SkipL(), s) == s
    # input state is never mutated
    out = interpret_label(Assign("X", as_term(9)), s)
    assert s["X"] == 1 and out["X"] == 9


LABEL_POOL = [
    Assign("X", X + as_term(1)),
    Assign("X", X - as_term(1)),
    Assign("X", as_term(0)),
    Assign("X", Y + as_term(1)),
    Assign("Y", X - as_term(2)),
    Assume(ge(X, 0)),
    Assume(le(Y, 1)),
    Assume(ne(X, 2)),
    SkipL(),
    Pb(0, "L"),
    Pb(1, "R"),
]

TARGETS = [eq(X, 0), ge(X, 1), fand(le(X, 2), ge(Y, 0)), ne(Y, 1), TRUE, FALSE]

BOX = [{"X": x, "Y": y} for x in range(-3, 4) for y in range(-3, 4)]


def test_pre_exists_matches_interpreter_exhaustively():
    rng = random.Random(88)
    for _ in range(200):
        trace = tuple(rng.choice(LABEL_POOL) for _ in range(rng.randint(0, 4)))
        phi = rng.choice(TARGETS)
        f = pre_exists_trace(trace, phi)
        for s in BOX:
            end = interpret_trace(trace, s)
            expect = end is not None and feval(phi, end)
            assert feval(f, s) == expect, (trace, phi, s)


def test_wp_demonic_matches_interpreter_exhaustively():
    rng = random.Random(89)
    for _ in range(200):
        trace = tuple(rng.choice(LABEL_POOL) for _ in range(rng.randint(0, 4)))
        phi = rng.choice(TARGETS)
        f = wp_demonic_trace(trace, phi)
        for s in BOX:
            end = interpret_trace(trace, s)
            # demonic: if the run survives it must land in phi
            expect = end is None or feval(phi, end)
            assert feval(f, s) == expect, (trace, phi, s)


def test_pre_exists_single_label_forms():
    assert simplify(pre_exists(Assign("X", as_term(0)), eq(X, 0))) == TRUE
    assert simplify(pre_exists(Assign("X", as_term(1)), eq(X, 0))) == FALSE
    g = pre_exists(Assume(ge(X, 1)), eq(X, 1))
    for s in range(-3, 4):
        assert feval(g, {"X": s}) == (s == 1)


def test_path_condition_includes_the_precondition():
    program, spec = load_program("motivating.prob")
    p = to_pcfa(program)
    labs = {str(l): l for l in p.alphabet}
    trace = (
        labs["X := 0"],
        labs["pb(0,R)"],
        labs["skip"],
        labs["assume C >= 1"],
        labs["pb(1,L)"],
        labs["X := X + 1"],
        labs["C := C - 1"],
        labs["assume C <= 0"],
    )
    pc = path_condition(trace, spec, Solver())
    # one loop iteration that increments X: feasible exactly from C = 1
    for c in range(-2, 5):
        assert feval(pc, {"C": c, "X": 7}) == (c == 1)


def test_classify_violating_and_not(solver):
    program, spec = load_program("motivating.prob")
    p = to_pcfa(program)
    labs = {str(l): l for l in p.alphabet}
    violating = (
        labs["X := 0"],
        labs["pb(0,R)"],
        labs["skip"],
        labs["assume C >= 1"],
        labs["pb(1,L)"],
        labs["X := X + 1"],
        labs["C := C - 1"],
        labs["assume C <= 0"],
    )
    cls = classify(violating, spec, solver)
    assert isinstance(cls, Violating)
    for c in range(-2, 5):
        assert feval(cls.error_pre, {"C": c, "X": 0}) == (c == 1)

    safe = (labs["X := 0"], labs["pb(0,L)"], labs["C := 0"], labs["assume C <= 0"])
    assert isinstance(classify(safe, spec, solver), NonViolating)

    infeasible = (
        labs["X := 0"],
        labs["pb(0,L)"],
        labs["C := 0"],
        labs["assume C >= 1"],
        labs["pb(1,L)"],
        labs["X := X + 1"],
        labs["C := C - 1"],
        labs["assume C <= 0"],
    )
    assert isinstance(classify(infeasible, spec, solver), NonViolating)


def test_hoare_valid_table(solver):
    inc = Assign("X", X + as_term(1))
    assert hoare_valid(eq(X, 0), inc, eq(X, 1), solver)
    assert not hoare_valid(eq(X, 0), inc, eq(X, 0), solver)
    assert hoare_valid(TRUE, Assign("X", as_term(0)), eq(X, 0), solver)
    assert hoare_valid(FALSE, inc, FALSE, solver)
    assert hoare_valid(ge(X, 5), Assume(le(X, 2)), FALSE, solver)
    assert hoare_valid(le(X, 0), SkipL(), le(X, 0), solver)
    assert hoare_valid(le(X, 0), Pb(3, "L"), le(X, 0), solver)
    # coins and tags do not touch the store, so they cannot establish facts
    assert not hoare_valid(TRUE, Pb(3, "L"), le(X, 0), solver)


def test_hoare_valid_randomized_against_interpreter(solver):
    rng = random.Random(90)
    preds = TARGETS + [fand(ge(X, -1), le(X, 2)), eq(Y, 0)]
    for _ in range(120):
        p = rng.choice(preds)
        q = rng.choice(preds)
        lab = rng.choice(LABEL_POOL)
        verdict = hoare_valid(p, lab, q, solver)
        brute = all(
            feval(q, end)
            for s in BOX
            if feval(p, s)
            for end in [interpret_label(lab, s)]
            if end is not None
        )
        # hoare_valid quantifies over all integers, the box only over part:
        # validity implies box-validity; a box counterexample refutes.
        if verdict:
            assert brute, (p, lab, q)


def _random_label(rng):
    """Assignments, assumptions, skip and coins over X, Y and Z, with unit
    coefficients."""
    terms = [X, Y, ivar("Z")]
    kind = rng.randrange(4)
    if kind == 0:
        expr = rng.choice(terms).scale(rng.choice([-1, 1])) + as_term(rng.randint(-2, 2))
        if rng.random() < 0.3:
            expr = as_term(rng.randint(-2, 2))
        return Assign(rng.choice("XYZ"), expr)
    if kind == 1:
        return Assume(_random_atom(rng, terms))
    if kind == 2:
        return SkipL()
    return Pb(rng.randrange(3), rng.choice("LR"))


def _random_atom(rng, terms):
    a, b = rng.sample(terms, 2)
    lhs = a + b.scale(rng.choice([-1, 0, 1]))
    return rng.choice([eq, ne, le, ge])(lhs, rng.randint(-2, 2))


def _random_target(rng):
    terms = [X, Y, ivar("Z")]
    atoms = [_random_atom(rng, terms) for _ in range(rng.randint(1, 3))]
    return rng.choice([fand, for_])(*atoms)


def test_pre_exists_chain_equals_the_plain_folds_seeded():
    # one solver stays warm across the whole sequence, as in one run, so
    # later chains walk steps earlier ones memoized; a fresh one starts
    # empty
    rng = random.Random(2112)
    warm = Solver()
    labels = [_random_label(rng) for _ in range(12)]
    targets = [_random_target(rng) for _ in range(6)]
    for _ in range(150):
        trace = tuple(rng.choice(labels) for _ in range(rng.randint(0, 7)))
        phi = rng.choice(targets)
        want = [pre_exists_trace(trace[k:], phi) for k in range(len(trace) + 1)]
        assert pre_exists_chain(trace, phi, Solver()) == want, (trace, phi)
        assert pre_exists_chain(trace, phi, warm) == want, (trace, phi)
    assert warm.wp_memo
