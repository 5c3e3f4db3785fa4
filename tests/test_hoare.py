"""Trace generalization: proposition-annotated automata whose every edge is
a valid Hoare triple, built from a single classified trace."""

import random

import pytest

import probtrace.solver as solver_module
from probtrace import formula, hoare
from probtrace.cfa import PCFA, intersect
from probtrace.formula import (
    FALSE,
    TRUE,
    bvar,
    eq,
    fand,
    feval,
    fnot,
    for_,
    ge,
    ivar,
    le,
)
from probtrace.hoare import (
    FloydHoareAutomaton,
    _chain,
    check_floyd_hoare,
    generalize_nonviolating,
    generalize_violating,
    saturate_edges,
)
from probtrace.lang import parse_label, to_pcfa
from probtrace.semantics import (
    classify,
    hoare_valid,
    path_condition,
    pre_exists,
)
from probtrace.solver import Solver

from helpers import enumerate_traces, load_program, simplify, total_state, wp_demonic_trace

X = ivar("X")
C = ivar("C")


@pytest.fixture(scope="module")
def motivating():
    program, spec = load_program("motivating.prob")
    return program, spec, to_pcfa(program)


SORTS = {"X": "int", "C": "int"}


def lab(text):
    return parse_label(text, SORTS)


VIOLATING = tuple(
    lab(s)
    for s in [
        "X := 0",
        "pb(0,R)",
        "skip",
        "assume C >= 1",
        "pb(1,L)",
        "X := X + 1",
        "C := C - 1",
        "assume C <= 0",
    ]
)
NONVIOLATING = tuple(
    lab(s) for s in ["X := 0", "pb(0,L)", "C := 0", "assume C <= 0"]
)
INFEASIBLE = tuple(
    lab(s)
    for s in [
        "X := 0",
        "pb(0,L)",
        "C := 0",
        "assume C >= 1",
        "pb(1,R)",
        "skip",
        "C := C - 1",
        "assume C <= 0",
    ]
)


# ---------------------------------------------------------------------------
# the invariant checker itself


def test_check_accepts_a_valid_annotation(solver):
    base = PCFA({(0, lab("X := 0"), 1), (1, lab("X := X + 1"), 2)}, 0, 2)
    fha = FloydHoareAutomaton(base, {0: TRUE, 1: eq(X, 0), 2: eq(X, 1)})
    assert check_floyd_hoare(fha, solver)


def test_check_rejects_a_broken_triple(solver):
    base = PCFA({(0, lab("X := X + 1"), 1)}, 0, 1)
    fha = FloydHoareAutomaton(base, {0: eq(X, 0), 1: eq(X, 0)})
    assert not check_floyd_hoare(fha, solver)


def test_check_rejects_missing_propositions(solver):
    base = PCFA({(0, lab("skip"), 1)}, 0, 1)
    fha = FloydHoareAutomaton(base, {0: TRUE})
    assert not check_floyd_hoare(fha, solver)


# ---------------------------------------------------------------------------
# merging and saturation


def test_merge_quotients_equal_propositions():
    merged = _chain([eq(X, 0), fand(le(X, 0), ge(X, 0)), FALSE], [lab("skip"), lab("skip")])
    # locations 0 and 1 carry the same simplified proposition
    assert len(merged.base.locations) == 2
    # the quotient gains the self-loop, keeping the original trace
    assert merged.base.accepts((lab("skip"), lab("skip")))
    assert merged.base.accepts((lab("skip"),))


def test_merge_preserves_validity(solver):
    merged = _chain([TRUE, eq(X, 0), fand(ge(X, 0), le(X, 0))], [lab("X := 0"), lab("skip")])
    assert check_floyd_hoare(merged, solver)
    assert len(merged.base.locations) == 2


def test_saturate_adds_only_valid_edges(solver):
    base = PCFA({(0, lab("X := 0"), 1)}, 0, 1)
    fha = FloydHoareAutomaton(base, {0: TRUE, 1: eq(X, 0)})
    alphabet = [lab("X := 0"), lab("X := X + 1"), lab("skip"), lab("pb(0,L)")]
    fat = saturate_edges(fha, alphabet, solver)
    assert check_floyd_hoare(fat, solver)
    trans = fat.base.transitions
    # skip and coins preserve X = 0; the increment must not loop at 1
    assert (1, lab("skip"), 1) in trans
    assert (1, lab("pb(0,L)"), 1) in trans
    assert (1, lab("X := X + 1"), 1) not in trans
    # anything re-establishes X = 0 by assigning zero
    assert (0, lab("X := 0"), 1) in trans
    assert (1, lab("X := 0"), 1) in trans


def test_saturate_is_idempotent(solver):
    base = PCFA({(0, lab("X := 0"), 1)}, 0, 1)
    fha = FloydHoareAutomaton(base, {0: TRUE, 1: eq(X, 0)})
    alphabet = [lab("X := 0"), lab("skip"), lab("X := X + 1")]
    once = saturate_edges(fha, alphabet, solver)
    twice = saturate_edges(once, alphabet, solver)
    assert once.base.transitions == twice.base.transitions


SAT_SORTS = {"X": "int", "Y": "int", "Z": "int", "B": "bool"}
PROP_POOL = [
    TRUE,
    FALSE,
    eq(X, 0),
    le(X, 1),
    ge(ivar("Y"), 2),
    fand(eq(X, 0), ge(ivar("Y"), 0)),
    for_(bvar("B"), le(X, -1)),
    bvar("B"),
]
LABEL_POOL = [
    parse_label(text, SAT_SORTS)
    for text in [
        "skip",
        "pb(0,L)",
        "pb(0,R)",
        "pb(1,L)",
        "nd(0)",
        "nd(1)",
        "X := 0",
        "X := X + 1",
        "Y := X",
        "Z := Z + 1",
        "B := X >= 0",
        "assume X >= 1",
        "assume B",
    ]
]


def _saturate_naive(fha, alphabet, solver):
    labels = set(alphabet) | set(fha.base.alphabet)
    locs = fha.base.locations
    return set(fha.base.transitions) | {
        (s, lab, t)
        for s in locs
        for lab in labels
        for t in locs
        if hoare_valid(fha.lam[s], lab, fha.lam[t], solver)
    }


def _random_fha(rng):
    n = rng.randint(1, 4)
    edges = {
        (rng.randrange(n), rng.choice(LABEL_POOL), rng.randrange(n))
        for _ in range(rng.randint(0, 3))
    }
    base = PCFA(edges, 0, n - 1, locations=set(range(n)))
    return FloydHoareAutomaton(base, {l: rng.choice(PROP_POOL) for l in range(n)})


def test_saturate_matches_the_per_triple_check_randomized(solver):
    rng = random.Random(2013)
    for _ in range(60):
        fha = _random_fha(rng)
        alphabet = rng.sample(LABEL_POOL, rng.randint(1, len(LABEL_POOL)))
        fat = saturate_edges(fha, alphabet, solver)
        assert fat.base.transitions == _saturate_naive(fha, alphabet, solver)
        assert fat.lam == fha.lam


def test_saturate_asks_one_query_per_weakest_precondition(solver, monkeypatch):
    # skip and both coin sides leave every proposition unchanged, so for each
    # (source, target) pair they share one query
    calls = []
    is_sat = solver.is_sat
    monkeypatch.setattr(solver, "is_sat", lambda f: calls.append(f) or is_sat(f))
    base = PCFA({(0, lab("X := 0"), 1), (1, lab("X := X + 1"), 2)}, 0, 2)
    fha = FloydHoareAutomaton(base, {0: TRUE, 1: eq(X, 0), 2: ge(X, 1)})
    alphabet = [lab(s) for s in ["skip", "pb(0,L)", "pb(0,R)", "X := 0", "X := X + 1"]]
    fat = saturate_edges(fha, alphabet, solver)
    locs = fha.base.locations
    groups = sum(
        len({pre_exists(a, fnot(fha.lam[t])) for a in alphabet}) for t in locs
    )
    assert groups == 7
    assert len(calls) <= len(locs) * groups
    monkeypatch.undo()
    assert fat.base.transitions == _saturate_naive(fha, alphabet, solver)


def _count_decisions(monkeypatch, solver):
    """Count `solver.is_sat` and `hoare.pre_exists` calls from here on."""
    calls = {"is_sat": 0, "pre_exists": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(solver, "is_sat", counted("is_sat", solver.is_sat))
    monkeypatch.setattr(hoare, "pre_exists", counted("pre_exists", hoare.pre_exists))
    return calls


def test_saturate_decides_each_triple_once_per_solver(monkeypatch):
    solver = Solver()
    base = PCFA({(0, lab("X := 0"), 1), (1, lab("X := X + 1"), 2)}, 0, 2)
    fha = FloydHoareAutomaton(base, {0: TRUE, 1: eq(X, 0), 2: ge(X, 1)})
    alphabet = [lab(s) for s in ["skip", "pb(0,L)", "X := 0", "X := X + 1", "C := 0"]]
    first = saturate_edges(fha, alphabet, solver)
    calls = _count_decisions(monkeypatch, solver)
    again = saturate_edges(fha, alphabet, solver)
    assert calls == {"is_sat": 0, "pre_exists": 0}
    assert again.base.transitions == first.base.transitions
    assert again.lam == first.lam


def test_saturate_with_memo_matches_the_per_triple_check_seeded():
    # one solver for the whole sequence, as in one run; the reference asks a
    # separate solver, so no answer it gives comes from the memo
    rng = random.Random(2014)
    solver, reference = Solver(), Solver()
    for _ in range(80):
        fha = _random_fha(rng)
        alphabet = rng.sample(LABEL_POOL, rng.randint(1, len(LABEL_POOL)))
        fat = saturate_edges(fha, alphabet, solver)
        assert fat.base.transitions == _saturate_naive(fha, alphabet, reference)
        assert fat.lam == fha.lam
    assert solver.triple_memo and solver.wp_memo


def test_a_fresh_solver_starts_with_empty_memos(monkeypatch):
    base = PCFA({(0, lab("X := 0"), 1)}, 0, 1)
    fha = FloydHoareAutomaton(base, {0: TRUE, 1: eq(X, 0)})
    alphabet = [lab("X := 0"), lab("skip"), lab("X := X + 1")]
    first = saturate_edges(fha, alphabet, Solver())
    fresh = Solver()
    assert not fresh.wp_memo and not fresh.triple_memo
    assert not fresh.bits
    calls = _count_decisions(monkeypatch, fresh)
    again = saturate_edges(fha, alphabet, fresh)
    assert calls["is_sat"] > 0 and calls["pre_exists"] > 0
    assert again.base.transitions == first.base.transitions


def _count_asked(monkeypatch, solver):
    """Record each `solver.is_sat` query with the witnesses stored when it
    was asked."""
    asked = []
    is_sat = solver.is_sat
    monkeypatch.setattr(
        solver, "is_sat", lambda f: asked.append((f, list(solver.witnesses))) or is_sat(f)
    )
    return asked


def test_a_triple_a_stored_witness_refutes_asks_nothing(monkeypatch):
    solver = Solver()
    assert solver.is_sat(eq(X, 0)) and solver.witnesses == [{"X": 0}]
    base = PCFA({(0, lab("X := X + 1"), 1)}, 0, 1)
    fha = FloydHoareAutomaton(base, {0: le(X, 0), 1: ge(X, 1)})
    alphabet = [lab(s) for s in ["skip", "X := 0", "X := X + 1"]]
    asked = _count_asked(monkeypatch, solver)
    fat = saturate_edges(fha, alphabet, solver)
    # from X <= 0 into X >= 1, skip and X := 0 both fail in the state X = 0,
    # so their query X <= 0 is never asked
    assert solver.witness_refutations >= 2
    assert le(X, 0) not in [f for f, _ in asked]
    assert solver.triple_memo[le(X, 0), le(X, 0)] is False
    assert len(asked) == len(solver.triple_memo) - solver.witness_refutations
    monkeypatch.undo()
    assert fat.base.transitions == _saturate_naive(fha, alphabet, Solver())


def test_saturate_asks_nothing_a_stored_witness_answers_seeded(monkeypatch):
    # one solver for the whole sequence, as in one run: no query saturation
    # asks holds in a witness stored before it, and the edges are those a
    # separate solver finds triple by triple
    rng = random.Random(2016)
    solver, reference = Solver(), Solver()
    asked = _count_asked(monkeypatch, solver)
    for _ in range(80):
        fha = _random_fha(rng)
        alphabet = rng.sample(LABEL_POOL, rng.randint(1, len(LABEL_POOL)))
        fat = saturate_edges(fha, alphabet, solver)
        assert fat.base.transitions == _saturate_naive(fha, alphabet, reference)
    for f, witnesses in asked:
        assert not any(feval(f, total_state(f, w)) for w in witnesses), f
    assert solver.witness_refutations > 0 and len(solver.witnesses) > 1
    assert len(asked) == len(solver.triple_memo) - solver.witness_refutations


def test_saturate_evaluates_each_proposition_on_each_witness_once_per_run(monkeypatch):
    solver = Solver()
    for f in [eq(X, 0), ge(X, 3), fand(eq(X, 1), eq(C, 2))]:
        assert solver.is_sat(f)
    evaluated = []
    feval_bits = solver_module.feval_bits

    def recorded(f, states):
        evaluated.extend((f, id(w)) for w in states)
        return feval_bits(f, states)

    monkeypatch.setattr(solver_module, "feval_bits", recorded)
    alphabet = [lab(s) for s in ["skip", "X := 0", "X := X + 1", "C := C + 1"]]
    # the two automata share le(X, 0) and ge(X, 1), built afresh for each
    first = FloydHoareAutomaton(
        PCFA({(0, lab("X := X + 1"), 1)}, 0, 1), {0: le(X, 0), 1: ge(X, 1)}
    )
    second = FloydHoareAutomaton(
        PCFA({(0, lab("skip"), 1), (1, lab("C := C + 1"), 2)}, 0, 2),
        {0: ge(X, 1), 1: le(X, 0), 2: eq(C, 2)},
    )
    saturate_edges(first, alphabet, solver)
    seen = len(evaluated)
    saturate_edges(second, alphabet, solver)
    assert 0 < seen < len(evaluated)
    assert len(evaluated) == len(set(evaluated))


def test_saturate_negates_each_target_once_per_run(monkeypatch):
    # the two automata share le(X, 0) and ge(X, 1), built afresh for each;
    # inside one run the formula memo answers every negation after its first
    solver, reference = Solver(), Solver()
    negated = []
    negate = formula._negate

    def recorded(f):
        negated.append(f)
        return negate(f)

    monkeypatch.setattr(formula, "_negate", recorded)
    alphabet = [lab(s) for s in ["skip", "X := 0", "X := X + 1"]]
    first = FloydHoareAutomaton(
        PCFA({(0, lab("X := X + 1"), 1)}, 0, 1), {0: le(X, 0), 1: ge(X, 1)}
    )
    second = FloydHoareAutomaton(
        PCFA({(0, lab("skip"), 1), (1, lab("X := 0"), 2)}, 0, 2),
        {0: ge(X, 1), 1: le(X, 0), 2: eq(X, 0)},
    )
    with solver.run():
        fats = [saturate_edges(fha, alphabet, solver) for fha in (first, second)]
    monkeypatch.undo()
    for fha, fat in zip((first, second), fats):
        assert fat.base.transitions == _saturate_naive(fha, alphabet, reference)
    assert len(negated) == len(set(negated))
    assert {le(X, 0), ge(X, 1), eq(X, 0)} <= set(negated)


# ---------------------------------------------------------------------------
# generalizing trustworthy traces


def test_nonviolating_rejects_violating_seed(motivating, solver):
    _, spec, _ = motivating
    with pytest.raises(ValueError, match="satisf"):
        generalize_nonviolating(VIOLATING, spec, [], solver)


def test_nonviolating_generalization_is_sound(motivating, solver):
    program, spec, p = motivating
    fha = generalize_nonviolating(NONVIOLATING, spec, p.alphabet, solver)
    assert check_floyd_hoare(fha, solver)
    assert fha.base.accepts(NONVIOLATING)
    # every program trace the generalization accepts satisfies the contract
    covered = intersect(fha.base, p)
    for tr in enumerate_traces(covered, 10):
        assert classify(tr, spec, solver) is None, tr


def test_infeasible_trace_gets_false_accepting(motivating, solver):
    _, spec, p = motivating
    assert classify(INFEASIBLE, spec, solver) is None
    fha = generalize_nonviolating(INFEASIBLE, spec, p.alphabet, solver)
    assert check_floyd_hoare(fha, solver)
    assert fha.base.accepts(INFEASIBLE)
    assert simplify(fha.lam[fha.base.accepting]) == FALSE
    covered = intersect(fha.base, p)
    for tr in enumerate_traces(covered, 10):
        assert classify(tr, spec, solver) is None, tr


def test_empty_trace_generalizes_when_pre_entails_post(solver):
    from probtrace.lang import Specification
    from fractions import Fraction

    spec = Specification(pre=eq(X, 0), post=le(X, 0), beta=Fraction(1, 2))
    fha = generalize_nonviolating((), spec, [lab("skip")], solver)
    assert check_floyd_hoare(fha, solver)
    assert fha.base.accepts(())


# ---------------------------------------------------------------------------
# generalizing violations


def test_violating_rejects_nonviolating_seed(motivating, solver):
    _, spec, _ = motivating
    with pytest.raises(ValueError, match="violate"):
        generalize_violating(NONVIOLATING, spec, [], solver)


def test_violating_head_is_the_exact_violation_precondition(motivating, solver):
    _, spec, p = motivating
    fha = generalize_violating(VIOLATING, spec, p.alphabet, solver)
    assert check_floyd_hoare(fha, solver)
    assert fha.base.accepts(VIOLATING)
    head = simplify(fha.lam[fha.base.initial])
    want = path_condition(VIOLATING, spec, Solver())
    assert solver.equivalent(head, want)
    # the one-iteration violation demands exactly one loop traversal left
    assert solver.equivalent(head, eq(C, 1))


def test_violating_accepted_traces_end_badly_from_head_states(motivating, solver):
    _, spec, p = motivating
    fha = generalize_violating(VIOLATING, spec, p.alphabet, solver)
    head = fha.lam[fha.base.initial]
    bad = simplify(fnot(spec.post))
    covered = intersect(fha.base, p)
    seen_violation = False
    for tr in enumerate_traces(covered, 10):
        # edge-wise validity composes: from any head state, every accepted
        # trace that runs to completion lands in the bad region
        assert solver.entails(head, wp_demonic_trace(tr, bad)), tr
        if classify(tr, spec, solver) is not None:
            seen_violation = True
    assert seen_violation


def test_violating_generalization_reuses_the_chain_classify_walked(motivating, monkeypatch):
    # classify walks the trace's backward chain into the run's wp_memo, so
    # the propositions of the violating automaton build no precondition;
    # saturation is stubbed out, since its weakest preconditions start from
    # negated targets, which are other formulas
    from probtrace import semantics

    _, spec, p = motivating
    solver = Solver()
    assert classify(VIOLATING, spec, solver) is not None
    calls = []

    def counted(fn):
        return lambda *args: calls.append(args) or fn(*args)

    monkeypatch.setattr(semantics, "pre_exists", counted(semantics.pre_exists))
    monkeypatch.setattr(hoare, "pre_exists", counted(hoare.pre_exists))
    monkeypatch.setattr(hoare, "saturate_edges", lambda fha, alphabet, solver: fha)
    fha = generalize_violating(VIOLATING, spec, p.alphabet, solver)
    assert calls == []
    assert fha.lam[fha.base.initial] == path_condition(VIOLATING, spec, Solver())
