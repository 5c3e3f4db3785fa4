"""Acceptance suite: the eight binding criteria, each as one test that
records a single PASS/FAIL line (printed in the terminal summary).

These tests own the authoritative runs of the randomized property suites;
the per-module test files exercise the same properties at smaller counts
with different seeds.
"""

import functools
import json
import random
import time
from fractions import Fraction

import pytest

import conftest
from probtrace.cegar import (
    Certified,
    Rejected,
    Sat,
    Unsat,
    check_decomposition,
    load_certificate,
    verify,
)
from probtrace.cfa import PCFA, intersect
from probtrace.evidence import (
    Certificate,
    CounterexampleFound,
    examine,
    validate_counterexample,
)
from probtrace.formula import eq, fand, ge, ivar, le
from probtrace.lang import Specification, parse, to_pcfa
from probtrace.oracle import StateDomain, exact_violation_probability
from probtrace.solver import Solver
from probtrace.theory import (
    apply_strategy,
    is_normalized,
    minimize,
    normalize,
    strategy_for_sublanguage,
)

from helpers import (
    BENCH_DIR,
    DATA_DIR,
    bounded_equal_deterministic,
    dump,
    load_program,
    random_cfmdp,
    random_loopfree_program,
    random_sub_cfmc,
    simplify,
)

C = ivar("C")


def criterion(n: int, budget_s=None):
    """Wrap a criterion body: record one PASS/FAIL line, enforce the budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                msg = f"{type(exc).__name__}: {exc}"
                conftest.ACCEPTANCE_LINES.append(
                    f"criterion {n}: FAIL — {msg[:200]}"
                )
                raise
            dt = time.monotonic() - t0
            if budget_s is not None and dt >= budget_s:
                conftest.ACCEPTANCE_LINES.append(
                    f"criterion {n}: FAIL — over time budget "
                    f"({dt:.1f}s >= {budget_s}s)"
                )
                pytest.fail(
                    f"criterion {n} exceeded its time budget: "
                    f"{dt:.1f}s >= {budget_s}s"
                )
            budget = f", budget {budget_s}s" if budget_s is not None else ""
            conftest.ACCEPTANCE_LINES.append(
                f"criterion {n}: PASS — {detail} ({dt:.1f}s{budget})"
            )

        return wrapper

    return deco


@pytest.fixture(scope="module")
def motivating():
    program, spec = load_program("motivating.prob")
    return program, spec, to_pcfa(program)


@criterion(1, budget_s=30)
def test_criterion_1_motivating_refutation(motivating, solver):
    """Unbounded precondition: refuted with exact mass 3/8 from C = 2."""
    program, spec, p = motivating
    assert spec.beta == Fraction(3, 10)
    verdict = verify(p, spec, solver=solver)
    assert isinstance(verdict, Unsat), verdict
    cex = verdict.counterexample
    assert cex.total_vp == Fraction(3, 8)
    assert solver.entails(cex.error_pre, eq(C, 2))
    ok, reasons = validate_counterexample(p, spec, spec.beta, cex, solver)
    assert ok, reasons
    return (
        f"Unsat at beta 3/10, counterexample mass exactly 3/8 "
        f"({len(cex.traces)} traces), error precondition entails C = 2, validated"
    )


@criterion(2, budget_s=10)
def test_criterion_2_certificate_checking(motivating, solver):
    """The hand-encoded decomposition certifies 1/2 and rejects 3/10."""
    program, spec, p = motivating
    beta, a, qs = load_certificate((DATA_DIR / "motivating.cert").read_text(), program)
    assert beta == Fraction(1, 2)
    accepted = check_decomposition(p, spec, Fraction(1, 2), qs, a, solver)
    assert isinstance(accepted, Certified), accepted
    assert accepted.upper_bound == Fraction(1, 2)
    rejected = check_decomposition(p, spec, Fraction(3, 10), qs, a, solver)
    assert isinstance(rejected, Rejected), rejected
    return "certified beta 1/2 with bound exactly 1/2; rejected beta 3/10"


@criterion(3, budget_s=60)
def test_criterion_3_bounded_precondition(motivating, solver):
    """0 <= C <= 3 at beta 47/100: certified, oracle pins 7/16."""
    program, spec, p = motivating
    bounded = Specification(
        pre=simplify(fand(ge(C, 0), le(C, 3))),
        post=spec.post,
        beta=Fraction(47, 100),
    )
    verdict = verify(p, bounded, solver=solver)
    assert isinstance(verdict, Sat), verdict
    assert Fraction(7, 16) <= verdict.upper_bound <= Fraction(47, 100)
    lo, hi = exact_violation_probability(p, bounded, StateDomain.of({"C": (0, 3)}))
    assert lo == hi == Fraction(7, 16)
    return (
        f"Sat with bound {verdict.upper_bound} in [7/16, 47/100]; "
        f"oracle exactly 7/16"
    )


@criterion(4, budget_s=300)
def test_criterion_4_oracle_equivalence():
    """Generated loop-free programs: verdicts match the exact oracle at two
    thresholds per program, and certified bounds dominate the truth."""
    rng = random.Random(41)
    programs = 0
    runs = 0
    while programs < 20:
        text = random_loopfree_program(rng)
        program, spec = parse(text)
        p = to_pcfa(program)
        lo, hi = exact_violation_probability(p, spec)
        assert lo == hi, "loop-free programs must resolve exactly"
        v = lo
        solver = Solver()

        # threshold at the exact value: within, so the verdict must be Sat
        sat_spec = Specification(pre=spec.pre, post=spec.post, beta=v)
        verdict = verify(p, sat_spec, solver=solver)
        assert isinstance(verdict, Sat), (text, v, verdict)
        assert v <= verdict.upper_bound <= v, (text, v, verdict.upper_bound)
        runs += 1

        # threshold strictly below the value: must be refuted
        if v > 0:
            beta = v * Fraction(9, 10)
            verdict = verify(p, spec, beta, solver=solver)
            assert isinstance(verdict, Unsat), (text, v, verdict)
            assert verdict.counterexample.total_vp > beta
            ok, reasons = validate_counterexample(
                p, spec, beta, verdict.counterexample, solver
            )
            assert ok, (text, reasons)
            runs += 1
        programs += 1
    return f"{programs} loop-free programs, {runs} runs, 100% verdict agreement"


@criterion(5, budget_s=120)
def test_criterion_5_strategy_round_trip():
    """Sub-chain -> strategy -> induced chain reproduces the sublanguage."""
    rng = random.Random(42)
    checked = 0
    while checked < 100:
        a = normalize(random_cfmdp(rng, max_locs=8))
        if a.initial == a.accepting:
            continue
        m = random_sub_cfmc(rng, a)
        psi = strategy_for_sublanguage(a, m)
        back = apply_strategy(a, psi)
        depth = 2 * max(len(a.locations), len(m.locations), 1)
        assert bounded_equal_deterministic(m, back, depth), (
            dump(a),
            dump(m),
            dump(back),
        )
        checked += 1
    return f"{checked} round trips exact at depth 2*|locations|"


@criterion(6, budget_s=60)
def test_criterion_6_normalization():
    """normalize: language-preserving, establishes the shape, idempotent."""
    rng = random.Random(43)
    checked = 0
    while checked < 100:
        a = random_cfmdp(rng, max_locs=8)
        b = normalize(a)
        assert is_normalized(b)
        assert b.is_cfmdp()
        depth = 2 * max(len(a.locations), len(b.locations))
        assert bounded_equal_deterministic(a, b, depth)
        again = normalize(b)
        assert is_normalized(again)
        assert bounded_equal_deterministic(b, again, depth)
        checked += 1
    return f"{checked} automata normalized, language preserved, idempotent"


@criterion(7)
def test_criterion_7_examine_schedule(motivating, solver):
    """The examination of the hand-built violating module follows the derived
    schedule at beta 3/10."""
    program, spec, p = motivating
    labs = {str(l): l for l in p.alphabet}
    pi = PCFA(
        {
            (0, labs["X := 0"], 1),
            (1, labs["pb(0,R)"], 2),
            (2, labs["skip"], 3),
            (3, labs["assume C >= 1"], 4),
            (4, labs["pb(1,R)"], 5),
            (5, labs["skip"], 6),
            (6, labs["C := C - 1"], 3),
            (4, labs["pb(1,L)"], 7),
            (7, labs["X := X + 1"], 8),
            (8, labs["C := C - 1"], 9),
            (9, labs["assume C >= 1"], 10),
            (10, labs["pb(1,L)"], 11),
            (11, labs["X := X + 1"], 12),
            (12, labs["C := C - 1"], 9),
            (10, labs["pb(1,R)"], 13),
            (13, labs["skip"], 14),
            (14, labs["C := C - 1"], 9),
            (9, labs["assume C <= 0"], 15),
        },
        0,
        15,
    )
    module = normalize(minimize(intersect(pi, p)))
    events = []
    outcome, _, _ = examine(module, spec, Fraction(3, 10), solver, events=events)

    kinds = [e[0] for e in events]
    assert kinds == [
        "round",
        "mainstream",
        "incompatible",
        "incompatible",
        "incompatible",
        "certificate",
        "split",
        "round",
        "mainstream",
        "mainstream",
        "mainstream",
        "counterexample",
    ], kinds
    # first mainstream: the C = 1 trace at mass 1/4
    assert events[1][3] == Fraction(1, 4)
    assert solver.equivalent(events[1][2], eq(C, 1))
    # certificate at accumulated 3/8, closing the 1/2 - 3/10 = 1/5 gap
    cert = events[5][1]
    assert isinstance(cert, Certificate)
    assert cert.mass == Fraction(3, 8) >= Fraction(1, 5)
    # split on C = 1
    assert solver.equivalent(events[6][1], eq(C, 1))
    # final mainstream: three traces accumulating to 3/8
    assert [e[3] for e in events[8:11]] == [
        Fraction(1, 8),
        Fraction(2, 8),
        Fraction(3, 8),
    ]
    assert isinstance(outcome, CounterexampleFound)
    assert outcome.counterexample.total_vp == Fraction(3, 8)
    return (
        "event log matches the derived schedule: mainstream 1/4 at C = 1, "
        "certificate 3/8 >= 1/5, split on C = 1, final mainstream 3/8"
    )


@criterion(8)
def test_criterion_8_benchmark_goldens():
    """The crafted benchmark corpus reproduces its oracle-frozen goldens."""
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    files = sorted(BENCH_DIR.glob("*.prob"))
    assert len(files) >= 8, "need at least eight crafted benchmarks"
    agreed = 0
    for path in files:
        entry = golden[path.name]
        program, spec = parse(path.read_text())
        p = to_pcfa(program)
        truth = Fraction(entry["oracle_num"], entry["oracle_den"])
        beta = Fraction(entry["beta"])
        assert spec.beta == beta
        solver = Solver()
        verdict = verify(p, spec, solver=solver)
        if entry["expected_verdict"] == "sat":
            assert isinstance(verdict, Sat), (path.stem, verdict)
            assert truth <= verdict.upper_bound <= beta, (
                path.stem,
                verdict.upper_bound,
            )
        else:
            assert isinstance(verdict, Unsat), (path.stem, verdict)
            assert verdict.counterexample.total_vp > beta
            ok, reasons = validate_counterexample(
                p, spec, beta, verdict.counterexample, solver
            )
            assert ok, (path.stem, reasons)
        agreed += 1
    return f"{agreed}/{len(files)} benchmark verdicts match the frozen goldens"
