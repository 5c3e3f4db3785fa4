"""Ground-truth engine: exhaustive bounded-domain violation probabilities."""

from fractions import Fraction

import pytest

from probtrace.cegar import Sat, verify
from probtrace.lang import parse, to_pcfa
from probtrace.oracle import StateDomain, exact_violation_probability
from probtrace.solver import Solver

from helpers import BENCH_DIR, load_program


def run_oracle(text, dom=None, step_bound=64):
    program, spec = parse(text)
    return exact_violation_probability(to_pcfa(program), spec, dom, step_bound)


@pytest.fixture(scope="module")
def motivating():
    program, spec = load_program("motivating.prob")
    return to_pcfa(program), spec


def test_motivating_pointwise_closed_form(motivating):
    p, spec = motivating
    # half the mass never leaves zero; the other half escapes unless the
    # loop's coin declines an increment on all C rounds
    for c in range(-2, 5):
        dom = StateDomain.of({"C": (c, c), "X": (0, 0)})
        lo, hi = exact_violation_probability(p, spec, dom)
        want = Fraction(1, 2) * (1 - Fraction(1, 2**c)) if c > 0 else Fraction(0)
        assert lo == hi == want, c


def test_motivating_default_domain(motivating):
    p, spec = motivating
    lo, hi = exact_violation_probability(p, spec)
    assert lo == hi == Fraction(15, 32)


def test_motivating_bounded_initial_counter(motivating):
    p, spec = motivating
    dom = StateDomain.of({"C": (0, 3)})
    lo, hi = exact_violation_probability(p, spec, dom)
    assert lo == hi == Fraction(7, 16)


def test_loop_free_benchmark_is_exact():
    program, spec = parse((BENCH_DIR / "two_coins.prob").read_text())
    lo, hi = exact_violation_probability(to_pcfa(program), spec)
    assert lo == hi == Fraction(1, 4)


def test_boolean_assignment_is_simulated():
    # B survives its coin's left side only where X >= 1: from X = 0 the
    # violation probability is 1/2, and the verifier certifies exactly that
    text = (
        "@pre X >= 0 && X <= 1 && B\n@post B\n@beta 1/2\nint X;\nbool B;\n"
        "{ B := X >= 1 && B; } <+> { skip; };\n"
    )
    assert run_oracle(text) == (Fraction(1, 2), Fraction(1, 2))
    program, spec = parse(text)
    assert verify(to_pcfa(program), spec, solver=Solver()) == Sat(Fraction(1, 2), 2)


def test_worst_case_over_initial_states():
    text = "@pre true\n@post X <= 0\n@beta 1/2\nint X;\nskip;\n"
    assert run_oracle(text) == (1, 1)
    assert run_oracle(text, StateDomain.of({"X": (-4, 0)})) == (0, 0)


def test_empty_precondition_scores_zero():
    text = "@pre C >= 10\n@post false\n@beta 1/2\nint C;\nskip;\n"
    assert run_oracle(text, StateDomain.of({"C": (0, 3)})) == (0, 0)


def test_a_default_range_that_misses_the_precondition_is_an_error():
    # the walk of benchmarks/walk.prob from T = 8: the default range of T
    # holds no state that meets the precondition, so 0 would be no answer
    text = (BENCH_DIR / "walk.prob").read_text().replace("T = 4", "T = 8")
    with pytest.raises(ValueError, match=r"T=-4\.\.4"):
        run_oracle(text)
    assert run_oracle(text, StateDomain.of({"T": (8, 8)})) == (Fraction(37, 128),) * 2


FLIP_LOOP = """\
@pre C = 1
@post {post}
@beta 1/2
int C;
while (C >= 1) {{
  {{ C := 0; }} <+> {{ skip; }};
}}
"""


def test_truncation_interval_is_sound_and_tight():
    # almost-surely terminating loop, impossible post: every finishing run
    # violates, so truncation leaves only the still-running tail uncertain
    lo, hi = run_oracle(FLIP_LOOP.format(post="false"), step_bound=20)
    assert hi == 1
    assert lo < 1
    assert 1 - lo <= Fraction(1, 2**4)
    lo2, hi2 = run_oracle(FLIP_LOOP.format(post="false"), step_bound=40)
    assert lo2 >= lo and hi2 == 1


def test_truncation_upper_end_carries_unresolved_mass():
    lo, hi = run_oracle(FLIP_LOOP.format(post="true"), step_bound=20)
    assert lo == 0
    assert 0 < hi <= Fraction(1, 2**4)


def test_branch_tags_resolve_demonically():
    # the adversary picks the violating branch, so worst case is certain
    text = (
        "@pre true\n@post X = 0\n@beta 1/2\nint X;\n"
        "{ X := 0; } <*> { X := 1; };\n"
    )
    assert run_oracle(text) == (1, 1)


def test_rejects_automaton_nondeterminism():
    from probtrace.cfa import PCFA, SkipL
    from probtrace.lang import Specification
    from probtrace.formula import TRUE, FALSE

    twin = PCFA({(0, SkipL(), 1), (0, SkipL(), 2), (1, SkipL(), 2)}, 0, 2)
    spec = Specification(pre=TRUE, post=FALSE, beta=Fraction(1, 2))
    with pytest.raises(ValueError, match="deterministic"):
        exact_violation_probability(twin, spec)


def test_domain_size_limit():
    text = "@pre true\n@post X = 0\n@beta 1/2\nint X;\nint Y;\nX := Y;\n"
    program, spec = parse(text)
    with pytest.raises(ValueError, match="limit"):
        exact_violation_probability(
            to_pcfa(program), spec, StateDomain(limit=10)
        )


def test_rejects_empty_ranges():
    with pytest.raises(ValueError, match="empty range"):
        StateDomain.of({"X": (3, -3)})
