"""End-to-end verification loop and the decomposition certificate format."""

import itertools
import os
import random
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import probtrace
from probtrace import cegar, cfa, formula
from probtrace import solver as solver_module
from probtrace.cegar import (
    Certified,
    Inconclusive,
    Rejected,
    Sat,
    Unsat,
    check_decomposition,
    dump_certificate,
    load_certificate,
    verify,
    verify_refutational,
)
from probtrace.evidence import validate_counterexample
from probtrace.formula import TRUE, eq, fand, ge, ivar, le
from probtrace.hoare import FloydHoareAutomaton
from probtrace.lang import Specification, parse, to_pcfa
from probtrace.oracle import StateDomain, exact_violation_probability
from probtrace.semantics import weight
from probtrace.solver import Solver

from helpers import (
    BENCH_DIR,
    DATA_DIR,
    load_program,
    random_boolean_loop,
    random_counter_loop,
    random_projecting_loop,
    simplify,
)

C = ivar("C")
X = ivar("X")


@pytest.fixture(scope="module")
def motivating():
    program, spec = load_program("motivating.prob")
    return program, spec, to_pcfa(program)


def run(text, beta=None, **kw):
    program, spec = parse(text)
    return verify(to_pcfa(program), spec, beta, **kw), (program, spec)


# ---------------------------------------------------------------------------
# the motivating example, both ways


def test_unbounded_precondition_is_refuted(motivating, solver):
    program, spec, p = motivating
    verdict = verify(p, spec, solver=solver)
    assert isinstance(verdict, Unsat)
    cex = verdict.counterexample
    assert cex.total_vp == Fraction(3, 8)
    assert solver.entails(cex.error_pre, eq(C, 2))
    ok, reasons = validate_counterexample(p, spec, spec.beta, cex, solver)
    assert ok, reasons


def test_bounded_precondition_is_certified(motivating, solver):
    program, spec, p = motivating
    bounded = Specification(
        pre=simplify(fand(ge(C, 0), le(C, 3))),
        post=spec.post,
        beta=Fraction(47, 100),
    )
    verdict = verify(p, bounded, solver=solver)
    assert isinstance(verdict, Sat)
    assert Fraction(7, 16) <= verdict.upper_bound <= Fraction(47, 100)
    # the certified bound dominates the exact ground truth
    lo, hi = exact_violation_probability(p, bounded, StateDomain.of({"C": (0, 3)}))
    assert lo == hi == Fraction(7, 16) <= verdict.upper_bound


def test_refutational_variant_agrees_on_the_refutation(motivating, solver):
    program, spec, p = motivating
    verdict = verify_refutational(p, spec, solver=solver)
    assert isinstance(verdict, Unsat)
    assert verdict.counterexample.total_vp > spec.beta
    ok, reasons = validate_counterexample(
        p, spec, spec.beta, verdict.counterexample, solver
    )
    assert ok, reasons


def test_refutational_variant_reports_divergence_honestly(solver):
    # satisfied contract with infinitely many violating-looking traces to
    # keep verbatim: the iteration cap must surface as Inconclusive
    text = (
        "@pre C >= 0 && C <= 3\n@post X = 0\n@beta 47/100\nint X;\nint C;\n"
        "X := 0;\n{ C := 0; } <+> { skip; };\n"
        "while (C > 0) {\n  { X := X + 1; } <+> { skip; };\n  C := C - 1;\n}\n"
    )
    program, spec = parse(text)
    verdict = verify_refutational(
        to_pcfa(program), spec, solver=solver, max_iters=6
    )
    assert isinstance(verdict, (Sat, Inconclusive))
    if isinstance(verdict, Inconclusive):
        assert "iteration" in verdict.reason


# ---------------------------------------------------------------------------
# small programs through the main loop


def test_trivial_program_certifies_immediately(solver):
    verdict, _ = run(
        "@pre true\n@post X = 0\n@beta 1/2\nint X;\nX := 0;\n", solver=solver
    )
    assert isinstance(verdict, Sat)
    assert verdict.upper_bound == 0
    assert verdict.iterations == 1


def test_certain_violation(solver):
    verdict, (program, spec) = run(
        "@pre true\n@post X = 0\n@beta 9/10\nint X;\nX := 1;\n", solver=solver
    )
    assert isinstance(verdict, Unsat)
    assert verdict.counterexample.total_vp == 1


def test_precondition_decided_through_a_splinter_is_refuted(solver):
    # the Omega test needs Pugh's equality step inside a splinter to see that
    # the precondition holds (X = 0, Y = -3, Z = -1); an unsat answer there
    # would make the violated program Sat with bound 0
    pre = "X >= 0 && X <= 4 && Y >= -4 && Y <= -2 && Z >= -4 && Z <= 4 && 5*X + 4*Z = 2*Y + 2"
    text = f"@pre {pre}\n@post 5*X + 4*Z != 2*Y + 2\n@beta 0\nint X;\nint Y;\nint Z;\nskip;\n"
    verdict, (program, spec) = run(text, solver=solver)
    assert isinstance(verdict, Unsat)
    assert verdict.counterexample.total_vp == 1
    ok, reasons = validate_counterexample(
        to_pcfa(program), spec, spec.beta, verdict.counterexample, solver
    )
    assert ok, reasons


def test_single_coin_boundary(solver):
    body = "@pre true\n@post X = 0\n@beta {b}\nint X;\n{{ X := 0; }} <+> {{ X := 1; }};\n"
    sat, _ = run(body.format(b="1/2"), solver=solver)
    assert isinstance(sat, Sat) and sat.upper_bound == Fraction(1, 2)
    unsat, (program, spec) = run(body.format(b="49/100"), solver=solver)
    assert isinstance(unsat, Unsat)
    assert unsat.counterexample.total_vp == Fraction(1, 2)


def test_loop_with_certain_exit(solver):
    # the flag survives unless both rounds decline: violation mass 3/4
    text = (
        "@pre true\n@post F = 0\n@beta 1/4\nint F;\nint T;\nF := 0;\nT := 2;\n"
        "while (T >= 1) {\n  { F := 1; } <+> { skip; };\n  T := T - 1;\n}\n"
    )
    verdict, (program, spec) = run(text, solver=solver)
    assert isinstance(verdict, Unsat)
    assert verdict.counterexample.total_vp > Fraction(1, 4)
    p = to_pcfa(program)
    lo, hi = exact_violation_probability(p, spec)
    assert lo == hi == Fraction(3, 4)


def test_almost_sure_loop_is_verified(solver):
    # the violating branch resets the flag before the loop ends
    text = (
        "@pre true\n@post X = 0\n@beta 1/2\nint X;\nint T;\nX := 1;\nT := 4;\n"
        "while (T >= 1) {\n  { X := 0; } <+> { skip; };\n  T := T - 1;\n}\n"
        "X := 0;\n"
    )
    verdict, _ = run(text, solver=solver)
    assert isinstance(verdict, Sat)
    assert verdict.upper_bound == 0


def test_interpolants_keep_the_counter_of_an_infeasible_unrolling(solver):
    # a second round is infeasible because T = 1; a proof that keeps only
    # X (X = -3 cannot reach X = 0) holds for one unrolling at a time, and
    # the loop would be unrolled without end
    text = (
        "@pre X = -2 && T = 1\n@post X != 0\n@beta 3/8\nint X;\nint T;\n"
        "while (T > 0) {\n  { X := X - 1; } <+> { X := X - 1; };\n  T := T - 1;\n}\n"
    )
    verdict, _ = run(text, solver=solver, max_iters=10)
    assert isinstance(verdict, Sat) and verdict.upper_bound == 0
    assert verdict.iterations <= 3


def test_walk_ok_needs_few_iterations():
    # interpolants weakened against the rest of the trace cover more than
    # their own trace: the exact strongest postconditions needed 21
    program, spec = parse((BENCH_DIR / "walk_ok.prob").read_text())
    verdict = verify(to_pcfa(program), spec, solver=Solver())
    assert isinstance(verdict, Sat)
    assert verdict.iterations <= 11


def test_counter_loops_agree_with_the_oracle_seeded():
    """Soundness on loops: a Sat bound is at least the oracle's lower end and
    an Unsat counterexample carries at most its upper end."""
    rng = random.Random(2203)
    kinds = {Sat: 0, Unsat: 0, Inconclusive: 0}
    for _ in range(20):
        text = random_counter_loop(rng)
        program, spec = parse(text)
        p = to_pcfa(program)
        lo, hi = exact_violation_probability(p, spec)
        for loop in (verify, verify_refutational):
            verdict = loop(p, spec, solver=Solver(), max_iters=20)
            kinds[type(verdict)] += 1
            if isinstance(verdict, Sat):
                assert lo <= verdict.upper_bound <= spec.beta, (text, verdict)
            elif isinstance(verdict, Unsat):
                cex = verdict.counterexample
                assert spec.beta < cex.total_vp <= hi, (text, verdict)
    assert kinds[Sat] >= 10 and kinds[Unsat] >= 10, kinds


class _RunTimedOut(Exception):
    pass


def test_projecting_loops_agree_with_the_oracle_seeded(monkeypatch):
    """Loops whose strongest postconditions project an overwritten variable,
    under both loops: a Sat bound lies between the truth and beta, an Unsat
    mass between beta and the truth.  A run may time out or stay
    inconclusive; those are counted and printed, not failed."""
    projections = 0
    project = solver_module.project_int_var

    def counting(f, var):
        nonlocal projections
        projections += var in formula.int_vars(f)
        return project(f, var)

    def strike(signum, frame):
        raise _RunTimedOut

    monkeypatch.setattr(solver_module, "project_int_var", counting)
    previous = signal.signal(signal.SIGALRM, strike)
    rng = random.Random(1)
    kinds = dict.fromkeys(["Sat", "Unsat", "Inconclusive", "timeout"], 0)
    try:
        for _ in range(40):
            text = random_projecting_loop(rng)
            program, spec = parse(text)
            p = to_pcfa(program)
            lo, hi = exact_violation_probability(p, spec)
            assert lo == hi, text  # every run stops within two rounds
            for loop in (verify, verify_refutational):
                signal.setitimer(signal.ITIMER_REAL, 2.0)
                try:
                    verdict = loop(p, spec, solver=Solver(), max_iters=60)
                except _RunTimedOut:
                    kinds["timeout"] += 1
                    continue
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                kinds[type(verdict).__name__] += 1
                if isinstance(verdict, Sat):
                    assert hi <= verdict.upper_bound <= spec.beta, (text, verdict)
                elif isinstance(verdict, Unsat):
                    cex = verdict.counterexample
                    assert spec.beta < cex.total_vp <= lo, (text, verdict)
    finally:
        signal.signal(signal.SIGALRM, previous)
    print(f"{projections} projections past the fast path; runs by outcome: {kinds}")
    assert projections >= 10
    assert kinds["Sat"] >= 20 and kinds["Unsat"] >= 10, kinds


def test_boolean_loops_agree_with_the_oracle_seeded():
    """Loops that flip and set a boolean as they move a counter, under both
    loops: a Sat bound lies between the truth and beta, an Unsat mass
    between beta and the truth.  A run may time out or stay inconclusive;
    those are counted and printed, not failed."""

    def strike(signum, frame):
        raise _RunTimedOut

    previous = signal.signal(signal.SIGALRM, strike)
    rng = random.Random(3)
    kinds = dict.fromkeys(["Sat", "Unsat", "Inconclusive", "timeout"], 0)
    try:
        for _ in range(30):
            text = random_boolean_loop(rng)
            program, spec = parse(text)
            p = to_pcfa(program)
            lo, hi = exact_violation_probability(p, spec)
            assert lo == hi, text  # every run stops within two rounds
            for loop in (verify, verify_refutational):
                signal.setitimer(signal.ITIMER_REAL, 2.0)
                try:
                    verdict = loop(p, spec, solver=Solver(), max_iters=60)
                except _RunTimedOut:
                    kinds["timeout"] += 1
                    continue
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                kinds[type(verdict).__name__] += 1
                if isinstance(verdict, Sat):
                    assert hi <= verdict.upper_bound <= spec.beta, (text, verdict)
                elif isinstance(verdict, Unsat):
                    cex = verdict.counterexample
                    assert spec.beta < cex.total_vp <= lo, (text, verdict)
    finally:
        signal.signal(signal.SIGALRM, previous)
    print(f"runs by outcome: {kinds}")
    assert kinds["Sat"] >= 15 and kinds["Unsat"] >= 15, kinds


def test_nondeterministic_choice_is_worst_cased(solver):
    text = (
        "@pre true\n@post X = 0\n@beta 1/4\nint X;\n"
        "{ X := 0; } <*> { { X := 0; } <+> { X := 1; }; };\n"
    )
    verdict, _ = run(text, solver=solver)
    assert isinstance(verdict, Unsat)
    assert verdict.counterexample.total_vp == Fraction(1, 2)


def test_beta_override_argument(motivating, solver):
    program, spec, p = motivating
    verdict = verify(p, spec, Fraction(1, 2), solver=solver)
    assert isinstance(verdict, Sat)
    assert verdict.upper_bound <= Fraction(1, 2)


def test_iteration_cap_is_inconclusive(motivating, solver):
    program, spec, p = motivating
    verdict = verify(p, spec, solver=solver, max_iters=1)
    assert isinstance(verdict, (Unsat, Inconclusive))
    if isinstance(verdict, Inconclusive):
        assert "iteration" in verdict.reason


# ---------------------------------------------------------------------------
# decomposition checking and the certificate format


@pytest.fixture(scope="module")
def certificate(motivating):
    program, spec, p = motivating
    text = (DATA_DIR / "motivating.cert").read_text()
    return load_certificate(text, program)


def test_certificate_certifies_its_stated_threshold(motivating, certificate, solver):
    program, spec, p = motivating
    beta, a, qs = certificate
    assert beta == Fraction(1, 2)
    assert len(qs) == 2
    outcome = check_decomposition(p, spec, beta, qs, a, solver)
    assert isinstance(outcome, Certified)
    assert outcome.upper_bound == Fraction(1, 2)


def test_pipeline_uses_formulas_as_built(motivating, certificate, monkeypatch):
    # the constructors build canonical formulas, so no verifier path, the
    # solver backend included, may need simplify; and normalization only
    # splits locations into bisimilar copies, so no bound or mined trace
    # needs it either (only the strategy constructions do)
    for helper in ("simplify", "normalize"):
        def boom(*args, helper=helper):
            raise AssertionError(f"{helper} called on a verifier path")

        for name, mod in list(sys.modules.items()):
            if name.startswith("probtrace") and hasattr(mod, helper):
                monkeypatch.setattr(mod, helper, boom)
    for name, verdict in (("coupon.prob", Sat), ("counter_over.prob", Unsat)):
        program, spec = parse((BENCH_DIR / name).read_text())
        for run_loop in (verify, verify_refutational):
            got = run_loop(to_pcfa(program), spec, None, Solver())
            assert isinstance(got, verdict), (name, got)
    program, spec, p = motivating
    for run_loop in (verify, verify_refutational):
        assert isinstance(run_loop(p, spec, None, Solver()), Unsat)
    beta, a, qs = certificate
    assert check_decomposition(p, spec, beta, qs, a, Solver()) == Certified(Fraction(1, 2))


def test_certificate_rejected_below_true_mass(motivating, certificate, solver):
    program, spec, p = motivating
    _, a, qs = certificate
    outcome = check_decomposition(p, spec, Fraction(3, 10), qs, a, solver)
    assert isinstance(outcome, Rejected)
    assert "exceeds threshold" in outcome.reason


def test_whole_program_module_is_a_trivial_certificate(motivating, solver):
    program, spec, p = motivating
    outcome = check_decomposition(p, spec, Fraction(1), [], p, solver)
    assert isinstance(outcome, Certified)


def test_missing_coverage_is_rejected(motivating, certificate, solver):
    from probtrace.cfa import PCFA

    program, spec, p = motivating
    _, a, qs = certificate
    tiny = PCFA((), 0, 0)  # accepts only the empty trace
    outcome = check_decomposition(p, spec, Fraction(1, 2), qs, tiny, solver)
    assert isinstance(outcome, Rejected)
    assert "escape" in outcome.reason


def test_invalid_component_is_rejected(motivating, certificate, solver):
    from probtrace.hoare import FloydHoareAutomaton

    program, spec, p = motivating
    _, a, qs = certificate
    broken = FloydHoareAutomaton(qs[0].base, {l: eq(X, 7) for l in qs[0].base.locations})
    outcome = check_decomposition(p, spec, Fraction(1, 2), [broken], a, solver)
    assert isinstance(outcome, Rejected)
    assert "Hoare-valid" in outcome.reason or "precondition" in outcome.reason


def test_dump_load_round_trip(motivating, certificate):
    program, spec, p = motivating
    beta, a, qs = certificate
    text = dump_certificate(beta, a, qs)
    beta2, a2, qs2 = load_certificate(text, program)
    assert beta2 == beta
    assert a2.transitions == a.transitions
    assert a2.initial == a.initial and a2.accepting == a.accepting
    assert len(qs2) == len(qs)
    for q, q2 in zip(qs, qs2):
        assert q.base.transitions == q2.base.transitions
        assert q.lam == q2.lam


def test_certificate_without_a_module_round_trips_with_bound_zero(solver):
    # a missing module is the empty one, whose violation mass is 0
    program, spec = parse("@pre true\n@post true\n@beta 1/2\nint X;\nX := 0;\n")
    p = to_pcfa(program)
    q = FloydHoareAutomaton(p, {loc: TRUE for loc in p.locations})
    beta, a, qs = load_certificate(dump_certificate(spec.beta, None, [q]), program)
    assert a is None and beta == spec.beta and len(qs) == 1
    assert check_decomposition(p, spec, beta, qs, a, solver) == Certified(Fraction(0))


def test_load_rejects_malformed_certificates(motivating):
    program, _, _ = motivating
    cases = [
        "beta 1/2\nmodule A\ninitial 0\naccepting 0\nedge 0 0 not a label\n",
        "beta nonsense\nmodule A\ninitial 0\naccepting 0\n",
        "beta 1/2\nhoare Q\ninitial 0\naccepting 0\nprop 0 true\nwhat 1 2\n",
        "beta 1/2\nedge 0 1 skip\n",
    ]
    for text in cases:
        with pytest.raises(ValueError):
            load_certificate(text, program)


def test_certificate_sigma_edges_expand_over_the_alphabet(motivating):
    program, spec, p = motivating
    text = (
        "beta 1/1\n"
        "module A\ninitial 0\naccepting 1\n"
        "edge 0 1 sigma\n"
        "edge 0 0 sigma \\ {X := 0; skip}\n"
    )
    _, a, _ = load_certificate(text, program)
    full = {lab for s, lab, t in a.transitions if s == 0 and t == 1}
    assert full == set(p.alphabet)
    reduced = {lab for s, lab, t in a.transitions if s == 0 and t == 0}
    assert reduced == set(p.alphabet) - {
        lab for lab in p.alphabet if str(lab) in ("X := 0", "skip")
    }


# The corpus record: verdict, Sat bound or Unsat mass, and iteration count of
# every benchmark and the motivating example, under `verify` and under
# `verify_refutational` capped at 60 iterations.
CORPUS_RECORD = {
    "counter.prob": (("sat", "7/16", 3), ("inconclusive", None, 14)),
    "counter_over.prob": (("unsat", "3/8", 3), ("unsat", "3/8", 6)),
    "coupon.prob": (("sat", "1/4", 7), ("sat", "1/4", 8)),
    "coupon_miss.prob": (("unsat", "1/4", 7), ("unsat", "1/4", 7)),
    "ruin.prob": (("unsat", "1/8", 7), ("unsat", "1/8", 7)),
    "ruin_ok.prob": (("sat", "1/8", 8), ("sat", "1/8", 8)),
    "three_flips.prob": (("sat", "1/8", 2), ("sat", "1/8", 1)),
    "two_coins.prob": (("unsat", "1/4", 1), ("unsat", "1/4", 1)),
    "two_coins_ok.prob": (("sat", "1/4", 3), ("sat", "1/4", 3)),
    "walk.prob": (("unsat", "1/8", 10), ("unsat", "1/8", 10)),
    "walk_ok.prob": (("sat", "1/4", 9), ("sat", "1/4", 9)),
    "motivating.prob": (("unsat", "3/8", 3), ("unsat", "3/8", 6)),
}


def test_corpus_record_covers_every_benchmark():
    names = {path.name for path in BENCH_DIR.glob("*.prob")} | {"motivating.prob"}
    assert names == set(CORPUS_RECORD)


# A loop whose assignment doubles X has no exact strongest postcondition;
# the oracle gives exactly 1/4.
DOUBLING = (
    "@pre X >= 0 && X <= 2 && T >= 0 && T <= 2\n@post X <= 6\n@beta 1/4\nint X;\nint T;\n"
    "while (T > 0) { { X := 2 * X + 1; } <+> { X := X - 1; }; T := T - 1; }\n"
)


@pytest.mark.parametrize("loop", [verify, verify_refutational])
def test_a_loop_through_a_non_unit_assignment_answers_sat(loop):
    program, spec = parse(DOUBLING)
    p = to_pcfa(program)
    assert exact_violation_probability(p, spec) == (Fraction(1, 4), Fraction(1, 4))
    verdict = loop(p, spec, solver=Solver(), max_iters=20)
    assert verdict == Sat(Fraction(1, 4), 4)


def test_walk_reports_a_minimal_error_precondition():
    from probtrace.lang import parse_formula

    program, spec = parse((BENCH_DIR / "walk.prob").read_text())
    solver = Solver()
    verdict = verify(to_pcfa(program), spec, solver=solver)
    pre = verdict.counterexample.error_pre
    assert str(pre) == "T = 4 && X = 0"
    # the error precondition reported before nested atoms were settled
    before = parse_formula(
        "T = 4 && X = 0 && (X >= -1 || X <= -7) && (X >= 7 || X <= 1)",
        dict(program.declarations),
    )
    assert solver.entails(pre, before) and solver.entails(before, pre)


def _record_of(verdict):
    if isinstance(verdict, Sat):
        return ("sat", str(verdict.upper_bound), verdict.iterations)
    if isinstance(verdict, Unsat):
        return ("unsat", str(verdict.counterexample.total_vp), verdict.iterations)
    return ("inconclusive", None, verdict.iterations)


@pytest.mark.parametrize("loop", ["verify", "verify_refutational"])
@pytest.mark.parametrize("name", sorted(CORPUS_RECORD))
def test_corpus_record(name, loop):
    folder = DATA_DIR if name == "motivating.prob" else BENCH_DIR
    program, spec = parse((folder / name).read_text())
    p = to_pcfa(program)
    if loop == "verify":
        verdict = verify(p, spec, solver=Solver())
        want = CORPUS_RECORD[name][0]
    else:
        verdict = verify_refutational(p, spec, solver=Solver(), max_iters=60)
        want = CORPUS_RECORD[name][1]
    assert _record_of(verdict) == want


# Both loops on the motivating example and one looping benchmark, printing
# each verdict and its event log as strings.
_RUN_BOTH_LOOPS = """
import sys
from probtrace import Solver, parse, to_pcfa, verify, verify_refutational
for path in sys.argv[1:]:
    program, spec = parse(open(path).read())
    p = to_pcfa(program)
    for loop, kw in ((verify, {}), (verify_refutational, {"max_iters": 60})):
        events = []
        print(path, loop.__name__, loop(p, spec, solver=Solver(), events=events, **kw))
        print(*events, sep="\\n")
"""


def _run_script(script, paths, env, what):
    """Run `script` on `paths` in a fresh interpreter; a failure carries its
    stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *paths], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}"
    return proc


def _first_difference(a, b):
    """The first line at which texts `a` and `b` differ, from each."""
    for x, y in itertools.zip_longest(a.splitlines(), b.splitlines()):
        if x != y:
            return f"{x!r} != {y!r}"
    return "no line differs"


def test_results_do_not_depend_on_the_hash_seed():
    # set and dict iteration orders follow the string hash seed; no verdict,
    # bound, iteration count or event may
    paths = [str(DATA_DIR / "motivating.prob"), str(BENCH_DIR / "coupon.prob")]
    src = str(Path(probtrace.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = _run_script(_RUN_BOTH_LOOPS, paths, env, f"hash seed {seed}")
        outputs.append(proc.stdout)
    assert "Sat(upper_bound=Fraction(1, 4), iterations=7)" in outputs[0], outputs[0]
    assert outputs[0].count("Unsat(") == 2, outputs[0]
    assert outputs[0] == outputs[1], f"hash seed 2: {_first_difference(*outputs)}"


# Builds and keeps `n` labels no program uses, then prints the alphabet of
# each program, iterated as a set, to stderr; the programs stay alive, so the
# loops that follow run on those very label objects.
_KEEP_LABELS = """
import sys
from probtrace import parse, to_pcfa
from probtrace.cfa import Nd
kept = [Nd(10_000 + i) for i in range({n})]
shown = [to_pcfa(parse(open(path).read())[0]) for path in sys.argv[1:]]
print(*(list(map(str, frozenset(p.alphabet))) for p in shown), sep="\\n", file=sys.stderr)
"""


def test_results_do_not_depend_on_label_addresses():
    # labels hash by identity, so set and dict iteration orders over them
    # follow memory addresses: the labels built first move them, and so
    # does address-space layout randomization between any two runs
    paths = [str(DATA_DIR / "motivating.prob"), str(BENCH_DIR / "coupon.prob")]
    src = str(Path(probtrace.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": src}
    orders, outputs = [], []
    for n in (0, 300):
        script = _KEEP_LABELS.format(n=n) + _RUN_BOTH_LOOPS
        proc = _run_script(script, paths, env, f"kept {n} labels")
        orders.append(proc.stderr)
        outputs.append(proc.stdout)
    assert orders[0] != orders[1], "kept 300 labels: the alphabets iterated as with none"
    assert "Sat(upper_bound=Fraction(1, 4), iterations=7)" in outputs[0], outputs[0]
    assert outputs[0] == outputs[1], f"kept 300 labels: {_first_difference(*outputs)}"


# Builds `n` formulas no program uses and keeps every other one, so the
# formulas and labels built next fill the holes left by the rest, in reverse
# order; then prints the conditions of each program's assumptions, iterated
# as a set, to stderr. The programs stay alive, so the loops that follow run
# on those very formula objects.
_KEEP_FORMULAS = """
import sys
from probtrace import parse, to_pcfa
from probtrace.formula import bvar, fand
kept = [fand(bvar(f"Unused{{i}}"), bvar("Unused")) for i in range({n})]
del kept[::2]
shown = [to_pcfa(parse(open(path).read())[0]) for path in sys.argv[1:]]
conds = [{{lab.cond for lab in p.alphabet if hasattr(lab, "cond")}} for p in shown]
print(*(list(map(str, c)) for c in conds), sep="\\n", file=sys.stderr)
"""


def test_results_do_not_depend_on_formula_addresses():
    # formulas hash by identity, so set and dict iteration orders over them
    # follow memory addresses: the formulas built and freed first move them.
    # A two-element set's order rests on three bits of each address, and on
    # the randomized high bits when those three agree, so a given count moves
    # it in about three runs of five, and may do so in one run and not the
    # next; counts of both parities are tried in turn until one does
    paths = [str(DATA_DIR / "motivating.prob"), str(BENCH_DIR / "coupon.prob")]
    src = str(Path(probtrace.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": src}
    counts, orders, outputs = (0, *range(300, 3000, 97)), [], []
    for n in counts:
        script = _KEEP_FORMULAS.format(n=n) + _RUN_BOTH_LOOPS
        proc = _run_script(script, paths, env, f"kept {n} formulas")
        orders.append(proc.stderr)
        outputs.append(proc.stdout)
        if orders[-1] != orders[0]:
            break
    assert orders[-1] != orders[0], f"no kept count up to {n} moved the conditions' order"
    assert "Sat(upper_bound=Fraction(1, 4), iterations=7)" in outputs[0], outputs[0]
    for n, out in zip(counts, outputs):
        assert out == outputs[0], f"kept {n} formulas: {_first_difference(outputs[0], out)}"


def test_verify_builds_each_adjacency_once(monkeypatch):
    # the program, the kept residual and every right operand keep the
    # adjacency they were given or built, so no subset product builds it
    # again for the same automaton
    program, spec = parse((BENCH_DIR / "coupon.prob").read_text())
    built = []  # the transitions of each adjacency built, held so no id is reused
    adjacency = cfa._adjacency

    def counted(transitions):
        built.append(transitions)
        return adjacency(transitions)

    monkeypatch.setattr(cfa, "_adjacency", counted)
    verdict = verify(to_pcfa(program), spec, solver=Solver())
    assert isinstance(verdict, (Sat, Unsat))
    assert len(built) > 10
    assert len({id(t) for t in built}) == len(built)


# ---------------------------------------------------------------------------
# the run memo of fand/for_


def test_each_loop_runs_with_its_solver_memo_and_leaves_none_current(motivating, certificate, monkeypatch):
    program, spec, p = motivating
    beta, a, qs = certificate
    current = []

    def recording(fn):
        def wrapped(*args):
            current.append(formula._RUN_MEMO.get())
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cegar, "classify", recording(cegar.classify))
    monkeypatch.setattr(cegar, "check_floyd_hoare", recording(cegar.check_floyd_hoare))
    for run_loop in (
        lambda s: verify(p, spec, solver=s),
        lambda s: verify_refutational(p, spec, solver=s),
        lambda s: check_decomposition(p, spec, beta, qs, a, s),
    ):
        current.clear()
        s = Solver()
        assert isinstance(run_loop(s), (Unsat, Certified))
        assert current and all(m is s.memo for m in current)
        assert formula._RUN_MEMO.get() is None
        assert s.memo == {}


def test_no_memo_stays_current_when_a_loop_raises(motivating, monkeypatch):
    program, spec, p = motivating

    def boom(*args):
        assert formula._RUN_MEMO.get() is not None
        raise RuntimeError("boom")

    monkeypatch.setattr(cegar, "classify", boom)
    for run_loop in (verify, verify_refutational):
        s = Solver()
        with pytest.raises(RuntimeError, match="boom"):
            run_loop(p, spec, solver=s)
        assert formula._RUN_MEMO.get() is None
        assert s.memo == {}


def test_each_run_starts_with_a_cold_memo(monkeypatch):
    # nothing a run memoized serves the next run, even with the formulas of
    # the first still alive
    program, spec = parse((BENCH_DIR / "coupon.prob").read_text())
    p = to_pcfa(program)
    builds = []
    assoc = formula._assoc

    def counted(*args):
        builds.append(args[3])
        return assoc(*args)

    monkeypatch.setattr(formula, "_assoc", counted)
    counts, verdicts = [], []
    for _ in range(2):
        builds.clear()
        verdicts.append(verify(p, spec, solver=Solver()))
        counts.append(len(builds))
    assert counts[0] == counts[1] > 100
    assert verdicts[0] == verdicts[1]


def test_threads_running_verify_do_not_share_a_memo(monkeypatch):
    program, spec = parse((BENCH_DIR / "coupon.prob").read_text())
    p = to_pcfa(program)
    solvers = [Solver(), Solver()]
    current: dict[int, list] = {0: [], 1: []}
    classify = cegar.classify

    def recording(tau, spec_, solver):
        current[solvers.index(solver)].append(formula._RUN_MEMO.get())
        return classify(tau, spec_, solver)

    monkeypatch.setattr(cegar, "classify", recording)
    verdicts = [None, None]

    def work(i):
        verdicts[i] = verify(p, spec, solver=solvers[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert solvers[0].memo is not solvers[1].memo
    for i, s in enumerate(solvers):
        assert current[i] and all(m is s.memo for m in current[i])
    assert isinstance(verdicts[0], Sat) and verdicts[0] == verdicts[1]
    assert formula._RUN_MEMO.get() is None


# ---------------------------------------------------------------------------
# the loops' residual


def _recorded(fn, record):
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        record(args, out)
        return out

    return wrapped


@pytest.mark.parametrize("loop", [verify, verify_refutational])
@pytest.mark.parametrize("name", ["motivating.prob", "coupon.prob"])
def test_loops_subtract_each_automaton_and_found_trace_once(name, loop, monkeypatch):
    # each loop keeps its residual between iterations, so an automaton or a
    # found trace is subtracted at the first pick after it appears and never
    # again; what the last iteration adds is never subtracted
    folder = DATA_DIR if name == "motivating.prob" else BENCH_DIR
    program, spec = parse((folder / name).read_text())
    operands = []  # the right operands of each difference, in call order
    bases = []  # (base of a Floyd-Hoare automaton, differences taken before it)
    found = []  # (violating trace, differences taken before it)
    trees = []  # the trace trees the loop built

    def made(seq, items):
        seq.extend((x, len(operands)) for x in items)

    for attr, record in (
        ("difference_nfa", lambda args, out: operands.append(args[1])),
        ("generalize_nonviolating", lambda args, out: made(bases, [out.base])),
        ("examine", lambda args, out: made(bases, [q.base for q in out[2]])),
        ("classify", lambda args, out: made(found, [] if out is None else [tuple(args[0])])),
        ("trace_tree", lambda args, out: trees.append(out)),
    ):
        monkeypatch.setattr(cegar, attr, _recorded(getattr(cegar, attr), record))
    loop(to_pcfa(program), spec, solver=Solver(), max_iters=60)

    def times(pred):
        return sum(1 for ops in operands for b in ops if pred(b))

    assert any(since < len(operands) for _, since in bases)
    for base, since in bases:
        assert times(lambda b: b is base) == (1 if since < len(operands) else 0)
    if loop is verify_refutational:
        assert any(since < len(operands) for _, since in found)
        for tr, since in found:
            in_tree = lambda b: any(b is t for t in trees) and b.accepts(tr)
            assert times(in_tree) == (1 if since < len(operands) else 0)


def test_verify_narrows_the_residual_once_per_update_and_intersects_once_per_examined_pick(monkeypatch):
    # the violating module is searched past at each pick, never subtracted,
    # so every difference narrows the residual by what one iteration
    # certified; each violating pick that goes on to examine builds its
    # candidate module in one product.  A pick's events tell its kind: none
    # after a non-violating pick, a counterexample alone after one too heavy
    # to examine, and examine's own after the rest
    events = []
    differences = []  # (picks so far, right operands) of each difference
    intersects = []  # picks so far at each intersect
    certified = {}  # pick -> number of bases certified in its iteration

    def picks():
        return sum(1 for e in events if e[0] == "pick")

    def added(bases):
        certified[picks()] = certified.get(picks(), 0) + len(bases)

    for attr, record in (
        ("difference_nfa", lambda args, out: differences.append((picks(), list(args[1])))),
        ("intersect", lambda args, out: intersects.append(picks())),
        ("generalize_nonviolating", lambda args, out: added([out.base])),
        ("examine", lambda args, out: added(out[2])),
    ):
        monkeypatch.setattr(cegar, attr, _recorded(getattr(cegar, attr), record))
    updates = examined_total = 0
    for name in sorted(CORPUS_RECORD):
        folder = DATA_DIR if name == "motivating.prob" else BENCH_DIR
        program, spec = parse((folder / name).read_text())
        for seen in (events, differences, intersects, certified):
            seen.clear()
        verdict = verify(to_pcfa(program), spec, solver=Solver(), events=events)
        assert _record_of(verdict) == CORPUS_RECORD[name][0], name
        # the loop goes on past an iteration unless it answered in it
        went_on = [k for k in range(1, verdict.iterations + 1)
                   if k < verdict.iterations or isinstance(verdict, Sat)]
        assert differences[0] == (0, []), name
        assert [k for k, _ in differences[1:]] == [k for k in went_on if certified.get(k)], name
        assert all(ops for _, ops in differences[1:]), name
        after: dict[int, list] = {}
        for e in events:
            if e[0] == "pick":
                after[e[1]] = []
            elif e[0] != "sat":
                after[max(after)].append(e[0])
        examined = [k for k, kinds in after.items() if kinds and kinds[0] != "counterexample"]
        assert intersects == examined, name
        updates += len(differences) - 1
        examined_total += len(examined)
    assert updates > 40 and examined_total > 10, (updates, examined_total)


# ---------------------------------------------------------------------------
# the refutational loop's bound


def test_refutational_bound_at_exactly_beta_answers_sat():
    # the last trace left violates with weight exactly beta minus the found
    # mass, so its own weight cannot rule the bound out, and the bound says Sat
    text = "@pre X = 0\n@post X = 0\n@beta 1/2\nint X;\n{ skip; } <+> { X := 1; };\n"
    program, spec = parse(text)
    events = []
    verdict = verify_refutational(to_pcfa(program), spec, solver=Solver(), events=events)
    assert verdict == Sat(Fraction(1, 2), 1)
    assert events[-1] == ("sat", Fraction(1, 2))


@pytest.mark.parametrize("name", ["motivating.prob", "coupon.prob"])
def test_refutational_bound_runs_only_where_it_can_answer_sat(name, monkeypatch):
    # the bound is at least the found mass plus the weight of the shortest
    # residual trace, so the loop asks for it only when that sum is <= beta
    folder = DATA_DIR if name == "motivating.prob" else BENCH_DIR
    program, spec = parse((folder / name).read_text())
    state = {"tau": None, "found": Fraction(0)}
    sums = []  # found mass plus the weight of tau, at each bound asked for
    converted = []  # each residual converted to a PCFA

    def picked(args, out):
        state["tau"] = out

    def classified(args, out):
        if out is not None:
            state["found"] += weight(args[0])

    def bounded(args, out):
        tau = state["tau"]
        sums.append(None if tau is None else state["found"] + weight(tau))

    for attr, record in (
        ("nfa_shortest", picked),
        ("classify", classified),
        ("analyze_mdp", bounded),
        ("_to_pcfa", lambda args, out: converted.append(out)),
    ):
        monkeypatch.setattr(cegar, attr, _recorded(getattr(cegar, attr), record))
    verdict = verify_refutational(to_pcfa(program), spec, solver=Solver(), max_iters=60)
    assert _record_of(verdict) == CORPUS_RECORD[name][1]
    assert sums and all(s is None or s <= spec.beta for s in sums)
    assert len(sums) < verdict.iterations
    # the residual becomes a PCFA only to be bounded
    assert len(converted) == len(sums)
