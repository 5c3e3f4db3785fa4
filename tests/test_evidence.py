"""The quantitative examination loop: best-first trace mining, mainstream
accumulation, certificates, splits, and counterexample validation."""

import itertools
import random
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter

import pytest

from probtrace import evidence
from probtrace.cegar import verify
from probtrace.cfa import (
    PCFA,
    Pb,
    SkipL,
    difference_all,
    intersect,
    trace_key,
    trim,
)
from probtrace.evidence import (
    Certificate,
    Counterexample,
    CounterexampleFound,
    Exhausted,
    Verified,
    enumerate_by_weight,
    examine,
    validate_counterexample,
    _erase_traces,
)
from probtrace.formula import FALSE, eq, fand, ge, ivar, le
from probtrace.hoare import check_floyd_hoare
from probtrace.lang import Specification, parse, to_pcfa
from probtrace.semantics import weight
from probtrace.solver import Solver
from probtrace.theory import is_empty, mdp_upper_bound, minimize, normalize

from helpers import (
    BENCH_DIR,
    DATA_DIR,
    bounded_language,
    enumerate_traces,
    load_program,
    random_boolean_loop,
    random_cfmdp,
    simplify,
)

C = ivar("C")


@pytest.fixture(scope="module")
def setting(solver):
    """The hand-built violating module for the motivating program: skip the
    reset coin, then take at least one increment in the loop."""
    program, spec = load_program("motivating.prob")
    from probtrace.lang import to_pcfa

    P = to_pcfa(program)
    labs = {str(l): l for l in P.alphabet}
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
    assert pi.is_cfmdp()
    module = normalize(minimize(intersect(pi, P)))
    return P, spec, module


def test_module_fixture_has_the_expected_mass(setting):
    _, _, module = setting
    bound, _ = mdp_upper_bound(module)
    assert bound == Fraction(1, 2)


def test_enumeration_starts_with_the_single_heavy_trace(setting):
    _, _, module = setting
    stream = enumerate_by_weight(module)
    first = next(stream)
    assert weight(first) == Fraction(1, 4)
    nxt = [next(stream) for _ in range(3)]
    assert all(weight(t) == Fraction(1, 8) for t in nxt)


def test_enumeration_rejects_nondeterminism():
    bad = PCFA({(0, SkipL(), 1), (0, SkipL(), 2), (1, SkipL(), 2)}, 0, 2)
    with pytest.raises(ValueError):
        next(enumerate_by_weight(bad))


def test_examine_schedule_to_counterexample(setting, solver):
    """The derived schedule at threshold 3/10: one compatible trace, three
    incompatible heavier-together ones, certificate, split on C = 1, then the
    C = 2 mainstream of three traces crosses the threshold."""
    P, spec, module = setting
    events = []
    outcome, cells, q_new = examine(
        module, spec, Fraction(3, 10), solver, events=events
    )

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
    ]

    # round 1 examines the whole module at optimum 1/2
    assert events[0][2] == Fraction(1, 2)
    # first mainstream: the one-iteration trace, precondition C = 1
    _, tr1, pc1, mass1 = events[1]
    assert weight(tr1) == Fraction(1, 4) and mass1 == Fraction(1, 4)
    assert solver.equivalent(pc1, eq(C, 1))
    # incompatible C = 2 traces accumulate to 3/8, past the 1/5 gap
    accs = [e[3] for e in events[2:5]]
    assert accs == [Fraction(1, 8), Fraction(2, 8), Fraction(3, 8)]
    assert all(solver.equivalent(e[2], eq(C, 2)) for e in events[2:5])
    cert = events[5][1]
    assert isinstance(cert, Certificate)
    assert cert.mass == Fraction(3, 8) >= Fraction(1, 5)
    assert len(cert.incompatibles) == 3 and not cert.fakes
    # split on the mainstream's shared precondition
    assert solver.equivalent(events[6][1], eq(C, 1))
    # round 2: the three C = 2 traces are now mutually compatible
    masses = [e[3] for e in events[8:11]]
    assert masses == [Fraction(1, 8), Fraction(2, 8), Fraction(3, 8)]

    assert isinstance(outcome, CounterexampleFound)
    cex = outcome.counterexample
    assert cex.total_vp == Fraction(3, 8)
    assert len(cex.traces) == 3
    assert solver.equivalent(cex.error_pre, eq(C, 2))
    ok, reasons = validate_counterexample(P, spec, Fraction(3, 10), cex, solver)
    assert ok, reasons
    # no fakes were found, so no new certified automata
    assert not q_new
    # the returned cells still cover every counterexample trace
    assert all(any(c.accepts(tr) for c in cells) for tr in cex.traces)


def test_examine_verifies_under_bounded_precondition(setting, solver):
    P, spec, module = setting
    bounded = Specification(
        pre=simplify(fand(ge(C, 0), le(C, 3))),
        post=spec.post,
        beta=Fraction(47, 100),
    )
    events = []
    outcome, cover, q_new = examine(
        module, bounded, Fraction(47, 100), solver, events=events
    )
    assert isinstance(outcome, Verified)
    assert outcome.upper_bound == Fraction(7, 16)
    # the deepest compartment only holds infeasible traces: fakes certified
    assert q_new
    for fha in q_new:
        assert check_floyd_hoare(fha, solver)
    fakes = [e[1] for e in events if e[0] == "fake"]
    assert fakes and all(
        any(f.base.accepts(tr) for f in q_new) for tr in fakes
    )


def test_examine_exhausts_tiny_trace_budget(setting, solver):
    _, spec, module = setting
    outcome, _, _ = examine(
        module, spec, Fraction(3, 10), solver, trace_budget=2
    )
    assert isinstance(outcome, Exhausted)
    assert "trace budget" in outcome.reason


def test_examine_exhausts_round_cap(setting, solver, monkeypatch):
    _, spec, module = setting
    monkeypatch.setattr(evidence, "_ROUND_CAP", 1)
    bounded = Specification(
        pre=simplify(fand(ge(C, 0), le(C, 3))),
        post=spec.post,
        beta=Fraction(47, 100),
    )
    outcome, _, _ = examine(module, bounded, Fraction(47, 100), solver)
    assert isinstance(outcome, Exhausted)
    assert "round cap" in outcome.reason


# ---------------------------------------------------------------------------
# counterexample validation: each defining property is actually checked


@pytest.fixture(scope="module")
def good_cex(setting, solver):
    P, spec, module = setting
    outcome, _, _ = examine(module, spec, Fraction(3, 10), solver)
    return outcome.counterexample


def test_validation_catches_unsat_precondition(setting, solver, good_cex):
    P, spec, _ = setting
    bad = Counterexample(good_cex.traces, FALSE, good_cex.total_vp)
    ok, reasons = validate_counterexample(P, spec, Fraction(3, 10), bad, solver)
    assert not ok and any("unsatisfiable" in r for r in reasons)


def test_validation_catches_wrong_probability(setting, solver, good_cex):
    P, spec, _ = setting
    bad = Counterexample(good_cex.traces, good_cex.error_pre, Fraction(1, 2))
    ok, reasons = validate_counterexample(P, spec, Fraction(3, 10), bad, solver)
    assert not ok and any("recomputed" in r for r in reasons)


def test_validation_catches_insufficient_mass(setting, solver, good_cex):
    P, spec, _ = setting
    ok, reasons = validate_counterexample(P, spec, Fraction(2, 5), good_cex, solver)
    assert not ok and any("not above" in r for r in reasons)


def test_validation_catches_foreign_traces(setting, solver, good_cex):
    P, spec, _ = setting
    alien = (SkipL(),) * 3
    bad = Counterexample(
        good_cex.traces + (alien,), good_cex.error_pre, good_cex.total_vp + 1
    )
    ok, reasons = validate_counterexample(P, spec, Fraction(3, 10), bad, solver)
    assert not ok
    assert any("not a program trace" in r for r in reasons)
    assert any("not mergeable" in r for r in reasons)


def test_validation_catches_nonviolating_traces(setting, solver, good_cex):
    P, spec, _ = setting
    # a perfectly fine program trace that never violates: take the reset coin
    program_trace = None
    from probtrace.semantics import classify

    for tr in enumerate_traces(P, 6):
        if classify(tr, spec, solver) is None:
            program_trace = tr
            break
    assert program_trace is not None
    bad = Counterexample(
        (program_trace,), good_cex.error_pre, weight(program_trace)
    )
    ok, reasons = validate_counterexample(P, spec, Fraction(0), bad, solver)
    assert not ok and any("not violating" in r for r in reasons)


def test_validation_accepts_the_real_thing(setting, solver, good_cex):
    P, spec, _ = setting
    ok, reasons = validate_counterexample(
        P, spec, Fraction(3, 10), good_cex, solver
    )
    assert ok and not reasons


def _linear(trace) -> PCFA:
    """The one-trace automaton: the reference erasure removes one per trace."""
    return PCFA({(i, lab, i + 1) for i, lab in enumerate(trace)}, 0, len(trace))


def test_erasing_through_one_trace_tree_matches_per_trace_difference_seeded():
    rng = random.Random(1313)
    checked = 0
    while checked < 40:
        a = random_cfmdp(rng)
        complete = enumerate_traces(a, 5)
        if not complete:
            continue
        traces = rng.sample(complete, rng.randint(1, min(6, len(complete))))
        got = _erase_traces(a, traces)
        want = difference_all(a, [_linear(tr) for tr in traces])
        assert (got.initial, got.accepting, got.locations, got.transitions) == (
            want.initial,
            want.accepting,
            want.locations,
            want.transitions,
        )
        checked += 1


def _coin_free_acyclic(a: PCFA) -> bool:
    """Whether every cycle of `a` reads a coin: otherwise the weight-first
    search can unroll a coin-free cycle forever before a heavier trace."""
    preds: dict = {}
    for s, lab, t in a.transitions:
        if not isinstance(lab, Pb):
            preds.setdefault(t, set()).add(s)
    try:
        TopologicalSorter(preds).prepare()
    except CycleError:
        return False
    return True


def _stream_rounds(programs, monkeypatch):
    """Run `verify` on each program text, recording for every round of
    `examine` the traces its stream yielded, the traces it weighed, its
    events, p and beta."""
    rounds = []
    events: list = []
    real_enumerate = evidence.enumerate_by_weight

    def recording(sub):
        got = []
        rounds.append({"yielded": got, "weighed": []})
        for tr in real_enumerate(sub):
            got.append(tr)
            yield tr

    def weighing(tr):
        # validating a counterexample weighs its traces again, outside the loop
        if not (events and events[-1][0] == "counterexample"):
            rounds[-1]["weighed"].append(tr)
        return weight(tr)

    monkeypatch.setattr(evidence, "enumerate_by_weight", recording)
    monkeypatch.setattr(evidence, "weight", weighing)
    for text in programs:
        program, spec = parse(text)
        events.clear()
        first = len(rounds)
        verify(to_pcfa(program), spec, solver=Solver(), max_iters=40, events=events)
        starts = [i for i, e in enumerate(events) if e[0] == "round"]
        assert len(starts) == len(rounds) - first
        for r, lo, hi in zip(rounds[first:], starts, starts[1:] + [len(events)]):
            r["events"], r["p"], r["beta"] = events[lo + 1 : hi], events[lo][2], spec.beta
    return rounds


def test_examine_reads_one_weighted_stream_per_round(monkeypatch):
    # each round weighs every trace its stream yields once, examines them
    # in order, and stops early only at a weight boundary once the
    # certificate mass covers the gap p - beta, or at a counterexample
    programs = [path.read_text() for path in sorted(BENCH_DIR.glob("*.prob"))]
    programs.append((DATA_DIR / "motivating.prob").read_text())
    rng = random.Random(3535)
    programs += [random_boolean_loop(rng) for _ in range(20)]
    rounds = _stream_rounds(programs, monkeypatch)
    boundary = counterexample = 0
    for r in rounds:
        yielded = r["yielded"]
        assert r["weighed"] == yielded
        named = [e[1] for e in r["events"] if e[0] in ("mainstream", "incompatible", "fake")]
        assert named in (yielded, yielded[:-1])
        if named != yielded:
            assert weight(yielded[-1]) < weight(yielded[-2])
            (cert,) = [e[1] for e in r["events"] if e[0] == "certificate"]
            assert cert.mass >= r["p"] - r["beta"]
            boundary += 1
        counterexample += any(e[0] == "counterexample" for e in r["events"])
    assert boundary and counterexample


def test_enumeration_order_is_the_sorted_bounded_language_seeded():
    # the first traces, of at most `depth` labels, are the least traces of
    # the bounded language of that depth in (coin count, length, trace_key)
    # order: a shorter trace can never come after them
    rng = random.Random(2113)
    checked = full = 0
    while checked < 60:
        a = trim(random_cfmdp(rng))
        if is_empty(a) or not _coin_free_acyclic(a):
            continue
        got = list(itertools.islice(enumerate_by_weight(a), 30))
        depth = max(map(len, got))
        if depth > 8:
            continue
        want = sorted(
            bounded_language(a, depth),
            key=lambda tr: (sum(isinstance(l, Pb) for l in tr), len(tr), trace_key(tr)),
        )
        assert got == want[:30]
        checked += 1
        full += len(got) == 30
    assert full >= 20


class _Untouchable(dict):
    def _refuse(self, *args):
        raise AssertionError("the verifier's wp_memo was used")

    get = __getitem__ = __setitem__ = __contains__ = setdefault = _refuse


def test_validation_never_uses_the_wp_memo(setting, good_cex):
    # Unsat validation recomputes each trace's precondition with the plain
    # fold, so a wrong entry in the verifier's memo cannot validate itself
    P, spec, _ = setting
    solver = Solver()
    solver.wp_memo = _Untouchable()
    ok, reasons = validate_counterexample(P, spec, Fraction(3, 10), good_cex, solver)
    assert ok and not reasons
