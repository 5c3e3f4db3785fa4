"""Tests of the benchmark itself: generators, checks, tracer, smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# cheap members of each workload, enough to exercise every code path
SMOKE = {
    "suite": ("two_coins", "two_coins_ok", "three_flips", "counter_over"),
    "flips": ("flips4_X_sat", "flips4_X_unsat"),
    "refute": ("counter", "ruin"),
}


def _set_up(cases):
    pt, inputs = run.set_up([c.text for c in cases])
    refs = [run.reference(pt, c, pcfa, spec) for c, (pcfa, spec) in zip(cases, inputs)]
    return pt, inputs, refs


@pytest.mark.parametrize("workload", ["flips", "refute", "suite"])
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    a = run.make_cases(workload, 7)
    assert a == run.make_cases(workload, 7)
    assert workloads.digest(a) == workloads.digest(run.make_cases(workload, 7))
    assert workloads.digest(a) != workloads.digest(run.make_cases(workload, 8))


@pytest.mark.parametrize("workload", ["flips", "refute"])
def test_generator_values_match_the_oracle(workload):
    cases = run.make_cases(workload, 3)
    pt, _, refs = _set_up(cases)  # reference() raises on any disagreement
    assert all(r.lo == r.hi == c.truth for c, r in zip(cases, refs))


def test_checker_rejects_a_bound_below_the_truth_and_wrong_verdicts():
    cases = sorted((c for c in run.make_cases("flips", 1) if c.name in ("flips4_X_sat", "flips4_X_unsat")),
                   key=lambda c: c.name)
    pt, inputs, refs = _set_up(cases)
    (sat_pcfa, sat_spec), (unsat_pcfa, unsat_spec) = inputs
    truth = refs[0].lo
    assert run.check(pt, refs[0], sat_pcfa, sat_spec, pt.Sat(truth, 1))[0] == "ok"
    assert run.check(pt, refs[0], sat_pcfa, sat_spec, pt.Sat(truth - Fraction(1, 64), 1))[0] == "wrong"
    assert run.check(pt, refs[1], unsat_pcfa, unsat_spec, pt.Sat(unsat_spec.beta, 1))[0] == "wrong"
    cex = pt.verify(unsat_pcfa, unsat_spec, solver=pt.Solver()).counterexample
    assert run.check(pt, refs[1], unsat_pcfa, unsat_spec, pt.Unsat(cex, 1))[0] == "ok"
    assert run.check(pt, refs[0], sat_pcfa, sat_spec, pt.Unsat(cex, 1))[0] == "wrong"
    assert run.check(pt, refs[0], sat_pcfa, sat_spec, pt.Inconclusive("cap", 1))[0] == "failed"


def test_an_input_past_its_time_limit_counts_as_failed():
    cases = [c for c in run.make_cases("refute", 1) if c.name == "walk"]
    pt, inputs, refs = _set_up(cases)
    pcfa, spec = inputs[0]
    run.signal.signal(run.signal.SIGALRM, run._alarm)
    outcome = run.run_one(pt, cases[0], pcfa, spec, limit=0.01)
    assert outcome.verdict == "timeout"
    assert run.check(pt, refs[0], pcfa, spec, outcome.verdict)[0] == "failed"


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_on_a_nested_call():
    clock = _Clock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0

    def recursive(n):
        clock.now += 1.0
        if n:
            traced_rec(n - 1)

    traced_inner = tracer.wrap("toy.inner", inner)
    traced_rec = tracer.wrap("toy.rec", recursive, sizer=lambda args, out: 10)
    tracer.wrap("toy.outer", outer)()
    traced_rec(2)
    stats = tracer.take()
    assert stats["toy.outer"].self_s == pytest.approx(4.0)
    assert stats["toy.inner"].self_s == pytest.approx(2.0)
    assert (stats["toy.outer"].calls, stats["toy.inner"].calls) == (1, 1)
    # recursion folds into the outermost call: all the time, one call, one size
    assert (stats["toy.rec"].self_s, stats["toy.rec"].calls, stats["toy.rec"].size) == (3.0, 1, 10)
    assert tracer.take() == {}


def test_tracer_counts_generator_yields():
    tracer = Tracer()
    gen = tracer.wrap("toy.gen", lambda: (yield from range(3)))
    assert list(gen()) == [0, 1, 2]
    assert tracer.stats["toy.gen"].size == 3


def test_tracer_replaces_every_binding_and_restores_them():
    run.set_up([])
    cfa, cegar, pt = sys.modules["probtrace.cfa"], sys.modules["probtrace.cegar"], sys.modules["probtrace"]
    formula = sys.modules["probtrace.formula"]
    before = (cfa.difference_nfa, cegar.difference_nfa, pt.verify, pt.Solver.is_sat, cegar.fand, formula.fand)
    tracer = Tracer()
    tracer.install()
    try:
        assert cegar.difference_nfa is cfa.difference_nfa is not before[0]
        assert pt.verify is not before[2] and pt.Solver.is_sat is not before[3]
        # formula functions are traced where other modules call them only
        assert cegar.fand is not before[4] and formula.fand is before[5]
    finally:
        tracer.uninstall()
    assert (cfa.difference_nfa, cegar.difference_nfa, pt.verify, pt.Solver.is_sat, cegar.fand, formula.fand) == before
    fake = types.ModuleType("fake")
    fake.f = before[0]
    tracer.replace_everywhere(before[0], len, [fake])
    assert fake.f is len
    tracer.uninstall()
    assert fake.f is before[0]


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_each_workload_completes_a_smoke_run(workload):
    cases = [c for c in run.make_cases(workload, 5) if c.name in SMOKE[workload]]
    assert len(cases) == len(SMOKE[workload])
    pt, inputs, refs = _set_up(cases)
    untraced = run.run_passes(pt, cases, inputs, 0.0, time.perf_counter())
    statuses = [run.check(pt, r, pcfa, spec, o.verdict)[0]
                for r, (pcfa, spec), o in zip(refs, inputs, untraced[0].outcomes)]
    assert statuses == ["ok"] * len(cases)
    metrics = run.end_to_end([0.1], untraced, refs, statuses)
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert metrics["solved_ratio"][0] == 1.0 and metrics["bound_ratio"][0] == 1.0
    assert all(value > 0 for value, _ in metrics.values())

    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_passes(pt, cases, inputs, 0.0, time.perf_counter())
    finally:
        tracer.uninstall()
    layers = run.per_layer({}, tracer.take(), traced, untraced)
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert layers["cfa.difference.calls"][0] > 0 and layers["formula.calls"][0] > 0
    assert layers["trace.overhead_ratio"][0] > 0
