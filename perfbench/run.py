"""Benchmark of the probtrace verifier, end to end and by layer.

    python3 perfbench/run.py --workload {suite,flips,refute} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a probtrace checkout: it imports the library from
the checkout's ``src/`` and reads ``benchmarks/`` and ``tests/data/``.  One
process runs one workload, single-threaded, one input at a time, each with a
fresh ``Solver``; two runs in the same checkout refuse to overlap.

Workloads (see ``workloads.py`` for why each was chosen):

* ``suite``  -- the crafted corpus through ``verify``; the language difference dominates.
* ``flips``  -- generated loop-free coin programs through ``verify``; Hoare
  saturation, the solver facade and formula construction dominate.
* ``refute`` -- generated violated loop programs through
  ``verify_refutational``; the MDP bound runs every iteration, ``examine`` never.

A run first sets up several times: it imports ``probtrace`` afresh, then
parses and translates every input (``setup_s`` is the median).  It then
repeats passes over the inputs while another pass fits in ``--seconds``.
Times are reported in reference seconds, corrected for the slowdown other
tenants of a shared machine cause (see ``measure``); the per-input table
also shows them as measured.

Every verdict is checked against an independent reference outside the timed
region: the corpus goldens, or the exact oracle for generated programs.  A
Sat bound must lie between the true probability and the threshold; an Unsat
counterexample must carry more mass than the threshold, no more than the
true probability, and pass ``validate_counterexample`` again.  An input that
is wrong, Inconclusive, past its time limit or crashed counts as failed:
``solved_ratio`` is the share that did not.  ``iterations`` sums the
verdicts' iteration counts over one pass, and ``bound_ratio`` is the sum of
the Sat bounds over the sum of their true probabilities (1 when all are
exact).  Neither may move without a change in behaviour.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then wraps the public functions of every
``probtrace`` module (``tracer.py``) and reports per-layer metrics from
traced passes.  The last line of output is one JSON object; the exit code is
1 when any verdict or bound is wrong, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import fcntl
import importlib
import json
import os
import platform
import random
import resource
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

import workloads
from tracer import LAYERS, Stat, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "benchmarks"
MOTIVATING = ROOT / "tests" / "data" / "motivating.prob"

SETUPS = 7  # set-ups per run; setup_s is their median
REF_PROBE_S = 0.0009  # `probe` on a quiet core of the 2-core machine the benchmark was defined on
PROBE_EVERY_S = 0.05  # CPU seconds between probes within a timed interval
INPUT_LIMIT_S = 60.0  # an input that runs longer counts as failed
DEADLINE_S = 150.0  # no input runs past this many seconds after start


class InputTimeout(Exception):
    pass


class BenchmarkError(Exception):
    """The benchmark cannot produce comparable numbers here."""


def _alarm(signum, frame):
    raise InputTimeout()


# ---------------------------------------------------------------------------
# running inputs
# ---------------------------------------------------------------------------

def probe() -> float:
    """Wall seconds of a fixed loop of about a millisecond.  Of the loops
    tried, plain interpreter dispatch slowed most like the verifier does."""
    start = time.perf_counter()
    acc = 0
    for i in range(15000):
        acc += i * i
    return time.perf_counter() - start


@dataclass(frozen=True)
class Timing:
    raw_s: float  # wall seconds as measured
    wall_s: float  # wall seconds at the reference speed
    cpu_s: float  # CPU seconds at the reference speed


def measure(fn):
    """Call `fn`; return its result and how long it took, in reference seconds.

    Other tenants of a shared machine slow a process by a factor that drifts
    within seconds, by up to 2x on the machine the benchmark was defined on,
    and CPU time inflates with wall time.  So `probe` runs three times before
    and after the call and, from a profiling timer, every PROBE_EVERY_S of CPU
    time during it.  The call's time, less the probes' own, is scaled by
    REF_PROBE_S over the median probe: the result estimates the call on a
    quiet core.  Probes measure wall time only, because inside a signal
    handler the process CPU clock can stand still."""
    samples = [probe() for _ in range(3)]
    signal.signal(signal.SIGPROF, lambda *_: samples.append(probe()))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        out = fn()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    wall -= sum(samples[3:])
    cpu -= sum(samples[3:])
    samples += [probe() for _ in range(3)]
    scale = REF_PROBE_S / median(samples)
    return out, Timing(wall, wall * scale, cpu * scale)


@dataclass
class Outcome:
    verdict: object  # a probtrace verdict, or "timeout" / "error: ..."
    time: Timing
    queries: int = 0
    cache_hits: int = 0
    backend_s: float = 0.0
    rounds: int = 0
    detail: str = ""  # the check's finding


@dataclass
class Pass:
    outcomes: list[Outcome]

    def total(self, attr: str) -> float:
        return sum(getattr(o.time, attr) for o in self.outcomes)


def set_up(texts: list[str]):
    """Import probtrace afresh, then parse and translate every input."""
    for name in [n for n in sys.modules if n == "probtrace" or n.startswith("probtrace.")]:
        del sys.modules[name]
    pt = importlib.import_module("probtrace")
    parsed = [pt.parse(t) for t in texts]
    return pt, [(pt.to_pcfa(program), spec) for program, spec in parsed]


def run_one(pt, case: workloads.Case, pcfa, spec, limit: float) -> Outcome:
    """Decide one input with a fresh solver; past `limit` seconds it counts as timed out."""
    if limit <= 0:
        return Outcome("timeout", Timing(0.0, 0.0, 0.0))
    loop = pt.verify if case.mode == "verify" else pt.verify_refutational
    events: list = []

    def decide():
        solver = pt.Solver()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            return solver, loop(pcfa, spec, solver=solver, events=events)
        except InputTimeout:
            return solver, "timeout"
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            traceback.print_exc()
            return solver, f"error: {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    (solver, verdict), timing = measure(decide)
    stats = solver.stats()
    solver.close()
    rounds = sum(1 for e in events if e[0] == "round")
    return Outcome(verdict, timing, stats["queries"], stats["cache_hits"], stats["solver_time"], rounds)


def run_passes(pt, cases, inputs, budget_s: float, started: float) -> list[Pass]:
    """Whole passes over the inputs while another one fits in the budget."""
    signal.signal(signal.SIGALRM, _alarm)
    passes: list[Pass] = []
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(Pass([
            run_one(pt, case, pcfa, spec, min(INPUT_LIMIT_S, started + DEADLINE_S - time.perf_counter()))
            for case, (pcfa, spec) in zip(cases, inputs)
        ]))
        now = time.perf_counter()
        if now - begin + (now - pass_start) > budget_s:
            return passes


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reference:
    expect: str  # "sat" or "unsat"
    lo: Fraction  # the true violation probability lies in [lo, hi]
    hi: Fraction


def reference(pt, case: workloads.Case, pcfa, spec) -> Reference:
    """The golden verdict where the corpus has one, else the exact oracle,
    which must agree with the generator's own value."""
    if case.expect is not None:
        return Reference(case.expect, case.truth, case.truth)
    lo, hi = pt.exact_violation_probability(pcfa, spec)
    if case.truth is not None and not lo == hi == case.truth:
        raise BenchmarkError(f"{case.name}: oracle gives [{lo}, {hi}], generator {case.truth}")
    if lo > spec.beta:
        return Reference("unsat", lo, hi)
    if hi <= spec.beta:
        return Reference("sat", lo, hi)
    raise BenchmarkError(f"{case.name}: oracle interval [{lo}, {hi}] straddles beta {spec.beta}")


def check(pt, ref: Reference, pcfa, spec, verdict) -> tuple[str, str]:
    """("ok" | "wrong" | "failed", detail) for one verdict."""
    beta = spec.beta
    if isinstance(verdict, pt.Sat):
        bound = verdict.upper_bound
        if ref.expect != "sat":
            return "wrong", f"Sat {bound}, but the contract is violated (truth >= {ref.lo})"
        if not ref.hi <= bound <= beta:
            return "wrong", f"Sat bound {bound} outside [{ref.hi}, {beta}]"
        return "ok", f"Sat {bound}"
    if isinstance(verdict, pt.Unsat):
        cex = verdict.counterexample
        if ref.expect != "unsat":
            return "wrong", f"Unsat {cex.total_vp}, but the contract holds (truth <= {ref.hi})"
        if not beta < cex.total_vp <= ref.hi:
            return "wrong", f"counterexample mass {cex.total_vp} outside ({beta}, {ref.hi}]"
        solver = pt.Solver()
        ok, reasons = pt.validate_counterexample(pcfa, spec, beta, cex, solver)
        solver.close()
        if not ok:
            return "wrong", "counterexample fails validation: " + "; ".join(reasons)
        return "ok", f"Unsat {cex.total_vp}"
    if isinstance(verdict, pt.Inconclusive):
        return "failed", f"Inconclusive: {verdict.reason}"
    return "failed", str(verdict)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(setups: list[float], passes: list[Pass], refs: list[Reference], statuses) -> dict:
    per_input = [median([p.outcomes[i].time.wall_s for p in passes]) for i in range(len(refs))]
    first = passes[0].outcomes
    sat = [(o.verdict.upper_bound, r.hi) for o, r in zip(first, refs) if hasattr(o.verdict, "upper_bound")]
    attempted = len(statuses)
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([p.total("wall_s") for p in passes]), "s"),
        "cpu_s": (median([p.total("cpu_s") for p in passes]), "s"),
        "verdict_p50_s": (median(per_input), "s"),
        "verdict_max_s": (max(per_input), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "solved_ratio": (sum(1 for s in statuses if s == "ok") / attempted, "ratio"),
        "iterations": (median([sum(getattr(o.verdict, "iterations", 0) for o in p.outcomes) for p in passes]), "count"),
        # 1 when every Sat bound is exact; 1 also when no input is Sat (refute)
        "bound_ratio": (float(sum(b for b, _ in sat) / sum(t for _, t in sat)) if sat else 1.0, "ratio"),
    }


# per-layer metric -> (span, Stat field); "self_s" is in seconds, the others count
_SPAN_METRICS = {
    "cfa.difference.calls": ("cfa.difference", "calls"),
    "cfa.difference.self_s": ("cfa.difference", "self_s"),
    "cfa.difference.states_out": ("cfa.difference", "size"),
    "cfa.minimize.self_s": ("cfa.minimize", "self_s"),
    "cfa.intersect.self_s": ("cfa.intersect", "self_s"),
    "cfa.union.self_s": ("cfa.union", "self_s"),
    "cfa.normalize.self_s": ("cfa.normalize", "self_s"),
    "semantics.hoare_valid.calls": ("semantics.hoare_valid", "calls"),
    "semantics.hoare_valid.self_s": ("semantics.hoare_valid", "self_s"),
    "semantics.classify.calls": ("semantics.classify", "calls"),
    "semantics.path_condition.self_s": ("semantics.path_condition", "self_s"),
    "hoare.generalize.calls": ("hoare.generalize", "calls"),
    "hoare.generalize.self_s": ("hoare.generalize", "self_s"),
    "hoare.saturate.self_s": ("hoare.saturate", "self_s"),
    "hoare.saturate.edges_added": ("hoare.saturate", "size"),
    "solver.is_sat.calls": ("solver.is_sat", "calls"),
    "solver.interpolants.calls": ("solver.interpolants", "calls"),
    "solver.interpolants.self_s": ("solver.interpolants", "self_s"),
    "markov.analyze_mdp.calls": ("markov.analyze_mdp", "calls"),
    "markov.analyze_mdp.self_s": ("markov.analyze_mdp", "self_s"),
    "markov.analyze_mdp.states_in": ("markov.analyze_mdp", "size"),
    "markov.mdp_upper_bound.self_s": ("markov.mdp_upper_bound", "self_s"),
    "markov.merge_traces.calls": ("markov.merge_traces", "calls"),
    "evidence.examine.calls": ("evidence.examine", "calls"),
    "evidence.examine.self_s": ("evidence.examine", "self_s"),
    "evidence.traces_mined": ("evidence.enumerate", "size"),
    "evidence.validate.self_s": ("evidence.validate", "self_s"),
}


def per_layer(setup_stats: dict, stats: dict, passes: list[Pass], untraced: list[Pass]) -> dict:
    """Per-layer metrics, per traced pass; parsing and translation come
    from one traced set-up.  Span times are seconds as measured."""
    n = len(passes)

    def per_pass(total: float) -> float:
        return total / n

    def outcomes(attr: str) -> float:
        return per_pass(sum(getattr(o, attr) for p in passes for o in p.outcomes))

    m = {name: (setup_stats.get(name[:-len(".self_s")], Stat()).self_s, "s")
         for name in ("lang.parse.self_s", "lang.to_pcfa.self_s")}
    for name, (span, attr) in _SPAN_METRICS.items():
        m[name] = (per_pass(getattr(stats.get(span, Stat()), attr)), "s" if attr == "self_s" else "count")
    m["formula.calls"] = (per_pass(sum(st.calls for k, st in stats.items() if k.startswith("formula."))), "count")
    queries, hits = outcomes("queries"), outcomes("cache_hits")
    m["solver.queries"] = (queries, "count")
    m["solver.cache_hits"] = (hits, "count")
    m["solver.cache_hit_ratio"] = (hits / (hits + queries) if hits + queries else 0.0, "ratio")
    m["solver.facade.self_s"] = (per_pass(sum(stats.get(k, Stat()).self_s for k in ("solver.facade", "solver.is_sat"))), "s")
    m["solver.backend_s"] = (outcomes("backend_s"), "s")
    m["evidence.rounds"] = (outcomes("rounds"), "count")
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = (per_pass(sum(st.self_s for k, st in stats.items() if k.split(".")[0] == layer)), "s")
    # as measured, like the span times, so that self_s / trace.wall_s is a layer's share
    m["trace.wall_s"] = (median([p.total("raw_s") for p in passes]), "s")
    m["trace.overhead_ratio"] = (median([p.total("wall_s") for p in passes])
                                 / median([p.total("wall_s") for p in untraced]), "ratio")
    return m


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def make_cases(workload: str, seed: int) -> list[workloads.Case]:
    rng = random.Random(seed)
    if workload == "suite":
        return workloads.suite(rng, CORPUS, MOTIVATING)
    return getattr(workloads, workload)(rng)


def benchmark(args, started: float) -> int:
    cases = make_cases(args.workload, args.seed)
    texts = [c.text for c in cases]
    setups = []
    for _ in range(SETUPS):
        (pt, inputs), took = measure(lambda: set_up(texts))
        setups.append(took.wall_s)
    if Path(pt.__file__).resolve().parent != SRC / "probtrace":
        raise BenchmarkError(f"imported probtrace from {pt.__file__}, not from this checkout")
    probe = pt.Solver()
    backend = probe.backend_name
    probe.close()
    if backend != "builtin":
        raise BenchmarkError(f"solver backend is {backend!r}, not 'builtin' (unset PROBTRACE_SOLVER, take z3 off PATH)")
    refs = [reference(pt, c, pcfa, spec) for c, (pcfa, spec) in zip(cases, inputs)]
    settings = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": len(cases),
        "input_digest": workloads.digest(cases),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend,
        "input_limit_s": INPUT_LIMIT_S,
    }
    print("settings " + json.dumps(settings), flush=True)

    if args.trace:
        untraced = run_passes(pt, cases, inputs, args.seconds / 2, started)
        tracer = Tracer()
        tracer.install()
        try:
            for program, _ in [pt.parse(t) for t in texts]:
                pt.to_pcfa(program)
            setup_stats = tracer.take()
            passes = run_passes(pt, cases, inputs, args.seconds / 2, started)
        finally:
            tracer.uninstall()
        stats = tracer.take()
        all_passes = untraced + passes
    else:
        passes = all_passes = run_passes(pt, cases, inputs, args.seconds, started)

    statuses = []
    for p in all_passes:
        for case, ref, (pcfa, spec), o in zip(cases, refs, inputs, p.outcomes):
            status, detail = check(pt, ref, pcfa, spec, o.verdict)
            statuses.append(status)
            o.detail = f"{status}: {detail}"
    print(f"{'input':<28} {'verdict':<44} {'iters':>5} {'median s':>9} {'raw s':>7}")
    for i, case in enumerate(cases):
        o = passes[0].outcomes[i]
        ref_s, raw_s = (median([getattr(p.outcomes[i].time, a) for p in passes]) for a in ("wall_s", "raw_s"))
        print(f"{case.name:<28} {o.detail[:44]:<44} {getattr(o.verdict, 'iterations', '-'):>5} {ref_s:9.3f} {raw_s:7.3f}")
    if args.trace:
        metrics = per_layer(setup_stats, stats, passes, untraced)
    else:
        metrics = end_to_end(setups, passes, refs, statuses)
    print(f"{len(passes)} {'traced ' if args.trace else ''}passes over {len(cases)} inputs; "
          f"verdict_p50_s and verdict_max_s are over {len(cases)} per-input medians; seconds at reference speed")
    for p in passes:
        print(f"  pass: {p.total('wall_s'):.3f} s, {p.total('raw_s'):.3f} s as measured")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.6g} {unit}")
    wrong = statuses.count("wrong")
    result = {
        "correct": wrong == 0,
        "attempted": len(statuses),
        "failed": len(statuses) - statuses.count("ok"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("suite", "flips", "refute"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    missing = [str(p) for p in (SRC / "probtrace" / "__init__.py", CORPUS / "golden.json", MOTIVATING) if not p.is_file()]
    if missing:
        print(f"perfbench: not a probtrace checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(HERE / ".lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("perfbench: another benchmark run is using this checkout", file=sys.stderr)
            return 2
        try:
            return benchmark(args, started)
        except BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
