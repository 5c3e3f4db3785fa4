"""Command-line front end.

Subcommands:

* ``verify FILE``  — run the abstraction-refinement verifier on a program.
* ``check FILE CERT`` — validate a decomposition certificate for a program.
* ``oracle FILE``  — compute the exact violation probability by state-space
  exploration over a finite initial-state domain.
* ``bench DIR``    — run every ``*.prob`` program in a directory and print a
  result table (Result / #Iteration / Upper Bound / #Traces).

Exit codes: 0 = satisfied (bound at or below the threshold), 1 = refuted
(validated counterexample), 2 = inconclusive, 3 = usage/input error,
4 = internal error.

All probabilities are exact rationals; a decimal approximation is appended
for readability.  A config file (``key = value`` lines, ``#`` comments) can
set defaults for ``timeout`` (seconds, 0 for no limit), ``max_iters``,
``trace_budget``, ``beta``, ``refutational`` and ``step_bound``;
command-line flags override the file.
Every query goes to the builtin exact decision procedure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import sys
import time
from contextlib import suppress
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Optional

from .cegar import (
    Certified,
    Inconclusive,
    Rejected,
    Sat,
    Unsat,
    check_decomposition,
    load_certificate,
    verify,
    verify_refutational,
)
from .lang import ParseError, parse, to_pcfa
from .oracle import StateDomain, exact_violation_probability
from .solver import Solver, SolverUnknown

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    """Usage or input problem; message is printed and exit code is 3."""


# ---------------------------------------------------------------------------
# rendering helpers


def render_fraction(f: Fraction) -> str:
    """Exact rational with a decimal approximation appended."""
    if f.denominator == 1:
        return str(f)
    return f"{f} (~{float(f):.6g})"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not an exact rational: {text!r} ({exc})") from exc


_DOM_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)=(-?\d+)\.\.(-?\d+)$")


def parse_domain(entries: list[str]) -> Optional[StateDomain]:
    """Each entry has the shape ``VAR=a..b`` (inclusive integer range)."""
    if not entries:
        return None
    ranges: dict[str, tuple[int, int]] = {}
    for entry in entries:
        m = _DOM_RE.match(entry)
        if not m:
            raise CliError(f"bad --dom entry {entry!r}; expected VAR=a..b")
        lo, hi = int(m.group(2)), int(m.group(3))
        if lo > hi:
            raise CliError(f"empty range in --dom entry {entry!r}")
        ranges[m.group(1)] = (lo, hi)
    return StateDomain.of(ranges)


# ---------------------------------------------------------------------------
# config file

def _flag(value: str) -> bool:
    """A yes/no config value, case-insensitively."""
    value = value.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(value)


# every setting: its key, how a config-file value reads, and its default; a
# flag of the same name overrides the config file
_SETTINGS = (
    ("beta", Fraction, None),
    ("timeout", float, None),
    ("max_iters", int, 500),
    ("trace_budget", int, 10_000),
    ("refutational", _flag, False),
    ("step_bound", int, 64),
)
_CONFIG_KEYS = {key for key, _, _ in _SETTINGS}


def load_config(path: str) -> dict:
    """Parse a ``key = value`` config file; unknown keys are rejected."""
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split("//", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise CliError(
                f"{path}:{lineno}: unknown config key {key!r} "
                f"(known: {', '.join(sorted(_CONFIG_KEYS))})"
            )
        values[key] = value
    return values


def _config_value(cfg: dict, key: str, convert, default):
    """`cfg[key]` read by `convert`, or `default` when the key is absent."""
    if key not in cfg:
        return default
    try:
        return convert(cfg[key])
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"config key {key!r}: bad value {cfg[key]!r}") from exc


def _merge_settings(args: argparse.Namespace) -> dict:
    """Config-file defaults overridden by any explicitly given flags."""
    cfg = load_config(args.config) if getattr(args, "config", None) else {}
    merged = {
        key: _config_value(cfg, key, convert, default) for key, convert, default in _SETTINGS
    }
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:  # a store_true flag left unset reads False
            merged[key] = parse_fraction(flag) if key == "beta" else flag
    for key in ("max_iters", "trace_budget", "step_bound"):
        if merged[key] < 0:
            raise CliError(f"{key!r} must not be negative, got {merged[key]}")
    if merged["beta"] is not None and not 0 <= merged["beta"] <= 1:
        raise CliError(f"'beta' {merged['beta']} is outside [0,1]")
    timeout = merged["timeout"]
    if timeout is not None and not (math.isfinite(timeout) and timeout >= 0):
        raise CliError(f"'timeout' must be a finite number of seconds >= 0, got {timeout}")
    return merged


# ---------------------------------------------------------------------------
# shared run plumbing


class _Timeout(Exception):
    pass


def _strike(signum, frame):
    raise _Timeout()


def _timed(seconds: Optional[float], call):
    """`(call(), seconds taken)` under a wall-clock limit of `seconds` (0 or
    None: no limit), via SIGALRM (main thread only); the result is None when
    the limit struck."""
    t0 = time.monotonic()
    result, previous = None, signal.getsignal(signal.SIGALRM)
    try:
        if seconds:
            signal.signal(signal.SIGALRM, _strike)
            # a limit beyond what the interval timer can represent could never
            # fire: it runs without an alarm
            with suppress(OverflowError):
                signal.setitimer(signal.ITIMER_REAL, seconds)
        result = call()
    except _Timeout:
        pass  # the limit struck: no result
    finally:
        if seconds:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous or signal.SIG_DFL)
    return result, round(time.monotonic() - t0, 3)


def _load_program(path: str):
    """The program in file `path`, its spec, and its compiled automaton."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        program, spec = parse(text)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return program, spec, to_pcfa(program)


def _ratio(f: Fraction) -> str:
    """`f` as ``p/q``, denominator always written."""
    return f"{f.numerator}/{f.denominator}"


def _bound(f: Fraction) -> dict:
    return {"bound_num": f.numerator, "bound_den": f.denominator}


# the verify report's fields in their JSON order, unset; a report adds time_s
# (and a run its solver stats) after them
_REPORT = dict.fromkeys(
    ("file", "verdict", "bound_num", "bound_den", "iterations", "traces", "error_pre", "beta", "reason")
)


def _verdict_fields(result) -> dict:
    """The report fields the verifier's answer sets."""
    if isinstance(result, Sat):
        return {"verdict": "sat", **_bound(result.upper_bound), "iterations": result.iterations}
    if isinstance(result, Unsat):
        cex = result.counterexample
        return {
            "verdict": "unsat",
            **_bound(cex.total_vp),
            "iterations": result.iterations,
            "traces": [[str(lab) for lab in tr] for tr in cex.traces],
            "error_pre": str(cex.error_pre),
        }
    return {"verdict": "inconclusive", "iterations": result.iterations, "reason": result.reason}


def run_verify(path: str, settings: dict) -> dict:
    """Run the verifier on one file and return a report dictionary.

    Report fields (stable): verdict, bound_num, bound_den, iterations,
    traces, error_pre — plus beta, file, time_s, reason and solver stats.
    """
    _, spec, p = _load_program(path)
    beta = settings["beta"] if settings["beta"] is not None else spec.beta
    solver, events = Solver(), []
    runner = (
        verify_refutational
        if settings["refutational"]
        else partial(verify, trace_budget=settings["trace_budget"])
    )
    result, elapsed = _timed(
        settings["timeout"],
        partial(runner, p, spec, beta, solver, max_iters=settings["max_iters"], events=events),
    )
    if result is None:
        # the interrupted loop returns nothing; its event log holds one
        # pick per iteration it began
        picks = sum(e[0] == "pick" for e in events)
        result = Inconclusive(f"timeout after {settings['timeout']}s", picks)
    return {
        **_REPORT,
        "file": path,
        "beta": _ratio(beta),
        **_verdict_fields(result),
        "time_s": elapsed,
        "solver": solver.stats(),
    }


def _print_verify_report(report: dict) -> None:
    verdict, beta = report["verdict"], report["beta"]
    if verdict != "inconclusive":
        bound = render_fraction(Fraction(report["bound_num"], report["bound_den"]))
    if verdict == "sat":
        print("verdict: Sat (violation probability within threshold)")
        print(f"upper bound: {bound}  <=  beta {beta}")
    elif verdict == "unsat":
        print("verdict: Unsat (threshold exceeded; counterexample validated)")
        print(f"counterexample probability: {bound}  >  beta {beta}")
        print(f"error precondition: {report['error_pre']}")
        print(f"traces ({len(report['traces'])}):")
        for tr in report["traces"]:
            print("  " + "; ".join(tr))
    else:
        print("verdict: Inconclusive")
        print(f"reason: {report['reason']}")
    print(f"iterations: {report['iterations']}")
    stats = report["solver"]
    print(
        f"solver: {stats['backend']}, {stats['queries']} queries "
        f"({stats['cache_hits']} cache hits, "
        f"{stats['witness_refutations']} triples refuted by witnesses, "
        f"{stats['witness_drops']} drop trials answered by witnesses, "
        f"{stats['theory_checks']} theory checks)"
    )
    print(f"time: {report['time_s']}s")


_VERDICT_EXIT = {"sat": EXIT_SAT, "unsat": EXIT_UNSAT, "inconclusive": EXIT_INCONCLUSIVE}


def cmd_verify(args: argparse.Namespace, settings: dict) -> int:
    report = run_verify(args.file, settings)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_verify_report(report)
    return _VERDICT_EXIT[report["verdict"]]


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace, settings: dict) -> int:
    program, spec, p = _load_program(args.file)
    try:
        cert_text = Path(args.cert).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {args.cert}: {exc}") from exc
    try:
        cert_beta, a, qs = load_certificate(cert_text, program)
    except (ParseError, ValueError) as exc:
        raise CliError(f"{args.cert}: {exc}") from exc
    # the flag, else the certificate's beta line, else the program's @beta
    beta = settings["beta"] if settings["beta"] is not None else cert_beta
    if beta is None:
        beta = spec.beta
    solver = Solver()
    result, elapsed = _timed(
        settings["timeout"], partial(check_decomposition, p, spec, beta, qs, a, solver)
    )
    if result is None:
        result = Rejected(f"timeout after {settings['timeout']}s")
    certified = isinstance(result, Certified)
    if certified:
        verdict = {"verdict": "certified", **_bound(result.upper_bound)}
    else:
        verdict = {"verdict": "rejected", "bound_num": None, "bound_den": None, "reason": result.reason}
    report = {
        "file": args.file,
        "certificate": args.cert,
        "beta": _ratio(beta),
        "components": len(qs),
        "time_s": elapsed,
        "solver": solver.stats(),
        **verdict,
    }

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        if certified:
            print("certificate: accepted")
            print(f"certified bound: {render_fraction(result.upper_bound)}  <=  beta {report['beta']}")
        else:
            print("certificate: rejected")
            print(f"reason: {result.reason}")
        print(f"time: {elapsed}s")
    return EXIT_SAT if certified else EXIT_UNSAT


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args: argparse.Namespace, settings: dict) -> int:
    _, spec, p = _load_program(args.file)
    dom = parse_domain(args.dom or [])
    beta = settings["beta"] if settings["beta"] is not None else spec.beta
    try:
        bounds, elapsed = _timed(
            settings["timeout"],
            partial(exact_violation_probability, p, spec, dom, step_bound=settings["step_bound"]),
        )
    except ValueError as exc:
        raise CliError(str(exc))
    if bounds is None:
        raise CliError(f"oracle timeout after {settings['timeout']}s")
    lo, hi = bounds

    if lo > beta:
        decision = "exceeds"
    elif hi <= beta:
        decision = "within"
    else:
        decision = "unresolved"

    if args.json:
        report = {
            "file": args.file,
            "lo_num": lo.numerator,
            "lo_den": lo.denominator,
            "hi_num": hi.numerator,
            "hi_den": hi.denominator,
            "exact": lo == hi,
            "beta": _ratio(beta),
            "decision": decision,
            "time_s": elapsed,
        }
        print(json.dumps(report))
    else:
        if lo == hi:
            print(f"violation probability: {render_fraction(lo)} (exact)")
        else:
            print(
                f"violation probability in [{render_fraction(lo)}, "
                f"{render_fraction(hi)}]"
            )
        print(f"threshold {beta}: {decision}")
        print(f"time: {elapsed}s")
    return EXIT_SAT


# ---------------------------------------------------------------------------
# bench


def _bench_row(report: dict) -> dict:
    verdict = report["verdict"]
    result = {"sat": "Sat", "unsat": "Unsat"}.get(verdict, "Inconclusive")
    if report["bound_num"] is not None:
        bound = render_fraction(Fraction(report["bound_num"], report["bound_den"]))
    else:
        bound = "-"
    n_traces = str(len(report["traces"])) if report["traces"] is not None else "-"
    return {
        "Benchmark": Path(report["file"]).stem,
        "Result": result,
        "#Iteration": str(report["iterations"]),
        "Upper Bound": bound,
        "#Traces": n_traces,
        "Time": f"{report['time_s']}s",
    }


_BENCH_COLUMNS = ["Benchmark", "Result", "#Iteration", "Upper Bound", "#Traces", "Time"]


def cmd_bench(args: argparse.Namespace, settings: dict) -> int:
    bench_dir = Path(args.dir)
    if not bench_dir.is_dir():
        raise CliError(f"not a directory: {args.dir}")
    files = sorted(bench_dir.glob("*.prob"))
    if not files:
        raise CliError(f"no .prob files in {args.dir}")

    reports = []
    for path in files:
        try:
            reports.append(run_verify(str(path), settings))
        except (CliError, RuntimeError) as exc:
            error = {"verdict": "error", "iterations": 0, "beta": "-", "reason": str(exc), "time_s": 0.0}
            reports.append({**_REPORT, "file": str(path), **error})
    ok = all(r["verdict"] in ("sat", "unsat") for r in reports)

    if args.json:
        print(json.dumps(reports, indent=2))
        return EXIT_SAT if ok else EXIT_INCONCLUSIVE

    rows = [_bench_row(r) for r in reports]
    widths = {
        col: max(len(col), *(len(row[col]) for row in rows)) for col in _BENCH_COLUMNS
    }
    header = "  ".join(col.ljust(widths[col]) for col in _BENCH_COLUMNS)
    print(header)
    print("  ".join("-" * widths[col] for col in _BENCH_COLUMNS))
    for row in rows:
        print("  ".join(row[col].ljust(widths[col]) for col in _BENCH_COLUMNS))
    return EXIT_SAT if ok else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError, so it exits 3 like any other
    input problem rather than with argparse's 2 (inconclusive here)."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")

    def _print_message(self, message, file=None):
        # argparse's own swallows a write error, so `--help` into a closed
        # pipe would exit 0; raised, it ends like any other closed-pipe run
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="probtrace",
        description=(
            "Verify threshold properties of probabilistic programs via "
            "trace abstraction, or refute them with validated "
            "counterexamples."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, budget: bool = False) -> None:
        p.add_argument("--beta", help="violation threshold p/q (overrides the file)")
        p.add_argument("--timeout", type=float, help="wall-clock limit in seconds (0: no limit)")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budget:
            p.add_argument("--max-iters", type=int, help="refinement iteration cap")
            p.add_argument(
                "--trace-budget", type=int, help="trace enumeration budget per round"
            )
            p.add_argument(
                "--refutational",
                action="store_true",
                help="use the refutation-oriented loop (counterexample search first)",
            )

    p_verify = sub.add_parser("verify", help="verify or refute a program")
    p_verify.add_argument("file", help="program file (.prob)")
    common(p_verify, budget=True)
    p_verify.set_defaults(func=cmd_verify)

    p_check = sub.add_parser("check", help="check a decomposition certificate")
    p_check.add_argument("file", help="program file (.prob)")
    p_check.add_argument("cert", help="certificate file")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser(
        "oracle", help="exact violation probability over a finite domain"
    )
    p_oracle.add_argument("file", help="program file (.prob)")
    p_oracle.add_argument(
        "--dom",
        action="append",
        metavar="VAR=a..b",
        help="inclusive initial range for a variable (repeatable)",
    )
    p_oracle.add_argument(
        "--step-bound", type=int, help="exploration depth bound (default 64)"
    )
    common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("bench", help="run a directory of benchmarks")
    p_bench.add_argument("dir", help="directory containing .prob files")
    common(p_bench, budget=True)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args, _merge_settings(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: what stdout still buffers goes to the null device
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_ERROR
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SolverUnknown as exc:
        print(f"error: solver gave up: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
