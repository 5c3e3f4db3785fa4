"""Command-line interface: exit codes, output formats, config handling."""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from probtrace import cli
from probtrace.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_SAT,
    EXIT_UNSAT,
    _merge_settings,
    load_config,
    main,
    parse_domain,
    parse_fraction,
    render_fraction,
)

from helpers import BENCH_DIR, DATA_DIR

PROG = str(DATA_DIR / "motivating.prob")
CERT = str(DATA_DIR / "motivating.cert")

SAT_PROGRAM = "@pre true\n@post X = 0\n@beta 1/2\nint X;\nX := 0;\n"
UNSAT_PROGRAM = "@pre true\n@post X = 0\n@beta 9/10\nint X;\nX := 1;\n"


# ---------------------------------------------------------------------------
# small pieces


def test_fraction_rendering():
    assert render_fraction(Fraction(0)) == "0"
    assert render_fraction(Fraction(3)) == "3"
    assert render_fraction(Fraction(3, 8)) == "3/8 (~0.375)"


def test_fraction_parsing():
    assert parse_fraction("3/10") == Fraction(3, 10)
    assert parse_fraction("0.25") == Fraction(1, 4)
    from probtrace.cli import CliError

    with pytest.raises(CliError):
        parse_fraction("a/b")
    with pytest.raises(CliError):
        parse_fraction("1/0")


def test_domain_parsing():
    dom = parse_domain(["C=0..3", "X=-2..2"])
    assert dom.range_of("C") == (0, 3)
    assert dom.range_of("X") == (-2, 2)
    assert dom.range_of("Y") == (-4, 4)
    assert parse_domain([]) is None
    from probtrace.cli import CliError

    with pytest.raises(CliError, match="expected VAR"):
        parse_domain(["C=0-3"])
    with pytest.raises(CliError, match="empty range"):
        parse_domain(["C=3..0"])


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 1/2  # threshold\nmax_iters = 7\n\n// comment\n")
    values = load_config(str(cfg))
    assert values == {"beta": "1/2", "max_iters": "7"}
    bad = tmp_path / "bad.cfg"
    from probtrace.cli import CliError

    for line in ("wat = 1", "solver = z3"):
        bad.write_text(line + "\n")
        with pytest.raises(CliError, match="unknown config key"):
            load_config(str(bad))
    for key, value in (
        ("max_iters", "x"),
        ("timeout", "soon"),
        ("beta", "1/0"),
        ("refutational", "ture"),
    ):
        bad.write_text(f"{key} = {value}\n")
        assert main(["verify", PROG, "--config", str(bad)]) == EXIT_ERROR
        assert repr(key) in capsys.readouterr().err
    for value, expected in (("YES", True), ("True", True), ("No", False), ("0", False)):
        cfg.write_text(f"refutational = {value}\n")
        settings = _merge_settings(argparse.Namespace(config=str(cfg)))
        assert settings["refutational"] is expected


def test_negative_caps_in_config_are_usage_errors(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for key in ("max_iters", "trace_budget", "step_bound"):
        cfg.write_text(f"{key} = -3\n")
        assert main(["verify", PROG, "--config", str(cfg)]) == EXIT_ERROR
        assert repr(key) in capsys.readouterr().err


def test_negative_cap_flags_are_usage_errors(capsys):
    for argv, key in (
        (["verify", PROG, "--max-iters", "-3"], "max_iters"),
        (["verify", PROG, "--trace-budget", "-1"], "trace_budget"),
        (["oracle", PROG, "--step-bound", "-1"], "step_bound"),
    ):
        assert main(argv) == EXIT_ERROR
        assert repr(key) in capsys.readouterr().err


def test_negative_or_nan_timeout_in_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for value in ("-2", "nan", "inf"):
        cfg.write_text(f"timeout = {value}\n")
        assert main(["verify", PROG, "--config", str(cfg)]) == EXIT_ERROR
        assert "'timeout'" in capsys.readouterr().err
    cfg.write_text("timeout = 0\n")
    assert _merge_settings(argparse.Namespace(config=str(cfg)))["timeout"] == 0


def test_negative_or_nan_timeout_flag_is_a_usage_error(capsys):
    for value in ("-1", "nan", "inf"):
        assert main(["verify", PROG, "--timeout", value]) == EXIT_ERROR
        assert "'timeout'" in capsys.readouterr().err
    # 0 means no limit
    assert main(["verify", PROG, "--timeout", "0"]) == EXIT_UNSAT


def test_timeout_beyond_the_interval_timer_runs_to_the_verdict():
    proc = subprocess.run(
        [sys.executable, "-m", "probtrace", "verify", PROG, "--timeout", "1e300"],
        capture_output=True,
        text=True,
    )
    assert proc.stderr == ""
    assert proc.returncode == EXIT_UNSAT
    assert "verdict: Unsat" in proc.stdout
    assert "counterexample probability: 3/8" in proc.stdout


# the limit strikes while the library call sleeps; 1e-7 s lies far below a
# scheduler tick, so its alarm is due as soon as it is armed
LIMITS = ["0.05", "1e-7"]


@pytest.fixture()
def sleeping(monkeypatch):
    """Make the CLI's library call `name` sleep past any limit under test, and
    check that the alarm's timer and handler are restored afterwards."""
    handler = signal.getsignal(signal.SIGALRM)

    def patch(name):
        def sleep(*args, **kwargs):
            time.sleep(30)
            raise AssertionError("the limit did not strike")

        monkeypatch.setattr(cli, name, sleep)

    yield patch
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler


@pytest.mark.parametrize("limit", LIMITS)
def test_verify_past_its_limit_is_inconclusive(limit, sleeping, capsys):
    sleeping("verify")
    reason = f"timeout after {float(limit)}s"
    assert main(["verify", PROG, "--timeout", limit]) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "verdict: Inconclusive" in out and f"reason: {reason}\n" in out
    assert main(["verify", PROG, "--timeout", limit, "--json"]) == EXIT_INCONCLUSIVE
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["reason"], report["iterations"]) == ("inconclusive", reason, 0)


def test_verify_past_its_limit_reports_the_iterations_it_began(tmp_path, monkeypatch, capsys):
    def picks_then_sleeps(*args, events, **kwargs):
        events.extend([("pick", 1, ()), ("pick", 2, ())])
        time.sleep(30)
        raise AssertionError("the limit did not strike")

    monkeypatch.setattr(cli, "verify", picks_then_sleeps)
    assert main(["verify", PROG, "--timeout", "0.05"]) == EXIT_INCONCLUSIVE
    assert "\niterations: 2\n" in capsys.readouterr().out
    assert main(["verify", PROG, "--timeout", "0.05", "--json"]) == EXIT_INCONCLUSIVE
    assert json.loads(capsys.readouterr().out)["iterations"] == 2
    (tmp_path / "one.prob").write_text(SAT_PROGRAM)
    assert main(["bench", str(tmp_path), "--timeout", "0.05"]) == EXIT_INCONCLUSIVE
    header, _, row = capsys.readouterr().out.splitlines()
    column = header.index("#Iteration")
    assert row[column:].split()[0] == "2", row
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("limit", LIMITS)
def test_check_past_its_limit_is_rejected(limit, sleeping, capsys):
    sleeping("check_decomposition")
    reason = f"timeout after {float(limit)}s"
    assert main(["check", PROG, CERT, "--timeout", limit]) == EXIT_UNSAT
    out = capsys.readouterr().out
    assert "certificate: rejected" in out and f"reason: {reason}\n" in out
    assert main(["check", PROG, CERT, "--timeout", limit, "--json"]) == EXIT_UNSAT
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["reason"]) == ("rejected", reason)


@pytest.mark.parametrize("limit", LIMITS)
def test_oracle_past_its_limit_is_an_error(limit, sleeping, capsys):
    sleeping("exact_violation_probability")
    assert main(["oracle", PROG, "--timeout", limit]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: oracle timeout after {float(limit)}s\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_unsat_exit_and_report(capsys):
    code = main(["verify", PROG])
    out = capsys.readouterr().out
    assert code == EXIT_UNSAT
    assert "Unsat" in out
    assert "3/8" in out
    assert "error precondition" in out


def test_verify_sat_with_beta_override(capsys):
    code = main(["verify", PROG, "--beta", "1/2"])
    out = capsys.readouterr().out
    assert code == EXIT_SAT
    assert "Sat" in out and "1/2" in out


def test_verify_json_schema(capsys):
    code = main(["verify", PROG, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNSAT
    for key in (
        "verdict",
        "bound_num",
        "bound_den",
        "iterations",
        "traces",
        "error_pre",
    ):
        assert key in report, key
    assert report["verdict"] == "unsat"
    assert Fraction(report["bound_num"], report["bound_den"]) == Fraction(3, 8)
    assert len(report["traces"]) == 3
    assert "C" in report["error_pre"]
    assert report["beta"] == "3/10"
    assert report["solver"]["queries"] > 0


def test_verify_reports_triples_refuted_by_witnesses(capsys):
    main(["verify", PROG, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["solver"]["witness_refutations"] > 0
    main(["verify", PROG])
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("solver:"))
    assert f"{report['solver']['witness_refutations']} triples refuted by witnesses" in line


def test_verify_reports_drop_trials_answered_by_witnesses(capsys):
    main(["verify", PROG, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["solver"]["witness_drops"] > 0
    main(["verify", PROG])
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("solver:"))
    assert f"{report['solver']['witness_drops']} drop trials answered by witnesses" in line


def test_verify_reports_theory_checks(capsys):
    main(["verify", PROG, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["solver"]["theory_checks"] > 0
    main(["verify", PROG])
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("solver:"))
    assert line.endswith(f"{report['solver']['theory_checks']} theory checks)")


def test_verify_refutational_flag(capsys):
    code = main(["verify", PROG, "--refutational", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNSAT
    assert report["verdict"] == "unsat"
    assert Fraction(report["bound_num"], report["bound_den"]) > Fraction(3, 10)


def test_verify_iteration_cap_gives_inconclusive(tmp_path, capsys):
    # a cap of zero forbids any refinement work
    f = tmp_path / "p.prob"
    f.write_text(SAT_PROGRAM)
    code = main(["verify", str(f), "--max-iters", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_INCONCLUSIVE
    assert "Inconclusive" in out


def test_verify_missing_file(capsys):
    code = main(["verify", "no/such/file.prob"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "error:" in err


def test_verify_bad_beta(capsys):
    code = main(["verify", PROG, "--beta", "zero"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "rational" in err


def test_usage_errors_exit_as_input_errors(capsys):
    # argparse's own exit code 2 would read as "inconclusive"
    assert main(["verify", "--solver", "z3", PROG]) == EXIT_ERROR
    assert main(["verify"]) == EXIT_ERROR
    assert "required" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0


def test_verify_parse_error(tmp_path, capsys):
    f = tmp_path / "broken.prob"
    f.write_text("@pre true\n@post X = 0\nint X;\nX := 0;\n")  # no @beta
    code = main(["verify", str(f)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "beta" in err


@pytest.mark.parametrize("beta", ["1/0", "0/0"])
def test_a_zero_denominator_threshold_is_an_input_error(beta, tmp_path, capsys):
    f = tmp_path / "zero.prob"
    f.write_text(SAT_PROGRAM.replace("@beta 1/2", f"@beta {beta}"))
    assert main(["verify", str(f)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error:" in err and "@beta" in err
    (tmp_path / "ok.prob").write_text(SAT_PROGRAM)
    assert main(["bench", str(tmp_path), "--json"]) == EXIT_INCONCLUSIVE
    reports = json.loads(capsys.readouterr().out)
    assert [r["verdict"] for r in reports] == ["sat", "error"]
    assert "@beta" in reports[1]["reason"]


# ---------------------------------------------------------------------------
# check


def test_check_accepts_the_shipped_certificate(capsys):
    code = main(["check", PROG, CERT])
    out = capsys.readouterr().out
    assert code == EXIT_SAT
    assert "accepted" in out
    assert "1/2" in out


def test_check_rejects_tighter_threshold(capsys):
    code = main(["check", PROG, CERT, "--beta", "3/10"])
    out = capsys.readouterr().out
    assert code == EXIT_UNSAT
    assert "rejected" in out


def test_check_json(capsys):
    code = main(["check", PROG, CERT, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_SAT
    assert report["verdict"] == "certified"
    assert Fraction(report["bound_num"], report["bound_den"]) == Fraction(1, 2)
    assert report["components"] == 2


def test_check_malformed_certificate(tmp_path, capsys):
    bad = tmp_path / "bad.cert"
    bad.write_text("beta 1/2\nedge 0 1 skip\n")
    code = main(["check", PROG, str(bad)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "error:" in err


def test_check_certificate_with_bad_beta(tmp_path, capsys):
    text = (DATA_DIR / "motivating.cert").read_text()
    bad = tmp_path / "bad.cert"
    for beta in ("1/0", "x"):
        bad.write_text(text.replace("beta 1/2", f"beta {beta}"))
        assert main(["check", PROG, str(bad)]) == EXIT_ERROR
        assert "beta" in capsys.readouterr().err


_EVERY_COMMAND = [
    ["verify", PROG],
    ["oracle", PROG],
    ["check", PROG, CERT],
    ["bench", str(BENCH_DIR)],
]


@pytest.mark.parametrize("beta", [["--beta", "3/2"], ["--beta=-1/2"]])
@pytest.mark.parametrize("command", _EVERY_COMMAND, ids=lambda c: c[0])
def test_a_threshold_flag_outside_the_unit_interval_is_an_input_error(command, beta, capsys):
    # as `@beta 3/2` is a parse error
    assert main(command + beta) == EXIT_ERROR
    assert "outside [0,1]" in capsys.readouterr().err


@pytest.mark.parametrize("command", _EVERY_COMMAND, ids=lambda c: c[0])
def test_a_config_threshold_outside_the_unit_interval_is_an_input_error(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 2\n")
    assert main(command + ["--config", str(cfg)]) == EXIT_ERROR
    assert "outside [0,1]" in capsys.readouterr().err


def test_a_certificate_threshold_outside_the_unit_interval_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.cert"
    bad.write_text((DATA_DIR / "motivating.cert").read_text().replace("beta 1/2", "beta 3/2"))
    assert main(["check", PROG, str(bad)]) == EXIT_ERROR
    assert "outside [0,1]" in capsys.readouterr().err


def test_the_thresholds_zero_and_one_are_accepted(capsys):
    counter = str(BENCH_DIR / "counter.prob")
    assert main(["verify", counter, "--beta", "0"]) == EXIT_UNSAT
    assert main(["verify", counter, "--beta", "1"]) == EXIT_SAT
    assert main(["check", PROG, CERT, "--beta", "1"]) == EXIT_SAT
    assert main(["check", PROG, CERT, "--beta", "0"]) == EXIT_UNSAT
    assert main(["oracle", PROG, "--beta", "1"]) == EXIT_SAT
    capsys.readouterr()


def test_check_certificate_without_a_module_section(tmp_path, capsys):
    # no module section is the empty violating module, whose bound is 0
    prog = tmp_path / "assign.prob"
    prog.write_text("@pre true\n@post true\n@beta 1/2\nint X;\nX := 0;\n")
    cert = tmp_path / "assign.cert"
    cert.write_text("hoare Q1\ninitial 0\naccepting 1\nprop 0 true\nprop 1 true\nedge 0 1 sigma\n")
    assert main(["check", str(prog), str(cert), "--json"]) == EXIT_SAT
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "certified"
    assert Fraction(report["bound_num"], report["bound_den"]) == 0


def test_check_certificate_without_beta_uses_the_program_threshold(tmp_path, capsys):
    # the program's @beta is 3/10, below the certified bound 1/2
    text = (DATA_DIR / "motivating.cert").read_text()
    assert "beta 1/2\n" in text
    bare = tmp_path / "bare.cert"
    bare.write_text(text.replace("beta 1/2\n", ""))
    assert main(["check", PROG, str(bare), "--json"]) == EXIT_UNSAT
    report = json.loads(capsys.readouterr().out)
    assert report["beta"] == "3/10" and report["verdict"] == "rejected"
    assert main(["check", PROG, str(bare), "--beta", "1/2"]) == EXIT_SAT
    assert "accepted" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# oracle


def test_oracle_default_domain(capsys):
    code = main(["oracle", PROG])
    out = capsys.readouterr().out
    assert code == EXIT_SAT
    assert "15/32" in out and "exact" in out
    assert "exceeds" in out  # 15/32 > 3/10


def test_oracle_bounded_domain_json(capsys):
    code = main(
        ["oracle", PROG, "--dom", "C=0..3", "--beta", "47/100", "--json"]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == EXIT_SAT
    assert Fraction(data["lo_num"], data["lo_den"]) == Fraction(7, 16)
    assert data["exact"] is True
    assert data["decision"] == "within"


def test_oracle_json_reports_a_zero_threshold(tmp_path, capsys):
    f = tmp_path / "zero.prob"
    f.write_text(UNSAT_PROGRAM.replace("@beta 9/10", "@beta 0"))
    assert main(["oracle", str(f), "--json"]) == EXIT_SAT
    data = json.loads(capsys.readouterr().out)
    assert data["beta"] == "0/1" and data["decision"] == "exceeds"
    assert main(["oracle", PROG, "--beta", "0", "--json"]) == EXIT_SAT
    assert json.loads(capsys.readouterr().out)["beta"] == "0/1"


def test_oracle_bad_domain(capsys):
    code = main(["oracle", PROG, "--dom", "C=x..y"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "--dom" in err


def test_oracle_refuses_a_default_range_that_misses_the_precondition(tmp_path, capsys):
    # T = 8 lies outside the default range -4..4, so no state of the default
    # domain meets the precondition; pinned, T gives the exact probability
    f = tmp_path / "walk8.prob"
    f.write_text((BENCH_DIR / "walk.prob").read_text().replace("T = 4", "T = 8"))
    assert main(["oracle", str(f)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "precondition" in err and "T=-4..4" in err
    assert main(["oracle", str(f), "--dom", "T=8..8"]) == EXIT_SAT
    out = capsys.readouterr().out
    assert "37/128" in out and "exceeds" in out


def test_oracle_resolves_branching_demonically(tmp_path, capsys):
    f = tmp_path / "nd.prob"
    f.write_text(
        "@pre true\n@post X = 0\n@beta 1/2\nint X;\n"
        "{ X := 0; } <*> { X := 1; };\n"
    )
    code = main(["oracle", str(f), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == EXIT_SAT
    # the adversary picks the violating branch
    assert Fraction(data["lo_num"], data["lo_den"]) == 1
    assert data["decision"] == "exceeds"


# ---------------------------------------------------------------------------
# bench


@pytest.fixture()
def bench_dir(tmp_path):
    d = tmp_path / "suite"
    d.mkdir()
    (d / "easy_sat.prob").write_text(SAT_PROGRAM)
    (d / "easy_unsat.prob").write_text(UNSAT_PROGRAM)
    return d


def test_bench_table(bench_dir, capsys):
    code = main(["bench", str(bench_dir)])
    out = capsys.readouterr().out
    assert code == EXIT_SAT
    lines = out.splitlines()
    for col in ("Benchmark", "Result", "#Iteration", "Upper Bound", "#Traces", "Time"):
        assert col in lines[0]
    assert any("easy_sat" in l and "Sat" in l for l in lines)
    assert any("easy_unsat" in l and "Unsat" in l for l in lines)


def test_bench_json(bench_dir, capsys):
    code = main(["bench", str(bench_dir), "--json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == EXIT_SAT
    assert [r["verdict"] for r in reports] == ["sat", "unsat"]


def test_bench_flags_inconclusive_rows(bench_dir, capsys):
    (bench_dir / "capped.prob").write_text(SAT_PROGRAM)
    code = main(["bench", str(bench_dir), "--max-iters", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_INCONCLUSIVE
    assert "Inconclusive" in out


def test_bench_missing_dir(capsys):
    code = main(["bench", "no/such/dir"])
    assert code == EXIT_ERROR


def test_bench_empty_dir(tmp_path, capsys):
    code = main(["bench", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "no .prob files" in err


# ---------------------------------------------------------------------------
# config precedence and the installed entry point


def test_config_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 1/2\n")
    code = main(["verify", PROG, "--config", str(cfg)])
    capsys.readouterr()
    assert code == EXIT_SAT  # config beta loosens the threshold
    code = main(["verify", PROG, "--config", str(cfg), "--beta", "3/10"])
    capsys.readouterr()
    assert code == EXIT_UNSAT  # explicit flag wins over the config


def test_console_script_is_installed():
    exe = shutil.which("probtrace")
    if exe is None:
        pytest.skip("entry point not on PATH in this environment")
    proc = subprocess.run(
        [exe, "verify", PROG, "--json"], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_UNSAT
    report = json.loads(proc.stdout)
    assert report["verdict"] == "unsat"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "probtrace.cli", "oracle", PROG, "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_SAT
    data = json.loads(proc.stdout)
    assert Fraction(data["lo_num"], data["lo_den"]) == Fraction(15, 32)


def test_package_invocation_help():
    proc = subprocess.run(
        [sys.executable, "-m", "probtrace", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for command in ("verify", "check", "oracle", "bench"):
        assert command in proc.stdout


class _ClosedPipe:
    """A stdout whose reader has gone: every write and flush raises, and its
    file descriptor is that of the file `fd` is open on."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "argv", [["verify", PROG, "--refutational"], ["oracle", PROG], ["verify", "--help"]]
)
def test_a_closed_stdout_pipe_ends_quietly_with_the_error_code(argv, tmp_path, monkeypatch, capsys):
    out = tmp_path / "stdout"
    with open(out, "wb") as f:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(f.fileno()))
        assert main(argv) == EXIT_ERROR
        # the descriptor now writes to the null device, so the interpreter's
        # final flush cannot fail again
        os.write(f.fileno(), b"flushed at exit")
    assert out.read_bytes() == b""
    assert capsys.readouterr().err == ""
