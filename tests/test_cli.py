"""Command-line surface: subcommands, formats, exit codes, env seed."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from pvkit.cli import main


def test_list_mentions_every_entry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for eid in ("T2.1", "T2.10", "T3.2b", "NEG-4.2.12"):
        assert eid in out
    t23 = next(line for line in out.splitlines() if line.startswith("T2.3 "))
    assert "n>=4" in t23 and "even" in t23


REPORT_FIELDS = {
    "entry", "params", "seed", "status", "dims", "character_dim", "qd1",
    "invariants", "regular", "diagram", "diagram_ok", "expected_diff",
    "elapsed_s",
}


def test_run_json_format(capsys):
    code = main(["run", "--entry", "T2.2", "--param", "n=2", "--seed", "0",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == REPORT_FIELDS
    assert payload["entry"] == "T2.2"
    assert payload["status"] == "pass"
    assert payload["qd1"] is True
    assert payload["params"] == {"n": 2}
    assert payload["dims"] == {"algebra": 4, "space": 3, "isotropy": 1}
    assert payload["invariants"] == [
        {"lambda_nonzero": True, "name": "det on Sym(2)", "points": 10,
         "verified": True}
    ]


def test_run_text_format(capsys):
    assert main(["run", "--entry", "T3.9", "--param", "n=2"]) == 0
    out = capsys.readouterr().out
    assert "status       pass" in out
    assert "u^T J v" in out


def test_run_unknown_entry_exits_2(capsys):
    assert main(["run", "--entry", "T0.0"]) == 2


def test_run_bad_param_exits_2(capsys):
    assert main(["run", "--entry", "T2.3", "--param", "n=5"]) == 2


def test_diagram_command(capsys):
    assert main(["diagram", "--type", "C", "--rank", "7", "--circle", "1,7"]) == 0
    out = capsys.readouterr().out
    assert "(o)---o---o---o---o---o=<=(o)" in out
    assert "2w5[sl(6)]" in out
    assert "dim 21" in out


def test_diagram_command_rejects_bad_input(capsys):
    assert main(["diagram", "--type", "D", "--rank", "3", "--circle", "1"]) == 2
    assert main(["diagram", "--type", "A", "--rank", "3", "--circle", "9"]) == 2


def test_diagram_command_rejects_a_repeated_vertex(capsys):
    assert main(["diagram", "--type", "G", "--rank", "2", "--circle", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--circle 1,1 repeats a vertex" in captured.err


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "table1: pass" in out
    assert "typo" in out


def test_run_all_negatives_json(capsys):
    code = main(["run-all", "--filter", "negatives", "--format", "json"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"filter", "seed", "counts", "entries"}
    assert summary["filter"] == "negatives"
    assert summary["counts"]["fail"] == 0
    assert summary["counts"]["pass"] >= 20
    per_entry = [json.loads(line) for line in lines[:-1]]
    assert all(r["status"] == "pass" for r in per_entry)
    assert len(summary["entries"]) == len(per_entry)
    for record in summary["entries"]:
        assert set(record) == REPORT_FIELDS - {"elapsed_s"}


def test_env_seed_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("PVKIT_SEED", "5")
    code = main(["run", "--entry", "T2.1", "--param", "n=3", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 5


def test_run_param_without_value_exits_2(capsys):
    assert main(["run", "--entry", "T2.1", "--param", "n"]) == 2
    assert "--param expects name=value" in capsys.readouterr().err


def test_run_out_of_memory_exits_2_with_one_line_naming_the_run(capsys, monkeypatch):
    """A build or run that raises MemoryError (numpy's _ArrayMemoryError is
    one) is a usage error: exit 2, nothing on stdout, one stderr line with
    the entry and its parameters.  The allocation is stubbed, not made."""
    def out_of_memory(entry, params):
        raise MemoryError

    monkeypatch.setattr(importlib.import_module("pvkit.catalog"), "_built", out_of_memory)
    assert main(["run", "--entry", "T2.1", "--param", "n=99999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("pvkit run:")
    assert "T2.1" in captured.err and "n=99999" in captured.err


def test_run_repeated_param_exits_2(capsys):
    assert main(["run", "--entry", "T2.1", "--param", "n=3", "--param", "n=5"]) == 2
    assert "--param n given more than once" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["list"], ["run", "--entry", "T2.1"], ["table1"]])
def test_non_integer_env_seed_exits_2_with_one_line(capsys, monkeypatch, argv):
    monkeypatch.setenv("PVKIT_SEED", "abc")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "PVKIT_SEED" in captured.err


@pytest.mark.parametrize("argv", [
    pytest.param([], id="missing-command"),
    pytest.param(["frobnicate"], id="unknown-command"),
    pytest.param(["--seed", "1", "run"], id="option-before-command"),
    pytest.param(["run", "--entry", "T2.1", "--bogus", "1"], id="unknown-option"),
    pytest.param(["run-all", "--f", "json"], id="ambiguous-prefix"),
    pytest.param(["run", "--entry"], id="option-without-value"),
    pytest.param(["run", "--entry", "T2.1", "--help=x"], id="flag-with-value"),
    pytest.param(["run", "--param", "n=3"], id="missing-entry"),
    pytest.param(["diagram", "--type", "A", "--rank", "2"], id="missing-circle"),
    pytest.param(["run", "--entry", "T2.1", "--seed", "x"], id="non-integer-seed"),
    pytest.param(["diagram", "--type", "A", "--rank", "2.0", "--circle", "1"],
                 id="non-integer-rank"),
    pytest.param(["run", "--entry", "T2.1", "--param", "n=x"], id="non-integer-param"),
    pytest.param(["diagram", "--type", "A", "--rank", "3", "--circle", ","],
                 id="empty-circle-vertex"),
    pytest.param(["run", "--entry", "T2.1", "--format", "xml"], id="bad-format"),
    pytest.param(["run-all", "--filter", "table9"], id="bad-filter"),
    pytest.param(["diagram", "--type", "H", "--rank", "2", "--circle", "1"], id="bad-type"),
    pytest.param(["run", "--entry", "T2.1", "stray"], id="stray-positional"),
    pytest.param(["table1", "--", "stray"], id="stray-after-double-dash"),
])
def test_usage_error_returns_2_with_one_stderr_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("pvkit")


@pytest.mark.parametrize("argv,names", [
    pytest.param(["--help"], ["list", "run", "run-all", "diagram", "table1"], id="help"),
    pytest.param(["-h"], ["list", "run", "run-all", "diagram", "table1"], id="h"),
    pytest.param(["run", "--help"], ["--entry", "--param", "--seed", "--format"], id="run-help"),
    pytest.param(["diagram", "-h"], ["--type", "--rank", "--circle"], id="diagram-h"),
])
def test_help_prints_to_stdout_and_returns_0(capsys, argv, names):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(name in captured.out for name in names)


def test_equals_form_and_unique_prefixes_give_the_spaced_report(capsys):
    reports = []
    for argv in (["--entry", "T2.1", "--param", "n=3", "--seed", "-1", "--format", "json"],
                 ["--entry=T2.1", "--param=n=3", "--seed=-1", "--format=json"],
                 ["--ent", "T2.1", "--param", "n=3", "--s", "-1", "--form", "json"]):
        assert main(["run", *argv]) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("elapsed_s")
        reports.append(report)
    assert reports[0]["seed"] == -1 and reports[0]["params"] == {"n": 3}
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize(
    "argv", [["list"], ["run-all", "--filter", "negatives", "--format", "json"], ["run", "--help"]]
)
def test_closed_stdout_ends_quietly_with_1(argv):
    """A reader that has gone (`pvkit list | head -3`) costs no traceback:
    stdout is a pipe whose read end is closed before the child starts."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "pvkit.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=600)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")
