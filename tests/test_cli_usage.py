"""Help texts and usage errors of the CLI.

``cli_usage_golden.json`` holds stdout, stderr and the exit code of every
help text and of usage errors and fallbacks (command lines argparse reads
but ``cli.match`` leaves to it), captured while argparse still parsed
every command line.  Help is formatted for 80 columns (``COLUMNS``).
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from knotpair.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "cli_usage_golden.json")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")

NAMES = ("eval", "compare", "girth", "decompose", "census", "verify-table", "selftest")

USAGE = (
    ["-h"],
    *([name, "-h"] for name in NAMES),
    [],
    ["frobnicate"],
    ["eval", "(3)"],
    ["girth", "--format", "json"],
    ["compare", "(2,3)", "(3,2)", "(4,4)"],
    ["eval", "(3)", "alexander"],
    ["census", "--girth", "3", "--max", "two"],
    ["census", "--girth", "2", "--max", "9" * 5000],
    ["census", "--max", "2"],
    ["census", "--girth", "4", "--max", "1"],
    ["census", "--girth", "2", "--max", "-1"],
    ["census", "--girth", "2", "--max", "3", "--jobs", "2"],
    ["verify-table", "--max-crossings", "-1"],
    ["verify-table", "--fixtures", "-h"],
    ["selftest", "--format", "json"],
    ["eval", "-(3)", "span"],
    ["eval", "(3)", "span", "--budget-crossings"],
    ["eval", "(2,-3)", "jones", "--meth", "both"],
    ["eval", "(2,-3)", "jones", "--format=json"],
    ["eval", "--", "(3)", "span"],
    ["eval", "(3)", "span", "--format", "json", "--format", "text"],
    ["--format", "json", "eval", "(3)", "span"],
)

# replayed through ``python -m knotpair.cli`` as well
IN_A_PROCESS = (
    ["-h"],
    ["census", "-h"],
    [],
    ["frobnicate"],
    ["eval", "(2,-3)", "jones", "--meth", "both"],
    ["census", "--girth", "2", "--max", "-1"],
)


def capture(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # help exits through argparse
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> list[dict]:
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_covers_every_command_line():
    assert [entry["argv"] for entry in _golden()] == [list(argv) for argv in USAGE]


@pytest.mark.parametrize("index", range(len(USAGE)))
def test_help_and_usage_errors_match_golden(monkeypatch, index):
    monkeypatch.setenv("COLUMNS", "80")
    assert capture(list(USAGE[index])) == _golden()[index]


@pytest.mark.parametrize("argv", IN_A_PROCESS, ids=" ".join)
def test_the_module_prints_the_golden_help_and_errors(argv):
    golden = {json.dumps(entry["argv"]): entry for entry in _golden()}[json.dumps(argv)]
    r = subprocess.run(
        [sys.executable, "-m", "knotpair.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC, COLUMNS="80"),
    )
    assert [r.returncode, r.stdout, r.stderr] == [golden["code"], golden["stdout"], golden["stderr"]]

