"""``cli.match`` reads every command line it accepts as argparse reads it:
the same attributes, the same values, the same ``func``.  It declines the
rest, and a valid command never imports argparse.
"""

import contextlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st
from test_cli_usage import NAMES, USAGE

from knotpair.cli import COMMANDS, build_parser, match

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")


def test_match_declines_every_golden_command_line():
    for argv in USAGE:
        assert match(list(argv)) is None, argv


def assert_read_as_argparse_reads(argv: list[str]) -> None:
    args = match(argv)
    assert args is not None, argv
    expected = build_parser().parse_args(argv)
    assert vars(args) == vars(expected), argv
    assert args.func is expected.func


def _readme_command_lines() -> list[list[str]]:
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    block = text.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("knotpair ")]


def test_every_readme_command_line_is_matched():
    lines = _readme_command_lines()
    assert {argv[0] for argv in lines} == set(NAMES)
    for argv in lines:
        assert_read_as_argparse_reads(argv)


def _perfbench_plan():
    """``perfbench/plan.py``, loaded from its file under its own name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_plan", os.path.join(ROOT, "perfbench", "plan.py"))
    plan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plan)
    return plan


@pytest.mark.parametrize("seed", [0, 1])
def test_every_benchmark_command_line_is_matched(tmp_path, seed):
    plan = _perfbench_plan()
    argvs = [
        cmd["argv"]
        for workload in plan.WORKLOADS
        for commands in plan.make_rounds(workload, seed, ROOT, str(tmp_path))
        for cmd in commands
    ]
    assert len(argvs) == plan.ROUND_CAP * (2 + 100 + 100)
    for argv in argvs:
        assert_read_as_argparse_reads(argv)


def test_valid_commands_import_neither_argparse_nor_gettext(tmp_path):
    pd_file = os.path.join(SRC, "knotpair", "fixtures", "rolfsen", "3_1.pd.json")
    valid = [
        ["eval", "(2,-3)", "jones", "--method", "both"],
        ["compare", "(2,8)", "(4,4)", "--format", "json"],
        ["decompose", pd_file, "--format", "json"],
        ["census", "--girth", "2", "--max", "2", "--output", str(tmp_path / "census.csv")],
    ]
    script = """if True:
        import contextlib, io, json, sys
        from knotpair.cli import main
        seen = []
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            seen.append([code, [m for m in ("argparse", "gettext") if m in sys.modules]])
        print(json.dumps(seen))
    """
    r = subprocess.run(
        [sys.executable, "-c", script, json.dumps(valid + [["eval", "(3)"]])],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True,
    )
    # the usage error at the end builds the parser, and imports both
    assert json.loads(r.stdout) == [[0, []]] * 4 + [[2, ["argparse", "gettext"]]]


_FLAGS = sorted({arg.flag for _, _, _, arguments in COMMANDS for arg in arguments if arg.flag})
_CHOICES = sorted({str(c) for _, _, _, arguments in COMMANDS for arg in arguments
                   for c in arg.choices or ()})
_VALUES = ["(3)", "(2,-3)", "-(3)", "[1 1 1 / 1 1 1]", "x.json", "", "-", "--", "-h",
           "0", "2", "3", "4", "17", "-1", " 3", "+2", "1_0", "\u0663", "two", "3.0", "1e3",
           "9" * 5000]
_TOKENS = st.sampled_from([
    *NAMES, "evaluate", "Eval", "verify", "verify_table", "census ",
    *_FLAGS, "--meth", "--budget", "--form", "--mirror", "--max-c", "--gir", "--out", "--ev",
    "--format=json", "--max=3", "--girth=2", "--method=both",
    "--help", *_VALUES, *_CHOICES, "Json", "jsn", "both ", "span2",
])


@st.composite
def _command_line(draw) -> list[str]:
    """A command line of the table, its options in any order and at any
    place, then changed by up to two token edits."""
    name, _, _, arguments = draw(st.sampled_from(COMMANDS))

    def value(arg):
        if arg.choices is not None:
            return str(draw(st.sampled_from(arg.choices)))
        if arg.kind is int:
            return str(draw(st.integers(-3, 40)))
        return draw(st.one_of(st.sampled_from(_VALUES), st.text("ab(),=- 1", max_size=4)))

    positionals = [value(arg) for arg in arguments if arg.flag is None]
    options = [arg for arg in arguments if arg.flag is not None]
    chosen = draw(st.lists(st.sampled_from(options), unique_by=id)) if options else []
    tokens = [[arg.flag] if arg.kind is bool else [arg.flag, value(arg)] for arg in chosen]
    for token in positionals:
        tokens.insert(draw(st.integers(0, len(tokens))), [token])
    argv = [name] + [t for group in tokens for t in group]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(_TOKENS))
        elif edit == "replace":
            argv[i] = draw(_TOKENS)
        else:
            del argv[i]
    return argv


@settings(max_examples=1000, deadline=None)
@given(st.one_of(
    st.lists(_TOKENS, max_size=8),
    st.builds(lambda name, rest: [name, *rest], st.sampled_from(NAMES), st.lists(_TOKENS, max_size=8)),
    _command_line(),
))
def test_match_reads_a_command_line_as_argparse_does_or_declines_it(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        args = match(argv)
    assert out.getvalue() == err.getvalue() == ""
    if args is not None:
        assert_read_as_argparse_reads(argv)
