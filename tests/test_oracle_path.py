"""The oracle path of the CLI: `eval --method oracle|both`, `verify-table`
and `selftest`.

``oracle_path_golden.json`` holds stdout, stderr and the exit code of each
command below, captured before the oracle path was reorganised, so any
change to what these commands print shows up here.  The `--method both
--format json` entries were taken again when that output became one JSON
object with an ``agree`` field.
"""

import contextlib
import io
import json
import os

import pytest

from knotpair.cli import main
from knotpair.diagram import orient, pd_from_rep
from knotpair.reps import parse_rep
from template_spy import spy_on_templates

GOLDEN = os.path.join(os.path.dirname(__file__), "oracle_path_golden.json")

# girth 1, 2 and 3 knots and links; the girth-3 reps of 10-16 crossings
# are of the kind the benchmark's `--method both` commands draw
REPS = (
    "(3)", "(4)", "(0)",
    "(2,-3)", "(3,3)", "(0,0)",
    "[2 2 2 / 2 2 2]", "[1 1 1 / 1 1 1]",
    "[-1 -2 1 / 2 -3 1]", "[-1 4 -2 / -3 -2 1]", "[1 -1 -1 / 1 2 -7]",
    "[3 1 1 / -4 5 -1]", "[4 3 1 / 3 4 1]",
    "[-2 -3 -2 / -1 -1 7]", "[-4 4 -3 / 3 1 1]",
)
INVARIANTS = ("conway", "bracket", "jones", "span")


def rep_commands(rep: str) -> list[list[str]]:
    return [
        ["eval", rep, invariant, "--method", method, "--format", fmt]
        for invariant in INVARIANTS
        for method in ("oracle", "both")
        for fmt in ("text", "json")
    ]


OTHER_COMMANDS = (
    ["eval", "(13,12)", "jones", "--method", "both"],
    ["verify-table", "--errata"],
    ["selftest"],
)


def capture(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def all_commands() -> list[list[str]]:
    return [argv for rep in REPS for argv in rep_commands(rep)] + list(OTHER_COMMANDS)


def _golden() -> dict:
    with open(GOLDEN) as f:
        return {" ".join(entry["argv"]): entry for entry in json.load(f)}


def test_golden_covers_every_command():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in all_commands())


def test_every_json_stdout_is_one_json_document():
    entries = [e for e in _golden().values() if "json" in e["argv"] and e["code"] == 0]
    assert len(entries) == 2 * len(INVARIANTS) * len(REPS)
    for entry in entries:
        result = json.loads(entry["stdout"])
        if "both" in entry["argv"]:
            assert result["agree"] is True, entry["argv"]


def test_eval_both_in_json_reports_a_disagreement_and_exits_1(monkeypatch):
    from knotpair import oracle

    monkeypatch.setattr(oracle, "bracket_state_sum", lambda *a, **k: oracle.LaurentPoly.zero())
    got = capture(["eval", "(2,-3)", "bracket", "--method", "both", "--format", "json"])
    assert got["code"] == 1 and got["stderr"] == ""
    assert json.loads(got["stdout"]) == {
        "closed": capture(["eval", "(2,-3)", "bracket"])["stdout"].strip(),
        "oracle": "0",
        "agree": False,
    }


@pytest.mark.parametrize("rep", REPS)
def test_eval_oracle_path_matches_golden(rep):
    golden = _golden()
    for argv in rep_commands(rep):
        assert capture(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("argv", OTHER_COMMANDS, ids=" ".join)
def test_other_oracle_commands_match_golden(argv):
    assert capture(argv) == _golden()[" ".join(argv)]


# ---------------------------------------------------------------------------
# the budget is checked before any oracle runs

# (rep, crossings): a girth-2 knot, girth-2 and girth-1 links
OVER_THE_CAP = (("(13,12)", 25), ("(13,13)", 26), ("(26)", 26))


@pytest.mark.parametrize("rep, n", OVER_THE_CAP)
@pytest.mark.parametrize("invariant", INVARIANTS)
@pytest.mark.parametrize("method", ("oracle", "both"))
def test_over_the_cap_is_refused_before_any_oracle(monkeypatch, rep, n, invariant, method):
    from knotpair import oracle

    ran = []
    for name in ("bracket_state_sum", "conway_fox"):
        monkeypatch.setattr(oracle, name, lambda *a, name=name, **k: ran.append(name))
    built = spy_on_templates(monkeypatch)
    got = capture(["eval", rep, invariant, "--method", method])
    assert (got["code"], got["stdout"]) == (2, "")
    assert got["stderr"] == f"error: {n} crossings exceeds the oracle budget of 24 crossings\n"
    assert ran == [] and built == []


@pytest.mark.parametrize("rep, n", (("(200000,0)", 200000), ("[100000 0 0 / 0 0 0]", 100000)))
def test_a_large_template_is_refused_unbuilt(monkeypatch, rep, n):
    # the count comes off the labels, so the refusal takes no time
    built = spy_on_templates(monkeypatch)
    got = capture(["eval", rep, "bracket", "--method", "oracle"])
    assert (got["code"], got["stdout"]) == (2, "")
    assert got["stderr"] == f"error: {n} crossings exceeds the oracle budget of 24 crossings\n"
    assert built == []


@pytest.mark.parametrize("invariant", INVARIANTS)
def test_budget_option_sets_the_cap(invariant):
    rep = "[-2 -3 -2 / -1 -1 7]"  # a 16-crossing knot
    got = capture(["eval", rep, invariant, "--method", "oracle", "--budget-crossings", "15"])
    assert got["code"] == 2
    assert got["stderr"] == "error: 16 crossings exceeds the oracle budget of 15 crossings\n"
    got = capture(["eval", rep, invariant, "--method", "oracle", "--budget-crossings", "16"])
    assert got["code"] == 0 and got["stderr"] == ""


# ---------------------------------------------------------------------------
# the work each command does


def spy_on_oracles(monkeypatch):
    from knotpair import oracle

    calls = []
    for name in ("bracket_state_sum", "conway_fox"):
        real = getattr(oracle, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, name, spy)
    return calls


@pytest.mark.parametrize("rep", ("[-2 -3 -2 / -1 -1 7]", "[3 1 1 / -4 5 -1]", "(3)", "(4)"))
@pytest.mark.parametrize("invariant", INVARIANTS)
@pytest.mark.parametrize("method", ("oracle", "both"))
def test_eval_runs_only_the_oracle_its_invariant_needs(monkeypatch, rep, invariant, method):
    knot = orient(pd_from_rep(parse_rep(rep))).n_components == 1
    oracles = spy_on_oracles(monkeypatch)
    calls = spy_on_templates(monkeypatch)
    assert capture(["eval", rep, invariant, "--method", method])["code"] == 0
    # one build, and no orientation traced but the one the build carries
    names = [name for name, _ in calls]
    assert [arg for name, arg in calls if name == "pd_from_rep"] == [parse_rep(rep)]
    assert names.count("build") == names.count("trace") == 1
    if invariant != "conway":
        assert oracles == ["bracket_state_sum"]
    elif knot:
        assert oracles == ["conway_fox"]
    else:
        assert oracles == []  # a link has no Conway value to check


def test_verify_table_builds_no_template_and_orients_each_fixture_once(monkeypatch):
    from knotpair import census

    calls = spy_on_templates(monkeypatch)
    results = census.verify_table(apply_errata=True)
    checked = [r for r in results if r.status in ("PASS", "FAIL")]
    assert len(checked) == 18
    names = [name for name, _ in calls]
    # a table rep's invariants come from its closed forms
    assert "pd_from_rep" not in names and "build" not in names
    # one trace, in one orient, of each fixture
    fixtures = [arg for name, arg in calls if name == "orient"]
    assert all(pd.orientation is None for pd in fixtures)
    assert len(fixtures) == len(set(fixtures)) == names.count("trace") == len(checked)
