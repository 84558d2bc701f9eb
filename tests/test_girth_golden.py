"""The girth path of the CLI: `girth` and `decompose`, in text and JSON.

``girth_golden.json`` holds, for each input diagram, its PD text and the
stdout, stderr and exit code of the four commands below, captured before
the Tait graph and contour code was slimmed down, so any change to what
these commands print shows up here.  The inputs are the shipped fixtures,
seeded girth-2 and girth-3 templates and braid closures of 10 to 16
crossings, and six diagrams the commands refuse or treat specially; they
are stored verbatim, and ``golden_inputs`` says how they were made.  The
four results of "free loops only" were taken again when a crossing-free
diagram of other than one circle came to be refused, those of "girth 2
past the budget (9,9)" when the budget refusal stopped counting the
trees and again when the budget came to guard only the backtracking
(girth 2 and 3 are read at any size, so K(9,9) answers), and those of "unreduced [0 0 1 / 1 0 0]" when the refusal of an
unreduced diagram came to name its least nugatory crossing.  "over budget
braid [1, -2] * 9" was added then: its least girth is 9, so the budget
still refuses it.
"""

import contextlib
import io
import json
import os
import random
from importlib import resources

import pytest

from knotpair.cli import main
from knotpair.diagram import InvalidPDError, pd_from_rep
from knotpair.reps import Girth2Rep, Girth3Rep

from diagram_builders import braid_closure_pd, pd_to_json

GOLDEN = os.path.join(os.path.dirname(__file__), "girth_golden.json")

COMMANDS = tuple(
    (command, fmt) for command in ("girth", "decompose") for fmt in ("text", "json")
)


def _templates(rng: random.Random, count: int) -> list:
    # girth-2 and girth-3 templates of 10 to 16 crossings; nonzero labels
    # keep them reduced
    reps = []
    for k in range(count):
        parts = 2 if k % 2 else 6
        n = rng.randint(10, 16)
        cuts = sorted(rng.sample(range(1, n), parts - 1))
        labels = [rng.choice((-1, 1)) * (b - a) for a, b in zip((0, *cuts), (*cuts, n))]
        if parts == 2:
            reps.append(Girth2Rep(*labels))
        else:
            reps.append(Girth3Rep(tuple(labels[:3]), tuple(labels[3:])))
    return reps


def _braid_words(rng: random.Random, count: int) -> list:
    # random 3- and 4-strand words of 10 to 16 letters that use every generator
    words = []
    while len(words) < count:
        strands = rng.choice((3, 4))
        word = [
            rng.choice((-1, 1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(10, 16))
        ]
        if {abs(x) for x in word} == set(range(1, strands)):
            words.append((word, strands))
    return words


def golden_inputs() -> list[tuple[str, str]]:
    """(name, PD text) of every input, in golden order."""
    inputs = []
    root = resources.files("knotpair").joinpath("fixtures").joinpath("rolfsen")
    for f in sorted(root.iterdir(), key=lambda f: f.name):
        if f.name.endswith(".pd.json"):
            inputs.append((f"fixture {f.name}", f.read_text()))
    rng = random.Random(20261018)
    for rep in _templates(rng, 24):
        inputs.append((f"template {rep}", pd_to_json(pd_from_rep(rep))))
    for k in range(5, 9):
        word = [1, -2] * k
        inputs.append((f"braid {word} on 3", pd_to_json(braid_closure_pd(word, 3))))
    for word, strands in _braid_words(rng, 8):
        try:
            text = pd_to_json(braid_closure_pd(word, strands))
        except InvalidPDError:
            continue
        inputs.append((f"braid {word} on {strands}", text))
    past_budget = pd_to_json(pd_from_rep(Girth2Rep(9, 9)))
    over_budget_braid = pd_to_json(braid_closure_pd([1, -2] * 9, 3))
    unreduced = pd_to_json(pd_from_rep(Girth3Rep((0, 0, 1), (1, 0, 0))))
    trefoil = json.loads(pd_to_json(pd_from_rep(Girth2Rep(2, 1))))
    inputs += [
        ("girth 2 past the budget (9,9)", past_budget),
        ("over budget braid [1, -2] * 9", over_budget_braid),
        ("unreduced [0 0 1 / 1 0 0]", unreduced),
        ("free loop beside a trefoil", json.dumps(dict(trefoil, free_loops=1))),
        ("free loops only", '{"crossings": [], "free_loops": 2}'),
        ("non-planar", '{"crossings": [[1, 2, 3, 4], [1, 2, 3, 4]]}'),
        ("text form X(...)", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n"),
    ]
    return inputs


def capture(path: str, command: str, fmt: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, path, "--format", fmt])
    return {
        "command": command,
        "format": fmt,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def capture_input(tmp_dir: str, text: str) -> list[dict]:
    path = os.path.join(tmp_dir, "input.pd")
    with open(path, "w") as f:
        f.write(text)
    return [capture(path, command, fmt) for command, fmt in COMMANDS]


def _golden() -> list[dict]:
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_holds_the_seeded_inputs():
    assert [(case["name"], case["pd"]) for case in _golden()] == golden_inputs()


def test_golden_covers_every_kind_of_outcome():
    results = [r for case in _golden() for r in case["results"]]
    assert len(results) == 4 * len(_golden())
    assert {r["code"] for r in results} == {0, 2}
    for r in results:
        lines = r["stderr"].splitlines()
        if r["code"] == 2:
            assert r["stdout"] == "" and len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert lines == []


def test_every_json_stdout_is_one_json_document():
    results = [r for case in _golden() for r in case["results"]]
    parsed = [json.loads(r["stdout"]) for r in results if r["format"] == "json" and r["code"] == 0]
    assert parsed and all("girth" in result for result in parsed)


@pytest.mark.parametrize("case", _golden(), ids=lambda case: case["name"])
def test_girth_and_decompose_match_golden(tmp_path, case):
    assert capture_input(str(tmp_path), case["pd"]) == case["results"]
