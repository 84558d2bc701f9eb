"""Tests of the benchmark itself: seeded inputs, budgets, goldens, tracing."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import plan
import run
import spans

sys.path.insert(0, run.SRC)

from knotpair import girth, oracle  # noqa: E402
from knotpair.diagram import checkerboard, pd_from_json, pd_from_rep, tait_graph  # noqa: E402
from knotpair.reps import parse_rep  # noqa: E402


def _inputs(workload: str, seed: int, work) -> list:
    """Each command's argv with the work dir cut out, plus any file it reads."""
    work.mkdir()
    rounds = plan.make_rounds(workload, seed, run.ROOT, str(work))
    out = []
    for cmd in (c for r in rounds for c in r):
        argv = [a.replace(str(work), "WORK") for a in cmd["argv"]]
        text = None
        if cmd["kind"] == "decompose":
            with open(cmd["argv"][1]) as f:
                text = f.read()
        out.append((argv, text))
    return out


def test_same_seed_same_inputs(tmp_path):
    for workload in plan.WORKLOADS:
        a = _inputs(workload, 5, tmp_path / f"{workload}-a")
        b = _inputs(workload, 5, tmp_path / f"{workload}-b")
        assert a == b
        if workload != "census":  # the census ignores the seed
            assert a != _inputs(workload, 6, tmp_path / f"{workload}-c")


def _valences(tait) -> list[int]:
    val = [0] * tait.n_vertices
    for e in tait.edges:
        val[e.v1] += 1
        val[e.v2] += 1
    return val


def test_generated_inputs_are_within_the_cli_budgets(tmp_path):
    for seed in (1, 2):
        for r in plan.eval_mix_rounds(seed):
            assert len(r) == 100 and len({c["key"] for c in r}) == 100
            for cmd in (c for c in r if c["kind"] in ("eval", "both", "compare")):
                for text in cmd["argv"][1:3] if cmd["kind"] == "compare" else cmd["argv"][1:2]:
                    rep = parse_rep(text)
                    labels = (rep.top + rep.bottom) if hasattr(rep, "top") else (rep.p, rep.q)
                    assert 0 not in labels
                    assert max(map(abs, labels)) <= plan.G2_LABEL_CAP
                if cmd["kind"] == "both":
                    n = pd_from_rep(parse_rep(cmd["argv"][1])).n()
                    assert n == cmd["crossings"] and n <= min(oracle.BRACKET_CAP, oracle.CONWAY_CAP)
        for r in plan.decompose_rounds(run.ROOT, str(tmp_path), seed):
            assert len(r) == 100 and len({c["key"] for c in r}) == 100
            for cmd in r:
                with open(cmd["argv"][1]) as f:
                    pd = pd_from_json(f.read())
                assert pd.n() == cmd["crossings"] <= girth.TREE_BUDGET_CROSSINGS
                for shading in checkerboard(pd):  # reduced: decompose accepts it
                    assert 1 not in _valences(tait_graph(pd, shading))


def test_goldens_cover_every_default_seed_command(tmp_path):
    with open(run.GOLDEN) as f:
        golden = json.load(f)
    for workload in plan.WORKLOADS:
        rounds = plan.make_rounds(workload, plan.DEFAULT_SEED, run.ROOT, str(tmp_path))
        assert all(c["key"] in golden for r in rounds for c in r)


def test_sample_of_another_seed_passes_every_check(tmp_path):
    cmds = [c for c in plan.eval_mix_rounds(9)[0] if c["kind"] != "selftest"][:12]
    cmds += plan.decompose_rounds(run.ROOT, str(tmp_path), 9)[1][:8]
    result = run.run_worker(str(tmp_path), "sample", cmds, trace=False)
    assert [c["failure"] for c in result["commands"]] == [None] * len(cmds)


def test_traced_self_times_add_up_to_the_traced_wall(tmp_path):
    mix = plan.eval_mix_rounds(3)[0]
    cmds = []
    for kind in ("eval", "both", "compare"):
        cmds += [c for c in mix if c["kind"] == kind][:3]
    cmds += plan.decompose_rounds(run.ROOT, str(tmp_path), 3)[0][:4]
    result = run.run_worker(str(tmp_path), "traced", cmds, trace=True)
    meta, arrays = spans.load(str(tmp_path), "traced.spans")
    assert meta["missing"] == []
    assert meta["probes"]  # speed probe runs, to be left out of the spans
    names, starts, ends, parents, commands = arrays
    for i, p in enumerate(parents):  # children nest inside their parent, same command
        if p >= 0:
            assert starts[p] <= starts[i] <= ends[i] <= ends[p]
            assert commands[p] == commands[i]
    calls, self_s, roots = spans.self_times(meta, arrays)
    wall = sum(c["raw_s"] for c in result["commands"])
    remainder = wall - roots
    assert calls["cli.main"] == len(cmds)
    assert 0 <= remainder < 0.05 * wall
    assert math.isclose(sum(self_s.values()) + remainder, wall, rel_tol=1e-9)
    assert min(self_s.values()) >= 0
    for layer in ("laurent.mul", "closedform.bracket", "diagram.pd_from_rep",
                  "oracle.bracket_state_sum", "girth.diagram_girth", "diagram.tait_graph"):
        assert calls[layer] > 0
    assert meta["counts"]["girth.spanning_trees.trees"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
