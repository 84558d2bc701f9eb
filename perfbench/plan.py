"""Seeded inputs for the knotpair benchmark workloads.

A workload is cut into rounds. Each round is one list of CLI commands that
one fresh worker process runs in a closed loop (see ``worker.py``), so no
cache can carry over from one round to the next, and no input repeats
inside a round. Every input of every round is made here, from the seed,
before anything is timed.

Label magnitudes come from a fixed layout that no seed changes, the same in
every round. So every seed and every round asks for the same amount of work
along the same code paths (which depend on label sizes and parities), and a
run that fits more rounds in its time measures the same mix. The seed picks
the signs, the invariant of each eval, the split of the `--method both`
reps, the compared permutations, the fixture relabellings and the order.

* ``census``: the same two census commands every round; the seed is ignored.
* ``eval_mix``: 100 commands per round.
* ``decompose``: 100 PD files per round: the 18 shipped fixtures (verbatim in
  round 0; later rounds rename their arcs and reorder their crossings) plus
  82 girth-2 and girth-3 template diagrams of 10 to 16 crossings.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

WORKLOADS = ("census", "eval_mix", "decompose")
DEFAULT_SEED = 0
# Rounds made per run. A run stops early if it uses them all, which only
# a program several times faster than the parent commit does.
ROUND_CAP = 12

CENSUS_COMMANDS = (
    ["census", "--girth", "3", "--max", "2"],
    ["census", "--girth", "2", "--max", "12"],
)
INVARIANTS = ("conway", "bracket", "jones", "span")
# eval_mix round: closed-form evals by girth, self-checking `--method both`
# evals, compares by girth, and one each of verify-table and selftest.
EVAL_G3, EVAL_G2, EVAL_BOTH, COMPARE_G3, COMPARE_G2 = 40, 20, 25, 9, 4
G3_LABEL_CAP, G2_LABEL_CAP = 300, 1000
CROSSINGS = range(10, 17)  # of `--method both` reps and generated PD files
DECOMPOSE_G2 = DECOMPOSE_G3 = 41


def fixtures_dir(root: str) -> str:
    return os.path.join(root, "src", "knotpair", "fixtures", "rolfsen")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _signed(rng: random.Random, sizes) -> tuple[int, ...]:
    return tuple(m if rng.random() < 0.5 else -m for m in sizes)


def _latin(layout: random.Random, n: int, width: int, cap: int) -> list[tuple[int, ...]]:
    """n tuples of label sizes, each position log-uniform in [1, cap].

    The positions form a Latin hypercube: each of the n strata of [0, 1) is
    used once per position.
    """
    strata = [layout.sample(range(n), n) for _ in range(width)]
    return [tuple(max(1, round(cap ** ((s[j] + layout.random()) / n))) for s in strata)
            for j in range(n)]


def _composition(rng: random.Random, n: int, parts: int, seen: set) -> tuple[int, ...]:
    """A split of n into `parts` positive sizes not in `seen`; a template
    with these label sizes has n crossings."""
    while True:
        cuts = sorted(rng.sample(range(1, n), parts - 1))
        sizes = tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
        if sizes not in seen:
            seen.add(sizes)
            return sizes


def _crossing_schedule(n: int) -> list[int]:
    """n crossing numbers spread evenly over CROSSINGS."""
    return [CROSSINGS[i * len(CROSSINGS) // n] for i in range(n)]


def g3_text(labels) -> str:
    return "[{} {} {} / {} {} {}]".format(*labels)


def g2_text(labels) -> str:
    return "({},{})".format(*labels)


def _command(kind: str, argv: list[str], **facts) -> dict:
    return {"kind": kind, "argv": argv, "key": " ".join(argv), **facts}


# ---------------------------------------------------------------------------
# rounds


def census_rounds(work: str) -> list[list[dict]]:
    """The same two census commands every round, each writing a CSV file."""
    rounds = []
    for r in range(ROUND_CAP):
        cmds = []
        for i, argv in enumerate(CENSUS_COMMANDS):
            csv_path = os.path.join(work, f"census-r{r:02d}-{i}.csv")
            cmd = _command("census", argv, csv=csv_path)  # the key leaves out the path
            cmd["argv"] = argv + ["--output", csv_path]
            cmds.append(cmd)
        rounds.append(cmds)
    return rounds


def eval_mix_round(rng: random.Random) -> list[dict]:
    layout = random.Random("eval_mix layout")
    g3 = [_signed(rng, s) for s in _latin(layout, EVAL_G3 + COMPARE_G3, 6, G3_LABEL_CAP)]
    g2 = [_signed(rng, s) for s in _latin(layout, EVAL_G2 + 2 * COMPARE_G2, 2, G2_LABEL_CAP)]
    invariants = [INVARIANTS[i % 4] for i in range(EVAL_G3 + EVAL_G2 + EVAL_BOTH)]
    rng.shuffle(invariants)
    inv = iter(invariants)
    cmds = []
    for labels in g3[:EVAL_G3]:
        cmds.append(_command("eval", ["eval", g3_text(labels), next(inv)], labels=labels))
    for labels in g2[:EVAL_G2]:
        cmds.append(_command("eval", ["eval", g2_text(labels), next(inv)], labels=labels))
    sizes_seen = {tuple(map(abs, labels)) for labels in g3}
    for n in _crossing_schedule(EVAL_BOTH):
        labels = _signed(rng, _composition(rng, n, 6, sizes_seen))
        argv = ["eval", g3_text(labels), next(inv), "--method", "both"]
        cmds.append(_command("both", argv, crossings=n))
    for labels in g3[EVAL_G3:]:
        # the same top row over a permuted bottom row: the paper's
        # row-swap question, settled by Conway, by Jones, or not at all
        bottom = list(labels[3:])
        while tuple(bottom) == labels[3:] and len(set(bottom)) > 1:
            rng.shuffle(bottom)
        other = labels[:3] + tuple(bottom)
        cmds.append(_command("compare", ["compare", g3_text(labels), g3_text(other)], labels=labels))
    pairs = g2[EVAL_G2:]
    for a, b in zip(pairs[::2], pairs[1::2]):
        cmds.append(_command("compare", ["compare", g2_text(a), g2_text(b)], labels=a + b))
    cmds.append(_command("verify-table", ["verify-table", "--errata"]))
    cmds.append(_command("selftest", ["selftest"]))
    rng.shuffle(cmds)
    return cmds


def eval_mix_rounds(seed: int) -> list[list[dict]]:
    return [eval_mix_round(random.Random(f"eval_mix/{seed}/{r}")) for r in range(ROUND_CAP)]


def _relabel(rng: random.Random, crossings: list) -> list:
    """The same diagram with arcs renamed and crossings listed in another order."""
    arcs = sorted({a for cr in crossings for a in cr})
    names = dict(zip(arcs, rng.sample(range(1, len(arcs) + 1), len(arcs))))
    out = [[names[a] for a in cr] for cr in crossings]
    rng.shuffle(out)
    return out


def decompose_round(rng: random.Random, fixtures: list[str], relabel: bool) -> list[tuple]:
    """(origin, crossings, PD JSON text) of one round's files, in run order."""
    from knotpair.diagram import pd_from_rep
    from knotpair.reps import Girth2Rep, Girth3Rep

    files = []
    for text in fixtures:
        crossings = json.loads(text)["crossings"]
        if relabel:
            crossings = _relabel(rng, crossings)
            text = json.dumps({"crossings": crossings})
        files.append(("fixture", len(crossings), text))
    layout = random.Random("decompose layout")
    sizes_seen: set = set()
    texts: set = set()
    for parts, count in ((2, DECOMPOSE_G2), (6, DECOMPOSE_G3)):
        for n in _crossing_schedule(count):
            sizes = _composition(layout, n, parts, sizes_seen)
            text = None
            while text is None or text in texts:  # (p,-1) and (-1,p) draw one diagram
                labels = _signed(rng, sizes)
                rep = Girth2Rep(*labels) if parts == 2 else Girth3Rep(labels[:3], labels[3:])
                text = json.dumps({"crossings": [list(c) for c in pd_from_rep(rep).crossings]})
            texts.add(text)
            files.append((f"girth{2 if parts == 2 else 3}", n, text))
    rng.shuffle(files)
    return files


def decompose_rounds(root: str, work: str, seed: int) -> list[list[dict]]:
    fixtures = []
    for name in sorted(os.listdir(fixtures_dir(root))):
        with open(os.path.join(fixtures_dir(root), name)) as f:
            fixtures.append(f.read())
    rounds = []
    for r in range(ROUND_CAP):
        cmds = []
        files = decompose_round(random.Random(f"decompose/{seed}/{r}"), fixtures, relabel=r > 0)
        for i, (origin, n, text) in enumerate(files):
            path = os.path.join(work, f"decompose-r{r:02d}-{i:03d}.json")
            with open(path, "w") as f:
                f.write(text)
            cmd = _command("decompose", ["decompose", path, "--format", "json"],
                           origin=origin, crossings=n)
            cmd["key"] = f"decompose --format json {digest(text)}"
            cmds.append(cmd)
        rounds.append(cmds)
    return rounds


def make_rounds(workload: str, seed: int, root: str, work: str) -> list[list[dict]]:
    if workload == "census":
        return census_rounds(work)
    if workload == "eval_mix":
        return eval_mix_rounds(seed)
    if workload == "decompose":
        return decompose_rounds(root, work, seed)
    raise ValueError(f"unknown workload {workload!r}")
