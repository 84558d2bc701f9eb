"""Benchmark of the knotpair CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census|eval_mix|decompose \
        --seed N --seconds S --trace 0|1

The workload's inputs are made from the seed first (``plan.py``). Then
rounds of CLI commands run, each in a fresh worker process (``worker.py``),
until S seconds of command time are measured. Every time is scaled to a
reference speed of the machine (``speed.py``). With ``--trace 0`` the last
line of stdout is a JSON object with every end-to-end metric named in
BENCHMARK.json. With ``--trace 1`` rounds worth S/2 seconds run untraced,
then again with the layers traced, and the object holds the per-layer
metrics. The line before it is the full record: machine and run facts, raw
times, input facts, failures, and the self-time breakdown of a traced run.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import plan
import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150
# The setup child runs the speed probe just before and just after the
# import, EDGE_PROBES times each. The probe's source is copied in, so that
# nothing the benchmark imports runs before the program's own imports.
SETUP_CHILD = (
    "import gc, time\n"
    + inspect.getsource(speed.probe)
    + f"before = sum(probe() for _ in range({speed.EDGE_PROBES}))\n"
    "import sys, knotpair.cli\n"
    f"after = sum(probe() for _ in range({speed.EDGE_PROBES}))\n"
    "sys.stdout.write(f'{before} {after} {knotpair.cli.__file__}\\n')\n"
    "sys.stdout.flush()\n"
)


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


# ---------------------------------------------------------------------------
# machine and run facts


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measuring


def measure_setup(count: int) -> list[tuple[float, float]]:
    """(raw, scaled) seconds from starting a fresh interpreter to
    knotpair.cli imported.

    The raw time leaves out the probes' time; the scaled time is the raw time
    at the probe's reference speed (see ``speed.py``). One unmeasured start
    first writes the bytecode cache, as installing the package would.
    """
    samples = []
    for i in range(count + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD], env=_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            proc.stdout.read()
        try:
            before, after, path = line.split(" ", 2)
            probes = float(before) + float(after)
        except ValueError:
            path = ""
        if proc.returncode != 0 or not path.startswith(SRC):
            raise RuntimeError(f"setup probe failed: printed {line.strip()!r}")
        raw = seconds - probes
        if i:
            samples.append((raw, raw * speed.REFERENCE_S * 2 * speed.EDGE_PROBES / probes))
    return samples


def run_worker(work: str, tag: str, cmds: list[dict], trace: bool) -> dict:
    round_file = os.path.join(work, f"{tag}.round.json")
    result_file = os.path.join(work, f"{tag}.json")
    with open(round_file, "w") as f:
        json.dump(cmds, f)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), round_file, result_file]
    proc = subprocess.run(argv + (["--trace"] if trace else []), env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {tag} failed:\n{proc.stderr[-2000:]}")
    with open(result_file) as f:
        result = json.load(f)
    result["tag"] = tag
    return result


def run_rounds(work: str, rounds: list[list[dict]], seconds: float, trace: bool) -> list[dict]:
    """Run rounds in order until `seconds` of command time are measured.

    The time counted is the time at the reference speed, so how many rounds
    run depends on the program, not on how fast the machine runs now. At
    least one round runs.
    """
    results, timed = [], 0.0
    for r, cmds in enumerate(rounds):
        if timed >= seconds:
            break
        result = run_worker(work, f"{'traced' if trace else 'plain'}-r{r:02d}", cmds, trace)
        timed += sum(c["seconds"] for c in result["commands"])
        results.append(result)
    return results


def _commands(results: list[dict]) -> list[dict]:
    return [c for res in results for c in res["commands"]]


def _percentiles(results: list[dict], key: str) -> tuple[float, float]:
    """Median over rounds of each round's p50 and p90 of `key`, in ms.

    Every round has the same layout of inputs, so the figures do not depend
    on how many rounds fit in the run.
    """
    p50, p90 = [], []
    for res in results:
        latency = [c[key] for c in res["commands"]]
        p50.append(statistics.median(latency))
        p90.append(statistics.quantiles(latency, n=10, method="inclusive")[8])
    return statistics.median(p50) * 1000, statistics.median(p90) * 1000


def end_to_end(results: list[dict], setup: list[float], key: str = "seconds") -> dict:
    """The end-to-end metrics; throughput pools every round.

    `key` picks the command times: "seconds" at the reference speed, or
    "raw_s" as measured. `setup` holds the matching setup times.
    """
    cmds = _commands(results)
    p50, p90 = _percentiles(results, key)
    return {
        "items_per_s": sum(c["items"] for c in cmds) / sum(c[key] for c in cmds),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(res["maxrss_kb"] for res in results) / 1024,
    }


def per_layer(work: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics and the self-time breakdown of the traced rounds."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    roots = 0.0
    missing: set = set()
    for res in traced:
        meta, arrays = spans.load(work, res["tag"] + ".spans")
        c, s, root = spans.self_times(meta, arrays)
        calls.update(c)
        self_s.update(s)
        counts.update(meta["counts"])
        roots += root
        missing.update(meta["missing"])
    if missing:
        print(f"warning: not traced, absent from the program: {sorted(missing)}", file=sys.stderr)
    wall = sum(c["raw_s"] for c in _commands(traced))
    # the overhead compares times at the reference speed, so that it
    # does not show how the machine's speed changed between the two
    scaled = sum(c["seconds"] for c in _commands(traced))
    plain_scaled = sum(c["seconds"] for c in _commands(plain))
    layer = dict(counts)
    for name in calls:
        layer[f"{name}.calls"] = calls[name]
        layer[f"{name}.self_s"] = self_s[name]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    layer["diagram.templates_per_rep"] = ratio(calls["diagram.pd_from_rep"],
                                               counts["diagram.distinct_template_reps"])
    layer["girth.trees_per_subset"] = ratio(counts["girth.spanning_trees.trees"],
                                            counts["girth.spanning_trees.subsets"])
    layer["classify.compare.unresolved_ratio"] = ratio(counts["classify.compare.unresolved"],
                                                       calls["classify.compare"])
    layer["trace.overhead_ratio"] = (scaled - plain_scaled) / plain_scaled
    breakdown = sorted(([name, s, s / wall] for name, s in self_s.items()), key=lambda x: -x[1])
    breakdown.append(["untraced remainder", wall - roots, (wall - roots) / wall])
    return layer, breakdown


# ---------------------------------------------------------------------------
# input facts


def _log2_histogram(values) -> dict[str, int]:
    hist: Counter = Counter()
    for v in values:
        k = max(abs(v), 1).bit_length() - 1
        hist[f"{1 << k}-{(2 << k) - 1}"] += 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0].split("-")[0])))


def _tree_facts(cmds: list[dict]) -> dict:
    """Spanning trees and C(E, V-1) edge subsets of each PD's first Tait graph."""
    from knotpair.diagram import checkerboard, pd_from_json, tait_graph
    from knotpair.girth import tree_count

    trees, subsets = [], []
    for cmd in cmds:
        with open(cmd["argv"][1]) as f:
            pd = pd_from_json(f.read())
        tait = tait_graph(pd, checkerboard(pd)[0])
        trees.append(tree_count(tait))
        subsets.append(spans.edge_subsets(tait))
    return {
        "per_pd": {"min": min(trees), "median": statistics.median(trees), "max": max(trees)},
        "histogram": _log2_histogram(trees),
        "subsets_per_pd": {"min": min(subsets), "median": statistics.median(subsets),
                           "max": max(subsets)},
        "trees_per_subset": sum(trees) / sum(subsets),
    }


def input_facts(workload: str, rounds: list[list[dict]]) -> dict:
    cmds = [c for r in rounds for c in r]
    repeated = sum(len(r) - len({c["key"] for c in r}) for r in rounds)
    facts: dict = {
        "rounds": len(rounds),
        "commands": len(cmds),
        "mix": dict(Counter(c["kind"] for c in cmds)),
        "repeated_input_share_per_process": repeated / len(cmds),
    }
    if workload == "eval_mix":
        facts["invariants"] = dict(Counter(c["argv"][2] for c in cmds if c["kind"] in ("eval", "both")))
        labels: dict[int, list[int]] = {2: [], 3: []}
        for c in cmds:
            if c["kind"] in ("eval", "compare"):
                labels[3 if c["argv"][1].startswith("[") else 2] += c["labels"]
        for girth, values in labels.items():
            facts[f"girth{girth}_label_magnitudes"] = _log2_histogram(values)
        facts["both_crossings"] = dict(sorted(Counter(c["crossings"] for c in cmds if c["kind"] == "both").items()))
    if workload == "decompose":
        facts["origin"] = dict(Counter(c["origin"] for c in cmds))
        facts["crossings"] = dict(sorted(Counter(c["crossings"] for c in cmds).items()))
        try:
            facts["spanning_trees"] = _tree_facts(cmds)
        # these facts use the program's own graph API, which a later change
        # to the girth search may reshape; the timed results do not need them
        except (AttributeError, ImportError, TypeError, ValueError) as exc:
            facts["spanning_trees"] = f"unavailable: {exc}"
    return facts


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    p.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "knotpair", "cli.py")):
        print(f"error: no knotpair source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(GOLDEN) as f:
        golden = json.load(f)
    sys.path.insert(0, SRC)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(), "loadavg_start": _loadavg()}
    started = time.perf_counter()
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        rounds = plan.make_rounds(args.workload, args.seed, ROOT, work)
        for cmd in (c for r in rounds for c in r):
            cmd["golden"] = golden.get(cmd["key"])
        traced = []
        if args.trace:
            # half the time untraced, half traced, so that a traced run
            # takes about as long as an untraced one
            plain = run_rounds(work, rounds, args.seconds / 2, trace=False)
            traced = run_rounds(work, rounds[: len(plain)], math.inf, trace=True)
            metrics, record["breakdown"] = per_layer(work, plain, traced)
            wanted = spec["per_layer"]
        else:
            # half the setup probes before the rounds and half after, so
            # that they sample the machine over the whole run
            setup = measure_setup(SETUP_PROBES // 2)
            plain = run_rounds(work, rounds, args.seconds, trace=False)
            setup += measure_setup(SETUP_PROBES - len(setup))
            metrics = end_to_end(plain, [scaled for _, scaled in setup])
            record["raw"] = end_to_end(plain, [raw for raw, _ in setup], "raw_s")
            record["setup_samples_s"] = setup
            wanted = spec["end_to_end"]
        record["inputs"] = input_facts(args.workload, rounds[: len(plain)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cmds = _commands(plain + traced)
    failures = [c["failure"] for c in cmds if c["failure"]]
    record.update({
        "loadavg_end": _loadavg(),
        "wall_s": time.perf_counter() - started,
        "command_s": sum(c["raw_s"] for c in cmds),
        # the machine's speed over the run: REFERENCE_S is full speed
        "probe_s": {"reference": speed.REFERENCE_S,
                    "min": min(c["probe_s"] for c in cmds),
                    "median": statistics.median(c["probe_s"] for c in cmds),
                    "max": max(c["probe_s"] for c in cmds)},
        "failure_ratio": len(failures) / len(cmds),
        "failures": Counter(failures).most_common(5),
        "metrics": metrics,
    })
    out = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": len(cmds), "failed": len(failures),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
