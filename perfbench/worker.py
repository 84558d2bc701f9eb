"""Run one benchmark round in this fresh process.

Usage: PYTHONPATH=src python3 perfbench/worker.py ROUND.json RESULT.json [--trace]

The round file lists CLI commands. They go through ``knotpair.cli.main``
in-process, one at a time on one thread: a closed loop with one client. Only
the ``main`` call is timed, and its time is scaled to a reference speed by
the probe of ``speed.py``. Each command is then checked: exit code 0,
nothing raised, the golden output digest where the round file has one, the
AGREE line of a ``--method both`` eval, and a JSON witness from
``decompose``. With ``--trace`` the layers are wrapped by ``spans.Tracer``
and the spans are written next to RESULT.json when the round ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys

import speed
from plan import digest


def check(cmd: dict, rc, out: str, error: str | None) -> tuple[str | None, str, int]:
    """(failure reason or None, output digest, items finished)."""
    if error is not None:
        return error, digest(out), 0
    items = 1
    if cmd["kind"] == "census":
        with open(cmd["csv"]) as f:
            table = f.read()
        os.remove(cmd["csv"])
        items = table.count("\n") - 1
        out = out.replace(cmd["csv"], "CSV") + "\0" + table
    got = digest(out)
    if rc != 0:
        return f"exit code {rc}", got, items
    if cmd.get("golden") is not None and got != cmd["golden"]:
        return "output differs from the golden output", got, items
    if cmd["kind"] == "both" and out.rstrip("\n").rsplit("\n", 1)[-1] != "AGREE":
        return "closed form and oracle disagree", got, items
    if cmd["kind"] == "decompose" and "girth" not in json.loads(out):
        return "no girth in the decompose output", got, items
    return None, got, items


def run_round(round_file: str, result_file: str, trace: bool) -> None:
    with open(round_file) as f:
        commands = json.load(f)
    from knotpair import cli

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for index, cmd in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        meter = speed.Meter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), meter:
            try:
                rc = cli.main(cmd["argv"])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            except Exception as exc:  # a command that raises counts as failed
                error = f"raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.probes += meter.ticks
        try:
            reason, got, items = check(cmd, rc, out.getvalue(), error)
        except (OSError, ValueError) as exc:
            reason, got, items = f"unreadable output: {exc}", None, 0
        results.append({"raw_s": meter.raw_s, "seconds": meter.scaled_s,
                        "probe_s": meter.speed, "items": items, "digest": got, "failure": reason,
                        "stderr": err.getvalue()[-500:] if reason else ""})
    if tracer is not None:
        out_dir, tag = os.path.split(os.path.splitext(result_file)[0])
        tracer.dump(out_dir, tag + ".spans")
    with open(result_file, "w") as f:
        json.dump({"commands": results,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, f)


if __name__ == "__main__":
    run_round(sys.argv[1], sys.argv[2], "--trace" in sys.argv[3:])
