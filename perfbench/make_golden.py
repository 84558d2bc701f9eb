"""Regenerate golden.json: output digests of every default-seed command.

Usage, from the root of a checkout: python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known to be right. Every command
must exit 0 (and every `--method both` eval must AGREE) or nothing is
written.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import plan
from run import GOLDEN, ROOT, SRC, run_worker


def main() -> int:
    sys.path.insert(0, SRC)
    golden: dict[str, str] = {}
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for workload in plan.WORKLOADS:
            rounds = plan.make_rounds(workload, plan.DEFAULT_SEED, ROOT, work)
            if workload == "census":
                rounds = rounds[:1]  # every census round runs the same commands
            for r, cmds in enumerate(rounds):
                result = run_worker(work, f"{workload}-r{r:02d}", cmds, trace=False)
                for cmd, got in zip(cmds, result["commands"]):
                    if got["failure"]:
                        print(f"{cmd['key']}: {got['failure']}", file=sys.stderr)
                        return 1
                    golden[cmd["key"]] = got["digest"]
                print(f"{workload} round {r}: {len(cmds)} commands", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
