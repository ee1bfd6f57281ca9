"""Check that two checkouts write the same run trees on the benchmark workloads.

Usage (from any directory):

    python3 tools/same_trees.py PARENT CHANGE [WORKLOAD ...]

PARENT and CHANGE are roots of two checkouts.  For each WORKLOAD (default:
``demo``, ``grid`` and ``fact_heavy``), seed 1 and 2 and jobs 1 and 2, the
tool writes each checkout's tree with ``tools/run_tree.py`` (the copy next
to this file, with SRC set to the checkout) and compares the two with
``diff -r``: 12 cases for the three workloads, memory dumps included.  It
prints one line per case and exits 0 if every diff is empty, else 1 after
naming the first path that differs.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TREE = Path(__file__).resolve().parent / "run_tree.py"
WORKLOADS = ("demo", "grid", "fact_heavy")
SEEDS = (1, 2)
JOBS = (1, 2)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workloads = argv[2:] or WORKLOADS
    with tempfile.TemporaryDirectory() as scratch:
        for workload in workloads:
            for seed in SEEDS:
                for jobs in JOBS:
                    case = f"{workload} seed {seed} jobs {jobs}"
                    outs = [Path(scratch) / case.replace(" ", "_") / side for side in ("a", "b")]
                    for src, out in zip((parent, change), outs):
                        argv = [str(src), workload, str(seed), str(jobs), str(out)]
                        subprocess.run([sys.executable, str(RUN_TREE), *argv], check=True)
                    diff = subprocess.run(
                        ["diff", "-rq", *map(str, outs)], capture_output=True, text=True
                    )
                    if diff.returncode != 0:
                        first = (diff.stdout or diff.stderr).splitlines()[0]
                        for out, name in zip(outs, ("PARENT", "CHANGE")):
                            first = first.replace(str(out), name)
                        print(f"{case}: differs: {first}")
                        return 1
                    print(f"{case}: same")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
