"""Compare two sets of benchmark result files.

Usage (from the repository root):

    python3 bench/compare.py BASE CHANGE

BASE and CHANGE are each a result file written by run.py
(``.bench_run/results/<workload>-seed<n>-trace<t>.json``) or a directory
of them, typically the results of the parent commit and of the change, run
with the same seeds and ``--seconds``.  For every workload and metric the
script prints each side's median and quartiles, the change as a share of
the base median, and a verdict against BENCHMARK.json:

- ``regressed``: the change's median is worse than the base median by more
  than the metric's bound;
- ``unresolved``: the base's own spread (quartile distance over median) is
  wider than the bound, and not every change run beats every base run;
- ``changed``: an exact cost-axis number differs for a seed both sides
  ran, which is a behaviour change;
- ``ok`` otherwise.  Per-layer metrics have no bound and get no verdict.

The exit status is 1 if any end-to-end metric regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = {
    "ok_share",
    "accuracy",
    "policy_calls_per_unit",
    "supervisor_calls_per_unit",
    "policy_tokens_per_unit",
    "supervisor_tokens_per_unit",
}


def load(path: Path) -> dict[tuple[str, int], dict[str, dict[int, float]]]:
    """(workload, trace) -> metric -> seed -> value, one value per result file."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict = defaultdict(lambda: defaultdict(dict))
    for f in files:
        data = json.loads(f.read_text(encoding="utf-8"))
        meta = data["metadata"]
        for name, m in data["result"]["metrics"].items():
            out[(meta["workload"], int(meta["trace"]))][name][meta["seed"]] = m["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(spec: dict, base_by_seed: dict[int, float], change_by_seed: dict[int, float]) -> str:
    if spec["name"] in EXACT and any(
        base_by_seed[s] != change_by_seed[s] for s in set(base_by_seed) & set(change_by_seed)
    ):
        return "changed"
    base, change = list(base_by_seed.values()), list(change_by_seed.values())
    sign = 1.0 if spec["better"] == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    worse = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if worse > spec["bound"]:
        return "regressed"
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if spread > spec["bound"] and not all_better:
        return "unresolved"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    regressed = False
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})")
        for name in base[key]:
            if name not in change[key]:
                continue
            b, c = list(base[key][name].values()), list(change[key][name].values())
            b_q1, b_med, b_q3 = quartiles(b)
            c_q1, c_med, c_q3 = quartiles(c)
            rel = (c_med - b_med) / abs(b_med) if b_med else 0.0
            mark = ""
            if name in specs and not trace:
                mark = verdict(specs[name], base[key][name], change[key][name])
            regressed |= mark == "regressed"
            print(
                f"{name:30s} base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}] n={len(b)}"
                f"  change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] n={len(c)}"
                f"  {rel:+.1%}  {mark}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
