"""Summarize the benchmark results of a parent commit and a change as one JSON file.

Usage (from the repository root):

    python3 tools/bench_file.py PARENT_RESULTS CHANGE_RESULTS > BENCH_<n>.json

PARENT_RESULTS and CHANGE_RESULTS are directories of result files written by
``bench/run.py`` (its ``.bench_run/results/``), one per side, run with the
same seeds and ``--seconds``.  Each (workload, trace) pair gets one entry
with both sides' seeds, ``src/`` line counts, number of timed passes and
measured seconds by seed, and per metric:

- ``parent`` and ``change``: median, first and third quartile and the value
  of every seed;
- ``change_share``: the change's median relative to the parent's;
- ``k``: the number of pairs (seeds both sides ran) and ``wins``: the pairs
  in which the change reads better, ties counting for neither side;
- ``verdict``: ``bench/compare.py``'s verdict against the metric's bound
  (null for per-layer metrics, which have no bound).

A result file is named by workload, seed and trace only, so a shorter trial
run replaces a longer one of the same name.  The tool therefore exits 2,
naming the shortest and the longest file, when within one (workload, trace)
pair one run took more than twice as long as another.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from compare import quartiles, verdict  # noqa: E402


def load(directory: Path) -> dict[tuple[str, bool], list[dict]]:
    """(workload, trace) -> the result files of that pair, by seed."""
    runs: dict[tuple[str, bool], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        data["file"] = str(path)
        meta = data["metadata"]
        runs.setdefault((meta["workload"], bool(meta["trace"])), []).append(data)
    for files in runs.values():
        files.sort(key=lambda d: d["metadata"]["seed"])
    return runs


def side(files: list[dict], name: str) -> dict:
    by_seed = {d["metadata"]["seed"]: d["result"]["metrics"][name]["value"] for d in files}
    q1, median, q3 = quartiles(list(by_seed.values()))
    return {"median": median, "q1": q1, "q3": q3, "by_seed": by_seed}


def summarize(parent: list[dict], change: list[dict], specs: dict[str, dict]) -> dict:
    def about(files: list[dict]) -> dict:
        return {
            "seeds": [d["metadata"]["seed"] for d in files],
            "src_lines": sorted({d["metadata"]["src_lines"] for d in files}),
            "passes": [len(d["record"]["pass_s"]) for d in files],
            "measured_s": {d["metadata"]["seed"]: d["record"]["measured_s"] for d in files},
        }

    metrics = {}
    for name in parent[0]["result"]["metrics"]:
        spec = specs[name]
        base, new = side(parent, name), side(change, name)
        sign = 1.0 if spec["better"] == "lower" else -1.0
        pairs = sorted(set(base["by_seed"]) & set(new["by_seed"]))
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": base,
            "change": new,
            "change_share": new["median"] / base["median"] - 1.0 if base["median"] else None,
            "k": len(pairs),
            "wins": sum(sign * (new["by_seed"][s] - base["by_seed"][s]) < 0 for s in pairs),
            "verdict": verdict(spec, base["by_seed"], new["by_seed"]) if "bound" in spec else None,
        }
    return {"parent": about(parent), "change": about(change), "metrics": metrics}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = (load(Path(a)) for a in argv)
    out = {}
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        label = f"{workload} (trace)" if trace else workload
        files = sorted(parent[key] + change[key], key=lambda d: d["record"]["measured_s"])
        shortest, longest = files[0], files[-1]
        if longest["record"]["measured_s"] > 2 * shortest["record"]["measured_s"]:
            print(
                f"error: {label}: runs of different lengths do not pair: {shortest['file']} "
                f"measured {shortest['record']['measured_s']:.1f} s, {longest['file']} "
                f"{longest['record']['measured_s']:.1f} s",
                file=sys.stderr,
            )
            return 2
        out[label] = summarize(parent[key], change[key], specs)
    sys.stdout.write(dump(out))
    return 0


def dump(out: dict) -> str:
    """JSON with one line per metric, so the file reads as a table and diffs by metric."""
    entries = []
    for label, entry in sorted(out.items()):
        metrics = ",\n".join(
            f"   {json.dumps(name)}: {json.dumps(m, sort_keys=True)}"
            for name, m in sorted(entry["metrics"].items())
        )
        entries.append(
            f" {json.dumps(label)}: {{\n"
            f'  "parent": {json.dumps(entry["parent"])},\n'
            f'  "change": {json.dumps(entry["change"])},\n'
            f'  "metrics": {{\n{metrics}\n  }}\n }}'
        )
    return "{\n" + ",\n".join(entries) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
