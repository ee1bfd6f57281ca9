"""memsearch benchmark: one workload, timed passes, correctness gate.

Usage (from the repository root):

    python3 bench/run.py --workload demo --seed 1 --seconds 30 --trace 0

A pass is the public library path on the workload's generated config:
``run_matrix`` into a fresh directory, then ``analyze_run`` and
``emit_matrix_report``.  Set-up generates the inputs, times fresh-process
start-up (import plus ``load_matrix_config``) and makes an untimed
``jobs=1`` reference pass.  Every timing is bracketed by calibration blocks
and reported in nominal seconds, which cancels the host's speed drift (see
calibrate.py); the raw wall times are kept in the result file.  Every timed pass is checked against the
reference unit by unit; any mismatch, failed cell, or pairing error makes
the benchmark exit non-zero.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of traced passes (see tracing.py),
alternated with untraced passes to give the tracing overhead.  Everything
measured is also written to ``.bench_run/results/`` for compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = SRC / "memsearch" / "fixtures"
WORK = ROOT / ".bench_run"

# Set-up is probed SETUP_FIRST times before the reference pass and the rest
# spread over the timed window, so the median spans the whole run.
SETUP_PROCESSES = 15
SETUP_FIRST = 3
MIN_PASSES = 3
# A pass is calibrated by the blocks of the two gaps on each side of it: a
# wider window in time than its own two gaps, which alone often sit in
# another speed mode than the pass.  Set-up probes, far apart in time, use
# only their own two gaps.
PASS_REACH = 2
# The tail is the highest percentile with TAIL_BEYOND samples beyond it, but
# never below TAIL_LEVEL: with fewer than TAIL_BEYOND / (1 - TAIL_LEVEL)
# passes it is the TAIL_LEVEL quantile, so it moves smoothly with the pass count.
TAIL_BEYOND = 10
TAIL_LEVEL = 0.9

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import memsearch
from memsearch.matrix import load_matrix_config
load_matrix_config(sys.argv[2])
print(time.perf_counter() - t0)
if not memsearch.__file__.startswith(sys.argv[1]):
    sys.exit("memsearch imported from outside the checkout: " + memsearch.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def import_program() -> None:
    """Import memsearch from this checkout's src/, refusing any other copy."""
    if not (SRC / "memsearch" / "__init__.py").is_file():
        raise BenchError(f"no memsearch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import memsearch

    if not Path(memsearch.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"memsearch imported from outside the checkout: {memsearch.__file__}")


# ---------------------------------------------------------------------------
# pass outputs and the correctness gate


@dataclass(frozen=True)
class PassOutput:
    manifest: str
    rows: dict[str, list[str]]  # cell id -> verdict lines, one per task
    report: str


def read_output(out_dir: Path, report: str) -> PassOutput:
    manifest_text = (out_dir / "manifest.json").read_text(encoding="utf-8")
    rows = {}
    for cell_id, meta in json.loads(manifest_text)["cells"].items():
        if meta.get("status") == "ok":
            text = (out_dir / meta["verdict_file"]).read_text(encoding="utf-8")
            rows[cell_id] = text.splitlines()
    return PassOutput(manifest_text, rows, report)


def failed_units(out: PassOutput, ref: PassOutput, unit_counts: dict[str, int]) -> int:
    """Units of this pass whose cell failed or whose verdict row differs from the reference."""
    failed = 0
    for cell_id, n in unit_counts.items():
        got, want = out.rows.get(cell_id), ref.rows.get(cell_id)
        if got is None or want is None or len(got) != n:
            failed += n
        else:
            failed += sum(g != w for g, w in zip(got, want))
    return failed


def cost_axis(out: PassOutput, n_units: int) -> dict[str, float]:
    """accuracy (pass@n share) and model calls/tokens per unit, exact."""
    totals = dict.fromkeys(
        ("solved", "policy_calls", "supervisor_calls", "policy_tokens", "supervisor_tokens"), 0
    )
    for lines in out.rows.values():
        for line in lines:
            row = json.loads(line)
            tel = row["telemetry"]
            totals["solved"] += any(row["verdicts"])
            totals["policy_calls"] += tel["policy_calls"]
            totals["supervisor_calls"] += tel["supervisor_calls"]
            totals["policy_tokens"] += tel["policy_tokens_in"] + tel["policy_tokens_out"]
            totals["supervisor_tokens"] += (
                tel["supervisor_tokens_in"] + tel["supervisor_tokens_out"]
            )
    return {
        "accuracy": totals["solved"] / n_units,
        "policy_calls_per_unit": totals["policy_calls"] / n_units,
        "supervisor_calls_per_unit": totals["supervisor_calls"] / n_units,
        "policy_tokens_per_unit": totals["policy_tokens"] / n_units,
        "supervisor_tokens_per_unit": totals["supervisor_tokens"] / n_units,
    }


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# measurement


def tail(samples: list[float]) -> tuple[float, str]:
    """(tail pass time, label): the max(TAIL_LEVEL, 1 - TAIL_BEYOND/n) quantile,
    interpolated between neighbouring samples."""
    ordered = sorted(samples)
    n = len(ordered)
    level = max(TAIL_LEVEL, (n - TAIL_BEYOND) / n)
    pos = level * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(s > value for s in ordered)
    return value, f"p{100 * level:.1f} of {n} passes, {beyond} beyond it"


def setup_probe(config_path: Path) -> float:
    """One fresh process timing import of memsearch plus load_matrix_config, raw seconds."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(config_path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[0])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (setup probes), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def src_line_count() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode("utf-8") + b"\0" + p.read_bytes())
    return h.hexdigest()


class Bench:
    def __init__(self, workload, work_dir: Path):
        from memsearch.matrix import check_admissible, load_matrix_config

        self.workload = workload
        self.work_dir = work_dir
        self.config_path = workload.write(work_dir / "inputs")
        self.cfg = load_matrix_config(self.config_path)
        self.unit_counts: dict[str, int] = {}
        self.refused: dict[str, int] = {}
        for cell in self.cfg.cells:
            adm = check_admissible(cell)
            if adm.admissible:
                tasks = self.cfg.benchmarks[cell.benchmark].benchmark.tasks
                self.unit_counts[cell.cell_id] = len(tasks)
            else:
                self.refused[adm.glyph] = self.refused.get(adm.glyph, 0) + 1
        self.n_units = sum(self.unit_counts.values())
        self.out_dir = work_dir / "out"

    def run_pass(self, jobs: int, tracer=None) -> PassOutput:
        from memsearch.matrix import run_matrix
        from memsearch.stats import (
            MissingBaselineError,
            PairingError,
            analyze_run,
            emit_matrix_report,
        )

        run, analyze, report = run_matrix, analyze_run, emit_matrix_report
        if tracer is not None:
            run = tracer.wrap("matrix.run", run)
            analyze = tracer.wrap("stats.analyze", analyze)
            report = tracer.wrap("stats.report", report)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            run(self.cfg, self.out_dir, jobs=jobs)
            text = report(analyze(self.out_dir))
        except (MissingBaselineError, PairingError) as exc:
            raise BenchError(f"analysis failed: {type(exc).__name__}: {exc}") from exc
        return read_output(self.out_dir, text)

    def metadata(self, seed: int) -> dict:
        import numpy

        return {
            "workload": self.workload.name,
            "seed": seed,
            "jobs": self.workload.jobs,
            "inputs_sha256": self.workload.digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cells": len(self.cfg.cells),
            "admissible_cells": len(self.unit_counts),
            "refused_structural": self.refused.get("∅", 0),
            "refused_non_serializable": self.refused.get("---", 0),
            "units_per_pass": self.n_units,
            "src_lines": src_line_count(),
        }


def check_repeat_across_runs(key: str, values: dict) -> bool:
    """Cost-axis values for one (workload, seed, inputs, program) must never change."""
    path = WORK / "expected" / f"{key}.json"
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8")) == values
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(values, sort_keys=True), encoding="utf-8")
    return True


def pass_problems(out: PassOutput, ref: PassOutput, written: int, ref_written: int,
                  costs: dict, ref_costs: dict) -> list[str]:
    """Whole-pass differences from the reference; unit-level ones are failed_units'."""
    problems = []
    if out.manifest != ref.manifest:
        problems.append("manifest differs from the reference")
    if out.report != ref.report:
        problems.append("report differs from the reference")
    if written != ref_written:
        problems.append(f"{written} bytes written, the reference wrote {ref_written}")
    if costs != ref_costs:
        problems.append("cost axis differs from the reference")
    return problems


class Clock:
    """Times calls and the calibration gaps around them (see calibrate.py)."""

    def __init__(self, jobs: int) -> None:
        calibrate.kernel()  # warm-up
        self.jobs = jobs
        self.raw: list[float] = []
        self.gaps: list[list[float]] = [calibrate.gap(0.0, jobs)]  # gaps[i] precedes call i

    def time(self, fn, *args):
        """fn(*args), its wall time recorded and followed by a calibration gap."""
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        self.raw.append(wall)
        self.gaps.append(calibrate.gap(wall, self.jobs))
        return result

    def nominal(self, reach: int) -> list[float]:
        """Each call's time in nominal seconds, calibrated by the `reach` gaps on each side."""
        return [
            calibrate.scaled(wall, [b for g in self.gaps[max(0, i + 1 - reach):i + 1 + reach]
                                    for b in g])
            for i, wall in enumerate(self.raw)
        ]


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Set-up, reference pass and timed passes for `seconds`; returns the result record."""
    from tracing import Tracer, layer_metrics, median_times

    jobs = bench.workload.jobs
    record: dict = {"attempted": 0, "failed": 0, "mismatches": []}
    # a probe is a process of its own that may run on any vCPU this one may use
    setup_clock = Clock(min(len(os.sched_getaffinity(0)), calibrate.BLOCK_REPEATS))
    for _ in range(0 if trace else SETUP_FIRST):
        setup_clock.time(setup_probe, bench.config_path)

    ref = bench.run_pass(1)  # untimed reference, also the warm-up
    ref_written = output_bytes(bench.out_dir)
    ref_costs = cost_axis(ref, bench.n_units)
    record["attempted"] += bench.n_units
    record["failed"] += failed_units(ref, ref, bench.unit_counts)
    key = "-".join((bench.workload.name, str(bench.workload.seed),
                    bench.workload.digest()[:16], src_digest()[:16]))
    if not check_repeat_across_runs(key, ref_costs):
        record["mismatches"].append("cost axis differs from an earlier run with the same inputs")

    pass_clock = Clock(jobs)
    is_traced: list[bool] = []
    layer_counts: list[dict] = []
    layer_times: list[dict] = []
    last_tracer = None
    start = perf_counter()
    while True:
        tracer = Tracer() if trace and 2 * sum(is_traced) < len(is_traced) else None
        if tracer is not None:
            tracer.install()
        try:
            out = pass_clock.time(bench.run_pass, jobs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        is_traced.append(tracer is not None)
        n_pass = len(is_traced)
        record["attempted"] += bench.n_units
        record["failed"] += failed_units(out, ref, bench.unit_counts)
        problems = pass_problems(out, ref, output_bytes(bench.out_dir), ref_written,
                                 cost_axis(out, bench.n_units), ref_costs)
        record["mismatches"] += [f"pass {n_pass}: {p}" for p in problems]
        if tracer is not None:
            counts, times = layer_metrics(tracer, jobs)
            if layer_counts and counts != layer_counts[0]:
                record["mismatches"].append(f"pass {n_pass}: per-layer counts differ")
            layer_counts.append(counts)
            layer_times.append(times)
            last_tracer = tracer

        elapsed = perf_counter() - start
        probes_due = SETUP_FIRST + (SETUP_PROCESSES - SETUP_FIRST) * elapsed / seconds
        n_setup = len(setup_clock.raw)
        if not trace and n_setup < SETUP_PROCESSES and n_setup <= probes_due:
            setup_clock.time(setup_probe, bench.config_path)
            elapsed = perf_counter() - start
        n_traced = sum(is_traced)
        enough = n_pass - n_traced >= MIN_PASSES and (not trace or n_traced >= MIN_PASSES)
        if enough and elapsed + statistics.median(pass_clock.raw) > seconds:
            break
    while not trace and len(setup_clock.raw) < SETUP_PROCESSES:
        setup_clock.time(setup_probe, bench.config_path)
    record["measured_s"] = perf_counter() - start
    pass_s = pass_clock.nominal(PASS_REACH)
    plain = [t for t, traced in zip(pass_s, is_traced) if not traced]
    traced = [t for t, traced in zip(pass_s, is_traced) if traced]
    record["pass_s"] = plain
    record["pass_wall_s"] = pass_clock.raw
    record["pass_calibration_s"] = pass_clock.gaps
    shutil.rmtree(bench.out_dir, ignore_errors=True)

    if not trace:
        median_pass = statistics.median(plain)
        tail_value, tail_label = tail(plain)
        record["tail"] = tail_label
        setup = setup_clock.nominal(1)
        record["setup_samples_s"] = setup
        record["setup_wall_s"] = setup_clock.raw
        record["setup_calibration_s"] = setup_clock.gaps
        metrics = {
            "setup_s": statistics.median(setup),
            "units_per_s": bench.n_units / median_pass,
            "pass_s_tail": tail_value,
            "peak_rss_mb": peak_rss_mb(),
            "ok_share": 1.0 - record["failed"] / record["attempted"],
            **ref_costs,
        }
    else:
        record["traced_pass_s"] = traced
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = {
            **layer_counts[0],
            **median_times(layer_times),
            "matrix.bytes_written": ref_written,
            "trace.overhead_s": overhead,
            "trace.overhead_share": overhead / statistics.median(plain),
        }
        last_tracer.write_spans(bench.work_dir / "spans.tsv")
    record["metrics"] = metrics
    return record


def metric_units(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
        units = metric_units(bool(args.trace))
        sys.path.insert(0, str(BENCH_DIR))
        import workloads

        workload = workloads.build(args.workload, args.seed, FIXTURES)
        work_dir = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
        shutil.rmtree(work_dir, ignore_errors=True)
        bench = Bench(workload, work_dir)
        meta = {**bench.metadata(args.seed), "trace": bool(args.trace)}
        print(json.dumps({"metadata": meta}, ensure_ascii=False))
        record = measure(bench, args.seconds, bool(args.trace))
        unlisted = set(record["metrics"]) ^ set(units)
        if unlisted:
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(unlisted)}")
    except (BenchError, ValueError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    correct = record["failed"] == 0 and not record["mismatches"]
    for problem in record["mismatches"]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(
        json.dumps({"metadata": meta, "record": record, "result": result}, indent=1,
                   ensure_ascii=False),
        encoding="utf-8",
    )
    if "tail" in record:
        raw = bench.n_units / statistics.median(record["pass_wall_s"])
        print(f"pass_s_tail is the {record['tail']}; {len(record['pass_s'])} timed passes; "
              f"uncalibrated {raw:.4g} units per wall second")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
