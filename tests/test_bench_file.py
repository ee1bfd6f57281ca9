"""`tools/bench_file.py` pairs the result files of two benchmark sides.

The tool is loaded from its file, as the benchmark tracer is in
test_bench_tracing.py, and run on small result files written here.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_FILE = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"


def _load_bench_file():
    spec = importlib.util.spec_from_file_location("bench_file", BENCH_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _results(directory: Path, measured_by_seed: dict[int, float], units_per_s: float) -> Path:
    """One `grid` result file per seed, as `bench/run.py` writes them."""
    directory.mkdir()
    for seed, measured in measured_by_seed.items():
        data = {
            "metadata": {"workload": "grid", "seed": seed, "trace": False, "src_lines": 3774},
            "record": {"measured_s": measured, "pass_s": [1.0, 1.0, 1.0]},
            "result": {"metrics": {"units_per_s": {"value": units_per_s + seed}}},
        }
        (directory / f"grid-seed{seed}-trace0.json").write_text(json.dumps(data))
    return directory


def test_summary_lists_each_sides_measured_seconds_by_seed(tmp_path, capsys):
    parent = _results(tmp_path / "parent", {1: 30.4, 2: 29.8}, 900.0)
    change = _results(tmp_path / "change", {1: 30.1, 2: 31.0}, 950.0)
    assert _load_bench_file().main([str(parent), str(change)]) == 0
    entry = json.loads(capsys.readouterr().out)["grid"]
    assert entry["parent"]["measured_s"] == {"1": 30.4, "2": 29.8}
    assert entry["change"]["measured_s"] == {"1": 30.1, "2": 31.0}
    assert entry["metrics"]["units_per_s"]["wins"] == 2


@pytest.mark.parametrize("side", ["parent", "change"])
def test_runs_of_different_lengths_are_refused_naming_the_files(tmp_path, capsys, side):
    # a 5 s trial run that replaced a 30 s result of the same name
    lengths = {"parent": {1: 31.0, 2: 30.0}, "change": {1: 29.9, 2: 30.3}}
    lengths[side][2] = 5.1
    parent = _results(tmp_path / "parent", lengths["parent"], 900.0)
    change = _results(tmp_path / "change", lengths["change"], 950.0)
    assert _load_bench_file().main([str(parent), str(change)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: grid: runs of different lengths do not pair: "
        f"{tmp_path / side / 'grid-seed2-trace0.json'} measured 5.1 s, "
        f"{parent / 'grid-seed1-trace0.json'} 31.0 s"
    ]
