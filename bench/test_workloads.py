"""Tests of the benchmark's workload generators and correctness gate.

Run from the repository root:  python3 -m pytest -q bench/test_workloads.py
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import pytest

import calibrate
import run
import workloads

run.import_program()

from memsearch.augmentors import MemoryStore  # noqa: E402
from memsearch.matrix import check_admissible, load_matrix_config, run_matrix  # noqa: E402

SEEDED = ("grid", "fact_heavy")


def _config(workload, tmp_path):
    return load_matrix_config(workload.write(tmp_path / workload.name))


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_every_group_has_a_none_baseline(name, tmp_path):
    cfg = _config(workloads.build(name, 7, run.FIXTURES), tmp_path)
    groups = defaultdict(set)
    for cell in cfg.cells:
        if check_admissible(cell).admissible:
            key = (cell.benchmark, repr(cell.search))
            groups[key].add(tuple(sorted(c.kind.value for c in cell.memory)))
    assert groups
    for key, memories in groups.items():
        assert () in memories, f"group {key} has no admissible 'none' cell"


def test_grid_shape(tmp_path):
    cfg = _config(workloads.build("grid", 3, run.FIXTURES), tmp_path)
    verdicts = [check_admissible(c) for c in cfg.cells]
    assert len(cfg.cells) == 140
    assert sum(v.admissible for v in verdicts) == 99
    units = sum(
        len(cfg.benchmarks[c.benchmark].benchmark.tasks)
        for c, v in zip(cfg.cells, verdicts)
        if v.admissible
    )
    assert units == 686 * workloads.GRID_TASK_COPIES


def test_fact_heavy_store_reaches_intended_size(tmp_path, monkeypatch):
    workload = workloads.build("fact_heavy", 5, run.FIXTURES)
    cfg = _config(workload, tmp_path)
    fact_cells = tuple(c for c in cfg.cells if c.cell_id.endswith("__fact"))
    assert {c.search.method.value for c in fact_cells} == {"best_of_n", "mcts"}

    sizes: dict[MemoryStore, int] = {}  # keyed by the store itself, one per task run
    original_add = MemoryStore.add

    def add(store, unit):
        stored = original_add(store, unit)
        sizes[store] = len(store)
        return stored

    monkeypatch.setattr(MemoryStore, "add", add)
    for cell in fact_cells:
        sizes.clear()
        run_matrix(replace(cfg, cells=(cell,)), tmp_path / cell.cell_id)
        assert len(sizes) == len(cfg.benchmarks[cell.benchmark].benchmark.tasks)
        # every filler table name is stored, bar a few hash-embedding collisions
        assert min(sizes.values()) >= 0.9 * workloads.FACT_HEAVY_FILLER_TABLES, sizes


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_same_bytes(name):
    a = workloads.build(name, 11, run.FIXTURES)
    b = workloads.build(name, 11, run.FIXTURES)
    assert a.files == b.files and a.digest() == b.digest()


@pytest.mark.parametrize("name", SEEDED)
def test_different_seed_different_inputs(name):
    a = workloads.build(name, 11, run.FIXTURES)
    b = workloads.build(name, 12, run.FIXTURES)
    assert a.files["config.json"] != b.files["config.json"]
    assert a.digest() != b.digest()


def test_demo_is_the_shipped_config():
    a = workloads.build("demo", 1, run.FIXTURES)
    assert a.files["config.json"] == (run.FIXTURES / "demo_config.json").read_bytes()
    assert a.files == workloads.build("demo", 2, run.FIXTURES).files


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError, match="unknown workload"):
        workloads.build("nope", 1, run.FIXTURES)


def test_gate_counts_changed_and_missing_rows():
    ref = run.PassOutput("m", {"a": ["r1", "r2"], "b": ["r3"]}, "report")
    assert run.failed_units(ref, ref, {"a": 2, "b": 1}) == 0
    changed = run.PassOutput("m", {"a": ["r1", "rX"], "b": ["r3"]}, "report")
    assert run.failed_units(changed, ref, {"a": 2, "b": 1}) == 1
    failed_cell = run.PassOutput("m", {"a": ["r1", "r2"]}, "report")
    assert run.failed_units(failed_cell, ref, {"a": 2, "b": 1}) == 1


def test_tail_has_ten_samples_beyond_or_is_p90():
    samples = [float(i) for i in range(1, 201)]
    value, label = run.tail(samples)
    assert value == pytest.approx(190.05) and sum(s > value for s in samples) == 10
    assert "200 passes" in label
    value, label = run.tail(samples[:11])
    assert value == 10.0 and label.startswith("p90.0 of 11")
    # the tail moves smoothly as passes are added, never falling to a low rank
    tails = [run.tail(samples[:n])[0] / n for n in range(3, 120)]
    assert min(tails) > 0.85


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.block() > 0


def test_scaled_cancels_host_speed():
    fast = calibrate.scaled(1.0, [0.002, 0.002])
    slow = calibrate.scaled(2.0, [0.004, 0.004, 0.004])  # same work, host half as fast
    assert fast == slow == 1.0 * calibrate.NOMINAL_S / 0.002
    assert calibrate.scaled(1.0, [0.002, 0.006]) == 1.0 * calibrate.NOMINAL_S / 0.004


def test_gap_lasts_its_share_of_the_call():
    for jobs in (1, 2):
        assert len(calibrate.gap(0.0, jobs)) == 1
        assert len(calibrate.gap(40 * calibrate.NOMINAL_S * calibrate.BLOCK_REPEATS, jobs)) > 1


def test_clock_calibrates_each_call_by_neighbouring_gaps():
    clock = run.Clock(1)
    clock.raw = [1.0, 1.0, 1.0]
    clock.gaps = [[0.001], [0.002], [0.003], [0.004]]  # gaps[i] precedes call i
    nominal = calibrate.NOMINAL_S
    assert clock.nominal(1) == pytest.approx([nominal / 0.0015, nominal / 0.0025, nominal / 0.0035])
    assert clock.nominal(2) == pytest.approx([nominal / 0.002, nominal / 0.0025, nominal / 0.003])
