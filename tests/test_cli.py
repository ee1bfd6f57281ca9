from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from memsearch import matrix
from memsearch.cli import main

from conftest import write_mini_config


def _cells(method="best_of_n", memory=None, extra=None):
    cell = {
        "id": f"toy_sql_demo__{method}__{'+'.join(memory) if memory else 'none'}",
        "benchmark": "toy_sql_demo",
        "memory": memory or [],
        "search": dict({"method": method}, **(extra or {})),
        "seed": 5,
    }
    if method == "best_of_n":
        cell["search"].setdefault("n_budget", 2)
    return [cell]


def test_validate_all_admissible(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells())
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "toy_sql_demo__best_of_n__none: admissible" in out


def test_validate_flags_inadmissible_cells(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells(memory=["raw_sibling"]))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "inadmissible (cross_sibling_needs_expansion)" in out


def test_validate_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["run"]) == 2  # --out and config are required
    assert main([]) == 2
    capsys.readouterr()


def test_run_then_analyze_roundtrip(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells(memory=["fact"]) + _cells())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "toy_sql_demo__best_of_n__fact: ok (10 tasks)" in printed
    assert (out / "manifest.json").exists()

    report_path = tmp_path / "report.txt"
    json_path = tmp_path / "analysis.json"
    code = main(
        [
            "analyze",
            str(out),
            "--report-out",
            str(report_path),
            "--json-out",
            str(json_path),
        ]
    )
    assert code == 0
    report = capsys.readouterr().out
    assert "EXPERIMENT MATRIX" in report
    assert report_path.read_text() == report
    analysis = json.loads(json_path.read_text())
    assert analysis["cells"]["toy_sql_demo__best_of_n__fact"]["accuracy"] == 1.0
    assert analysis["baseline"] == "none"


def test_run_rejects_bad_jobs(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells())
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--jobs", "0"]) == 2
    capsys.readouterr()


def test_run_with_a_dead_worker_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    path = write_mini_config(tmp_path, _cells())
    out = tmp_path / "out"
    parent, real_run_unit = os.getpid(), matrix._run_unit

    def dying(cfg, embedder, cells, dump_dir, unit):
        if os.getpid() != parent:
            os._exit(3)
        return real_run_unit(cfg, embedder, cells, dump_dir, unit)

    monkeypatch.setattr(matrix, "_run_unit", dying)
    assert main(["run", str(path), "--out", str(out), "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: a worker process exited with code 3"]
    assert multiprocessing.active_children() == []
    # no manifest, so the stopped run is refused rather than misread
    assert main(["analyze", str(out)]) == 1
    assert "manifest.json" in capsys.readouterr().err


def test_analyze_missing_dir_exits_1(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nowhere")]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_unknown_format_version_exits_1_with_one_line(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["format_version"] = 2
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {out / 'manifest.json'}: format_version 2 is not supported (supported: 1)"
    ]


@pytest.mark.parametrize(
    "name, size",
    [("manifest.json", 200), ("toy_sql_demo__best_of_n__none.jsonl", 100)],
    ids=["manifest", "verdicts"],
)
def test_analyze_torn_file_exits_1_with_one_line(tmp_path, capsys, name, size):
    path = write_mini_config(tmp_path, _cells())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    torn = out / name
    torn.write_bytes(torn.read_bytes()[:size])
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {torn}: not readable JSON at line ")


def test_analyze_unvouched_verdict_rows_exit_1_with_one_line(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    verdicts = out / "toy_sql_demo__best_of_n__none.jsonl"
    verdicts.write_text("".join(verdicts.read_text().splitlines(keepends=True)[:2]))
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {verdicts}: manifest entry expects 10 rows, one per task of cell "
        "toy_sql_demo__best_of_n__none; found 2 rows covering 2 task(s) of that cell"
    ]


def test_run_with_a_failed_cell_exits_1_counting_the_failures(tmp_path, capsys, monkeypatch):
    path = write_mini_config(tmp_path, _cells() + _cells(memory=["fact"]))

    def failing(cfg, embedder, cell, task, dump_dir):
        raise ValueError("this task fails")

    monkeypatch.setattr(matrix, "_run_cell_task", failing)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "toy_sql_demo__best_of_n__none: failed (ValueError: this task fails)" in captured.out
    assert captured.err.splitlines() == [
        "error: 2 cell(s) failed; the manifest lists each with its error"
    ]


def test_analyze_selected_rule_and_q(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells() + _cells(memory=["reflection"]))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert main(["analyze", str(out), "--rule", "selected", "--q", "0.1"]) == 0
    report = capsys.readouterr().out
    assert "rule=selected" in report


@pytest.mark.parametrize("q", ["0", "-1", "2", "nan"])
def test_analyze_rejects_q_outside_unit_interval(tmp_path, capsys, q):
    # refused before the run directory is read: a missing one would exit 1
    assert main(["analyze", str(tmp_path / "nowhere"), "--q", q]) == 2
    assert "--q must lie in (0, 1]" in capsys.readouterr().err
