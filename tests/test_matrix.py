from __future__ import annotations

import json

import pytest

from memsearch import matrix
from memsearch.augmentors import AugmentorConfig, AugmentorKind
from memsearch.core import Telemetry
from memsearch.matrix import (
    GLYPH_NON_SERIALIZABLE,
    GLYPH_STRUCTURAL,
    AdmissibilityReason,
    BenchmarkSpec,
    ExperimentCell,
    MatrixConfigError,
    _build_models,
    check_admissible,
    load_matrix_config,
    memory_label,
    run_matrix,
    task_seed,
)
from memsearch.models import ConfigurationError
from memsearch.search import SearchConfig, SearchMethod

from conftest import write_mini_config


def _cell(memory=(), method=SearchMethod.BEST_OF_N, env="toy_sql"):
    return ExperimentCell(
        cell_id="c",
        benchmark="b",
        env=env,
        memory=tuple(AugmentorConfig(k) for k in memory),
        search=SearchConfig(method=method),
        seed=0,
    )


def test_memory_label_sorts_kinds():
    assert memory_label(()) == "none"
    assert memory_label((AugmentorConfig(AugmentorKind.NONE),)) == "none"
    both = (AugmentorConfig(AugmentorKind.REFLECTION), AugmentorConfig(AugmentorKind.FACT))
    assert memory_label(both) == "fact+reflection"


def test_admissibility_duplicate_augmentor():
    cell = _cell((AugmentorKind.FACT, AugmentorKind.FACT))
    adm = check_admissible(cell)
    assert not adm.admissible
    assert adm.reason is AdmissibilityReason.DUPLICATE_AUGMENTOR
    assert adm.glyph == GLYPH_STRUCTURAL


def test_admissibility_unknown_env():
    adm = check_admissible(_cell(env="postgres"))
    assert adm.reason is AdmissibilityReason.UNKNOWN_ENV


def test_admissibility_non_serializable_blocks_expansion_methods():
    for method in (SearchMethod.BEAM, SearchMethod.MCTS):
        adm = check_admissible(_cell(method=method, env="scripted_shell"))
        assert not adm.admissible
        assert adm.reason is AdmissibilityReason.NON_SERIALIZABLE
        assert adm.glyph == GLYPH_NON_SERIALIZABLE
    assert check_admissible(_cell(env="scripted_shell")).admissible


def test_admissibility_raw_sibling_needs_expansion():
    adm = check_admissible(_cell((AugmentorKind.RAW_SIBLING,)))
    assert adm.reason is AdmissibilityReason.CROSS_SIBLING_NEEDS_EXPANSION
    assert adm.glyph == GLYPH_STRUCTURAL
    assert check_admissible(_cell((AugmentorKind.RAW_SIBLING,), SearchMethod.BEAM)).admissible
    assert check_admissible(_cell((AugmentorKind.RAW_SIBLING,), SearchMethod.MCTS)).admissible


def test_admissibility_cross_trajectory_blocked_on_beam():
    for kind in (AugmentorKind.REFLECTION, AugmentorKind.FACT):
        adm = check_admissible(_cell((kind,), SearchMethod.BEAM))
        assert adm.reason is AdmissibilityReason.CROSS_TRAJECTORY_NEEDS_ITERATIONS
        assert check_admissible(_cell((kind,), SearchMethod.MCTS)).admissible
        assert check_admissible(_cell((kind,), SearchMethod.BEST_OF_N)).admissible


def test_task_seed_is_per_task_stable():
    a = task_seed(11, "sql-001")
    assert a == task_seed(11, "sql-001")
    assert a != task_seed(11, "sql-002")
    assert a != task_seed(12, "sql-001")


def test_load_matrix_config_reports_json_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cells": [,]}')
    with pytest.raises(MatrixConfigError, match=r"bad\.json:1:\d+"):
        load_matrix_config(bad)
    with pytest.raises(MatrixConfigError):
        load_matrix_config(tmp_path / "missing.json")


def test_load_matrix_config_validates_cells(tmp_path, fixtures_dir):
    def attempt(cells):
        path = write_mini_config(tmp_path, cells)
        return load_matrix_config(path)

    base = {
        "id": "a",
        "benchmark": "toy_sql_demo",
        "memory": [],
        "search": {"method": "best_of_n"},
        "seed": 1,
    }
    cfg = attempt([base])
    assert cfg.cells[0].env == "toy_sql"
    assert cfg.cells[0].search.method is SearchMethod.BEST_OF_N

    with pytest.raises(MatrixConfigError, match="duplicate cell id"):
        attempt([base, base])
    with pytest.raises(MatrixConfigError, match="unusable cell id"):
        attempt([dict(base, id="has space")])
    with pytest.raises(MatrixConfigError, match="unknown benchmark"):
        attempt([dict(base, benchmark="nope")])
    with pytest.raises(MatrixConfigError, match="unknown memory kind"):
        attempt([dict(base, memory=["episodic"])])
    with pytest.raises(MatrixConfigError, match="unknown search keys"):
        attempt([dict(base, search={"method": "best_of_n", "depth": 3})])
    with pytest.raises(MatrixConfigError, match="bad search config"):
        attempt([dict(base, search={"method": "dfs"})])
    with pytest.raises(MatrixConfigError, match="no cells"):
        attempt([])


def test_load_matrix_config_checks_benchmark_identity(tmp_path, fixtures_dir):
    benchmarks = {
        "renamed": {
            "fixtures": str(fixtures_dir / "tasks" / "toy_sql_demo.json"),
            "policy_script": str(fixtures_dir / "scripts" / "toy_sql_policy.json"),
            "reward_script": str(fixtures_dir / "scripts" / "toy_sql_reward.json"),
            "augmentor_script": str(fixtures_dir / "scripts" / "toy_sql_augmentor.json"),
        }
    }
    cells = [{"id": "a", "benchmark": "renamed", "search": {"method": "best_of_n"}}]
    path = write_mini_config(tmp_path, cells, benchmarks)
    with pytest.raises(MatrixConfigError, match="declares benchmark"):
        load_matrix_config(path)


def test_build_models_remote_requires_credentials(fixtures_dir, monkeypatch):
    from memsearch.envs import load_benchmark

    bench = load_benchmark(fixtures_dir / "tasks" / "toy_sql_demo.json")
    spec = BenchmarkSpec(
        benchmark=bench,
        policy_raw={"kind": "remote", "url": "http://localhost/v1", "model": "m"},
        reward_raw={},
        augmentor_raw={},
        discovery_tool=None,
    )
    monkeypatch.delenv("MEMSEARCH_API_KEY", raising=False)
    with pytest.raises(ConfigurationError, match="MEMSEARCH_API_KEY"):
        _build_models(spec, 64, Telemetry())
    monkeypatch.setenv("MEMSEARCH_API_KEY", "k")
    policy, prm, aug, emb = _build_models(spec, 64, Telemetry())
    assert policy.client.config.api_key == "k"


def test_run_matrix_mini_run(tmp_path):
    cells = [
        {
            "id": "sql__bon__none",
            "benchmark": "toy_sql_demo",
            "memory": [],
            "search": {"method": "best_of_n", "n_budget": 2},
            "seed": 11,
        },
        {
            "id": "sql__bon__raw_sibling",
            "benchmark": "toy_sql_demo",
            "memory": ["raw_sibling"],
            "search": {"method": "best_of_n", "n_budget": 2},
            "seed": 11,
        },
    ]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells))
    out = tmp_path / "out"
    manifest = run_matrix(cfg, out, dump_memory=True)

    ok = manifest["cells"]["sql__bon__none"]
    assert ok["status"] == "ok"
    assert ok["n_tasks"] == 10
    rows = [
        json.loads(line)
        for line in (out / ok["verdict_file"]).read_text().splitlines()
    ]
    assert [r["task_id"] for r in rows] == sorted(r["task_id"] for r in rows)
    row = rows[0]
    assert set(row) >= {
        "task_id",
        "cell_id",
        "verdicts",
        "selected_verdict",
        "final_answer",
        "trajectory_lengths",
        "terminal_kinds",
        "discovery_skipped",
        "telemetry",
        "giveup",
    }
    assert len(row["verdicts"]) == 2
    assert (out / "memory" / "sql__bon__none__sql-001.jsonl").exists()

    refused = manifest["cells"]["sql__bon__raw_sibling"]
    assert refused["status"] == "inadmissible"
    assert refused["reason"] == "cross_sibling_needs_expansion"
    assert refused["glyph"] == GLYPH_STRUCTURAL
    assert not (out / "sql__bon__raw_sibling.jsonl").exists()

    assert manifest["format_version"] == 1
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk == manifest


def test_run_matrix_isolates_failing_cells(tmp_path, fixtures_dir):
    # a policy script with an unknown placeholder fails at sample time
    broken = tmp_path / "broken_policy.json"
    broken.write_text(
        json.dumps({"rules": [{"step": 0, "candidates": {"QUERY|{missing_key}": 1.0}}]})
    )
    benchmarks = {
        "toy_sql_demo": {
            "fixtures": str(fixtures_dir / "tasks" / "toy_sql_demo.json"),
            "policy_script": str(broken),
            "reward_script": str(fixtures_dir / "scripts" / "toy_sql_reward.json"),
            "augmentor_script": str(fixtures_dir / "scripts" / "toy_sql_augmentor.json"),
        },
        "toy_kg_demo": {
            "fixtures": str(fixtures_dir / "tasks" / "toy_kg_demo.json"),
            "policy_script": str(fixtures_dir / "scripts" / "toy_kg_policy.json"),
            "reward_script": str(fixtures_dir / "scripts" / "toy_kg_reward.json"),
            "augmentor_script": str(fixtures_dir / "scripts" / "toy_kg_augmentor.json"),
        },
    }
    cells = [
        {"id": "bad", "benchmark": "toy_sql_demo", "search": {"method": "best_of_n", "n_budget": 1}},
        {"id": "good", "benchmark": "toy_kg_demo", "search": {"method": "best_of_n", "n_budget": 1}},
    ]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells, benchmarks))
    manifest = run_matrix(cfg, tmp_path / "out")
    assert manifest["cells"]["bad"]["status"] == "failed"
    assert "ConfigurationError" in manifest["cells"]["bad"]["error"]
    assert manifest["cells"]["good"]["status"] == "ok"


def test_run_matrix_parallel_matches_serial(tmp_path):
    cells = [
        {
            "id": "sql__bon__fact",
            "benchmark": "toy_sql_demo",
            "memory": ["fact"],
            "search": {"method": "best_of_n", "n_budget": 3},
            "seed": 7,
        }
    ]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells))
    run_matrix(cfg, tmp_path / "serial", jobs=1)
    run_matrix(cfg, tmp_path / "parallel", jobs=4)
    for name in ("manifest.json", "sql__bon__fact.jsonl"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "parallel" / name
        ).read_bytes()


def test_run_matrix_dump_memory_writes_the_stores_used(tmp_path, monkeypatch):
    cells = [
        {
            "id": f"sql__bon__{kind}",
            "benchmark": "toy_sql_demo",
            "memory": [kind],
            "search": {"method": "best_of_n", "n_budget": 3},
            "seed": 5,
        }
        for kind in ("fact", "reflection")
    ]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells))
    stores = []
    real_compose = matrix.compose

    def recording_compose(*args, **kwargs):
        composite = real_compose(*args, **kwargs)
        stores.append(composite.store)
        return composite

    monkeypatch.setattr(matrix, "compose", recording_compose)
    run_matrix(cfg, tmp_path / "out", dump_memory=True)

    tasks = cfg.benchmarks["toy_sql_demo"].benchmark.tasks
    dumps = [
        (tmp_path / "out" / "memory" / f"{cell.cell_id}__{task.task_id}.jsonl")
        .read_text()
        .splitlines()
        for cell in cfg.cells
        for task in tasks
    ]
    assert [len(lines) for lines in dumps] == [len(store) for store in stores]
    fact_dumps, reflection_dumps = dumps[:len(tasks)], dumps[len(tasks):]
    assert all(fact_dumps)
    assert any(reflection_dumps)
    assert {json.loads(line)["abstraction"] for lines in fact_dumps for line in lines} == {"fact"}
    assert {json.loads(line)["abstraction"] for lines in reflection_dumps for line in lines} == {
        "reflection"
    }
