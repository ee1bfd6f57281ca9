"""Budget ladders: the runner runs a ladder's largest budget once per task
and reads every smaller budget's row off that search's prefix.

A ladder must change no byte of the run directory, fail exactly where its
cells run alone would fail, and form only where a unit reads no seed.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
from dataclasses import replace

import pytest

from memsearch import matrix
from memsearch.augmentors import CompositeAugmentor
from memsearch.core import stable_hash
from memsearch.matrix import load_matrix_config, run_matrix

from conftest import FIXTURES, write_mini_config

DEMO_BENCHMARKS = json.loads((FIXTURES / "demo_config.json").read_text(encoding="utf-8"))[
    "benchmarks"
]
BUDGETS = (2, 5, 9)
# raw_sibling is inadmissible under best-of-N, which never expands siblings
LADDER_MEMORIES = {
    "best_of_n": ([], ["reflection"], ["fact"], ["fact", "reflection"]),
    "mcts": ([], ["raw_sibling"], ["reflection"], ["fact"], ["fact", "reflection"]),
}


def _benchmarks(root, n_tasks):
    """The demo benchmarks cut to their first n_tasks tasks, written under root."""
    benchmarks = {}
    for name, spec in DEMO_BENCHMARKS.items():
        raw = json.loads((FIXTURES / spec["fixtures"]).read_text(encoding="utf-8"))
        tasks = root / f"{name}.json"
        tasks.write_text(json.dumps({**raw, "tasks": raw["tasks"][:n_tasks]}))
        benchmarks[name] = {
            **{key: str(FIXTURES / path) for key, path in spec.items() if key.endswith("_script")},
            "fixtures": str(tasks),
            "discovery_tool": spec["discovery_tool"],
        }
    return benchmarks


def _search(method, budget, **extra):
    rung = "n_budget" if method == "best_of_n" else "n_iters"
    return {"method": method, rung: budget, **extra}


def _cell(bench, method, memory, budget, **extra):
    """A cell with a seed of its own, as `grid` gives each cell."""
    cell_id = f"{bench}__{method}{budget}__{'+'.join(memory) or 'none'}"
    for key, value in extra.items():
        cell_id += f"__{key}{value}"
    return {
        "id": cell_id,
        "benchmark": bench,
        "memory": memory,
        "search": _search(method, budget, **extra),
        "seed": stable_hash("ladder test", cell_id) % 1000,
    }


def _ladder_cells():
    # toy_shell is not serializable: it has no MCTS, and its ladders still
    # execute every step
    return [
        _cell(bench, method, memory, budget)
        for bench in ("toy_sql_demo", "toy_kg_demo", "toy_shell_demo")
        for method, memories in LADDER_MEMORIES.items()
        if (bench, method) != ("toy_shell_demo", "mcts")
        for memory in memories
        for budget in BUDGETS
    ]


def _tree(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _counting_searches(monkeypatch) -> list:
    """Record each search the runner starts (in this process, so use jobs 1)."""
    runs = []
    real = matrix.run_search
    monkeypatch.setattr(matrix, "run_search", lambda *a: runs.append(a) or real(*a))
    return runs


def _alone(tmp_path, name, cells, benchmarks):
    """Each cell run in a `run_matrix` call of its own, where no ladder can
    form: (its manifest entry, the files it wrote) by cell id."""
    out = {}
    for i, cell in enumerate(cells):
        root = tmp_path / f"{name}{i}"
        root.mkdir()
        cfg = load_matrix_config(write_mini_config(root, [cell], benchmarks))
        manifest = run_matrix(cfg, root / "out", jobs=1, dump_memory=True)
        out[cell["id"]] = (manifest["cells"][cell["id"]], _tree(root / "out"))
    return out


def _assert_each_cell_as_alone(tree, alone):
    """`tree`, one run of every cell, holds exactly the files and manifest
    entries that the cells run alone hold."""
    manifest = json.loads(tree["manifest.json"])
    assert manifest["cells"] == {cell_id: entry for cell_id, (entry, _) in alone.items()}
    files = {
        name: data
        for _, own in alone.values()
        for name, data in own.items()
        if name != "manifest.json"
    }
    assert {name: data for name, data in tree.items() if name != "manifest.json"} == files


def test_ladders_change_no_byte(tmp_path, monkeypatch):
    benchmarks = _benchmarks(tmp_path, n_tasks=3)
    cells = _ladder_cells()
    alone = _alone(tmp_path, "alone", cells, benchmarks)
    assert all(entry["status"] == "ok" for entry, _ in alone.values())
    runs = _counting_searches(monkeypatch)
    trees = []
    for order, ordered in (("forward", cells), ("reversed", cells[::-1])):
        (tmp_path / order).mkdir()
        cfg = load_matrix_config(write_mini_config(tmp_path / order, ordered, benchmarks))
        assert len(matrix._ladders(cfg, cfg.cells)) == len(cells) // len(BUDGETS)
        for jobs in (1, 2):
            run_matrix(cfg, tmp_path / order / f"jobs{jobs}", jobs=jobs, dump_memory=True)
            trees.append(_tree(tmp_path / order / f"jobs{jobs}"))
    # one search per (ladder, task) at jobs 1, in either order, at the top budget
    assert len(runs) == 2 * 3 * len(cells) // len(BUDGETS)
    assert {(matrix._budget(args[4]), tuple(args[8])) for args in runs} == {(9, (2, 5))}
    assert all(tree == trees[0] for tree in trees[1:])
    assert sum(name.startswith("memory/") for name in trees[0]) == 3 * len(cells)
    _assert_each_cell_as_alone(trees[0], alone)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_ladder_that_fails_mid_way_fails_as_its_cells_alone(tmp_path, monkeypatch, jobs):
    # the fifth trajectory's memory write raises: budget 2 is done by then,
    # budgets 5 and 9 fail with that error, as each does run alone
    real = CompositeAugmentor.on_trajectory

    def on_trajectory(self, traj):
        if traj.iteration_index == 4:
            raise RuntimeError("the fifth trajectory fails")
        return real(self, traj)

    monkeypatch.setattr(CompositeAugmentor, "on_trajectory", on_trajectory)
    benchmarks = _benchmarks(tmp_path, n_tasks=2)
    cells = [
        _cell("toy_sql_demo", method, memory, budget)
        for method in ("best_of_n", "mcts")
        for memory in ([], ["reflection"])
        for budget in BUDGETS
    ]
    alone = _alone(tmp_path, "alone", cells, benchmarks)
    statuses = {cell_id: entry["status"] for cell_id, (entry, _) in alone.items()}
    assert statuses == {
        c["id"]: "ok" if c["search"].get("n_budget", c["search"].get("n_iters")) < 5 else "failed"
        for c in cells
    }
    assert {entry.get("error") for entry, _ in alone.values()} == {
        None, "RuntimeError: the fifth trajectory fails"
    }
    cfg = load_matrix_config(write_mini_config(tmp_path, cells, benchmarks))
    run_matrix(cfg, tmp_path / "ladders", jobs=jobs, dump_memory=True)
    _assert_each_cell_as_alone(_tree(tmp_path / "ladders"), alone)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_row_that_fails_to_be_made_fails_only_its_own_cell(tmp_path, jobs):
    # a directory where the budget-2 cell's first memory dump goes: that row
    # fails to be made, and the search goes on to the budget-9 row
    benchmarks = _benchmarks(tmp_path, n_tasks=2)
    cells = [_cell("toy_sql_demo", "best_of_n", ["reflection"], budget) for budget in (2, 9)]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells, benchmarks))
    assert matrix._ladders(cfg, cfg.cells) == [(0, 1)]
    task = cfg.benchmarks["toy_sql_demo"].benchmark.tasks[0].task_id
    out = tmp_path / "out"  # one path for every run, so the errors name one file

    def run(run_cells):
        shutil.rmtree(out, ignore_errors=True)
        (out / "memory" / f"{cells[0]['id']}__{task}.jsonl").mkdir(parents=True)
        config = load_matrix_config(write_mini_config(tmp_path, run_cells, benchmarks))
        manifest = run_matrix(config, out, jobs=jobs, dump_memory=True)
        return manifest, _tree(out)

    alone = {}
    for cell in cells:
        manifest, tree = run([cell])
        alone[cell["id"]] = (manifest["cells"][cell["id"]], tree)
    assert [entry["status"] for entry, _ in alone.values()] == ["failed", "ok"]
    assert alone[cells[0]["id"]][0]["error"].startswith("IsADirectoryError: ")
    _assert_each_cell_as_alone(run(cells)[1], alone)


class UndeclaredPolicy:
    """A scripted policy behind a wrapper that declares no determinism."""

    def __init__(self, inner):
        self.inner = inner

    def for_unit(self, telemetry):
        return UndeclaredPolicy(self.inner.for_unit(telemetry))

    def sample(self, task, prefix, bundle, temperature, seed):
        return self.inner.sample(task, prefix, bundle, temperature, seed)


def _pair(base, **changes):
    """`base` and a copy of it at budget 9 with `changes` to its search."""
    other = {**base, "id": base["id"] + "_other"}
    rung = "n_budget" if base["search"]["method"] == "best_of_n" else "n_iters"
    other["search"] = {**base["search"], rung: 9, **changes}
    return [base, other]


NEVER_CHAINED = {
    # at temperature 0, differing only in n_iters, which beam does not read
    "beam": [_cell("toy_sql_demo", "beam", [], 2), _cell("toy_sql_demo", "beam", [], 9)],
    "best_of_n_above_temperature_0": _pair(
        _cell("toy_sql_demo", "best_of_n", [], 2, temperature=0.7)
    ),
    "undeclared_policy": _pair(_cell("toy_sql_demo", "best_of_n", [], 2)),
    "w_exp": _pair(_cell("toy_sql_demo", "mcts", [], 2), w_exp=0.5),
    "rollout_depth": _pair(_cell("toy_sql_demo", "mcts", [], 2), rollout_depth=3),
    "max_depth": _pair(_cell("toy_sql_demo", "best_of_n", [], 2), max_depth=4),
    "memory": [
        _cell("toy_sql_demo", "best_of_n", [], 2),
        _cell("toy_sql_demo", "best_of_n", ["reflection"], 9),
    ],
    "env": [_cell("toy_sql_demo", "best_of_n", [], 2), _cell("toy_kg_demo", "best_of_n", [], 9)],
}


@pytest.mark.parametrize("case", sorted(NEVER_CHAINED))
def test_cells_never_chained_run_searches_of_their_own(tmp_path, monkeypatch, case):
    cells = NEVER_CHAINED[case]
    benchmarks = _benchmarks(tmp_path, n_tasks=2)
    cfg = load_matrix_config(write_mini_config(tmp_path, cells, benchmarks))
    if case == "undeclared_policy":
        spec = cfg.benchmarks["toy_sql_demo"]
        cfg.benchmarks["toy_sql_demo"] = replace(spec, policy=UndeclaredPolicy(spec.policy))
    assert matrix._ladders(cfg, cfg.cells) == [(0,), (1,)]
    runs = _counting_searches(monkeypatch)
    manifest = run_matrix(cfg, tmp_path / "out", jobs=1)
    assert {entry["status"] for entry in manifest["cells"].values()} == {"ok"}
    assert len(runs) == 2 * 2  # each cell's own search on each task


def test_cells_that_differ_only_in_budget_share_one_search(tmp_path, monkeypatch):
    # the control for the cases above: seeds and config order do not matter
    cells = _pair(_cell("toy_sql_demo", "best_of_n", [], 2))[::-1]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells, _benchmarks(tmp_path, 2)))
    assert matrix._ladders(cfg, cfg.cells) == [(1, 0)]
    runs = _counting_searches(monkeypatch)
    run_matrix(cfg, tmp_path / "out", jobs=1)
    assert len(runs) == 2


def test_toy_shell_best_of_n_cells_that_differ_only_in_budget_share_one_search(
    tmp_path, monkeypatch
):
    # an env that is not serializable chains too: it executes every step
    cells = _pair(_cell("toy_shell_demo", "best_of_n", [], 2))
    cfg = load_matrix_config(write_mini_config(tmp_path, cells, _benchmarks(tmp_path, 2)))
    assert matrix._ladders(cfg, cfg.cells) == [(0, 1)]
    runs = _counting_searches(monkeypatch)
    manifest = run_matrix(cfg, tmp_path / "out", jobs=1)
    assert {entry["status"] for entry in manifest["cells"].values()} == {"ok"}
    assert len(runs) == 2  # one search per task


def test_a_repeated_budget_starts_a_ladder_of_its_own(tmp_path):
    base = _cell("toy_sql_demo", "mcts", [], 2)
    cells = [base, {**base, "id": "again"}, *_pair(base)[1:]]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells, _benchmarks(tmp_path, 1)))
    assert matrix._ladders(cfg, cfg.cells) == [(0, 2), (1,)]
