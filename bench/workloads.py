"""Workload generators for the memsearch benchmark.

Each generator turns a workload seed into the complete input of one matrix
run: a matrix config plus every fixture file it references, as a mapping
from relative path to bytes.  Inputs are derived in-process from the
fixtures shipped under ``src/memsearch/fixtures``; nothing here reads or
writes anything else, so the same seed always gives the same bytes.

Why each workload exists (see README.md for the layer mapping):

- ``demo``: the shipped demo config, unchanged.  Small cells, so fixed
  per-pass costs (model building, verdict writes, analysis, pool start-up)
  dominate.  It is seed-independent by design: it is the config users run.
- ``grid``: every admissible memory x method over the four shipped
  benchmarks at three budgets.  Broad coverage of search, models and envs;
  MCTS at 80 iterations is mostly replays, memory reads dominate writes.
- ``fact_heavy``: SQL tasks whose worlds are padded with filler tables, so
  fact memory grows to hundreds of units per task and the memory layer
  (write-time dedup, embedding, rendering) dominates.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

SCRIPT_KEYS = ("policy_script", "reward_script", "augmentor_script")

# memory sets in the order the demo config uses them
GRID_MEMORIES = ((), ("raw_sibling",), ("reflection",), ("fact",), ("fact", "reflection"))
GRID_BUDGETS = (5, 20, 80)
# Raising this copies every task k times under suffixed ids; the units of a
# pass grow k-fold, the cells stay the same.
GRID_TASK_COPIES = 1

FACT_HEAVY_BENCHMARK = "toy_sql_demo"
# Filler tables per task world.  Names are three pseudo-words: single-token
# names collide under the 64-dim hash embedder and collapse to a few dozen
# stored facts, three-word names are stored almost all.
FACT_HEAVY_FILLER_TABLES = 80
FILLER_WORDS_PER_NAME = 3
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    jobs: int
    files: dict[str, bytes]  # relative path -> content; "config.json" is the matrix config

    def write(self, directory: Path) -> Path:
        """Write every input file below directory; returns the config path."""
        for rel, content in self.files.items():
            path = directory / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
        return directory / "config.json"

    def digest(self) -> str:
        h = hashlib.sha256()
        for rel in sorted(self.files):
            h.update(rel.encode("utf-8") + b"\0" + self.files[rel] + b"\0")
        return h.hexdigest()


def _dump(obj: object) -> bytes:
    return (json.dumps(obj, indent=1, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


def cell_seed(seed: int, cell_id: str) -> int:
    digest = hashlib.sha256(f"{seed}\x1f{cell_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000


def _demo_config(fixtures: Path) -> dict:
    return json.loads((fixtures / "demo_config.json").read_text(encoding="utf-8"))


def _copy_scripts(fixtures: Path, benchmarks: dict, files: dict[str, bytes]) -> None:
    """Copy the scripts the benchmark specs reference, at the same relative paths."""
    for spec in benchmarks.values():
        for key in SCRIPT_KEYS:
            files[spec[key]] = (fixtures / spec[key]).read_bytes()


def demo(seed: int, fixtures: Path) -> Workload:
    files = {"config.json": (fixtures / "demo_config.json").read_bytes()}
    benchmarks = _demo_config(fixtures)["benchmarks"]
    _copy_scripts(fixtures, benchmarks, files)
    for spec in benchmarks.values():
        files[spec["fixtures"]] = (fixtures / spec["fixtures"]).read_bytes()
    return Workload("demo", seed, jobs=2, files=files)


def _copy_tasks(raw: dict, copies: int) -> dict:
    tasks = [
        {**task, "id": f"{task['id']}.{k}"} for k in range(copies) for task in raw["tasks"]
    ]
    return {**raw, "tasks": tasks}


def grid(seed: int, fixtures: Path) -> Workload:
    base = _demo_config(fixtures)
    benchmarks = base["benchmarks"]
    files: dict[str, bytes] = {}
    _copy_scripts(fixtures, benchmarks, files)
    for spec in benchmarks.values():
        raw = json.loads((fixtures / spec["fixtures"]).read_text(encoding="utf-8"))
        files[spec["fixtures"]] = _dump(_copy_tasks(raw, GRID_TASK_COPIES))

    searches = []
    for n in GRID_BUDGETS:
        searches.append((f"best_of_n{n}", {"method": "best_of_n", "n_budget": n}))
        searches.append((f"mcts{n}", {"method": "mcts", "n_iters": n, "n_actions": 3}))
    searches.append(
        ("beam", {"method": "beam", "beam_width": 3, "n_actions": 3, "temperature": 0.7})
    )
    cells = []
    for bench in sorted(benchmarks):
        for tag, search in searches:
            for memory in GRID_MEMORIES:
                cell_id = f"{bench}__{tag}__{'+'.join(memory) or 'none'}"
                cells.append(
                    {
                        "id": cell_id,
                        "benchmark": bench,
                        "memory": list(memory),
                        "search": search,
                        "seed": cell_seed(seed, cell_id),
                    }
                )
    config = {**base, "cells": cells}
    files["config.json"] = _dump(config)
    return Workload("grid", seed, jobs=2, files=files)


def filler_names(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """count distinct multi-word table names made of seeded pseudo-words."""
    names: list[str] = []
    seen = set(taken)
    while len(names) < count:
        words = [
            "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3)))
            for _ in range(FILLER_WORDS_PER_NAME)
        ]
        name = " ".join(words)
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def fact_heavy(seed: int, fixtures: Path) -> Workload:
    base = _demo_config(fixtures)
    benchmarks = {FACT_HEAVY_BENCHMARK: base["benchmarks"][FACT_HEAVY_BENCHMARK]}
    files: dict[str, bytes] = {}
    _copy_scripts(fixtures, benchmarks, files)

    spec = benchmarks[FACT_HEAVY_BENCHMARK]
    raw = json.loads((fixtures / spec["fixtures"]).read_text(encoding="utf-8"))
    rng = random.Random(seed)
    for task in raw["tasks"]:
        tables = task["world"]["tables"]
        fillers = filler_names(rng, FACT_HEAVY_FILLER_TABLES, set(tables))
        padded = {name: {"columns": ["Id"], "rows": [["1"]]} for name in fillers}
        # real tables sit at seeded positions among the fillers
        order = list(tables) + fillers
        rng.shuffle(order)
        task["world"]["tables"] = {name: tables.get(name) or padded[name] for name in order}
    files[spec["fixtures"]] = _dump(raw)

    cells = []
    for tag, search in (
        ("best_of_n", {"method": "best_of_n", "n_budget": 5}),
        ("mcts", {"method": "mcts", "n_iters": 5, "n_actions": 3}),
    ):
        for memory in ((), ("fact",)):
            cell_id = f"{FACT_HEAVY_BENCHMARK}__{tag}__{'+'.join(memory) or 'none'}"
            cells.append(
                {
                    "id": cell_id,
                    "benchmark": FACT_HEAVY_BENCHMARK,
                    "memory": list(memory),
                    "search": search,
                    "seed": cell_seed(seed, cell_id),
                }
            )
    config = {**base, "benchmarks": benchmarks, "cells": cells}
    files["config.json"] = _dump(config)
    return Workload("fact_heavy", seed, jobs=1, files=files)


GENERATORS = {"demo": demo, "grid": grid, "fact_heavy": fact_heavy}


def build(name: str, seed: int, fixtures: Path) -> Workload:
    try:
        generator = GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}") from None
    return generator(seed, fixtures)
