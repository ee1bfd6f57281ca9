"""Experiment matrix: admissibility checks and the cell runner.

A cell is one (memory, search method, benchmark) combination with a seed.
Structurally impossible cells are refused before any model call, with a
machine-readable reason: sibling memory needs sibling expansion (absent in
best-of-N), cross-trajectory memory needs multiple iterations (absent in
single-round beam), and expansion-based methods need a forkable
environment.  Each admissible cell writes one verdict file; a run manifest
ties the outputs together.  Outputs carry no timestamps and are
byte-identical across runs with identical inputs.
"""

from __future__ import annotations

import copy
import json
import logging
import os
import re
import sys
from contextlib import closing
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Iterator

from .augmentors import (
    AugmentorConfig,
    AugmentorKind,
    compose,
    normalize_for_method,
)
from .core import PricingTable, Task, Telemetry, is_int, stable_hash
from .envs import ENV_CLASSES, Benchmark, load_benchmark
from .models import (
    MIN_EMBED_DIM,
    ConfigurationError,
    HashEmbedder,
    RemoteChatClient,
    RemoteChatConfig,
    RemotePolicy,
    ScriptedAugmentorModel,
    ScriptedPolicy,
    ScriptedPolicyConfig,
    ScriptedRewardModel,
)
from .search import BackpropMode, ExpansionMode, SearchConfig, SearchMethod, run_search
from .stats import FORMAT_VERSION

log = logging.getLogger(__name__)

# first wait of a remote policy's 429/503/transport retry; it doubles per retry
RETRY_DELAY_S = 1.0

GLYPH_NON_SERIALIZABLE = "---"
GLYPH_STRUCTURAL = "∅"  # empty-set sign


class MatrixConfigError(Exception):
    """The experiment config file is malformed; carries a location hint."""


class AdmissibilityReason(str, Enum):
    OK = "ok"
    DUPLICATE_AUGMENTOR = "duplicate_augmentor"
    UNKNOWN_ENV = "unknown_env"
    NON_SERIALIZABLE = "non_serializable"
    CROSS_SIBLING_NEEDS_EXPANSION = "cross_sibling_needs_expansion"
    CROSS_TRAJECTORY_NEEDS_ITERATIONS = "cross_trajectory_needs_iterations"


@dataclass(frozen=True)
class Admissibility:
    reason: AdmissibilityReason

    @property
    def admissible(self) -> bool:
        return self.reason is AdmissibilityReason.OK

    @property
    def glyph(self) -> str:
        if self.admissible:
            return ""
        if self.reason is AdmissibilityReason.NON_SERIALIZABLE:
            return GLYPH_NON_SERIALIZABLE
        return GLYPH_STRUCTURAL


@dataclass(frozen=True)
class ExperimentCell:
    cell_id: str
    benchmark: str
    env: str
    memory: tuple[AugmentorConfig, ...]
    search: SearchConfig
    seed: int


def memory_label(memory: tuple[AugmentorConfig, ...]) -> str:
    kinds = sorted(c.kind.value for c in memory if c.kind is not AugmentorKind.NONE)
    return "+".join(kinds) if kinds else "none"


def check_admissible(cell: ExperimentCell) -> Admissibility:
    """Decide whether a cell can run at all.  Never raises."""
    kinds = [c.kind for c in cell.memory if c.kind is not AugmentorKind.NONE]
    if len(set(kinds)) != len(kinds):
        return Admissibility(AdmissibilityReason.DUPLICATE_AUGMENTOR)
    env_cls = ENV_CLASSES.get(cell.env)
    if env_cls is None:
        return Admissibility(AdmissibilityReason.UNKNOWN_ENV)
    method = cell.search.method
    if method in (SearchMethod.BEAM, SearchMethod.MCTS) and not env_cls.serializable:
        return Admissibility(AdmissibilityReason.NON_SERIALIZABLE)
    if AugmentorKind.RAW_SIBLING in kinds and method is SearchMethod.BEST_OF_N:
        # sibling context only exists when a node expands multiple candidates
        return Admissibility(AdmissibilityReason.CROSS_SIBLING_NEEDS_EXPANSION)
    if method is SearchMethod.BEAM and (
        AugmentorKind.REFLECTION in kinds or AugmentorKind.FACT in kinds
    ):
        # a single round never revisits the task, so nothing persists into a
        # later trajectory
        return Admissibility(AdmissibilityReason.CROSS_TRAJECTORY_NEEDS_ITERATIONS)
    return Admissibility(AdmissibilityReason.OK)


# ---------------------------------------------------------------------------
# config loading


_MEMORY_KINDS = {k.value: k for k in AugmentorKind}
_CELL_ID = re.compile(r"^[A-Za-z0-9_+.\-]+$")


@dataclass(frozen=True)
class RemotePolicySpec:
    """A remote policy endpoint; its API key is read from `api_key_env` when a unit runs."""

    chat: RemoteChatConfig
    api_key_env: str


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark with its scripts parsed once, at load.  The models bill no
    telemetry; `_build_models` gives each unit copies that bill its own."""

    benchmark: Benchmark
    policy: ScriptedPolicy | RemotePolicySpec
    reward: ScriptedRewardModel
    augmentor: ScriptedAugmentorModel
    discovery_tool: str | None


@dataclass(frozen=True)
class MatrixConfig:
    benchmarks: dict[str, BenchmarkSpec]
    cells: tuple[ExperimentCell, ...]
    embedder_dim: int
    pricing: PricingTable


def _shaped(value, shape: type, where: str):
    """`value`, if it is a JSON object (shape dict) or array (shape list)."""
    if not isinstance(value, shape):
        kind = "an object" if shape is dict else "an array"
        raise MatrixConfigError(f"{where} must be {kind}, got {type(value).__name__}")
    return value


def _parse_memory(raw, where: str) -> tuple[AugmentorConfig, ...]:
    configs = []
    for entry in _shaped(raw, list, f"{where}: memory"):
        if isinstance(entry, str):
            entry = {"kind": entry}
        if not isinstance(entry, dict):
            raise MatrixConfigError(f"{where}: memory entry {entry!r} is no kind name or object")
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in _MEMORY_KINDS:
            raise MatrixConfigError(f"{where}: unknown memory kind {kind!r}")
        try:
            kwargs = {
                key: entry[key]
                for key in ("reflection_threshold", "dedup_threshold")
                if key in entry
            }
            configs.append(AugmentorConfig(kind=_MEMORY_KINDS[kind], **kwargs))
        except (TypeError, ValueError) as exc:
            raise MatrixConfigError(f"{where}: bad {kind} memory config: {exc}") from exc
    return tuple(configs)


# expansion is no key: _run_cell_task derives it from the cell's memory
_SEARCH_KEYS = {f.name for f in fields(SearchConfig)} - {"expansion"}


def _parse_search(raw: dict, where: str) -> SearchConfig:
    unknown = set(_shaped(raw, dict, f"{where}: search")) - _SEARCH_KEYS
    if unknown:
        raise MatrixConfigError(f"{where}: unknown search keys {sorted(unknown)}")
    try:
        kwargs = dict(raw)
        kwargs["method"] = SearchMethod(raw["method"])
        if "backprop" in kwargs:
            kwargs["backprop"] = BackpropMode(kwargs["backprop"])
        return SearchConfig(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixConfigError(f"{where}: bad search config: {exc}") from exc


def _parse_policy(raw: dict) -> ScriptedPolicy | RemotePolicySpec:
    if raw.get("kind", "scripted") != "remote":
        return ScriptedPolicy(ScriptedPolicyConfig.from_dict(raw))
    url, model = raw["url"], raw["model"]
    key_env, retries = raw.get("api_key_env", "MEMSEARCH_API_KEY"), raw.get("max_retries", 3)
    if not all(isinstance(v, str) for v in (url, model, key_env)):
        raise ConfigurationError("remote policy url, model and api_key_env must be strings")
    if not is_int(retries) or retries < 1:
        raise ConfigurationError(f"max_retries must be an integer >= 1, got {retries!r}")
    chat = RemoteChatConfig(
        url=url, model=model, role="policy", max_retries=retries, retry_delay=RETRY_DELAY_S
    )
    return RemotePolicySpec(chat, key_env)


# what reading or parsing a malformed script raises (JSONDecodeError is a ValueError)
_SCRIPT_ERRORS = (
    AttributeError, ConfigurationError, KeyError, OSError, TypeError, ValueError, re.error
)


def _load_script(base: Path, spec: dict, key: str, where: str, parse):
    """Read one of a benchmark's scripts and `parse` it; any fault in it is a config error."""
    try:
        script = base / spec[key]
        raw = _shaped(json.loads(script.read_text(encoding="utf-8")), dict, f"{where}: {script}")
        return parse(raw)
    except _SCRIPT_ERRORS as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise MatrixConfigError(f"{where}: {key}: {detail}") from exc


def load_matrix_config(path: str | Path) -> MatrixConfig:
    """Parse an experiment config file; paths inside resolve relative to it."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise MatrixConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc

    base = path.parent
    raw = _shaped(raw, dict, f"{path}: the config")
    benchmarks: dict[str, BenchmarkSpec] = {}
    for name, spec in _shaped(raw.get("benchmarks", {}), dict, f"{path}: benchmarks").items():
        where = f"{path}: benchmark '{name}'"
        spec = _shaped(spec, dict, where)
        try:
            bench = load_benchmark(base / spec["fixtures"])
        except (KeyError, OSError, TypeError, ValueError) as exc:
            raise MatrixConfigError(f"{where}: {exc}") from exc
        if bench.benchmark_id != name:
            raise MatrixConfigError(
                f"{where}: fixture file declares benchmark '{bench.benchmark_id}'"
            )
        discovery_tool = spec.get("discovery_tool")
        tools = sorted({tool for task in bench.tasks for tool in task.tools})
        if discovery_tool is not None and (
            not isinstance(discovery_tool, str) or discovery_tool not in tools
        ):
            raise MatrixConfigError(
                f"{where}: discovery_tool {discovery_tool!r} is none of the fixture's tools {tools}"
            )
        benchmarks[name] = BenchmarkSpec(
            benchmark=bench,
            policy=_load_script(base, spec, "policy_script", where, _parse_policy),
            reward=_load_script(base, spec, "reward_script", where, ScriptedRewardModel.from_dict),
            augmentor=_load_script(
                base, spec, "augmentor_script", where, ScriptedAugmentorModel.from_dict
            ),
            discovery_tool=discovery_tool,
        )

    cells: list[ExperimentCell] = []
    seen: set[str] = set()
    for i, entry in enumerate(_shaped(raw.get("cells", []), list, f"{path}: cells")):
        where = f"{path}: cells[{i}]"
        cell_id = _shaped(entry, dict, where).get("id")
        if not isinstance(cell_id, str) or not _CELL_ID.match(cell_id):
            raise MatrixConfigError(f"{where}: missing or unusable cell id {cell_id!r}")
        if cell_id in seen:
            raise MatrixConfigError(f"{where}: duplicate cell id '{cell_id}'")
        seen.add(cell_id)
        bench_name = entry.get("benchmark")
        if not isinstance(bench_name, str) or bench_name not in benchmarks:
            raise MatrixConfigError(f"{where}: unknown benchmark {bench_name!r}")
        seed = entry.get("seed", 0)
        if not is_int(seed):
            raise MatrixConfigError(f"{where}: bad seed {seed!r}")
        cells.append(
            ExperimentCell(
                cell_id=cell_id,
                benchmark=bench_name,
                env=benchmarks[bench_name].benchmark.env_id,
                memory=_parse_memory(entry.get("memory", []), where),
                search=_parse_search(entry.get("search", {}), where),
                seed=seed,
            )
        )

    if not cells:
        raise MatrixConfigError(f"{path}: config defines no cells")
    dim = raw.get("embedder_dim", 64)
    if not is_int(dim) or dim < MIN_EMBED_DIM:
        raise MatrixConfigError(
            f"{path}: embedder_dim must be an integer >= {MIN_EMBED_DIM}, got {dim!r}"
        )
    try:
        pricing = PricingTable(**raw.get("pricing", {}))
    except (TypeError, ValueError) as exc:
        raise MatrixConfigError(f"{path}: bad pricing: {exc}") from exc
    return MatrixConfig(benchmarks, tuple(cells), embedder_dim=dim, pricing=pricing)


# ---------------------------------------------------------------------------
# execution


def task_seed(cell_seed: int, task_id: str) -> int:
    """Stable per-task sub-seed: adding or removing one task never changes
    the draws any other task sees."""
    return stable_hash("task_seed", cell_seed, task_id)


def _with_telemetry(model, telemetry: Telemetry):
    """A shallow copy of a parsed scripted model that bills `telemetry`."""
    model = copy.copy(model)
    model.telemetry = telemetry
    return model


def _build_models(spec: BenchmarkSpec, telemetry: Telemetry):
    if isinstance(spec.policy, RemotePolicySpec):
        key_env = spec.policy.api_key_env
        api_key = os.environ.get(key_env)
        if not api_key:
            raise ConfigurationError(
                f"remote policy requires credentials in the '{key_env}' environment variable"
            )
        policy = RemotePolicy(
            RemoteChatClient(replace(spec.policy.chat, api_key=api_key), telemetry)
        )
    else:
        policy = _with_telemetry(spec.policy, telemetry)
    prm = _with_telemetry(spec.reward, telemetry)
    aug_model = _with_telemetry(spec.augmentor, telemetry)
    return policy, prm, aug_model


def _run_cell_task(
    cfg: MatrixConfig,
    embedder: HashEmbedder,
    cell: ExperimentCell,
    task: Task,
    dump_dir: Path | None,
) -> dict:
    spec = cfg.benchmarks[cell.benchmark]
    telemetry = Telemetry()
    policy, prm, aug_model = _build_models(spec, telemetry)
    env = spec.benchmark.make_env()
    memory = normalize_for_method(cell.memory, cell.search.method.value)
    composite = compose(memory, model=aug_model, embedder=embedder)
    # the memory alone decides the expansion, so the memory label says what prompts carried
    interleaved = composite.wants_siblings and cell.search.method is not SearchMethod.BEST_OF_N
    expansion = ExpansionMode.INTERLEAVED if interleaved else ExpansionMode.BATCH
    search_cfg = replace(cell.search, expansion=expansion)

    seed = task_seed(cell.seed, task.task_id)
    record = run_search(task, env, policy, composite, search_cfg, seed=seed, prm=prm)

    grader = spec.benchmark.grader()  # grading happens offline, after the search
    if search_cfg.method is SearchMethod.BEAM:
        skip_src = [record.selected] if record.selected else list(record.trajectories[:1])
        verdicts = [grader.grade(task.task_id, record.final_answer)]
        lengths = [len(t.steps) for t in skip_src]
    else:
        verdicts = [grader.grade(task.task_id, t.answer()) for t in record.trajectories]
        lengths = [len(t.steps) for t in record.trajectories]
        skip_src = list(record.trajectories)

    if spec.discovery_tool is None:
        discovery_skipped = None
    else:
        discovery_skipped = [
            spec.discovery_tool not in {s.action.tool_name for s in t.steps} for t in skip_src
        ]

    if dump_dir is not None:
        composite.store.dump(dump_dir / f"{cell.cell_id}__{task.task_id}.jsonl")

    return {
        "task_id": task.task_id,
        "cell_id": cell.cell_id,
        "verdicts": verdicts,
        "selected_verdict": grader.grade(task.task_id, record.final_answer),
        "final_answer": record.final_answer,
        "trajectory_lengths": lengths,
        "terminal_kinds": [t.terminal_kind.value for t in record.trajectories],
        "discovery_skipped": discovery_skipped,
        "telemetry": asdict(telemetry),
        "giveup": asdict(record.giveup) if record.giveup else None,
    }


def _atomic_write(path: Path, content: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)


# a unit's task id and its verdict file line
_Row = tuple[str, str]


def _run_unit(
    cfg: MatrixConfig,
    embedder: HashEmbedder,
    cells: tuple[ExperimentCell, ...],
    dump_dir: Path | None,
    unit: tuple[int, int],
) -> _Row | str:
    """One (cell index, task index) unit: its task id and verdict line, or
    its error as a string.  Both are made here, on the worker that ran the
    unit, so no exception object has to cross a process and the runner only
    joins lines."""
    cell_index, task_index = unit
    cell = cells[cell_index]
    task = cfg.benchmarks[cell.benchmark].benchmark.tasks[task_index]
    try:
        row = _run_cell_task(cfg, embedder, cell, task, dump_dir)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return f"{type(exc).__name__}: {exc}"
    return row["task_id"], json.dumps(row, sort_keys=True) + "\n"


class WorkerError(RuntimeError):
    """A worker process died, or a unit's result came back twice or never."""


def _work(
    conn,
    counter,
    cfg: MatrixConfig,
    embedder: HashEmbedder,
    cells: tuple[ExperimentCell, ...],
    dump_dir: Path | None,
    units: list[tuple[int, int]],
) -> None:
    """A worker's loop: run unit after unit, each claimed from the shared
    counter, and send each (unit index, result) the moment it is made; close
    `conn` when no unit is left."""
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(units):
            conn.close()
            return
        conn.send((index, _run_unit(cfg, embedder, cells, dump_dir, units[index])))


def _run_units(
    cfg: MatrixConfig,
    embedder: HashEmbedder,
    cells: tuple[ExperimentCell, ...],
    dump_dir: Path | None,
    units: list[tuple[int, int]],
    jobs: int,
) -> Iterator[tuple[int, _Row | str]]:
    """Yield (unit index, result) for every unit as it finishes: in order in
    this process for jobs <= 1, else from up to `jobs` worker processes that
    share one queue.

    Each worker claims the next unit index from a shared counter, one lock
    acquisition per claim, and sends each result down its own pipe as soon
    as the unit is done, so neither side holds a batch.  A worker that exits
    with a nonzero code, or a unit whose result comes back twice or never,
    raises `WorkerError`.  Close the generator (`contextlib.closing`) when
    the consumer stops early: that terminates and joins every live worker.
    """
    if jobs <= 1 or not units:
        for index, unit in enumerate(units):
            yield index, _run_unit(cfg, embedder, cells, dump_dir, unit)
        return
    # imported here, so that loading a config or analysing a run does not pay
    # for the process machinery
    import multiprocessing
    from multiprocessing.connection import wait

    # on Linux, fork hands the loaded config to the workers without pickling
    # it; elsewhere the platform default (spawn) gives the same bytes, slower
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    counter = context.Value("q", 0)
    workers = {}  # receiving end -> its worker
    seen = [False] * len(units)
    try:
        for _ in range(min(jobs, len(units))):
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(
                target=_work, args=(sender, counter, cfg, embedder, cells, dump_dir, units)
            )
            worker.start()
            # only the worker holds the sending end now: its exit is our EOF,
            # and no later worker inherits it
            sender.close()
            workers[receiver] = worker
        live = list(workers)
        while live:
            for receiver in wait(live):
                try:
                    index, result = receiver.recv()
                except EOFError:
                    live.remove(receiver)
                    worker = workers[receiver]
                    worker.join()
                    if worker.exitcode != 0:
                        raise WorkerError(
                            f"a worker process exited with code {worker.exitcode}"
                        ) from None
                    continue
                if seen[index]:
                    raise WorkerError(f"unit {units[index]} came back twice")
                seen[index] = True
                yield index, result
        if not all(seen):
            raise WorkerError(f"unit {units[seen.index(False)]} never came back")
    finally:
        for receiver, worker in workers.items():
            if worker.is_alive():
                worker.terminate()
            worker.join()
            receiver.close()


def _finish_cell(out: Path, cell: ExperimentCell, results: list[_Row | str]) -> str | int:
    """A complete cell's outcome: the error of its first failing task in task
    order, or else its number of tasks, once its verdict file is written."""
    error = next((r for r in results if isinstance(r, str)), None)
    if error is not None:
        return error
    rows = sorted(results)  # by task id, unique within a benchmark
    _atomic_write(out / f"{cell.cell_id}.jsonl", "".join(line for _, line in rows))
    return len(rows)


def run_matrix(
    cfg: MatrixConfig,
    out_dir: str | Path,
    jobs: int = 1,
    dump_memory: bool = False,
) -> dict:
    """Run every cell; one verdict file per cell plus a run manifest.

    Inadmissible cells are refused before any model call.  A failing cell is
    marked FAILED in the manifest and does not stop the others.  Output
    bytes depend only on the config and seeds, never on `jobs`.

    The admissible cells' (cell, task) units form one queue.  With jobs <= 1
    it runs in this process; with jobs > 1 each of up to `jobs` worker
    processes claims the next unit from it until it is empty and sends each
    result back as the unit finishes (see `_run_units`).  A cell's verdict
    file is written as soon as its last unit lands, and its rows are then
    dropped; the manifest is written once, after the last cell.  A worker
    that dies raises `WorkerError` with no worker left running, leaving the
    verdict files of the cells finished so far and no manifest.  On Linux the
    workers are forked, so no other Python thread of the caller may hold a
    lock at that moment (native threads such as OpenBLAS's are fork-safe
    through their atfork handlers); Python 3.12+ warns on such forks.
    Elsewhere they start with the platform default.  Only Linux on Python
    3.11 has been run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_dir = None
    if dump_memory:
        dump_dir = out / "memory"
        dump_dir.mkdir(exist_ok=True)

    admissions = [(cell, check_admissible(cell)) for cell in cfg.cells]
    cells = tuple(cell for cell, adm in admissions if adm.admissible)
    n_tasks = [len(cfg.benchmarks[cell.benchmark].benchmark.tasks) for cell in cells]
    units = [(c, t) for c, n in enumerate(n_tasks) for t in range(n)]
    # one embedder per call, never kept past it: a later call with the same
    # config hashes its lines again, as a fresh `memsearch run` does
    embedder = HashEmbedder(cfg.embedder_dim)
    # cell id -> its error or its number of tasks; a cell without tasks is done
    outcomes = {
        cell.cell_id: _finish_cell(out, cell, []) for cell, n in zip(cells, n_tasks) if not n
    }
    # cell index -> its results by task, until the cell is finished
    pending: list[list | None] = [[None] * n for n in n_tasks]
    with closing(_run_units(cfg, embedder, cells, dump_dir, units, jobs)) as results:
        for index, result in results:
            c, t = units[index]
            pending[c][t] = result
            if None not in pending[c]:
                outcomes[cells[c].cell_id] = _finish_cell(out, cells[c], pending[c])
                pending[c] = None

    manifest_cells: dict[str, dict] = {}
    for cell, adm in admissions:
        entry: dict = {
            "benchmark": cell.benchmark,
            "env": cell.env,
            "method": cell.search.method.value,
            "memory": memory_label(cell.memory),
            "seed": cell.seed,
        }
        manifest_cells[cell.cell_id] = entry
        if not adm.admissible:
            entry.update(
                {"status": "inadmissible", "reason": adm.reason.value, "glyph": adm.glyph}
            )
            log.info("cell %s inadmissible: %s", cell.cell_id, adm.reason.value)
            continue

        outcome = outcomes[cell.cell_id]
        if isinstance(outcome, str):
            entry.update({"status": "failed", "error": outcome})
            log.warning("cell %s failed: %s", cell.cell_id, outcome.partition(": ")[2])
            continue
        entry.update({"status": "ok", "verdict_file": f"{cell.cell_id}.jsonl", "n_tasks": outcome})
        log.info("cell %s: %d tasks done", cell.cell_id, outcome)

    manifest = {
        "format_version": FORMAT_VERSION,
        "pricing": asdict(cfg.pricing),
        "cells": manifest_cells,
    }
    _atomic_write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
