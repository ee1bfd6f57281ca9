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

import functools
import json
import logging
import re
import sys
from collections import Counter
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
from .core import (
    CELL_ID,
    PricingTable,
    SearchRecord,
    Telemetry,
    atomic_write,
    checked,
    is_int,
    known,
    stable_hash,
)
from .envs import ENV_CLASSES, Benchmark, EnvError, Grader, load_benchmark
from .models import (
    MIN_EMBED_DIM,
    ConfigurationError,
    HashEmbedder,
    PolicyModel,
    ScriptedAugmentorModel,
    ScriptedRewardModel,
    load_policy,
)
from .search import (
    BackpropMode,
    ExpansionMode,
    SearchConfig,
    SearchMethod,
    _StepNode,
    replays_steps,
    run_search,
)
from .stats import FORMAT_VERSION, CellEntry, VerdictRow

log = logging.getLogger(__name__)

GLYPH_NON_SERIALIZABLE = "---"
GLYPH_STRUCTURAL = "∅"  # empty-set sign


class AdmissibilityReason(str, Enum):
    OK = "ok"
    DUPLICATE_AUGMENTOR = "duplicate_augmentor"
    UNKNOWN_ENV = "unknown_env"
    NON_SERIALIZABLE = "non_serializable"
    CROSS_SIBLING_NEEDS_EXPANSION = "cross_sibling_needs_expansion"
    CROSS_TRAJECTORY_NEEDS_ITERATIONS = "cross_trajectory_needs_iterations"

    @property
    def admissible(self) -> bool:
        return self is AdmissibilityReason.OK

    @property
    def glyph(self) -> str:
        if self.admissible:
            return ""
        if self is AdmissibilityReason.NON_SERIALIZABLE:
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


def check_admissible(cell: ExperimentCell) -> AdmissibilityReason:
    """Decide whether a cell can run at all.  Never raises."""
    kinds = [c.kind for c in cell.memory if c.kind is not AugmentorKind.NONE]
    if len(set(kinds)) != len(kinds):
        return AdmissibilityReason.DUPLICATE_AUGMENTOR
    env_cls = ENV_CLASSES.get(cell.env)
    if env_cls is None:
        return AdmissibilityReason.UNKNOWN_ENV
    method = cell.search.method
    if method in (SearchMethod.BEAM, SearchMethod.MCTS) and not env_cls.serializable:
        return AdmissibilityReason.NON_SERIALIZABLE
    if AugmentorKind.RAW_SIBLING in kinds and method is SearchMethod.BEST_OF_N:
        # sibling context only exists when a node expands multiple candidates
        return AdmissibilityReason.CROSS_SIBLING_NEEDS_EXPANSION
    if method is SearchMethod.BEAM and (
        AugmentorKind.REFLECTION in kinds or AugmentorKind.FACT in kinds
    ):
        # a single round never revisits the task, so nothing persists into a
        # later trajectory
        return AdmissibilityReason.CROSS_TRAJECTORY_NEEDS_ITERATIONS
    return AdmissibilityReason.OK


# ---------------------------------------------------------------------------
# config loading


_MEMORY_KINDS = {k.value: k for k in AugmentorKind}


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark with its grader built and its scripts parsed once, at
    load.  The runner never calls these models: `_build_models` gives each
    job models of its own (`for_unit`) that bill its telemetry and memoize
    for it alone."""

    benchmark: Benchmark
    grader: Grader
    policy: PolicyModel
    reward: ScriptedRewardModel
    augmentor: ScriptedAugmentorModel
    discovery_tool: str | None


@dataclass(frozen=True)
class MatrixConfig:
    benchmarks: dict[str, BenchmarkSpec]
    cells: tuple[ExperimentCell, ...]
    embedder_dim: int
    pricing: PricingTable


_CONFIG_KEYS = {"benchmarks", "cells", "embedder_dim", "pricing"}
_BENCHMARK_KEYS = {
    "fixtures", "policy_script", "reward_script", "augmentor_script", "discovery_tool"
}
_CELL_KEYS = {"id", "benchmark", "memory", "search", "seed"}
_MEMORY_KEYS = {"kind", "reflection_threshold", "dedup_threshold"}


def _parse_memory(raw, where: str) -> tuple[AugmentorConfig, ...]:
    configs = []
    for entry in checked(raw, list, f"{where}: memory"):
        if isinstance(entry, str):
            entry = {"kind": entry}
        if not isinstance(entry, dict):
            raise ConfigurationError(f"{where}: memory entry {entry!r} is no kind name or object")
        kind = known(entry, _MEMORY_KEYS, "memory", where).get("kind")
        if not isinstance(kind, str) or kind not in _MEMORY_KINDS:
            raise ConfigurationError(f"{where}: unknown memory kind {kind!r}")
        try:
            kwargs = {key: value for key, value in entry.items() if key != "kind"}
            configs.append(AugmentorConfig(kind=_MEMORY_KINDS[kind], **kwargs))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{where}: bad {kind} memory config: {exc}") from exc
    return tuple(configs)


# expansion is no key: _run_cell_task derives it from the cell's memory
_SEARCH_KEYS = {f.name for f in fields(SearchConfig)} - {"expansion"}


def _parse_search(raw: dict, where: str) -> SearchConfig:
    known(checked(raw, dict, f"{where}: search"), _SEARCH_KEYS, "search", where)
    try:
        kwargs = dict(raw)
        kwargs["method"] = SearchMethod(raw["method"])
        if "backprop" in kwargs:
            kwargs["backprop"] = BackpropMode(kwargs["backprop"])
        return SearchConfig(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: bad search config: {exc}") from exc


# what loading a malformed fixture or script raises (JSONDecodeError is a ValueError)
_LOAD_ERRORS = (
    AttributeError, ConfigurationError, EnvError, KeyError, OSError, TypeError, ValueError, re.error
)


def _script(parse):
    """A loader of a script file: `parse` of the JSON object in it."""
    return lambda path: parse(checked(json.loads(path.read_text("utf-8")), dict, str(path)))


def _load_file(base: Path, spec: dict, where: str, key: str, load):
    """`load` one of a benchmark's files by path; any fault in it is a config error."""
    try:
        return load(base / spec[key])
    except _LOAD_ERRORS as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigurationError(f"{where}: {key}: {detail}") from exc


def load_matrix_config(path: str | Path) -> MatrixConfig:
    """Parse an experiment config file; paths inside resolve relative to it."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc

    base = path.parent
    raw = known(checked(raw, dict, f"{path}: the config"), _CONFIG_KEYS, "config", str(path))
    benchmarks: dict[str, BenchmarkSpec] = {}
    for name, spec in checked(raw.get("benchmarks", {}), dict, f"{path}: benchmarks").items():
        where = f"{path}: benchmark '{name}'"
        spec = known(checked(spec, dict, where), _BENCHMARK_KEYS, "benchmark", where)
        load = functools.partial(_load_file, base, spec, where)
        bench = load("fixtures", load_benchmark)
        if bench.benchmark_id != name:
            raise ConfigurationError(
                f"{where}: fixture file declares benchmark '{bench.benchmark_id}'"
            )
        if not bench.tasks:
            raise ConfigurationError(f"{where}: fixture file has no tasks")
        discovery_tool = spec.get("discovery_tool")
        tools = sorted({tool for task in bench.tasks for tool in task.tools})
        if discovery_tool is not None and (
            not isinstance(discovery_tool, str) or discovery_tool not in tools
        ):
            raise ConfigurationError(
                f"{where}: discovery_tool {discovery_tool!r} is none of the fixture's tools {tools}"
            )
        meta_keys = set().union(*(task.meta for task in bench.tasks))
        parse_policy = functools.partial(load_policy, meta_keys=meta_keys)
        benchmarks[name] = BenchmarkSpec(
            benchmark=bench,
            grader=bench.grader(),
            policy=load("policy_script", _script(parse_policy)),
            reward=load("reward_script", _script(ScriptedRewardModel.from_dict)),
            augmentor=load("augmentor_script", _script(ScriptedAugmentorModel.from_dict)),
            discovery_tool=discovery_tool,
        )

    cells: list[ExperimentCell] = []
    seen: set[str] = set()
    for i, entry in enumerate(checked(raw.get("cells", []), list, f"{path}: cells")):
        where = f"{path}: cells[{i}]"
        cell_id = known(checked(entry, dict, where), _CELL_KEYS, "cell", where).get("id")
        if not isinstance(cell_id, str) or not CELL_ID.fullmatch(cell_id):
            raise ConfigurationError(f"{where}: missing or unusable cell id {cell_id!r}")
        if cell_id in seen:
            raise ConfigurationError(f"{where}: duplicate cell id '{cell_id}'")
        seen.add(cell_id)
        bench_name = entry.get("benchmark")
        if not isinstance(bench_name, str) or bench_name not in benchmarks:
            raise ConfigurationError(f"{where}: unknown benchmark {bench_name!r}")
        seed = entry.get("seed", 0)
        if not is_int(seed):
            raise ConfigurationError(f"{where}: bad seed {seed!r}")
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
        raise ConfigurationError(f"{path}: config defines no cells")
    dim = raw.get("embedder_dim", 64)
    if not is_int(dim) or dim < MIN_EMBED_DIM:
        raise ConfigurationError(
            f"{path}: embedder_dim must be an integer >= {MIN_EMBED_DIM}, got {dim!r}"
        )
    pricing = PricingTable.from_dict(raw.get("pricing", {}), str(path))
    return MatrixConfig(benchmarks, tuple(cells), embedder_dim=dim, pricing=pricing)


# ---------------------------------------------------------------------------
# execution


def task_seed(cell_seed: int, task_id: str) -> int:
    """Stable per-task sub-seed: adding or removing one task never changes
    the draws any other task sees."""
    return stable_hash("task_seed", cell_seed, task_id)


def _build_models(spec: BenchmarkSpec, telemetry: Telemetry):
    """A job's own policy, PRM and augmentor model, each billing `telemetry`."""
    return tuple(m.for_unit(telemetry) for m in (spec.policy, spec.reward, spec.augmentor))


def _budget(search: SearchConfig) -> int:
    """A best-of-N or MCTS search's budget: its attempts or its iterations."""
    return search.n_budget if search.method is SearchMethod.BEST_OF_N else search.n_iters


def _ladders(cfg: MatrixConfig, cells: tuple[ExperimentCell, ...]) -> list[tuple[int, ...]]:
    """The indices of `cells` grouped into budget ladders, each in increasing
    budget order, and the ladders in the order of their first cell.

    A ladder is cells of one benchmark, env, memory and method, best-of-N or
    MCTS, whose search configs differ only in the budget, each budget once
    (a repeated budget starts another ladder).  A run at the largest budget
    has, after its first k trajectories, made exactly what a run at budget
    k makes (see `search._iterate`), so `_run_cell_task` runs it once and
    reads each smaller budget's row off its prefix.  A ladder's cells may
    have different seeds, so it forms only where a search reads no seed,
    which is exactly where its steps go through a step trie
    (`search.replays_steps`), in any env (one that is not serializable
    still executes each step).  Every other cell is a ladder of one.
    """
    ladders: dict[tuple, list[int]] = {}
    repeats: Counter = Counter()
    for c, cell in enumerate(cells):
        key: tuple = (c,)
        spec = cfg.benchmarks[cell.benchmark]
        method = cell.search.method
        if method is not SearchMethod.BEAM and replays_steps(spec.policy, spec.reward, cell.search):
            # the search config's field values, its budget blanked
            rung = "n_budget" if method is SearchMethod.BEST_OF_N else "n_iters"
            search = tuple({**vars(cell.search), rung: None}.values())
            key = (cell.benchmark, cell.env, cell.memory, search)
            repeats[key, _budget(cell.search)] += 1
            key += (repeats[key, _budget(cell.search)],)
        ladders.setdefault(key, []).append(c)
    return [
        tuple(sorted(ladder, key=lambda c: _budget(cells[c].search)))
        for ladder in ladders.values()
    ]


# a job's task id and one cell's verdict file line
_Row = tuple[str, str]
# a (ladder index, task index) job
_Job = tuple[int, int]


def _error(exc: Exception) -> str:
    """How a failed job's exception is recorded: as its cell's error."""
    return f"{type(exc).__name__}: {exc}"


def _run_cell_task(
    cfg: MatrixConfig,
    embedder: HashEmbedder,
    trie: _StepNode,
    ladders: tuple[tuple[ExperimentCell, ...], ...],
    dump_dir: Path | None,
    job: _Job,
) -> list[_Row | str]:
    """One (ladder index, task index) job: run the search of the ladder's
    last cell, its largest budget, on the task, through `trie`, the step
    trie root of the task's group (see `_run_group`), and return one result
    per cell of the ladder, in order: the task's id and the cell's verdict
    line, or as a string the error that failed that row (`_error`).  A
    smaller budget's row is made from the search's prefix of that many
    trajectories as soon as it is done (see `_ladders`), carrying the telemetry billed so
    far, and with `dump_dir` the store is dumped for it then.  An exception
    in making one row fails that cell alone and the search goes on; one from
    the search fails every row not yet made.  Both are made here, on the
    worker that ran the job, so no exception object has to cross a process
    and the runner only joins lines."""
    ladder = ladders[job[0]]
    cell = ladder[-1]
    spec = cfg.benchmarks[cell.benchmark]
    task = spec.benchmark.tasks[job[1]]
    results: list[_Row | str] = []
    try:
        telemetry = Telemetry()
        policy, prm, aug_model = _build_models(spec, telemetry)
        env = spec.benchmark.make_env()
        memory = normalize_for_method(cell.memory, cell.search.method.value)
        composite = compose(memory, model=aug_model, embedder=embedder)
        # the memory alone decides the expansion, so the memory label says what prompts carried
        interleaved = composite.wants_siblings and cell.search.method is not SearchMethod.BEST_OF_N
        expansion = ExpansionMode.INTERLEAVED if interleaved else ExpansionMode.BATCH
        search_cfg = replace(cell.search, expansion=expansion)
        # grading happens offline, once per distinct answer of the whole ladder
        grade = functools.cache(functools.partial(spec.grader.grade, task.task_id))

        def row_line(cell: ExperimentCell, record: SearchRecord) -> str:
            if search_cfg.method is SearchMethod.BEAM:
                skip_src = [record.selected] if record.selected else list(record.trajectories[:1])
                verdicts = [grade(record.final_answer)]
                lengths = [len(t.steps) for t in skip_src]
            else:
                verdicts = [grade(t.answer()) for t in record.trajectories]
                lengths = [len(t.steps) for t in record.trajectories]
                skip_src = list(record.trajectories)

            if spec.discovery_tool is None:
                discovery_skipped = None
            else:
                # once per distinct path: on the trie every repeat of a path
                # shares its steps tuple, so paths are told apart by its id
                paths = {id(t.steps): t.steps for t in skip_src}
                skips = {
                    key: spec.discovery_tool not in {s.action.tool_name for s in steps}
                    for key, steps in paths.items()
                }
                discovery_skipped = [skips[id(t.steps)] for t in skip_src]

            if dump_dir is not None:
                composite.store.dump(dump_dir / f"{cell.cell_id}__{task.task_id}.jsonl")

            return VerdictRow(
                task_id=task.task_id,
                cell_id=cell.cell_id,
                verdicts=verdicts,
                selected_verdict=grade(record.final_answer),
                final_answer=record.final_answer,
                trajectory_lengths=lengths,
                terminal_kinds=[t.terminal_kind.value for t in record.trajectories],
                discovery_skipped=discovery_skipped,
                telemetry=telemetry,
                giveup=record.giveup,
            ).to_json()

        def add_row(cell: ExperimentCell, record: SearchRecord) -> None:
            try:
                results.append((task.task_id, row_line(cell, record)))
            except Exception as exc:  # noqa: BLE001 - a row that fails fails its cell alone
                results.append(_error(exc))

        seed = task_seed(cell.seed, task.task_id)
        on_prefix = {_budget(c.search): functools.partial(add_row, c) for c in ladder[:-1]}
        record = run_search(task, env, policy, composite, search_cfg, seed, prm, trie, on_prefix)
        add_row(cell, record)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        results += [_error(exc)] * (len(ladder) - len(results))
    return results


def _run_group(
    cfg: MatrixConfig,
    embedder: HashEmbedder,
    ladders: tuple[tuple[ExperimentCell, ...], ...],
    dump_dir: Path | None,
    group: tuple[_Job, ...],
) -> list[tuple[_Job, list[_Row | str]]]:
    """Run the jobs of one (benchmark, task) group, every ladder's job of
    the task in ladder order, through one fresh step trie root (see
    `search._step_trie`), so a job replays the steps that earlier jobs of
    its task computed, and return the (job, results) pairs.  No other group
    asks for the task's steps, so the root is dropped when this returns."""
    trie = _StepNode()
    return [(job, _run_cell_task(cfg, embedder, trie, ladders, dump_dir, job)) for job in group]


class WorkerError(RuntimeError):
    """A worker process died, or a job's results came back twice or never."""


def _work(conn, counter, run, groups: list[tuple[_Job, ...]]) -> None:
    """A worker's loop: `run` group after group, each claimed from the
    shared counter, and send each group's (job, results) pairs as one
    message; close `conn` when no group is left."""
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(groups):
            conn.close()
            return
        conn.send(run(groups[index]))


def _run_jobs(
    run, groups: list[tuple[_Job, ...]], jobs: int
) -> Iterator[tuple[_Job, list[_Row | str]]]:
    """Yield every (job, results) pair of `run(group)` for each group as the
    group finishes: in this process, in order, for jobs <= 1, else from up
    to `jobs` worker processes, never more than there are groups, that
    share one queue.

    Each worker claims the next group index from a shared counter, one lock
    acquisition per claim, and sends the group's results down its own pipe
    in one message (see `_work`), so the parent wakes once per group.  A
    worker that exits with a nonzero code, or a job whose results come back
    twice or never, raises `WorkerError`.  Close the generator
    (`contextlib.closing`) when the consumer stops early: that terminates
    and joins every live worker.
    """
    if jobs <= 1 or not groups:
        for group in groups:
            yield from run(group)
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
    seen: set[_Job] = set()  # the jobs whose results came back
    try:
        for _ in range(min(jobs, len(groups))):
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_work, args=(sender, counter, run, groups))
            worker.start()
            # only the worker holds the sending end now: its exit is our EOF,
            # and no later worker inherits it
            sender.close()
            workers[receiver] = worker
        live = list(workers)
        while live:
            for receiver in wait(live):
                try:
                    rows = receiver.recv()
                except EOFError:
                    live.remove(receiver)
                    worker = workers[receiver]
                    worker.join()
                    if worker.exitcode != 0:
                        raise WorkerError(
                            f"a worker process exited with code {worker.exitcode}"
                        ) from None
                    continue
                for job, results in rows:
                    if job in seen:
                        raise WorkerError(f"job {job} came back twice")
                    seen.add(job)
                    yield job, results
        missing = next((job for group in groups for job in group if job not in seen), None)
        if missing is not None:
            raise WorkerError(f"job {missing} never came back")
    finally:
        for receiver, worker in workers.items():
            if worker.is_alive():
                worker.terminate()
            worker.join()
            receiver.close()


def _finish_cell(out: Path, cell: ExperimentCell, entry: CellEntry, results: tuple) -> CellEntry:
    """A cell's manifest entry completed from its results by task: failed with
    the error of its first failing task in task order, or else ok once its
    verdict file is written."""
    error = next((r for r in results if isinstance(r, str)), None)
    if error is not None:
        return replace(entry, status="failed", error=error)
    rows = sorted(results)  # by task id, unique within a benchmark
    atomic_write(out / f"{cell.cell_id}.jsonl", "".join(line for _, line in rows))
    return replace(entry, status="ok", verdict_file=f"{cell.cell_id}.jsonl", n_tasks=len(rows))


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

    The admissible cells are grouped into budget ladders (`_ladders`; most
    cells are a ladder of one).  A job is one (ladder, task) pair: it runs
    one search and gives one result per cell of its ladder
    (`_run_cell_task`).  The jobs of one (benchmark, task) form a group,
    run in ladder order through one step trie root of its own
    (`_run_group`), so each of the task's steps is computed once at any
    `jobs`.  The groups form one queue, the largest first and ties in the
    order of their first job, so the cheapest fill the tail.  With jobs
    <= 1 the queue runs in this process; with jobs > 1 each of up to `jobs`
    worker processes claims the next group from it until it is empty and
    sends the group's results back as it finishes (see `_run_jobs`).  Each
    cell's manifest entry is made when its admission is checked, and is
    final when its verdict file is written, as soon as its ladder's last job
    lands, with the last group of its benchmark; the ladder's results are
    then dropped.  The manifest is written once, after the last cell.  A
    benchmark with no tasks is refused with a ConfigurationError before
    anything runs.  A worker that dies raises `WorkerError` with no worker
    left running, leaving the verdict files of the cells finished so far
    and no manifest.  On Linux the workers are forked, so no other Python
    thread of the caller may hold a lock at that moment (native threads
    such as OpenBLAS's are fork-safe through their atfork handlers); Python
    3.12+ warns on such forks.  Elsewhere they start with the platform
    default.  Only Linux on Python 3.11 has been run.
    """
    entries: dict[str, CellEntry] = {}  # cell id -> its manifest entry, in config order
    cells: list[ExperimentCell] = []  # the admitted ones
    for cell in cfg.cells:
        if not cfg.benchmarks[cell.benchmark].benchmark.tasks:
            raise ConfigurationError(f"benchmark '{cell.benchmark}' has no tasks")
        label = memory_label(cell.memory)
        entry = CellEntry(cell.benchmark, cell.env, cell.search.method.value, label, cell.seed)
        reason = check_admissible(cell)
        if not reason.admissible:
            entry = replace(entry, status="inadmissible", reason=reason.value, glyph=reason.glyph)
        else:
            cells.append(cell)
        entries[cell.cell_id] = entry
    ladders = tuple(tuple(cells[c] for c in ladder) for ladder in _ladders(cfg, tuple(cells)))
    # ladder index -> its jobs' results by task, until its cells are finished
    pending: list[list | None] = [
        [None] * len(cfg.benchmarks[ladder[0].benchmark].benchmark.tasks) for ladder in ladders
    ]
    groups: dict[tuple[str, int], list[_Job]] = {}  # (benchmark, task) -> its jobs
    for i, results in enumerate(pending):
        for t in range(len(results)):
            groups.setdefault((ladders[i][0].benchmark, t), []).append((i, t))
    # the largest groups first; the sort is stable, so ties keep the order of their first job
    queue = sorted(map(tuple, groups.values()), key=len, reverse=True)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_dir = None
    if dump_memory:
        dump_dir = out / "memory"
        dump_dir.mkdir(exist_ok=True)
    # one embedder per call, never kept past it, as each group's trie root
    # is: a later call with the same config hashes its lines and computes
    # its steps again, as a fresh `memsearch run` does
    embedder = HashEmbedder(cfg.embedder_dim)
    run = functools.partial(_run_group, cfg, embedder, ladders, dump_dir)
    with closing(_run_jobs(run, queue, jobs)) as finished:
        for (i, t), results in finished:
            pending[i][t] = results
            if None not in pending[i]:
                # one column per cell, its results already in task order
                for cell, column in zip(ladders[i], zip(*pending[i])):
                    entries[cell.cell_id] = _finish_cell(out, cell, entries[cell.cell_id], column)
                pending[i] = None

    for cell_id, entry in entries.items():
        if entry.status == "inadmissible":
            log.info("cell %s inadmissible: %s", cell_id, entry.reason)
        elif entry.status == "failed":
            log.warning("cell %s failed: %s", cell_id, entry.error.partition(": ")[2])
        else:
            log.info("cell %s: %d tasks done", cell_id, entry.n_tasks)

    manifest = {
        "format_version": FORMAT_VERSION,
        "pricing": asdict(cfg.pricing),
        "cells": {cell_id: entry.to_json() for cell_id, entry in entries.items()},
    }
    atomic_write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
