"""Deterministic toy environments and task fixtures.

Three worlds cover the serializability axis: a read-only tabular world and
a knowledge-graph world that both support fork() through one shared
read-only base, and a scripted shell whose state mutates in place and
cannot be forked.  All three share one reset check and step dispatch.
Each environment class's ``serializable`` attribute is the single record
of that axis; ENV_CLASSES maps env ids to the classes, and the experiment
matrix reads it from there.  Gold answers live behind the Grader, which
only the experiment runner holds; tasks handed to search code carry no
gold and no grading hook.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .core import (
    CELL_ID,
    FINAL_ANSWER,
    Action,
    ConfigurationError,
    Observation,
    StateHandle,
    Task,
    checked,
    known,
)


class EnvError(Exception):
    """A task or state handle does not belong to this environment."""


class ForkUnsupported(Exception):
    """The environment cannot snapshot state; tree search is inadmissible."""


class Environment(Protocol):
    """A tool world.  `serializable` means its states can be forked, that
    `step` is a pure function of (state handle, action), and that a state
    handle is a value, valid in every env its benchmark makes: the search's
    step trie replays a step of such an env instead of taking it again, in
    whichever env of the benchmark computed it."""

    env_id: str
    serializable: bool

    def reset(self, task: Task) -> StateHandle: ...

    def step(self, state: StateHandle, action: Action) -> tuple[StateHandle, Observation]: ...

    def fork(self, state: StateHandle) -> StateHandle: ...


EMPTY_ANSWER = "(empty)"  # what a tool answers with nothing to list or show


def _ok(tool: str, content: str) -> Observation:
    return Observation(content=content or EMPTY_ANSWER, is_error=False, tool_name=tool)


def _err(tool: str, message: str) -> Observation:
    return Observation(content=f"ERROR: {message}", is_error=True, tool_name=tool)


_FINAL_OBSERVATION = Observation(content="", is_error=False, tool_name=FINAL_ANSWER)


# ---------------------------------------------------------------------------
# s-expression mini query language for the tabular world


# a paren, a quoted string, a bare token (it may hold a quote, but not open
# with one) or a lone quote, which opens a string that never closes; every
# character but whitespace (str.isspace, which is what \s matches) is in one
_TOKEN = re.compile(r'[()]|"[^"]*"|[^\s()"][^\s()]*|"')


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    if '"' in tokens:
        raise ValueError("unterminated string literal")
    return tokens


def _parse(tokens: list[str], pos: int = 0):
    if pos >= len(tokens):
        raise ValueError("unexpected end of expression")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _parse(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise ValueError("missing closing paren")
        return items, pos + 1
    if tok == ")":
        raise ValueError("unexpected closing paren")
    if tok.startswith('"') and tok.endswith('"'):
        return tok[1:-1], pos + 1
    return tok, pos + 1


def parse_sexpr(text: str):
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    expr, end = _parse(tokens, 0)
    if end != len(tokens):
        raise ValueError("trailing tokens after expression")
    return expr


def _compare(op: str, cell: str, value: str) -> bool:
    if op == "eq":
        return cell == value
    if op == "gt":
        try:
            return float(cell) > float(value)
        except ValueError:
            return cell > value
    raise ValueError(f"unknown operator '{op}'")


def _eval_query(tables: dict, expr) -> str:
    if not (isinstance(expr, list) and len(expr) == 3 and expr[0] == "project"):
        raise ValueError("query must be (project COLUMN SOURCE)")
    _, column, source = expr
    if isinstance(source, list):
        if len(source) != 3 or source[0] != "where":
            raise ValueError("filter must be (where (OP COLUMN VALUE) TABLE)")
        _, cond, table_name = source
        if not (isinstance(cond, list) and len(cond) == 3):
            raise ValueError("condition must be (OP COLUMN VALUE)")
        op, cond_col, value = cond
    else:
        table_name, op, cond_col, value = source, None, None, None
    if not isinstance(table_name, str):
        raise ValueError("table name must be an atom or string")
    if table_name not in tables:
        raise ValueError(f"no such table '{table_name}'")
    table = tables[table_name]
    columns = table["columns"]
    for needed in (column, cond_col):
        if needed is not None and needed not in columns:
            raise ValueError(f"column '{needed}' not in table '{table_name}'")
    rows = table["rows"]
    if op is not None:
        ci = columns.index(cond_col)
        rows = [r for r in rows if _compare(op, str(r[ci]), str(value))]
    pi = columns.index(column)
    values = [str(r[pi]) for r in rows]
    return ", ".join(values) if values else "(no rows)"


# ---------------------------------------------------------------------------
# environments


class _WorldEnv:
    """Shared step dispatch of every world.

    reset's unknown-task check, FINAL_ANSWER, unknown tools and the depth
    count are handled here.  A subclass opens a task's state in _open, finds
    the world behind a handle in _world (EnvError for a stale handle) and
    answers its own tools in _call_tool, returning None for a tool it does
    not have.  Tool calls go through _observe, where a subclass may memoize.
    """

    env_id: str
    serializable: bool

    def __init__(self, worlds: dict[str, dict]):
        self._worlds = worlds

    def reset(self, task: Task) -> StateHandle:
        if task.task_id not in self._worlds:
            raise EnvError(f"unknown task '{task.task_id}' for {self.env_id}")
        return self._open(task.task_id)

    def step(self, state: StateHandle, action: Action) -> tuple[StateHandle, Observation]:
        world = self._world(state)
        tool = action.tool_name
        if tool == FINAL_ANSWER:
            obs = _FINAL_OBSERVATION
        else:
            obs = self._observe(state, world, tool, action.arguments.strip())
        return StateHandle(state.env_id, state.snapshot_token, state.depth + 1), obs

    def _observe(self, state: StateHandle, world, tool: str, args: str) -> Observation:
        obs = self._call_tool(world, tool, args)
        return obs if obs is not None else _err(tool, f"unknown tool '{tool}'")


class _ReadOnlyWorldEnv(_WorldEnv):
    """A world that never changes, so the immutable state handle is already a
    snapshot and fork() returns it as is.  A subclass names its world's key.

    For the same reason a tool's observation depends only on (task, tool,
    arguments); each is computed once per env instance, errors included, and
    shared after that (observations are immutable).  The matrix runner builds
    one env per (cell, task) unit, so the memo holds that unit's distinct
    calls and goes away with it.  A handle names only the env, the task and
    the depth, so it is valid in every env made from the same worlds: the
    runner's step trie, which the units of a task share, holds handles that
    other units' envs made.
    """

    world_key: str
    serializable = True

    def __init__(self, worlds: dict[str, dict]):
        super().__init__(worlds)
        self._observed: dict[tuple[str, str, str], Observation] = {}

    def _observe(self, state: StateHandle, world, tool: str, args: str) -> Observation:
        key = (state.env_id, tool, args)  # env_id names the task
        obs = self._observed.get(key)
        if obs is None:
            obs = self._observed[key] = super()._observe(state, world, tool, args)
        return obs

    def _open(self, task_id: str) -> StateHandle:
        return StateHandle(env_id=f"{self.env_id}/{task_id}", snapshot_token="ro", depth=0)

    def _world(self, state: StateHandle) -> dict:
        task_id = state.env_id.partition("/")[2]
        try:
            return self._worlds[task_id][self.world_key]
        except KeyError as exc:
            raise EnvError(f"stale state handle {state.env_id}") from exc

    def fork(self, state: StateHandle) -> StateHandle:
        return state


class ToySqlEnv(_ReadOnlyWorldEnv):
    """Read-only tabular world with LIST_TABLES / SCHEMA / QUERY tools."""

    env_id = "toy_sql"
    world_key = "tables"

    def _call_tool(self, tables: dict, tool: str, args: str) -> Observation | None:
        if tool == "LIST_TABLES":
            return _ok(tool, ", ".join(tables))
        if tool == "SCHEMA":
            if args in tables:
                return _ok(tool, ", ".join(tables[args]["columns"]))
            return _err(tool, f"no such table '{args}'")
        if tool == "QUERY":
            try:
                return _ok(tool, _eval_query(tables, parse_sexpr(args)))
            except ValueError as exc:
                return _err(tool, str(exc))
        return None


class ToyKgEnv(_ReadOnlyWorldEnv):
    """Knowledge-graph world with RELATIONS / TRAVERSE tools."""

    env_id = "toy_kg"
    world_key = "entities"

    def _call_tool(self, entities: dict, tool: str, args: str) -> Observation | None:
        if tool == "RELATIONS":
            if args in entities:
                return _ok(tool, ", ".join(entities[args]))
            return _err(tool, f"unknown entity '{args}'")
        if tool == "TRAVERSE":
            entity, _, relation = args.partition(",")
            entity, relation = entity.strip(), relation.strip()
            if entity not in entities:
                return _err(tool, f"unknown entity '{entity}'")
            if relation not in entities[entity]:
                return _err(tool, f"entity '{entity}' has no relation '{relation}'")
            return _ok(tool, ", ".join(entities[entity][relation]))
        return None


class ScriptedShellEnv(_WorldEnv):
    """Mutable key-value shell.  State lives server-side; fork is unsupported.

    Only the session of the last reset is open: a reset drops the one before
    it, so an env holds one copy of its task's files, and a handle of a
    dropped session is stale.
    """

    env_id = "scripted_shell"
    serializable = False

    def __init__(self, worlds: dict[str, dict]):
        super().__init__(worlds)
        self._sessions: dict[str, dict[str, str]] = {}
        self._counter = 0

    def _open(self, task_id: str) -> StateHandle:
        self._counter += 1
        session = f"{self.env_id}/{task_id}#{self._counter}"
        self._sessions = {session: dict(self._worlds[task_id]["files"])}
        return StateHandle(env_id=session, snapshot_token=None, depth=0)

    def _world(self, state: StateHandle) -> dict[str, str]:
        if state.env_id not in self._sessions:
            raise EnvError(f"stale state handle {state.env_id}")
        return self._sessions[state.env_id]

    def _call_tool(self, files: dict[str, str], tool: str, command: str) -> Observation | None:
        if tool != "RUN":
            return None
        parts = command.split(None, 2)
        if not parts:
            return _err("RUN", "empty command")
        head = parts[0]
        if head == "ls":
            return _ok("RUN", ", ".join(sorted(files)))
        if head == "cat":
            if len(parts) < 2:
                return _err("RUN", "cat needs a file name")
            name = parts[1]
            if name not in files:
                return _err("RUN", f"no such file '{name}'")
            return _ok("RUN", files[name])
        if head == "write":
            if len(parts) < 3:
                return _err("RUN", "write needs a file name and content")
            files[parts[1]] = parts[2]
            return _ok("RUN", f"wrote {parts[1]}")
        return _err("RUN", f"unknown command '{head}'")

    def fork(self, state: StateHandle) -> StateHandle:
        raise ForkUnsupported(f"{self.env_id} state cannot be snapshotted")


ENV_CLASSES = {
    ToySqlEnv.env_id: ToySqlEnv,
    ToyKgEnv.env_id: ToyKgEnv,
    ScriptedShellEnv.env_id: ScriptedShellEnv,
}


# ---------------------------------------------------------------------------
# fixtures and grading


def normalize_answer(text: str) -> str:
    return " ".join(text.split()).lower()


class Grader:
    """Offline exact-match grading.  Construct only in the experiment runner;
    search code never receives one."""

    def __init__(self, golds: dict[str, str]):
        self._golds = {task_id: normalize_answer(gold) for task_id, gold in golds.items()}

    def grade(self, task_id: str, answer: str | None) -> bool:
        if task_id not in self._golds:
            raise KeyError(f"unknown task id '{task_id}'")
        if answer is None:
            return False
        return normalize_answer(answer) == self._golds[task_id]


@dataclass(frozen=True)
class Benchmark:
    benchmark_id: str
    env_id: str
    tasks: tuple[Task, ...]
    worlds: dict[str, dict]
    golds: dict[str, str]

    def make_env(self) -> Environment:
        try:
            cls = ENV_CLASSES[self.env_id]
        except KeyError as exc:
            raise EnvError(f"unknown environment '{self.env_id}'") from exc
        return cls(self.worlds)

    def grader(self) -> Grader:
        return Grader(self.golds)


def load_benchmark(path: str | Path) -> Benchmark:
    """Load a benchmark fixture file: tasks, per-task worlds, gold answers.

    A duplicate task id is a ValueError, an unknown env an EnvError and any
    other fault in the file's shape, keys or task ids (which name files, so
    must fullmatch `CELL_ID`) a ConfigurationError."""
    raw = checked(json.loads(Path(path).read_text(encoding="utf-8")), dict, str(path))
    known(raw, {"benchmark", "env", "tools", "tasks"}, "fixture", str(path))
    benchmark_id = raw["benchmark"]
    env_id = raw["env"]
    if env_id not in ENV_CLASSES:
        raise EnvError(f"unknown environment '{env_id}' in {path}")
    tools = checked(raw["tools"], list, f"{path}: tools")
    tools = tuple(checked(tool, str, f"{path}: tool") for tool in tools)
    tasks, worlds, golds = [], {}, {}
    for i, entry in enumerate(raw["tasks"]):
        where = f"{path}: tasks[{i}]"
        known(checked(entry, dict, where), {"id", "prompt", "gold", "meta", "world"}, "task", where)
        task_id = checked(entry["id"], str, f"{where}: id")
        if not CELL_ID.fullmatch(task_id):
            raise ConfigurationError(f"{where}: unusable task id {task_id!r}")
        if task_id in worlds:
            raise ValueError(f"duplicate task id '{task_id}' in {path}")
        meta = checked(entry.get("meta", {}), dict, f"{where}: meta")
        tasks.append(
            Task(
                task_id=task_id,
                prompt=checked(entry["prompt"], str, f"{where}: prompt"),
                tools=tools,
                benchmark=benchmark_id,
                env=env_id,
                meta={str(k): str(v) for k, v in meta.items()},
            )
        )
        worlds[task_id] = checked(entry["world"], dict, f"{where}: world")
        golds[task_id] = checked(entry["gold"], str, f"{where}: gold")
    return Benchmark(
        benchmark_id=benchmark_id,
        env_id=env_id,
        tasks=tuple(tasks),
        worlds=worlds,
        golds=golds,
    )
