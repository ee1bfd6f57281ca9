"""Shared value types for memory-augmented search.

Everything here is an immutable value object except :class:`Node` and
:class:`Telemetry`, which are mutable by design: nodes are updated in place
by backpropagation and telemetry counters accumulate during a run.  All
other types are frozen dataclasses and safe to share across threads.

An :class:`Action` carries the whitespace token count of its raw text, an
:class:`Observation` that of its content, a :class:`Task` that of its
prompt and a :class:`ContextBundle` that of its rendered text, each counted
once when the value is built (`extend_bundle` counts only the lines it
appends): the scripted models bill the prompt, every prefix step and the
bundle on every call, and recounting them there is quadratic in depth.
:func:`_count_tokens` is the one definition of a token.
"""

from __future__ import annotations

import hashlib
import os
import re
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

MAX_DEPTH = 15

FINAL_ANSWER = "FINAL_ANSWER"


class TerminalKind(str, Enum):
    ANSWERED = "answered"
    APOLOGY = "apology"
    MAX_DEPTH = "max_depth"


class Scope(str, Enum):
    CROSS_SIBLING = "cross_sibling"
    CROSS_TRAJECTORY = "cross_trajectory"


class Abstraction(str, Enum):
    RAW = "raw"
    REFLECTION = "reflection"
    FACT = "fact"


def _encode(parts: tuple) -> bytes:
    """What `stable_hash` digests: each part's repr followed by a 0x1f
    separator, in UTF-8 (repr escapes lone surrogates, so the encoding never
    fails).  The parts' encodings concatenate, so a sha256 state fed a
    prefix of the parts goes on with the rest (`stable_hasher`)."""
    return ("%r\x1f" * len(parts) % parts).encode("utf-8")


def stable_hash(*parts: object) -> int:
    """Deterministic 64-bit hash of the given parts, stable across processes:
    the first 8 bytes, big-endian, of the sha256 of `_encode(parts)`."""
    return int.from_bytes(hashlib.sha256(_encode(parts)).digest()[:8], "big")


def stable_hasher(*prefix: object) -> Callable[..., int]:
    """`stable_hash` with its first parts fixed: `stable_hasher(*prefix)(*parts)`
    is `stable_hash(*prefix, *parts)`, each call going on from a copy of one
    sha256 state fed the prefix, so the prefix is hashed once."""
    copy = hashlib.sha256(_encode(prefix)).copy

    def hasher(*parts: object) -> int:
        sha = copy()
        sha.update(_encode(parts))
        return int.from_bytes(sha.digest()[:8], "big")

    return hasher


def is_int(value: object) -> bool:
    """A JSON integer: bool is an int subclass in Python, but not one here."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """A JSON number, int or float; again not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ConfigurationError(Exception):
    """A config, script or fixture is malformed; raised eagerly at load time."""


# the JSON types `checked` tells apart, by the Python type that stands for each
_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", bool: "true or false",
    int: "an integer", float: "a number",
}


def checked(value, kind: type, what: str):
    """`value`, if it has the JSON type `kind`; else a ConfigurationError naming `what`.

    int stands for a JSON integer and float for any JSON number, which is
    returned as a float; neither admits a bool.  A refusal shows a wrong
    scalar, but only the type of a wrong object or array, which may be long.
    """
    test = {int: is_int, float: is_number}.get(kind)
    if not (test(value) if test else isinstance(value, kind)):
        got = type(value).__name__ if kind in (dict, list) else repr(value)
        raise ConfigurationError(f"{what} must be {_JSON_TYPES[kind]}, got {got}")
    return float(value) if kind is float else value


CELL_ID = re.compile(r"[A-Za-z0-9_+.\-]+")  # what cell and task ids must fullmatch: they name files


def known(raw: dict, keys: set[str], what: str, where: str) -> dict:
    """`raw`, if it has none but `keys`: a misspelt key is an error, not a default."""
    unknown = set(raw) - keys
    if unknown:
        raise ConfigurationError(f"{where}: unknown {what} keys {sorted(unknown)}")
    return raw


def _count_tokens(text: str) -> int:
    """Whitespace token count, the unit of every scripted model's billing."""
    return len(text.split())


def fingerprint(text: str) -> str:
    """The first 12 hex digits of a rendered context's sha256, used for script keys."""
    return _fingerprint_of(hashlib.sha256(text.encode("utf-8")))


def _fingerprint_of(sha) -> str:
    return sha.hexdigest()[:12]


def clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def atomic_write(path: Path, content: str) -> None:
    """Write `content` to `path` in UTF-8 through a temporary sibling and a
    rename, so the path holds either its old bytes or all of the new ones;
    a write that fails removes the sibling."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(content, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class StateHandle:
    """Opaque handle to an environment state.

    snapshot_token is None exactly when the owning environment is not
    serializable (it cannot be forked).
    """

    env_id: str
    snapshot_token: str | None
    depth: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0 or self.depth > MAX_DEPTH:
            raise ValueError(f"state depth {self.depth} outside [0, {MAX_DEPTH}]")


@dataclass(frozen=True)
class Action:
    tool_name: str
    arguments: str
    raw_text: str
    tokens: int = field(init=False, compare=False, repr=False)  # of raw_text, set once here

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", _count_tokens(self.raw_text))

    @property
    def is_final(self) -> bool:
        return self.tool_name == FINAL_ANSWER


@dataclass(frozen=True)
class Observation:
    content: str
    is_error: bool
    tool_name: str
    tokens: int = field(init=False, compare=False, repr=False)  # of content, set once here

    def __post_init__(self) -> None:
        # Empty content is reserved for the FINAL_ANSWER echo observation.
        if not self.content and self.tool_name != FINAL_ANSWER:
            raise ValueError("empty observation content for non-final tool")
        object.__setattr__(self, "tokens", _count_tokens(self.content))


@dataclass(frozen=True)
class Step:
    action: Action
    observation: Observation
    reward: float | None = None

    def __post_init__(self) -> None:
        if self.reward is not None and not 0.0 <= self.reward <= 1.0:
            raise ValueError(f"step reward {self.reward} outside [0, 1]")


def aggregate_score(steps: Iterable[Step]) -> float:
    """Trajectory score: mean of the step rewards that are present.

    A search scores every step or none (`search._take_step`): every step
    with a process reward model, so this is the plain mean, and none
    without one.  A trajectory with no scored steps aggregates to 0.0 so
    that an unscored trajectory counts as failed.
    """
    rewards = [s.reward for s in steps if s.reward is not None]
    if not rewards:
        return 0.0
    return sum(rewards) / len(rewards)


@dataclass(frozen=True)
class Trajectory:
    steps: tuple[Step, ...]
    terminal_kind: TerminalKind
    trajectory_score: float
    iteration_index: int
    bundle_fingerprints: tuple[str, ...] = ()
    # `text`, when the maker rendered it already (the search's step trie
    # renders each finished path once); None: rendered on each read
    rendering: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= len(self.steps) <= MAX_DEPTH:
            raise ValueError(f"trajectory has {len(self.steps)} steps, expected 1..{MAX_DEPTH}")
        if not 0.0 <= self.trajectory_score <= 1.0:
            raise ValueError(f"trajectory score {self.trajectory_score} outside [0, 1]")

    @property
    def text(self) -> str:
        """The trajectory as analysis models read it: `trajectory_text` of
        its steps and terminal kind."""
        if self.rendering is not None:
            return self.rendering
        return trajectory_text(self.steps, self.terminal_kind)

    @property
    def final_action(self) -> Action:
        return self.steps[-1].action

    def answer(self) -> str | None:
        """The submitted answer text, or None if the trajectory never answered."""
        if self.final_action.is_final:
            return self.final_action.arguments
        return None


@dataclass(frozen=True)
class ContextUnit:
    """One unit of memory, positioned on the scope x abstraction grid."""

    scope: Scope
    abstraction: Abstraction
    body: str
    source_iteration: int
    persistent: bool
    # a fact's embedding, kept as the embedder returned it (an array or a
    # sequence of floats); arrays do not compare, so it is left out of ==,
    # hash and repr
    embedding: Sequence[float] | None = field(
        default=None, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.scope is Scope.CROSS_SIBLING and self.persistent:
            raise ValueError("cross-sibling units are ephemeral by definition")
        if self.abstraction is Abstraction.FACT and self.embedding is None:
            raise ValueError("fact units need an embedding for dedup")


_SECTION_LABELS = {
    Abstraction.FACT: "FACTS:",
    Abstraction.REFLECTION: "REFLECTIONS:",
    Abstraction.RAW: "SIBLINGS:",
}
_SECTION_ORDER = (Abstraction.FACT, Abstraction.REFLECTION, Abstraction.RAW)


@dataclass(frozen=True)
class ContextBundle:
    units: tuple[ContextUnit, ...]
    rendered: str
    fingerprint: str  # of rendered; computed once, in render_bundle or extend_bundle
    tokens: int | None = field(default=None, compare=False, repr=False)  # of rendered; None: count
    # what extend_bundle appends to: the sha256 state of rendered and the index
    # in _SECTION_ORDER of its last section; None: extend_bundle renders in full
    tail: tuple[object, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.tokens is None:
            object.__setattr__(self, "tokens", _count_tokens(self.rendered))

    def __getstate__(self) -> dict:
        return {**vars(self), "tail": None}  # a sha256 state does not pickle

    @property
    def is_empty(self) -> bool:
        return not self.units


def render_bundle(units: Iterable[ContextUnit]) -> ContextBundle:
    """Render units into the canonical prompt block.

    Ordering is deterministic: persistent units first, stably sorted by
    source_iteration (insertion order breaks ties), then ephemeral units in
    insertion order.  The rendered text groups units into labeled sections
    in the fixed order FACTS:, REFLECTIONS:, SIBLINGS:; empty sections are
    omitted and an empty unit list renders as the empty string (it is
    EMPTY_BUNDLE).  A bundle's fingerprint is computed here or, for the
    lines appended to a bundle made here, in `extend_bundle`.
    """
    units = list(units)
    if not units:
        return EMPTY_BUNDLE
    persistent = [u for u in units if u.persistent]
    persistent.sort(key=lambda u: u.source_iteration)  # stable: ties keep insertion order
    ordered = tuple(persistent + [u for u in units if not u.persistent])

    sections: dict[Abstraction, list[str]] = {a: [_SECTION_LABELS[a]] for a in _SECTION_ORDER}
    for u in ordered:
        sections[u.abstraction].append(f"- {u.body}")
    rendered = "\n".join("\n".join(lines) for lines in sections.values() if len(lines) > 1)
    sha = hashlib.sha256(rendered.encode("utf-8"))
    last = max(i for i, lines in enumerate(sections.values()) if len(lines) > 1)
    return ContextBundle(ordered, rendered, _fingerprint_of(sha), tail=(sha, last))


def extend_bundle(bundle: ContextBundle, units: Iterable[ContextUnit]) -> ContextBundle:
    """`render_bundle` of the bundle's units and then `units`, appended to
    `bundle` where every new unit sorts after it.

    A unit sorts after the bundle when `render_bundle` places it last and its
    line ends the text: it is ephemeral, or persistent with a source_iteration
    at or above the last unit's, which is persistent too; and its section is
    the bundle's last or a later one.  Then only the new lines are rendered,
    hashed (on a copy of the bundle's sha256 state, so `bundle` can be
    extended again) and counted (the whitespace token count is additive over
    the "\n"-joined lines).  An empty bundle, one without a sha256 state, or
    any other unit gets a full `render_bundle`.
    """
    units = tuple(units)
    if not units:
        return bundle
    if bundle.tail is None:
        return render_bundle(bundle.units + units)
    sha, section = bundle.tail
    last = bundle.units[-1]
    lines = [""]
    for u in units:
        rank = _SECTION_ORDER.index(u.abstraction)
        if rank < section or u.persistent and not (
            last.persistent and u.source_iteration >= last.source_iteration
        ):
            return render_bundle(bundle.units + units)
        if rank > section:
            lines.append(_SECTION_LABELS[u.abstraction])
            section = rank
        lines.append(f"- {u.body}")
        last = u
    text = "\n".join(lines)
    sha = sha.copy()
    sha.update(text.encode("utf-8"))
    return ContextBundle(
        bundle.units + units, bundle.rendered + text, _fingerprint_of(sha),
        bundle.tokens + _count_tokens(text), (sha, section),
    )


EMPTY_BUNDLE = ContextBundle(units=(), rendered="", fingerprint=fingerprint(""))


@dataclass
class Node:
    """Search tree node.  Mutated only by `run_mcts` (children) and `backprop`."""

    node_id: int
    state: StateHandle
    incoming_action: Action | None
    children: list[int] = field(default_factory=list)
    visit_count: int = 0
    q_value: float = 0.5
    is_terminal: bool = False


@dataclass(frozen=True)
class PricingTable:
    """Dollar cost per 1M tokens, split by model role."""

    policy_in: float = 0.80
    policy_out: float = 4.00
    supervisor_in: float = 3.00
    supervisor_out: float = 15.00

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            # a float's range, so that no price reads inf or overflows a cost
            if not is_number(value) or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")

    @classmethod
    def from_dict(cls, raw, where: str) -> "PricingTable":
        """The table of a config's or a manifest's `pricing`, or a ConfigurationError."""
        what, keys = f"{where}: bad pricing", {f.name for f in fields(cls)}
        known(checked(raw, dict, f"{what}: pricing"), keys, "pricing", what)
        try:
            return cls(**raw)
        except ValueError as exc:
            raise ConfigurationError(f"{what}: {exc}") from exc


@dataclass(slots=True)
class Telemetry:
    """Monotone call/token counters. Counters only ever increase.

    Slotted, so it has no `__dict__` and `vars()` on it raises: in CPython
    3.11 reading an object's `__dict__` drops its inline attribute values,
    and every later `add` on it runs about 3x slower.
    """

    policy_calls: int = 0
    policy_tokens_in: int = 0
    policy_tokens_out: int = 0
    supervisor_calls: int = 0
    supervisor_tokens_in: int = 0
    supervisor_tokens_out: int = 0

    def record(self, role: str, tokens_in: int, tokens_out: int) -> None:
        self.add(role, 1, tokens_in, tokens_out)

    def add(self, role: str, calls: int, tokens_in: int, tokens_out: int) -> None:
        """Bill `calls` calls of `role` that took `tokens_in` and gave
        `tokens_out` tokens between them."""
        if calls < 0 or tokens_in < 0 or tokens_out < 0:
            raise ValueError("call and token counts are non-negative")
        if role == "policy":
            self.policy_calls += calls
            self.policy_tokens_in += tokens_in
            self.policy_tokens_out += tokens_out
        elif role == "supervisor":
            self.supervisor_calls += calls
            self.supervisor_tokens_in += tokens_in
            self.supervisor_tokens_out += tokens_out
        else:
            raise ValueError(f"unknown telemetry role: {role!r}")


@dataclass(frozen=True)
class GiveUpStats:
    """Apology accounting for a single beam run."""

    apology_terminals: int
    selected_apology: bool
    all_apology_states: int


@dataclass(frozen=True)
class SearchRecord:
    trajectories: tuple[Trajectory, ...]
    selected: Trajectory | None  # the trajectory whose answer is submitted; None: no answer
    giveup: GiveUpStats | None = None

    @property
    def final_answer(self) -> str | None:
        return self.selected.answer() if self.selected is not None else None


@dataclass(frozen=True)
class Task:
    """Runtime view of a task.  Deliberately excludes the gold answer."""

    task_id: str
    prompt: str
    tools: tuple[str, ...]
    benchmark: str
    env: str
    meta: Mapping[str, str]
    prompt_tokens: int = field(init=False, compare=False, repr=False)  # set once here

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt_tokens", _count_tokens(self.prompt))


def trajectory_text(traj_steps: Iterable[Step], terminal_kind: TerminalKind | None = None) -> str:
    """Plain-text rendering of a trajectory, the input format for analysis models."""
    lines: list[str] = []
    for i, step in enumerate(traj_steps):
        lines.append(f"STEP {i}")
        lines.append(f"ACTION: {step.action.tool_name}|{step.action.arguments}")
        tag = "ERROR" if step.observation.is_error else step.observation.tool_name
        lines.append(f"OBSERVATION[{tag}]: {step.observation.content}")
    if terminal_kind is not None:
        lines.append(f"TERMINAL: {terminal_kind.value}")
    return "\n".join(lines)


def step_text(step: Step) -> str:
    return trajectory_text([step])
