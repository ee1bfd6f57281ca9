"""Per-layer tracing of a matrix pass, from outside the program.

The tracer replaces public functions and methods of the memsearch modules
with timing wrappers for the duration of one traced pass and restores them
afterwards; nothing under ``src/`` knows it is being traced.  Functions are
patched on the module that calls them by name (``memsearch.matrix.run_search``,
``memsearch.search.expand``), methods on their class.

Each call records a span (id, layer name, parent span, start, end) in
memory.  A span's parent is the innermost open span of the same thread;
spans opened at the top of a runner worker thread take the open
``matrix.run`` span as parent.  Self time is a span's duration minus the
union of its children's intervals, so helper code without a boundary of its
own (core hashing and rendering) is charged to the layer that called it.
Counters needed for ratios (errors, stored facts, repeated model inputs)
are updated by hooks whose own time is recorded as ``trace`` spans and so
charged to no layer.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = "matrix.run"
UNIT = "matrix.unit"
HOOK = "trace"

# span name -> layer whose self time it counts toward
LAYER_OF = {
    "envs.step": "envs",
    "envs.fork": "envs",
    "envs.reset": "envs",
    "models.policy": "models",
    "models.prm": "models",
    "models.augmentor": "models",
    "models.embed": "models",
    "augmentors.add": "augmentors",
    "augmentors.retrieve": "augmentors",
    "augmentors.hook": "augmentors",
    "search.run": "search",
    "search.expand": "search",
    ROOT: "matrix",
    UNIT: "matrix",
    "stats.analyze": "stats",
    "stats.report": "stats",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._seen: dict[tuple[str, int], set] = defaultdict(set)

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """fn wrapped in a span; hook(args, result) runs after it, untimed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            stack.append(sid)
            if name == ROOT:
                tracer._root = sid
            elif name == UNIT:
                tracer._local.unit = sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, parent, start, end))
                if name == ROOT:
                    tracer._root = None
                elif name == UNIT:
                    tracer._local.unit = None
                    with tracer._lock:
                        tracer._seen.pop(("models.policy", sid), None)
                        tracer._seen.pop(("models.prm", sid), None)
            if hook is not None:
                hook(args, result)
                tracer.spans.append((next(tracer._ids), HOOK, parent, end, perf_counter()))
            return result

        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def note_repeat(self, layer: str, key: tuple) -> None:
        """Count a model call and whether its input was already seen in this unit."""
        unit = getattr(self._local, "unit", None)
        with self._lock:
            self.counts[f"{layer}.keyed"] += 1
            seen = self._seen[(layer, unit)]
            if key in seen:
                self.counts[f"{layer}.repeats"] += 1
            else:
                seen.add(key)

    # -- installation ------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, hook: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def patch_counter(self, owner: object, attr: str, key: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count(key)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def install(self) -> None:
        from memsearch import augmentors, envs, matrix, models, search

        for env_cls in (envs.ToySqlEnv, envs.ToyKgEnv, envs.ScriptedShellEnv):
            self.patch(env_cls, "step", "envs.step", self._on_step)
            self.patch(env_cls, "fork", "envs.fork")
            self.patch(env_cls, "reset", "envs.reset")
        self.patch_counter(envs, "parse_sexpr", "envs.query.calls")

        self.patch(models.ScriptedPolicy, "sample", "models.policy", self._on_policy)
        self.patch(models.ScriptedRewardModel, "score", "models.prm", self._on_prm)
        self.patch(models.ScriptedAugmentorModel, "generate", "models.augmentor")
        self.patch(models.HashEmbedder, "embed", "models.embed")

        self.patch(augmentors.MemoryStore, "add", "augmentors.add", self._on_add)
        self.patch(augmentors.CompositeAugmentor, "retrieve", "augmentors.retrieve")
        self.patch(augmentors.CompositeAugmentor, "on_step", "augmentors.hook")
        self.patch(augmentors.CompositeAugmentor, "on_trajectory", "augmentors.hook")

        self.patch(search, "expand", "search.expand")
        self.patch(matrix, "run_search", "search.run", self._on_search)
        self.patch(matrix, "_run_cell_task", UNIT)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- hooks -------------------------------------------------------------

    def _on_step(self, args, result) -> None:
        _, obs = result
        with self._lock:
            self.counts["envs.steps"] += 1
            self.counts["envs.errors"] += obs.is_error

    def _on_policy(self, args, result) -> None:
        _, task, prefix, bundle, temperature, _seed = args
        if temperature <= 0.0:
            self.note_repeat("models.policy", (task.task_id, tuple(prefix), bundle.rendered))
        else:
            self.count("models.policy.keyed")

    def _on_prm(self, args, result) -> None:
        _, task_prompt, prefix, candidate = args
        self.note_repeat("models.prm", (task_prompt, tuple(prefix), candidate))

    def _on_add(self, args, result) -> None:
        store = args[0]
        with self._lock:
            self.counts["augmentors.add.stored"] += bool(result)
            self.counts["augmentors.store.max_units"] = max(
                self.counts["augmentors.store.max_units"], len(store)
            )

    def _on_search(self, args, result) -> None:
        trajectories = result.trajectories
        self.count("search.trajectories", len(trajectories))
        self.count("search.distinct_trajectories", len({t.steps for t in trajectories}))

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, summed duration, summed self time)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, _, start, end in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += (end - start) - covered
        return {name: tuple(v) for name, v in out.items()}

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: id, name, parent id (-1 for none), start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart\tend\n")
            for sid, name, parent, start, end in sorted(self.spans):
                parent = -1 if parent is None else parent
                fh.write(f"{sid}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")


def layer_metrics(tracer: Tracer, jobs: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, split into (counts, times)."""
    st = tracer.self_times()
    c = tracer.counts

    def calls(name: str) -> int:
        return st.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names: str) -> float:
        return sum(st.get(n, (0, 0.0, 0.0))[2] for n in names)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = {
        "envs.step.calls": calls("envs.step"),
        "envs.fork.calls": calls("envs.fork"),
        "envs.query.calls": c["envs.query.calls"],
        "envs.error_share": share(c["envs.errors"], c["envs.steps"]),
        "models.policy.calls": calls("models.policy"),
        "models.policy.repeat_share": share(c["models.policy.repeats"], c["models.policy.keyed"]),
        "models.prm.calls": calls("models.prm"),
        "models.prm.repeat_share": share(c["models.prm.repeats"], c["models.prm.keyed"]),
        "models.augmentor.calls": calls("models.augmentor"),
        "models.embed.calls": calls("models.embed"),
        "augmentors.add.calls": calls("augmentors.add"),
        "augmentors.add.stored_share": share(c["augmentors.add.stored"], calls("augmentors.add")),
        "augmentors.store.max_units": c["augmentors.store.max_units"],
        "augmentors.retrieve.calls": calls("augmentors.retrieve"),
        "search.units": calls("search.run"),
        "search.expand.calls": calls("search.expand"),
        "search.trajectories": c["search.trajectories"],
        "search.distinct_traj_share": share(
            c["search.distinct_trajectories"], c["search.trajectories"]
        ),
    }
    unit_busy = st.get(UNIT, (0, 0.0, 0.0))[1]
    times = {
        "envs.step.self_s": self_s("envs.step"),
        "models.policy.self_s": self_s("models.policy"),
        "models.prm.self_s": self_s("models.prm"),
        "models.augmentor.self_s": self_s("models.augmentor"),
        "models.embed.self_s": self_s("models.embed"),
        "augmentors.add.self_s": self_s("augmentors.add"),
        "augmentors.retrieve.self_s": self_s("augmentors.retrieve"),
        "search.self_s": self_s("search.run", "search.expand"),
        "matrix.self_s": self_s(ROOT, UNIT),
        "matrix.busy_share": share(unit_busy, jobs * st.get(ROOT, (0, 0.0, 0.0))[1]),
        "stats.analyze_s": self_s("stats.analyze"),
        "stats.report_s": self_s("stats.report"),
        "trace.hook_s": self_s(HOOK),
    }
    layers = dict.fromkeys(sorted(set(LAYER_OF.values())) + [HOOK], 0.0)
    for name, (_, _, own) in st.items():
        layers[LAYER_OF.get(name, HOOK)] += own
    total = sum(layers.values())
    for layer, own in layers.items():
        times[f"layer.{layer}.self_share"] = share(own, total)
    return counts, times


def median_times(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
