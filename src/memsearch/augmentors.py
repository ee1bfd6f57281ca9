"""Memory augmentors on the scope x abstraction grid.

Each augmentor follows the same four-stage pipeline: an invocation trigger,
an analysis transform (possibly a model call), a persistence predicate, and
retrieval/injection into the policy prompt.  Sibling context is ephemeral
and costs zero model calls; reflections and facts persist across
trajectories in a per-task MemoryStore.  Injection targets the policy
prompt only; reward model inputs never include bundle text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .core import (
    Abstraction,
    ContextBundle,
    ContextUnit,
    EMPTY_BUNDLE,
    Scope,
    Step,
    Trajectory,
    atomic_write,
    extend_bundle,
    is_number,
    step_text,
)
from .models import EXTRACT_FACTS, REFLECT, AugmentorModel, Embedder, cosine

if TYPE_CHECKING:
    import numpy as np

REFLECTION_THRESHOLD = 0.3
DEDUP_THRESHOLD = 0.9
# A vectorized similarity within this distance of the dedup threshold is
# re-checked with the per-pair cosine before it decides anything.
EXACT_MARGIN = 1e-9


class AugmentorKind(str, Enum):
    NONE = "none"
    RAW_SIBLING = "raw_sibling"
    REFLECTION = "reflection"
    FACT = "fact"


class FactMode(str, Enum):
    INCREMENTAL = "incremental"  # per step, used under beam and MCTS
    BATCH = "batch"  # per trajectory, used under best-of-N


class AugmentorError(Exception):
    """An augmentor model call failed; the experiment cell must abort."""


def _check_dedup_threshold(value: object) -> None:
    """Raise ValueError unless `value` is a number in (0, 1], a usable dedup threshold."""
    if not is_number(value):
        raise ValueError(f"dedup_threshold must be a number, got {value!r}")
    if not 0.0 < value <= 1.0:
        raise ValueError("dedup threshold outside (0, 1]")


@dataclass(frozen=True)
class AugmentorConfig:
    kind: AugmentorKind
    reflection_threshold: float = REFLECTION_THRESHOLD
    fact_mode: FactMode = FactMode.BATCH
    dedup_threshold: float = DEDUP_THRESHOLD

    def __post_init__(self) -> None:
        if not is_number(self.reflection_threshold):
            raise ValueError(
                f"reflection_threshold must be a number, got {self.reflection_threshold!r}"
            )
        if not 0.0 <= self.reflection_threshold <= 1.0:
            raise ValueError("reflection threshold outside [0, 1]")
        _check_dedup_threshold(self.dedup_threshold)


class MemoryStore:
    """Per-task store of persistent context units.

    The store only grows; nothing is evicted within a task.  Fact units are
    deduplicated at write time: a fact whose embedding has cosine similarity
    at or above dedup_threshold with any stored fact is dropped, so stored
    facts are pairwise dissimilar below the threshold.  The threshold must be
    a number in (0, 1], as in `AugmentorConfig`; anything else raises
    ValueError here, and what follows holds for every threshold in that
    range.

    The check is vectorized: stored fact embeddings are kept as rows of an
    (n, dim) array with amortized growth, next to their norms, and a new fact
    is scored against all of them with one matrix-vector product,
    (facts @ vec) / (norms * |vec|), where a zero denominator scores 0.0 as
    in `cosine`.  Reflections stay out of the array.  The denominators are
    the ones `cosine` computes; only the dot products may round differently,
    by about dim * 2**-53 at most, since each cosine term is bounded by the
    norms.  Every similarity within EXACT_MARGIN of the threshold, or not
    finite, is therefore re-checked with `cosine` on the two embeddings, so
    for float64 embeddings (what `hash_embed` returns) each keep/drop
    decision is the one a per-pair loop over the stored facts would make.

    A new fact costs one product v.v besides the matrix-vector product.  v.v
    gives both the norm and the numerator of the self-similarity below: for
    a float64 embedding `np.linalg.norm(v)` is sqrt(v.v), and a square root
    is correctly rounded in numpy as in `math` (other dtypes still go
    through `np.linalg.norm`).  The store keeps its smallest stored norm.
    When |vec| times it is above 0, no denominator is 0 (rounding is
    monotone), so the plain quotient gives the zero-filled one's values;
    only a zero or NaN norm, or a product that underflows, takes the masked
    divide.

    The scan looks at the largest similarity first.  Rounding is monotone,
    so max(sims) - threshold is the largest gap: more than EXACT_MARGIN above
    0 means some fact is a duplicate, more than EXACT_MARGIN below means none
    is, and only a near or NaN maximum takes the full check.

    The store counts its settled facts: float64 ones stored with a
    self-similarity (v.v) / (|v| |v|) = `cosine(v, v)` more than EXACT_MARGIN
    above the threshold, so the per-pair loop, and with it the scan, drops a
    repeat of one on its stored copy (for float64 only, so no other dtype
    settles).

    The store keeps its last bundle and, on the next `bundle()` call after a
    store, extends it by the units stored since (`extend_bundle`), so a unit
    that sorts after the stored ones (the usual case: units arrive in
    source-iteration order) costs its own line, not a render of the whole
    store; retrieval without ephemeral units renders nothing between writes.

    The fact index (the array and the norms) is allocated by the first
    stored fact, and numpy is imported only on the fact path, so a store
    that holds only reflections never loads it.
    """

    def __init__(self, dedup_threshold: float = DEDUP_THRESHOLD):
        _check_dedup_threshold(dedup_threshold)
        self.dedup_threshold = dedup_threshold
        self._units: list[ContextUnit] = []
        self._facts: list[ContextUnit] = []
        # fact embeddings and their norms, allocated by the first stored fact;
        # rows [:len(self._facts)] are in use
        self._matrix: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._min_norm = math.inf  # of the stored facts; NaN once a NaN norm is stored
        self._settled = 0  # stored facts whose repeat is dropped
        self._bundle = EMPTY_BUNDLE  # render_bundle of the first len(self._bundle.units) units

    def __len__(self) -> int:
        return len(self._units)

    @property
    def units(self) -> tuple[ContextUnit, ...]:
        return tuple(self._units)

    def add(self, unit: ContextUnit) -> bool:
        """Store a persistent unit.  Returns False if dropped as a duplicate."""
        if not unit.persistent:
            raise ValueError("memory store holds persistent units only")
        if unit.abstraction is Abstraction.FACT:
            import numpy as np

            vec = np.asarray(unit.embedding)
            sq = vec.dot(vec)
            f64 = vec.dtype == np.float64
            norm = math.sqrt(sq) if f64 else float(np.linalg.norm(vec))
            if self._is_duplicate(vec, norm):
                return False
            self._append_fact(unit, vec, norm)
            if f64 and norm and float(sq) / (norm * norm) - self.dedup_threshold > EXACT_MARGIN:
                self._settled += 1
        self._units.append(unit)
        return True

    def bundle(self) -> ContextBundle:
        """The rendered bundle of the stored units, extended only after a store."""
        made = len(self._bundle.units)
        if made < len(self._units):
            self._bundle = extend_bundle(self._bundle, self._units[made:])
        return self._bundle

    def _is_duplicate(self, vec: np.ndarray, norm: float) -> bool:
        n = len(self._facts)
        if n == 0:
            return False
        import numpy as np

        dots = self._matrix[:n] @ vec
        denom = self._norms[:n] * norm
        if norm * self._min_norm > 0.0:  # every denominator is at least this product
            sims = dots / denom
        else:
            sims = np.zeros(n)
            np.divide(dots, denom, out=sims, where=denom != 0.0)
        top = sims.max() - self.dedup_threshold
        if top > EXACT_MARGIN:
            return True
        if top < -EXACT_MARGIN:
            return False
        gap = sims - self.dedup_threshold
        if (gap > EXACT_MARGIN).any():
            return True
        near = np.flatnonzero(~(np.abs(gap) > EXACT_MARGIN))
        return any(
            cosine(vec, np.asarray(self._facts[i].embedding)) >= self.dedup_threshold
            for i in near
        )

    def _append_fact(self, unit: ContextUnit, vec: np.ndarray, norm: float) -> None:
        import numpy as np

        n = len(self._facts)
        if self._norms is None or n == len(self._norms):
            matrix = np.empty((max(16, 2 * n), vec.size))
            norms = np.empty(len(matrix))
            if n:
                matrix[:n] = self._matrix
                norms[:n] = self._norms
            self._matrix, self._norms = matrix, norms
        self._matrix[n] = vec
        self._norms[n] = norm
        if norm < self._min_norm or math.isnan(norm):
            self._min_norm = norm
        self._facts.append(unit)

    def dump(self, path: str | Path) -> None:
        """Write one structured record per unit, line-delimited, with `atomic_write`."""
        lines = [
            json.dumps(
                {
                    "scope": u.scope.value,
                    "abstraction": u.abstraction.value,
                    "body": u.body,
                    "source_iteration": u.source_iteration,
                },
                sort_keys=True,
            )
            + "\n"
            for u in self._units
        ]
        atomic_write(Path(path), "".join(lines))


def sibling_context(prior_siblings: Sequence[Step]) -> list[ContextUnit]:
    """Raw cross-sibling units for the executed siblings of the current node.

    Pure formatting; performs no model calls.  Sibling i receives exactly
    the i records of siblings 0..i-1.
    """
    units = []
    for step in prior_siblings:
        tag = "error" if step.observation.is_error else "ok"
        body = (
            f"tried {step.action.tool_name}|{step.action.arguments} "
            f"-> [{tag}] {step.observation.content}"
        )
        units.append(
            ContextUnit(
                scope=Scope.CROSS_SIBLING,
                abstraction=Abstraction.RAW,
                body=body,
                source_iteration=0,
                persistent=False,
            )
        )
    return units


def maybe_reflect(
    trajectory: Trajectory, model: AugmentorModel, threshold: float = REFLECTION_THRESHOLD
) -> ContextUnit | None:
    """Produce one reflection unit iff the trajectory scored strictly below threshold."""
    if trajectory.trajectory_score >= threshold:
        return None
    try:
        body = model.generate(REFLECT, trajectory.text)
    except Exception as exc:
        raise AugmentorError(f"reflection model call failed: {exc}") from exc
    return ContextUnit(
        scope=Scope.CROSS_TRAJECTORY,
        abstraction=Abstraction.REFLECTION,
        body=body,
        source_iteration=trajectory.iteration_index,
        persistent=True,
    )


def extract_facts(
    text: str,
    iteration: int,
    model: AugmentorModel,
    embedder: Embedder,
    store: MemoryStore,
) -> int:
    """Extract facts from trajectory or step text and store the novel ones.

    Returns the number of facts actually stored.  Dedup happens at write
    time, including against facts emitted earlier in the same call.  Each
    line of the model's answer is embedded and offered to `store.add`, on
    every call; `CompositeAugmentor` skips the lines of an answer it knows
    can store nothing.
    """
    return _add_facts(_answer_facts(model, text), iteration, embedder, store)[0]


def _answer_facts(model: AugmentorModel, text: str) -> str:
    try:
        return model.generate(EXTRACT_FACTS, text)
    except Exception as exc:
        raise AugmentorError(f"fact extraction model call failed: {exc}") from exc


def _add_facts(
    answer: str, iteration: int, embedder: Embedder, store: MemoryStore
) -> tuple[int, bool]:
    """Offer each non-blank line of `answer` to `store` as a fact.  Returns
    how many were stored and whether the answer is spent: whether the store
    now drops a repeat of each line.  It does for a dropped line, since the
    fact it matched stays stored, and for a stored one that the add counted
    as settled."""
    stored, spent = 0, True
    for line in answer.splitlines():
        line = line.strip()
        if not line:
            continue
        unit = ContextUnit(
            scope=Scope.CROSS_TRAJECTORY,
            abstraction=Abstraction.FACT,
            body=line,
            source_iteration=iteration,
            persistent=True,
            embedding=embedder.embed(line),
        )
        settled = store._settled
        if store.add(unit):
            stored += 1
            spent = spent and store._settled > settled
    return stored, spent


def retrieve(store: MemoryStore, ephemeral: Sequence[ContextUnit] = ()) -> ContextBundle:
    """Inject-all retrieval: every persistent unit plus the ephemeral ones,
    the store's bundle extended by the ephemeral units."""
    return extend_bundle(store.bundle(), ephemeral)


class CompositeAugmentor:
    """The active augmentor set for one task run.

    Search code drives it through three hooks: retrieve() before each policy
    call, on_step() after each executed step (incremental fact extraction),
    and on_trajectory() after each completed trajectory (reflection and
    batch fact extraction).  Sibling units are not handled here; search
    passes them as ephemeral units since they exist only inside a single
    expansion.

    Fact extraction is `extract_facts`, bar one saving.  The composite
    remembers each fact answer that is spent (`_add_facts`): each line was
    dropped, or stored as a settled fact.  The store only grows, so what
    decided either stays stored, and `embed` is a function of its text (the
    `Embedder` protocol asks that), so each line of a repeat of that answer
    embeds as before and is dropped.  A repeat (MCTS extracts the same
    listing at every expansion) is still generated and billed, but is not
    split, embedded or offered to the store, which ends as if it were.
    """

    def __init__(
        self,
        configs: Sequence[AugmentorConfig],
        store: MemoryStore,
        model: AugmentorModel | None = None,
        embedder: Embedder | None = None,
    ):
        kinds = [c.kind for c in configs if c.kind is not AugmentorKind.NONE]
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"duplicate augmentor kinds in composition: {[k.value for k in kinds]}")
        self.configs = {c.kind: c for c in configs if c.kind is not AugmentorKind.NONE}
        self.store = store
        self.model = model
        self.embedder = embedder
        for kind in (AugmentorKind.REFLECTION, AugmentorKind.FACT):
            if kind in self.configs and self.model is None:
                raise ValueError(f"{kind.value} augmentor needs an augmentor model")
        if AugmentorKind.FACT in self.configs and self.embedder is None:
            raise ValueError("fact augmentor needs an embedder")
        fact_cfg = self.configs.get(AugmentorKind.FACT)
        # whether on_step can write memory; if not, the bundle cannot change
        # before the trajectory ends
        self.writes_on_step = fact_cfg is not None and fact_cfg.fact_mode is FactMode.INCREMENTAL
        self._spent: set[str] = set()  # fact answers that can store nothing more

    @property
    def wants_siblings(self) -> bool:
        return AugmentorKind.RAW_SIBLING in self.configs

    def retrieve(self, ephemeral: Sequence[ContextUnit] = ()) -> ContextBundle:
        return retrieve(self.store, ephemeral)

    def _extract_facts(self, text: str, iteration: int) -> None:
        answer = _answer_facts(self.model, text)
        if answer not in self._spent and _add_facts(answer, iteration, self.embedder, self.store)[1]:
            self._spent.add(answer)

    def on_step(self, step: Step, iteration: int) -> None:
        if not self.writes_on_step:
            return
        self._extract_facts(step_text(step), iteration)

    def on_trajectory(self, trajectory: Trajectory) -> None:
        fact_cfg = self.configs.get(AugmentorKind.FACT)
        if fact_cfg is not None and fact_cfg.fact_mode is FactMode.BATCH:
            self._extract_facts(trajectory.text, trajectory.iteration_index)
        refl_cfg = self.configs.get(AugmentorKind.REFLECTION)
        if refl_cfg is not None:
            unit = maybe_reflect(trajectory, self.model, refl_cfg.reflection_threshold)
            if unit is not None:
                self.store.add(unit)


def compose(
    configs: Sequence[AugmentorConfig],
    store: MemoryStore | None = None,
    model: AugmentorModel | None = None,
    embedder: Embedder | None = None,
) -> CompositeAugmentor:
    """Build the composite for a task run; duplicate kinds are a config error.

    Without a store, a new one is made with the fact config's dedup
    threshold (the default if there is no fact augmentor).
    """
    if store is None:
        store = MemoryStore(
            next(
                (c.dedup_threshold for c in configs if c.kind is AugmentorKind.FACT),
                DEDUP_THRESHOLD,
            )
        )
    return CompositeAugmentor(configs, store, model, embedder)


def normalize_for_method(configs: Sequence[AugmentorConfig], method: str) -> tuple[AugmentorConfig, ...]:
    """Pin the fact trigger to the search method: incremental extraction under
    expansion-based methods, one batch call per trajectory under best-of-N."""
    mode = FactMode.BATCH if method == "best_of_n" else FactMode.INCREMENTAL
    return tuple(
        replace(c, fact_mode=mode) if c.kind is AugmentorKind.FACT else c for c in configs
    )
