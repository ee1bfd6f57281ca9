"""Model adapters: scripted stand-ins, the hash embedder, and a remote chat client.

Scripted models make whole search runs reproducible from a seed: the policy
is a branch table keyed on (step index, rendered-context match), the reward
model is an ordered rule list, and the augmentor model is a template/regex
engine.  They bill deterministic whitespace token counts, so cost
accounting runs without a network.  Every model bills every call, to the
Telemetry it is given or else to one of its own.
"""

from __future__ import annotations

import json
import math
import random
import re
import string
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from .core import (
    FINAL_ANSWER,
    Action,
    ConfigurationError,
    ContextBundle,
    Step,
    Task,
    Telemetry,
    _count_tokens,
    checked,
    is_int,
    is_number,
    known,
    stable_hash,
    trajectory_text,
)

if TYPE_CHECKING:
    import numpy as np


class CredentialError(Exception):
    """The remote endpoint rejected our credentials; never retried."""


class TransportError(Exception):
    """The remote endpoint was unreachable after the configured retries."""


class PolicyModel(Protocol):
    def sample(
        self, task: Task, prefix: Sequence[Step], bundle: ContextBundle, temperature: float, seed: int
    ) -> Action: ...


class RewardModel(Protocol):
    def score(self, task_prompt: str, prefix: Sequence[Step], candidate: Step) -> float: ...


class AugmentorModel(Protocol):
    def generate(self, instruction: str, text: str) -> str: ...


class Embedder(Protocol):
    def embed(self, text: str) -> np.ndarray: ...


# ---------------------------------------------------------------------------
# scripted policy


# precedence of a policy rule's match kind: exact fingerprint > substring > default
_FINGERPRINT, _CONTAINS, _DEFAULT = 0, 1, 2


@dataclass(frozen=True)
class PolicyRule:
    """One policy rule, its match spec and candidates split out once, when it is made."""

    step: int
    match: str  # "*", "contains:<text>" or "fp:<hex>"
    candidates: tuple[tuple[str, float], ...]  # (action template, weight), sorted
    kind: int = field(init=False, compare=False, repr=False)
    operand: str = field(init=False, compare=False, repr=False)
    templates: list[str] = field(init=False, compare=False, repr=False)
    weights: list[float] = field(init=False, compare=False, repr=False)
    best: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.match.startswith("fp:"):
            kind = _FINGERPRINT
        elif self.match.startswith("contains:"):
            kind = _CONTAINS
        elif self.match == "*":
            kind = _DEFAULT
        else:
            raise ConfigurationError(f"bad policy match spec: {self.match!r}")
        weights = [w for _, w in self.candidates]
        # argmax weight; candidates are sorted, so ties break lexicographically
        best = self.candidates[max(range(len(weights)), key=weights.__getitem__)][0]
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "operand", self.match.partition(":")[2])
        object.__setattr__(self, "templates", [t for t, _ in self.candidates])
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "best", best)


@dataclass(frozen=True)
class ScriptedPolicyConfig:
    rules: tuple[PolicyRule, ...]
    apology_text: str = "I cannot find the answer."
    apology_collapse_prob: float = 0.0
    # step index -> its rules in precedence order: by match kind, then by
    # position in rules; set once here
    rules_at: dict[int, list[PolicyRule]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        rules_at: dict[int, list[PolicyRule]] = {}
        for rule in sorted(self.rules, key=lambda rule: rule.kind):
            rules_at.setdefault(rule.step, []).append(rule)
        object.__setattr__(self, "rules_at", rules_at)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScriptedPolicyConfig":
        keys = {"kind", "rules", "apology_text", "apology_collapse_prob"}  # matrix reads kind
        known(raw, keys, "policy", "scripted policy")
        rules = []
        for i, r in enumerate(raw.get("rules", ())):
            where = f"policy rule {i}"
            known(checked(r, dict, where), {"step", "match", "candidates"}, "rule", where)
            step = r["step"]
            if not is_int(step) or step < 0:
                raise ConfigurationError(
                    f"policy rule {i}: step must be an integer >= 0, got {step!r}"
                )
            cands = tuple(sorted(r["candidates"].items()))
            if not cands:
                raise ConfigurationError(f"policy rule {i} at step {step} has no candidates")
            for template, weight in cands:
                if not is_number(weight) or not 0.0 <= weight < math.inf:
                    raise ConfigurationError(
                        f"policy rule {i} at step {step}: weight of {template!r} must be "
                        f"a finite number >= 0, got {weight!r}"
                    )
            if not 0.0 < sum(w for _, w in cands) < math.inf:
                raise ConfigurationError(
                    f"policy rule {i} at step {step}: candidate weights must sum to a "
                    "finite number above 0"
                )
            rules.append(PolicyRule(step=step, match=r.get("match", "*"), candidates=cands))
        prob = checked(raw.get("apology_collapse_prob", 0.0), float, "apology_collapse_prob")
        if not 0.0 <= prob <= 1.0:
            raise ConfigurationError(f"apology_collapse_prob {prob} outside [0, 1]")
        return cls(
            rules=tuple(rules),
            apology_text=checked(raw.get("apology_text", cls.apology_text), str, "apology_text"),
            apology_collapse_prob=prob,
        )


class ScriptedPolicy:
    """Deterministic branch-table policy.

    Rule selection for a call at step index i picks, among the rules with
    step == i, the first whose match applies, with fingerprint matches
    taking precedence over substring matches over the default.  A missing
    rule falls back to the configured apology.  The collapse branch models
    sampling-induced give-up: after an error observation, at temperature
    above zero, a default-matched rule apologizes with probability
    apology_collapse_prob instead of sampling its candidates.

    A draw reads the task, the step index, the bundle's rendered text and
    fingerprint, the last observation and, above temperature 0, the seed.
    So the class declares itself `deterministic_at_zero`: at temperature <=
    0 a call's action, and what it bills, are functions of the task and of
    the content of its prefix and of its bundle's text and fingerprint.
    `billed` is what the last call billed and `rebill` bills it again, so
    the search's step trie can replay a repeated call (`search._take_step`).
    """

    deterministic_at_zero = True

    def __init__(self, config: ScriptedPolicyConfig, telemetry: Telemetry | None = None):
        self.config = config
        self.telemetry = Telemetry() if telemetry is None else telemetry

    def for_unit(self, telemetry: Telemetry) -> "ScriptedPolicy":
        """A policy on this one's config that bills `telemetry`.  Policies on
        one config draw and bill alike, so a task's units can share a trie."""
        return ScriptedPolicy(self.config, telemetry)

    def rebill(self, calls: int, tokens_in: int, tokens_out: int) -> None:
        """Bill `calls` replayed calls as their computations billed, with
        `tokens_in` and `tokens_out` their summed `billed` counts."""
        self.telemetry.add("policy", calls, tokens_in, tokens_out)

    def _pick_rule(self, step_index: int, rendered: str, fingerprint: str) -> PolicyRule | None:
        for rule in self.config.rules_at.get(step_index, ()):
            if rule.kind == _FINGERPRINT and rule.operand != fingerprint:
                continue
            if rule.kind == _CONTAINS and rule.operand not in rendered:
                continue
            return rule
        return None

    def _fill(self, template: str, task: Task, last: str | None) -> str:
        values = dict(task.meta)
        values.setdefault("prompt", task.prompt)
        values.setdefault("task_id", task.task_id)
        values["last_observation"] = last or ""
        try:
            return template.format_map(values)
        except KeyError as exc:
            raise ConfigurationError(f"unknown placeholder {exc} in template {template!r}") from exc

    def check_templates(self, meta_keys: Iterable[str]) -> None:
        """Raise ConfigurationError, naming the rule, unless `_fill` fills every
        template for a task whose meta holds `meta_keys`.  A field that indexes
        or reads an attribute of its value (`{prompt[0]}`) is left to run time,
        since the probe's values are empty."""
        probe = Task("", "", (), "", "", dict.fromkeys(meta_keys, ""))
        for i, rule in enumerate(self.config.rules):
            for template in rule.templates:
                try:
                    self._fill(template, probe, None)
                except ConfigurationError as exc:
                    raise ConfigurationError(f"policy rule {i}: {exc}") from exc
                except ValueError as exc:  # a stray brace, a positional field
                    raise ConfigurationError(
                        f"policy rule {i}: template {template!r} cannot be filled: {exc}"
                    ) from exc
                except (AttributeError, IndexError):
                    pass

    def _apology(self) -> Action:
        text = self.config.apology_text
        return Action(FINAL_ANSWER, text, f"{FINAL_ANSWER}|{text}")

    def sample(
        self, task: Task, prefix: Sequence[Step], bundle: ContextBundle, temperature: float, seed: int
    ) -> Action:
        action = self._draw(task, prefix, bundle, temperature, seed)
        prompt_tokens = (
            task.prompt_tokens
            + bundle.tokens
            + sum(s.action.tokens + s.observation.tokens for s in prefix)
        )
        self.billed = (prompt_tokens, action.tokens)
        self.telemetry.record("policy", prompt_tokens, action.tokens)
        return action

    def _draw(
        self, task: Task, prefix: Sequence[Step], bundle: ContextBundle, temperature: float, seed: int
    ) -> Action:
        step_index, fingerprint = len(prefix), bundle.fingerprint
        last = prefix[-1].observation if prefix else None
        rule = self._pick_rule(step_index, bundle.rendered, fingerprint)
        if rule is None:
            return self._apology()
        if (
            temperature > 0.0
            and rule.kind == _DEFAULT
            and last is not None
            and last.is_error
            and self.config.apology_collapse_prob > 0.0
        ):
            coin = random.Random(stable_hash("collapse", seed, step_index))
            if coin.random() < self.config.apology_collapse_prob:
                return self._apology()

        if temperature <= 0.0:
            template = rule.best
        else:
            rng = random.Random(stable_hash("sample", seed, step_index, fingerprint))
            template = rng.choices(rule.templates, weights=rule.weights, k=1)[0]
        filled = self._fill(template, task, last and last.content)
        tool, _, args = filled.partition("|")
        return Action(tool, args, filled)


# ---------------------------------------------------------------------------
# scripted reward model


@dataclass(frozen=True)
class RewardRule:
    score: float
    tool: str | None = None
    is_error: bool | None = None
    obs_contains: str | None = None
    args_contains: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ConfigurationError(f"reward rule score {self.score} outside [0, 1]")

    def matches(self, tool: str, arguments: str, is_error: bool, content: str) -> bool:
        return (
            (self.tool is None or tool == self.tool)
            and (self.is_error is None or is_error == self.is_error)
            and (self.obs_contains is None or self.obs_contains in content)
            and (self.args_contains is None or self.args_contains in arguments)
        )


# a reward rule's optional probes and their JSON types; null is the same as absent
_REWARD_PROBES = {"tool": str, "is_error": bool, "obs_contains": str, "args_contains": str}


class ScriptedRewardModel:
    """Ordered first-match rule list over (tool, error flag, substrings).

    A rule reads only the candidate's tool, arguments, error flag and
    observation content, the arguments of `RewardRule.matches`, so the
    instance memoizes each candidate's value on those four.  The matrix
    runner builds one instance per (cell, task) unit with `for_unit`, so no
    memo outlives its unit.  A score, and what it bills, are functions of
    the prompt and of the content of the prefix and the candidate, so the
    class declares itself `deterministic_at_zero`, with `billed` and
    `rebill` as on `ScriptedPolicy`.  So a unit scores, through its memo,
    only the steps that no earlier unit of its task computed: the rest it
    replays from the run's step trie, which bills them with `rebill`.
    """

    deterministic_at_zero = True

    def __init__(self, rules: Sequence[RewardRule], default: float, telemetry: Telemetry | None = None):
        if not 0.0 <= default <= 1.0:
            raise ConfigurationError(f"reward rule score {default} outside [0, 1]")
        self.rules = tuple(rules)
        self.default = default
        self.telemetry = Telemetry() if telemetry is None else telemetry
        self._values: dict[tuple[str, str, bool, str], float] = {}

    def for_unit(self, telemetry: Telemetry) -> "ScriptedRewardModel":
        """A reward model with this one's rules that bills `telemetry`, with an
        empty memo.  Models on the same rules score and bill alike, so the
        units of a task can share a step trie."""
        return ScriptedRewardModel(self.rules, self.default, telemetry)

    def rebill(self, calls: int, tokens_in: int, tokens_out: int) -> None:
        """As `ScriptedPolicy.rebill`, for supervisor calls."""
        self.telemetry.add("supervisor", calls, tokens_in, tokens_out)

    @classmethod
    def from_dict(cls, raw: dict, telemetry: Telemetry | None = None) -> "ScriptedRewardModel":
        known(raw, {"rules", "default"}, "reward", "reward model")
        rules = []
        for i, r in enumerate(raw.get("rules", ())):
            where = f"reward rule {i}"
            known(checked(r, dict, where), {"score", *_REWARD_PROBES}, "rule", where)
            score = checked(r["score"], float, f"{where}: score")
            probes = {
                key: checked(r[key], kind, f"{where}: {key}")
                for key, kind in _REWARD_PROBES.items()
                if r.get(key) is not None
            }
            rules.append(RewardRule(score=score, **probes))
        return cls(rules, checked(raw.get("default", 0.5), float, "reward default"), telemetry)

    def score(self, task_prompt: str, prefix: Sequence[Step], candidate: Step) -> float:
        action, obs = candidate.action, candidate.observation
        key = (action.tool_name, action.arguments, obs.is_error, obs.content)
        value = self._values.get(key)
        if value is None:
            rule = next((r for r in self.rules if r.matches(*key)), None)
            value = self._values[key] = self.default if rule is None else rule.score
        tokens_in = (
            _count_tokens(task_prompt)
            + sum(s.action.tokens for s in prefix)
            + candidate.action.tokens
            + candidate.observation.tokens
        )
        self.billed = (tokens_in, 1)
        self.telemetry.record("supervisor", tokens_in, 1)
        return value


# ---------------------------------------------------------------------------
# scripted augmentor model

REFLECT = "REFLECT"
EXTRACT_FACTS = "EXTRACT_FACTS"


@dataclass(frozen=True)
class FactPattern:
    pattern: str
    template: str
    split: str | None = None
    regex: re.Pattern[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "regex", re.compile(self.pattern, re.MULTILINE))


def _check_fact_rule(where: str, rule: FactPattern) -> None:
    """Raise ConfigurationError unless every match of the rule can fill its template.

    `generate` fills the template with exactly as many strings as the
    pattern has groups (a split piece stands in for the first group), so
    each field must be a positional index below that count, written out or
    auto-numbered `{}`.  A trial fill with empty strings then catches what
    the field names do not show: conversions, format specs and the fields
    nested in them.
    """
    if rule.split == "":
        raise ConfigurationError(f"{where}: split must not be empty")
    groups = rule.regex.groups
    if rule.split is not None and groups == 0:
        raise ConfigurationError(f"{where}: a split rule's pattern needs a group to split")
    try:
        fields = string.Formatter().parse(rule.template)
        names = [name for _, name, _, _ in fields if name is not None]
        auto = all(name == "" for name in names)
        for i, name in enumerate(names):
            index = i if auto else int(name) if name.isascii() and name.isdigit() else None
            if index is None:
                raise ValueError(
                    f"field {{{name}}} is not a positional index"
                    if name
                    else "automatic {} and numbered fields are mixed"
                )
            if index >= groups:
                raise ValueError(f"field {{{name}}} needs group {index + 1}")
        rule.template.format(*[""] * groups)
    except (AttributeError, IndexError, KeyError, ValueError) as exc:
        raise ConfigurationError(
            f"{where}: template {rule.template!r} cannot be filled from the pattern's "
            f"{groups} group(s): {exc}"
        ) from exc


class ScriptedAugmentorModel:
    """Template engine for reflection and fact extraction over trajectory text.

    REFLECT returns the first rule text whose `contains` probe occurs in the
    input, else the default reflection.  EXTRACT_FACTS runs each regex over
    the input; every match emits one fact per template (or one per
    `split`-separated piece of the first group), newline-separated.  A match
    in which some group did not take part, such as a skipped optional
    `(...)?` group, emits no fact.

    An answer reads only (instruction, text), so the instance memoizes each
    answer, with its token counts, on that pair, as the reward model
    memoizes its values; it bills a hit as a miss.  The matrix runner builds
    one instance per (cell, task) unit with `for_unit`, so no memo outlives
    its unit.  Unlike the step trie, which the units of a task share for the
    whole run, each unit answers every distinct pair again.
    """

    def __init__(
        self,
        reflection_rules: Sequence[tuple[str, str]],
        reflection_default: str,
        fact_patterns: Sequence[FactPattern],
        telemetry: Telemetry | None = None,
    ):
        self.reflection_rules = tuple(reflection_rules)
        self.reflection_default = reflection_default
        self.fact_patterns = tuple(fact_patterns)
        self.telemetry = Telemetry() if telemetry is None else telemetry
        # (instruction, text) -> (answer, tokens in, tokens out)
        self._answers: dict[tuple[str, str], tuple[str, int, int]] = {}

    def for_unit(self, telemetry: Telemetry) -> "ScriptedAugmentorModel":
        """An augmentor model with this one's rules that bills `telemetry`, with an empty memo."""
        return ScriptedAugmentorModel(
            self.reflection_rules, self.reflection_default, self.fact_patterns, telemetry
        )

    @classmethod
    def from_dict(cls, raw: dict, telemetry: Telemetry | None = None) -> "ScriptedAugmentorModel":
        known(raw, {"reflection", "facts"}, "augmentor", "augmentor model")
        refl = checked(raw.get("reflection", {}), dict, "reflection")
        facts = checked(raw.get("facts", {}), dict, "facts")
        known(refl, {"rules", "default"}, "reflection", "reflection")
        known(facts, {"rules"}, "facts", "facts")
        patterns = []
        for i, p in enumerate(facts.get("rules", ())):
            where = f"fact rule {i}"
            known(checked(p, dict, where), {"pattern", "template", "split"}, "rule", where)
            split = p.get("split")
            rule = FactPattern(
                pattern=checked(p["pattern"], str, f"{where}: pattern"),
                template=checked(p["template"], str, f"{where}: template"),
                split=split if split is None else checked(split, str, f"{where}: split"),
            )
            _check_fact_rule(where, rule)
            patterns.append(rule)
        reflection_rules = []
        for i, r in enumerate(refl.get("rules", ())):
            where = f"reflection rule {i}"
            known(checked(r, dict, where), {"contains", "text"}, "rule", where)
            pair = (checked(r[key], str, f"{where}: {key}") for key in ("contains", "text"))
            reflection_rules.append(tuple(pair))
        default = refl.get("default", "The last attempt failed; reconsider the approach.")
        return cls(
            reflection_rules=reflection_rules,
            reflection_default=checked(default, str, "reflection default"),
            fact_patterns=patterns,
            telemetry=telemetry,
        )

    def generate(self, instruction: str, text: str) -> str:
        answer = self._answers.get((instruction, text))
        if answer is None:
            out = self._compute(instruction, text)
            answer = (out, _count_tokens(text), _count_tokens(out))
            self._answers[instruction, text] = answer
        self.telemetry.record("supervisor", answer[1], answer[2])
        return answer[0]

    def _compute(self, instruction: str, text: str) -> str:
        if instruction == REFLECT:
            out = self.reflection_default
            for probe, reflection in self.reflection_rules:
                if probe in text:
                    out = reflection
                    break
            return " ".join(out.split())  # exactly one line
        if instruction == EXTRACT_FACTS:
            facts: list[str] = []
            for spec in self.fact_patterns:
                for m in spec.regex.finditer(text):
                    groups = m.groups()
                    if None in groups:
                        continue
                    if spec.split is not None:
                        for piece in groups[0].split(spec.split):
                            piece = piece.strip()
                            if piece:
                                facts.append(spec.template.format(piece, *groups[1:]))
                    else:
                        facts.append(spec.template.format(*groups))
            return "\n".join(facts)
        raise ConfigurationError(f"unknown augmentor instruction: {instruction!r}")


# ---------------------------------------------------------------------------
# embeddings


MIN_EMBED_DIM = 8


def hash_embed(text: str, dim: int = 64) -> np.ndarray:
    """Deterministic signed feature-hash embedding, L2-normalized.

    Features are lowercased word unigrams and bigrams, so the embedding is
    invariant to leading/trailing/duplicate whitespace.  Empty text maps to
    the first basis vector.
    """
    return _feature_hash(text, dim, {})


def _feature_hash(text: str, dim: int, features: dict[str, tuple[int, float]]) -> np.ndarray:
    """hash_embed, with `features` as the memo of each n-gram's (index, sign) at this dim.

    An n-gram is hashed, as `stable_hash("embed", gram)`, on its first
    sighting in the memo only.  Every coordinate is a sum of +-1.0 terms,
    exact in float64, so the vector is the same bits whatever the memo
    holds, and its squared norm v.v is exact: the norm is its square root,
    which is what `np.linalg.norm` computes.
    """
    import numpy as np

    if dim < MIN_EMBED_DIM:
        raise ValueError(f"embedding dim {dim} too small, need >= {MIN_EMBED_DIM}")
    tokens = text.lower().split()
    acc = [0.0] * dim
    for gram in tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]:
        feature = features.get(gram)
        if feature is None:
            h = stable_hash("embed", gram)
            feature = features[gram] = (h % dim, 1.0 if (h >> 32) & 1 else -1.0)
        acc[feature[0]] += feature[1]
    vec = np.array(acc, dtype=np.float64)
    sq = vec.dot(vec)
    if sq == 0.0:  # empty text, or every feature cancelled out
        vec[0] = 1.0
        return vec
    return vec / math.sqrt(sq)


class HashEmbedder:
    """`hash_embed` at a fixed dim, memoized by text for the life of the instance.

    The matrix runner builds one embedder per run (per `run_matrix` call) and
    hands it to every (cell, task) unit, so a line extracted again, in the
    same task (MCTS re-extracts the same listing at every expansion) or in
    another unit of the run, is hashed once; with forked workers each worker
    fills its own copy.  The memo is bounded by the run's distinct fact
    lines.  The n-grams of new lines are memoized the same way: fact lines
    share most of their words, and each distinct n-gram is hashed once per
    instance.  Sharing is exact: `_feature_hash` gives the same bits
    whatever the memo holds, and memoized arrays are read-only, so a caller
    cannot change what later callers receive.  numpy is imported by the
    first embedding, not with the module, so code that never embeds (config
    loading, admissibility, analysis, runs without fact memory) never loads
    it.
    """

    def __init__(self, dim: int = 64):
        self.dim = dim
        self._memo: dict[str, np.ndarray] = {}
        self._features: dict[str, tuple[int, float]] = {}

    def embed(self, text: str) -> np.ndarray:
        vec = self._memo.get(text)
        if vec is None:
            vec = _feature_hash(text, self.dim, self._features)
            vec.flags.writeable = False
            self._memo[text] = vec
        return vec


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    import numpy as np

    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


# ---------------------------------------------------------------------------
# remote chat client


@dataclass(frozen=True)
class RemoteChatConfig:
    url: str
    model: str
    api_key: str | None = None
    max_retries: int = 3
    timeout: float = 30.0
    retry_delay: float = 0.0

    def __post_init__(self) -> None:
        if not is_int(self.max_retries) or self.max_retries < 1:
            raise ConfigurationError(
                f"max_retries must be an integer >= 1, got {self.max_retries!r}"
            )


# HTTP statuses that mean "try again later": rate limited, service unavailable
_TRANSIENT_STATUS = frozenset({429, 503})


class RemoteChatClient:
    """Minimal OpenAI-style chat completion client over stdlib urllib.

    Makes at most max_retries attempts.  Transport failures, unparseable
    responses and the transient statuses 429 and 503 are retried, waiting
    retry_delay before the second attempt and twice as long before each
    later one.  A 401 is a credential error and any other HTTP error a
    configuration error; neither is retried.  Usage numbers from the
    response are billed to its Telemetry as policy calls.  The
    HTTP stack (`urllib.request`, `http.client`) is imported by the first
    request, not with the module.
    """

    def __init__(self, config: RemoteChatConfig, telemetry: Telemetry | None = None):
        self.config = config
        self.telemetry = Telemetry() if telemetry is None else telemetry

    def complete(self, messages: list[dict[str, str]], temperature: float = 0.0) -> str:
        import urllib.error
        import urllib.request

        payload = json.dumps(
            {"model": self.config.model, "messages": messages, "temperature": temperature}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        last_exc: Exception | None = None
        for attempt in range(self.config.max_retries):
            try:
                req = urllib.request.Request(self.config.url, data=payload, headers=headers)
                with urllib.request.urlopen(req, timeout=self.config.timeout) as resp:
                    body = json.loads(resp.read().decode("utf-8"))
                return self._ingest(body)
            except urllib.error.HTTPError as exc:
                if exc.code == 401:
                    raise CredentialError("remote endpoint rejected credentials (401)") from exc
                if exc.code not in _TRANSIENT_STATUS:
                    detail = exc.read().decode("utf-8", errors="replace")
                    raise ConfigurationError(
                        f"remote endpoint returned {exc.code}: {detail}"
                    ) from exc
                exc.close()
                last_exc = exc
            except (urllib.error.URLError, TimeoutError, ConnectionError, json.JSONDecodeError) as exc:
                last_exc = exc
            if attempt + 1 < self.config.max_retries and self.config.retry_delay > 0:
                time.sleep(self.config.retry_delay * 2**attempt)
        raise TransportError(
            f"remote endpoint failed after {self.config.max_retries} attempts: {last_exc}"
        ) from last_exc

    def _ingest(self, body: dict) -> str:
        try:
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage", {})
            tokens_in = int(usage.get("prompt_tokens", 0))
            tokens_out = int(usage.get("completion_tokens", 0))
        except (KeyError, IndexError, TypeError) as exc:
            raise ConfigurationError(f"malformed chat completion response: {body!r}") from exc
        self.telemetry.record("policy", tokens_in, tokens_out)
        return text


_TOOL_CALL = re.compile(r"^[A-Z][A-Z_]*\|")


class RemotePolicy:
    """Adapter exposing a RemoteChatClient as a PolicyModel.

    The response text is kept verbatim as the action's raw_text.  A first
    line of the form TOOL|arguments is parsed as a tool call; anything else
    is treated as a submitted final answer.
    """

    def __init__(self, client: RemoteChatClient):
        self.client = client

    def sample(
        self, task: Task, prefix: Sequence[Step], bundle: ContextBundle, temperature: float, seed: int
    ) -> Action:
        parts = [task.prompt]
        if bundle.rendered:
            parts.append(bundle.rendered)
        if prefix:
            parts.append(trajectory_text(prefix))
        messages = [
            {"role": "system", "content": "Respond with a single TOOL|arguments line."},
            {"role": "user", "content": "\n\n".join(parts)},
        ]
        text = self.client.complete(messages, temperature=temperature)
        first_line = text.strip().splitlines()[0] if text.strip() else ""
        if _TOOL_CALL.match(first_line):
            tool, _, args = first_line.partition("|")
            return Action(tool, args, text)
        return Action(FINAL_ANSWER, text.strip(), text)

