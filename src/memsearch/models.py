"""Model adapters: scripted stand-ins, the hash embedder, and a remote chat client.

Scripted models make whole search runs reproducible from a seed: the policy
is a branch table keyed on (step index, rendered-context match), the reward
model is an ordered rule list, and the augmentor model is a template/regex
engine.  All of them report deterministic whitespace token counts into
Telemetry so cost accounting can be exercised without a network.
"""

from __future__ import annotations

import json
import math
import random
import re
import string
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

from .core import (
    FINAL_ANSWER,
    Action,
    ContextBundle,
    Step,
    Task,
    Telemetry,
    _count_tokens,
    is_int,
    is_number,
    stable_hash,
    stable_hasher,
    trajectory_text,
)

if TYPE_CHECKING:
    import numpy as np


class ConfigurationError(Exception):
    """A script or client config is malformed; raised eagerly at load time."""


def _number(value: object, what: str) -> float:
    """`value` as a float if it is a JSON number; else a ConfigurationError naming `what`."""
    if not is_number(value):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _string(value: object, what: str) -> str:
    """`value` if it is a string; else a ConfigurationError naming `what`."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{what} must be a string, got {value!r}")
    return value


def _optional_string(value: object, what: str) -> str | None:
    return None if value is None else _string(value, what)


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


@dataclass(frozen=True)
class PolicyRule:
    step: int
    match: str  # "*", "contains:<text>" or "fp:<hex>"
    candidates: tuple[tuple[str, float], ...]  # (action template, weight)


def _match_kind(match: str) -> int:
    # precedence: exact fingerprint > substring > default
    if match.startswith("fp:"):
        return 0
    if match.startswith("contains:"):
        return 1
    if match == "*":
        return 2
    raise ConfigurationError(f"bad policy match spec: {match!r}")


@dataclass(frozen=True)
class ScriptedPolicyConfig:
    rules: tuple[PolicyRule, ...]
    apology_text: str = "I cannot find the answer."
    apology_collapse_prob: float = 0.0

    @classmethod
    def from_dict(cls, raw: dict) -> "ScriptedPolicyConfig":
        rules = []
        for i, r in enumerate(raw.get("rules", ())):
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
            rule = PolicyRule(step=step, match=r.get("match", "*"), candidates=cands)
            _match_kind(rule.match)  # validate eagerly
            rules.append(rule)
        prob = _number(raw.get("apology_collapse_prob", 0.0), "apology_collapse_prob")
        if not 0.0 <= prob <= 1.0:
            raise ConfigurationError(f"apology_collapse_prob {prob} outside [0, 1]")
        return cls(
            rules=tuple(rules),
            apology_text=_string(raw.get("apology_text", cls.apology_text), "apology_text"),
            apology_collapse_prob=prob,
        )


@dataclass(frozen=True)
class _Choices:
    """A policy rule's candidates, split once: the templates, their weights
    and the argmax template, plus whether the rule is the default match."""

    templates: list[str]
    weights: list[float]
    best: str
    default: bool

    @classmethod
    def of(cls, rule: PolicyRule, default: bool) -> "_Choices":
        templates = [t for t, _ in rule.candidates]
        weights = [w for _, w in rule.candidates]
        # argmax weight; candidates are pre-sorted so ties break lexicographically
        best = templates[max(range(len(weights)), key=weights.__getitem__)]
        return cls(templates, weights, best, default)


class ScriptedPolicy:
    """Deterministic branch-table policy.

    Rule selection for a call at step index i picks, among the rules with
    step == i, the first whose match applies, with fingerprint matches
    taking precedence over substring matches over the default.  A missing
    rule falls back to the configured apology.  The collapse branch models
    sampling-induced give-up: after an error observation, at temperature
    above zero, a default-matched rule apologizes with probability
    apology_collapse_prob instead of sampling its candidates.
    """

    def __init__(self, config: ScriptedPolicyConfig, telemetry: Telemetry | None = None):
        self.config = config
        self.telemetry = telemetry
        # step index -> (match kind, match operand, _Choices), in precedence
        # order: by match kind, then by position in the config
        ranked = sorted(
            (_match_kind(rule.match), pos, rule) for pos, rule in enumerate(config.rules)
        )
        self._rules_at: dict[int, list[tuple[int, str, _Choices]]] = {}
        for kind, _, rule in ranked:
            operand = rule.match.partition(":")[2]
            choices = _Choices.of(rule, default=kind == 2)
            self._rules_at.setdefault(rule.step, []).append((kind, operand, choices))

    def _pick_rule(self, step_index: int, bundle: ContextBundle) -> _Choices | None:
        for kind, operand, choices in self._rules_at.get(step_index, ()):
            if kind == 0 and operand != bundle.fingerprint:
                continue
            if kind == 1 and operand not in bundle.rendered:
                continue
            return choices
        return None

    def _fill(self, template: str, task: Task, prefix: Sequence[Step]) -> str:
        values = dict(task.meta)
        values.setdefault("prompt", task.prompt)
        values.setdefault("task_id", task.task_id)
        values["last_observation"] = prefix[-1].observation.content if prefix else ""
        try:
            return template.format_map(values)
        except KeyError as exc:
            raise ConfigurationError(f"unknown placeholder {exc} in template {template!r}") from exc

    def _apology(self) -> Action:
        text = self.config.apology_text
        return Action(FINAL_ANSWER, text, f"{FINAL_ANSWER}|{text}")

    def sample(
        self, task: Task, prefix: Sequence[Step], bundle: ContextBundle, temperature: float, seed: int
    ) -> Action:
        step_index = len(prefix)
        rule = self._pick_rule(step_index, bundle)
        if rule is None:
            action = self._apology()
        else:
            action = self._sample_rule(rule, task, prefix, bundle, temperature, seed, step_index)
        if self.telemetry is not None:
            prompt_tokens = (
                task.prompt_tokens
                + bundle.tokens
                + sum(s.action.tokens + s.observation.tokens for s in prefix)
            )
            self.telemetry.record("policy", prompt_tokens, action.tokens)
        return action

    def _sample_rule(
        self,
        rule: _Choices,
        task: Task,
        prefix: Sequence[Step],
        bundle: ContextBundle,
        temperature: float,
        seed: int,
        step_index: int,
    ) -> Action:
        last_errored = bool(prefix) and prefix[-1].observation.is_error
        if (
            temperature > 0.0
            and rule.default
            and last_errored
            and self.config.apology_collapse_prob > 0.0
        ):
            coin = random.Random(stable_hash("collapse", seed, step_index))
            if coin.random() < self.config.apology_collapse_prob:
                return self._apology()

        if temperature <= 0.0:
            template = rule.best
        else:
            rng = random.Random(stable_hash("sample", seed, step_index, bundle.fingerprint))
            template = rng.choices(rule.templates, weights=rule.weights, k=1)[0]
        filled = self._fill(template, task, prefix)
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

    def matches(self, step: Step) -> bool:
        if self.tool is not None and step.action.tool_name != self.tool:
            return False
        if self.is_error is not None and step.observation.is_error != self.is_error:
            return False
        if self.obs_contains is not None and self.obs_contains not in step.observation.content:
            return False
        if self.args_contains is not None and self.args_contains not in step.action.arguments:
            return False
        return True


class ScriptedRewardModel:
    """Ordered first-match rule list over (tool, error flag, substrings)."""

    def __init__(self, rules: Sequence[RewardRule], default: float, telemetry: Telemetry | None = None):
        for r in list(rules) + [RewardRule(score=default)]:
            if not 0.0 <= r.score <= 1.0:
                raise ConfigurationError(f"reward rule score {r.score} outside [0, 1]")
        self.rules = tuple(rules)
        self.default = default
        self.telemetry = telemetry
        # (prompt, its token count) of the last prompt billed: a search scores
        # every step of one task against the same prompt
        self._prompt_tokens = ("", 0)

    @classmethod
    def from_dict(cls, raw: dict, telemetry: Telemetry | None = None) -> "ScriptedRewardModel":
        rules = []
        for i, r in enumerate(raw.get("rules", ())):
            where = f"reward rule {i}"
            score = _number(r["score"], f"{where}: score")
            is_error = r.get("is_error")
            if is_error is not None and not isinstance(is_error, bool):
                raise ConfigurationError(
                    f"{where}: is_error must be true or false, got {is_error!r}"
                )
            probes = {
                key: _optional_string(r.get(key), f"{where}: {key}")
                for key in ("tool", "obs_contains", "args_contains")
            }
            rules.append(RewardRule(score=score, is_error=is_error, **probes))
        return cls(rules, _number(raw.get("default", 0.5), "reward default"), telemetry)

    def score(self, task_prompt: str, prefix: Sequence[Step], candidate: Step) -> float:
        value = self.default
        for rule in self.rules:
            if rule.matches(candidate):
                value = rule.score
                break
        if self.telemetry is not None:
            prompt, prompt_tokens = self._prompt_tokens
            if task_prompt != prompt:
                prompt_tokens = _count_tokens(task_prompt)
                self._prompt_tokens = (task_prompt, prompt_tokens)
            tokens_in = (
                prompt_tokens
                + sum(s.action.tokens for s in prefix)
                + candidate.action.tokens
                + candidate.observation.tokens
            )
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
    groups = re.compile(rule.pattern, re.MULTILINE).groups
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
        self._compiled = [(re.compile(p.pattern, re.MULTILINE), p) for p in fact_patterns]
        self.telemetry = telemetry

    @classmethod
    def from_dict(cls, raw: dict, telemetry: Telemetry | None = None) -> "ScriptedAugmentorModel":
        refl = raw.get("reflection", {})
        facts = raw.get("facts", {})
        patterns = []
        for i, p in enumerate(facts.get("rules", ())):
            rule = FactPattern(
                pattern=_string(p["pattern"], f"fact rule {i}: pattern"),
                template=_string(p["template"], f"fact rule {i}: template"),
                split=_optional_string(p.get("split"), f"fact rule {i}: split"),
            )
            _check_fact_rule(f"fact rule {i}", rule)
            patterns.append(rule)
        reflection_rules = [
            (
                _string(r["contains"], f"reflection rule {i}: contains"),
                _string(r["text"], f"reflection rule {i}: text"),
            )
            for i, r in enumerate(refl.get("rules", ()))
        ]
        default = refl.get("default", "The last attempt failed; reconsider the approach.")
        return cls(
            reflection_rules=reflection_rules,
            reflection_default=_string(default, "reflection default"),
            fact_patterns=patterns,
            telemetry=telemetry,
        )

    def generate(self, instruction: str, text: str) -> str:
        if instruction == REFLECT:
            out = self.reflection_default
            for probe, reflection in self.reflection_rules:
                if probe in text:
                    out = reflection
                    break
            out = " ".join(out.split())  # exactly one line
        elif instruction == EXTRACT_FACTS:
            facts: list[str] = []
            for compiled, spec in self._compiled:
                for m in compiled.finditer(text):
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
            out = "\n".join(facts)
        else:
            raise ConfigurationError(f"unknown augmentor instruction: {instruction!r}")
        if self.telemetry is not None:
            self.telemetry.record("supervisor", _count_tokens(text), _count_tokens(out))
        return out


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


# stable_hash("embed", gram), with the prefix's sha256 state computed once
_hash_gram = stable_hasher("embed")


def _feature_hash(text: str, dim: int, features: dict[str, tuple[int, float]]) -> np.ndarray:
    """hash_embed, with `features` as the memo of each n-gram's (index, sign) at this dim.

    An n-gram is hashed on its first sighting in the memo only, from a copy
    of the sha256 state of the "embed" prefix.  Every coordinate is a sum of
    +-1.0 terms, exact in float64, so the vector is the same bits whatever
    the memo holds, and its squared norm v.v is exact: the norm is its
    square root, which is what `np.linalg.norm` computes.
    """
    import numpy as np

    if dim < MIN_EMBED_DIM:
        raise ValueError(f"embedding dim {dim} too small, need >= {MIN_EMBED_DIM}")
    tokens = text.lower().split()
    acc = [0.0] * dim
    for gram in tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]:
        feature = features.get(gram)
        if feature is None:
            h = _hash_gram(gram)
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
    instance, from a copy of the one precomputed sha256 state of the
    "embed" prefix rather than from scratch.  Sharing is exact:
    `_feature_hash` gives the same bits whatever the memo holds, and
    memoized arrays are read-only, so a caller cannot change what later
    callers receive.  numpy is imported by the first embedding, not with the
    module, so code that never embeds (config loading, admissibility,
    analysis, runs without fact memory) never loads it.
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
    role: str = "policy"  # telemetry bucket
    max_retries: int = 3
    timeout: float = 30.0
    retry_delay: float = 0.0


# HTTP statuses that mean "try again later": rate limited, service unavailable
_TRANSIENT_STATUS = frozenset({429, 503})


class RemoteChatClient:
    """Minimal OpenAI-style chat completion client over stdlib urllib.

    Makes at most max_retries attempts.  Transport failures, unparseable
    responses and the transient statuses 429 and 503 are retried, waiting
    retry_delay before the second attempt and twice as long before each
    later one.  A 401 is a credential error and any other HTTP error a
    configuration error; neither is retried.  Usage numbers from the
    response are accumulated into the attached Telemetry.  The HTTP stack
    (`urllib.request`, `http.client`) is imported by the first request,
    not with the module.
    """

    def __init__(self, config: RemoteChatConfig, telemetry: Telemetry | None = None):
        if config.max_retries < 1:
            raise ConfigurationError("max_retries must be at least 1")
        self.config = config
        self.telemetry = telemetry

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
        if self.telemetry is not None:
            self.telemetry.record(self.config.role, tokens_in, tokens_out)
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

