from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memsearch.core import (
    EMPTY_BUNDLE,
    FINAL_ANSWER,
    Abstraction,
    Action,
    ContextBundle,
    ContextUnit,
    Observation,
    Scope,
    Step,
    Task,
    Telemetry,
    render_bundle,
    stable_hash,
)
import memsearch
from memsearch import models
from memsearch.augmentors import sibling_context
from memsearch.models import (
    EXTRACT_FACTS,
    REFLECT,
    ConfigurationError,
    CredentialError,
    FactPattern,
    HashEmbedder,
    PolicyRule,
    RemoteChatClient,
    RemoteChatConfig,
    RemotePolicy,
    RewardRule,
    ScriptedAugmentorModel,
    ScriptedPolicy,
    ScriptedPolicyConfig,
    ScriptedRewardModel,
    TransportError,
    cosine,
    hash_embed,
)

from conftest import ChatStub, chat_reply

TASK = Task("t1", "find the answer", ("QUERY",), "bench", "toy_sql", {"table": "games"})


def _policy(raw, telemetry=None):
    return ScriptedPolicy(ScriptedPolicyConfig.from_dict(raw), telemetry)


def _step(tool="QUERY", args="x", content="row", is_error=False):
    return Step(Action(tool, args, f"{tool}|{args}"), Observation(content, is_error, tool))


def test_policy_config_sorts_candidates_and_validates():
    cfg = ScriptedPolicyConfig.from_dict(
        {"rules": [{"step": 0, "candidates": {"B|b": 1.0, "A|a": 1.0}}]}
    )
    assert [c[0] for c in cfg.rules[0].candidates] == ["A|a", "B|b"]
    with pytest.raises(ConfigurationError):
        ScriptedPolicyConfig.from_dict({"rules": [{"step": 0, "candidates": {}}]})
    with pytest.raises(ConfigurationError):
        ScriptedPolicyConfig.from_dict(
            {"rules": [{"step": 0, "match": "glob:*", "candidates": {"A|a": 1.0}}]}
        )
    with pytest.raises(ConfigurationError):
        ScriptedPolicyConfig.from_dict({"rules": [], "apology_collapse_prob": 1.5})


def test_policy_rule_is_checked_and_split_when_made():
    with pytest.raises(ConfigurationError, match="bad policy match spec: 'glob:\\*'"):
        PolicyRule(step=0, match="glob:*", candidates=(("A|a", 1.0),))
    rule = PolicyRule(step=1, match="contains:FACTS:", candidates=(("A|a", 1.0), ("B|b", 2.0)))
    assert (rule.operand, rule.templates, rule.weights, rule.best) == (
        "FACTS:", ["A|a", "B|b"], [1.0, 2.0], "B|b"
    )
    # rules_at holds the rules themselves, by step, in precedence order
    fp = PolicyRule(step=1, match="fp:f00d", candidates=(("C|c", 1.0),))
    default = PolicyRule(step=1, match="*", candidates=(("D|d", 1.0),))
    other = PolicyRule(step=0, match="*", candidates=(("E|e", 1.0),))
    config = ScriptedPolicyConfig(rules=(default, rule, other, fp))
    assert config.rules_at == {1: [fp, rule, default], 0: [other]}


def test_rule_precedence_fingerprint_over_contains_over_default():
    from memsearch.core import fingerprint

    bundle = render_bundle(())
    raw = {
        "rules": [
            {"step": 0, "match": "*", "candidates": {"DEFAULT|": 1.0}},
            {"step": 0, "match": "contains:", "candidates": {"CONTAINS|": 1.0}},
            {"step": 0, "match": f"fp:{fingerprint('')}", "candidates": {"FP|": 1.0}},
        ]
    }
    action = _policy(raw).sample(TASK, [], bundle, 0.0, 7)
    assert action.tool_name == "FP"
    # without the fingerprint rule the substring match wins over the default
    raw["rules"] = raw["rules"][:2]
    action = _policy(raw).sample(TASK, [], bundle, 0.0, 7)
    assert action.tool_name == "CONTAINS"


def test_missing_rule_falls_back_to_apology():
    action = _policy({"rules": []}).sample(TASK, [], EMPTY_BUNDLE, 0.0, 0)
    assert action.is_final
    assert "cannot" in action.arguments.lower()


def test_zero_temperature_argmax_breaks_ties_lexicographically():
    raw = {"rules": [{"step": 0, "candidates": {"Z|z": 0.5, "A|a": 0.5, "M|m": 0.2}}]}
    for seed in range(5):
        action = _policy(raw).sample(TASK, [], EMPTY_BUNDLE, 0.0, seed)
        assert action.tool_name == "A"


def test_positive_temperature_sampling_is_seeded():
    raw = {"rules": [{"step": 0, "candidates": {"A|a": 0.5, "B|b": 0.5}}]}
    picks = {_policy(raw).sample(TASK, [], EMPTY_BUNDLE, 0.9, s).tool_name for s in range(40)}
    assert picks == {"A", "B"}
    one = _policy(raw).sample(TASK, [], EMPTY_BUNDLE, 0.9, 3)
    two = _policy(raw).sample(TASK, [], EMPTY_BUNDLE, 0.9, 3)
    assert one.raw_text == two.raw_text


def test_a_forced_draw_takes_no_rng(monkeypatch):
    built = []
    real = models.random.Random

    class CountingRandom(real):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(models.random, "Random", CountingRandom)
    forced = {"rules": [{"step": 0, "candidates": {"QUERY|{table}": 1.0}}]}
    for seed in range(5):
        assert _policy(forced).sample(TASK, [], EMPTY_BUNDLE, 0.7, seed).raw_text == "QUERY|games"
    assert built == []
    # two candidates still draw, with the RNG the draw always used
    raw = {"rules": [{"step": 0, "candidates": {"A|a": 0.5, "B|b": 0.5}}]}
    for seed in range(20):
        got = _policy(raw).sample(TASK, [], EMPTY_BUNDLE, 0.7, seed).raw_text
        rng = real(stable_hash("sample", seed, 0, EMPTY_BUNDLE.fingerprint))
        assert got == rng.choices(["A|a", "B|b"], weights=[0.5, 0.5], k=1)[0]
    assert len(built) == 20


def test_apology_collapse_requires_all_three_conditions():
    raw = {
        "rules": [
            {"step": 1, "match": "*", "candidates": {"QUERY|retry": 1.0}},
            {"step": 1, "match": "contains:SIBLINGS", "candidates": {"QUERY|retry": 1.0}},
        ],
        "apology_collapse_prob": 1.0,
    }
    errored = [_step(content="ERROR: no such table 'x'", is_error=True)]
    ok_prefix = [_step()]

    collapsed = _policy(raw).sample(TASK, errored, EMPTY_BUNDLE, 0.7, 0)
    assert collapsed.is_final and "cannot" in collapsed.arguments.lower()
    # temperature zero never collapses
    assert _policy(raw).sample(TASK, errored, EMPTY_BUNDLE, 0.0, 0).tool_name == "QUERY"
    # non-error last observation never collapses
    assert _policy(raw).sample(TASK, ok_prefix, EMPTY_BUNDLE, 0.7, 0).tool_name == "QUERY"
    # a non-default matched rule never collapses
    sib = render_bundle(sibling_context([_step()]))
    assert _policy(raw).sample(TASK, errored, sib, 0.7, 0).tool_name == "QUERY"
    # probability zero never collapses
    raw0 = dict(raw, apology_collapse_prob=0.0)
    assert _policy(raw0).sample(TASK, errored, EMPTY_BUNDLE, 0.7, 0).tool_name == "QUERY"


def test_template_fill_and_unknown_placeholder():
    raw = {"rules": [{"step": 0, "candidates": {"QUERY|{table}": 1.0}}]}
    action = _policy(raw).sample(TASK, [], EMPTY_BUNDLE, 0.0, 0)
    assert action.arguments == "games"
    raw = {"rules": [{"step": 0, "candidates": {"QUERY|{nope}": 1.0}}]}
    with pytest.raises(ConfigurationError, match="nope"):
        _policy(raw).sample(TASK, [], EMPTY_BUNDLE, 0.0, 0)


def test_last_observation_placeholder():
    raw = {"rules": [{"step": 1, "candidates": {"FINAL_ANSWER|{last_observation}": 1.0}}]}
    action = _policy(raw).sample(TASK, [_step(content="the row")], EMPTY_BUNDLE, 0.0, 0)
    assert action.arguments == "the row"


def test_policy_telemetry_counts_whitespace_tokens():
    telemetry = Telemetry()
    raw = {"rules": [{"step": 0, "candidates": {"QUERY|one two": 1.0}}]}
    _policy(raw, telemetry).sample(TASK, [], EMPTY_BUNDLE, 0.0, 0)
    assert telemetry.policy_calls == 1
    assert telemetry.policy_tokens_in == len(TASK.prompt.split())
    assert telemetry.policy_tokens_out == 2  # "QUERY|one two" splits on whitespace


_WORDS = st.text(alphabet="ab |\t\n", max_size=12)


def words(text: str) -> int:
    return len(text.split())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    prefix=st.lists(st.tuples(_WORDS, _WORDS, st.booleans()), max_size=6),
    bundle_bodies=st.lists(st.text(alphabet="xy \n", min_size=1, max_size=8), max_size=3),
    cand=st.tuples(_WORDS, _WORDS),
)
def test_model_token_counts_match_a_whitespace_recount(prefix, bundle_bodies, cand):
    # token counts carried on Step and ContextBundle must bill what a recount of the texts bills
    steps = [
        Step(Action("QUERY", a, f"QUERY|{a}"), Observation(f"obs {o}", err, "QUERY"))
        for a, o, err in prefix
    ]
    bundle = render_bundle(
        ContextUnit(Scope.CROSS_TRAJECTORY, Abstraction.REFLECTION, body, 0, persistent=True)
        for body in bundle_bodies
    )
    candidate = Step(
        Action("QUERY", cand[0], f"QUERY|{cand[0]}"), Observation(f"obs {cand[1]}", False, "QUERY")
    )

    telemetry = Telemetry()
    raw = {"rules": [{"step": len(steps), "candidates": {"QUERY|one two": 1.0}}]}
    action = _policy(raw, telemetry).sample(TASK, steps, bundle, 0.0, 0)
    assert telemetry.policy_tokens_in == (
        words(TASK.prompt)
        + words(bundle.rendered)
        + sum(words(s.action.raw_text) + words(s.observation.content) for s in steps)
    )
    assert telemetry.policy_tokens_out == words(action.raw_text)

    ScriptedRewardModel([], 0.5, telemetry).score(TASK.prompt, steps, candidate)
    assert telemetry.supervisor_tokens_in == (
        words(TASK.prompt)
        + sum(words(s.action.raw_text) for s in steps)
        + words(candidate.action.raw_text)
        + words(candidate.observation.content)
    )


def test_reward_rules_first_match_and_default():
    model = ScriptedRewardModel.from_dict(
        {
            "rules": [
                {"score": 0.1, "is_error": True},
                {"score": 0.9, "tool": "QUERY"},
                {"score": 0.3, "obs_contains": "row"},
            ],
            "default": 0.5,
        }
    )
    assert model.score("p", [], _step(is_error=True)) == 0.1
    assert model.score("p", [], _step()) == 0.9  # QUERY rule fires before obs_contains
    assert model.score("p", [], _step(tool="OTHER", content="a row")) == 0.3
    assert model.score("p", [], _step(tool="OTHER", content="nothing")) == 0.5


def test_reward_score_out_of_range_is_rejected_not_clamped():
    with pytest.raises(ConfigurationError):
        ScriptedRewardModel.from_dict({"rules": [{"score": 1.2}], "default": 0.5})
    with pytest.raises(ConfigurationError):
        ScriptedRewardModel.from_dict({"rules": [], "default": -0.1})


def test_reward_rule_score_out_of_range_is_refused_when_made():
    with pytest.raises(ConfigurationError, match=r"reward rule score 1\.5 outside \[0, 1\]"):
        RewardRule(score=1.5)
    with pytest.raises(ConfigurationError, match=r"reward rule score -0\.1 outside \[0, 1\]"):
        ScriptedRewardModel([], -0.1)
    rule = RewardRule(score=0.9, tool="QUERY", obs_contains="row")
    assert rule.matches("QUERY", "x", False, "a row")
    assert not rule.matches("QUERY", "row", False, "none")


def test_reward_args_contains_and_telemetry():
    telemetry = Telemetry()
    model = ScriptedRewardModel.from_dict(
        {"rules": [{"score": 0.05, "args_contains": "I cannot"}], "default": 0.5},
        telemetry,
    )
    apology = Step(
        Action(FINAL_ANSWER, "I cannot find it", "FINAL_ANSWER|I cannot find it"),
        Observation("", False, FINAL_ANSWER),
    )
    assert model.score("prompt", [], apology) == 0.05
    assert telemetry.supervisor_calls == 1
    assert telemetry.supervisor_tokens_out == 1


# two tasks with one id but different meta, and bundles with one rendered text
# under two fingerprints and one fingerprint over two texts: a memo keyed on
# the id, the text or the fingerprint alone would answer one with another's
# action
_TWIN_TASKS = (TASK, Task("t1", "find the answer", ("QUERY",), "b", "toy_sql", {"table": "cars"}))
_TWIN_TEXT = "FACTS:\n- table cars"
_MEMO_BUNDLES = (
    EMPTY_BUNDLE,
    ContextBundle((), _TWIN_TEXT, "f00d"),
    ContextBundle((), _TWIN_TEXT, "beef"),
    ContextBundle((), "REFLECTIONS:\n- try cars", "cafe"),
    ContextBundle((), "SIBLINGS:\n- tried", "cafe"),
)
_MEMO_POLICY = {
    "rules": [
        {"step": 0, "match": "fp:f00d", "candidates": {"QUERY|{table}": 1.0}},
        {"step": 0, "match": "contains:cars", "candidates": {"QUERY|cars {task_id}": 1.0}},
        {"step": 0, "candidates": {"LIST|": 1.0, "QUERY|{table}": 2.0}},
        {"step": 1, "match": "fp:beef", "candidates": {"FINAL_ANSWER|{last_observation}": 1.0}},
        {"step": 1, "candidates": {"QUERY|{last_observation}": 2.0, "LIST|": 1.0}},
        {"step": 2, "match": "contains:try", "candidates": {"FINAL_ANSWER|{prompt}": 1.0}},
    ],
    "apology_collapse_prob": 0.5,
}
_MEMO_STEPS = [_step(content=c, is_error=err) for c in ("row", "cars") for err in (False, True)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(_TWIN_TASKS),
            st.lists(st.sampled_from(_MEMO_STEPS), max_size=2),
            st.sampled_from(_MEMO_BUNDLES),
            st.sampled_from([0.0, 0.0, -1.0, 0.7]),
            st.integers(0, 3),
        ),
        min_size=8,
        max_size=30,
    )
)
def test_policy_memo_answers_as_a_fresh_policy_per_call(calls):
    """What the step trie keeps of a greedy call (`search._take_step`), keyed on
    the task and the content of the prefix and the bundle, never the seed, and
    replayed with `rebill`, answers and bills as a fresh policy per call."""
    config = ScriptedPolicyConfig.from_dict(_MEMO_POLICY)
    unit = ScriptedPolicy(config).for_unit(Telemetry())
    kept: dict[tuple, tuple[Action, tuple[int, int]]] = {}
    fresh_telemetry = Telemetry()
    for task, prefix, bundle, temperature, seed in calls:
        key = (id(task), tuple(prefix), bundle.fingerprint, bundle.rendered)
        if temperature <= 0.0 and key in kept:
            got, billed = kept[key]
            unit.rebill(1, *billed)
        else:
            got = unit.sample(task, prefix, bundle, temperature, seed)
            if temperature <= 0.0:
                kept[key] = (got, unit.billed)
        fresh = ScriptedPolicy(config, fresh_telemetry)
        assert got == fresh.sample(task, prefix, bundle, temperature, seed)
        assert unit.telemetry == fresh_telemetry
    assert ScriptedPolicy.deterministic_at_zero is True


# every probe alone and all together, ordered so that each can decide a score
_MEMO_REWARD = {
    "rules": [
        {"score": 0.95, "tool": "QUERY", "obs_contains": "cars", "args_contains": "cars"},
        {"score": 0.1, "args_contains": "x"},
        {"score": 0.2, "obs_contains": "row"},
        {"score": 0.3, "tool": "LIST"},
        {"score": 0.4, "is_error": True},
        {"score": 0.5, "tool": "QUERY", "is_error": False, "obs_contains": "cars"},
    ],
    "default": 0.05,
}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(["p", "the prompt"]),
            st.lists(st.sampled_from(_MEMO_STEPS), max_size=2),
            st.sampled_from(["QUERY", "LIST", "OTHER"]),
            st.sampled_from(["x", "cars", "y"]),
            st.sampled_from(["row", "cars", "z"]),
            st.booleans(),
        ),
        min_size=8,
        max_size=30,
    )
)
def test_reward_memo_answers_as_a_fresh_model_per_call(calls):
    model = ScriptedRewardModel.from_dict(_MEMO_REWARD)
    memoizing = model.for_unit(Telemetry())
    fresh_telemetry = Telemetry()
    for prompt, prefix, tool, args, content, is_error in calls:
        candidate = _step(tool, args, content, is_error)
        got = memoizing.score(prompt, prefix, candidate)
        fresh = ScriptedRewardModel(model.rules, model.default, fresh_telemetry)
        assert got == fresh.score(prompt, prefix, candidate)
        assert memoizing.telemetry == fresh_telemetry


def test_augmentor_reflect_picks_first_matching_rule():
    model = ScriptedAugmentorModel.from_dict(
        {
            "reflection": {
                "rules": [
                    {"contains": "no such table", "text": "Check the table name\nfirst."},
                    {"contains": "ERROR", "text": "Something failed."},
                ],
                "default": "Keep going.",
            }
        }
    )
    out = model.generate(REFLECT, "OBSERVATION[ERROR]: no such table 'x'")
    assert out == "Check the table name first."  # collapsed to one line
    assert model.generate(REFLECT, "all fine") == "Keep going."


def test_augmentor_extract_facts_split_and_groups():
    model = ScriptedAugmentorModel.from_dict(
        {
            "facts": {
                "rules": [
                    {
                        "pattern": r"OBSERVATION\[LIST_TABLES\]: (.+)",
                        "template": "table '{0}' exists",
                        "split": ", ",
                    },
                    {
                        "pattern": r"ACTION: SCHEMA\|(.+)\nOBSERVATION\[SCHEMA\]: (.+)",
                        "template": "'{0}' has {1}",
                    },
                ]
            }
        }
    )
    text = "ACTION: LIST_TABLES|\nOBSERVATION[LIST_TABLES]: games, albums"
    assert model.generate(EXTRACT_FACTS, text).splitlines() == [
        "table 'games' exists",
        "table 'albums' exists",
    ]
    text = "ACTION: SCHEMA|games\nOBSERVATION[SCHEMA]: Platform, Developer"
    assert model.generate(EXTRACT_FACTS, text) == "'games' has Platform, Developer"
    with pytest.raises(ConfigurationError):
        model.generate("SUMMARIZE", "x")


def test_augmentor_memo_answers_and_bills_as_a_fresh_model_per_call():
    model = ScriptedAugmentorModel.from_dict(
        {
            "reflection": {
                "rules": [{"contains": "ERROR", "text": "Check the  table\nname."}],
                "default": "Keep going.",
            },
            "facts": {"rules": [{"pattern": r"LIST: (.+)", "template": "table {0}", "split": ","}]},
        }
    )
    memoizing, fresh_telemetry = model.for_unit(Telemetry()), Telemetry()
    texts = ["LIST: games,albums", "OBSERVATION[ERROR]: no table", "LIST: cars", ""]
    calls = [(instruction, text) for instruction in (REFLECT, EXTRACT_FACTS) for text in texts]
    for instruction, text in calls * 3:  # every pair repeated, after other pairs
        got = memoizing.generate(instruction, text)
        assert got == model.for_unit(fresh_telemetry).generate(instruction, text)
        assert memoizing.telemetry == fresh_telemetry
    assert len(memoizing._answers) == len(calls)  # each pair computed once
    assert fresh_telemetry.supervisor_calls == 3 * len(calls)
    assert model._answers == {}  # the loaded model answered nothing
    with pytest.raises(ConfigurationError):
        memoizing.generate("SUMMARIZE", "x")
    assert memoizing.telemetry == fresh_telemetry  # an unknown instruction bills nothing


def test_augmentor_for_unit_compiles_nothing(monkeypatch):
    model = ScriptedAugmentorModel.from_dict(
        {"facts": {"rules": [{"pattern": r"LIST: (.+)", "template": "table {0}", "split": ","}]}}
    )
    text = "LIST: games,albums"
    facts = model.generate(EXTRACT_FACTS, text)
    assert facts == "table games\ntable albums"

    def refuse(*args, **kwargs):
        raise AssertionError("a regex was compiled after load")

    monkeypatch.setattr(models.re, "compile", refuse)
    assert model.for_unit(Telemetry()).generate(EXTRACT_FACTS, text) == facts
    with pytest.raises(AssertionError):  # the patch is in force: making a rule compiles
        FactPattern(r"LIST: (.+)", "table {0}")


def test_augmentor_templates_take_automatic_and_repeated_fields():
    model = ScriptedAugmentorModel.from_dict(
        {
            "facts": {
                "rules": [
                    {"pattern": r"SCHEMA\|(\w+): (.+)", "template": "{} has {}"},
                    {"pattern": r"LIST: (.+)", "template": "{0!r} or {0:>6}", "split": ","},
                ]
            }
        }
    )
    assert model.generate(EXTRACT_FACTS, "SCHEMA|games: Year\nLIST: a,b").splitlines() == [
        "games has Year",
        "'a' or      a",
        "'b' or      b",
    ]


@pytest.mark.parametrize("split", [None, ","])
def test_augmentor_match_with_a_skipped_optional_group_emits_no_fact(split):
    rule = {"pattern": r"LIST: (\w+)?;", "template": "table {0}"}
    if split is not None:
        rule["split"] = split
    model = ScriptedAugmentorModel.from_dict({"facts": {"rules": [rule]}})
    # neither 'table None' nor an AttributeError on None.split
    assert model.generate(EXTRACT_FACTS, "LIST: ;") == ""
    assert model.generate(EXTRACT_FACTS, "LIST: ;\nLIST: games;") == "table games"


def test_hash_embed_is_normalized_and_deterministic():
    v = hash_embed("list the tables")
    assert v.shape == (64,)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert np.array_equal(v, hash_embed("list the tables"))
    with pytest.raises(ValueError):
        hash_embed("x", dim=4)
    empty = hash_embed("")
    assert empty[0] == 1.0 and np.linalg.norm(empty) == 1.0


@pytest.mark.parametrize(
    "text, dim, digest",
    [
        ("the cat sat on the mat the cat sat", 8, "8661ba5ed9c22bd411846c7ae41d72be5e979652dccb9ce76865a7b72750a038"),
        ("the cat sat on the mat the cat sat", 64, "f7d928a8696f9a10a02b8ce69ae496b322059a777db83208e17d96b53beefb67"),
        ("a a a a b a b a b", 8, "9381ecc214d1eef9d54f5a49c9131e0c81101a3b585d90b41ed36b48c14c9b0f"),
        ("a a a a b a b a b", 64, "c7b59ece32c0c6a5d1fc4b21cb6f4d6ad73a77859eb48ba138997033c6baaa7f"),
        (
            "Table orders has columns id, total ; table orders has columns id",
            8,
            "58ca35dd7909506a27774d1b143b15eb414932b66cf24892eb82d55b8f884d3f",
        ),
        (
            "Table orders has columns id, total ; table orders has columns id",
            64,
            "6e199322359dd7eb2921a13cf54ed4bdcfb8888d8ae8942fd9712011707d23a4",
        ),
    ],
)
def test_hash_embed_pinned_bytes(text, dim, digest):
    # repeated unigrams and bigrams; dedup decisions depend on these exact bits
    assert hashlib.sha256(hash_embed(text, dim).tobytes()).hexdigest() == digest


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gram=st.text(st.characters(exclude_categories=()), max_size=12))  # lone surrogates too
@example(gram="\ud800")
@example(gram="x\udfff y")
@example(gram="a\x1fb")
def test_gram_hash_is_stable_hash_of_embed(gram):
    assert models._gram_hash(gram) == stable_hash("embed", gram)


def test_hash_embedder_memoizes_read_only_arrays():
    embedder = HashEmbedder(dim=16)
    v = embedder.embed("list the tables")
    assert embedder.embed("list the tables") is v
    assert np.array_equal(v, hash_embed("list the tables", 16))
    with pytest.raises(ValueError):
        v[0] = 0.0
    assert HashEmbedder(dim=16).embed("list the tables") is not v


def test_hash_embed_cosine_landmarks():
    """Pinned similarity relations the dedup threshold relies on."""
    disjoint = cosine(hash_embed("alpha beta gamma delta"), hash_embed("omicron sigma tau upsilon"))
    assert disjoint <= 0.3
    assert cosine(hash_embed("List   the  Tables"), hash_embed("list the tables")) == pytest.approx(1.0)
    # the shipped fact templates stay below the dedup threshold pairwise
    facts = [
        "The database contains a table named 'albums'.",
        "The database contains a table named 'studio_sessions'.",
        "Table 'albums' has columns: Album, Artist, Studio.",
    ]
    for a, b in itertools.combinations(facts, 2):
        assert cosine(hash_embed(a), hash_embed(b)) < 0.9
    # a case variant is a near duplicate and must land at or above it
    same = cosine(
        hash_embed("The database contains a table named 'albums'."),
        hash_embed("the database contains a table named 'albums'."),
    )
    assert same >= 0.9


# ---------------------------------------------------------------------------
# remote client against a local http server


def test_remote_client_happy_path_ingests_usage(chat_server):
    ChatStub.script = [(200, chat_reply("QUERY|(q)"))]
    telemetry = Telemetry()
    client = RemoteChatClient(RemoteChatConfig(chat_server, "m", api_key="k"), telemetry)
    text = client.complete([{"role": "user", "content": "hi"}])
    assert text == "QUERY|(q)"
    assert telemetry.policy_tokens_in == 12
    assert telemetry.policy_tokens_out == 3
    sent = json.loads(ChatStub.hits[-1])
    assert sent["model"] == "m"


def test_remote_client_401_is_credential_error_no_retry(chat_server):
    ChatStub.script = [(401, b"{}")]
    client = RemoteChatClient(RemoteChatConfig(chat_server, "m", max_retries=3))
    with pytest.raises(CredentialError):
        client.complete([{"role": "user", "content": "hi"}])
    assert len(ChatStub.hits) == 1


def test_remote_client_other_http_error_is_configuration_error(chat_server):
    ChatStub.script = [(500, b"boom")]
    client = RemoteChatClient(RemoteChatConfig(chat_server, "m", max_retries=3))
    with pytest.raises(ConfigurationError):
        client.complete([{"role": "user", "content": "hi"}])
    assert len(ChatStub.hits) == 1


@pytest.mark.parametrize("status", [429, 503])
def test_remote_client_retries_transient_status_then_succeeds(chat_server, status):
    ChatStub.script = [(status, b"{}"), (status, b"{}"), (200, chat_reply("QUERY|(q)"))]
    telemetry = Telemetry()
    client = RemoteChatClient(RemoteChatConfig(chat_server, "m", max_retries=3), telemetry)
    assert client.complete([{"role": "user", "content": "hi"}]) == "QUERY|(q)"
    assert len(ChatStub.hits) == 3
    assert telemetry.policy_tokens_in == 12


def test_remote_client_transient_status_backs_off_within_max_retries(chat_server, monkeypatch):
    ChatStub.script = [(429, b"{}"), (503, b"{}")]
    delays = []
    monkeypatch.setattr(models.time, "sleep", delays.append)
    cfg = RemoteChatConfig(chat_server, "m", max_retries=4, retry_delay=0.5)
    with pytest.raises(TransportError, match="503"):
        RemoteChatClient(cfg).complete([{"role": "user", "content": "hi"}])
    assert len(ChatStub.hits) == 4
    assert delays == [0.5, 1.0, 2.0]


def test_remote_client_retries_bad_json_then_transport_error(chat_server):
    ChatStub.script = [(200, b"not json at all")]
    client = RemoteChatClient(RemoteChatConfig(chat_server, "m", max_retries=3))
    with pytest.raises(TransportError):
        client.complete([{"role": "user", "content": "hi"}])
    assert len(ChatStub.hits) == 3


def test_remote_client_refuses_unreachable_endpoint():
    cfg = RemoteChatConfig("http://127.0.0.1:9/none", "m", max_retries=2, timeout=0.2)
    with pytest.raises(TransportError):
        RemoteChatClient(cfg).complete([{"role": "user", "content": "hi"}])
    with pytest.raises(ConfigurationError):
        RemoteChatClient(RemoteChatConfig("http://x", "m", max_retries=0))


def test_remote_policy_parses_tool_line_and_final_answer(chat_server):
    ChatStub.script = [(200, chat_reply("QUERY|(project a b)\nrest ignored"))]
    policy = RemotePolicy(RemoteChatClient(RemoteChatConfig(chat_server, "m")))
    action = policy.sample(TASK, [], EMPTY_BUNDLE, 0.0, 0)
    assert action.tool_name == "QUERY"
    assert action.arguments == "(project a b)"

    ChatStub.script = [(200, chat_reply("The answer is 42."))]
    action = policy.sample(TASK, [], EMPTY_BUNDLE, 0.0, 0)
    assert action.tool_name == FINAL_ANSWER
    assert action.arguments == "The answer is 42."


def test_remote_policy_puts_bundle_in_prompt(chat_server):
    ChatStub.script = [(200, chat_reply("ok"))]
    policy = RemotePolicy(RemoteChatClient(RemoteChatConfig(chat_server, "m")))
    bundle = render_bundle(sibling_context([_step()]))
    policy.sample(TASK, [], bundle, 0.0, 0)
    sent = json.loads(ChatStub.hits[-1])
    user_msg = sent["messages"][1]["content"]
    assert "SIBLINGS:" in user_msg


def test_load_policy_makes_every_load_time_check():
    # a library caller building a policy from a script dict gets the checks a
    # config load makes; the parsed config alone checks no template
    raw = {"rules": [{"step": 0, "candidates": {"QUERY|{": 1.0}}]}
    ScriptedPolicyConfig.from_dict(raw)
    with pytest.raises(ConfigurationError, match=r"policy rule 0: template 'QUERY\|\{' cannot"):
        memsearch.load_policy(raw, ())
    fine = {"rules": [{"step": 0, "candidates": {"QUERY|{table}": 1.0}}]}
    assert isinstance(memsearch.load_policy(fine, {"table"}), ScriptedPolicy)

