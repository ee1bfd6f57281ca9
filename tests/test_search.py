from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsearch import search
from memsearch.augmentors import (
    AugmentorConfig,
    AugmentorKind,
    FactMode,
    compose,
    normalize_for_method,
)
from memsearch.core import (
    FINAL_ANSWER,
    Action,
    Node,
    Observation,
    StateHandle,
    Step,
    Task,
    Telemetry,
    TerminalKind,
    fingerprint,
)
from memsearch.envs import ScriptedShellEnv, ToySqlEnv
from memsearch.models import (
    HashEmbedder,
    ScriptedAugmentorModel,
    ScriptedPolicy,
    ScriptedPolicyConfig,
    ScriptedRewardModel,
)
from memsearch.search import (
    AdmissibilityError,
    BackpropMode,
    ExpansionMode,
    SearchConfig,
    SearchMethod,
    backprop,
    expand,
    is_apology,
    run_beam,
    run_best_of_n,
    run_mcts,
    run_search,
    uct_score,
)

WORLD = {
    "t1": {
        "tables": {
            "games": {
                "columns": ["Platform", "Developer"],
                "rows": [["PSP", "3G Studios"], ["Wii", "Hudson"]],
            }
        }
    }
}

TASK = Task(
    "t1",
    "which platform",
    ("LIST_TABLES", "SCHEMA", "QUERY", FINAL_ANSWER),
    "bench",
    "toy_sql",
    {"table": "games"},
)


def _policy(raw):
    return ScriptedPolicy(ScriptedPolicyConfig.from_dict(raw))


def _prm(rules=None, default=0.5):
    return ScriptedRewardModel.from_dict({"rules": rules or [], "default": default})


STRAIGHT_POLICY = {
    "rules": [
        {"step": 0, "candidates": {"LIST_TABLES|": 1.0}},
        {"step": 1, "candidates": {"SCHEMA|{table}": 1.0}},
        {"step": 2, "candidates": {"FINAL_ANSWER|{last_observation}": 1.0}},
    ]
}


def _none_composite():
    return compose((AugmentorConfig(AugmentorKind.NONE),))


def test_search_config_defaults_and_validation():
    cfg = SearchConfig(method=SearchMethod.BEST_OF_N)
    assert cfg.n_budget == 5
    assert cfg.beam_width == 3
    assert cfg.n_actions == 3
    assert cfg.n_iters == 5
    assert cfg.w_exp == 1.0
    assert cfg.max_depth == 15
    assert cfg.backprop is BackpropMode.CUMULATIVE
    assert cfg.decay_gamma == 0.5
    assert cfg.expansion is ExpansionMode.BATCH
    with pytest.raises(ValueError):
        SearchConfig(method=SearchMethod.BEST_OF_N, expansion=ExpansionMode.INTERLEAVED)
    SearchConfig(method=SearchMethod.BEAM, expansion=ExpansionMode.INTERLEAVED)


@pytest.mark.parametrize(
    "name", ["n_budget", "beam_width", "n_actions", "n_iters", "max_depth", "rollout_depth"]
)
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True, None])
def test_search_config_requires_integer_counts(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SearchConfig(method=SearchMethod.BEST_OF_N, **{name: value})
    assert getattr(SearchConfig(method=SearchMethod.BEST_OF_N, **{name: 3}), name) == 3


@pytest.mark.parametrize("name", ["w_exp", "temperature", "decay_gamma"])
@pytest.mark.parametrize("value", [True, False, float("nan"), float("inf"), "0.5", None])
def test_search_config_requires_finite_numbers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        SearchConfig(method=SearchMethod.BEST_OF_N, **{name: value})
    assert getattr(SearchConfig(method=SearchMethod.BEST_OF_N, **{name: 1}), name) == 1


def test_is_apology_markers():
    def final(text):
        return Action(FINAL_ANSWER, text, f"{FINAL_ANSWER}|{text}")

    assert is_apology(final("I cannot find the answer."))
    assert is_apology(final("Sorry, unable to proceed"))
    assert not is_apology(final("PSP"))
    assert not is_apology(Action("QUERY", "i cannot", "QUERY|i cannot"))


class RecordingPolicy:
    """Wraps a policy, capturing the rendered bundle of every sample call."""

    def __init__(self, inner):
        self.inner = inner
        self.bundles: list[str] = []

    def sample(self, task, prefix, bundle, temperature, seed):
        self.bundles.append(bundle.rendered)
        return self.inner.sample(task, prefix, bundle, temperature, seed)


def test_expand_batch_prompts_are_identical():
    env = ToySqlEnv(WORLD)
    policy = RecordingPolicy(_policy(STRAIGHT_POLICY))
    cfg = SearchConfig(method=SearchMethod.BEAM, expansion=ExpansionMode.BATCH)
    state = env.reset(TASK)
    cands = expand(env, TASK, state, [], policy, _prm(), _none_composite(), cfg, 0, ("s",))
    assert len(cands) == cfg.n_actions
    assert len(set(policy.bundles)) == 1
    assert len({c.bundle_fp for c in cands}) == 1


def test_expand_interleaved_sibling_counts():
    env = ToySqlEnv(WORLD)
    policy = RecordingPolicy(_policy(STRAIGHT_POLICY))
    cfg = SearchConfig(method=SearchMethod.BEAM, expansion=ExpansionMode.INTERLEAVED)
    composite = compose((AugmentorConfig(AugmentorKind.RAW_SIBLING),))
    state = env.reset(TASK)
    expand(env, TASK, state, [], policy, _prm(), composite, cfg, 0, ("s",))
    counts = [b.count("- tried ") for b in policy.bundles]
    assert counts == [0, 1, 2]


@pytest.mark.parametrize(
    "expansion, memory, retrieves",
    [
        (ExpansionMode.BATCH, AugmentorKind.NONE, 1),
        (ExpansionMode.INTERLEAVED, AugmentorKind.RAW_SIBLING, 3),
    ],
)
def test_expand_retrieves_once_per_batch_and_once_per_interleaved_candidate(
    monkeypatch, expansion, memory, retrieves
):
    env = ToySqlEnv(WORLD)
    cfg = SearchConfig(method=SearchMethod.BEAM, n_actions=3, expansion=expansion)
    composite = compose((AugmentorConfig(memory),))
    calls = []
    real_retrieve = composite.retrieve
    monkeypatch.setattr(composite, "retrieve", lambda *a: calls.append(a) or real_retrieve(*a))
    state = env.reset(TASK)
    expand(env, TASK, state, [], _policy(STRAIGHT_POLICY), _prm(), composite, cfg, 0, ("s",))
    assert len(calls) == retrieves


def test_expand_fork_failure_is_admissibility_error():
    world = {"t1": {"files": {}}}
    env = ScriptedShellEnv(world)
    task = Task("t1", "p", ("RUN", FINAL_ANSWER), "b", "scripted_shell", {})
    cfg = SearchConfig(method=SearchMethod.BEAM)
    state = env.reset(task)
    policy = RecordingPolicy(_policy({"rules": [{"step": 0, "candidates": {"RUN|ls": 1.0}}]}))
    with pytest.raises(AdmissibilityError, match="scripted_shell is not serializable"):
        expand(env, task, state, [], policy, _prm(), _none_composite(), cfg, 0, ("s",))
    assert policy.bundles == []  # refused before any model call


class ListPrm:
    """Returns the given raw scores in call order."""

    def __init__(self, scores):
        self.scores = iter(scores)

    def score(self, task_prompt, prefix, candidate):
        return next(self.scores)


@pytest.mark.parametrize("expansion", list(ExpansionMode))
def test_expand_clamps_prm_scores_into_unit_interval(expansion):
    env = ToySqlEnv(WORLD)
    cfg = SearchConfig(method=SearchMethod.BEAM, n_actions=2, expansion=expansion)
    state, policy, prm = env.reset(TASK), _policy(STRAIGHT_POLICY), ListPrm([3.7, -0.5])
    cands = expand(env, TASK, state, [], policy, prm, _none_composite(), cfg, 0, ("s",))
    assert [c.step.reward for c in cands] == [1.0, 0.0]


def test_best_of_n_runs_full_budget():
    env = ToySqlEnv(WORLD)
    cfg = SearchConfig(method=SearchMethod.BEST_OF_N, n_budget=5)
    record = run_best_of_n(TASK, env, _policy(STRAIGHT_POLICY), _none_composite(), cfg, seed=3)
    assert len(record.trajectories) == 5
    assert all(t.terminal_kind is TerminalKind.ANSWERED for t in record.trajectories)
    assert record.final_answer == "Platform, Developer"
    assert record.giveup is None
    assert [t.iteration_index for t in record.trajectories] == list(range(5))


def test_best_of_n_tie_break_keeps_earliest():
    env = ToySqlEnv(WORLD)
    cfg = SearchConfig(method=SearchMethod.BEST_OF_N, n_budget=3)
    record = run_best_of_n(
        TASK, env, _policy(STRAIGHT_POLICY), _none_composite(), cfg, seed=3, prm=_prm()
    )
    best = max(record.trajectories, key=lambda t: t.trajectory_score)
    assert record.trajectories[0].trajectory_score == best.trajectory_score
    assert record.final_answer == record.trajectories[0].answer()


def test_best_of_n_rejects_wrong_method():
    with pytest.raises(ValueError):
        run_best_of_n(
            TASK,
            ToySqlEnv(WORLD),
            _policy(STRAIGHT_POLICY),
            _none_composite(),
            SearchConfig(method=SearchMethod.BEAM),
        )


def test_beam_requires_serializable_env():
    world = {"t1": {"files": {}}}
    env = ScriptedShellEnv(world)
    task = Task("t1", "p", ("RUN", FINAL_ANSWER), "b", "scripted_shell", {})
    cfg = SearchConfig(method=SearchMethod.BEAM)
    with pytest.raises(AdmissibilityError):
        run_beam(task, env, _policy(STRAIGHT_POLICY), _prm(), _none_composite(), cfg)


def test_beam_retains_top_candidates_by_reward():
    # two candidates at step 0; the higher scoring tool must dominate survivors
    raw = {
        "rules": [
            {"step": 0, "candidates": {"LIST_TABLES|": 0.6, "SCHEMA|games": 0.4}},
            {"step": 1, "candidates": {"FINAL_ANSWER|{last_observation}": 1.0}},
        ]
    }
    prm = _prm([{"score": 0.9, "tool": "SCHEMA"}, {"score": 0.2, "tool": "LIST_TABLES"}])
    env = ToySqlEnv(WORLD)
    cfg = SearchConfig(method=SearchMethod.BEAM, beam_width=2, n_actions=2, temperature=0.8)
    record = run_beam(TASK, env, _policy(raw), prm, _none_composite(), cfg, seed=5)
    assert record.giveup is not None
    first_steps = {t.steps[0].action.tool_name for t in record.trajectories}
    # with width 2 over 2 sampled candidates, survivors of level 0 carry the
    # PRM ordering: nothing that beat a SCHEMA start can have been dropped
    assert record.trajectories
    for t in record.trajectories:
        assert t.steps[0].reward in (0.2, 0.9)
    if "LIST_TABLES" in first_steps:
        assert "SCHEMA" in first_steps


def test_beam_give_up_stats_count_apologies():
    raw = {
        "rules": [
            {"step": 0, "candidates": {"QUERY|(project X missing)": 1.0}},
            {"step": 1, "match": "*", "candidates": {"QUERY|(project X missing)": 1.0}},
            {"step": 2, "candidates": {"FINAL_ANSWER|{last_observation}": 1.0}},
        ],
        "apology_collapse_prob": 1.0,
    }
    prm = _prm([{"score": 0.05, "args_contains": "cannot"}, {"score": 0.1, "is_error": True}])
    env = ToySqlEnv(WORLD)
    cfg = SearchConfig(method=SearchMethod.BEAM, beam_width=3, n_actions=3, temperature=0.7)
    record = run_beam(TASK, env, _policy(raw), prm, _none_composite(), cfg, seed=5)
    # depth 0 errors, depth 1 collapses every candidate of every beam
    assert record.giveup.all_apology_states == 3
    assert record.giveup.apology_terminals == 3
    assert record.giveup.selected_apology
    assert all(t.terminal_kind is TerminalKind.APOLOGY for t in record.trajectories)


def test_uct_score_formula():
    assert uct_score(0.4, 2, 8, 1.0) == pytest.approx(0.4 + math.sqrt(math.log(8) / 2))
    assert uct_score(0.4, 1, 0, 1.0) == pytest.approx(0.4)  # max(parent,1) guard


def _old_select_child(nodes, nid, w_exp):
    """MCTS selection as it was written before it took the log once per scan."""
    kids = nodes[nid].children
    unvisited = [k for k in kids if nodes[k].visit_count == 0]
    if unvisited:
        return unvisited[0]
    parent_visits = nodes[nid].visit_count
    return max(
        kids,
        key=lambda k: uct_score(nodes[k].q_value, nodes[k].visit_count, parent_visits, w_exp),
    )


# few distinct q values and visit counts, so that exact ties are common
_Q = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    children=st.lists(st.tuples(_Q, st.integers(0, 6)), min_size=1, max_size=6),
    parent_visits=st.integers(0, 40),
    w_exp=st.one_of(st.sampled_from([0.0, 1.0, math.sqrt(2)]), st.floats(0.0, 5.0)),
    order=st.randoms(use_true_random=False),
)
def test_select_child_picks_what_max_over_uct_score_picked(children, parent_visits, w_exp, order):
    nodes = _chain_nodes(len(children) + 1)
    nodes[0].visit_count = parent_visits
    for node, (q, visits) in zip(nodes[1:], children):
        node.q_value, node.visit_count = q, visits
    nodes[0].children = list(range(1, len(nodes)))
    order.shuffle(nodes[0].children)
    assert search._select_child(nodes, 0, w_exp) == _old_select_child(nodes, 0, w_exp)
    log_parent = math.log(max(parent_visits, 1))
    for q, visits in children:
        if visits:  # the same bits, not just close
            assert search._uct(q, visits, log_parent, w_exp) == uct_score(
                q, visits, parent_visits, w_exp
            )


def _chain_nodes(n):
    state = StateHandle("e", None, 0)
    return [Node(node_id=i, state=state, incoming_action=None) for i in range(n)]


def test_backprop_cumulative_is_brute_force_mean():
    rng = random.Random(7)
    nodes = _chain_nodes(4)
    seen: dict[int, list[float]] = {i: [] for i in range(4)}
    for _ in range(50):
        leaf = rng.randint(1, 3)
        path = list(range(leaf, -1, -1))  # leaf .. root
        value = rng.random()
        for nid in path:
            seen[nid].append(value)
        backprop(nodes, path, value, BackpropMode.CUMULATIVE)
    for nid, values in seen.items():
        if not values:
            continue
        assert nodes[nid].visit_count == len(values)
        assert nodes[nid].q_value == pytest.approx(sum(values) / len(values))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    parents=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12),
    backups=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=40,
    ),
    mode=st.sampled_from(list(BackpropMode)),
    gamma=st.floats(0.0, 1.0),
)
def test_backprop_keeps_q_in_unit_interval_and_counts_paths(parents, backups, mode, gamma):
    # node i + 1 hangs under a random earlier node; each backup starts at a random node
    parent = {i + 1: p % (i + 1) for i, p in enumerate(parents)}
    nodes = _chain_nodes(len(parents) + 1)
    through = [0] * len(nodes)
    for start, value in backups:
        path = [start % len(nodes)]
        while path[-1] != 0:
            path.append(parent[path[-1]])
        for nid in path:
            through[nid] += 1
        backprop(nodes, path, value, mode, gamma)
        assert all(0.0 <= n.q_value <= 1.0 for n in nodes)
    assert [n.visit_count for n in nodes] == through


def test_backprop_decay_gamma_one_copies_child():
    nodes = _chain_nodes(3)
    backprop(nodes, [2, 1, 0], 0.9, BackpropMode.DECAY, gamma=1.0)
    assert nodes[2].q_value == 0.9
    assert nodes[1].q_value == 0.9
    assert nodes[0].q_value == 0.9


def test_backprop_decay_half_blends():
    nodes = _chain_nodes(2)
    nodes[0].q_value = 0.5
    backprop(nodes, [1, 0], 0.9, BackpropMode.DECAY, gamma=0.5)
    assert nodes[1].q_value == pytest.approx(0.9)
    assert nodes[0].q_value == pytest.approx(0.7)


def test_mcts_runs_fixed_iterations_and_is_deterministic():
    env = ToySqlEnv(WORLD)
    cfg = SearchConfig(method=SearchMethod.MCTS, n_iters=5, n_actions=2)
    policy = _policy(STRAIGHT_POLICY)
    prm = _prm([{"score": 0.9, "tool": "FINAL_ANSWER"}], default=0.4)
    one = run_mcts(TASK, env, policy, prm, _none_composite(), cfg, seed=11)
    two = run_mcts(TASK, ToySqlEnv(WORLD), policy, prm, _none_composite(), cfg, seed=11)
    assert len(one.trajectories) == 5
    assert [t.iteration_index for t in one.trajectories] == list(range(5))
    assert one == two
    assert one.final_answer == "Platform, Developer"


def _check_depth_capped(method):
    never_answers = {"rules": [{"step": s, "candidates": {"LIST_TABLES|": 1.0}} for s in range(15)]}
    cfg = SearchConfig(
        method=method, n_budget=2, n_iters=2, n_actions=1, max_depth=3, rollout_depth=3
    )
    record = run_search(
        TASK, ToySqlEnv(WORLD), _policy(never_answers), _none_composite(), cfg, seed=1, prm=_prm()
    )
    assert record.trajectories
    for t in record.trajectories:
        assert (t.terminal_kind, len(t.steps), t.answer()) == (TerminalKind.MAX_DEPTH, 3, None)
    assert record.final_answer is None


def test_mcts_final_answer_ignores_depth_capped_trajectories():
    _check_depth_capped(SearchMethod.MCTS)


@pytest.mark.parametrize("method", [SearchMethod.BEST_OF_N, SearchMethod.BEAM])
def test_depth_capped_trajectories_never_answer(method):
    _check_depth_capped(method)


@pytest.mark.parametrize("method", list(SearchMethod))
def test_only_a_run_without_a_trie_hashes_step_seeds(method, monkeypatch):
    # at temperature 0 the scripted models read no seed, so a trie run hashes none
    hashed = []
    real = search.stable_hash
    monkeypatch.setattr(search, "stable_hash", lambda *parts: hashed.append(parts) or real(*parts))
    cfg = SearchConfig(method=method, n_budget=3, n_iters=3)
    plain = run_search(
        TASK, ToySqlEnv(WORLD), _policy(STRAIGHT_POLICY), _none_composite(), cfg, prm=_prm()
    )
    assert hashed == []
    # a wrapper class declares no deterministic_at_zero: every step is
    # computed, with one seed each
    policy = RecordingPolicy(_policy(STRAIGHT_POLICY))
    wrapped = run_search(TASK, ToySqlEnv(WORLD), policy, _none_composite(), cfg, prm=_prm())
    assert len(hashed) == len(policy.bundles) > 0
    assert wrapped.trajectories == plain.trajectories


def test_run_search_dispatch_and_prm_requirement():
    env = ToySqlEnv(WORLD)
    cfg = SearchConfig(method=SearchMethod.BEST_OF_N, n_budget=2)
    record = run_search(TASK, env, _policy(STRAIGHT_POLICY), _none_composite(), cfg, seed=0)
    assert len(record.trajectories) == 2
    beam_cfg = SearchConfig(method=SearchMethod.BEAM)
    with pytest.raises(ValueError):
        run_search(TASK, env, _policy(STRAIGHT_POLICY), _none_composite(), beam_cfg, seed=0)


class SpyPrm:
    """Fails the test if any prompt or step it scores carries bundle text."""

    def __init__(self, task_prompt):
        self.task_prompt = task_prompt
        self.calls = 0

    def score(self, task_prompt, prefix, candidate):
        self.calls += 1
        assert task_prompt == self.task_prompt
        for section in ("FACTS:", "REFLECTIONS:", "SIBLINGS:"):
            assert section not in task_prompt
            for step in list(prefix) + [candidate]:
                assert section not in step.action.raw_text
                assert section not in step.observation.content
        return 0.5


def test_prm_never_sees_memory_bundles():
    aug_model = ScriptedAugmentorModel.from_dict(
        {
            "facts": {
                "rules": [
                    {
                        "pattern": r"OBSERVATION\[LIST_TABLES\]: (.+)",
                        "template": "table '{0}' exists",
                        "split": ", ",
                    }
                ]
            }
        }
    )
    composite = compose(
        (AugmentorConfig(AugmentorKind.FACT, fact_mode=FactMode.INCREMENTAL),),
        model=aug_model,
        embedder=HashEmbedder(),
    )
    spy = SpyPrm(TASK.prompt)
    env = ToySqlEnv(WORLD)
    cfg = SearchConfig(method=SearchMethod.MCTS, n_iters=3, n_actions=2)
    run_mcts(TASK, env, _policy(STRAIGHT_POLICY), spy, composite, cfg, seed=2)
    assert spy.calls > 0
    assert len(composite.store) > 0  # memory was active, and still hidden from the PRM


# ---------------------------------------------------------------------------
# the step trie: a replayed step answers and bills as its computation did


class Undeclared:
    """Passes every call to `inner` but declares no determinism, so a search
    with it computes every step.  An augmentor model's `generate` goes to a
    fresh copy of `inner` each time, so its answers are computed, not
    recalled from a memo, and billed to the same telemetry."""

    def __init__(self, inner):
        self.inner = inner

    def generate(self, instruction, text):
        return self.inner.for_unit(self.inner.telemetry).generate(instruction, text)

    def sample(self, task, prefix, bundle, temperature, seed):
        return self.inner.sample(task, prefix, bundle, temperature, seed)

    def score(self, task_prompt, prefix, candidate):
        return self.inner.score(task_prompt, prefix, candidate)


_TRIE_TEMPLATES = [
    "LIST_TABLES|",
    "SCHEMA|games",
    "SCHEMA|nope",
    "QUERY|(project Platform games)",
    "QUERY|(project Missing games)",
    "FINAL_ANSWER|{last_observation}",
    "FINAL_ANSWER|I cannot find the answer.",
]
_TRIE_MATCHES = [
    "contains:FACTS:",
    "contains:REFLECTIONS:",
    "contains:tried",
    "contains:games",
    "contains:has",
    "contains:error]",
    "contains:approach",
    f"fp:{fingerprint('')}",
]
_TRIE_AUGMENTOR = {
    "reflection": {"rules": [{"contains": "ERROR", "text": "avoid the error"}]},
    "facts": {
        "rules": [
            {"pattern": r"\[LIST_TABLES\]: (.+)", "template": "table {0}", "split": ", "},
            {"pattern": r"SCHEMA\|(.+)\nOBSERVATION\[SCHEMA\]: (.+)", "template": "{0} has {1}"},
        ]
    },
}
_TRIE_MEMORIES = {
    "none": (AugmentorConfig(AugmentorKind.NONE),),
    "raw_sibling": (AugmentorConfig(AugmentorKind.RAW_SIBLING),),
    "reflection": (AugmentorConfig(AugmentorKind.REFLECTION, reflection_threshold=0.6),),
    "fact": (AugmentorConfig(AugmentorKind.FACT),),
    "fact+reflection": (
        AugmentorConfig(AugmentorKind.FACT),
        AugmentorConfig(AugmentorKind.REFLECTION, reflection_threshold=0.6),
    ),
    # composed as it is, not pinned by normalize_for_method: under best-of-N
    # its facts change the bundle in the middle of an attempt
    "incremental_fact": (AugmentorConfig(AugmentorKind.FACT, fact_mode=FactMode.INCREMENTAL),),
}
# raw_sibling is inadmissible under best-of-N, which never expands siblings;
# incremental_fact is fact under MCTS
_TRIE_CELLS = [
    (method, memory)
    for method in (SearchMethod.BEST_OF_N, SearchMethod.MCTS)
    for memory in _TRIE_MEMORIES
    if (method, memory) != (SearchMethod.BEST_OF_N, "raw_sibling")
    and (method, memory) != (SearchMethod.MCTS, "incremental_fact")
]


def _trie_run(method, memory, script, reward, search, wrap, prefixes=(), temperature=0.0):
    """One unit as the matrix runner builds it: (record, each trajectory's
    text, telemetry, store units) after each budget in `prefixes`, then at
    its end.  `wrap` wraps the policy and the augmentor model in
    `Undeclared`, so every step and every augmentor answer is computed."""
    telemetry = Telemetry()
    policy = ScriptedPolicy(ScriptedPolicyConfig.from_dict(script), telemetry)
    prm = ScriptedRewardModel.from_dict(reward, telemetry)
    aug_model = ScriptedAugmentorModel.from_dict(_TRIE_AUGMENTOR, telemetry)
    configs = _TRIE_MEMORIES[memory]
    if memory != "incremental_fact":
        configs = normalize_for_method(configs, method.value)
    if wrap:
        policy, aug_model = Undeclared(policy), Undeclared(aug_model)
    composite = compose(configs, model=aug_model, embedder=HashEmbedder())
    interleaved = composite.wants_siblings and method is not SearchMethod.BEST_OF_N
    expansion = ExpansionMode.INTERLEAVED if interleaved else ExpansionMode.BATCH
    cfg = SearchConfig(method=method, expansion=expansion, temperature=temperature, **search)
    snapshots = []

    def snapshot(record):
        texts = [t.text for t in record.trajectories]
        snapshots.append((record, texts, replace(telemetry), composite.store.units))

    snapshot(
        run_search(
            TASK, ToySqlEnv(WORLD), policy, composite, cfg, 7, prm, None,
            dict.fromkeys(prefixes, snapshot),
        )
    )
    return snapshots


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    cell=st.sampled_from(_TRIE_CELLS),
    defaults=st.lists(st.sampled_from(_TRIE_TEMPLATES), min_size=4, max_size=4),
    rules=st.lists(
        st.tuples(
            st.integers(0, 4), st.sampled_from(_TRIE_MATCHES), st.sampled_from(_TRIE_TEMPLATES)
        ),
        max_size=8,
    ),
    scores=st.lists(
        st.tuples(
            st.floats(0.0, 1.0),
            st.sampled_from(["tool", "is_error", "obs_contains", "args_contains"]),
            st.sampled_from(["LIST_TABLES", "SCHEMA", "QUERY", "FINAL_ANSWER", "games", "PSP"]),
        ),
        max_size=4,
    ),
    default=st.floats(0.0, 1.0),
    sizes=st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)),
)
def test_trie_gives_the_same_record_telemetry_and_store_as_computing_every_step(
    cell, defaults, rules, scores, default, sizes
):
    # a default rule at each of steps 0-3, then rules that match on the bundle
    rules = [(step, "*", template) for step, template in enumerate(defaults)] + rules
    script = {
        "rules": [
            {"step": step, "match": match, "candidates": {template: 1.0}}
            for step, match, template in rules
        ]
    }
    reward = {
        "rules": [
            {"score": score, probe: True if probe == "is_error" else operand}
            for score, probe, operand in scores
        ],
        "default": default,
    }
    budget, n_actions, max_depth, rollout_depth = sizes
    search = dict(
        n_budget=budget,
        n_iters=budget,
        n_actions=n_actions,
        max_depth=max_depth,
        rollout_depth=rollout_depth,
    )
    replayed = _trie_run(*cell, script, reward, search, wrap=False)
    computed = _trie_run(*cell, script, reward, search, wrap=True)
    assert replayed == computed


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    cell=st.sampled_from(_TRIE_CELLS),
    defaults=st.lists(st.sampled_from(_TRIE_TEMPLATES), min_size=4, max_size=4),
    rules=st.lists(
        st.tuples(
            st.integers(0, 4), st.sampled_from(_TRIE_MATCHES), st.sampled_from(_TRIE_TEMPLATES)
        ),
        max_size=8,
    ),
    budgets=st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True),
    temperature=st.sampled_from([0.0, 0.7]),
)
def test_each_prefix_record_is_what_a_run_at_that_budget_returns(
    cell, defaults, rules, budgets, temperature
):
    # memory written by a trajectory reaches only later ones, so a run's
    # first k trajectories, its telemetry and its store then are those of a
    # run at budget k, at any temperature; the submitted trajectory too
    rules = [(step, "*", template) for step, template in enumerate(defaults)] + rules
    script = {
        "rules": [
            {"step": step, "match": match, "candidates": {template: 1.0}}
            for step, match, template in rules
        ]
    }
    reward = {"rules": [{"score": 0.9, "tool": "SCHEMA"}], "default": 0.4}
    *smaller, largest = sorted(budgets)
    ladder = _trie_run(
        *cell, script, reward, dict(n_budget=largest, n_iters=largest), False, smaller, temperature
    )
    alone = [
        _trie_run(*cell, script, reward, dict(n_budget=k, n_iters=k), False, (), temperature)[0]
        for k in (*smaller, largest)
    ]
    assert ladder == alone
    assert [len(record.trajectories) for record, *_ in ladder] == [*smaller, largest]


@pytest.mark.parametrize("method", [SearchMethod.BEST_OF_N, SearchMethod.MCTS])
def test_ties_submit_the_earliest_trajectory_at_every_prefix(method):
    # every trajectory scores the PRM default, and the draws answer A or B
    script = {"rules": [{"step": 0, "candidates": {"FINAL_ANSWER|A": 1.0, "FINAL_ANSWER|B": 1.0}}]}
    cfg = SearchConfig(method=method, n_budget=6, n_iters=6, n_actions=2, temperature=0.7)
    env, records = ToySqlEnv(WORLD), []
    record = run_search(
        TASK, env, _policy(script), _none_composite(), cfg, 5, _prm(), None,
        dict.fromkeys(range(1, 6), records.append),
    )
    records.append(record)
    assert len({t.answer() for t in records[-1].trajectories}) == 2
    assert len({t.trajectory_score for t in records[-1].trajectories}) == 1
    assert [len(r.trajectories) for r in records] == list(range(1, 7))
    assert all(r.selected is r.trajectories[0] for r in records)


def test_beam_has_no_budget_prefixes():
    cfg = SearchConfig(method=SearchMethod.BEAM)
    with pytest.raises(ValueError, match="beam search has no budget prefixes"):
        run_search(
            TASK, ToySqlEnv(WORLD), _policy(STRAIGHT_POLICY), _none_composite(), cfg, 0, _prm(),
            None, {1: print},
        )


@pytest.mark.parametrize(
    "method, on_prefix, match",
    [
        (
            SearchMethod.BEST_OF_N,
            dict.fromkeys([0, 7, -1], print),
            r"prefixes \[-1, 0, 7\] not all in \[1, 5\]",
        ),
        (SearchMethod.MCTS, {5: print}, r"prefixes \[5\] not all in \[1, 3\]"),
    ],
    ids=["best_of_n_outside", "mcts_outside"],
)
def test_budget_prefixes_are_refused_before_any_model_call(method, on_prefix, match):
    telemetry = Telemetry()
    policy = ScriptedPolicy(ScriptedPolicyConfig.from_dict(STRAIGHT_POLICY), telemetry)
    prm = ScriptedRewardModel.from_dict({"default": 0.5}, telemetry)
    cfg = SearchConfig(method=method, n_budget=5, n_iters=3)
    env = CountingEnv(WORLD)
    with pytest.raises(ValueError, match=match):
        run_search(TASK, env, policy, _none_composite(), cfg, 0, prm, None, on_prefix)
    assert telemetry == Telemetry()
    assert env.steps == 0


class CountingEnv(ToySqlEnv):
    """Counts the steps it executes."""

    def __init__(self, worlds):
        super().__init__(worlds)
        self.steps = 0

    def step(self, state, action):
        self.steps += 1
        return super().step(state, action)


def _counted_run(method, policy_wrap=lambda p: p, prm=True, temperature=0.0):
    """(env steps, policy draws, telemetry) of one unit of STRAIGHT_POLICY."""
    telemetry = Telemetry()
    scripted = ScriptedPolicy(ScriptedPolicyConfig.from_dict(STRAIGHT_POLICY), telemetry)
    draws = []
    real_sample = scripted.sample
    scripted.sample = lambda *a: draws.append(a) or real_sample(*a)  # the class still declares
    reward = ScriptedRewardModel.from_dict({"default": 0.5}, telemetry) if prm else None
    cfg = SearchConfig(method=method, n_budget=5, n_iters=5, n_actions=3, temperature=temperature)
    env = CountingEnv(WORLD)
    run_search(TASK, env, policy_wrap(scripted), _none_composite(), cfg, seed=4, prm=reward)
    return env.steps, len(draws), telemetry


@pytest.mark.parametrize("method", [SearchMethod.BEST_OF_N, SearchMethod.BEAM, SearchMethod.MCTS])
def test_trie_computes_fewer_steps_and_bills_every_one(method):
    steps, draws, telemetry = _counted_run(method)
    all_steps, all_draws, all_telemetry = _counted_run(method, policy_wrap=Undeclared)
    assert steps == draws < all_steps == all_draws
    assert telemetry == all_telemetry
    assert telemetry.policy_calls == telemetry.supervisor_calls == all_draws
    if method is SearchMethod.BEST_OF_N:
        assert (steps, all_steps) == (3, 15)  # the first attempt's 3 steps, then only replays


@pytest.mark.parametrize("method", [SearchMethod.BEST_OF_N, SearchMethod.BEAM, SearchMethod.MCTS])
def test_trie_replays_nothing_above_temperature_zero(method):
    steps, draws, telemetry = _counted_run(method, temperature=0.7)
    computed = _counted_run(method, policy_wrap=Undeclared, temperature=0.7)
    assert (steps, draws, telemetry) == computed
    assert steps == draws == telemetry.policy_calls


def test_trie_executes_every_step_in_a_shell_env():
    world = {"t1": {"files": {"a.txt": "PSP"}}}
    task = Task("t1", "p", ("RUN", FINAL_ANSWER), "b", "scripted_shell", {})
    script = {
        "rules": [
            {"step": 0, "candidates": {"RUN|cat a.txt": 1.0}},
            {"step": 1, "candidates": {"FINAL_ANSWER|{last_observation}": 1.0}},
        ]
    }
    env, telemetry = ScriptedShellEnv(world), Telemetry()
    policy = ScriptedPolicy(ScriptedPolicyConfig.from_dict(script), telemetry)
    steps = []
    real_step = env.step
    env.step = lambda *a: steps.append(a) or real_step(*a)
    cfg = SearchConfig(method=SearchMethod.BEST_OF_N, n_budget=4)
    prm = ScriptedRewardModel.from_dict({}, telemetry)
    record = run_best_of_n(task, env, policy, _none_composite(), cfg, seed=1, prm=prm)
    assert record.final_answer == "PSP"
    assert len(steps) == telemetry.policy_calls == telemetry.supervisor_calls == 8


class DriftingShellEnv(ScriptedShellEnv):
    """A shell that is not deterministic: `a.txt` reads differently after
    every reset, so a replayed `cat a.txt` meets an observation the step
    trie does not hold."""

    def _open(self, task_id):
        state = super()._open(task_id)
        self._sessions[state.env_id]["a.txt"] = f"draft {self._counter}"
        return state


SHELL_WORLD = {"t1": {"files": {"a.txt": "PSP"}}}
SHELL_TASK = Task("t1", "p", ("RUN", FINAL_ANSWER), "b", "scripted_shell", {})
# the first attempt errs and is reflected on; "avoid" in the bundle then
# writes the file that step 2 reads, in the live session
SHELL_POLICY = {
    "rules": [
        {"step": 0, "match": "contains:avoid", "candidates": {"RUN|write b.txt done": 1.0}},
        {"step": 0, "candidates": {"RUN|cat missing.txt": 1.0}},
        {"step": 1, "candidates": {"RUN|cat a.txt": 1.0}},
        {"step": 2, "candidates": {"RUN|cat b.txt": 1.0}},
        {"step": 3, "candidates": {"FINAL_ANSWER|{last_observation}": 1.0}},
    ]
}
SHELL_AUGMENTOR = {
    "reflection": {"rules": [{"contains": "ERROR", "text": "avoid the error"}]},
    "facts": {"rules": [{"pattern": r"no such file '(.+)'", "template": "{0} is missing"}]},
}


def _shell_run(env_cls, memory, wrap):
    """One best-of-N unit on a shell env, as `_trie_run` runs one: ((record,
    each trajectory and its text, telemetry, store units, the env's reset
    and step calls in order), the computed policy draws after each
    attempt).  `wrap` wraps the policy and the augmentor model in
    `Undeclared`, so the run has no trie."""
    telemetry = Telemetry()
    scripted = ScriptedPolicy(ScriptedPolicyConfig.from_dict(SHELL_POLICY), telemetry)
    draws = []
    real_sample = scripted.sample
    scripted.sample = lambda *a: draws.append(a) or real_sample(*a)  # the class still declares
    reward = {"rules": [{"score": 0.2, "is_error": True}], "default": 0.8}
    prm = ScriptedRewardModel.from_dict(reward, telemetry)
    aug_model = ScriptedAugmentorModel.from_dict(SHELL_AUGMENTOR, telemetry)
    policy = scripted
    if wrap:
        policy, aug_model = Undeclared(scripted), Undeclared(aug_model)
    composite = compose(_TRIE_MEMORIES[memory], model=aug_model, embedder=HashEmbedder())
    env, calls = env_cls(SHELL_WORLD), []
    real_reset, real_step = env.reset, env.step
    env.reset = lambda task: calls.append(("reset", task.task_id)) or real_reset(task)
    env.step = lambda *a: calls.append(("step", *a)) or real_step(*a)
    cfg = SearchConfig(method=SearchMethod.BEST_OF_N, n_budget=5)
    drawn = []
    record = run_best_of_n(
        SHELL_TASK, env, policy, composite, cfg, 3, prm, None,
        dict.fromkeys(range(1, 5), lambda _: drawn.append(len(draws))),
    )
    texts = [(t, t.text) for t in record.trajectories]
    return (record, texts, telemetry, composite.store.units, calls), [*drawn, len(draws)]


@pytest.mark.parametrize(
    "env_cls, memory, drawn",
    [
        (ScriptedShellEnv, "none", [4, 4, 4, 4, 4]),  # every draw is the first attempt's
        (ScriptedShellEnv, "reflection", [4, 8, 8, 8, 8]),  # one reflection, one new bundle
        (ScriptedShellEnv, "incremental_fact", [4, 7, 7, 7, 7]),
        # `cat a.txt` answers otherwise in every attempt: what follows it is computed
        (DriftingShellEnv, "none", [4, 6, 8, 10, 12]),
        (DriftingShellEnv, "reflection", [4, 8, 10, 12, 14]),
        (DriftingShellEnv, "incremental_fact", [4, 8, 10, 12, 14]),
    ],
)
def test_trie_on_a_shell_env_makes_the_env_calls_of_a_run_without_one(env_cls, memory, drawn):
    # the trie replays only the policy draws and the PRM scores: every reset
    # and step still runs, in order, and a step the env answers otherwise is
    # scored as computed; incremental_fact writes on every step, so it takes
    # them one at a time, and the other memories walk whole attempts
    replayed, replayed_drawn = _shell_run(env_cls, memory, wrap=False)
    computed, computed_drawn = _shell_run(env_cls, memory, wrap=True)
    assert replayed == computed
    assert replayed_drawn == drawn
    assert computed_drawn == [4, 8, 12, 16, 20]
    _, _, telemetry, _, calls = replayed
    assert [call[0] for call in calls].count("reset") == 5
    assert [call[0] for call in calls].count("step") == telemetry.policy_calls == 20


def test_trie_replay_without_a_prm_bills_no_supervisor_call():
    steps, draws, telemetry = _counted_run(SearchMethod.BEST_OF_N, prm=False)
    assert (steps, draws) == (3, 3)
    assert telemetry.policy_calls == 15
    assert telemetry.supervisor_calls == telemetry.supervisor_tokens_in == 0
    assert telemetry == _counted_run(SearchMethod.BEST_OF_N, Undeclared, prm=False)[2]


def test_best_of_n_walks_each_repeated_attempt_with_one_retrieve(monkeypatch):
    taken, retrieved = [], []
    real_take = search._take_step
    monkeypatch.setattr(
        search, "_take_step", lambda *a, **k: taken.append(a) or real_take(*a, **k)
    )
    composite = _none_composite()
    real_retrieve = composite.retrieve
    composite.retrieve = lambda *a: retrieved.append(a) or real_retrieve(*a)
    telemetry = Telemetry()
    policy = ScriptedPolicy(ScriptedPolicyConfig.from_dict(STRAIGHT_POLICY), telemetry)
    prm = ScriptedRewardModel.from_dict({"default": 0.5}, telemetry)
    cfg = SearchConfig(method=SearchMethod.BEST_OF_N, n_budget=5)
    env = CountingEnv(WORLD)
    record = run_best_of_n(TASK, env, policy, composite, cfg, seed=4, prm=prm)
    assert env.steps == 3  # the first attempt's steps; the other 4 walk the trie
    assert len(taken) == 3 + 4  # a step per call, then one call per repeated attempt
    assert len(retrieved) == 5  # once per attempt
    assert telemetry.policy_calls == telemetry.supervisor_calls == 15
    assert [len(t.steps) for t in record.trajectories] == [3] * 5


def test_a_best_of_n_walk_bills_once_per_model():
    adds = []

    class Logged(Telemetry):  # Telemetry is slotted: an instance's `add` cannot be replaced
        def add(self, *a):
            adds.append(a)
            super().add(*a)

    telemetry = Logged()
    policy = ScriptedPolicy(ScriptedPolicyConfig.from_dict(STRAIGHT_POLICY), telemetry)
    prm = ScriptedRewardModel.from_dict({"default": 0.5}, telemetry)
    cfg = SearchConfig(method=SearchMethod.BEST_OF_N, n_budget=5)
    run_best_of_n(TASK, ToySqlEnv(WORLD), policy, _none_composite(), cfg, seed=4, prm=prm)
    computed = [("policy", 1), ("supervisor", 1)] * 3  # the first attempt, step by step
    walked = [("policy", 3), ("supervisor", 3)] * 4  # each repeat: its 3 steps, once per model
    assert [a[:2] for a in adds] == computed + walked
    assert telemetry.policy_calls == telemetry.supervisor_calls == 15


@pytest.mark.parametrize("billing_first", [True, False], ids=["telemetry_first", "telemetry_last"])
def test_a_shared_root_bills_what_a_fresh_one_bills(billing_first):
    def run(root, telemetry):
        policy = ScriptedPolicy(ScriptedPolicyConfig.from_dict(STRAIGHT_POLICY), telemetry)
        prm = ScriptedRewardModel.from_dict({"default": 0.5}, telemetry)
        cfg = SearchConfig(method=SearchMethod.BEST_OF_N, n_budget=3)
        run_best_of_n(TASK, ToySqlEnv(WORLD), policy, _none_composite(), cfg, 1, prm, root)

    fresh = Telemetry()
    run(search._StepNode(), fresh)
    assert fresh == Telemetry(9, 39, 12, 9, 48, 9)
    shared, telemetry = search._StepNode(), Telemetry()
    for given in (telemetry, None) if billing_first else (None, telemetry):
        run(shared, given)  # a model given no telemetry bills one of its own
    assert telemetry == fresh


@pytest.mark.parametrize("method", [SearchMethod.BEST_OF_N, SearchMethod.BEAM, SearchMethod.MCTS])
def test_each_distinct_finished_path_is_rendered_once(monkeypatch, method):
    rendered = []
    real_render = search.trajectory_text
    monkeypatch.setattr(search, "trajectory_text", lambda *a: rendered.append(a) or real_render(*a))
    telemetry = Telemetry()
    aug_model = ScriptedAugmentorModel.from_dict(_TRIE_AUGMENTOR, telemetry)
    kind = AugmentorKind.NONE if method is SearchMethod.BEAM else AugmentorKind.REFLECTION
    composite = compose((AugmentorConfig(kind, reflection_threshold=0.6),), model=aug_model)
    policy = ScriptedPolicy(ScriptedPolicyConfig.from_dict(STRAIGHT_POLICY), telemetry)
    prm = ScriptedRewardModel.from_dict({"default": 0.5}, telemetry)
    cfg = SearchConfig(method=method, n_budget=5, n_iters=5, n_actions=2)
    record = run_search(TASK, ToySqlEnv(WORLD), policy, composite, cfg, seed=4, prm=prm)
    paths = {t.steps for t in record.trajectories}
    assert len(rendered) == len(paths) < len(record.trajectories)
    for t in record.trajectories:
        assert t.text == real_render(t.steps, t.terminal_kind)
    if kind is AugmentorKind.REFLECTION:  # every trajectory scored 0.5 < 0.6: one reflection each
        assert len(composite.store) == telemetry.supervisor_calls - telemetry.policy_calls
        assert len(aug_model._answers) == len(paths)


@pytest.mark.parametrize("method, expansions", [(SearchMethod.BEAM, 7), (SearchMethod.MCTS, 10)])
def test_beam_and_mcts_expand_through_the_module_name(monkeypatch, method, expansions):
    # a wrapper set on `search.expand` (the bench tracer sets one) sees every
    # expansion: beam's one from the root, then 3 beams at each of 2 levels;
    # MCTS's one per iteration, 5, and the 5 that its rollouts made
    calls = []
    real_expand = search.expand
    monkeypatch.setattr(search, "expand", lambda *a: calls.append(a) or real_expand(*a))
    cfg = SearchConfig(method=method)
    policy, composite = _policy(STRAIGHT_POLICY), _none_composite()
    record = run_search(TASK, ToySqlEnv(WORLD), policy, composite, cfg, 0, _prm())
    assert len(calls) == expansions
    assert calls[0][3] == () and calls[0][10] is not None  # the root: empty prefix, trie root
    assert all(len(t.steps) == 3 for t in record.trajectories)


def test_an_interleaved_sibling_sees_the_facts_an_earlier_sibling_stored():
    # MCTS x fact+raw_sibling: facts are extracted per step, so the second
    # candidate of the root's expansion is sampled from a bundle that holds
    # the fact its elder sibling's LIST_TABLES stored, which the first
    # candidate's bundle lacked; a sibling's bundle is not the one before it
    # plus that sibling's record
    memory = (AugmentorConfig(AugmentorKind.FACT), AugmentorConfig(AugmentorKind.RAW_SIBLING))
    composite = compose(
        normalize_for_method(memory, "mcts"),
        model=ScriptedAugmentorModel.from_dict(_TRIE_AUGMENTOR),
        embedder=HashEmbedder(),
    )
    policy = RecordingPolicy(_policy(STRAIGHT_POLICY))
    cfg = SearchConfig(method=SearchMethod.MCTS, n_iters=1, expansion=ExpansionMode.INTERLEAVED)
    run_mcts(TASK, ToySqlEnv(WORLD), policy, _prm(), composite, cfg)
    first, second = policy.bundles[:2]
    assert "table games" not in first and "tried" not in first
    assert "FACTS:\n- table games" in second and "tried" in second
