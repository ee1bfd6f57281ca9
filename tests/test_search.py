from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsearch.augmentors import AugmentorConfig, AugmentorKind, FactMode, compose
from memsearch.core import (
    FINAL_ANSWER,
    Action,
    Node,
    Observation,
    StateHandle,
    Step,
    Task,
    TerminalKind,
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
