"""Inference strategies: best-of-N, single-round beam, and MCTS.

All three draw actions from the same augmented policy: at every policy call
the active memory bundle is rendered into the prompt (policy prompts only;
reward model inputs never see bundle text).  Expansion of a node samples
n_actions candidates either in batch (identical prompts, i.i.d. draws) or
interleaved (candidate i's prompt carries the records of the i already
executed siblings).  Every run is a pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .augmentors import CompositeAugmentor, sibling_context
from .core import (
    MAX_DEPTH,
    Action,
    ContextBundle,
    GiveUpStats,
    Node,
    SearchRecord,
    StateHandle,
    Step,
    Task,
    TerminalKind,
    Trajectory,
    aggregate_score,
    clamp01,
    is_int,
    is_number,
    stable_hasher,
)
from .envs import Environment
from .models import PolicyModel, RewardModel


class SearchMethod(str, Enum):
    BEST_OF_N = "best_of_n"
    BEAM = "beam"
    MCTS = "mcts"


class BackpropMode(str, Enum):
    CUMULATIVE = "cumulative"
    DECAY = "decay"


class ExpansionMode(str, Enum):
    BATCH = "batch"
    INTERLEAVED = "interleaved"


class AdmissibilityError(Exception):
    """The method/memory/environment combination cannot run."""


APOLOGY_MARKERS = (
    "i cannot",
    "i can't",
    "cannot find",
    "unable to",
    "i apologize",
    "sorry",
)


@dataclass(frozen=True)
class SearchConfig:
    method: SearchMethod
    n_budget: int = 5
    beam_width: int = 3
    n_actions: int = 3
    n_iters: int = 5
    w_exp: float = 1.0
    max_depth: int = MAX_DEPTH
    rollout_depth: int = MAX_DEPTH
    backprop: BackpropMode = BackpropMode.CUMULATIVE
    decay_gamma: float = 0.5
    temperature: float = 0.0
    expansion: ExpansionMode = ExpansionMode.BATCH

    def __post_init__(self) -> None:
        for name in ("n_budget", "beam_width", "n_actions", "n_iters", "max_depth", "rollout_depth"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("w_exp", "temperature", "decay_gamma"):
            value = getattr(self, name)
            if not is_number(value) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if min(self.n_budget, self.beam_width, self.n_actions, self.n_iters) < 1:
            raise ValueError("search widths and budgets must be at least 1")
        if not 1 <= self.max_depth <= MAX_DEPTH or not 1 <= self.rollout_depth <= MAX_DEPTH:
            raise ValueError(f"depth limits must lie in [1, {MAX_DEPTH}]")
        if self.w_exp < 0 or self.temperature < 0:
            raise ValueError("w_exp and temperature must be non-negative")
        if not 0.0 <= self.decay_gamma <= 1.0:
            raise ValueError("decay_gamma outside [0, 1]")
        if self.expansion is ExpansionMode.INTERLEAVED and self.method is SearchMethod.BEST_OF_N:
            raise ValueError("interleaved expansion needs an expansion-based method (beam or mcts)")


def is_apology(action: Action) -> bool:
    if not action.is_final:
        return False
    text = action.arguments.lower()
    return any(m in text for m in APOLOGY_MARKERS)


@dataclass(frozen=True)
class Candidate:
    """An executed step, the state it leads to and its bundle's fingerprint."""

    step: Step
    state: StateHandle
    bundle_fp: str


def _trajectory(path: Sequence[Candidate], iteration: int) -> Trajectory:
    """The one place a trajectory's terminal kind is decided: a last action
    that is not FINAL_ANSWER means the depth cap ended it."""
    steps = tuple([c.step for c in path])
    last = steps[-1].action
    if not last.is_final:
        kind = TerminalKind.MAX_DEPTH
    elif is_apology(last):
        kind = TerminalKind.APOLOGY
    else:
        kind = TerminalKind.ANSWERED
    fps = tuple([c.bundle_fp for c in path])
    return Trajectory(steps, kind, aggregate_score(steps), iteration, fps)


def _record(
    trajectories: Sequence[Trajectory], best: Trajectory | None, giveup: GiveUpStats | None = None
) -> SearchRecord:
    """The one place the submitted trajectory is chosen: the best one, if it answered."""
    selected = best if best is not None and best.answer() is not None else None
    return SearchRecord(tuple(trajectories), selected, giveup)


def _take_step(
    env: Environment,
    task: Task,
    state: StateHandle,
    prefix: Sequence[Step],
    policy: PolicyModel,
    prm: RewardModel | None,
    composite: CompositeAugmentor,
    bundle: ContextBundle,
    config: SearchConfig,
    iteration: int,
    seed: int,
) -> Candidate:
    """The one step every method takes: sample an action from `bundle`,
    execute it from `state`, score it with the PRM (clamped into [0, 1];
    unscored without a PRM) and hand it to the composite's on_step."""
    action = policy.sample(task, prefix, bundle, config.temperature, seed)
    state, obs = env.step(state, action)
    step = Step(action, obs)
    if prm is not None:
        step = Step(action, obs, clamp01(prm.score(task.prompt, prefix, step)))
    composite.on_step(step, iteration)
    return Candidate(step, state, bundle.fingerprint)


def expand(
    env: Environment,
    task: Task,
    parent_state: StateHandle,
    prefix: Sequence[Step],
    policy: PolicyModel,
    prm: RewardModel | None,
    composite: CompositeAugmentor,
    config: SearchConfig,
    iteration: int,
    seed_salt: tuple,
) -> list[Candidate]:
    """Sample and execute n_actions sibling candidates of one node.

    Candidates are sampled one at a time, and each is executed, scored and
    written to memory (on_step) before the next is sampled.  BATCH: every
    candidate is sampled from the one bundle retrieved before the first, so
    all prompts are byte-identical.  INTERLEAVED: candidate i's bundle is
    retrieved for it and carries exactly the i records of its already
    executed siblings.  Each candidate executes in its own fork of the
    parent state.  This is the library's one fork guard: a non-serializable
    environment raises AdmissibilityError here, before any model call (the
    matrix runner refuses such cells earlier still, in check_admissible).
    """
    if not env.serializable:
        raise AdmissibilityError(
            f"{env.env_id} is not serializable; {config.method.value} cannot fork"
        )
    out: list[Candidate] = []
    # cand_seeds(i) == stable_hash(*seed_salt, "cand", i), the prefix hashed once
    cand_seeds = stable_hasher(*seed_salt, "cand")
    for i in range(config.n_actions):
        if i == 0 or config.expansion is ExpansionMode.INTERLEAVED:
            bundle = composite.retrieve(sibling_context([c.step for c in out]))
        state = env.fork(parent_state)
        seed = cand_seeds(i)
        out.append(
            _take_step(
                env, task, state, prefix, policy, prm, composite, bundle, config, iteration, seed
            )
        )
    return out


# ---------------------------------------------------------------------------
# best-of-N


def _linear_rollout(
    env: Environment,
    task: Task,
    policy: PolicyModel,
    prm: RewardModel | None,
    composite: CompositeAugmentor,
    config: SearchConfig,
    iteration: int,
    seed: int,
) -> Trajectory:
    state = env.reset(task)
    path: list[Candidate] = []
    # step_seeds(d) == stable_hash(seed, "bon", iteration, d), the prefix hashed once
    step_seeds = stable_hasher(seed, "bon", iteration)
    for depth in range(config.max_depth):
        prefix = [c.step for c in path]
        bundle = composite.retrieve()
        step_seed = step_seeds(depth)
        cand = _take_step(
            env, task, state, prefix, policy, prm, composite, bundle, config, iteration, step_seed
        )
        path.append(cand)
        state = cand.state
        if cand.step.action.is_final:
            break
    return _trajectory(path, iteration)


def run_best_of_n(
    task: Task,
    env: Environment,
    policy: PolicyModel,
    composite: CompositeAugmentor,
    config: SearchConfig,
    seed: int = 0,
    prm: RewardModel | None = None,
) -> SearchRecord:
    """Sequential independent attempts under a fixed budget.

    Always runs exactly n_budget attempts; there is no stop-on-correct
    (grading is offline).  Persistent memory written by attempt i is visible
    to attempts i+1.. through the composite's store.
    """
    if config.method is not SearchMethod.BEST_OF_N:
        raise ValueError(f"config method {config.method} is not best_of_n")
    trajectories: list[Trajectory] = []
    for i in range(config.n_budget):
        traj = _linear_rollout(env, task, policy, prm, composite, config, i, seed)
        trajectories.append(traj)
        composite.on_trajectory(traj)
    best = max(trajectories, key=lambda t: t.trajectory_score)  # ties: earliest attempt
    return _record(trajectories, best)


# ---------------------------------------------------------------------------
# single-round beam


def run_beam(
    task: Task,
    env: Environment,
    policy: PolicyModel,
    prm: RewardModel,
    composite: CompositeAugmentor,
    config: SearchConfig,
    seed: int = 0,
) -> SearchRecord:
    """Single-round beam search with PRM top-B retention.

    At each level every active beam expands n_actions candidates; the pooled
    candidates are ranked by the PRM score of their new step and the top
    beam_width survive (ties keep creation order).  Terminals leave the
    active set.  The record carries every completed trajectory of the single
    round plus give-up statistics.
    """
    if config.method is not SearchMethod.BEAM:
        raise ValueError(f"config method {config.method} is not beam")
    if prm is None:
        raise ValueError("beam search needs a process reward model")

    root = env.reset(task)
    actives: list[tuple[Candidate, ...]] = [()]
    completed: list[Trajectory] = []
    apology_terminals = 0
    all_apology_states = 0

    for depth in range(config.max_depth):
        if not actives:
            break
        pool: list[tuple[Candidate, ...]] = []
        for b_idx, path in enumerate(actives):
            cands = expand(
                env,
                task,
                path[-1].state if path else root,
                [c.step for c in path],
                policy,
                prm,
                composite,
                config,
                iteration=0,
                seed_salt=(seed, "beam", depth, b_idx),
            )
            if all(is_apology(c.step.action) for c in cands):
                all_apology_states += 1
            pool.extend(path + (c,) for c in cands)
        survivors = sorted(pool, key=lambda p: -(p[-1].step.reward or 0.0))[: config.beam_width]
        actives = []
        for path in survivors:
            if path[-1].step.action.is_final or len(path) >= config.max_depth:
                traj = _trajectory(path, 0)
                apology_terminals += traj.terminal_kind is TerminalKind.APOLOGY
                completed.append(traj)
            else:
                actives.append(path)

    best = max(completed, key=lambda t: t.trajectory_score)  # ties: completion order
    giveup = GiveUpStats(
        apology_terminals=apology_terminals,
        selected_apology=best.terminal_kind is TerminalKind.APOLOGY,
        all_apology_states=all_apology_states,
    )
    return _record(completed, best, giveup)


# ---------------------------------------------------------------------------
# MCTS


def uct_score(q: float, child_visits: int, parent_visits: int, w_exp: float) -> float:
    return q + w_exp * math.sqrt(math.log(max(parent_visits, 1)) / child_visits)


class _Tree:
    def __init__(self, root_state: StateHandle):
        self.nodes: list[Node] = [Node(node_id=0, state=root_state, incoming_action=None)]
        self.cands: dict[int, Candidate] = {}  # of every node but the root
        self.parent: dict[int, int] = {}

    def add_child(self, parent_id: int, cand: Candidate) -> None:
        nid = len(self.nodes)
        node = Node(
            node_id=nid,
            state=cand.state,
            incoming_action=cand.step.action,
            is_terminal=cand.step.action.is_final,
        )
        self.nodes.append(node)
        self.nodes[parent_id].children.append(nid)
        self.cands[nid] = cand
        self.parent[nid] = parent_id

    def path_to_root(self, nid: int) -> list[int]:
        path = [nid]
        while path[-1] != 0:
            path.append(self.parent[path[-1]])
        return path


def backprop(
    nodes: Sequence[Node],
    path_ids: Sequence[int],
    value: float,
    mode: BackpropMode,
    gamma: float = 0.5,
) -> None:
    """Propagate a simulation value along path_ids ordered leaf -> root.

    CUMULATIVE keeps each node's q as the running mean of the values backed
    up through it.  DECAY sets the leaf q to the value and then folds each
    child's updated q into its parent: q_p <- (1-gamma)*q_p + gamma*q_c.
    """
    if not path_ids:
        return
    if mode is BackpropMode.CUMULATIVE:
        for nid in path_ids:
            node = nodes[nid]
            node.visit_count += 1
            node.q_value += (value - node.q_value) / node.visit_count
    else:
        leaf = nodes[path_ids[0]]
        leaf.visit_count += 1
        leaf.q_value = value
        child_q = leaf.q_value
        for nid in path_ids[1:]:
            node = nodes[nid]
            node.visit_count += 1
            node.q_value = (1.0 - gamma) * node.q_value + gamma * child_q
            child_q = node.q_value


def _select_child(tree: _Tree, nid: int, w_exp: float) -> int:
    kids = tree.nodes[nid].children
    unvisited = [k for k in kids if tree.nodes[k].visit_count == 0]
    if unvisited:
        return unvisited[0]  # creation order
    parent_visits = tree.nodes[nid].visit_count
    return max(
        kids,
        key=lambda k: uct_score(
            tree.nodes[k].q_value, tree.nodes[k].visit_count, parent_visits, w_exp
        ),
    )


def run_mcts(
    task: Task,
    env: Environment,
    policy: PolicyModel,
    prm: RewardModel,
    composite: CompositeAugmentor,
    config: SearchConfig,
    seed: int = 0,
) -> SearchRecord:
    """UCT tree search with a fixed iteration budget.

    Each iteration: select a leaf (unvisited children first, then UCT),
    expand it, simulate from the best-scored new child with per-step argmax
    over n_actions sampled continuations (the MAX strategy), and backprop
    the simulated trajectory's score.  Exactly n_iters trajectories are
    recorded; per-trajectory augmentors fire after every iteration, so
    memory written by iteration i is in the bundle from iteration i+1 on.
    """
    if config.method is not SearchMethod.MCTS:
        raise ValueError(f"config method {config.method} is not mcts")
    if prm is None:
        raise ValueError("mcts needs a process reward model")

    tree = _Tree(env.reset(task))
    trajectories: list[Trajectory] = []

    for it in range(config.n_iters):
        nid = 0
        while tree.nodes[nid].children and not tree.nodes[nid].is_terminal:
            nid = _select_child(tree, nid, config.w_exp)
        path = [tree.cands[n] for n in reversed(tree.path_to_root(nid)[:-1])]

        leaf = nid
        if not tree.nodes[nid].is_terminal and len(path) < config.max_depth:
            cands = expand(
                env,
                task,
                tree.nodes[nid].state,
                [c.step for c in path],
                policy,
                prm,
                composite,
                config,
                iteration=it,
                seed_salt=(seed, "mcts_expand", nid),
            )
            for c in cands:
                tree.add_child(nid, c)
            pick = max(range(len(cands)), key=lambda i: cands[i].step.reward or 0.0)
            leaf = tree.nodes[nid].children[pick]
            path.append(cands[pick])
            depth_cap = min(config.rollout_depth, config.max_depth)
            while not path[-1].step.action.is_final and len(path) < depth_cap:
                rollout_cands = expand(
                    env,
                    task,
                    path[-1].state,
                    [c.step for c in path],
                    policy,
                    prm,
                    composite,
                    config,
                    iteration=it,
                    seed_salt=(seed, "mcts_roll", it, len(path)),
                )
                path.append(max(rollout_cands, key=lambda c: c.step.reward or 0.0))

        traj = _trajectory(path, it)
        ids = tree.path_to_root(leaf)
        backprop(tree.nodes, ids, traj.trajectory_score, config.backprop, config.decay_gamma)
        trajectories.append(traj)
        composite.on_trajectory(traj)

    finished = [t for t in trajectories if t.terminal_kind is not TerminalKind.MAX_DEPTH]
    best = max(finished, key=lambda t: t.trajectory_score) if finished else None
    return _record(trajectories, best)


# ---------------------------------------------------------------------------
# dispatch


def run_search(
    task: Task,
    env: Environment,
    policy: PolicyModel,
    composite: CompositeAugmentor,
    config: SearchConfig,
    seed: int = 0,
    prm: RewardModel | None = None,
) -> SearchRecord:
    if config.method is SearchMethod.BEST_OF_N:
        return run_best_of_n(task, env, policy, composite, config, seed, prm)
    if config.method is SearchMethod.BEAM:
        return run_beam(task, env, policy, prm, composite, config, seed)
    if config.method is SearchMethod.MCTS:
        return run_mcts(task, env, policy, prm, composite, config, seed)
    raise ValueError(f"unknown search method {config.method!r}")

