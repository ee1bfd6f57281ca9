"""Inference strategies: best-of-N, single-round beam, and MCTS.

All three draw actions from the same augmented policy: at every policy call
the active memory bundle is rendered into the prompt (policy prompts only;
reward model inputs never see bundle text).  Expansion of a node samples
n_actions candidates either in batch (identical prompts, i.i.d. draws) or
interleaved (candidate i's prompt carries the records of the i already
executed siblings).  Every run is a pure function of its seed.  At
temperature 0 a run computes each distinct step once and replays, and
bills, every repeat of it (the step trie, see `_take_step`).  A caller may
hand runs of one task a shared trie root, as the matrix runner does for
every unit of a (benchmark, task): each run then replays what earlier runs
computed.  A best-of-N attempt whose bundle cannot change before it ends
walks the trie in one pass (`_linear_rollout`), and each finished path's
terminal kind, score and text are made once, at its end node
(`_trajectory`).  On `grid` seed 1 a matrix pass at `jobs` 1 bills 50,745
steps, calls `_take_step` 25,999 times, computes 8,146 steps and renders
65 path endings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .augmentors import CompositeAugmentor, sibling_context
from .core import (
    MAX_DEPTH,
    Action,
    ContextBundle,
    GiveUpStats,
    Node,
    Observation,
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
    stable_hash,
    trajectory_text,
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


class _StepNode:
    """One distinct executed prefix of a task's steps: a node of a step trie.

    The root is the empty prefix, at `env.reset(task)`.  `entries` maps a
    bundle, as (fingerprint, rendered text), to the step computed from this
    prefix under it: its Candidate, whose `node` is the child it leads to,
    and the (tokens in, tokens out) the policy and the PRM billed for it
    (None for a model that billed nothing).  `children` maps what a step
    executed, its (action, observation), to that child, so bundles that lead
    to the same step share what follows it.  `ending` is what a trajectory
    that ends here is, a function of the prefix alone: its (terminal kind,
    score, `trajectory_text`), made by the first path that ends here (None
    until then) and read by every later one.  A best-of-N attempt under a
    fixed bundle walks `entries` from the root down in one pass, so a
    repeated attempt only bills its steps again and reads its end node's
    `ending`.  The matrix runner keeps one trie per (benchmark, task) for a
    whole run, so on `grid` seed 1 65 endings serve its 20,790 trajectories.
    """

    __slots__ = ("entries", "children", "ending")

    def __init__(self) -> None:
        self.entries: dict[tuple[str, str], tuple[Candidate, tuple | None, tuple | None]] = {}
        self.children: dict[tuple[Action, Observation], _StepNode] = {}
        self.ending: tuple[TerminalKind, float, str] | None = None


def _step_trie(
    env: Environment,
    policy: PolicyModel,
    prm: RewardModel | None,
    config: SearchConfig,
    root: _StepNode | None = None,
) -> _StepNode | None:
    """The root a search run takes its steps through, or None where every
    step must be computed: `root` if given, else a fresh node.

    Steps are replayed only at temperature <= 0, in a serializable env, and
    when the classes of the policy and of the PRM (if any) both declare
    `deterministic_at_zero` (a wrapper class declares nothing): then a step,
    and what it bills, are functions of its prefix and its bundle.  A root
    may serve several runs of one task, as the matrix runner's do (one per
    benchmark and task), if their envs are of one benchmark and their
    models answer and bill alike: a state handle is then valid in each env.
    """
    if config.temperature > 0.0 or not env.serializable:
        return None
    models = [policy] if prm is None else [policy, prm]
    if not all(getattr(type(m), "deterministic_at_zero", False) is True for m in models):
        return None
    return _StepNode() if root is None else root


@dataclass(frozen=True)
class Candidate:
    """An executed step, the state it leads to and its bundle's fingerprint.

    `steps` is the path up to and including the step, and `node` the step
    trie node it leads to (None when the unit has no trie).
    """

    step: Step
    state: StateHandle
    bundle_fp: str
    steps: tuple[Step, ...] = field(compare=False, repr=False)
    node: _StepNode | None = field(compare=False, repr=False)


def _trajectory(path: Sequence[Candidate], iteration: int) -> Trajectory:
    """The one place a trajectory's terminal kind is decided: a last action
    that is not FINAL_ANSWER means the depth cap ended it.  On a trie, the
    kind, the score and the text are read from the end node's `ending`,
    made there by the first path that ended at it."""
    last = path[-1]
    ending = None if last.node is None else last.node.ending
    if ending is None:
        steps = last.steps
        action = steps[-1].action
        if not action.is_final:
            kind = TerminalKind.MAX_DEPTH
        elif is_apology(action):
            kind = TerminalKind.APOLOGY
        else:
            kind = TerminalKind.ANSWERED
        if last.node is None:  # rendered only if read (`Trajectory.text`)
            ending = (kind, aggregate_score(steps), None)
        else:
            ending = last.node.ending = (kind, aggregate_score(steps), trajectory_text(steps, kind))
    fps = tuple([c.bundle_fp for c in path])
    return Trajectory(last.steps, ending[0], ending[1], iteration, fps, ending[2])


def _record(
    trajectories: Sequence[Trajectory], best: Trajectory | None, giveup: GiveUpStats | None = None
) -> SearchRecord:
    """The one place the submitted trajectory is chosen: the best one, if it answered."""
    selected = best if best is not None and best.answer() is not None else None
    return SearchRecord(tuple(trajectories), selected, giveup)


def _replay(
    node: _StepNode, key: tuple[str, str], policy: PolicyModel, prm: RewardModel | None
) -> Candidate | None:
    """The step `node` holds under the bundle `key`, billed again by each
    model as its computation billed; None if the node holds no such step."""
    replay = node.entries.get(key)
    if replay is None:
        return None
    cand, policy_bill, prm_bill = replay
    if policy_bill is not None:
        policy.rebill(policy_bill)
    if prm_bill is not None:
        prm.rebill(prm_bill)
    return cand


def _take_step(
    env: Environment,
    task: Task,
    node: _StepNode | None,
    state: StateHandle,
    prefix: Sequence[Step],
    policy: PolicyModel,
    prm: RewardModel | None,
    composite: CompositeAugmentor,
    bundle: ContextBundle,
    config: SearchConfig,
    iteration: int,
    seed_salt: tuple,
    fork: bool = False,
) -> Candidate:
    """The one step every method takes from `node`, the trie node of `prefix`
    (None: no trie): sample an action from `bundle` with seed
    `stable_hash(*seed_salt)`, execute it from `state` (from a fork of it
    if `fork`), score it with the PRM (clamped into [0, 1]; unscored
    without a PRM) and hand it to the composite's on_step.

    A step the trie already holds under this bundle is replayed instead: the
    composite gets it all the same, and each model bills again what it
    billed for it, but nothing is sampled, forked, executed, scored or
    seeded.
    """
    if node is not None:
        key = (bundle.fingerprint, bundle.rendered)
        cand = _replay(node, key, policy, prm)
        if cand is not None:
            composite.on_step(cand.step, iteration)
            return cand
    action = policy.sample(task, prefix, bundle, config.temperature, stable_hash(*seed_salt))
    state, obs = env.step(env.fork(state) if fork else state, action)
    step = Step(action, obs)
    if prm is not None:
        step = Step(action, obs, clamp01(prm.score(task.prompt, prefix, step)))
    composite.on_step(step, iteration)
    if node is None:
        return Candidate(step, state, bundle.fingerprint, (*prefix, step), None)
    child = node.children.get((action, obs))
    if child is None:
        child = node.children[action, obs] = _StepNode()
    cand = Candidate(step, state, bundle.fingerprint, (*prefix, step), child)
    node.entries[key] = (cand, policy.billed, None if prm is None else prm.billed)
    return cand


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
    parent: _StepNode | None = None,
) -> list[Candidate]:
    """Sample and execute n_actions sibling candidates of one node.

    Candidates are sampled one at a time, and each is executed, scored and
    written to memory (on_step) before the next is sampled.  BATCH: every
    candidate is sampled from the one bundle retrieved before the first, so
    all prompts are byte-identical.  INTERLEAVED: candidate i's bundle is
    retrieved for it and carries exactly the i records of its already
    executed siblings.  Each computed candidate executes in its own fork of
    the parent state.  `parent` is the step trie node of `prefix`: without
    one, every candidate is computed.  This is the library's one fork
    guard: a non-serializable environment raises AdmissibilityError here,
    before any model call (the matrix runner refuses such cells earlier
    still, in check_admissible).
    """
    if not env.serializable:
        raise AdmissibilityError(
            f"{env.env_id} is not serializable; {config.method.value} cannot fork"
        )
    out: list[Candidate] = []
    for i in range(config.n_actions):
        if i == 0 or config.expansion is ExpansionMode.INTERLEAVED:
            bundle = composite.retrieve(sibling_context([c.step for c in out]))
        out.append(
            _take_step(
                env, task, parent, parent_state, prefix, policy, prm, composite, bundle, config,
                iteration, (*seed_salt, "cand", i), fork=True,
            )
        )
    return out


# ---------------------------------------------------------------------------
# best-of-N


def _linear_rollout(
    env: Environment,
    task: Task,
    root: _StepNode | None,
    policy: PolicyModel,
    prm: RewardModel | None,
    composite: CompositeAugmentor,
    config: SearchConfig,
    iteration: int,
    seed: int,
) -> Trajectory:
    """One attempt from `env.reset(task)`.

    A composite that cannot write on a step cannot change the bundle before
    the attempt ends, so the attempt retrieves it once.  On a trie it then
    walks down the steps held under that bundle, each billed again as
    `_take_step` bills a replay (its on_step would do nothing), and takes
    steps with `_take_step` from the first one the trie lacks.
    """
    state, prefix, node = env.reset(task), (), root
    path: list[Candidate] = []
    bundle = None if composite.writes_on_step else composite.retrieve()
    if node is not None and bundle is not None:
        key = (bundle.fingerprint, bundle.rendered)
        while len(path) < config.max_depth:
            cand = _replay(node, key, policy, prm)
            if cand is None:
                break
            path.append(cand)
            if cand.step.action.is_final:
                return _trajectory(path, iteration)
            state, prefix, node = cand.state, cand.steps, cand.node
    for depth in range(len(path), config.max_depth):
        cand = _take_step(
            env, task, node, state, prefix, policy, prm, composite,
            composite.retrieve() if bundle is None else bundle, config, iteration,
            (seed, "bon", iteration, depth),
        )
        path.append(cand)
        state, prefix, node = cand.state, cand.steps, cand.node
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
    trie: _StepNode | None = None,
) -> SearchRecord:
    """Sequential independent attempts under a fixed budget.

    Always runs exactly n_budget attempts; there is no stop-on-correct
    (grading is offline).  Persistent memory written by attempt i is visible
    to attempts i+1.. through the composite's store.  `trie` is a step trie
    root to share (see `_step_trie`); without one the run makes its own.
    """
    if config.method is not SearchMethod.BEST_OF_N:
        raise ValueError(f"config method {config.method} is not best_of_n")
    root = _step_trie(env, policy, prm, config, trie)
    trajectories: list[Trajectory] = []
    for i in range(config.n_budget):
        traj = _linear_rollout(env, task, root, policy, prm, composite, config, i, seed)
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
    trie: _StepNode | None = None,
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

    root, trie = env.reset(task), _step_trie(env, policy, prm, config, trie)
    actives: list[tuple[Candidate, ...]] = [()]
    completed: list[Trajectory] = []
    apology_terminals = 0
    all_apology_states = 0

    for depth in range(config.max_depth):
        if not actives:
            break
        pool: list[tuple[Candidate, ...]] = []
        for b_idx, path in enumerate(actives):
            last = path[-1] if path else None
            cands = expand(
                env,
                task,
                last.state if last else root,
                last.steps if last else (),
                policy,
                prm,
                composite,
                config,
                iteration=0,
                seed_salt=(seed, "beam", depth, b_idx),
                parent=last.node if last else trie,
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
    return _uct(q, child_visits, math.log(max(parent_visits, 1)), w_exp)


def _uct(q: float, child_visits: int, log_parent_visits: float, w_exp: float) -> float:
    """`uct_score`, given the log of the parent's visits (at least 1)."""
    return q + w_exp * math.sqrt(log_parent_visits / child_visits)


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
    child_q = value
    for i, nid in enumerate(path_ids):
        node = nodes[nid]
        node.visit_count += 1
        if mode is BackpropMode.CUMULATIVE:
            node.q_value += (value - node.q_value) / node.visit_count
        else:
            node.q_value = value if i == 0 else (1.0 - gamma) * node.q_value + gamma * child_q
            child_q = node.q_value


def _select_child(nodes: Sequence[Node], nid: int, w_exp: float) -> int:
    """The first unvisited child in creation order, else the first child of
    highest `uct_score`, with the log of the parent's visits taken once."""
    kids = nodes[nid].children
    for k in kids:
        if nodes[k].visit_count == 0:
            return k
    log_parent = math.log(max(nodes[nid].visit_count, 1))
    best, best_score = -1, -math.inf
    for k in kids:
        child = nodes[k]
        score = _uct(child.q_value, child.visit_count, log_parent, w_exp)
        if score > best_score:
            best, best_score = k, score
    return best


def run_mcts(
    task: Task,
    env: Environment,
    policy: PolicyModel,
    prm: RewardModel,
    composite: CompositeAugmentor,
    config: SearchConfig,
    seed: int = 0,
    trie: _StepNode | None = None,
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

    trie = _step_trie(env, policy, prm, config, trie)
    # index-aligned by node id: each node, and the candidate that made it
    nodes = [Node(node_id=0, state=env.reset(task), incoming_action=None)]
    cands: list[Candidate | None] = [None]
    trajectories: list[Trajectory] = []

    for it in range(config.n_iters):
        ids = [0]  # the selected path's node ids, root first
        while nodes[ids[-1]].children and not nodes[ids[-1]].is_terminal:
            ids.append(_select_child(nodes, ids[-1], config.w_exp))
        path = [cands[i] for i in ids[1:]]

        nid = ids[-1]
        if not nodes[nid].is_terminal and len(path) < config.max_depth:
            expanded = expand(
                env,
                task,
                nodes[nid].state,
                path[-1].steps if path else (),
                policy,
                prm,
                composite,
                config,
                iteration=it,
                seed_salt=(seed, "mcts_expand", nid),
                parent=path[-1].node if path else trie,
            )
            for c in expanded:
                nodes[nid].children.append(len(nodes))
                action = c.step.action
                nodes.append(Node(len(nodes), c.state, action, is_terminal=action.is_final))
                cands.append(c)
            pick = max(range(len(expanded)), key=lambda i: expanded[i].step.reward or 0.0)
            ids.append(nodes[nid].children[pick])
            path.append(expanded[pick])
            depth_cap = min(config.rollout_depth, config.max_depth)
            while not path[-1].step.action.is_final and len(path) < depth_cap:
                rollout_cands = expand(
                    env,
                    task,
                    path[-1].state,
                    path[-1].steps,
                    policy,
                    prm,
                    composite,
                    config,
                    iteration=it,
                    seed_salt=(seed, "mcts_roll", it, len(path)),
                    parent=path[-1].node,
                )
                path.append(max(rollout_cands, key=lambda c: c.step.reward or 0.0))

        traj = _trajectory(path, it)
        backprop(nodes, ids[::-1], traj.trajectory_score, config.backprop, config.decay_gamma)
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
    trie: _StepNode | None = None,
) -> SearchRecord:
    """Run `config`'s method.  `trie` is a step trie root to take the steps
    through, shared with earlier runs of the task (see `_step_trie`); a run
    given none makes its own, which lives as long as the run."""
    if config.method is SearchMethod.BEST_OF_N:
        return run_best_of_n(task, env, policy, composite, config, seed, prm, trie)
    if config.method is SearchMethod.BEAM:
        return run_beam(task, env, policy, prm, composite, config, seed, trie)
    if config.method is SearchMethod.MCTS:
        return run_mcts(task, env, policy, prm, composite, config, seed, trie)
    raise ValueError(f"unknown search method {config.method!r}")

