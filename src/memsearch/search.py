"""Inference strategies: best-of-N, single-round beam, and MCTS.

All three draw actions from the same augmented policy: at every policy call
the active memory bundle is rendered into the prompt (policy prompts only;
reward model inputs never see bundle text).  Expansion of a node samples
n_actions candidates either in batch (identical prompts, i.i.d. draws) or
interleaved (candidate i's prompt carries the records of the i already
executed siblings).  Every run is a pure function of its seed.  At
temperature 0 a run computes each distinct step once and replays, and
bills, every repeat of it (the step trie); in an env that is not
serializable a replayed step is still executed.  Every step, computed or
replayed, is taken by `_take_step`, the one reader of the trie's entries.
A caller may hand runs of one task a shared trie root, as the matrix
runner does for every job of a (benchmark, task): each run then replays
what earlier runs computed.  A best-of-N attempt whose bundle cannot
change before it ends lets one `_take_step` walk as far down the trie as
it holds steps (`_linear_rollout`), and each finished path's terminal
kind, score and text are made once, at its end node (`_trajectory`).
Best-of-N and MCTS also hand back the record of each requested prefix of
their trajectories (`_iterate`), which is what a run at that smaller
budget returns, so the matrix runner runs a budget ladder once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence

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
    prefix under it: its Candidate, whose `node` is the child it leads to
    (and whose `state` is read only in a serializable env), and the (tokens
    in, tokens out) the policy and the PRM billed for it (None without a
    PRM).  `children` maps what a step executed, its (action, observation),
    to that child, so bundles that lead to the same step share what follows
    it.  `ending` is what a trajectory that ends here is, a function of the
    prefix alone: its (terminal kind, score, `trajectory_text`), made by the
    first path that ends here (None until then) and read by every later
    one.  `_take_step` alone reads and writes `entries`; a best-of-N attempt
    under a fixed bundle walks them from the root down in one call, so a
    repeated attempt only bills its steps again and reads its end node's
    `ending`.  The matrix runner keeps one trie per (benchmark, task) for a
    whole run, so an ending serves every trajectory of the task ending there.
    """

    __slots__ = ("entries", "children", "ending")

    def __init__(self) -> None:
        self.entries: dict[tuple[str, str], tuple[Candidate, tuple, tuple | None]] = {}
        self.children: dict[tuple[Action, Observation], _StepNode] = {}
        self.ending: tuple[TerminalKind, float, str] | None = None


def replays_steps(policy, prm, config: SearchConfig) -> bool:
    """Whether a run takes its steps through a step trie: at temperature <=
    0, when the classes of the policy and of the PRM (if any) both declare
    `deterministic_at_zero` (a wrapper class declares nothing).  Then a
    policy draw and a PRM score, and what each bills, are functions of the
    prefix and the bundle, and the run reads its seed nowhere.  The env
    does not enter: on one that is not serializable a replayed step is
    still executed (see `_take_step`).
    """
    if config.temperature > 0.0:
        return False
    models = [policy] if prm is None else [policy, prm]
    return all(getattr(type(m), "deterministic_at_zero", False) is True for m in models)


def _step_trie(
    policy: PolicyModel,
    prm: RewardModel | None,
    config: SearchConfig,
    root: _StepNode | None = None,
) -> _StepNode | None:
    """The root a search run takes its steps through, or None where every
    step must be computed (see `replays_steps`): `root` if given, else a
    fresh node.

    A root may serve several runs of one task, as the matrix runner's do
    (one per benchmark and task), if their envs are of one benchmark and
    their models answer and bill alike.  A state handle the trie holds is
    read only in a serializable env, where it is valid in each env of the
    benchmark.
    """
    if not replays_steps(policy, prm, config):
        return None
    return _StepNode() if root is None else root


@dataclass(frozen=True)
class Candidate:
    """An executed step, the state it leads to and its bundle's fingerprint.

    `steps` is the path up to and including the step, and `node` the step
    trie node it leads to (None when the run has no trie).
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


def _iterate(
    made: Iterator[Trajectory],
    composite: CompositeAugmentor,
    finished_only: bool,
    budget: int,
    on_prefix: Mapping[int, Callable[[SearchRecord], object]],
) -> SearchRecord:
    """The loop of best-of-N and MCTS: take each trajectory from `made`,
    which makes the next only when asked, and hand it to the composite's
    on_trajectory first.  The best-scored trajectory so far (only finished
    ones if `finished_only`; ties: the earliest) is kept as it goes, so the
    record of the first k trajectories is the one a run with budget k
    returns.  `on_prefix` maps each budget k to its callback, which gets
    that record as soon as trajectory k - 1's on_trajectory has run; the
    record of them all is returned.  Nothing before trajectory i reads the
    budget, and what memory it writes reaches only later ones.  A budget
    outside [1, `budget`] raises ValueError before `made` is first asked.
    """
    if any(not 1 <= k <= budget for k in on_prefix):
        raise ValueError(f"budget prefixes {sorted(on_prefix)} not all in [1, {budget}]")
    trajectories: list[Trajectory] = []
    best = None
    for traj in made:
        trajectories.append(traj)
        composite.on_trajectory(traj)
        if (not finished_only or traj.terminal_kind is not TerminalKind.MAX_DEPTH) and (
            best is None or traj.trajectory_score > best.trajectory_score
        ):
            best = traj
        callback = on_prefix.get(len(trajectories))
        if callback is not None:
            callback(_record(trajectories, best))
    return _record(trajectories, best)


def _stepped(
    task: Task,
    node: _StepNode | None,
    state: StateHandle,
    prefix: Sequence[Step],
    prm: RewardModel | None,
    bundle_fp: str,
    action: Action,
    obs: Observation,
) -> Candidate:
    """The Candidate of `action`, executed from `prefix` into `state` with
    `obs`: its step scored by the PRM (clamped into [0, 1]; unscored without
    a PRM), leading to the child of trie node `node` that (action, obs)
    keys, made if missing (None without a trie)."""
    step = Step(action, obs)
    if prm is not None:
        step = Step(action, obs, clamp01(prm.score(task.prompt, prefix, step)))
    child = None
    if node is not None:
        child = node.children.get((action, obs))
        if child is None:
            child = node.children[action, obs] = _StepNode()
    return Candidate(step, state, bundle_fp, (*prefix, step), child)


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
    limit: int = 1,
) -> list[Candidate]:
    """The steps every method takes from `node`, the trie node of `prefix`
    (None: no trie), under `bundle`, each handed to the composite's on_step.

    Where the trie holds no step under this bundle, this is one computed
    step: an action sampled from `bundle` with seed `stable_hash(*seed_salt)`,
    executed from `state` (from a fork of it if `fork`), scored by the PRM
    and stored.  Else it is the steps the trie holds under this bundle from
    `node` down, at most `limit` of them, up to the first final action or
    the first node that holds none.  Nothing is sampled, forked, scored or
    seeded for them; each model bills again what it billed for them, with
    one telemetry update per model per call.  In a serializable env nothing
    is executed either; in any other env each action is executed from the
    live state, so the env sees the calls a run without a trie makes, and a
    step it answers otherwise than the trie holds is scored as computed,
    without its stored PRM bill, and the walk goes on from the child it
    leads to.
    """
    key = (bundle.fingerprint, bundle.rendered)
    entry = None if node is None else node.entries.get(key)
    if entry is None:
        action = policy.sample(task, prefix, bundle, config.temperature, stable_hash(*seed_salt))
        state, obs = env.step(env.fork(state) if fork else state, action)
        cand = _stepped(task, node, state, prefix, prm, bundle.fingerprint, action, obs)
        composite.on_step(cand.step, iteration)
        if node is not None:
            node.entries[key] = (cand, policy.billed, None if prm is None else prm.billed)
        return [cand]
    taken: list[Candidate] = []
    policy_bills, prm_bills = [], []
    while entry is not None:
        cand, policy_bill, prm_bill = entry
        if not env.serializable:  # its stored states are stale: execute from the live one
            state, obs = env.step(state, cand.step.action)
            if obs == cand.step.observation:
                cand = Candidate(cand.step, state, cand.bundle_fp, cand.steps, cand.node)
            else:
                action, prm_bill = cand.step.action, None
                cand = _stepped(task, node, state, prefix, prm, cand.bundle_fp, action, obs)
        composite.on_step(cand.step, iteration)
        taken.append(cand)
        policy_bills.append(policy_bill)
        if prm_bill is not None:
            prm_bills.append(prm_bill)
        if len(taken) == limit or cand.step.action.is_final:
            break
        state, prefix, node = cand.state, cand.steps, cand.node
        entry = node.entries.get(key)
    for model, billed in ((policy, policy_bills), (prm, prm_bills)):
        if len(billed) == 1:  # most calls take one step: no sums to make
            model.rebill(1, *billed[0])
        elif billed:  # counts are integers, so the sums are exact
            model.rebill(len(billed), *map(sum, zip(*billed)))
    return taken


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
        out += _take_step(
            env, task, parent, parent_state, prefix, policy, prm, composite, bundle, config,
            iteration, (*seed_salt, "cand", i), fork=True,
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
    """One attempt from `env.reset(task)`, its steps taken by `_take_step`.

    A composite that cannot write on a step cannot change the bundle before
    the attempt ends, so the attempt retrieves it once, and each
    `_take_step` may walk the trie under it to the depth cap: a repeated
    attempt is one call, with one telemetry update per model.  Otherwise
    the bundle is retrieved for each step, which is taken alone.
    """
    state, prefix, node = env.reset(task), (), root
    path: list[Candidate] = []
    bundle = None if composite.writes_on_step else composite.retrieve()
    while len(path) < config.max_depth:
        path += _take_step(
            env, task, node, state, prefix, policy, prm, composite,
            composite.retrieve() if bundle is None else bundle, config, iteration,
            (seed, "bon", iteration, len(path)),
            limit=1 if bundle is None else config.max_depth - len(path),
        )
        last = path[-1]
        if last.step.action.is_final:
            break
        state, prefix, node = last.state, last.steps, last.node
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
    on_prefix: Mapping[int, Callable[[SearchRecord], object]] = {},
) -> SearchRecord:
    """Sequential independent attempts under a fixed budget.

    Always runs exactly n_budget attempts; there is no stop-on-correct
    (grading is offline).  Persistent memory written by attempt i is visible
    to attempts i+1.. through the composite's store.  The best-scored
    attempt is submitted (ties: the earliest).  `trie` is a step trie root
    to share (see `_step_trie`); without one the run makes its own.
    `on_prefix` maps each budget k to a callback that gets the record a run
    at n_budget k returns, once its last attempt is done (see `_iterate`).
    """
    if config.method is not SearchMethod.BEST_OF_N:
        raise ValueError(f"config method {config.method} is not best_of_n")
    root = _step_trie(policy, prm, config, trie)
    made = (
        _linear_rollout(env, task, root, policy, prm, composite, config, i, seed)
        for i in range(config.n_budget)
    )
    return _iterate(made, composite, False, config.n_budget, on_prefix)


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

    root, trie = env.reset(task), _step_trie(policy, prm, config, trie)
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


def _mcts_iterations(
    task: Task,
    env: Environment,
    policy: PolicyModel,
    prm: RewardModel,
    composite: CompositeAugmentor,
    config: SearchConfig,
    seed: int,
    trie: _StepNode | None,
) -> Iterator[Trajectory]:
    """Each MCTS iteration's trajectory, made when asked for (see `run_mcts`)."""
    # index-aligned by node id: each node, and the candidate that made it
    nodes = [Node(node_id=0, state=env.reset(task), incoming_action=None)]
    cands: list[Candidate | None] = [None]

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
        yield traj


def run_mcts(
    task: Task,
    env: Environment,
    policy: PolicyModel,
    prm: RewardModel,
    composite: CompositeAugmentor,
    config: SearchConfig,
    seed: int = 0,
    trie: _StepNode | None = None,
    on_prefix: Mapping[int, Callable[[SearchRecord], object]] = {},
) -> SearchRecord:
    """UCT tree search with a fixed iteration budget.

    Each iteration: select a leaf (unvisited children first, then UCT),
    expand it, simulate from the best-scored new child with per-step argmax
    over n_actions sampled continuations (the MAX strategy), and backprop
    the simulated trajectory's score.  Exactly n_iters trajectories are
    recorded; per-trajectory augmentors fire after every iteration, so
    memory written by iteration i is in the bundle from iteration i+1 on.
    The best-scored finished trajectory is submitted (ties: the earliest).
    `on_prefix` maps each budget k to a callback that gets the record a run
    at n_iters k returns, once its last iteration is done (see `_iterate`).
    """
    if config.method is not SearchMethod.MCTS:
        raise ValueError(f"config method {config.method} is not mcts")
    if prm is None:
        raise ValueError("mcts needs a process reward model")
    trie = _step_trie(policy, prm, config, trie)
    made = _mcts_iterations(task, env, policy, prm, composite, config, seed, trie)
    return _iterate(made, composite, True, config.n_iters, on_prefix)


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
    on_prefix: Mapping[int, Callable[[SearchRecord], object]] = {},
) -> SearchRecord:
    """Run `config`'s method.  `trie` is a step trie root to take the steps
    through, shared with earlier runs of the task (see `_step_trie`); a run
    given none makes its own, which lives as long as the run.  `on_prefix`
    maps each budget k (best-of-N attempts or MCTS iterations; beam has
    none) to a callback that gets the record of the run's first k
    trajectories, which is what a run at budget k returns."""
    if config.method is SearchMethod.BEST_OF_N:
        return run_best_of_n(task, env, policy, composite, config, seed, prm, trie, on_prefix)
    if config.method is SearchMethod.BEAM:
        if on_prefix:
            raise ValueError("beam search has no budget prefixes")
        return run_beam(task, env, policy, prm, composite, config, seed, trie)
    if config.method is SearchMethod.MCTS:
        return run_mcts(task, env, policy, prm, composite, config, seed, trie, on_prefix)
    raise ValueError(f"unknown search method {config.method!r}")
