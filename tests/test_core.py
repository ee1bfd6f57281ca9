from __future__ import annotations

import pickle
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsearch import core
from memsearch.core import (
    EMPTY_BUNDLE,
    FINAL_ANSWER,
    MAX_DEPTH,
    Abstraction,
    Action,
    ConfigurationError,
    ContextUnit,
    GiveUpStats,
    Observation,
    PricingTable,
    Scope,
    SearchRecord,
    StateHandle,
    Step,
    Task,
    Telemetry,
    TerminalKind,
    Trajectory,
    aggregate_score,
    atomic_write,
    checked,
    clamp01,
    extend_bundle,
    fingerprint,
    known,
    render_bundle,
    stable_hash,
    step_text,
    trajectory_text,
)
from memsearch.stats import VerdictRow, efficiency

from conftest import same_bundle


def _step(tool="QUERY", args="x", content="row", is_error=False, reward=None):
    return Step(
        Action(tool, args, f"{tool}|{args}"),
        Observation(content, is_error, tool),
        reward,
    )


def _final(args="42"):
    return Step(
        Action(FINAL_ANSWER, args, f"{FINAL_ANSWER}|{args}"),
        Observation("", False, FINAL_ANSWER),
    )


def test_stable_hash_is_deterministic_and_type_sensitive():
    assert stable_hash("a", 1) == stable_hash("a", 1)
    assert stable_hash("a", 1) != stable_hash("a", "1")
    assert stable_hash() == stable_hash()
    assert isinstance(stable_hash("x"), int)
    assert stable_hash("x") >= 0


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((), 16406829232824261652),
        (("a", 1), 9396196573718359359),
        ((7, "beam", 3, 0), 17308579068964310044),
        (("héllo wörld ✓",), 15472204422001109104),
        ((None, 2.5, ("x",), b"y"), 17701386521239516443),
        # a lone surrogate, and the 0x1f separator inside a part
        (("\ud800", "a\x1fb"), 13268479100963406479),
    ],
)
def test_stable_hash_pinned_values(parts, expected):
    # every seed in a run derives from stable_hash; these values must never move
    assert stable_hash(*parts) == expected


def test_fingerprint_shape():
    fp = fingerprint("hello")
    assert len(fp) == 12
    assert all(c in "0123456789abcdef" for c in fp)
    assert fingerprint("hello") == fp
    assert fingerprint("hello ") != fp


def test_clamp01():
    assert clamp01(-2.0) == 0.0
    assert clamp01(0.4) == 0.4
    assert clamp01(7.0) == 1.0


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (True, int, "x must be an integer, got True"),
        (2.0, int, r"x must be an integer, got 2\.0"),
        (False, float, "x must be a number, got False"),
        ("1", float, "x must be a number, got '1'"),
        (0, bool, "x must be true or false, got 0"),
        (None, str, "x must be a string, got None"),
        ("QUERY", list, "x must be an array, got str"),
        ([1], dict, "x must be an object, got list"),
    ],
)
def test_checked_refuses_other_json_types(value, kind, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        checked(value, kind, "x")


def test_checked_returns_the_value_and_numbers_as_floats():
    assert checked(3, int, "x") == 3
    assert checked(3, float, "x") == 3.0 and isinstance(checked(3, float, "x"), float)
    assert checked(False, bool, "x") is False
    raw = {"a": 1}
    assert checked(raw, dict, "x") is raw


def test_known_refuses_keys_outside_the_set():
    raw = {"a": 1, "b": 2}
    assert known(raw, {"a", "b", "c"}, "thing", "here") is raw
    with pytest.raises(ConfigurationError, match=r"^here: unknown thing keys \['b', 'd'\]$"):
        known({"a": 1, "d": 0, "b": 2}, {"a"}, "thing", "here")


def test_state_handle_depth_bounds():
    StateHandle("e", None, 0)
    StateHandle("e", "tok", MAX_DEPTH)
    with pytest.raises(ValueError):
        StateHandle("e", None, -1)
    with pytest.raises(ValueError):
        StateHandle("e", None, MAX_DEPTH + 1)


def test_action_is_final():
    assert Action(FINAL_ANSWER, "done", "FINAL_ANSWER|done").is_final
    assert not Action("QUERY", "x", "QUERY|x").is_final


def test_observation_rejects_empty_content_for_tools():
    Observation("", False, FINAL_ANSWER)
    with pytest.raises(ValueError):
        Observation("", False, "QUERY")


def test_step_reward_range():
    _step(reward=0.0)
    _step(reward=1.0)
    with pytest.raises(ValueError):
        _step(reward=1.5)
    with pytest.raises(ValueError):
        _step(reward=-0.1)


def test_aggregate_score_means_present_rewards():
    steps = [_step(reward=0.2), _step(reward=None), _step(reward=0.8)]
    assert aggregate_score(steps) == pytest.approx(0.5)
    assert aggregate_score([]) == 0.0
    assert aggregate_score([_step(reward=None)]) == 0.0


def test_trajectory_answer_and_bounds():
    traj = Trajectory((_step(), _final("the answer")), TerminalKind.ANSWERED, 0.5, 0)
    assert traj.answer() == "the answer"
    unanswered = Trajectory((_step(),), TerminalKind.MAX_DEPTH, 0.5, 0)
    assert unanswered.answer() is None
    with pytest.raises(ValueError):
        Trajectory((), TerminalKind.ANSWERED, 0.5, 0)
    with pytest.raises(ValueError):
        Trajectory(tuple(_step() for _ in range(MAX_DEPTH + 1)), TerminalKind.ANSWERED, 0.5, 0)
    with pytest.raises(ValueError):
        Trajectory((_final(),), TerminalKind.ANSWERED, 1.5, 0)


def test_context_unit_invariants():
    ContextUnit(Scope.CROSS_SIBLING, Abstraction.RAW, "b", 0, persistent=False)
    with pytest.raises(ValueError):
        ContextUnit(Scope.CROSS_SIBLING, Abstraction.RAW, "b", 0, persistent=True)
    with pytest.raises(ValueError):
        ContextUnit(Scope.CROSS_TRAJECTORY, Abstraction.FACT, "b", 0, persistent=True)


def _unit(abstraction, body, iteration=0, ephemeral=False, embedding=None):
    scope = Scope.CROSS_SIBLING if ephemeral else Scope.CROSS_TRAJECTORY
    if abstraction is Abstraction.FACT and embedding is None:
        embedding = tuple([1.0] + [0.0] * 7)
    return ContextUnit(
        scope, abstraction, body, iteration, persistent=not ephemeral, embedding=embedding
    )


def test_render_bundle_sections_and_order():
    units = [
        _unit(Abstraction.REFLECTION, "second thought", iteration=2),
        _unit(Abstraction.FACT, "fact one", iteration=1),
        _unit(Abstraction.REFLECTION, "first thought", iteration=0),
        _unit(Abstraction.RAW, "tried QUERY|x -> [ok] row", ephemeral=True),
    ]
    bundle = render_bundle(units)
    text = bundle.rendered
    assert text.index("FACTS:") < text.index("REFLECTIONS:") < text.index("SIBLINGS:")
    # persistent units sort by source iteration
    assert text.index("first thought") < text.index("second thought")
    assert "- fact one" in text
    assert not bundle.is_empty


def test_render_bundle_omits_empty_sections():
    bundle = render_bundle([_unit(Abstraction.FACT, "f", 0)])
    assert "REFLECTIONS:" not in bundle.rendered
    assert "SIBLINGS:" not in bundle.rendered
    assert bundle.rendered.startswith("FACTS:")


_LABELS = (
    (Abstraction.FACT, "FACTS:"),
    (Abstraction.REFLECTION, "REFLECTIONS:"),
    (Abstraction.RAW, "SIBLINGS:"),
)
# (abstraction, source iteration, ephemeral); bodies are made unique per unit below
_UNIT_SPECS = st.tuples(st.sampled_from(list(Abstraction)), st.integers(0, 4), st.booleans())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(specs=st.lists(_UNIT_SPECS, max_size=12))
def test_render_bundle_order_sections_and_fingerprint(specs):
    units = [_unit(a, f"u{i}", it, ephemeral) for i, (a, it, ephemeral) in enumerate(specs)]
    bundle = render_bundle(units)

    # persistent units first, stably sorted by source_iteration; then ephemeral
    # units in insertion order
    persistent = [i for i, u in enumerate(units) if u.persistent]
    persistent.sort(key=lambda i: (units[i].source_iteration, i))
    ephemeral = [i for i, u in enumerate(units) if not u.persistent]
    assert bundle.units == tuple(units[i] for i in persistent + ephemeral)

    # sections FACTS, REFLECTIONS, SIBLINGS, each listing its units in bundle order
    expected: list[str] = []
    for section, label in _LABELS:
        members = [u for u in bundle.units if u.abstraction is section]
        if members:
            expected += [label] + [f"- {u.body}" for u in members]
    assert bundle.rendered.split("\n") == (expected or [""])

    assert bundle.fingerprint == fingerprint(bundle.rendered)


# bodies that stress the token count: runs of whitespace, separators that
# str.split() counts as whitespace, empty bodies and line breaks
_BODIES = st.text(alphabet="ab \n\t\x1c\u2028\u00e9", max_size=5)
_SPECS_WITH_BODIES = st.tuples(_UNIT_SPECS, _BODIES)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    base=st.lists(_SPECS_WITH_BODIES, max_size=8),
    batches=st.lists(st.lists(_SPECS_WITH_BODIES, max_size=4), max_size=4),
)
def test_extend_bundle_is_render_bundle_of_all_the_units(base, batches):
    def units(specs):
        return [_unit(a, body, it, eph) for (a, it, eph), body in specs]

    bundle, so_far = render_bundle(units(base)), units(base)
    for batch in batches:
        extended = extend_bundle(bundle, units(batch))
        so_far += units(batch)
        same_bundle(extended, render_bundle(so_far))
        # the base is left as it was and can be extended again
        same_bundle(extend_bundle(bundle, units(batch)), extended)
        bundle = extended


def test_extend_bundle_appends_only_what_sorts_after_the_bundle(monkeypatch):
    full = []
    real = core.render_bundle
    monkeypatch.setattr(core, "render_bundle", lambda units: full.append(1) or real(units))
    fact, reflection = _unit(Abstraction.FACT, "f", 1), _unit(Abstraction.REFLECTION, "r", 1)
    sibling = _unit(Abstraction.RAW, "s", 0, ephemeral=True)
    base = real([fact])
    appended = [
        [_unit(Abstraction.FACT, "g", 1)],  # same section, equal iteration
        [reflection, _unit(Abstraction.REFLECTION, "q", 3)],  # a later section, rising
        [sibling],
        [reflection, sibling, sibling],
    ]
    refused = [
        [_unit(Abstraction.FACT, "g", 0)],  # a falling iteration
        [reflection, _unit(Abstraction.FACT, "g", 2)],  # an earlier section
        [sibling, _unit(Abstraction.REFLECTION, "q", 2)],  # persistent after ephemeral
        [_unit(Abstraction.FACT, "g", 3), _unit(Abstraction.FACT, "h", 2)],  # falling in the batch
        [_unit(Abstraction.FACT, "e", 0, ephemeral=True), _unit(Abstraction.FACT, "g", 2)],
    ]
    for batch in appended + refused:
        same_bundle(extend_bundle(base, batch), real([fact, *batch]))
    assert len(full) == len(refused)
    assert extend_bundle(base, []) is base
    extend_bundle(EMPTY_BUNDLE, [fact])  # nothing to append to
    assert len(full) == len(refused) + 1


def test_a_bundle_pickles_and_its_copy_renders_in_full_when_extended():
    bundle = render_bundle([_unit(Abstraction.REFLECTION, "r", 0)])
    copy = pickle.loads(pickle.dumps(bundle))
    assert copy == bundle and copy.tokens == bundle.tokens and copy.tail is None
    more = [_unit(Abstraction.REFLECTION, "s", 1)]
    same_bundle(extend_bundle(copy, more), extend_bundle(bundle, more))


def test_empty_bundle():
    assert EMPTY_BUNDLE.is_empty
    assert EMPTY_BUNDLE.rendered == ""
    assert render_bundle([]).rendered == ""


def test_telemetry_accounting_and_cost():
    t = Telemetry()
    t.record("policy", 1000, 500)
    t.record("supervisor", 2000, 10)
    t.record("policy", 0, 0)
    d = asdict(t)
    assert d["policy_calls"] == 2
    assert d["policy_tokens_in"] == 1000
    assert d["supervisor_calls"] == 1
    # the cost formula lives in stats.efficiency, which prices telemetry rows
    row = VerdictRow("a", "cell", [True], True, None, [1], ["answered"], None, t, None)
    cost = efficiency([row], PricingTable())
    # 1000 in at 0.80/M plus 500 out at 4.00/M
    assert cost.policy_cost == pytest.approx(0.0008 + 0.002)
    # 2000 in at 3.00/M plus 10 out at 15.00/M
    assert cost.supervisor_cost == pytest.approx(0.006 + 0.00015)
    assert cost.total_cost == pytest.approx(cost.policy_cost + cost.supervisor_cost)
    with pytest.raises(ValueError):
        t.record("gardener", 1, 1)


def test_telemetry_has_no_dict_and_serializes_by_name():
    # reading a __dict__ slows every later `add` in CPython 3.11, so there is none
    with pytest.raises(TypeError):
        vars(Telemetry())
    t = Telemetry(1, 2, 3, 4, 5, 6)
    row = VerdictRow("a", "cell", [True], True, None, [1], ["answered"], None, t, None)
    assert row.to_json() == (
        '{"cell_id": "cell", "discovery_skipped": null, "final_answer": null, "giveup": null, '
        '"selected_verdict": true, "task_id": "a", "telemetry": {"policy_calls": 1, '
        '"policy_tokens_in": 2, "policy_tokens_out": 3, "supervisor_calls": 4, '
        '"supervisor_tokens_in": 5, "supervisor_tokens_out": 6}, "terminal_kinds": '
        '["answered"], "trajectory_lengths": [1], "verdicts": [true]}\n'
    )


def test_trajectory_text_format():
    steps = [_step("QUERY", "(q)", "row1", False, 0.9), _final("done")]
    text = trajectory_text(steps, TerminalKind.ANSWERED)
    lines = text.splitlines()
    assert lines[0] == "STEP 0"
    assert lines[1] == "ACTION: QUERY|(q)"
    assert lines[2] == "OBSERVATION[QUERY]: row1"
    assert lines[3] == "STEP 1"
    assert lines[-1] == "TERMINAL: answered"
    err = _step("QUERY", "(q)", "ERROR: no such table 'x'", True)
    assert "OBSERVATION[ERROR]:" in step_text(err)


def test_trajectory_text_is_its_rendering_or_rendered_on_read():
    steps = (_step("QUERY", "(q)", "row1", False, 0.9), _final("done"))
    plain = Trajectory(steps, TerminalKind.ANSWERED, 0.5, 0)
    assert plain.text == trajectory_text(steps, TerminalKind.ANSWERED)
    made = Trajectory(steps, TerminalKind.ANSWERED, 0.5, 0, rendering=plain.text)
    assert made.text is made.rendering
    assert made == plain and repr(made) == repr(plain)  # the rendering is no part of the value


def test_a_failing_atomic_write_keeps_the_old_bytes_and_leaves_no_sibling(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(path, "new \ud800\n")  # a lone surrogate fails part way through the write
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_search_record_defaults():
    traj = Trajectory((_final(),), TerminalKind.ANSWERED, 1.0, 0)
    rec = SearchRecord(trajectories=(traj,), selected=traj)
    assert rec.giveup is None
    assert rec.final_answer == "42"  # the selected trajectory's answer
    assert SearchRecord((traj,), None).final_answer is None
    stats = GiveUpStats(apology_terminals=2, selected_apology=True, all_apology_states=1)
    rec2 = SearchRecord((traj,), traj, stats)
    assert rec2.giveup.apology_terminals == 2


def test_task_carries_no_gold():
    task = Task("t1", "prompt", ("QUERY",), "bench", "toy_sql", {"k": "v"})
    assert not hasattr(task, "gold")
    assert "gold" not in task.meta
