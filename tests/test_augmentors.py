from __future__ import annotations

import itertools
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsearch import augmentors, core
from memsearch.augmentors import (
    DEDUP_THRESHOLD,
    REFLECTION_THRESHOLD,
    AugmentorConfig,
    AugmentorError,
    AugmentorKind,
    CompositeAugmentor,
    FactMode,
    MemoryStore,
    compose,
    extract_facts,
    maybe_reflect,
    normalize_for_method,
    retrieve,
    sibling_context,
)
from memsearch.core import (
    EMPTY_BUNDLE,
    Abstraction,
    Action,
    ContextUnit,
    Observation,
    Scope,
    Step,
    Telemetry,
    TerminalKind,
    Trajectory,
    render_bundle,
)
from memsearch.models import HashEmbedder, ScriptedAugmentorModel, cosine, hash_embed

from conftest import same_bundle


def _step(tool="QUERY", args="x", content="row", is_error=False, reward=None):
    return Step(Action(tool, args, f"{tool}|{args}"), Observation(content, is_error, tool), reward)


def _traj(score, steps=None, iteration=0):
    steps = steps or (_step(reward=score),)
    return Trajectory(tuple(steps), TerminalKind.ANSWERED, score, iteration)


def _fact_unit(body, iteration=0, dim=64):
    return ContextUnit(
        Scope.CROSS_TRAJECTORY,
        Abstraction.FACT,
        body,
        iteration,
        persistent=True,
        embedding=tuple(hash_embed(body, dim)),
    )


def _reflection_unit(body, iteration=0):
    return ContextUnit(
        Scope.CROSS_TRAJECTORY, Abstraction.REFLECTION, body, iteration, persistent=True
    )


AUG_MODEL = ScriptedAugmentorModel.from_dict(
    {
        "reflection": {
            "rules": [{"contains": "ERROR", "text": "Avoid that table."}],
            "default": "Try a different approach.",
        },
        "facts": {
            "rules": [
                {
                    "pattern": r"OBSERVATION\[LIST_TABLES\]: (.+)",
                    "template": "The database contains a table named '{0}'.",
                    "split": ", ",
                }
            ]
        },
    }
)


def test_config_validation():
    AugmentorConfig(AugmentorKind.REFLECTION, reflection_threshold=0.0)
    with pytest.raises(ValueError):
        AugmentorConfig(AugmentorKind.REFLECTION, reflection_threshold=1.1)
    with pytest.raises(ValueError):
        AugmentorConfig(AugmentorKind.FACT, dedup_threshold=0.0)


def test_store_rejects_ephemeral_units():
    store = MemoryStore()
    with pytest.raises(ValueError):
        store.add(sibling_context([_step()])[0])


def test_store_dedups_facts_at_write_time():
    store = MemoryStore()
    assert store.add(_fact_unit("The database contains a table named 'albums'."))
    # case variant embeds identically, cosine 1.0 >= threshold, dropped
    assert not store.add(_fact_unit("the database contains a table named 'albums'."))
    assert store.add(_fact_unit("Table 'albums' has columns: Album, Artist, Studio."))
    assert len(store) == 2


def test_store_dedup_ignores_reflections():
    store = MemoryStore()
    assert store.add(_reflection_unit("same words here"))
    assert store.add(_reflection_unit("same words here"))
    assert store.add(_fact_unit("same words here"))
    assert len(store) == 3


def test_store_dump_format(tmp_path):
    store = MemoryStore()
    store.add(_fact_unit("a fact", iteration=2))
    store.add(_reflection_unit("a thought", iteration=0))
    path = tmp_path / "mem.jsonl"
    store.dump(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "abstraction": "fact",
        "body": "a fact",
        "scope": "cross_trajectory",
        "source_iteration": 2,
    }
    assert list(first) == sorted(first)


def test_a_dump_that_raises_leaves_no_file(tmp_path, monkeypatch):
    store = MemoryStore()
    store.add(_fact_unit("a fact"))
    store.add(_fact_unit("another fact"))
    calls = []

    def dumps(obj, **kwargs):
        calls.append(obj)
        if len(calls) == 2:
            raise TypeError("cannot encode the second unit")
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(augmentors, "json", SimpleNamespace(dumps=dumps))
    with pytest.raises(TypeError, match="second unit"):
        store.dump(tmp_path / "mem.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_sibling_context_format_and_no_model_calls():
    telemetry = Telemetry()
    model = ScriptedAugmentorModel.from_dict({}, telemetry)
    steps = [
        _step("QUERY", "(q)", "ERROR: no such table 'x'", is_error=True),
        _step("LIST_TABLES", "", "games, albums"),
    ]
    units = sibling_context(steps)
    assert [u.body for u in units] == [
        "tried QUERY|(q) -> [error] ERROR: no such table 'x'",
        "tried LIST_TABLES| -> [ok] games, albums",
    ]
    assert all(not u.persistent and u.scope is Scope.CROSS_SIBLING for u in units)
    # formatting only; the augmentor model is never consulted
    assert telemetry.supervisor_calls == 0
    assert model.telemetry.supervisor_calls == 0


def test_maybe_reflect_threshold_is_strict():
    assert maybe_reflect(_traj(0.3), AUG_MODEL) is None
    assert maybe_reflect(_traj(0.30000001), AUG_MODEL) is None
    unit = maybe_reflect(_traj(0.29999), AUG_MODEL)
    assert unit is not None
    assert unit.persistent
    assert unit.abstraction is Abstraction.REFLECTION
    assert unit.body == "Try a different approach."


def test_maybe_reflect_sees_error_text():
    steps = (_step(content="ERROR: no such table 'x'", is_error=True, reward=0.1),)
    unit = maybe_reflect(_traj(0.1, steps), AUG_MODEL)
    assert unit.body == "Avoid that table."


def test_maybe_reflect_wraps_model_failure():
    class Broken:
        def generate(self, instruction, text):
            raise RuntimeError("socket closed")

    with pytest.raises(AugmentorError):
        maybe_reflect(_traj(0.1), Broken())


def test_extract_facts_dedups_within_one_call():
    store = MemoryStore()
    text = "ACTION: LIST_TABLES|\nOBSERVATION[LIST_TABLES]: games, games, albums"
    stored = extract_facts(text, 0, AUG_MODEL, HashEmbedder(), store)
    assert stored == 2
    assert len(store) == 2


def test_retrieve_injects_everything():
    store = MemoryStore()
    store.add(_fact_unit("f1"))
    store.add(_reflection_unit("r1"))
    bundle = retrieve(store, sibling_context([_step()]))
    assert "FACTS:" in bundle.rendered
    assert "REFLECTIONS:" in bundle.rendered
    assert "SIBLINGS:" in bundle.rendered
    assert len(bundle.units) == 3


def test_retrieve_renders_again_only_after_a_store():
    store = MemoryStore()
    assert retrieve(store) is EMPTY_BUNDLE
    assert store.add(_fact_unit("the table games has a column Year"))
    first = retrieve(store)
    assert "games has a column Year" in first.rendered
    assert retrieve(store) is first  # nothing stored since: the same bundle

    # a dropped duplicate leaves the bundle as it was
    assert not store.add(_fact_unit("the table games has a column Year", iteration=1))
    assert retrieve(store) is first

    # a stored fact or reflection shows in the next bundle
    assert store.add(_reflection_unit("avoid the albums table", iteration=1))
    second = retrieve(store)
    assert second.rendered == render_bundle(store.units).rendered
    assert "REFLECTIONS:\n- avoid the albums table" in second.rendered
    assert store.add(_fact_unit("platforms are PSP, Wii and DS", iteration=2))
    third = retrieve(store)
    assert "- platforms are PSP, Wii and DS" in third.rendered
    assert third.fingerprint != second.fingerprint

    # sibling units still render, after the persistent block
    with_siblings = retrieve(store, sibling_context([_step(content="one row")]))
    assert with_siblings.rendered.startswith(third.rendered + "\nSIBLINGS:\n- tried QUERY|x")
    assert with_siblings.units == third.units + tuple(sibling_context([_step(content="one row")]))
    assert retrieve(store) is third


# one store operation: ("fact", body, iteration, embedding row), ("reflection",
# body, iteration) or ("bundle",); facts on one of three orthogonal rows, so a
# repeated row is a dropped duplicate
_STORE_OPS = st.one_of(
    st.tuples(
        st.just("fact"), st.sampled_from(["a", "b c", " d\n"]), st.integers(0, 3), st.integers(0, 2)
    ),
    st.tuples(st.just("reflection"), st.sampled_from(["r", "s t", ""]), st.integers(0, 3)),
    st.tuples(st.just("bundle")),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ops=st.lists(_STORE_OPS, max_size=14), n_siblings=st.integers(0, 2))
def test_store_bundle_and_retrieve_equal_a_full_render(ops, n_siblings):
    store, rows = MemoryStore(), np.eye(3)
    siblings = sibling_context([_step(content=f"row {i}") for i in range(n_siblings)])
    for op in ops:
        if op[0] == "fact":
            unit = ContextUnit(
                Scope.CROSS_TRAJECTORY, Abstraction.FACT, op[1], op[2], True, rows[op[3]]
            )
            store.add(unit)
        elif op[0] == "reflection":
            store.add(_reflection_unit(op[1], op[2]))
        else:
            store.bundle()
        same_bundle(store.bundle(), render_bundle(store.units))
        same_bundle(retrieve(store, siblings), render_bundle(store.units + tuple(siblings)))


def test_a_store_renders_in_full_only_what_does_not_sort_after_its_bundle(monkeypatch):
    full = []
    real = core.render_bundle
    monkeypatch.setattr(core, "render_bundle", lambda units: full.append(1) or real(units))
    store, sibling = MemoryStore(), sibling_context([_step()])
    for i in range(80):
        store.add(_reflection_unit(f"reflection {i}", iteration=i))
        retrieve(store)
        retrieve(store, sibling)
    assert len(full) == 1  # the store's first bundle; every later one appends a line
    # a fact sorts before the REFLECTIONS section: its bundle is rendered in full
    assert store.add(_fact_unit("the table games has a column Year", iteration=80))
    same_bundle(retrieve(store), real(store.units))
    assert len(full) == 2


def test_composite_rejects_duplicates_and_missing_models():
    cfgs = (AugmentorConfig(AugmentorKind.REFLECTION), AugmentorConfig(AugmentorKind.REFLECTION))
    with pytest.raises(ValueError):
        CompositeAugmentor(cfgs, MemoryStore(), model=AUG_MODEL)
    with pytest.raises(ValueError):
        CompositeAugmentor((AugmentorConfig(AugmentorKind.REFLECTION),), MemoryStore())
    with pytest.raises(ValueError):
        CompositeAugmentor((AugmentorConfig(AugmentorKind.FACT),), MemoryStore(), model=AUG_MODEL)


def test_composite_wants_siblings():
    assert compose((AugmentorConfig(AugmentorKind.RAW_SIBLING),)).wants_siblings
    assert not compose((AugmentorConfig(AugmentorKind.NONE),)).wants_siblings


def test_composite_raw_sibling_never_persists():
    composite = compose((AugmentorConfig(AugmentorKind.RAW_SIBLING),))
    step = _step()
    composite.on_step(step, 0)
    composite.on_trajectory(_traj(0.1, (step,)))
    bundle = composite.retrieve(sibling_context([step]))
    assert len(composite.store) == 0
    assert "SIBLINGS:" in bundle.rendered
    # and the next retrieve starts clean again
    assert composite.retrieve().is_empty


def test_composite_incremental_facts_fire_on_step():
    cfg = AugmentorConfig(AugmentorKind.FACT, fact_mode=FactMode.INCREMENTAL)
    composite = compose((cfg,), model=AUG_MODEL, embedder=HashEmbedder())
    composite.on_step(_step("LIST_TABLES", "", "games, albums"), 0)
    assert len(composite.store) == 2
    composite.on_trajectory(_traj(0.9))
    assert len(composite.store) == 2  # batch hook does nothing in incremental mode


def test_composite_batch_facts_fire_on_trajectory():
    cfg = AugmentorConfig(AugmentorKind.FACT, fact_mode=FactMode.BATCH)
    composite = compose((cfg,), model=AUG_MODEL, embedder=HashEmbedder())
    step = _step("LIST_TABLES", "", "games, albums")
    composite.on_step(step, 0)
    assert len(composite.store) == 0
    composite.on_trajectory(_traj(0.9, (step,)))
    assert len(composite.store) == 2


def test_composite_reflection_only_on_low_scores():
    composite = compose((AugmentorConfig(AugmentorKind.REFLECTION),), model=AUG_MODEL)
    composite.on_trajectory(_traj(0.9))
    assert len(composite.store) == 0
    composite.on_trajectory(_traj(0.1, iteration=1))
    assert len(composite.store) == 1
    assert composite.store.units[0].source_iteration == 1


def test_normalize_for_method():
    cfgs = (AugmentorConfig(AugmentorKind.FACT), AugmentorConfig(AugmentorKind.REFLECTION))
    bon = normalize_for_method(cfgs, "best_of_n")
    assert bon[0].fact_mode is FactMode.BATCH
    for method in ("beam", "mcts"):
        out = normalize_for_method(cfgs, method)
        assert out[0].fact_mode is FactMode.INCREMENTAL
        assert out[1] is cfgs[1]


def test_fact_store_pairwise_dissimilar_under_random_streams():
    """Write-time dedup keeps any store pairwise below its threshold."""
    rng = random.Random(99)
    vocab = [f"w{i}" for i in range(30)]
    for case in range(60):
        threshold = rng.choice([0.5, 0.7, 0.9, 1.0])
        store = MemoryStore(threshold)
        for _ in range(12):
            body = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
            store.add(_fact_unit(body))
        vecs = [np.asarray(u.embedding) for u in store.units]
        for a, b in itertools.combinations(vecs, 2):
            assert cosine(a, b) < threshold


def _reference_add(stored: list, unit: ContextUnit, threshold: float) -> bool:
    """The per-pair dedup loop the vectorized check must reproduce."""
    if unit.abstraction is Abstraction.FACT:
        vec = np.asarray(unit.embedding)
        for other in stored:
            if other.abstraction is not Abstraction.FACT:
                continue
            if cosine(vec, np.asarray(other.embedding)) >= threshold:
                return False
    stored.append(unit)
    return True


# words and their case variants, so streams repeat facts and near-facts
_WORDS = st.sampled_from(["alpha", "Alpha", "beta", "gamma", "GAMMA", "delta", "table", "named"])
_UNITS = st.tuples(st.booleans(), st.lists(_WORDS, min_size=1, max_size=5)).map(
    lambda t: _reflection_unit(" ".join(t[1])) if t[0] else _fact_unit(" ".join(t[1]))
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(threshold=st.sampled_from([0.5, 0.9, 1.0]), stream=st.lists(_UNITS, max_size=40))
def test_store_dedup_decisions_match_per_pair_loop(threshold, stream):
    store, reference = MemoryStore(threshold), []
    got = [store.add(u) for u in stream]
    assert got == [_reference_add(reference, u, threshold) for u in stream]
    assert store.units == tuple(reference)


# a pool of 3-4 bodies, so that most adds repeat an earlier one
_POOL = st.lists(st.lists(_WORDS, min_size=1, max_size=5).map(" ".join), min_size=3, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(threshold=st.sampled_from([0.5, 0.9, 1.0 - 1e-12, 1.0]), data=st.data())
def test_store_repeat_exits_match_per_pair_loop(threshold, data):
    pool = data.draw(_POOL)
    units = st.tuples(st.integers(0, 9), st.sampled_from(pool)).map(
        lambda t: _reflection_unit(t[1]) if t[0] == 0 else _fact_unit(t[1])
    )
    stream = data.draw(st.lists(units, max_size=40))
    store, reference = MemoryStore(threshold), []
    got = [store.add(u) for u in stream]
    assert got == [_reference_add(reference, u, threshold) for u in stream]
    assert store.units == tuple(reference)


def _tuple_fact(body, embedding):
    return ContextUnit(
        Scope.CROSS_TRAJECTORY, Abstraction.FACT, body, 0, persistent=True, embedding=embedding
    )


@pytest.mark.parametrize(
    "embedding, threshold",
    [((0.0,) * 16, 0.5), ((1e200,) * 16, 0.5), ((0.2,) + (0.3,) * 15, 1.0)],
    ids=["all_zero", "norm_overflows", "self_cosine_below_one"],
)
def test_store_keeps_every_repeat_of_a_degenerate_embedding(embedding, threshold):
    # a zero denominator scores 0.0, an infinite norm scores NaN, and the last
    # vector's cosine with itself rounds to 1 - 2**-53: in the per-pair loop
    # none duplicates itself, so no repeat is dropped
    stream = [_tuple_fact(f"fact {i}", embedding) for i in range(3)]
    store, reference = MemoryStore(threshold), []
    with np.errstate(over="ignore", invalid="ignore"):
        got = [store.add(u) for u in stream]
        assert got == [_reference_add(reference, u, threshold) for u in stream] == [True] * 3


def _arr(values, dtype=np.float64):
    return np.array(values, dtype=dtype)


_DIM16 = [hash_embed(body, 16) for body in ("alpha beta", "gamma delta", "alpha gamma")]
_TINY = [_arr([1e-200] * 16, np.longdouble), _arr([1e-200] * 8 + [0.0] * 8, np.longdouble)]


@pytest.mark.parametrize(
    "stream, masked",
    [
        # v.v of these longdouble vectors is about 1e-400, so their norms are
        # about 1e-200 and the product of two of them underflows to 0 in float64
        pytest.param(
            _TINY + [_TINY[0], tuple(_DIM16[0])],
            True,
            id="norm_products_underflow",
            marks=pytest.mark.skipif(
                np.finfo(np.longdouble).tiny >= 1e-300, reason="longdouble is float64 here"
            ),
        ),
        pytest.param(
            [_arr([0.0] * 16)] + [tuple(v) for v in _DIM16 + _DIM16], True, id="zero_fact_first"
        ),
        pytest.param(
            [_arr([np.nan] + [1.0] * 15)] + [tuple(v) for v in _DIM16], True, id="nan_fact_first"
        ),
        pytest.param(
            [tuple(v) for v in _DIM16] + [_arr([1e200] * 16), _arr([1e200] * 8 + [0.0] * 8)],
            False,
            id="norms_overflow",
        ),
        pytest.param([tuple(v) for v in _DIM16 + _DIM16[::-1]], False, id="tuples"),
        pytest.param(
            [tuple(v.astype(np.float32)) for v in _DIM16] + [_arr([3, 4] + [0] * 14, int)],
            False,
            id="float32_and_int",
        ),
    ],
)
def test_store_divide_paths_match_per_pair_loop(monkeypatch, stream, masked):
    # the plain quotient uses `/`; only the zero-filled masked divide calls np.divide
    calls = []
    real = np.divide

    def counting_divide(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "divide", counting_divide)
    units = [_tuple_fact(f"fact {i}", e) for i, e in enumerate(stream)]
    for threshold in (0.5, 0.9, 1.0):
        store, reference = MemoryStore(threshold), []
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            got = [store.add(u) for u in units]
            assert got == [_reference_add(reference, u, threshold) for u in units]
        assert store.units == tuple(reference)
    assert bool(calls) is masked


@pytest.mark.parametrize(
    "threshold",
    [0, 0.0, -1, 1.5, float("nan"), float("inf"), True, "0.9", None],
)
def test_store_refuses_the_dedup_thresholds_the_config_refuses(threshold):
    with pytest.raises(ValueError) as store_error:
        MemoryStore(threshold)
    with pytest.raises(ValueError) as config_error:
        AugmentorConfig(AugmentorKind.FACT, dedup_threshold=threshold)
    assert str(store_error.value) == str(config_error.value)


@pytest.mark.parametrize("threshold", [1, 1.0, 0.9, 1e-9])
def test_store_takes_every_threshold_in_range(threshold):
    assert MemoryStore(threshold).dedup_threshold == threshold


def test_extract_facts_embeds_and_adds_once_per_line(monkeypatch):
    # the benchmark's tracer and its fact_heavy checks count one
    # HashEmbedder.embed and one MemoryStore.add per extracted line
    calls = {"embed": [], "add": []}
    real_embed, real_add = HashEmbedder.embed, MemoryStore.add

    def embed(self, text):
        calls["embed"].append(text)
        return real_embed(self, text)

    def add(self, unit):
        calls["add"].append(unit.body)
        return real_add(self, unit)

    monkeypatch.setattr(HashEmbedder, "embed", embed)
    monkeypatch.setattr(MemoryStore, "add", add)
    store, embedder = MemoryStore(), HashEmbedder()
    text = "OBSERVATION[LIST_TABLES]: games, games, albums, Games"
    tables = ("games", "games", "albums", "Games")
    lines = [f"The database contains a table named '{t}'." for t in tables]
    assert extract_facts(text, 0, AUG_MODEL, embedder, store) == 2
    assert extract_facts(text, 1, AUG_MODEL, embedder, store) == 0
    assert calls == {"embed": lines * 2, "add": lines * 2}


def test_store_repeat_of_a_stored_or_dropped_fact_skips_the_scan(monkeypatch):
    a = _fact_unit("The database contains a table named 'albums'.")
    b = _fact_unit("The database contains a table named 'studio_sessions'.")
    scans = []
    real = MemoryStore._is_duplicate

    def counting_scan(self, vec, norm):
        scans.append(1)
        return real(self, vec, norm)

    monkeypatch.setattr(MemoryStore, "_is_duplicate", counting_scan)
    store = MemoryStore(cosine(np.asarray(a.embedding), np.asarray(b.embedding)) - 0.01)
    assert store.add(a) and len(scans) == 1
    assert not store.add(_fact_unit(a.body)) and len(scans) == 1  # a stored fact again
    assert not store.add(_fact_unit(a.body.upper())) and len(scans) == 1  # same embedding
    assert not store.add(b) and len(scans) == 2  # dropped as a duplicate of a
    assert not store.add(_fact_unit(b.body)) and len(scans) == 2  # a dropped fact again
    assert store.units == (a,)


def test_store_dedup_threshold_at_exact_cosine_takes_margin_fallback(monkeypatch):
    a = _fact_unit("The database contains a table named 'albums'.")
    b = _fact_unit("The database contains a table named 'studio_sessions'.")
    exact = cosine(np.asarray(b.embedding), np.asarray(a.embedding))
    rechecks = []

    def counting_cosine(x, y):
        rechecks.append(1)
        return cosine(x, y)

    monkeypatch.setattr(augmentors, "cosine", counting_cosine)
    at = MemoryStore(exact)
    assert at.add(a)
    assert not at.add(b)  # similarity == threshold: dropped
    above = MemoryStore(float(np.nextafter(exact, 2.0)))
    assert above.add(a)
    assert above.add(b)  # one ulp below the threshold: kept
    assert len(rechecks) == 2


def test_embedding_respects_configured_dim():
    cfg = AugmentorConfig(AugmentorKind.FACT, fact_mode=FactMode.INCREMENTAL)
    composite = compose((cfg,), model=AUG_MODEL, embedder=HashEmbedder(dim=16))
    composite.on_step(_step("LIST_TABLES", "", "games"), 0)
    assert len(composite.store.units[0].embedding) == 16


def test_defaults_are_pinned():
    assert REFLECTION_THRESHOLD == 0.3
    assert DEDUP_THRESHOLD == 0.9
