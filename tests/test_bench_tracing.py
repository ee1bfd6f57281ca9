"""The benchmark tracer patches memsearch names from outside the program.

Installing and removing it resolves every name it patches, so a refactor
that renames or moves one of them fails here rather than in a traced
benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from memsearch import augmentors, envs, matrix, models, search

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_over_current_names():
    patched = [
        (matrix, "run_search"),
        (matrix, "_run_cell_task"),
        (search, "expand"),
        (envs, "parse_sexpr"),
        (models.ScriptedPolicy, "sample"),
        (models.ScriptedRewardModel, "score"),
        (models.ScriptedAugmentorModel, "generate"),
        (models.HashEmbedder, "embed"),
        (augmentors.MemoryStore, "add"),
        (augmentors.CompositeAugmentor, "retrieve"),
        (augmentors.CompositeAugmentor, "on_step"),
        (augmentors.CompositeAugmentor, "on_trajectory"),
    ] + [
        (env_cls, attr)
        for env_cls in (envs.ToySqlEnv, envs.ToyKgEnv, envs.ScriptedShellEnv)
        for attr in ("step", "fork", "reset")
    ]
    before = {(owner, attr): getattr(owner, attr) for owner, attr in patched}

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in before.items())
