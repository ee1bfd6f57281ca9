from __future__ import annotations

import json
from pathlib import Path

import pytest

import memsearch

FIXTURES = Path(memsearch.__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def demo_config_path() -> Path:
    return FIXTURES / "demo_config.json"


def write_mini_config(tmp_path: Path, cells: list[dict], benchmarks: dict | None = None) -> Path:
    """Write a small experiment config into tmp_path, pointing at the
    shipped fixture scripts by absolute path."""
    if benchmarks is None:
        benchmarks = {
            "toy_sql_demo": {
                "fixtures": str(FIXTURES / "tasks" / "toy_sql_demo.json"),
                "policy_script": str(FIXTURES / "scripts" / "toy_sql_policy.json"),
                "reward_script": str(FIXTURES / "scripts" / "toy_sql_reward.json"),
                "augmentor_script": str(FIXTURES / "scripts" / "toy_sql_augmentor.json"),
                "discovery_tool": "LIST_TABLES",
            }
        }
    cfg = {"embedder_dim": 64, "benchmarks": benchmarks, "cells": cells}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def same_bundle(got, want) -> None:
    """Assert two bundles agree in all a prompt reads: units, text, fingerprint and tokens."""
    assert (got.units, got.rendered, got.fingerprint, got.tokens) == (
        want.units, want.rendered, want.fingerprint, want.tokens
    )
