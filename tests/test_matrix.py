from __future__ import annotations

import collections
import functools
import gc
import hashlib
import json
import logging
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memsearch import envs, matrix, models, search
from memsearch.augmentors import AugmentorConfig, AugmentorKind, compose
from memsearch.cli import main
from memsearch.core import Telemetry
from memsearch.envs import load_benchmark
from memsearch.matrix import (
    GLYPH_NON_SERIALIZABLE,
    GLYPH_STRUCTURAL,
    AdmissibilityReason,
    ExperimentCell,
    WorkerError,
    _build_models,
    check_admissible,
    load_matrix_config,
    memory_label,
    run_matrix,
    task_seed,
)
from memsearch.models import RETRY_DELAY_S, ConfigurationError, HashEmbedder
from memsearch.search import SearchConfig, SearchMethod
from memsearch.stats import VerdictRow

from conftest import FIXTURES, ChatStub, chat_reply, write_mini_config


def _cell(memory=(), method=SearchMethod.BEST_OF_N, env="toy_sql"):
    return ExperimentCell(
        cell_id="c",
        benchmark="b",
        env=env,
        memory=tuple(AugmentorConfig(k) for k in memory),
        search=SearchConfig(method=method),
        seed=0,
    )


def test_memory_label_sorts_kinds():
    assert memory_label(()) == "none"
    assert memory_label((AugmentorConfig(AugmentorKind.NONE),)) == "none"
    both = (AugmentorConfig(AugmentorKind.REFLECTION), AugmentorConfig(AugmentorKind.FACT))
    assert memory_label(both) == "fact+reflection"


def test_admissibility_duplicate_augmentor():
    cell = _cell((AugmentorKind.FACT, AugmentorKind.FACT))
    adm = check_admissible(cell)
    assert not adm.admissible
    assert adm is AdmissibilityReason.DUPLICATE_AUGMENTOR
    assert adm.glyph == GLYPH_STRUCTURAL


def test_admissibility_unknown_env():
    adm = check_admissible(_cell(env="postgres"))
    assert adm is AdmissibilityReason.UNKNOWN_ENV


def test_admissibility_non_serializable_blocks_expansion_methods():
    for method in (SearchMethod.BEAM, SearchMethod.MCTS):
        adm = check_admissible(_cell(method=method, env="scripted_shell"))
        assert not adm.admissible
        assert adm is AdmissibilityReason.NON_SERIALIZABLE
        assert adm.glyph == GLYPH_NON_SERIALIZABLE
    assert check_admissible(_cell(env="scripted_shell")).admissible


def test_admissibility_raw_sibling_needs_expansion():
    adm = check_admissible(_cell((AugmentorKind.RAW_SIBLING,)))
    assert adm is AdmissibilityReason.CROSS_SIBLING_NEEDS_EXPANSION
    assert adm.glyph == GLYPH_STRUCTURAL
    assert check_admissible(_cell((AugmentorKind.RAW_SIBLING,), SearchMethod.BEAM)).admissible
    assert check_admissible(_cell((AugmentorKind.RAW_SIBLING,), SearchMethod.MCTS)).admissible


def test_admissibility_cross_trajectory_blocked_on_beam():
    for kind in (AugmentorKind.REFLECTION, AugmentorKind.FACT):
        adm = check_admissible(_cell((kind,), SearchMethod.BEAM))
        assert adm is AdmissibilityReason.CROSS_TRAJECTORY_NEEDS_ITERATIONS
        assert check_admissible(_cell((kind,), SearchMethod.MCTS)).admissible
        assert check_admissible(_cell((kind,), SearchMethod.BEST_OF_N)).admissible


def test_task_seed_is_per_task_stable():
    a = task_seed(11, "sql-001")
    assert a == task_seed(11, "sql-001")
    assert a != task_seed(11, "sql-002")
    assert a != task_seed(12, "sql-001")


def test_load_matrix_config_reports_json_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cells": [,]}')
    with pytest.raises(ConfigurationError, match=r"bad\.json:1:\d+"):
        load_matrix_config(bad)
    with pytest.raises(ConfigurationError):
        load_matrix_config(tmp_path / "missing.json")


def test_load_matrix_config_validates_cells(tmp_path, fixtures_dir):
    def attempt(cells):
        path = write_mini_config(tmp_path, cells)
        return load_matrix_config(path)

    base = {
        "id": "a",
        "benchmark": "toy_sql_demo",
        "memory": [],
        "search": {"method": "best_of_n"},
        "seed": 1,
    }
    cfg = attempt([base])
    assert cfg.cells[0].env == "toy_sql"
    assert cfg.cells[0].search.method is SearchMethod.BEST_OF_N

    with pytest.raises(ConfigurationError, match="duplicate cell id"):
        attempt([base, base])
    with pytest.raises(ConfigurationError, match="unusable cell id"):
        attempt([dict(base, id="has space")])
    with pytest.raises(ConfigurationError, match="unusable cell id"):
        attempt([dict(base, id="ends_in_a_newline\n")])
    with pytest.raises(ConfigurationError, match="unknown benchmark"):
        attempt([dict(base, benchmark="nope")])
    with pytest.raises(ConfigurationError, match="unknown memory kind"):
        attempt([dict(base, memory=["episodic"])])
    with pytest.raises(ConfigurationError, match="unknown search keys"):
        attempt([dict(base, search={"method": "best_of_n", "depth": 3})])
    with pytest.raises(ConfigurationError, match="bad search config"):
        attempt([dict(base, search={"method": "dfs"})])
    with pytest.raises(ConfigurationError, match="no cells"):
        attempt([])


@pytest.mark.parametrize(
    "top_level, message",
    [
        ({"pricing": {"policy_inn": 1}}, "bad pricing: .*policy_inn"),
        ({"pricing": {"policy_in": "1"}}, "bad pricing: policy_in"),
        ({"pricing": {"supervisor_out": -2.0}}, "bad pricing: supervisor_out"),
        ({"pricing": {"policy_out": True}}, "bad pricing: policy_out"),
        ({"pricing": {"policy_out": float("nan")}}, "bad pricing: policy_out"),
        ({"pricing": [0.8, 4.0]}, "bad pricing"),
        ({"embedder_dim": 4}, "embedder_dim must be an integer >= 8, got 4"),
        ({"embedder_dim": "64"}, "embedder_dim must be an integer >= 8, got '64'"),
        ({"embeder_dim": 64}, r"config\.json: unknown config keys \['embeder_dim'\]"),
    ],
    ids=[
        "pricing_typo",
        "pricing_string",
        "pricing_negative",
        "pricing_bool",
        "pricing_nan",
        "pricing_list",
        "dim_4",
        "dim_str",
        "dim_misspelt",
    ],
)
def test_bad_pricing_or_embedder_dim_is_a_config_error(tmp_path, capsys, top_level, message):
    cell = {"id": "a", "benchmark": "toy_sql_demo", "search": {"method": "best_of_n"}}
    path = write_mini_config(tmp_path, [cell])
    path.write_text(json.dumps({**json.loads(path.read_text()), **top_level}))
    _assert_config_error(path, message, capsys)


def _assert_config_error(path, message, capsys):
    """Loading fails with `message`; `validate` and `run` exit 2 without output."""
    with pytest.raises(ConfigurationError, match=message):
        load_matrix_config(path)
    out = path.parent / "out"
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("config error: ") == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "update, message",
    [
        (
            {"memory": [{"kind": "fact", "dedup_threshold": "high"}]},
            r"cells\[0\]: bad fact memory config: dedup_threshold must be a number, got 'high'",
        ),
        (
            {"memory": [{"kind": "fact", "dedup_threshold": "0.9"}]},
            r"cells\[0\]: bad fact memory config: dedup_threshold must be a number, got '0\.9'",
        ),
        (
            {"memory": [{"kind": "fact", "dedup_threshold": True}]},
            r"cells\[0\]: bad fact memory config: dedup_threshold must be a number, got True",
        ),
        (
            {"memory": [{"kind": "fact", "dedup_threshold": 2}]},
            r"cells\[0\]: bad fact memory config: dedup threshold outside",
        ),
        (
            {"memory": [{"kind": "reflection", "reflection_threshold": None}]},
            r"cells\[0\]: bad reflection memory config",
        ),
        (
            {"memory": [{"kind": "fact", "dedup_treshold": 0.5}]},
            r"cells\[0\]: unknown memory keys \['dedup_treshold'\]",
        ),
        ({"memroy": ["fact"]}, r"cells\[0\]: unknown cell keys \['memroy'\]"),
        ({"seed": "one"}, r"cells\[0\]: bad seed 'one'"),
        ({"seed": "3"}, r"cells\[0\]: bad seed '3'"),
        ({"seed": 1.7}, r"cells\[0\]: bad seed 1\.7"),
        ({"seed": True}, r"cells\[0\]: bad seed True"),
        ({"search": {"method": "best_of_n", "n_budget": "3"}}, r"cells\[0\]: bad search config"),
        (
            {"search": {"method": "best_of_n", "n_budget": 2.5}},
            r"cells\[0\]: bad search config: n_budget must be an integer, got 2\.5",
        ),
        (
            {"search": {"method": "best_of_n", "n_budget": True}},
            r"cells\[0\]: bad search config: n_budget must be an integer, got True",
        ),
        (
            {"search": {"method": "mcts", "n_actions": 1.5}},
            r"cells\[0\]: bad search config: n_actions must be an integer, got 1\.5",
        ),
        (
            {"search": {"method": "beam", "beam_width": 2.0}},
            r"cells\[0\]: bad search config: beam_width must be an integer, got 2\.0",
        ),
        (
            {"search": {"method": "mcts", "n_iters": False}},
            r"cells\[0\]: bad search config: n_iters must be an integer, got False",
        ),
        (
            {"search": {"method": "mcts", "max_depth": 4.5}},
            r"cells\[0\]: bad search config: max_depth must be an integer, got 4\.5",
        ),
        (
            {"search": {"method": "mcts", "rollout_depth": "4"}},
            r"cells\[0\]: bad search config: rollout_depth must be an integer, got '4'",
        ),
        (
            {"search": {"method": "mcts", "expansion": "interleaved"}},
            r"cells\[0\]: unknown search keys \['expansion'\]",
        ),
        (
            {"search": {"method": "beam", "temperature": True}},
            r"cells\[0\]: bad search config: temperature must be a finite number, got True",
        ),
        (
            {"search": {"method": "beam", "temperature": float("nan")}},
            r"cells\[0\]: bad search config: temperature must be a finite number, got nan",
        ),
        (
            {"search": {"method": "mcts", "w_exp": float("nan")}},
            r"cells\[0\]: bad search config: w_exp must be a finite number, got nan",
        ),
        (
            {"search": {"method": "mcts", "decay_gamma": False}},
            r"cells\[0\]: bad search config: decay_gamma must be a finite number, got False",
        ),
    ],
    ids=[
        "dedup_str",
        "dedup_numeric_str",
        "dedup_bool",
        "dedup_range",
        "reflection_null",
        "memory_key_misspelt",
        "cell_key_misspelt",
        "seed_str",
        "seed_numeric_str",
        "seed_float",
        "seed_bool",
        "n_budget_str",
        "n_budget_float",
        "n_budget_bool",
        "n_actions_float",
        "beam_width_float",
        "n_iters_bool",
        "max_depth_float",
        "rollout_depth_str",
        "expansion_key",
        "temperature_bool",
        "temperature_nan",
        "w_exp_nan",
        "decay_gamma_bool",
    ],
)
def test_bad_cell_value_is_a_config_error(tmp_path, capsys, update, message):
    cell = {"id": "a", "benchmark": "toy_sql_demo", "search": {"method": "best_of_n"}, **update}
    _assert_config_error(write_mini_config(tmp_path, [cell]), message, capsys)


def _sql_cell():
    return {"id": "a", "benchmark": "toy_sql_demo", "search": {"method": "best_of_n"}}


@pytest.mark.parametrize(
    "reshape, message",
    [
        (lambda cfg: [cfg], r"config\.json: the config must be an object, got list"),
        (
            lambda cfg: {**cfg, "benchmarks": list(cfg["benchmarks"].values())},
            r"config\.json: benchmarks must be an object, got list",
        ),
        (
            lambda cfg: {**cfg, "benchmarks": {"toy_sql_demo": "toy_sql_demo.json"}},
            r"benchmark 'toy_sql_demo' must be an object, got str",
        ),
        (
            lambda cfg: {
                **cfg,
                "benchmarks": {
                    "toy_sql_demo": {**cfg["benchmarks"]["toy_sql_demo"], "discovery_tol": "QUERY"}
                },
            },
            r"benchmark 'toy_sql_demo': unknown benchmark keys \['discovery_tol'\]",
        ),
        (lambda cfg: {**cfg, "cells": ["a"]}, r"cells\[0\] must be an object, got str"),
        (
            lambda cfg: {**cfg, "cells": [{**_sql_cell(), "memory": [3]}]},
            r"cells\[0\]: memory entry 3 is no kind name or object",
        ),
        (
            lambda cfg: {**cfg, "cells": [{**_sql_cell(), "id": 7}]},
            r"cells\[0\]: missing or unusable cell id 7",
        ),
        (
            lambda cfg: {**cfg, "cells": [{**_sql_cell(), "benchmark": ["toy_sql_demo"]}]},
            r"cells\[0\]: unknown benchmark \['toy_sql_demo'\]",
        ),
        (
            lambda cfg: {**cfg, "cells": [{**_sql_cell(), "memory": [{"kind": ["fact"]}]}]},
            r"cells\[0\]: unknown memory kind \['fact'\]",
        ),
    ],
    ids=[
        "top_level_array",
        "benchmarks_list",
        "spec_str",
        "spec_key_misspelt",
        "cell_str",
        "memory_int",
        "id_int",
        "benchmark_list",
        "memory_kind_list",
    ],
)
def test_malformed_config_shape_is_a_config_error(tmp_path, capsys, reshape, message):
    path = write_mini_config(tmp_path, [_sql_cell()])
    path.write_text(json.dumps(reshape(json.loads(path.read_text()))))
    _assert_config_error(path, message, capsys)


@pytest.mark.parametrize(
    "tool, message",
    [
        ("LIST_TABLE", r"discovery_tool 'LIST_TABLE' is none of the fixture's tools \["),
        ("RELATIONS", r"discovery_tool 'RELATIONS' is none of the fixture's tools"),
        ("", r"discovery_tool '' is none of the fixture's tools"),
        (7, r"discovery_tool 7 is none of the fixture's tools"),
        (["LIST_TABLES"], r"discovery_tool \['LIST_TABLES'\] is none of the fixture's tools"),
    ],
    ids=["misspelt", "other_benchmarks_tool", "empty", "int", "list"],
)
def test_unknown_discovery_tool_is_a_config_error(tmp_path, capsys, tool, message):
    path = write_mini_config(tmp_path, [_sql_cell()])
    raw = json.loads(path.read_text())
    raw["benchmarks"]["toy_sql_demo"]["discovery_tool"] = tool
    path.write_text(json.dumps(raw))
    _assert_config_error(path, rf"benchmark 'toy_sql_demo': {message}", capsys)


@pytest.mark.parametrize(
    "rule, message",
    [
        ({"step": 1.7}, r"policy rule 0: step must be an integer >= 0, got 1\.7"),
        ({"step": True}, r"policy rule 0: step must be an integer >= 0, got True"),
        ({"step": -2}, r"policy rule 0: step must be an integer >= 0, got -2"),
        ({"step": "0"}, r"policy rule 0: step must be an integer >= 0, got '0'"),
        (
            {"candidates": {"LIST_TABLES|": -1.0}},
            r"policy rule 0 at step 0: weight of 'LIST_TABLES\|' must be a finite number "
            r">= 0, got -1\.0",
        ),
        (
            {"candidates": {"LIST_TABLES|": float("nan")}},
            r"policy rule 0 at step 0: weight of .* got nan",
        ),
        (
            {"candidates": {"LIST_TABLES|": float("inf")}},
            r"policy rule 0 at step 0: weight of .* got inf",
        ),
        (
            {"candidates": {"LIST_TABLES|": True}},
            r"policy rule 0 at step 0: weight of .* got True",
        ),
        (
            {"candidates": {"LIST_TABLES|": "1"}},
            r"policy rule 0 at step 0: weight of .* got '1'",
        ),
        (
            {"candidates": {"LIST_TABLES|": 0.0, "SCHEMA|x": 0}},
            r"policy rule 0 at step 0: candidate weights must sum to a finite number above 0",
        ),
    ],
    ids=[
        "step_float",
        "step_bool",
        "step_negative",
        "step_str",
        "weight_negative",
        "weight_nan",
        "weight_inf",
        "weight_bool",
        "weight_str",
        "weights_all_zero",
    ],
)
def test_bad_policy_step_or_weight_is_a_config_error(
    tmp_path, fixtures_dir, capsys, rule, message
):
    script = {"rules": [{"step": 0, "candidates": {"LIST_TABLES|": 1.0}, **rule}]}
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    config = _one_sql_cell_config(tmp_path, fixtures_dir, policy_script=path)
    _assert_config_error(config, rf"benchmark 'toy_sql_demo': policy_script: {message}", capsys)


REMOTE_POLICY = {"kind": "remote", "url": "http://localhost/v1", "model": "m"}


@pytest.mark.parametrize(
    "key, script, message",
    [
        (
            "policy_script",
            {"rules": [{"step": 0, "match": "regex:x", "candidates": {"LIST_TABLES|": 1.0}}]},
            r"policy_script: bad policy match spec: 'regex:x'",
        ),
        (
            "reward_script",
            {"rules": [{"tool": "QUERY", "score": 3}]},
            r"reward_script: reward rule score 3\.0 outside \[0, 1\]",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(", "template": "{0}"}]}},
            r"augmentor_script: missing \), unterminated subpattern",
        ),
        ("reward_script", {"rules": [{"tool": "QUERY"}]}, "reward_script: missing key 'score'"),
        ("policy_script", [], r".*script\.json must be an object, got list"),
        (
            "policy_script",
            {**REMOTE_POLICY, "url": 5},
            "policy_script: remote policy url, model and api_key_env must be strings",
        ),
        ("policy_script", {"kind": "remote", "url": "u"}, "policy_script: missing key 'model'"),
        (
            "policy_script",
            {**REMOTE_POLICY, "kind": "remtoe"},
            "policy_script: unknown policy kind 'remtoe'",
        ),
        (
            "policy_script",
            {**REMOTE_POLICY, "max_retries": 0},
            "policy_script: max_retries must be an integer >= 1, got 0",
        ),
        (
            "policy_script",
            {**REMOTE_POLICY, "max_retries": "3"},
            "policy_script: max_retries must be an integer >= 1, got '3'",
        ),
        (
            "reward_script",
            {"rules": [{"score": True}]},
            r"reward_script: reward rule 0: score must be a number, got True",
        ),
        (
            "reward_script",
            {"rules": [{"score": 0.1}, {"score": "0.7"}]},
            r"reward_script: reward rule 1: score must be a number, got '0\.7'",
        ),
        (
            "reward_script",
            {"rules": [], "default": False},
            "reward_script: reward default must be a number, got False",
        ),
        (
            "reward_script",
            {"rules": [{"score": 0.1, "is_error": "no"}]},
            "reward_script: reward rule 0: is_error must be true or false, got 'no'",
        ),
        (
            "reward_script",
            {"rules": [{"score": 0.1, "is_error": 0}]},
            "reward_script: reward rule 0: is_error must be true or false, got 0",
        ),
        (
            "reward_script",
            {"rules": [{"score": 0.1, "tool": ["QUERY"]}]},
            r"reward_script: reward rule 0: tool must be a string, got \['QUERY'\]",
        ),
        (
            "reward_script",
            {"rules": [{"score": 0.1, "obs_contains": 3}]},
            "reward_script: reward rule 0: obs_contains must be a string, got 3",
        ),
        (
            "reward_script",
            {"rules": [{"score": 0.1, "args_contains": True}]},
            "reward_script: reward rule 0: args_contains must be a string, got True",
        ),
        (
            "policy_script",
            {"rules": [], "apology_collapse_prob": True},
            "policy_script: apology_collapse_prob must be a number, got True",
        ),
        (
            "policy_script",
            {"rules": [], "apology_collapse_prob": "0.5"},
            "policy_script: apology_collapse_prob must be a number, got '0.5'",
        ),
        (
            "policy_script",
            {"rules": [], "apology_text": 7},
            "policy_script: apology_text must be a string, got 7",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "LIST_TABLES\\]: (.+)", "template": "T {0} {1}"}]}},
            r"augmentor_script: fact rule 0: template 'T \{0\} \{1\}' cannot be filled "
            r"from the pattern's 1 group\(s\): field \{1\} needs group 2",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(a)", "template": "{} and {}"}]}},
            r"augmentor_script: fact rule 0: template .* cannot be filled .* field \{\} needs group 2",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(a)(b)", "template": "{} and {1}"}]}},
            r"augmentor_script: fact rule 0: .* automatic \{\} and numbered fields are mixed",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(a)", "template": "{table}"}]}},
            r"augmentor_script: fact rule 0: .* field \{table\} is not a positional index",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(a)", "template": "{0:d}"}]}},
            r"augmentor_script: fact rule 0: .* Unknown format code 'd'",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(a)", "template": "{0:{1}}"}]}},
            r"augmentor_script: fact rule 0: .* Replacement index 1 out of range",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(a)", "template": "{0"}]}},
            r"augmentor_script: fact rule 0: template '\{0' cannot be filled",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "LIST_TABLES", "template": "{0}", "split": ", "}]}},
            "augmentor_script: fact rule 0: a split rule's pattern needs a group to split",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(.+)", "template": "{0}", "split": ""}]}},
            "augmentor_script: fact rule 0: split must not be empty",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(.+)", "template": 3}]}},
            "augmentor_script: fact rule 0: template must be a string, got 3",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": ["(.+)"], "template": "{0}"}]}},
            r"augmentor_script: fact rule 0: pattern must be a string, got \['\(\.\+\)'\]",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(.+)", "template": "{0}", "split": 1}]}},
            "augmentor_script: fact rule 0: split must be a string, got 1",
        ),
        (
            "augmentor_script",
            {"reflection": {"rules": [{"contains": 5, "text": "t"}]}},
            "augmentor_script: reflection rule 0: contains must be a string, got 5",
        ),
        (
            "augmentor_script",
            {"reflection": {"rules": [{"contains": "ERROR", "text": None}]}},
            "augmentor_script: reflection rule 0: text must be a string, got None",
        ),
        (
            "augmentor_script",
            {"reflection": {"default": ["t"]}},
            r"augmentor_script: reflection default must be a string, got \['t'\]",
        ),
    ],
    ids=[
        "policy_match",
        "reward_score",
        "fact_pattern",
        "reward_rule_no_score",
        "policy_array",
        "remote_url",
        "remote_no_model",
        "policy_kind_misspelt",
        "remote_retries_0",
        "remote_retries_str",
        "score_bool",
        "score_str",
        "default_bool",
        "is_error_str",
        "is_error_int",
        "tool_list",
        "obs_contains_int",
        "args_contains_bool",
        "collapse_prob_bool",
        "collapse_prob_str",
        "apology_text_int",
        "template_field_past_groups",
        "auto_fields_past_groups",
        "auto_and_numbered_fields",
        "named_field",
        "bad_format_spec",
        "nested_field_past_groups",
        "unclosed_field",
        "split_without_group",
        "split_empty",
        "template_int",
        "pattern_list",
        "split_int",
        "reflection_contains_int",
        "reflection_text_null",
        "reflection_default_list",
    ],
)
def test_bad_script_is_a_config_error(
    tmp_path, fixtures_dir, capsys, monkeypatch, key, script, message
):
    monkeypatch.delenv("MEMSEARCH_API_KEY", raising=False)
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    config = _one_sql_cell_config(tmp_path, fixtures_dir, **{key: path})
    _assert_config_error(config, rf"benchmark 'toy_sql_demo': {message}", capsys)


def _one_sql_cell_config(tmp_path, fixtures_dir, **paths):
    """A one-cell config over toy_sql_demo, with some of its file paths replaced."""
    scripts = fixtures_dir / "scripts"
    spec = {
        "fixtures": str(fixtures_dir / "tasks" / "toy_sql_demo.json"),
        "policy_script": str(scripts / "toy_sql_policy.json"),
        "reward_script": str(scripts / "toy_sql_reward.json"),
        "augmentor_script": str(scripts / "toy_sql_augmentor.json"),
        **{key: str(path) for key, path in paths.items()},
    }
    cells = [{"id": "a", "benchmark": "toy_sql_demo", "search": {"method": "best_of_n"}}]
    return write_mini_config(tmp_path, cells, {"toy_sql_demo": spec})


_RULE = {"step": 0, "candidates": {"LIST_TABLES|": 1.0}}


@pytest.mark.parametrize(
    "key, script, message",
    [
        (
            "policy_script",
            {"rules": [_RULE], "apology_txt": "sorry"},
            r"policy_script: scripted policy: unknown policy keys \['apology_txt'\]",
        ),
        (
            "policy_script",
            {"rules": [{**_RULE, "mach": "contains:FACTS:"}]},
            r"policy_script: policy rule 0: unknown rule keys \['mach'\]",
        ),
        (
            "reward_script",
            {"rules": [], "defualt": 0.2},
            r"reward_script: reward model: unknown reward keys \['defualt'\]",
        ),
        (
            "reward_script",
            {"rules": [{"obs_contain": "zzz", "score": 0.9}]},
            r"reward_script: reward rule 0: unknown rule keys \['obs_contain'\]",
        ),
        (
            "augmentor_script",
            {"reflections": {}},
            r"augmentor_script: augmentor model: unknown augmentor keys \['reflections'\]",
        ),
        (
            "augmentor_script",
            {"reflection": {"rule": []}},
            r"augmentor_script: reflection: unknown reflection keys \['rule'\]",
        ),
        (
            "augmentor_script",
            {"reflection": {"rules": [{"contains": "ERROR", "txt": "t"}]}},
            r"augmentor_script: reflection rule 0: unknown rule keys \['txt'\]",
        ),
        (
            "augmentor_script",
            {"facts": {"rule": []}},
            r"augmentor_script: facts: unknown facts keys \['rule'\]",
        ),
        (
            "augmentor_script",
            {"facts": {"rules": [{"pattern": "(.+)", "template": "{0}", "splt": ", "}]}},
            r"augmentor_script: fact rule 0: unknown rule keys \['splt'\]",
        ),
        (
            "policy_script",
            {**REMOTE_POLICY, "max_retry": 5},
            r"policy_script: remote policy: unknown policy keys \['max_retry'\]",
        ),
    ],
    ids=[
        "policy",
        "policy_rule",
        "reward",
        "reward_rule",
        "augmentor",
        "reflection",
        "reflection_rule",
        "facts",
        "fact_rule",
        "remote_policy",
    ],
)
def test_misspelt_script_key_is_a_config_error(
    tmp_path, fixtures_dir, capsys, key, script, message
):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    config = _one_sql_cell_config(tmp_path, fixtures_dir, **{key: path})
    _assert_config_error(config, rf"benchmark 'toy_sql_demo': {message}", capsys)


@pytest.mark.parametrize(
    "template, message",
    [
        ("QUERY|{no_such_key}", r"unknown placeholder 'no_such_key' in template 'QUERY\|\{no"),
        ("QUERY|{", r"template 'QUERY\|\{' cannot be filled: Single '\{' encountered"),
        ("QUERY|{0}", r"template 'QUERY\|\{0\}' cannot be filled: Format string contains pos"),
        (
            "QUERY|{prompt[a]}",
            r"template 'QUERY\|\{prompt\[a\]\}' cannot be filled: string indices must be int",
        ),
        (
            "QUERY|{prompt.x}",
            r"template 'QUERY\|\{prompt\.x\}' cannot be filled: 'str' object has no attribute",
        ),
    ],
    ids=["unknown_key", "stray_brace", "positional", "key_index", "attribute"],
)
def test_unfillable_policy_template_is_a_config_error(
    tmp_path, fixtures_dir, capsys, template, message
):
    rules = [_RULE, {"step": 1, "candidates": {"LIST_TABLES|": 1.0, template: 0.5}}]
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"rules": rules}))
    config = _one_sql_cell_config(tmp_path, fixtures_dir, policy_script=path)
    where = r"benchmark 'toy_sql_demo': policy_script: policy rule 1: "
    _assert_config_error(config, where + message, capsys)


def test_policy_templates_may_name_what_a_draw_fills(tmp_path, fixtures_dir):
    # the prompt, the task id, the last observation and any task's meta key,
    # held by one task of the benchmark or by all; an index into a value is
    # left to run time
    tasks = json.loads((fixtures_dir / "tasks" / "toy_sql_demo.json").read_text())
    tasks["tasks"][0]["meta"]["only_here"] = "x"
    fixture = tmp_path / "tasks.json"
    fixture.write_text(json.dumps(tasks))
    template = "QUERY|{prompt} {task_id} {last_observation} {target_table} {only_here} {prompt[0]}"
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"rules": [{"step": 0, "candidates": {template: 1.0}}]}))
    config = _one_sql_cell_config(tmp_path, fixtures_dir, fixtures=fixture, policy_script=path)
    assert load_matrix_config(config).benchmarks["toy_sql_demo"].policy.config.rules


def _rename(raw, old, new):
    return {new if key == old else key: value for key, value in raw.items()}


def _first_task(change):
    """A fixture change that applies `change` to the first task only."""
    return lambda raw: {**raw, "tasks": [change(raw["tasks"][0]), *raw["tasks"][1:]]}


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda raw: _rename(raw, "tools", "tool"), r"unknown fixture keys \['tool'\]"),
        (
            _first_task(lambda task: _rename(task, "meta", "mta")),
            r"tasks\[0\]: unknown task keys \['mta'\]",
        ),
        (lambda raw: {**raw, "env": "postgres"}, "unknown environment 'postgres'"),
        (_first_task(lambda task: {**task, "prompt": 5}), r"tasks\[0\]: prompt must be a string"),
        (lambda raw: {**raw, "tools": "QUERY"}, "tools must be an array, got str"),
        (lambda raw: {**raw, "tools": ["QUERY", 1]}, "tool must be a string, got 1"),
        (_first_task(lambda task: {**task, "id": 3}), r"tasks\[0\]: id must be a string, got 3"),
        (
            _first_task(lambda task: {**task, "id": "csv/204-csv/590.csv"}),
            r"tasks\[0\]: unusable task id 'csv/204-csv/590.csv'",
        ),
        (_first_task(lambda task: {**task, "gold": 3}), r"tasks\[0\]: gold must be a string"),
        (_first_task(lambda task: {**task, "meta": []}), r"tasks\[0\]: meta must be an object"),
        (_first_task(lambda task: {**task, "world": "x"}), r"tasks\[0\]: world must be an"),
        (lambda raw: {**raw, "tasks": ["t"]}, r"tasks\[0\] must be an object, got str"),
        (lambda raw: [raw], "must be an object, got list"),
        (lambda raw: _rename(raw, "tasks", "task"), r"unknown fixture keys \['task'\]"),
        (lambda raw: {k: v for k, v in raw.items() if k != "tasks"}, "missing key 'tasks'"),
    ],
    ids=[
        "fixture_key_misspelt",
        "task_key_misspelt",
        "unknown_env",
        "prompt_int",
        "tools_str",
        "tool_int",
        "id_int",
        "id_names_no_file",
        "gold_int",
        "meta_list",
        "world_str",
        "task_str",
        "fixture_array",
        "tasks_misspelt",
        "tasks_missing",
    ],
)
def test_bad_fixture_is_a_config_error(tmp_path, fixtures_dir, capsys, change, message):
    raw = json.loads((fixtures_dir / "tasks" / "toy_sql_demo.json").read_text())
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(change(raw)))
    config = _one_sql_cell_config(tmp_path, fixtures_dir, fixtures=path)
    _assert_config_error(config, rf"benchmark 'toy_sql_demo': fixtures: .*{message}", capsys)


# a policy template may name the meta keys of any shipped task
_META_KEYS = {
    key
    for path in (FIXTURES / "tasks").glob("*.json")
    for task in load_benchmark(path).tasks
    for key in task.meta
}
_PARSERS = {
    "policy": functools.partial(models.load_policy, meta_keys=_META_KEYS),
    "reward": models.ScriptedRewardModel.from_dict,
    "augmentor": models.ScriptedAugmentorModel.from_dict,
}


def test_every_shipped_script_and_fixture_loads_strictly(fixtures_dir):
    scripts = sorted((fixtures_dir / "scripts").glob("*.json"))
    tasks = sorted((fixtures_dir / "tasks").glob("*.json"))
    assert len(scripts) == 10 and len(tasks) == 4
    for path in scripts:
        parse = _PARSERS[path.stem.rpartition("_")[2]]
        parse(json.loads(path.read_text(encoding="utf-8")))
    for path in tasks:
        assert load_benchmark(path).tasks


def _remote_policy_config(tmp_path, fixtures_dir):
    script = tmp_path / "remote_policy.json"
    script.write_text(json.dumps(REMOTE_POLICY))
    return _one_sql_cell_config(tmp_path, fixtures_dir, policy_script=script)


def test_retry_delay_reaches_the_remote_client(tmp_path, fixtures_dir, monkeypatch):
    monkeypatch.setenv("MEMSEARCH_API_KEY", "k")
    cfg = load_matrix_config(_remote_policy_config(tmp_path, fixtures_dir))
    policy_model = _build_models(cfg.benchmarks["toy_sql_demo"], Telemetry())[0]
    assert policy_model.client.config.retry_delay == RETRY_DELAY_S > 0


def test_load_matrix_config_checks_benchmark_identity(tmp_path, fixtures_dir):
    benchmarks = {
        "renamed": {
            "fixtures": str(fixtures_dir / "tasks" / "toy_sql_demo.json"),
            "policy_script": str(fixtures_dir / "scripts" / "toy_sql_policy.json"),
            "reward_script": str(fixtures_dir / "scripts" / "toy_sql_reward.json"),
            "augmentor_script": str(fixtures_dir / "scripts" / "toy_sql_augmentor.json"),
        }
    }
    cells = [{"id": "a", "benchmark": "renamed", "search": {"method": "best_of_n"}}]
    path = write_mini_config(tmp_path, cells, benchmarks)
    with pytest.raises(ConfigurationError, match="declares benchmark"):
        load_matrix_config(path)


def test_build_models_remote_requires_credentials(tmp_path, fixtures_dir, monkeypatch):
    spec = load_matrix_config(_remote_policy_config(tmp_path, fixtures_dir)).benchmarks[
        "toy_sql_demo"
    ]
    monkeypatch.delenv("MEMSEARCH_API_KEY", raising=False)
    with pytest.raises(ConfigurationError, match="MEMSEARCH_API_KEY"):
        _build_models(spec, Telemetry())
    monkeypatch.setenv("MEMSEARCH_API_KEY", "k")
    policy, prm, aug = _build_models(spec, Telemetry())
    assert policy.client.config.api_key == "k"


def test_a_remote_policy_runs_to_an_ok_cell(tmp_path, fixtures_dir, chat_server, monkeypatch):
    # the first call steps, every later one answers; each bills the stub's usage
    ChatStub.script = [(200, chat_reply("LIST_TABLES|", 20, 2)), (200, chat_reply("games", 12, 3))]
    script = tmp_path / "remote_policy.json"
    script.write_text(json.dumps({**REMOTE_POLICY, "url": chat_server}))
    benchmarks = {
        "toy_sql_demo": {
            "fixtures": str(fixtures_dir / "tasks" / "toy_sql_demo.json"),
            "policy_script": str(script),
            "reward_script": str(fixtures_dir / "scripts" / "toy_sql_reward.json"),
            "augmentor_script": str(fixtures_dir / "scripts" / "toy_sql_augmentor.json"),
        }
    }
    cells = [
        {"id": "r", "benchmark": "toy_sql_demo", "search": {"method": "best_of_n", "n_budget": 2}}
    ]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells, benchmarks))
    monkeypatch.setenv("MEMSEARCH_API_KEY", "secret")
    manifest = run_matrix(cfg, tmp_path / "out", jobs=1)
    assert manifest["cells"]["r"]["status"] == "ok"
    rows = [json.loads(line) for line in (tmp_path / "out" / "r.jsonl").read_text().splitlines()]
    assert [row["trajectory_lengths"] for row in rows] == [[2, 1]] + [[1, 1]] * 9
    for i, row in enumerate(rows):
        telemetry = row["telemetry"]
        calls = telemetry["policy_calls"]
        assert calls == sum(row["trajectory_lengths"])  # one call per step
        stepped = 1 if i == 0 else 0  # the run's first call, on the first task
        assert telemetry["policy_tokens_in"] == 20 * stepped + 12 * (calls - stepped)
        assert telemetry["policy_tokens_out"] == 2 * stepped + 3 * (calls - stepped)
    assert sum(row["telemetry"]["policy_calls"] for row in rows) == len(ChatStub.hits) == 21
    assert {h.get("Authorization") for h in ChatStub.headers_seen} == {"Bearer secret"}

    monkeypatch.delenv("MEMSEARCH_API_KEY")
    manifest = run_matrix(cfg, tmp_path / "out2", jobs=1)
    assert manifest["cells"]["r"]["status"] == "failed"
    assert manifest["cells"]["r"]["error"] == (
        "ConfigurationError: remote policy requires credentials in the "
        "'MEMSEARCH_API_KEY' environment variable"
    )
    assert len(ChatStub.hits) == 21


def test_run_matrix_builds_no_grader(tmp_path, demo_config_path, monkeypatch):
    # each benchmark's grader is built once, when the config loads
    built = []
    real_init = envs.Grader.__init__

    def counting_init(self, golds):
        built.append(golds)
        real_init(self, golds)

    monkeypatch.setattr(envs.Grader, "__init__", counting_init)
    cfg = load_matrix_config(demo_config_path)
    assert len(built) == len(cfg.benchmarks)
    manifest = run_matrix(cfg, tmp_path / "out", jobs=1)
    assert all(entry["status"] != "failed" for entry in manifest["cells"].values())
    assert len(built) == len(cfg.benchmarks)


def test_run_matrix_builds_one_embedder_per_call(tmp_path, demo_config_path, monkeypatch):
    built, hashed = [], []

    class CountingEmbedder(HashEmbedder):
        def __init__(self, dim):
            super().__init__(dim)
            built.append(self)

    real_hash = models._feature_hash

    def counting_hash(text, dim, features):
        hashed.append(text)
        return real_hash(text, dim, features)

    monkeypatch.setattr(matrix, "HashEmbedder", CountingEmbedder)
    monkeypatch.setattr(models, "_feature_hash", counting_hash)
    cfg = load_matrix_config(demo_config_path)
    run_matrix(cfg, tmp_path / "first", jobs=1)
    assert len(built) == 1  # not one per (cell, task) unit: 88 of those
    first = list(hashed)
    run_matrix(cfg, tmp_path / "second", jobs=1)
    assert len(built) == 2
    # the second call starts from an empty memo: it hashes every line again
    assert hashed == first * 2 and len(first) == len(set(first)) > 0
    assert built[0]._memo.keys() == built[1]._memo.keys() == set(first)


def _trie_entries(root) -> int:
    """How many steps the step trie below `root` holds: one per computed step."""
    nodes, entries = [root], 0
    while nodes:
        node = nodes.pop()
        entries += len(node.entries)
        nodes.extend(node.children.values())
    return entries


def test_model_memos_live_for_one_unit(tmp_path, demo_config_path, monkeypatch):
    built = []  # every unit's (policy, prm, augmentor model, telemetry), kept alive
    real_build = matrix._build_models

    def recording_build(spec, telemetry):
        models_of_unit = real_build(spec, telemetry)
        assert models_of_unit[2]._answers == {}  # each unit's augmentor memo starts empty
        built.append((*models_of_unit, telemetry))
        return models_of_unit

    roots = {}  # id of a unit's PRM -> the step trie root its search ran on, or None
    real_step_trie = search._step_trie

    def recording_step_trie(policy, prm, config, root=None):
        roots[id(prm)] = real_step_trie(policy, prm, config, root)
        return roots[id(prm)]

    scored = collections.Counter()  # id of a unit's PRM -> its computed scores
    real_score = models.ScriptedRewardModel.score

    def counting_score(self, *args):
        scored[id(self)] += 1
        return real_score(self, *args)

    monkeypatch.setattr(matrix, "_build_models", recording_build)
    monkeypatch.setattr(search, "_step_trie", recording_step_trie)
    monkeypatch.setattr(models.ScriptedRewardModel, "score", counting_score)
    cfg = load_matrix_config(demo_config_path)
    for out in ("first", "second"):
        run_matrix(cfg, tmp_path / out, jobs=1)
    assert len(built) == 2 * 88  # the demo config's units, twice
    policies = [id(policy) for policy, *_ in built]
    prm_memos = [id(prm._values) for _, prm, *_ in built]
    augmentor_memos = [id(aug._answers) for _, _, aug, _ in built]
    assert len(set(policies)) == len(set(prm_memos)) == len(set(augmentor_memos)) == len(built)
    # a unit scores only the steps that no earlier unit of its task computed,
    # and each through its own memo; the rest it replays from the run's trie
    assert all(bool(prm._values) == (scored[id(prm)] > 0) for _, prm, *_ in built)
    assert all(telemetry.policy_calls > 0 for *_, telemetry in built)  # replays bill too
    assert any(aug._answers for _, _, aug, _ in built)  # the memory cells' units answered
    # each root holds one entry per step its units computed: one (benchmark,
    # task) root per call, shared by every eligible unit of the task
    shared = {id(root): root for root in roots.values() if root is not None}
    on_trie = [prm for _, prm, *_ in built if roots[id(prm)] is not None]
    # toy_sql_demo's, toy_kg_demo's and toy_shell_demo's tasks, twice
    assert len(shared) == 2 * (10 + 6 + 4)
    for root in shared.values():
        units = [prm for prm in on_trie if roots[id(prm)] is root]
        assert sum(scored[id(prm)] for prm in units) == _trie_entries(root) > 0
    # a unit without a trie (beam at T 0.7) computes every step
    assert all(
        scored[id(prm)] == telemetry.policy_calls
        for _, prm, _, telemetry in built
        if roots[id(prm)] is None
    )
    assert sum(scored.values()) == 2 * 312  # the demo's computed steps per run
    for spec in cfg.benchmarks.values():  # the models parsed at load are never called
        assert spec.policy.telemetry == Telemetry()
        assert spec.reward._values == {} and spec.reward.telemetry == Telemetry()
        assert spec.augmentor._answers == {} and spec.augmentor.telemetry == Telemetry()


def test_a_unit_grades_each_distinct_answer_once(tmp_path, monkeypatch):
    graded = []
    real_grade = envs.Grader.grade
    monkeypatch.setattr(
        envs.Grader, "grade", lambda self, *a: graded.append(a) or real_grade(self, *a)
    )
    cells = [
        {
            "id": "sql__bon__none",
            "benchmark": "toy_sql_demo",
            "search": {"method": "best_of_n", "n_budget": 5},
            "seed": 3,
        }
    ]
    run_matrix(load_matrix_config(write_mini_config(tmp_path, cells)), tmp_path / "out")
    lines = (tmp_path / "out" / "sql__bon__none.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [len(row["verdicts"]) for row in rows] == [5] * 10
    assert len(graded) == len(set(graded)) == len(rows)  # each task's 5 answers are one answer


def test_run_matrix_mini_run(tmp_path):
    cells = [
        {
            "id": "sql__bon__none",
            "benchmark": "toy_sql_demo",
            "memory": [],
            "search": {"method": "best_of_n", "n_budget": 2},
            "seed": 11,
        },
        {
            "id": "sql__bon__raw_sibling",
            "benchmark": "toy_sql_demo",
            "memory": ["raw_sibling"],
            "search": {"method": "best_of_n", "n_budget": 2},
            "seed": 11,
        },
    ]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells))
    out = tmp_path / "out"
    manifest = run_matrix(cfg, out, dump_memory=True)

    ok = manifest["cells"]["sql__bon__none"]
    assert ok["status"] == "ok"
    assert ok["n_tasks"] == 10
    rows = [
        json.loads(line)
        for line in (out / ok["verdict_file"]).read_text().splitlines()
    ]
    assert [r["task_id"] for r in rows] == sorted(r["task_id"] for r in rows)
    row = rows[0]
    assert set(row) == {f.name for f in fields(VerdictRow)}
    assert len(row["verdicts"]) == 2
    assert (out / "memory" / "sql__bon__none__sql-001.jsonl").exists()

    refused = manifest["cells"]["sql__bon__raw_sibling"]
    assert refused["status"] == "inadmissible"
    assert refused["reason"] == "cross_sibling_needs_expansion"
    assert refused["glyph"] == GLYPH_STRUCTURAL
    assert not (out / "sql__bon__raw_sibling.jsonl").exists()

    assert manifest["format_version"] == 1
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk == manifest


def test_run_matrix_isolates_failing_cells(tmp_path, fixtures_dir, monkeypatch):
    # a remote policy whose key variable is unset fails when its job builds models
    broken = tmp_path / "broken_policy.json"
    broken.write_text(json.dumps({**REMOTE_POLICY, "api_key_env": "MEMSEARCH_UNSET_KEY"}))
    monkeypatch.delenv("MEMSEARCH_UNSET_KEY", raising=False)
    benchmarks = {
        "toy_sql_demo": {
            "fixtures": str(fixtures_dir / "tasks" / "toy_sql_demo.json"),
            "policy_script": str(broken),
            "reward_script": str(fixtures_dir / "scripts" / "toy_sql_reward.json"),
            "augmentor_script": str(fixtures_dir / "scripts" / "toy_sql_augmentor.json"),
        },
        "toy_kg_demo": {
            "fixtures": str(fixtures_dir / "tasks" / "toy_kg_demo.json"),
            "policy_script": str(fixtures_dir / "scripts" / "toy_kg_policy.json"),
            "reward_script": str(fixtures_dir / "scripts" / "toy_kg_reward.json"),
            "augmentor_script": str(fixtures_dir / "scripts" / "toy_kg_augmentor.json"),
        },
    }
    cells = [
        {"id": "bad", "benchmark": "toy_sql_demo", "search": {"method": "best_of_n", "n_budget": 1}},
        {"id": "good", "benchmark": "toy_kg_demo", "search": {"method": "best_of_n", "n_budget": 1}},
    ]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells, benchmarks))
    for jobs in (1, 2):
        manifest = run_matrix(cfg, tmp_path / f"out{jobs}", jobs=jobs)
        assert manifest["cells"]["bad"]["status"] == "failed"
        assert manifest["cells"]["bad"]["error"].startswith("ConfigurationError: ")
        assert manifest["cells"]["good"]["status"] == "ok"
        assert not (tmp_path / f"out{jobs}" / "bad.jsonl").exists()
    assert (tmp_path / "out1" / "manifest.json").read_bytes() == (
        tmp_path / "out2" / "manifest.json"
    ).read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_matrix_logs_one_record_per_cell_in_config_order(tmp_path, monkeypatch, caplog, jobs):
    # the failing cell comes first in the config but its unit lands last
    search = {"method": "best_of_n", "n_budget": 1}
    cells = [
        {"id": "failing", "benchmark": "toy_sql_demo", "search": search},
        {"id": "refused", "benchmark": "toy_sql_demo", "memory": ["raw_sibling"], "search": search},
        {"id": "passing", "benchmark": "toy_sql_demo", "search": search},
    ]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells))
    real_run_cell_task = matrix._run_cell_task

    def failing(cfg, embedder, forest, ladders, dump_dir, job):
        ladder = ladders[job[0]]
        task = cfg.benchmarks[ladder[0].benchmark].benchmark.tasks[job[1]]
        if ladder[0].cell_id == "failing" and task.task_id == "sql-003":
            time.sleep(0.2)
            return [matrix._error(ValueError("task sql-003 fails"))]
        return real_run_cell_task(cfg, embedder, forest, ladders, dump_dir, job)

    monkeypatch.setattr(matrix, "_run_cell_task", failing)
    with caplog.at_level(logging.INFO, logger="memsearch.matrix"):
        run_matrix(cfg, tmp_path / "out", jobs=jobs)
    records = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "memsearch.matrix"]
    assert records == [
        (logging.WARNING, "cell failing failed: task sql-003 fails"),
        (logging.INFO, "cell refused inadmissible: cross_sibling_needs_expansion"),
        (logging.INFO, "cell passing: 10 tasks done"),
    ]


def test_run_matrix_parallel_matches_serial(tmp_path):
    cells = [
        {
            "id": "sql__bon__fact",
            "benchmark": "toy_sql_demo",
            "memory": ["fact"],
            "search": {"method": "best_of_n", "n_budget": 3},
            "seed": 7,
        }
    ]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells))
    run_matrix(cfg, tmp_path / "serial", jobs=1, dump_memory=True)
    serial = _tree_bytes(tmp_path / "serial")
    assert len([name for name in serial if name.startswith("memory/")]) == 10
    assert all(serial[name] for name in serial)
    for jobs in (2, 4):
        run_matrix(cfg, tmp_path / f"parallel{jobs}", jobs=jobs, dump_memory=True)
        assert _tree_bytes(tmp_path / f"parallel{jobs}") == serial


def test_run_matrix_pool_is_sized_to_units_and_reaped(tmp_path, fixtures_dir, monkeypatch):
    tasks_raw = json.loads((fixtures_dir / "tasks" / "toy_sql_demo.json").read_text())
    two_tasks = tmp_path / "two_tasks.json"
    two_tasks.write_text(json.dumps({**tasks_raw, "tasks": tasks_raw["tasks"][:2]}))
    cfg = load_matrix_config(_one_sql_cell_config(tmp_path, fixtures_dir, fixtures=two_tasks))
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    started = []

    class SpyProcess(context.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(context, "Process", SpyProcess)
    manifest = run_matrix(cfg, tmp_path / "out", jobs=8)
    assert len(started) == 2
    assert manifest["cells"]["a"]["n_tasks"] == 2
    assert multiprocessing.active_children() == []


def test_a_benchmark_without_tasks_is_a_config_error(tmp_path, fixtures_dir, capsys):
    # an ok cell over it would vouch for no rows, and no test can pair on it
    tasks_raw = json.loads((fixtures_dir / "tasks" / "toy_sql_demo.json").read_text())
    no_tasks = tmp_path / "no_tasks.json"
    no_tasks.write_text(json.dumps({**tasks_raw, "tasks": []}))
    config = _one_sql_cell_config(tmp_path, fixtures_dir, fixtures=no_tasks)
    _assert_config_error(config, r"benchmark 'toy_sql_demo': fixture file has no tasks$", capsys)


def test_run_matrix_refuses_a_benchmark_without_tasks(tmp_path, monkeypatch):
    # a config built in code skips the loader's check, so run_matrix makes it
    cfg = load_matrix_config(_sql_cells_config(tmp_path, ("first",)))
    spec = cfg.benchmarks["toy_sql_demo"]
    no_tasks = replace(spec, benchmark=replace(spec.benchmark, tasks=()))
    cfg = replace(cfg, benchmarks={"toy_sql_demo": no_tasks})
    monkeypatch.setattr(matrix, "_build_models", None)  # no model may be built
    with pytest.raises(ConfigurationError, match=r"^benchmark 'toy_sql_demo' has no tasks$"):
        run_matrix(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _work_sending_first(times):
    """`matrix._work` with job 0's results sent `times` times, each job's
    results in a message of its own (a one-element list)."""

    def work(conn, counter, run, queue):
        while True:
            with counter.get_lock():
                index = counter.value
                counter.value = index + 1
            if index >= len(queue):
                conn.close()
                return
            result = run(queue[index])
            for _ in range(times if index == 0 else 1):
                conn.send([(index, result)])

    return work


@pytest.mark.parametrize(
    "times, message",
    [
        (2, r"job \(0, \d\) came back twice"),
        (0, r"job \(0, \d\) never came back"),
    ],
    ids=["twice", "never"],
)
def test_run_units_refuses_a_unit_back_twice_or_never(tmp_path, monkeypatch, times, message):
    # a lost update on the shared counter runs a job twice or skips one; a
    # job run twice writes the same bytes, so only this check can see it
    cell = {**_sql_cell(), "search": {"method": "best_of_n", "n_budget": 1}}
    cfg = load_matrix_config(write_mini_config(tmp_path, [cell]))
    monkeypatch.setattr(matrix, "_work", _work_sending_first(times))
    with pytest.raises(WorkerError, match=message):
        run_matrix(cfg, tmp_path / "out", jobs=2)
    assert multiprocessing.active_children() == []


def _sql_cells_config(tmp_path, ids):
    """One best_of_n cell at n_budget 1 over toy_sql_demo per id, in order."""
    search = {"method": "best_of_n", "n_budget": 1}
    cells = [{"id": i, "benchmark": "toy_sql_demo", "search": search} for i in ids]
    return write_mini_config(tmp_path, cells)


def _stalling_last_cell(real_run_cell_task):
    """`matrix._run_cell_task` with each job of the config's last cell stalled
    for long enough that a worker that reaches one is still alive when the
    runner stops: only the runner's own clean-up can then end it in time."""

    def run_cell_task(cfg, embedder, forest, ladders, dump_dir, job):
        if job[0] == len(ladders) - 1:
            time.sleep(20)
        return real_run_cell_task(cfg, embedder, forest, ladders, dump_dir, job)

    return run_cell_task


def test_a_dead_worker_raises_worker_error_and_leaves_no_child(tmp_path, monkeypatch):
    cfg = load_matrix_config(_sql_cells_config(tmp_path, ("first", "last")))
    parent, real_run_cell_task = os.getpid(), _stalling_last_cell(matrix._run_cell_task)

    def dying(cfg, embedder, forest, ladders, dump_dir, job):
        if job == (0, 1) and os.getpid() != parent:
            os._exit(3)
        return real_run_cell_task(cfg, embedder, forest, ladders, dump_dir, job)

    monkeypatch.setattr(matrix, "_run_cell_task", dying)
    with pytest.raises(WorkerError, match="a worker process exited with code 3"):
        run_matrix(cfg, tmp_path / "out", jobs=2)
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_a_failing_verdict_write_propagates_and_leaves_no_child(tmp_path, monkeypatch):
    cfg = load_matrix_config(_sql_cells_config(tmp_path, ("first", "last")))

    def failing_write(path, content):
        raise OSError(f"cannot write {path.name}")

    monkeypatch.setattr(matrix, "atomic_write", failing_write)
    monkeypatch.setattr(matrix, "_run_cell_task", _stalling_last_cell(matrix._run_cell_task))
    # the caller keeps the exception, and with it run_matrix's frame
    with pytest.raises(OSError, match="cannot write first.jsonl") as raised:
        run_matrix(cfg, tmp_path / "out", jobs=2)
    assert multiprocessing.active_children() == []
    assert raised.traceback


def test_a_failed_cell_reports_its_first_failing_task_at_every_jobs(tmp_path, monkeypatch):
    # task 0 fails late, task 1 at once: at jobs > 1 the second error arrives
    # first, but the manifest names the first failing task in task order
    cell = {**_sql_cell(), "search": {"method": "best_of_n", "n_budget": 1}}
    cfg = load_matrix_config(write_mini_config(tmp_path, [cell]))
    first, second = (t.task_id for t in cfg.benchmarks["toy_sql_demo"].benchmark.tasks[:2])
    real_run_search = matrix.run_search

    def failing(task, *args):
        if task.task_id == first:
            time.sleep(0.3)
            raise ValueError("the first task fails")
        if task.task_id == second:
            raise ValueError("the second task fails")
        return real_run_search(task, *args)

    monkeypatch.setattr(matrix, "run_search", failing)
    errors = {
        jobs: run_matrix(cfg, tmp_path / f"out{jobs}", jobs=jobs)["cells"]["a"]["error"]
        for jobs in (1, 2, 3)
    }
    assert errors == dict.fromkeys((1, 2, 3), "ValueError: the first task fails")


def test_a_cell_verdict_file_is_written_when_its_last_unit_lands(tmp_path, monkeypatch):
    # units are claimed in config order, so every unit of the first cell is
    # claimed, and runs to its end, before any unit of the last cell starts;
    # waiting in the last cell for the first cell's file cannot deadlock
    cfg = load_matrix_config(_sql_cells_config(tmp_path, ("first", "middle", "last")))
    parent, real_run_cell_task = os.getpid(), matrix._run_cell_task

    def waiting(cfg, embedder, forest, ladders, dump_dir, job):
        if ladders[job[0]][0].cell_id == "last":
            first_file = dump_dir.parent / "first.jsonl"
            # in this process the file must be there already; a worker may wait
            deadline = time.monotonic() + (0 if os.getpid() == parent else 30)
            while not first_file.exists():
                if time.monotonic() >= deadline:
                    raise AssertionError("the first cell's verdict file is not written")
                time.sleep(0.005)
        return real_run_cell_task(cfg, embedder, forest, ladders, dump_dir, job)

    monkeypatch.setattr(matrix, "_run_cell_task", waiting)
    for jobs in (1, 2):
        manifest = run_matrix(cfg, tmp_path / f"out{jobs}", jobs=jobs, dump_memory=True)
        assert {cid: meta["status"] for cid, meta in manifest["cells"].items()} == {
            "first": "ok",
            "middle": "ok",
            "last": "ok",
        }
    assert _tree_bytes(tmp_path / "out1") == _tree_bytes(tmp_path / "out2")


DEMO_CONFIG = json.loads((FIXTURES / "demo_config.json").read_text(encoding="utf-8"))


def _mini_demo_config(root, cell_picks, n_tasks, seeds):
    """The demo config cut to the picked cells (reseeded) and to the first
    n_tasks tasks of each benchmark, written under root."""
    benchmarks = {}
    for name, spec in DEMO_CONFIG["benchmarks"].items():
        raw = json.loads((FIXTURES / spec["fixtures"]).read_text(encoding="utf-8"))
        tasks = root / f"{name}.json"
        tasks.write_text(json.dumps({**raw, "tasks": raw["tasks"][:n_tasks]}))
        benchmarks[name] = {
            **{key: str(FIXTURES / path) for key, path in spec.items() if key.endswith("_script")},
            "fixtures": str(tasks),
            "discovery_tool": spec["discovery_tool"],
        }
    cells = [{**DEMO_CONFIG["cells"][i], "seed": seed} for i, seed in zip(cell_picks, seeds)]
    return write_mini_config(root, cells, benchmarks)


@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    cell_picks=st.lists(
        st.integers(0, len(DEMO_CONFIG["cells"]) - 1), min_size=1, max_size=4, unique=True
    ),
    n_tasks=st.integers(1, 10),
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=4, max_size=4),
)
def test_run_tree_is_the_same_at_every_jobs(tmp_path_factory, cell_picks, n_tasks, seeds):
    # more workers than cores claim from one counter; every run tree, memory
    # dumps included, must equal the one made in this process
    root = tmp_path_factory.mktemp("mini")
    cfg = load_matrix_config(_mini_demo_config(root, cell_picks, n_tasks, seeds))
    run_matrix(cfg, root / "jobs1", jobs=1, dump_memory=True)
    serial = _tree_bytes(root / "jobs1")
    for jobs in (2, 3, 8):
        run_matrix(cfg, root / f"jobs{jobs}", jobs=jobs, dump_memory=True)
        assert _tree_bytes(root / f"jobs{jobs}") == serial, jobs
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("model", ["ScriptedPolicy", "ScriptedRewardModel"])
def test_demo_run_tree_is_the_same_without_the_step_trie(
    tmp_path, demo_config_path, monkeypatch, model
):
    # a model that does not declare itself deterministic turns the trie off:
    # every step is then computed, and every byte, memory dumps included, stays
    cfg = load_matrix_config(demo_config_path)
    run_matrix(cfg, tmp_path / "trie", jobs=1, dump_memory=True)
    monkeypatch.setattr(getattr(models, model), "deterministic_at_zero", False)
    scored = []
    real_score = models.ScriptedRewardModel.score
    monkeypatch.setattr(
        models.ScriptedRewardModel, "score", lambda *a: scored.append(a) or real_score(*a)
    )
    run_matrix(cfg, tmp_path / "computed", jobs=1, dump_memory=True)
    assert len(scored) == 1969  # every step of the demo computed, none replayed
    assert _tree_bytes(tmp_path / "computed") == _tree_bytes(tmp_path / "trie")


def test_the_run_tree_is_the_same_whatever_unit_computed_a_shared_step(tmp_path):
    # a unit replays what earlier units of its task computed, so reversing
    # the cells changes which unit computes each shared step, as do more
    # workers; no byte of any cell may change
    picks = list(range(len(DEMO_CONFIG["cells"])))
    trees = []
    for order, cells in (("forward", picks), ("reversed", picks[::-1])):
        (tmp_path / order).mkdir()
        cfg = load_matrix_config(_mini_demo_config(tmp_path / order, cells, 3, [7] * len(cells)))
        for jobs in (1, 2):
            run_matrix(cfg, tmp_path / order / f"jobs{jobs}", jobs=jobs, dump_memory=True)
            trees.append(_tree_bytes(tmp_path / order / f"jobs{jobs}"))
    admitted = sum(check_admissible(cell).admissible for cell in cfg.cells)
    assert sum(name.endswith(".jsonl") and "/" not in name for name in trees[0]) == admitted
    assert all(tree == trees[0] for tree in trees[1:])
    assert multiprocessing.active_children() == []


def test_the_step_forest_drops_a_root_once_its_last_unit_is_passed(tmp_path):
    # ladder 0 is toy_sql_demo's best_of_n budgets 1 and 2, ladder 1 a
    # toy_kg_demo cell, ladder 2 toy_sql_demo's mcts cell; jobs are claimed
    # ladder by ladder, each ladder task by task
    search = {"method": "best_of_n", "n_budget": 1}
    cells = [
        {"id": "sql_1", "benchmark": "toy_sql_demo", "search": search},
        {"id": "kg", "benchmark": "toy_kg_demo", "search": search},
        {"id": "sql_2", "benchmark": "toy_sql_demo", "search": {**search, "n_budget": 2}},
        {"id": "sql_mcts", "benchmark": "toy_sql_demo", "search": {"method": "mcts"}},
    ]
    benchmarks = {
        name: {
            key: value if key == "discovery_tool" else str(FIXTURES / value)
            for key, value in spec.items()
        }
        for name, spec in DEMO_CONFIG["benchmarks"].items()
    }
    cfg = load_matrix_config(write_mini_config(tmp_path, cells, benchmarks))
    ladders = matrix._ladders(cfg, cfg.cells)
    assert ladders == [(0, 2), (1,), (3,)]
    by_ladder = [cfg.cells[ladder[0]].benchmark for ladder in ladders]
    n_tasks = {name: len(spec.benchmark.tasks) for name, spec in cfg.benchmarks.items()}
    jobs = [(i, t) for i, bench in enumerate(by_ladder) for t in range(n_tasks[bench])]
    n_kg = n_tasks["toy_kg_demo"]
    forest = matrix._StepForest(by_ladder, jobs)
    sql_roots = {("toy_sql_demo", t) for t in range(10)}
    roots = {job: forest.root(job) for job in jobs[: 10 + n_kg]}  # the first two ladders
    assert len({id(root) for root in roots.values()}) == 10 + n_kg  # one per (benchmark, task)
    # ladder 1 is toy_kg_demo's last: each of its roots went at the next claim
    assert set(forest._roots) == sql_roots | {("toy_kg_demo", n_kg - 1)}
    assert forest.root((2, 0)) is roots[0, 0]  # the same task of the same benchmark
    assert set(forest._roots) == sql_roots
    assert forest.root((2, 1)) is roots[0, 1]
    assert set(forest._roots) == {("toy_sql_demo", t) for t in range(1, 10)}
    assert forest.root((2, 9)) is roots[0, 9]
    assert set(forest._roots) == {("toy_sql_demo", 9)}


def _live_step_nodes() -> int:
    gc.collect()
    return sum(isinstance(o, search._StepNode) for o in gc.get_objects())


def test_no_step_trie_outlives_run_matrix(tmp_path, demo_config_path, monkeypatch):
    cfg = load_matrix_config(demo_config_path)
    live = _live_step_nodes()
    made = []
    real_init = search._StepNode.__init__
    monkeypatch.setattr(search._StepNode, "__init__", lambda node: made.append(real_init(node)))
    run_matrix(cfg, tmp_path / "out", jobs=1)
    assert len(made) > 100  # the roots, and the nodes that the run's steps added
    assert _live_step_nodes() == live


def test_a_library_search_after_a_run_computes_its_own_steps(
    tmp_path, demo_config_path, monkeypatch
):
    cfg = load_matrix_config(demo_config_path)
    spec = cfg.benchmarks["toy_sql_demo"]
    task = spec.benchmark.tasks[0]
    config = SearchConfig(method=SearchMethod.MCTS, n_iters=3)
    sampled = []
    real_sample = models.ScriptedPolicy.sample
    monkeypatch.setattr(
        models.ScriptedPolicy, "sample", lambda *a: sampled.append(a) or real_sample(*a)
    )

    def library_search() -> tuple[int, Telemetry]:
        """Computed draws and billed telemetry of one search given no trie."""
        telemetry, start = Telemetry(), len(sampled)
        policy, prm = spec.policy.for_unit(telemetry), spec.reward.for_unit(telemetry)
        composite = compose((AugmentorConfig(AugmentorKind.NONE),))
        search.run_search(task, spec.benchmark.make_env(), policy, composite, config, 1, prm)
        return len(sampled) - start, telemetry

    before = library_search()
    run_matrix(cfg, tmp_path / "out", jobs=1)
    assert library_search() == before and before[0] > 0


def _tree_bytes(root) -> dict[str, bytes]:
    """Relative path -> bytes of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_run_matrix_dump_memory_writes_the_stores_used(tmp_path, monkeypatch):
    cells = [
        {
            "id": f"sql__bon__{kind}",
            "benchmark": "toy_sql_demo",
            "memory": [kind],
            "search": {"method": "best_of_n", "n_budget": 3},
            "seed": 5,
        }
        for kind in ("fact", "reflection")
    ]
    cfg = load_matrix_config(write_mini_config(tmp_path, cells))
    stores = []
    real_compose = matrix.compose

    def recording_compose(*args, **kwargs):
        composite = real_compose(*args, **kwargs)
        stores.append(composite.store)
        return composite

    monkeypatch.setattr(matrix, "compose", recording_compose)
    run_matrix(cfg, tmp_path / "out", dump_memory=True)

    tasks = cfg.benchmarks["toy_sql_demo"].benchmark.tasks
    dumps = [
        (tmp_path / "out" / "memory" / f"{cell.cell_id}__{task.task_id}.jsonl")
        .read_text()
        .splitlines()
        for cell in cfg.cells
        for task in tasks
    ]
    assert [len(lines) for lines in dumps] == [len(store) for store in stores]
    fact_dumps, reflection_dumps = dumps[:len(tasks)], dumps[len(tasks):]
    assert all(fact_dumps)
    assert any(reflection_dumps)
    assert {json.loads(line)["abstraction"] for lines in fact_dumps for line in lines} == {"fact"}
    assert {json.loads(line)["abstraction"] for lines in reflection_dumps for line in lines} == {
        "reflection"
    }


# sha256 over the sorted (relative path, NUL, bytes) of the demo run directory,
# of its analysis report and of its `--json-out` analysis.  An intended change
# of outputs updates these pins and says so in CHANGES.md.
DEMO_RUN_SHA256 = "f451eb452a9f6a462aadbc8c5adf6b42b6974441034cc5a2601da13e1bc9001a"
DEMO_REPORT_SHA256 = "9a94fee7596962279399cd6ddba853e83460465a9de3e86716dea0cc4c0057a6"
DEMO_ANALYSIS_SHA256 = "e18384f2e5b61f90e39397a11f79dd78647e952e40f7d96b2f7c129f4ec446c3"


def _tree_sha256(root) -> str:
    h = hashlib.sha256()
    for rel, data in sorted(_tree_bytes(root).items()):
        h.update(rel.encode("utf-8") + b"\0" + data)
    return h.hexdigest()


# jobs=3 splits the units unevenly over an odd number of workers
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_demo_run_directory_and_report_are_byte_pinned(tmp_path, demo_config_path, jobs):
    out, report, analysis = tmp_path / "run", tmp_path / "report.txt", tmp_path / "analysis.json"
    assert main(["run", str(demo_config_path), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert _tree_sha256(out) == DEMO_RUN_SHA256
    argv = ["analyze", str(out), "--report-out", str(report), "--json-out", str(analysis)]
    assert main(argv) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == DEMO_REPORT_SHA256
    assert hashlib.sha256(analysis.read_bytes()).hexdigest() == DEMO_ANALYSIS_SHA256


def test_run_tree_tool_writes_the_pinned_demo_outputs_at_every_jobs(tmp_path):
    root = FIXTURES.parents[2]
    trees = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        argv = [str(root), "demo", "1", str(jobs), str(out)]
        subprocess.run([sys.executable, str(root / "tools" / "run_tree.py"), *argv], check=True)
        trees[jobs] = _tree_bytes(out)
    assert trees[1] == trees[2]
    assert hashlib.sha256(trees[1]["report.txt"]).hexdigest() == DEMO_REPORT_SHA256
    assert hashlib.sha256(trees[1]["analysis.json"]).hexdigest() == DEMO_ANALYSIS_SHA256
    assert any(rel.startswith("run/memory/") for rel in trees[1])


def test_same_trees_tool_finds_a_checkout_the_same_as_itself():
    root = str(FIXTURES.parents[2])
    tool = [sys.executable, str(FIXTURES.parents[2] / "tools" / "same_trees.py")]
    done = subprocess.run([*tool, root, root, "demo"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        f"demo seed {seed} jobs {jobs}: same" for seed in (1, 2) for jobs in (1, 2)
    ]


# The demo pin covers no incremental fact extraction under expansion.  These
# cells run it under batch expansion (mcts x fact) and under interleaved
# expansion (every raw_sibling cell), beside a sampled beam and batch facts
# with reflections under best-of-N.
MIXED_EXPANSION_CELLS = [
    ("mcts__fact", ["fact"], {"method": "mcts"}),
    ("mcts__raw_sibling", ["raw_sibling"], {"method": "mcts"}),
    ("mcts__fact+raw_sibling", ["fact", "raw_sibling"], {"method": "mcts"}),
    ("beam__raw_sibling", ["raw_sibling"], {"method": "beam", "temperature": 0.7}),
    ("bon__fact+reflection", ["fact", "reflection"], {"method": "best_of_n"}),
]
MIXED_EXPANSION_RUN_SHA256 = "e622ca939bde145fe6aef447591400be961a9b877132cc77f900cd41a6bf128d"


def test_mixed_expansion_run_with_memory_dumps_is_byte_pinned(tmp_path):
    cells = [
        {"id": cell_id, "benchmark": "toy_sql_demo", "memory": memory, "search": search, "seed": 3}
        for cell_id, memory, search in MIXED_EXPANSION_CELLS
    ]
    out = tmp_path / "run"
    argv = ["run", str(write_mini_config(tmp_path, cells)), "--out", str(out), "--dump-memory"]
    assert main(argv) == 0
    assert len(list((out / "memory").iterdir())) == 10 * len(cells)
    assert _tree_sha256(out) == MIXED_EXPANSION_RUN_SHA256


# The other pins run MCTS at its default knobs only.  These cells set decay
# backprop, the exploration weight, the rollout depth and the temperature,
# on the SQL and the KG benchmark, with no memory, with each single memory
# and with fact plus raw_sibling.
MCTS_KNOBS_SEARCH = {
    "method": "mcts",
    "n_iters": 12,
    "backprop": "decay",
    "decay_gamma": 0.3,
    "w_exp": 0.5,
    "rollout_depth": 2,
    "temperature": 0.7,
}
MCTS_KNOBS_MEMORIES = [[], ["raw_sibling"], ["fact"], ["reflection"], ["fact", "raw_sibling"]]
MCTS_KNOBS_RUN_SHA256 = "3566c72e503eafc4598e49bd387b298ad58b27e87d8d7259ed899ec1975cd0fd"


def test_mcts_knobs_run_with_memory_dumps_is_byte_pinned(tmp_path, demo_config_path):
    specs = json.loads(demo_config_path.read_text())["benchmarks"]
    benchmarks = {
        name: {
            key: value if key == "discovery_tool" else str(FIXTURES / value)
            for key, value in specs[name].items()
        }
        for name in ("toy_sql_demo", "toy_kg_demo")
    }
    cells = [
        {
            "id": f"{bench}__{'+'.join(memory) or 'none'}",
            "benchmark": bench,
            "memory": memory,
            "search": MCTS_KNOBS_SEARCH,
            "seed": 5,
        }
        for bench in benchmarks
        for memory in MCTS_KNOBS_MEMORIES
    ]
    out = tmp_path / "run"
    argv = ["run", str(write_mini_config(tmp_path, cells, benchmarks)), "--out", str(out)]
    assert main([*argv, "--dump-memory"]) == 0
    assert _tree_sha256(out) == MCTS_KNOBS_RUN_SHA256
