from __future__ import annotations

import json

import pytest

from memsearch.core import FINAL_ANSWER, Action, Observation, StateHandle, Task
from memsearch.envs import (
    EMPTY_ANSWER,
    ENV_CLASSES,
    EnvError,
    ForkUnsupported,
    Grader,
    ScriptedShellEnv,
    ToyKgEnv,
    ToySqlEnv,
    load_benchmark,
    normalize_answer,
    parse_sexpr,
)


def _act(tool, args=""):
    return Action(tool, args, f"{tool}|{args}")


def _sql_task(task_id="t1"):
    return Task(task_id, "p", ("LIST_TABLES", "SCHEMA", "QUERY", FINAL_ANSWER), "b", "toy_sql", {})


SQL_WORLD = {
    "t1": {
        "tables": {
            "games": {
                "columns": ["Platform", "Developer", "Year"],
                "rows": [
                    ["PSP", "3G Studios", "2009"],
                    ["Wii", "Hudson", "2008"],
                    ["DS", "3G Studios", "2009"],
                ],
            },
            "albums": {
                "columns": ["Album", "Yield"],
                "rows": [["Brickwall", "12"], ["Sono", "9"]],
            },
        }
    }
}


def test_parse_sexpr():
    assert parse_sexpr('(project A "two words")') == ["project", "A", "two words"]
    assert parse_sexpr("(a (b c) d)") == ["a", ["b", "c"], "d"]
    with pytest.raises(ValueError):
        parse_sexpr("(a (b)")
    with pytest.raises(ValueError):
        parse_sexpr("a) b")
    # a quote inside a bare token is part of it; a quoted atom keeps its parens
    assert parse_sexpr('a"b') == 'a"b'
    assert parse_sexpr('"(a b)"') == "(a b)"
    assert parse_sexpr('(a "")') == ["a", ""]
    with pytest.raises(ValueError, match="^unterminated string literal$"):
        parse_sexpr('"a b')
    with pytest.raises(ValueError, match="^empty expression$"):
        parse_sexpr("")
    with pytest.raises(ValueError, match="^trailing tokens"):
        parse_sexpr("a b")
    # tokens split on Unicode whitespace (str.isspace), and only on it
    assert parse_sexpr("(x\x85y)") == ["x", "y"]
    assert parse_sexpr("(a\x1cb)") == ["a", "b"]
    assert parse_sexpr("(x\u200by)") == ["x\u200by"]


class TestToySql:
    def setup_method(self):
        self.env = ToySqlEnv(SQL_WORLD)
        self.state = self.env.reset(_sql_task())

    def _run(self, tool, args=""):
        state, obs = self.env.step(self.state, _act(tool, args))
        return state, obs

    def test_reset_and_serializable(self):
        assert self.env.serializable
        assert ENV_CLASSES["toy_sql"] is ToySqlEnv
        assert self.state.depth == 0

    def test_list_tables_in_world_order(self):
        state, obs = self._run("LIST_TABLES")
        assert obs.content == "games, albums"
        assert not obs.is_error
        assert state.depth == 1

    def test_schema(self):
        _, obs = self._run("SCHEMA", "games")
        assert obs.content == "Platform, Developer, Year"
        _, obs = self._run("SCHEMA", "nope")
        assert obs.is_error
        assert "no such table 'nope'" in obs.content

    def test_query_project_where_eq(self):
        _, obs = self._run("QUERY", '(project Platform (where (eq Developer "3G Studios") games))')
        assert obs.content == "PSP, DS"

    def test_query_gt_compares_numerically(self):
        _, obs = self._run("QUERY", '(project Album (where (gt Yield "10") albums))')
        assert obs.content == "Brickwall"

    def test_query_plain_table_source(self):
        _, obs = self._run("QUERY", "(project Album albums)")
        assert obs.content == "Brickwall, Sono"

    def test_query_errors(self):
        _, obs = self._run("QUERY", '(project X (where (eq Developer "3G Studios") games))')
        assert obs.is_error
        assert "column 'X' not in table 'games'" in obs.content
        _, obs = self._run("QUERY", "(project A missing)")
        assert obs.is_error
        assert "no such table 'missing'" in obs.content
        _, obs = self._run("QUERY", "(project")
        assert obs.is_error

    def test_query_empty_result(self):
        _, obs = self._run("QUERY", '(project Album (where (eq Yield "999") albums))')
        assert obs.content == "(no rows)"

    def test_final_answer_and_unknown_tool(self):
        _, obs = self._run(FINAL_ANSWER, "PSP")
        assert obs.content == "" and not obs.is_error
        _, obs = self._run("DROP", "games")
        assert obs.is_error

    def test_an_empty_answer_is_the_empty_text(self):
        env = ToySqlEnv({"t1": {"tables": {}}, "t2": {"tables": {"bare": {"columns": []}}}})
        _, obs = env.step(env.reset(_sql_task("t1")), _act("LIST_TABLES"))
        assert obs == Observation(EMPTY_ANSWER, False, "LIST_TABLES")
        _, obs = env.step(env.reset(_sql_task("t2")), _act("SCHEMA", "bare"))
        assert obs == Observation(EMPTY_ANSWER, False, "SCHEMA")

    def test_fork_preserves_depth(self):
        state, _ = self._run("LIST_TABLES")
        fork = self.env.fork(state)
        assert fork.depth == state.depth
        # both lines of history can continue independently
        _, a = self.env.step(state, _act("SCHEMA", "games"))
        _, b = self.env.step(fork, _act("SCHEMA", "albums"))
        assert a.content != b.content


def test_read_only_world_repeats_observations_per_task():
    other = {"tables": {"games": {"columns": ["Platform"], "rows": [["GBA"]]}}}
    env = ToySqlEnv({**SQL_WORLD, "t2": other})
    first, second = env.reset(_sql_task("t1")), env.reset(_sql_task("t2"))
    ok_query = _act("QUERY", "(project Platform games)")
    bad_query = _act("QUERY", "(project Platform (where (eq Developer x) nowhere))")

    _, ok = env.step(first, ok_query)
    _, bad = env.step(first, bad_query)
    assert ok.content == "PSP, Wii, DS" and not ok.is_error
    assert bad.is_error and "no such table 'nowhere'" in bad.content
    deeper, _ = env.step(first, _act("LIST_TABLES"))
    assert env.step(deeper, ok_query) == (StateHandle(deeper.env_id, "ro", 2), ok)
    assert env.step(env.fork(first), _act("QUERY", "  (project Platform games) "))[1] == ok
    assert env.step(first, bad_query)[1] is bad  # computed once per env, errors included

    # the same query on another task's world answers from that world
    assert env.step(second, ok_query)[1].content == "GBA"
    assert env.step(second, bad_query)[1] == bad
    assert env.step(second, ok_query)[1].content == "GBA"
    assert env.step(first, ok_query)[1] == ok


KG_WORLD = {
    "k1": {
        "entities": {
            "Cubism": {"pioneered_by": ["Picasso", "Braque"], "period": ["1907"]},
            "Picasso": {"born_in": ["Malaga"]},
        }
    }
}


class TestToyKg:
    def setup_method(self):
        self.env = ToyKgEnv(KG_WORLD)
        task = Task("k1", "p", ("RELATIONS", "TRAVERSE", FINAL_ANSWER), "b", "toy_kg", {})
        self.state = self.env.reset(task)

    def test_relations(self):
        _, obs = self.env.step(self.state, _act("RELATIONS", "Cubism"))
        assert obs.content == "pioneered_by, period"
        _, obs = self.env.step(self.state, _act("RELATIONS", "Dada"))
        assert obs.is_error

    def test_traverse(self):
        _, obs = self.env.step(self.state, _act("TRAVERSE", "Cubism,pioneered_by"))
        assert obs.content == "Picasso, Braque"
        _, obs = self.env.step(self.state, _act("TRAVERSE", "Cubism,pioneers"))
        assert obs.is_error
        assert "entity 'Cubism' has no relation 'pioneers'" in obs.content

    def test_an_empty_answer_is_the_empty_text(self):
        env = ToyKgEnv({"k1": {"entities": {"Paris": {}, "Dada": {"pioneered_by": []}}}})
        state = env.reset(Task("k1", "p", ("RELATIONS", "TRAVERSE"), "b", "toy_kg", {}))
        _, obs = env.step(state, _act("RELATIONS", "Paris"))
        assert obs == Observation(EMPTY_ANSWER, False, "RELATIONS")
        _, obs = env.step(state, _act("TRAVERSE", "Dada,pioneered_by"))
        assert obs == Observation(EMPTY_ANSWER, False, "TRAVERSE")


@pytest.mark.parametrize(
    "env, task_id",
    [(ToySqlEnv(SQL_WORLD), "t1"), (ToyKgEnv(KG_WORLD), "k1")],
    ids=["toy_sql", "toy_kg"],
)
def test_read_only_worlds_share_reset_dispatch_and_fork(env, task_id):
    task = Task(task_id, "p", (FINAL_ANSWER,), "b", env.env_id, {})
    state = env.reset(task)
    assert state == StateHandle(f"{env.env_id}/{task_id}", "ro", 0)
    assert env.serializable and ENV_CLASSES[env.env_id] is type(env)
    with pytest.raises(EnvError, match=f"unknown task 'nope' for {env.env_id}"):
        env.reset(Task("nope", "p", (), "b", env.env_id, {}))
    with pytest.raises(EnvError, match=f"stale state handle {env.env_id}/gone"):
        env.step(StateHandle(f"{env.env_id}/gone", "ro", 0), _act(FINAL_ANSWER, "x"))
    with pytest.raises(EnvError, match=f"stale state handle {env.env_id}$"):
        env.step(StateHandle(env.env_id, "ro", 0), _act(FINAL_ANSWER, "x"))  # no task part
    after, obs = env.step(state, _act(FINAL_ANSWER, "x"))
    assert (after.depth, obs) == (1, Observation("", False, FINAL_ANSWER))
    _, obs = env.step(state, _act("DROP", "x"))
    assert obs == Observation("ERROR: unknown tool 'DROP'", True, "DROP")
    assert env.fork(after) == after


SHELL_WORLD = {
    "s1": {"files": {"notes.txt": "meet at dusk", "config.ini": "channel=beta"}}
}


class TestScriptedShell:
    def setup_method(self):
        self.env = ScriptedShellEnv(SHELL_WORLD)
        self.task = Task("s1", "p", ("RUN", FINAL_ANSWER), "b", "scripted_shell", {})

    def test_not_serializable(self):
        assert not self.env.serializable
        assert ENV_CLASSES["scripted_shell"] is ScriptedShellEnv

    def test_reset_creates_fresh_sessions(self):
        a = self.env.reset(self.task)
        b = self.env.reset(self.task)
        assert a.env_id != b.env_id
        assert a.snapshot_token is None

    def test_run_commands(self):
        state = self.env.reset(self.task)
        state, obs = self.env.step(state, _act("RUN", "ls"))
        assert "notes.txt" in obs.content
        state, obs = self.env.step(state, _act("RUN", "cat notes.txt"))
        assert obs.content == "meet at dusk"
        state, obs = self.env.step(state, _act("RUN", "cat ghost.txt"))
        assert obs.is_error
        state, obs = self.env.step(state, _act("RUN", "write log.txt hello"))
        _, obs = self.env.step(state, _act("RUN", "cat log.txt"))
        assert obs.content == "hello"

    def test_an_empty_answer_is_the_empty_text(self):
        env = ScriptedShellEnv({"s1": {"files": {}}, "s2": {"files": {"blank.txt": ""}}})
        _, obs = env.step(env.reset(self.task), _act("RUN", "ls"))
        assert obs == Observation(EMPTY_ANSWER, False, "RUN")
        state = env.reset(Task("s2", "p", ("RUN",), "b", "scripted_shell", {}))
        _, obs = env.step(state, _act("RUN", "cat blank.txt"))
        assert obs == Observation(EMPTY_ANSWER, False, "RUN")

    def test_session_state_is_isolated_per_reset(self):
        one = self.env.reset(self.task)
        one, _ = self.env.step(one, _act("RUN", "write scratch.txt x"))
        two = self.env.reset(self.task)
        _, obs = self.env.step(two, _act("RUN", "cat scratch.txt"))
        assert obs.is_error

    def test_reset_drops_the_previous_session(self):
        one = self.env.reset(self.task)
        self.env.reset(self.task)
        with pytest.raises(EnvError, match="stale state handle"):
            self.env.step(one, _act("RUN", "ls"))
        assert len(self.env._sessions) == 1

    def test_fork_unsupported(self):
        state = self.env.reset(self.task)
        with pytest.raises(ForkUnsupported):
            self.env.fork(state)


def test_normalize_answer():
    assert normalize_answer("  PSP  ") == "psp"
    assert normalize_answer("Two\tWords \n") == "two words"


def test_grader():
    grader = Grader({"t1": "PSP"})
    assert grader.grade("t1", "psp ")
    assert not grader.grade("t1", "DS")
    assert not grader.grade("t1", None)
    with pytest.raises(KeyError):
        grader.grade("missing", "x")


def test_load_benchmark_roundtrip(fixtures_dir):
    bench = load_benchmark(fixtures_dir / "tasks" / "toy_sql_demo.json")
    assert bench.benchmark_id == "toy_sql_demo"
    assert bench.env_id == "toy_sql"
    assert len(bench.tasks) == 10
    assert all(t.tools for t in bench.tasks)
    env = bench.make_env()
    assert isinstance(env, ToySqlEnv)
    grader = bench.grader()
    assert grader.grade(bench.tasks[0].task_id, bench.golds[bench.tasks[0].task_id])


def test_load_benchmark_rejects_duplicates(tmp_path):
    raw = {
        "benchmark": "dup",
        "env": "toy_sql",
        "tools": ["QUERY"],
        "tasks": [
            {"id": "a", "prompt": "p", "world": {}, "gold": "1"},
            {"id": "a", "prompt": "p", "world": {}, "gold": "2"},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError):
        load_benchmark(path)
    raw["env"] = "postgres"
    raw["tasks"] = raw["tasks"][:1]
    path.write_text(json.dumps(raw))
    with pytest.raises(EnvError):
        load_benchmark(path)
