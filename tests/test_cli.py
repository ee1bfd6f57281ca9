from __future__ import annotations

import json
import multiprocessing
import os
import shutil
from types import SimpleNamespace

import pytest

from memsearch import cli, matrix
from memsearch.cli import main

from conftest import write_mini_config


def _cells(method="best_of_n", memory=None, extra=None):
    cell = {
        "id": f"toy_sql_demo__{method}__{'+'.join(memory) if memory else 'none'}",
        "benchmark": "toy_sql_demo",
        "memory": memory or [],
        "search": dict({"method": method}, **(extra or {})),
        "seed": 5,
    }
    if method == "best_of_n":
        cell["search"].setdefault("n_budget", 2)
    return [cell]


def test_validate_all_admissible(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells())
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "toy_sql_demo__best_of_n__none: admissible" in out


def test_validate_flags_inadmissible_cells(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells(memory=["raw_sibling"]))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "inadmissible (cross_sibling_needs_expansion)" in out


def test_validate_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["run"]) == 2  # --out and config are required
    assert main([]) == 2
    capsys.readouterr()


def test_run_then_analyze_roundtrip(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells(memory=["fact"]) + _cells())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "toy_sql_demo__best_of_n__fact: ok (10 tasks)" in printed
    assert (out / "manifest.json").exists()

    report_path = tmp_path / "report.txt"
    json_path = tmp_path / "analysis.json"
    code = main(
        [
            "analyze",
            str(out),
            "--report-out",
            str(report_path),
            "--json-out",
            str(json_path),
        ]
    )
    assert code == 0
    report = capsys.readouterr().out
    assert "EXPERIMENT MATRIX" in report
    assert report_path.read_text() == report
    analysis = json.loads(json_path.read_text())
    assert analysis["cells"]["toy_sql_demo__best_of_n__fact"]["accuracy"] == 1.0
    assert analysis["baseline"] == "none"


def test_run_rejects_bad_jobs(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells())
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--jobs", "0"]) == 2
    capsys.readouterr()


def test_run_checks_jobs_before_loading_the_config(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing), "--out", str(tmp_path / "o"), "--jobs", "0"]) == 2
    assert capsys.readouterr().err == "error: --jobs must be at least 1\n"


@pytest.mark.parametrize("failure", ["json", "report"])
def test_analyze_outputs_that_fail_to_write_leave_no_file(tmp_path, capsys, monkeypatch, failure):
    path = write_mini_config(tmp_path, _cells())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    if failure == "json":

        def dumps(obj, **kwargs):
            raise TypeError("cannot encode the analysis")

        monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=dumps))
        expected = TypeError
    else:  # the report cannot be encoded in UTF-8, so its write fails part way
        monkeypatch.setattr(cli, "emit_matrix_report", lambda analysis: "report \ud800\n")
        expected = UnicodeEncodeError
    written = tmp_path / "written"
    written.mkdir()
    args = ["--report-out", str(written / "r.txt"), "--json-out", str(written / "a.json")]
    with pytest.raises(expected):
        main(["analyze", str(out), *args])
    assert list(written.iterdir()) == []
    capsys.readouterr()


def test_run_with_a_dead_worker_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    path = write_mini_config(tmp_path, _cells())
    out = tmp_path / "out"
    parent, real_run_cell_task = os.getpid(), matrix._run_cell_task

    def dying(cfg, embedder, trie, ladders, dump_dir, job):
        if os.getpid() != parent:
            os._exit(3)
        return real_run_cell_task(cfg, embedder, trie, ladders, dump_dir, job)

    monkeypatch.setattr(matrix, "_run_cell_task", dying)
    assert main(["run", str(path), "--out", str(out), "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: a worker process exited with code 3"]
    assert multiprocessing.active_children() == []
    # no manifest, so the stopped run is refused rather than misread
    assert main(["analyze", str(out)]) == 1
    assert "manifest.json" in capsys.readouterr().err


def test_analyze_missing_dir_exits_1(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nowhere")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["run", "CONFIG", "--out", "FILE"],
        ["analyze", "FILE"],
        ["analyze", "RUN", "--report-out", "FILE/x.txt"],
    ],
    ids=["run_out_is_a_file", "analyze_a_file", "report_out_under_a_file"],
)
def test_path_errors_exit_1_with_one_line(tmp_path, capsys, command):
    path = write_mini_config(tmp_path, _cells())
    out, file = tmp_path / "out", tmp_path / "file"
    assert main(["run", str(path), "--out", str(out)]) == 0
    file.write_text("not a directory\n")
    capsys.readouterr()
    names = {"CONFIG": str(path), "RUN": str(out), "FILE": str(file)}
    argv = [names.get(arg, arg.replace("FILE", str(file))) for arg in command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: [Errno ") and str(file) in line


def test_analyze_unknown_format_version_exits_1_with_one_line(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["format_version"] = 2
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {out / 'manifest.json'}: format_version 2 is not supported (supported: 1)"
    ]


@pytest.mark.parametrize(
    "name, size",
    [("manifest.json", 200), ("toy_sql_demo__best_of_n__none.jsonl", 100)],
    ids=["manifest", "verdicts"],
)
def test_analyze_torn_file_exits_1_with_one_line(tmp_path, capsys, name, size):
    path = write_mini_config(tmp_path, _cells())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    torn = out / name
    torn.write_bytes(torn.read_bytes()[:size])
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {torn}: not readable JSON at line ")


def test_analyze_unvouched_verdict_rows_exit_1_with_one_line(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    verdicts = out / "toy_sql_demo__best_of_n__none.jsonl"
    verdicts.write_text("".join(verdicts.read_text().splitlines(keepends=True)[:2]))
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {verdicts}: manifest entry expects 10 rows, one per task of cell "
        "toy_sql_demo__best_of_n__none; found 2 rows covering 2 task(s) of that cell"
    ]


def test_analyze_an_ok_cell_without_tasks_exits_1_with_one_line(tmp_path, capsys):
    # `run` refuses such a benchmark, but a manifest may come from elsewhere
    path = write_mini_config(tmp_path, _cells())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    [entry] = manifest["cells"].values()
    entry["n_tasks"] = 0
    (out / "manifest.json").write_text(json.dumps(manifest))
    verdicts = out / entry["verdict_file"]
    verdicts.write_text("")
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {verdicts}: manifest entry of ok cell toy_sql_demo__best_of_n__none has no tasks"
    ]


def test_run_with_a_failed_cell_exits_1_counting_the_failures(tmp_path, capsys, monkeypatch):
    path = write_mini_config(tmp_path, _cells() + _cells(memory=["fact"]))

    def failing(*args):
        raise ValueError("this task fails")

    monkeypatch.setattr(matrix, "run_search", failing)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "toy_sql_demo__best_of_n__none: failed (ValueError: this task fails)" in captured.out
    assert captured.err.splitlines() == [
        "error: 2 cell(s) failed; the manifest lists each with its error"
    ]


def test_analyze_selected_rule_and_q(tmp_path, capsys):
    path = write_mini_config(tmp_path, _cells() + _cells(memory=["reflection"]))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert main(["analyze", str(out), "--rule", "selected", "--q", "0.1"]) == 0
    report = capsys.readouterr().out
    assert "rule=selected" in report


@pytest.mark.parametrize("q", ["0", "-1", "2", "nan"])
def test_analyze_rejects_q_outside_unit_interval(tmp_path, capsys, q):
    # refused before the run directory is read: a missing one would exit 1
    assert main(["analyze", str(tmp_path / "nowhere"), "--q", q]) == 2
    assert "--q must lie in (0, 1]" in capsys.readouterr().err


@pytest.fixture(scope="module")
def three_cell_run(tmp_path_factory):
    """A run with a baseline, a fact cell to pair with it and a beam cell."""
    tmp = tmp_path_factory.mktemp("three")
    path = write_mini_config(tmp, _cells() + _cells(memory=["fact"]) + _cells("beam"))
    assert main(["run", str(path), "--out", str(tmp / "out")]) == 0
    return tmp / "out"


BASELINE = "toy_sql_demo__best_of_n__none"


def _rows(edit, cell=BASELINE, first_only=False):
    """A mutation of the rows of a cell's verdict file; returns that file."""

    def mutate(out):
        path = out / f"{cell}.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows[:1] if first_only else rows:
            edit(row)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return path

    return mutate


def _manifest(edit):
    """A mutation of the parsed manifest; `edit` returns the manifest to write."""

    def mutate(out):
        path = out / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()), out)))
        return path

    return mutate


def _entry(edit):
    def change(manifest, out):
        edit(manifest["cells"][BASELINE], out)
        return manifest

    return _manifest(change)


def _elsewhere(entry, out):
    # the entry names another run's copy of its verdict file, by absolute path
    own = out / entry["verdict_file"]
    other = out.parent / "other_run" / own.name
    other.parent.mkdir()
    own.rename(other)
    entry["verdict_file"] = str(other)


def _nul_cell_id(manifest, out):
    # a cell id `run` cannot write, which no file name may hold
    entry = manifest["cells"].pop(BASELINE)
    manifest["cells"]["bad\0id"] = dict(entry, verdict_file="bad\0id.jsonl")
    return manifest


def _telemetry(key, value):
    return lambda row: row["telemetry"].update({key: value})


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (_rows(lambda r: r.update(verdicts="no")), "row 1: verdicts must be an array, got str"),
        (_rows(lambda r: r.update(verdicts=["no"])), "row 1: verdicts[0] must be true or false"),
        (
            _rows(_telemetry("policy_tokens_in", -10**9), first_only=True),
            "row 1: telemetry must hold integers >= 0: {'policy_calls': ",
        ),
        (
            _rows(_telemetry("supervisor_calls", 1.5), first_only=True),
            "'supervisor_calls': 1.5,",
        ),
        (_rows(lambda r: r.pop("telemetry")), "row 1: missing verdict row keys ['telemetry']"),
        (
            _rows(lambda r: r.pop("selected_verdict")),
            "row 1: missing verdict row keys ['selected_verdict']",
        ),
        (
            _rows(lambda r: r.update(verdict=True), first_only=True),
            "row 1: unknown verdict row keys ['verdict']",
        ),
        (
            _rows(lambda r: r["terminal_kinds"].__setitem__(0, "lost"), first_only=True),
            "row 1: terminal_kinds ['lost', 'answered'] has a non-TerminalKind",
        ),
        (
            _rows(lambda r: r["trajectory_lengths"].pop(), first_only=True),
            "row 1: a row with 2 terminal_kinds grades 2, yet verdicts, trajectory_lengths, "
            "discovery_skipped hold 2, 1, 2",
        ),
        (
            _rows(lambda r: r.update(giveup={"x": 1}), "toy_sql_demo__beam__none", True),
            "row 1: unknown giveup keys ['x']",
        ),
        (
            _rows(lambda r: r["verdicts"].append(False), "toy_sql_demo__beam__none", True),
            "row 1: a beam row with 3 terminal_kinds grades 1, yet verdicts, trajectory_lengths, "
            "discovery_skipped hold 2, 1, 1",
        ),
        (_manifest(lambda m, out: [m]), "the manifest must be an object, got list"),
        (_manifest(lambda m, out: m.pop("cells") and m), "missing manifest keys ['cells']"),
        (
            _manifest(lambda m, out: m["pricing"].update(policy_inn=1) or m),
            "bad pricing: unknown pricing keys ['policy_inn']",
        ),
        (
            _manifest(lambda m, out: m["pricing"].update(policy_in=-1.0) or m),
            "bad pricing: policy_in must be a finite number >= 0, got -1.0",
        ),
        (
            _manifest(lambda m, out: m["pricing"].update(policy_in=float("inf")) or m),
            "bad pricing: policy_in must be a finite number >= 0, got inf",
        ),
        (
            _entry(lambda e, out: e.pop("verdict_file")),
            f"cell {BASELINE}: missing manifest entry keys ['verdict_file']",
        ),
        (
            _entry(lambda e, out: e.pop("benchmark")),
            f"cell {BASELINE}: missing manifest entry keys ['benchmark']",
        ),
        (
            _entry(lambda e, out: e.pop("memory")),
            f"cell {BASELINE}: missing manifest entry keys ['memory']",
        ),
        (
            _entry(lambda e, out: e.update(status="okay")),
            f"cell {BASELINE}: status 'okay' is none of ['failed', 'inadmissible', 'ok']",
        ),
        (_entry(lambda e, out: e.update(seed="5")), f"cell {BASELINE}: seed must be an integer"),
        (_entry(_elsewhere), f"cell {BASELINE}: verdict_file is not the <cell id>.jsonl"),
        (
            _manifest(_nul_cell_id),
            ": verdict_file is not the <cell id>.jsonl run writes",
        ),
        (
            _entry(lambda e, out: e.update(verdict_file=f"../{e['verdict_file']}")),
            f"cell {BASELINE}: verdict_file is not the <cell id>.jsonl run writes",
        ),
    ],
    ids=[
        "verdicts_string",
        "verdicts_of_strings",
        "negative_tokens",
        "fractional_calls",
        "no_telemetry",
        "no_selected_verdict",
        "unknown_row_field",
        "unknown_terminal_kind",
        "lengths_short",
        "giveup_unknown_key",
        "beam_two_verdicts",
        "manifest_array",
        "manifest_without_cells",
        "pricing_unknown_key",
        "pricing_negative",
        "pricing_inf",
        "entry_without_verdict_file",
        "entry_without_benchmark",
        "entry_without_memory",
        "entry_status_okay",
        "entry_seed_string",
        "verdict_file_elsewhere",
        "verdict_file_outside",
        "cell_id_with_a_nul",
    ],
)
def test_analyze_malformed_run_file_exits_1_with_one_line(
    three_cell_run, tmp_path, capsys, mutate, fragment
):
    out = tmp_path / "run"
    shutil.copytree(three_cell_run, out)
    named = mutate(out)
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {named}: ")
    assert fragment in line
