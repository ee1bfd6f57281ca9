from __future__ import annotations

import json
import math
import re
import shutil
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsearch.core import Telemetry
from memsearch.matrix import load_matrix_config, run_matrix
from memsearch.stats import (
    FORMAT_VERSION,
    CellEntry,
    FormatVersionError,
    MissingBaselineError,
    PairingError,
    VerdictRow,
    analyze_run,
    bh_fdr,
    efficiency,
    emit_matrix_report,
    load_verdicts,
    mcnemar_exact,
    pair_verdicts,
    significance_marker,
)

from conftest import write_mini_config

# the 23 discordant-pair rows with their printed 3-decimal p-values
GOLDEN = [
    (5, 2, "0.453"), (2, 3, "1.000"), (8, 2, "0.109"), (6, 0, "0.031"),
    (0, 1, "1.000"), (2, 3, "1.000"), (6, 2, "0.289"),
    (4, 1, "0.375"), (0, 3, "0.250"), (3, 1, "0.625"), (5, 2, "0.453"),
    (2, 2, "1.000"), (2, 3, "1.000"), (1, 2, "1.000"),
    (5, 4, "1.000"), (4, 4, "1.000"), (17, 3, "0.003"), (10, 2, "0.039"),
    (10, 2, "0.039"), (6, 5, "1.000"), (1, 1, "1.000"),
    (8, 6, "0.791"), (5, 3, "0.727"),
]


def _row(task_id, verdicts, selected=None, lengths=None, skipped=None, telemetry=None):
    return VerdictRow(
        task_id=task_id,
        cell_id="cell",
        verdicts=verdicts,
        selected_verdict=verdicts[0] if selected is None else selected,
        final_answer=None,
        trajectory_lengths=lengths or [1 for _ in verdicts],
        terminal_kinds=["answered" for _ in verdicts],
        discovery_skipped=skipped,
        telemetry=telemetry or Telemetry(),
        giveup=None,
    )


def test_pair_verdicts_counts_rescues_and_regressions():
    base = [_row("a", [False]), _row("b", [True]), _row("c", [False]), _row("d", [True])]
    treat = [_row("a", [True]), _row("b", [False]), _row("c", [False]), _row("d", [True])]
    counts = pair_verdicts(base, treat)
    assert (counts.n, counts.b, counts.c) == (4, 1, 1)


def test_pair_verdicts_pass_at_n_vs_selected():
    base = [_row("a", [False, False], selected=False)]
    treat = [_row("a", [False, True], selected=False)]
    assert pair_verdicts(base, treat, "pass_at_n").b == 1
    assert pair_verdicts(base, treat, "selected").b == 0
    with pytest.raises(ValueError):
        pair_verdicts(base, treat, "majority")


def test_pair_verdicts_strict_and_partial():
    base = [_row("a", [True]), _row("b", [False])]
    treat = [_row("b", [True]), _row("c", [False])]
    with pytest.raises(PairingError, match=r"\['a', 'c'\]"):
        pair_verdicts(base, treat)


def test_mcnemar_exact_golden_rows():
    for b, c, printed in GOLDEN:
        assert f"{mcnemar_exact(b, c):.3f}" == printed


def test_mcnemar_exact_edge_cases_and_symmetry():
    assert mcnemar_exact(0, 0) == 1.0
    assert mcnemar_exact(3, 3) == 1.0  # doubled tail capped at 1
    for b, c in [(5, 2), (17, 3), (0, 1)]:
        assert mcnemar_exact(b, c) == mcnemar_exact(c, b)
    with pytest.raises(ValueError):
        mcnemar_exact(-1, 0)
    # exact arithmetic: 6,0 is 2 / 2**6 precisely
    assert mcnemar_exact(6, 0) == float(Fraction(2, 64))


def test_mcnemar_matches_binomial_reference():
    scipy_stats = pytest.importorskip("scipy.stats")
    for b in range(0, 12):
        for c in range(0, 12):
            if b + c == 0:
                continue
            ours = mcnemar_exact(b, c)
            ref = scipy_stats.binomtest(min(b, c), b + c, 0.5, alternative="two-sided").pvalue
            # the doubled-tail convention differs from the minlike two-sided
            # convention only by counting the opposite tail; for b == c both
            # give 1.0, otherwise doubling is an upper bound within 2x
            if b == c:
                assert ours == 1.0
            assert ours >= ref - 1e-12
            assert ours <= min(1.0, 2 * ref) + 1e-12
    # one-sided tail doubled is the textbook exact McNemar; spot check
    assert mcnemar_exact(8, 2) == pytest.approx(
        2 * scipy_stats.binom.cdf(2, 10, 0.5), abs=1e-12
    )


def test_significance_markers():
    assert significance_marker(0.0099) == "**"
    assert significance_marker(0.01) == "*"
    assert significance_marker(0.049) == "*"
    assert significance_marker(0.05) == "†"
    assert significance_marker(0.0999) == "†"
    assert significance_marker(0.10) == ""
    # the four pinned examples
    assert significance_marker(mcnemar_exact(17, 3)) == "**"
    assert significance_marker(mcnemar_exact(6, 0)) == "*"
    assert significance_marker(mcnemar_exact(10, 2)) == "*"
    assert significance_marker(mcnemar_exact(8, 2)) == ""


def test_bh_fdr_on_golden_table():
    ps = [mcnemar_exact(b, c) for b, c, _ in GOLDEN]
    at_05 = bh_fdr(ps, q=0.05)
    assert at_05.n_rejected == 0
    at_10 = bh_fdr(ps, q=0.10)
    assert at_10.n_rejected == 1
    assert [i for i, r in enumerate(at_10.rejected) if r] == [16]  # the 17,3 row
    assert at_10.qvalues[16] == pytest.approx(mcnemar_exact(17, 3) * 23, rel=1e-12)


def test_bh_fdr_step_up_and_tie_consistency():
    # p_(1) misses its threshold but p_(2) passes; both ties get rejected
    res = bh_fdr([0.02, 0.02, 1.0], q=0.05)
    assert res.rejected == (True, True, False)
    assert res.n_rejected == 2
    res = bh_fdr([], q=0.05)
    assert res.n_rejected == 0
    with pytest.raises(ValueError):
        bh_fdr([0.5, 1.2])
    for q in (0.0, -1.0, 2.0, math.nan):  # the FDR level must lie in (0, 1]
        for ps in ([0.01, 0.5], []):
            with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
                bh_fdr(ps, q=q)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    ps=st.lists(st.floats(0.0, 1.0), max_size=30),
    q=st.floats(0.0, 1.0, exclude_min=True),
)
def test_bh_qvalues_are_monotone_bounded_and_not_below_p(ps, q):
    qvalues = bh_fdr(ps, q=q).qvalues
    assert len(qvalues) == len(ps)
    for p_i, q_i in zip(ps, qvalues):
        assert q_i <= 1.0
        assert q_i >= p_i - 1e-12
        for p_j, q_j in zip(ps, qvalues):
            if p_i <= p_j:
                assert q_i <= q_j  # so tied p-values get equal q-values


def test_bh_fdr_qvalues_monotone_in_rank():
    ps = [0.001, 0.01, 0.02, 0.8, 0.04, 0.6]
    res = bh_fdr(ps, q=0.05)
    ranked = sorted(range(len(ps)), key=lambda i: ps[i])
    qs = [res.qvalues[i] for i in ranked]
    assert qs == sorted(qs)
    assert all(q <= 1.0 for q in qs)
    # thresholds follow rank * q / m
    m = len(ps)
    for rank, idx in enumerate(ranked, start=1):
        assert res.thresholds[idx] == pytest.approx(rank * 0.05 / m)


def test_efficiency_example():
    """One discovery attempt of 8 steps then four short attempts that skip."""
    telemetry = Telemetry(
        policy_calls=5,
        policy_tokens_in=1000,
        policy_tokens_out=100,
        supervisor_calls=5,
        supervisor_tokens_in=2000,
        supervisor_tokens_out=5,
    )
    rows = [
        _row(
            "a",
            [True] * 5,
            lengths=[8, 4, 3, 3, 3],
            skipped=[False, True, True, True, True],
            telemetry=telemetry,
        )
    ]
    summary = efficiency(rows)
    assert summary.mean_steps == pytest.approx(4.2)
    assert summary.skip_rate == pytest.approx(1.0)
    assert summary.policy_calls == 5
    assert summary.policy_cost == pytest.approx((1000 * 0.80 + 100 * 4.00) / 1e6)
    assert summary.supervisor_cost == pytest.approx((2000 * 3.00 + 5 * 15.00) / 1e6)
    # partial skips count per attempt
    rows = [replace(rows[0], discovery_skipped=[False, True, False, True, False])]
    assert efficiency(rows).skip_rate == pytest.approx(0.5)


def test_efficiency_skip_rate_absent_cases():
    rows = [_row("a", [True], lengths=[3], skipped=None)]
    assert efficiency(rows).skip_rate is None
    rows = [_row("a", [True], lengths=[3], skipped=[True])]  # single attempt
    assert efficiency(rows).skip_rate is None
    with pytest.raises(ValueError):
        efficiency([])


def test_load_verdicts_skips_blank_lines(tmp_path):
    path = tmp_path / "v.jsonl"
    path.write_text('{"task_id": "a"}\n\n{"task_id": "b"}\n')
    assert [r["task_id"] for r in load_verdicts(path)] == ["a", "b"]


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mini")
    cells = [
        {
            "id": "toy_sql_demo__best_of_n__none",
            "benchmark": "toy_sql_demo",
            "memory": [],
            "search": {"method": "best_of_n", "n_budget": 3},
            "seed": 11,
        },
        {
            "id": "toy_sql_demo__best_of_n__fact",
            "benchmark": "toy_sql_demo",
            "memory": ["fact"],
            "search": {"method": "best_of_n", "n_budget": 3},
            "seed": 11,
        },
        {
            "id": "toy_sql_demo__beam__none",
            "benchmark": "toy_sql_demo",
            "memory": [],
            "search": {"method": "beam"},
            "seed": 11,
        },
        {
            "id": "toy_sql_demo__mcts__none",
            "benchmark": "toy_sql_demo",
            "memory": [],
            "search": {"method": "mcts", "n_iters": 3},
            "seed": 11,
        },
        {
            "id": "toy_sql_demo__mcts__reflection",
            "benchmark": "toy_sql_demo",
            "memory": ["reflection"],
            "search": {"method": "mcts", "n_iters": 3},
            "seed": 11,
        },
    ]
    cfg = load_matrix_config(write_mini_config(tmp, cells))
    out = tmp / "out"
    run_matrix(cfg, out)
    return out


def test_run_records_round_trip_every_line_of_a_demo_run(tmp_path, demo_config_path):
    out = tmp_path / "run"
    manifest = run_matrix(load_matrix_config(demo_config_path), out)
    lines = [line for path in sorted(out.glob("*.jsonl")) for line in path.open()]
    assert len(lines) == sum(e.get("n_tasks", 0) for e in manifest["cells"].values())
    for line in lines:
        assert VerdictRow.from_json(json.loads(line)).to_json() == line
    for cell_id, raw in manifest["cells"].items():
        assert CellEntry.from_json(raw, cell_id, "manifest.json").to_json() == raw


def test_analyze_run_aggregates(mini_run):
    analysis = analyze_run(mini_run)
    cells = analysis["cells"]
    assert cells["toy_sql_demo__best_of_n__fact"]["accuracy"] == 1.0
    assert cells["toy_sql_demo__best_of_n__none"]["accuracy"] == pytest.approx(0.7)
    fact_eff = cells["toy_sql_demo__best_of_n__fact"]["efficiency"]
    none_eff = cells["toy_sql_demo__best_of_n__none"]["efficiency"]
    assert fact_eff["mean_steps"] < none_eff["mean_steps"]
    comps = analysis["comparisons"]
    assert all("p" in c and "q_value" in c and "marker" in c for c in comps)
    by_mem = {c["memory"]: c for c in comps if c["method"] == "best_of_n"}
    assert by_mem["fact"]["b"] == 3
    assert by_mem["fact"]["c"] == 0


def test_analyze_run_missing_baseline(mini_run):
    with pytest.raises(MissingBaselineError, match="toy_sql_demo__beam__nothing"):
        analyze_run(mini_run, baseline="nothing")


@pytest.mark.parametrize(
    "version, found",
    [(None, "None"), (2, "2"), (0, "0"), ("1", "'1'"), (True, "True"), (1.0, "1.0")],
    ids=["missing", "newer", "zero", "string", "bool", "float"],
)
def test_analyze_run_refuses_unknown_format_version(mini_run, tmp_path, version, found):
    run = tmp_path / "run"
    shutil.copytree(mini_run, run)
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["format_version"] == FORMAT_VERSION == 1
    if version is None:
        del manifest["format_version"]
    else:
        manifest["format_version"] = version
    (run / "manifest.json").write_text(json.dumps(manifest))
    message = f"format_version {found} is not supported (supported: 1)"
    with pytest.raises(FormatVersionError, match=re.escape(message)):
        analyze_run(run)


def _torn_rows(lines: list[str]) -> list[str]:
    return lines[:2]


def _repeated_row(lines: list[str]) -> list[str]:
    return lines[:-1] + lines[:1]


def _foreign_row(lines: list[str]) -> list[str]:
    row = json.loads(lines[-1])
    row["cell_id"] = "toy_sql_demo__mcts__none"
    return lines[:-1] + [json.dumps(row) + "\n"]


@pytest.mark.parametrize(
    "edit, found",
    [
        (_torn_rows, "2 rows covering 2 task(s)"),
        (_repeated_row, "10 rows covering 9 task(s)"),
        (_foreign_row, "10 rows covering 9 task(s)"),
    ],
    ids=["torn", "repeated", "foreign"],
)
def test_analyze_run_refuses_rows_the_manifest_does_not_vouch_for(mini_run, tmp_path, edit, found):
    # beam has no memory cell to pair with, so only the manifest entry can tell
    run = tmp_path / "run"
    shutil.copytree(mini_run, run)
    path = run / "toy_sql_demo__beam__none.jsonl"
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    message = (
        f"{path}: manifest entry expects 10 rows, one per task of cell "
        f"toy_sql_demo__beam__none; found {found} of that cell"
    )
    with pytest.raises(PairingError, match=re.escape(message)):
        analyze_run(run)


@pytest.mark.parametrize(
    "name, size",
    [("manifest.json", 200), ("toy_sql_demo__beam__none.jsonl", 100)],
    ids=["manifest", "verdicts"],
)
def test_analyze_run_refuses_a_torn_file_naming_line_and_column(mini_run, tmp_path, name, size):
    run = tmp_path / "run"
    shutil.copytree(mini_run, run)
    path = run / name
    path.write_bytes(path.read_bytes()[:size])
    where = re.escape(f"{path}: not readable JSON at line ") + r"\d+, column \d+: \w"
    with pytest.raises(FormatVersionError, match=where):
        analyze_run(run)


def test_emit_matrix_report_shape(mini_run):
    analysis = analyze_run(mini_run)
    report = emit_matrix_report(analysis)
    assert "EXPERIMENT MATRIX" in report
    assert "PAIRED TESTS" in report
    assert "EFFICIENCY" in report
    assert "[100.0]" in report  # best cell in its group is bracketed
    # deterministic text
    assert report == emit_matrix_report(analyze_run(mini_run))


def test_analyze_run_selected_rule(mini_run):
    analysis = analyze_run(mini_run, rule="selected")
    assert analysis["rule"] == "selected"
    for comp in analysis["comparisons"]:
        assert 0.0 <= comp["p"] <= 1.0
