"""Paired statistics and reporting over matrix run outputs.

The McNemar test is the exact binomial form computed in integer/rational
arithmetic: p = min(1, 2 * sum_{k=0}^{min(b,c)} C(b+c, k) / 2^(b+c)), so
results are bit-reproducible.  Multiple comparisons are corrected with the
Benjamini-Hochberg step-up procedure.  Efficiency metrics (trajectory
length, discovery skip rate, cost) come straight from verdict records and
telemetry snapshots.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from .core import PricingTable, is_int

PASS_AT_N = "pass_at_n"
SELECTED = "selected"
# the manifest format `run_matrix` writes and `analyze_run` reads
FORMAT_VERSION = 1


class PairingError(Exception):
    """Verdict files cover different task sets, or a verdict file holds rows
    other than the ones its manifest entry vouches for."""


class MissingBaselineError(Exception):
    """No baseline cell exists for a (benchmark, method) group."""


class FormatVersionError(Exception):
    """A manifest or verdict file this version cannot read: an unknown
    manifest format, or a file that is not whole JSON."""


@dataclass(frozen=True)
class PairedCounts:
    """Discordant-pair counts from paired verdicts.

    b counts tasks the treatment solved and the baseline missed; c counts
    the reverse.  n is the number of paired tasks.
    """

    n: int
    b: int
    c: int


def _task_verdict(row: dict, rule: str) -> bool:
    if rule == PASS_AT_N:
        return any(row["verdicts"])
    if rule == SELECTED:
        return bool(row["selected_verdict"])
    raise ValueError(f"unknown pairing rule {rule!r}")


def pair_verdicts(
    baseline_rows: list[dict],
    treatment_rows: list[dict],
    rule: str = PASS_AT_N,
) -> PairedCounts:
    """Pair two verdict files task-by-task into discordant counts.

    The two files must cover exactly the same task ids; the error lists the
    symmetric difference.
    """
    base = {r["task_id"]: r for r in baseline_rows}
    treat = {r["task_id"]: r for r in treatment_rows}
    diff = sorted(set(base) ^ set(treat))
    if diff:
        raise PairingError(f"verdict files cover different tasks: {diff}")
    b = c = 0
    for tid in sorted(base):
        bv = _task_verdict(base[tid], rule)
        tv = _task_verdict(treat[tid], rule)
        if tv and not bv:
            b += 1
        elif bv and not tv:
            c += 1
    return PairedCounts(n=len(base), b=b, c=c)


def mcnemar_exact(b: int, c: int) -> float:
    """Two-sided exact McNemar p-value over the discordant pairs.

    Computed with integer binomial coefficients and a Fraction, then
    converted to float once at the end.  b + c = 0 (no discordant pairs)
    gives p = 1.0.
    """
    if b < 0 or c < 0:
        raise ValueError("discordant counts must be non-negative")
    n = b + c
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(b, c) + 1))
    p = Fraction(2 * tail, 2**n)
    return float(min(Fraction(1), p))


def significance_marker(p: float) -> str:
    """Strict-inequality marker bands: ** below 0.01, * below 0.05,
    dagger below 0.10, empty otherwise."""
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    if p < 0.10:
        return "†"
    return ""


@dataclass(frozen=True)
class BhResult:
    rejected: tuple[bool, ...]  # aligned to the input order
    thresholds: tuple[float, ...]  # rank-based cutoff for each input p
    qvalues: tuple[float, ...]  # monotone BH-adjusted p-values
    n_rejected: int


def bh_fdr(pvalues: list[float], q: float = 0.05) -> BhResult:
    """Benjamini-Hochberg step-up: find the largest k with p_(k) <= k*q/m
    and reject every hypothesis with p <= p_(k).  Flagging by the p-value
    cutoff keeps tied p-values consistent."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"FDR level q={q} outside (0, 1]")
    m = len(pvalues)
    if m == 0:
        return BhResult((), (), (), 0)
    for p in pvalues:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value {p} outside [0, 1]")
    order = sorted(range(m), key=lambda i: pvalues[i])
    k_star = 0
    cutoff = 0.0
    for rank, idx in enumerate(order, start=1):
        if pvalues[idx] <= rank * q / m:
            k_star = rank
            cutoff = pvalues[idx]
    rejected = tuple(k_star > 0 and p <= cutoff for p in pvalues)
    ranks = {idx: rank for rank, idx in enumerate(order, start=1)}
    thresholds = tuple(ranks[i] * q / m for i in range(m))
    # adjusted p-values: running minimum of p_(k) * m / k from the largest rank down
    adj_sorted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, pvalues[idx] * m / rank)
        adj_sorted[rank - 1] = running
    qvalues = [0.0] * m
    for rank, idx in enumerate(order, start=1):
        qvalues[idx] = adj_sorted[rank - 1]
    return BhResult(rejected, thresholds, tuple(qvalues), sum(rejected))


# ---------------------------------------------------------------------------
# efficiency


@dataclass(frozen=True)
class EfficiencySummary:
    mean_steps: float
    skip_rate: float | None  # None when undefined (single attempt or no flags)
    policy_cost: float
    supervisor_cost: float
    total_cost: float
    policy_calls: int
    supervisor_calls: int


def efficiency(rows: list[dict], pricing: PricingTable | None = None) -> EfficiencySummary:
    """Efficiency metrics over one cell's verdict records.

    mean_steps averages every trajectory length.  skip_rate is the fraction
    of attempts after the first that never invoked the discovery tool; it is
    None (absent, not zero) when runs have a single attempt or discovery
    flags are missing.
    """
    if not rows:
        raise ValueError("no verdict rows")
    lengths = [n for r in rows for n in r["trajectory_lengths"]]
    mean_steps = sum(lengths) / len(lengths)
    skipped = total_later = 0
    have_flags = False
    for r in rows:
        flags = r.get("discovery_skipped")
        if flags is None or len(flags) < 2:
            continue
        have_flags = True
        later = flags[1:]
        skipped += sum(1 for f in later if f)
        total_later += len(later)
    skip_rate = skipped / total_later if have_flags and total_later else None

    p = pricing or PricingTable()
    tin = sum(r["telemetry"]["policy_tokens_in"] for r in rows)
    tout = sum(r["telemetry"]["policy_tokens_out"] for r in rows)
    sin = sum(r["telemetry"]["supervisor_tokens_in"] for r in rows)
    sout = sum(r["telemetry"]["supervisor_tokens_out"] for r in rows)
    policy_cost = (tin * p.policy_in + tout * p.policy_out) / 1e6
    supervisor_cost = (sin * p.supervisor_in + sout * p.supervisor_out) / 1e6
    return EfficiencySummary(
        mean_steps=mean_steps,
        skip_rate=skip_rate,
        policy_cost=policy_cost,
        supervisor_cost=supervisor_cost,
        total_cost=policy_cost + supervisor_cost,
        policy_calls=sum(r["telemetry"]["policy_calls"] for r in rows),
        supervisor_calls=sum(r["telemetry"]["supervisor_calls"] for r in rows),
    )


# ---------------------------------------------------------------------------
# run analysis


def _decode(path: Path | str, text: str, line: int = 1) -> dict:
    """json.loads, raising FormatVersionError at the file's line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatVersionError(
            f"{path}: not readable JSON at line {line + exc.lineno - 1}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc


def load_verdicts(path: str | Path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                rows.append(_decode(path, line, number))
    return rows


def analyze_run(
    out_dir: str | Path,
    baseline: str = "none",
    q: float = 0.05,
    rule: str = PASS_AT_N,
) -> dict:
    """Aggregate a finished run directory into accuracy, paired tests with
    BH correction, and efficiency metrics.  Raises FormatVersionError when
    the manifest's format_version is missing or unknown or a manifest or
    verdict file is not whole JSON, PairingError when a verdict file's rows
    are not the ones its manifest entry vouches for or an ok entry vouches
    for no task, and MissingBaselineError when a (benchmark, method) group
    has treatment cells but no baseline cell."""
    out = Path(out_dir)
    path = out / "manifest.json"
    manifest = _decode(path, path.read_text(encoding="utf-8"))
    version = manifest.get("format_version")
    if not is_int(version) or version != FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: format_version {version!r} is not supported "
            f"(supported: {FORMAT_VERSION})"
        )
    pricing = PricingTable(**manifest.get("pricing", {}))
    cells = manifest["cells"]

    # one walk in file order: within a (benchmark, method) group the last
    # cell of a memory label wins
    analysis_cells: dict[str, dict] = {}
    verdicts: dict[str, list[dict]] = {}
    by_group: dict[tuple[str, str], dict[str, str]] = {}
    for cell_id, meta in cells.items():
        info = analysis_cells[cell_id] = dict(meta)
        if meta.get("status") != "ok":
            continue
        path = out / meta["verdict_file"]
        rows = verdicts[cell_id] = load_verdicts(path)
        # exactly the rows the entry vouches for: one of this cell per task
        n = meta["n_tasks"]
        tasks = {r["task_id"] for r in rows if r.get("cell_id") == cell_id}
        if not len(rows) == len(tasks) == n:
            raise PairingError(
                f"{path}: manifest entry expects {n} rows, one per task of cell "
                f"{cell_id}; found {len(rows)} rows covering {len(tasks)} task(s) of that cell"
            )
        if n < 1:
            raise PairingError(f"{path}: manifest entry of ok cell {cell_id} has no tasks")
        info["accuracy"] = sum(1 for r in rows if _task_verdict(r, rule)) / n
        info["accuracy_selected"] = sum(1 for r in rows if r["selected_verdict"]) / n
        info["efficiency"] = asdict(efficiency(rows, pricing))
        giveups = [r["giveup"] for r in rows if r.get("giveup")]
        if giveups:
            info["giveup"] = {
                "apology_terminals": sum(g["apology_terminals"] for g in giveups),
                "selected_apologies": sum(1 for g in giveups if g["selected_apology"]),
                "all_apology_states": sum(g["all_apology_states"] for g in giveups),
            }
        by_group.setdefault((meta["benchmark"], meta["method"]), {})[meta["memory"]] = cell_id

    comparisons: list[dict] = []
    for (bench, method), members in sorted(by_group.items()):
        treatments = sorted(m for m in members if m != baseline)
        if not treatments:
            continue
        if baseline not in members:
            raise MissingBaselineError(
                f"group ({bench}, {method}) has no baseline cell with memory "
                f"'{baseline}'; expected something like '{bench}__{method}__{baseline}'"
            )
        base_rows = verdicts[members[baseline]]
        for mem in treatments:
            counts = pair_verdicts(base_rows, verdicts[members[mem]], rule)
            p = mcnemar_exact(counts.b, counts.c)
            comparisons.append(
                {
                    "benchmark": bench,
                    "method": method,
                    "treatment_cell": members[mem],
                    "baseline_cell": members[baseline],
                    "memory": mem,
                    "n": counts.n,
                    "b": counts.b,
                    "c": counts.c,
                    "p": p,
                    "marker": significance_marker(p),
                }
            )

    bh = bh_fdr([c["p"] for c in comparisons], q)
    for comp, rej, qv in zip(comparisons, bh.rejected, bh.qvalues):
        comp["bh_rejected"] = rej
        comp["q_value"] = qv

    return {
        "rule": rule,
        "baseline": baseline,
        "q": q,
        "cells": dict(sorted(analysis_cells.items())),
        "comparisons": comparisons,
        "n_bh_rejected": bh.n_rejected,
    }


# ---------------------------------------------------------------------------
# report rendering


def _fmt_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([line(headers), line(["-" * w for w in widths])] + [line(r) for r in rows])


def emit_matrix_report(analysis: dict) -> str:
    """Aligned plain-text report: accuracy matrix grouped by inference
    method (best per group bracketed), the paired-test table, and the
    efficiency table.  The same analysis dict is the machine-readable form."""
    cells = analysis["cells"]
    marker_by_cell = {c["treatment_cell"]: c["marker"] for c in analysis["comparisons"]}

    groups: dict[tuple[str, str], list[tuple[str, dict]]] = {}
    for cell_id, meta in sorted(cells.items()):
        groups.setdefault((meta["benchmark"], meta["method"]), []).append((cell_id, meta))

    acc_rows = []
    for (bench, method), members in sorted(groups.items()):
        best = max(
            (m["accuracy"] for _, m in members if m.get("status") == "ok" and "accuracy" in m),
            default=None,
        )
        for cell_id, meta in members:
            status = meta.get("status")
            if status == "ok":
                acc = meta["accuracy"]
                shown = f"{100 * acc:.1f}"
                if best is not None and acc == best:
                    shown = f"[{shown}]"
                shown += marker_by_cell.get(cell_id, "")
            elif status == "inadmissible":
                shown = meta.get("glyph", "∅")
            else:
                shown = "FAILED"
            acc_rows.append([bench, method, meta["memory"], shown])

    sections = [
        f"EXPERIMENT MATRIX  accuracy % under rule={analysis['rule']}"
        f"  (baseline='{analysis['baseline']}', q={analysis['q']})",
        _fmt_table(["benchmark", "method", "memory", "accuracy"], acc_rows),
    ]

    comp_rows = [
        [
            c["benchmark"],
            c["method"],
            c["memory"],
            str(c["n"]),
            str(c["b"]),
            str(c["c"]),
            f"{c['p']:.3f}",
            c["marker"],
            "yes" if c["bh_rejected"] else "no",
        ]
        for c in analysis["comparisons"]
    ]
    sections.append("PAIRED TESTS  exact McNemar vs baseline, BH step-up")
    sections.append(
        _fmt_table(
            ["benchmark", "method", "memory", "n", "b", "c", "p", "sig", "bh_reject"],
            comp_rows,
        )
        if comp_rows
        else "(no comparisons: only baseline cells ran)"
    )

    eff_rows = []
    for cell_id, meta in sorted(cells.items()):
        if meta.get("status") != "ok":
            continue
        eff = meta["efficiency"]
        skip = "absent" if eff["skip_rate"] is None else f"{100 * eff['skip_rate']:.0f}%"
        eff_rows.append(
            [
                cell_id,
                f"{eff['mean_steps']:.2f}",
                skip,
                f"${eff['policy_cost']:.4f}",
                f"${eff['supervisor_cost']:.4f}",
                f"${eff['total_cost']:.4f}",
            ]
        )
    sections.append("EFFICIENCY  per cell")
    sections.append(
        _fmt_table(
            ["cell", "mean_steps", "skip_rate", "policy_cost", "supervisor_cost", "total"],
            eff_rows,
        )
    )

    giveup_rows = [
        [
            cell_id,
            str(meta["giveup"]["apology_terminals"]),
            str(meta["giveup"]["selected_apologies"]),
            str(meta["giveup"]["all_apology_states"]),
        ]
        for cell_id, meta in sorted(cells.items())
        if meta.get("giveup")
    ]
    if giveup_rows:
        sections.append("GIVE-UP  beam apology accounting")
        sections.append(
            _fmt_table(
                ["cell", "apology_terminals", "selected_apologies", "all_apology_states"],
                giveup_rows,
            )
        )

    return "\n\n".join(sections) + "\n"
