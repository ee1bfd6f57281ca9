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
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from pathlib import Path

from .core import CELL_ID, ConfigurationError, GiveUpStats, PricingTable, Telemetry, TerminalKind
from .core import checked, known

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
    """A manifest or verdict file this version cannot read: an unknown format,
    a file that is not whole JSON, or a record `run` could not have written."""


# ---------------------------------------------------------------------------
# the run directory's records (each check builds its message only on failure)


def _object(raw, keys, what: str, where: str) -> dict:
    """`raw`, if it is a JSON object with exactly the set of `keys`."""
    if type(raw) is not dict or raw.keys() != keys:
        known(checked(raw, dict, f"{where}: {what}"), keys, what, where)
        raise ConfigurationError(f"{where}: missing {what} keys {sorted(keys - raw.keys())}")
    return raw


def _field(raw: dict, name: str, kind: type, where: str, item: type | None = None):
    """`raw[name]` if it has JSON type `kind` as `core.checked` reads it (an array of `item`s)."""
    value = raw[name]
    if type(value) is not kind or item is not None and not set(map(type, value)) <= {item}:
        checked(value, kind, f"{where}: {name}")
        for i, element in enumerate(value):
            checked(element, item, f"{where}: {name}[{i}]")
    return value


def _record(cls: type, values: dict):
    """The frozen dataclass `cls` holding `values`, one for each of its fields,
    every one checked already: set in one dict update, not one
    `object.__setattr__` a field as its `__init__` does.  The fields go in
    their declared order, so the instance keeps its class's shared keys."""
    record = object.__new__(cls)
    vars(record).update([(name, values[name]) for name in cls.__dataclass_fields__])
    return record


_TELEMETRY_KEYS = frozenset(f.name for f in fields(Telemetry))
_GIVEUP_TYPES = {"apology_terminals": int, "selected_apology": bool, "all_apology_states": int}
_TERMINAL_KINDS = frozenset(k.value for k in TerminalKind)


@dataclass(frozen=True)
class VerdictRow:
    """One task of one cell: one line of the cell's verdict file.

    The length rule: `verdicts`, `trajectory_lengths` and `discovery_skipped` (null
    when the benchmark has no discovery tool) hold one entry per graded trajectory,
    `terminal_kinds` one per recorded one.  Beam, the one method with `giveup` stats,
    grades only its selected trajectory; every other method grades them all.
    """

    task_id: str
    cell_id: str
    verdicts: list[bool]
    selected_verdict: bool
    final_answer: str | None
    trajectory_lengths: list[int]
    terminal_kinds: list[str]  # TerminalKind values
    discovery_skipped: list[bool] | None
    telemetry: Telemetry
    giveup: GiveUpStats | None

    def verdict(self, rule: str) -> bool:
        """Whether any trajectory solved the task (PASS_AT_N), or the selected one (SELECTED)."""
        if rule not in (PASS_AT_N, SELECTED):
            raise ValueError(f"unknown pairing rule {rule!r}")
        return any(self.verdicts) if rule == PASS_AT_N else self.selected_verdict

    def to_json(self) -> str:
        giveup = None if self.giveup is None else vars(self.giveup)
        telemetry = {name: getattr(self.telemetry, name) for name in _TELEMETRY_KEYS}
        raw = {**vars(self), "telemetry": telemetry, "giveup": giveup}
        return json.dumps(raw, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, raw, where: str = "verdict row") -> "VerdictRow":
        """`raw` (parsed JSON) as a row, or a ConfigurationError naming `where` and the field."""
        row = _object(raw, _ROW_KEYS, "verdict row", where)
        for name, kind in (("task_id", str), ("cell_id", str), ("selected_verdict", bool)):
            _field(row, name, kind, where)
        if row["final_answer"] is not None:
            _field(row, "final_answer", str, where)
        telemetry = _object(row["telemetry"], _TELEMETRY_KEYS, "telemetry", where)
        if not set(map(type, telemetry.values())) <= {int} or min(telemetry.values()) < 0:
            raise ConfigurationError(f"{where}: telemetry must hold integers >= 0: {telemetry}")
        giveup = row["giveup"]
        if giveup is not None:
            _object(giveup, _GIVEUP_TYPES.keys(), "giveup", where)
            if any(type(giveup[k]) is not t or giveup[k] < 0 for k, t in _GIVEUP_TYPES.items()):
                raise ConfigurationError(f"{where}: giveup needs 2 counts >= 0, 1 flag: {giveup}")
            giveup = GiveUpStats(**giveup)
        kinds = _field(row, "terminal_kinds", list, where, str)
        if not _TERMINAL_KINDS.issuperset(kinds):
            raise ConfigurationError(f"{where}: terminal_kinds {kinds} has a non-TerminalKind")
        verdicts = _field(row, "verdicts", list, where, bool)
        lengths = _field(row, "trajectory_lengths", list, where, int)
        skipped = row["discovery_skipped"]
        if skipped is not None:
            _field(row, "discovery_skipped", list, where, bool)
        graded = len(kinds) if giveup is None else 1
        flags = lengths if skipped is None else skipped
        if not len(verdicts) == len(lengths) == len(flags) == graded <= len(kinds):
            held = f"{len(verdicts)}, {len(lengths)}, {'null' if skipped is None else len(flags)}"
            raise ConfigurationError(
                f"{where}: a {'beam ' if giveup else ''}row with {len(kinds)} terminal_kinds "
                f"grades {graded}, yet verdicts, trajectory_lengths, discovery_skipped hold {held}"
            )
        return _record(cls, {**row, "telemetry": Telemetry(**telemetry), "giveup": giveup})


_ROW_KEYS = frozenset(f.name for f in fields(VerdictRow))
# the fields a manifest entry carries beyond the common ones, by its status
_ADDED = dict(ok={"verdict_file", "n_tasks"}, failed={"error"}, inadmissible={"reason", "glyph"})


@dataclass(frozen=True)
class CellEntry:
    """One cell's entry in the run manifest, filed under its cell id.

    `run_matrix` makes it, with no status, when it checks the cell's admission.
    A status adds its own fields: `ok` a `verdict_file` (always `<cell id>.jsonl`,
    beside the manifest) and `n_tasks`, `failed` the `error` of its first failing
    task, and `inadmissible` the `reason` and its report `glyph`.
    """

    benchmark: str
    env: str
    method: str
    memory: str
    seed: int
    status: str | None = None
    verdict_file: str | None = None
    n_tasks: int | None = None
    error: str | None = None
    reason: str | None = None
    glyph: str | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in vars(self).items() if k in _ENTRY_KEYS[self.status]}

    @classmethod
    def from_json(cls, raw, cell_id: str, where: str) -> "CellEntry":
        """`raw` as cell `cell_id`'s entry, or a ConfigurationError naming `where` and the field."""
        status = checked(raw, dict, where).get("status")
        if not isinstance(status, str) or status not in _ENTRY_KEYS:
            raise ConfigurationError(f"{where}: status {status!r} is none of {sorted(_ENTRY_KEYS)}")
        _object(raw, _ENTRY_KEYS[status], "manifest entry", where)
        for name in raw:
            _field(raw, name, int if name in ("seed", "n_tasks") else str, where)
        own = f"{cell_id}.jsonl" if CELL_ID.fullmatch(cell_id) else None  # all run writes
        if status == "ok" and raw["verdict_file"] != own:
            raise ConfigurationError(f"{where}: verdict_file is not the <cell id>.jsonl run writes")
        return _record(cls, {**_ENTRY_DEFAULTS, **raw})


_COMMON_KEYS = {f.name for f in fields(CellEntry)}.difference(*_ADDED.values())
_ENTRY_DEFAULTS = {f.name: f.default for f in fields(CellEntry) if f.default is not MISSING}
_ENTRY_KEYS = {status: frozenset(_COMMON_KEYS | added) for status, added in _ADDED.items()}


@dataclass(frozen=True)
class PairedCounts:
    """Discordant-pair counts from paired verdicts.

    b counts tasks the treatment solved and the baseline missed; c counts
    the reverse.  n is the number of paired tasks.
    """

    n: int
    b: int
    c: int


def pair_verdicts(
    baseline_rows: list[VerdictRow],
    treatment_rows: list[VerdictRow],
    rule: str = PASS_AT_N,
) -> PairedCounts:
    """Pair two verdict files task-by-task into discordant counts.

    The two files must cover exactly the same task ids; the error lists the
    symmetric difference.
    """
    base = {r.task_id: r for r in baseline_rows}
    treat = {r.task_id: r for r in treatment_rows}
    diff = sorted(set(base) ^ set(treat))
    if diff:
        raise PairingError(f"verdict files cover different tasks: {diff}")
    b = c = 0
    for tid in sorted(base):
        bv = base[tid].verdict(rule)
        tv = treat[tid].verdict(rule)
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
        return BhResult((), (), 0)
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
    return BhResult(rejected, tuple(qvalues), sum(rejected))


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


def efficiency(rows: list[VerdictRow], pricing: PricingTable | None = None) -> EfficiencySummary:
    """Efficiency metrics over one cell's verdict records.

    mean_steps averages every trajectory length.  skip_rate is the fraction
    of attempts after the first that never invoked the discovery tool; it is
    None (absent, not zero) when runs have a single attempt or discovery
    flags are missing.
    """
    if not rows:
        raise ValueError("no verdict rows")
    lengths = [n for r in rows for n in r.trajectory_lengths]
    mean_steps = sum(lengths) / len(lengths)
    later = [f for r in rows if r.discovery_skipped for f in r.discovery_skipped[1:]]
    skip_rate = sum(later) / len(later) if later else None

    p = pricing or PricingTable()
    tin = sum(r.telemetry.policy_tokens_in for r in rows)
    tout = sum(r.telemetry.policy_tokens_out for r in rows)
    sin = sum(r.telemetry.supervisor_tokens_in for r in rows)
    sout = sum(r.telemetry.supervisor_tokens_out for r in rows)
    policy_cost = (tin * p.policy_in + tout * p.policy_out) / 1e6
    supervisor_cost = (sin * p.supervisor_in + sout * p.supervisor_out) / 1e6
    return EfficiencySummary(
        mean_steps=mean_steps,
        skip_rate=skip_rate,
        policy_cost=policy_cost,
        supervisor_cost=supervisor_cost,
        total_cost=policy_cost + supervisor_cost,
        policy_calls=sum(r.telemetry.policy_calls for r in rows),
        supervisor_calls=sum(r.telemetry.supervisor_calls for r in rows),
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
    the manifest's format_version is missing or unknown, or a manifest or
    verdict file is not whole JSON or holds a record `run` cannot write;
    PairingError when a verdict file's rows are not the ones its manifest
    entry vouches for or an ok entry vouches for no task; MissingBaselineError
    when a (benchmark, method) group has treatment cells but no baseline."""
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    # one walk in file order: within a (benchmark, method) group the last
    # cell of a memory label wins
    analysis_cells: dict[str, dict] = {}
    verdicts: dict[str, list[VerdictRow]] = {}
    by_group: dict[tuple[str, str], dict[str, str]] = {}
    try:
        manifest = _decode(manifest_path, manifest_path.read_text(encoding="utf-8"))
        version = checked(manifest, dict, f"{manifest_path}: the manifest").get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise FormatVersionError(
                f"{manifest_path}: format_version {version!r} is not supported "
                f"(supported: {FORMAT_VERSION})"
            )
        _object(manifest, {"format_version", "pricing", "cells"}, "manifest", str(manifest_path))
        pricing = PricingTable.from_dict(manifest["pricing"], str(manifest_path))
        for cell_id, raw in checked(manifest["cells"], dict, f"{manifest_path}: cells").items():
            entry = CellEntry.from_json(raw, cell_id, f"{manifest_path}: cell {cell_id}")
            info = analysis_cells[cell_id] = entry.to_json()
            if entry.status != "ok":
                continue
            path = out / entry.verdict_file
            parsed = enumerate(load_verdicts(path), 1)
            rows = [VerdictRow.from_json(r, f"{path}: row {i}") for i, r in parsed]
            verdicts[cell_id] = rows
            # exactly the rows the entry vouches for: one of this cell per task
            n = entry.n_tasks
            tasks = {r.task_id for r in rows if r.cell_id == cell_id}
            if not len(rows) == len(tasks) == n:
                raise PairingError(
                    f"{path}: manifest entry expects {n} rows, one per task of cell "
                    f"{cell_id}; found {len(rows)} rows covering {len(tasks)} task(s) of that cell"
                )
            if n < 1:
                raise PairingError(f"{path}: manifest entry of ok cell {cell_id} has no tasks")
            info["accuracy"] = sum(1 for r in rows if r.verdict(rule)) / n
            info["accuracy_selected"] = sum(1 for r in rows if r.selected_verdict) / n
            info["efficiency"] = dict(vars(efficiency(rows, pricing)))  # flat: no asdict recursion
            giveups = [r.giveup for r in rows if r.giveup is not None]
            if giveups:
                info["giveup"] = {
                    "apology_terminals": sum(g.apology_terminals for g in giveups),
                    "selected_apologies": sum(1 for g in giveups if g.selected_apology),
                    "all_apology_states": sum(g.all_apology_states for g in giveups),
                }
            by_group.setdefault((entry.benchmark, entry.method), {})[entry.memory] = cell_id
    except ConfigurationError as exc:
        raise FormatVersionError(str(exc)) from exc

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
