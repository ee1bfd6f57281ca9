"""Command line front end: validate, run, analyze.

Exit codes: 0 success, 1 operational failure (inadmissible cells on
validate, failed cells or a dead worker process on run, an unknown manifest
format_version, a torn manifest or verdict file, a malformed manifest,
manifest entry or verdict row, a verdict file its manifest entry does not
vouch for or a missing baseline on analyze, a path either cannot use), 2
config or usage errors.
Remote model credentials are read from the environment variable named in
the model config (default MEMSEARCH_API_KEY), never from the config file
itself.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .core import ConfigurationError, atomic_write
from .matrix import WorkerError, check_admissible, load_matrix_config, run_matrix
from .stats import (
    CellEntry,
    FormatVersionError,
    MissingBaselineError,
    PairingError,
    analyze_run,
    emit_matrix_report,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memsearch",
        description="Run memory x search experiment matrices over toy tool-use environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check every cell's admissibility without running")
    p_val.add_argument("config", help="experiment config file")

    p_run = sub.add_parser("run", help="run the experiment matrix")
    p_run.add_argument("config", help="experiment config file")
    p_run.add_argument("--out", required=True, help="output directory for verdicts and manifest")
    p_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes that run the (benchmark, task) groups of jobs, no more than there"
            " are groups (default 1: run in this process)"
        ),
    )
    p_run.add_argument(
        "--dump-memory", action="store_true", help="write per-task memory store dumps"
    )

    p_an = sub.add_parser("analyze", help="aggregate a finished run directory")
    p_an.add_argument("out_dir", help="directory produced by 'run'")
    p_an.add_argument("--baseline", default="none", help="memory label to compare against")
    p_an.add_argument("--q", type=float, default=0.05, help="BH false discovery rate, in (0, 1]")
    p_an.add_argument(
        "--rule",
        choices=["pass_at_n", "selected"],
        default="pass_at_n",
        help="per-task verdict rule",
    )
    p_an.add_argument("--report-out", help="write the plain-text report here")
    p_an.add_argument("--json-out", help="write the machine-readable analysis here")
    return parser


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_matrix_config(args.config)
    all_ok = True
    for cell in cfg.cells:
        reason = check_admissible(cell)
        if reason.admissible:
            print(f"{cell.cell_id}: admissible")
        else:
            all_ok = False
            print(f"{cell.cell_id}: inadmissible ({reason.value}) {reason.glyph}")
    return EXIT_OK if all_ok else EXIT_FAILURE


def cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    cfg = load_matrix_config(args.config)
    cells = run_matrix(cfg, args.out, jobs=args.jobs, dump_memory=args.dump_memory)["cells"]
    entries = {cid: CellEntry.from_json(raw, cid, "manifest.json") for cid, raw in cells.items()}
    failed = [cid for cid, entry in entries.items() if entry.status == "failed"]
    for cid, entry in sorted(entries.items()):
        detail = entry.reason or entry.error or f"{entry.n_tasks} tasks"
        print(f"{cid}: {entry.status} ({detail})")
    if failed:
        print(
            f"error: {len(failed)} cell(s) failed; the manifest lists each with its error",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    if not 0.0 < args.q <= 1.0:
        print("error: --q must lie in (0, 1]", file=sys.stderr)
        return EXIT_CONFIG
    analysis = analyze_run(args.out_dir, baseline=args.baseline, q=args.q, rule=args.rule)
    report = emit_matrix_report(analysis)
    # both texts are made before either file is written, so a failure leaves neither
    outputs = []
    if args.report_out:
        outputs.append((args.report_out, report))
    if args.json_out:
        outputs.append((args.json_out, json.dumps(analysis, indent=2, sort_keys=True) + "\n"))
    for path, text in outputs:
        atomic_write(Path(path), text)
    print(report, end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_analyze(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        FormatVersionError,
        MissingBaselineError,
        PairingError,
        OSError,
        WorkerError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
