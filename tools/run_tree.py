"""Write one checkout's run tree, report and analysis for a benchmark workload.

Usage (from any directory):

    python3 tools/run_tree.py SRC WORKLOAD SEED JOBS OUT

SRC is the root of a checkout.  The tool builds WORKLOAD (``demo``, ``grid``
or ``fact_heavy``) at SEED with that checkout's ``bench/workloads.py`` and
fixtures, and runs it with that checkout's ``memsearch`` at JOBS worker
processes.  OUT, which must not exist yet, then holds:

- ``run/``: the ``run_matrix(dump_memory=True)`` directory;
- ``report.txt``: ``emit_matrix_report`` of its analysis;
- ``analysis.json``: the analysis as ``memsearch analyze --json-out`` writes it.

Every byte of OUT depends only on SRC, WORKLOAD and SEED, never on JOBS, so
``diff -r`` of two such directories (one checkout against another, or one
JOBS against another) is the check that a change kept the outputs the same.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src, workload, out = Path(argv[0]).resolve(), argv[1], Path(argv[4])
    seed, jobs = int(argv[2]), int(argv[3])
    sys.path[:0] = [str(src / "src"), str(src / "bench")]
    import memsearch
    import workloads
    from memsearch.matrix import load_matrix_config, run_matrix
    from memsearch.stats import analyze_run, emit_matrix_report

    for module in (memsearch, workloads):
        if not Path(module.__file__).resolve().is_relative_to(src):
            where = f"{module.__name__} imported from outside {src}: {module.__file__}"
            print(f"error: {where}", file=sys.stderr)
            return 2
    out.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as inputs:
        built = workloads.build(workload, seed, src / "src" / "memsearch" / "fixtures")
        cfg = load_matrix_config(built.write(Path(inputs)))
        run_matrix(cfg, out / "run", jobs=jobs, dump_memory=True)
    analysis = analyze_run(out / "run")
    (out / "report.txt").write_text(emit_matrix_report(analysis), encoding="utf-8")
    (out / "analysis.json").write_text(
        json.dumps(analysis, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
