"""
Running the whole grid
======================

The bundled demo configuration crosses memory methods with search methods
over the two toy environments.  Structurally impossible cells are refused
up front with a reason; everything else runs deterministically and lands
as plain JSON files that the analysis layer aggregates into one report.
"""

import tempfile
from pathlib import Path

from memsearch.matrix import check_admissible, load_matrix_config, run_matrix
from memsearch.stats import analyze_run, emit_matrix_report

config_path = Path(__file__).resolve().parents[1] / "src" / "memsearch" / "fixtures" / "demo_config.json"
config = load_matrix_config(config_path)
print(f"{len(config.cells)} cells configured")

# Admissibility is decided from the cell description alone, before any
# model call.  The glyph distinguishes "the combination cannot exist" from
# "this environment cannot support that search method".
for cell in config.cells:
    reason = check_admissible(cell)
    if not reason.admissible:
        print(f"  refused {cell.cell_id}: {reason.glyph}  ({reason.value})")
print()

# The run lives in a temporary directory that is removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="matrix_demo_") as tmp:
    out_dir = Path(tmp) / "run"
    manifest = run_matrix(config, out_dir)
    ran = sum(1 for m in manifest["cells"].values() if m["status"] == "ok")
    print(f"ran {ran} admissible cells into {out_dir}")
    print()

    # The analysis pairs each memory cell against the no-memory baseline of
    # the same benchmark and search method, task by task.
    analysis = analyze_run(out_dir, baseline="none", q=0.10)
    print(emit_matrix_report(analysis))
