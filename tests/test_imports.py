"""Start-up stays light.

Importing the package, loading a config, checking admissibility and
analyzing a run load neither numpy nor the HTTP stack; numpy is loaded
only by a run that writes fact memory.  Each check runs in a fresh
isolated interpreter, since the test process itself has both loaded.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import memsearch
from memsearch.matrix import load_matrix_config, run_matrix

from conftest import FIXTURES

SRC = Path(memsearch.__file__).resolve().parent.parent
HEAVY = ("numpy", "urllib.request", "http.client")

START_UP = """
from memsearch.matrix import check_admissible, load_matrix_config
from memsearch.stats import analyze_run, emit_matrix_report
for cell in load_matrix_config(sys.argv[1]).cells:
    check_admissible(cell)
emit_matrix_report(analyze_run(sys.argv[2]))
"""

RUN = """
from memsearch.matrix import load_matrix_config, run_matrix
manifest = run_matrix(load_matrix_config(sys.argv[1]), sys.argv[2], jobs=1)
assert all(m["status"] != "failed" for m in manifest["cells"].values()), manifest
"""


def _loaded(script: str, *args: object) -> dict[str, bool]:
    """Which of HEAVY a fresh `-I` interpreter has loaded after `import memsearch` and `script`."""
    code = "\n".join(
        [
            "import json, sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "import memsearch",
            script,
            f"print(json.dumps({{m: m in sys.modules for m in {HEAVY!r}}}))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _demo_config(tmp_path: Path, keep) -> Path:
    """The demo config with only the cells `keep` accepts, fixture paths made absolute."""
    raw = json.loads((FIXTURES / "demo_config.json").read_text(encoding="utf-8"))
    for spec in raw["benchmarks"].values():
        for key, value in spec.items():
            if key == "fixtures" or key.endswith("_script"):
                spec[key] = str(FIXTURES / value)
    raw["cells"] = [cell for cell in raw["cells"] if keep(cell)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_start_up_loads_neither_numpy_nor_http(tmp_path):
    config = FIXTURES / "demo_config.json"
    out = tmp_path / "run"
    run_matrix(load_matrix_config(config), out)
    loaded = _loaded(START_UP, config, out)
    assert loaded == dict.fromkeys(HEAVY, False)


@pytest.mark.parametrize("with_fact", [False, True], ids=["no_fact_cells", "one_fact_cell"])
def test_only_runs_that_write_facts_load_numpy(tmp_path, with_fact):
    # the reflection cells stay in: a reflection write must not load numpy
    config = _demo_config(
        tmp_path,
        lambda c: "fact" not in c["memory"]
        or (with_fact and c["id"] == "toy_sql_demo__best_of_n__fact"),
    )
    loaded = _loaded(RUN, config, tmp_path / "run")
    assert loaded == {"numpy": with_fact, "urllib.request": False, "http.client": False}
