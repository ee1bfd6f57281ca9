"""Every demo script runs to completion without writing to stderr.

Each demo runs in a fresh isolated interpreter (`python -I`, so no
environment variable or user site directory leaks in) with only the
package's source directory added to its path, from an empty working
directory.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

RUN_DEMO = (
    "import runpy, sys; sys.path.insert(0, {src!r}); runpy.run_path({demo!r}, run_name='__main__')"
)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(tmp_path, demo):
    code = RUN_DEMO.format(src=str(ROOT / "src"), demo=str(demo))
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
