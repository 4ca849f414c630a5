"""The demos run to completion against the package in this checkout."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_0(demo, tmp_path):
    # demo 04 writes its CSV through tempfile, hence TMPDIR
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=tmp_path, capture_output=True, text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
