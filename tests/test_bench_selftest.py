"""The benchmark's own self-check passes against the library in this tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = {variable: "1" for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def test_bench_selftest_passes():
    # selftest.py imports the library from src/ under the working directory
    run = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT, env={**os.environ, **PINNED},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "all cases ok"
