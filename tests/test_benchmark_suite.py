"""The benchmark's own unit tests pass against this checkout's source.

``benchmarks/`` checks its checkers and its tracer, which wraps specmm
functions by name (``saddle._eigh_raw``, ``domains._eigh_raw`` and the
others in ``benchmarks/tracing.py``). Running that suite here makes a
refactor that drops or renames one of those bindings fail in the tests,
not only in a later benchmark run. The suite puts ``src`` on its own path.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_unit_tests_pass():
    got = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "benchmarks", "-p", "test_*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert got.returncode == 0, got.stderr[-4000:]
