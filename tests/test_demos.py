"""Every demo script runs to completion against this checkout's source.

The demos open ``demos/data/...`` relative to the repository root, so each
runs from there, under the test interpreter, with ``src`` first on
PYTHONPATH.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    got = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, capture_output=True, text=True, env=env
    )
    assert got.returncode == 0, got.stderr
