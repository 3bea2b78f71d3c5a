"""tools/fingerprints.py, the bit-for-bit check of the benchmark's certifies."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def fingerprints(*args):
    cmd = [sys.executable, str(ROOT / "tools" / "fingerprints.py"), "--workloads", "games",
           "--seeds", "101", *args]
    return subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT).stdout


def test_games_at_one_seed_prints_one_digest_per_source():
    out = fingerprints()
    # one line per workload and seed, with the pass's Newton steps and face steps; no
    # games case ends in an error
    assert re.fullmatch(
        r"games 101 [0-9a-f]{64} \d+ steps, \d+ face steps of \d+ Gauss-Newton steps\n", out)
    # the same source, named explicitly, certifies to the same bits
    assert fingerprints("--src", str(ROOT / "src")) == out
