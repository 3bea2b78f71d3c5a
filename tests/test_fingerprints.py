"""tools/fingerprints.py, the bit-for-bit check of the benchmark's certifies."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a workload's line: its digest, the pass's Newton steps and its face steps
STEPS = r"[0-9a-f]{64} \d+ steps, \d+ face steps of \d+ Gauss-Newton steps\n"


def fingerprints(*args):
    cmd = [sys.executable, str(ROOT / "tools" / "fingerprints.py"), "--seeds", "101", *args]
    return subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT).stdout


def test_games_at_one_seed_prints_one_digest_per_source():
    out = fingerprints("--workloads", "games")
    # one line per workload and seed; no games case ends in an error
    assert re.fullmatch(rf"games 101 {STEPS}", out)
    # the same source, named explicitly, certifies to the same bits
    assert fingerprints("--workloads", "games", "--src", str(ROOT / "src")) == out


def test_a_dense_case_that_fails_is_named_below_its_workload():
    # games is solved as a linear program and dense by the block; dense's 6x4 case at
    # relative gap 1e-8 fails its lift, and is named on an indented line with its error
    out = fingerprints("--workloads", "games", "dense")
    assert re.fullmatch(
        rf"games 101 {STEPS}dense 101 {STEPS}"
        r"  dense-6x4-1e8: ValueError: constraint residual too large: \S+\n", out)


def test_fuzz_adds_one_line_over_its_1600_certificates():
    # the seeded fuzz's line, below the workload's: its digest, the Newton steps, no
    # solve stopped short, and the face steps
    out = fingerprints("--workloads", "games", "--fuzz")
    assert re.fullmatch(
        rf"games 101 {STEPS}fuzz [0-9a-f]{{64}} 1600 certificates, \d+ steps, "
        r"short 0 minimax, 0 maximin, \d+ face steps of \d+ Gauss-Newton steps\n", out)
