"""tools/fingerprints.py, the bit-for-bit check of the benchmark's certifies."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a workload's line: its digest, the pass's Newton steps, its face steps and the converged
# ones, its exact finishes with the remembered ones and the rows they added, the Python-level
# calls of a warm pass and the worst certificate's gap over its target
FACES = (r"\d+ face steps \(\d+ converged\) of \d+ Gauss-Newton steps, "
         r"\d+ exact finishes \(\d+ remembered\) adding \d+ rows")
STEPS = rf"[0-9a-f]{{64}} \d+ steps, {FACES}, \d+ calls, worst gap \d+\.\d{{3}} of target\n"


def fingerprints(*args):
    cmd = [sys.executable, str(ROOT / "tools" / "fingerprints.py"), "--seeds", "101", *args]
    return subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT).stdout


def test_games_at_one_seed_prints_one_digest_per_source():
    out = fingerprints("--workloads", "games")
    # one line per workload and seed; no games case ends in an error
    assert re.fullmatch(rf"games 101 {STEPS}", out)
    # every game has at most n + 1 rows, so each of its 6 solves is finished on all
    # its rows before any Newton step; classic_value_exact then asks for the same game
    # on the same rows, which the simplex's memo serves, 6 of the 12 finishes; none adds
    # a row
    assert " 0 steps, " in out and ", 12 exact finishes (6 remembered) adding 0 rows, " in out
    # the same source, named explicitly, certifies to the same bits
    assert fingerprints("--workloads", "games", "--src", str(ROOT / "src")) == out


def test_the_call_count_is_every_call_and_c_call_that_the_function_makes():
    # run in a fresh interpreter: importing the tool pins the BLAS threads and sys.path
    code = ("import runpy; fp = runpy.run_path('tools/fingerprints.py');\n"
            "def three(): len(()); abs(-1); sorted([])\n"
            "def nested(): three(); three()\n"
            "print(fp['count_calls'](three), fp['count_calls'](nested))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT).stdout
    # three C calls; twice three plus the two Python calls of three
    assert out == "3 8\n"


def test_a_dense_case_that_fails_is_named_below_its_workload():
    # games closes on its exact finish before any Newton step and dense takes Newton
    # steps; dense's 6x4 case at relative gap 1e-8 fails its lift, and is named on an
    # indented line with its error
    out = fingerprints("--workloads", "games", "dense")
    assert re.fullmatch(
        rf"games 101 {STEPS}dense 101 {STEPS}"
        r"  dense-6x4-1e8: ValueError: constraint residual too large: \d\.\d+(?:e-\d+)?\n", out)


def test_fuzz_adds_one_line_over_its_1600_certificates():
    # the seeded fuzz's line, below the workload's: its digest, the Newton steps, no
    # solve stopped short, and the face steps; then the Newton steps and the short stops
    # of the same instances at relative gap 1e-12
    out = fingerprints("--workloads", "games", "--fuzz")
    assert re.fullmatch(
        rf"games 101 {STEPS}fuzz [0-9a-f]{{64}} 1600 certificates, \d+ steps, "
        rf"short 0 minimax, 0 maximin, {FACES}; "
        r"at 1e-12: \d+ steps, short \d+ minimax, \d+ maximin\n", out)
