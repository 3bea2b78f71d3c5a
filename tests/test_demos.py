"""Every demo script runs to completion against this checkout's source, and
README's examples print what README shows.

The demos open ``demos/data/...`` relative to the repository root, so each
runs from there, under the test interpreter, with ``src`` first on
PYTHONPATH.
"""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from specmm.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


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


def test_readme_quick_start_prints_what_its_comments_say():
    # the fenced block below the heading; the comment after each print is its output
    code = README.split("## Library quick start", 1)[1].split("```", 2)[1].split("\n")[1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(code), {})
    shown = [line.split("#", 1)[1].strip() for line in code if line.startswith("print(")]
    assert out.getvalue().splitlines() == shown


@pytest.mark.parametrize("command", [
    "specmm solve demos/data/pauli_pair.json",
    "specmm maximin demos/data/pauli_pair.json --json",
])
def test_readme_cli_examples_print_the_lines_shown(command, monkeypatch, capsys):
    # the lines below "$ command" in its fenced block, up to a "..." that elides the rest
    lines = README.split(f"\n$ {command}\n", 1)[1].split("\n```", 1)[0].split("\n")
    cut = "..." in lines
    shown = lines[: lines.index("...")] if cut else lines
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[1:]) == 0
    got = capsys.readouterr().out.splitlines()
    assert (got[: len(shown)] if cut else got) == shown
