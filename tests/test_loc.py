"""tools/loc.py, the code-line count, on a small source snippet."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SNIPPET = '''"""A module docstring
over two lines."""

# a comment
import math  # a trailing comment


class Box:
    """A class docstring."""

    def area(self, side):
        """A function docstring
        over two lines."""

        text = """a string that is not a docstring
        holds code on each of its lines"""
        return (side
                * side), text
'''


def test_only_lines_that_hold_a_token_outside_a_docstring_count():
    # import, class, def, the string's two lines and the return's two lines
    assert loc.code_lines(SNIPPET) == 7


def test_it_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n\ny = [\n    2]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py 3\nb.py 7\ntotal 10\n"
