"""Code lines of the Python files in a directory: lines that hold a token.

    python3 tools/loc.py [DIR]

DIR defaults to this checkout's ``src/specmm``. Each ``*.py`` file directly in DIR
is tokenized, and a line counts when some token other than a comment, a line break
or an indentation change starts on it or spans it. Docstrings (a string that is the
first statement of a module, class or function) are left out, as are comments and
blank lines. Prints one line per file, ``name lines``, in name order, then
``total lines``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token, less its docstrings' lines."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: python3 tools/loc.py [DIR]", file=sys.stderr)
        return 2
    folder = Path(args[0]) if args else ROOT / "src" / "specmm"
    total = 0
    for path in sorted(folder.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(path.name, count)
    print("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
