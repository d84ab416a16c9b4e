"""Code lines per module of the package, and their total.

A code line is a line that holds a token other than a comment; module,
class and function docstrings are left out.  Blank lines and comment-only
lines are not counted, and a statement spread over several lines counts
each of them.

    python3 tests/code_lines.py            # the package under src/descent_kit
    python3 tests/code_lines.py FILE...    # the named files

The file name does not start with ``test_``, so pytest does not collect it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "descent_kit"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python source text ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths):
    total = 0
    for path in paths:
        count = code_lines(Path(path).read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {Path(path).name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:] or sorted(PACKAGE.glob("*.py")))
