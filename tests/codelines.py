"""Count code lines: non-blank lines outside comments and docstrings.

A line counts when a token other than a comment or a docstring touches it
(a multi-line token touches each of its lines) and it is not blank.  Run
as ``python tests/codelines.py src/semicp`` to print each module's count
and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """(line, column) where each module, class and function docstring
    starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    touched = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start not in docstrings:
            touched.update(range(tok.start[0], tok.end[0] + 1))
    text = source.splitlines()
    return sum(1 for line in touched if text[line - 1].strip())


def main(roots) -> int:
    """Print the code lines of each ``.py`` file under ``roots``, then
    their total."""
    counts = {path: code_lines(path.read_text())
              for root in roots for path in sorted(Path(root).rglob("*.py"))}
    for path, n in counts.items():
        print(f"{n:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
