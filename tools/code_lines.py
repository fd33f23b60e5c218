"""Print the code lines of each module of the package, and their total.

A line counts when it holds a token other than a comment, a line break
(NL or NEWLINE) or an indent change (INDENT, DEDENT); the lines of module,
class and function docstrings do not count. Blank lines, comment lines and
docstrings thus leave the figure alone, and a statement spread over several
lines counts each of them.

    python tools/code_lines.py             # the package's modules
    python tools/code_lines.py a.py b.py   # the given files
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "unabench"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> None:
    files = [Path(p) for p in paths] or sorted(PACKAGE.glob("*.py"))
    counts = {f: code_lines(f.read_text(encoding="utf-8")) for f in files}
    width = max(len(f.name) for f in files)
    for f, n in counts.items():
        print(f"{f.name:<{width}} {n:>6,}")
    print(f"{'total':<{width}} {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
