"""Print the code lines of each module of the package, and their total.

A line counts when it holds a token other than a comment, a line break
(NL or NEWLINE) or an indent change (INDENT, DEDENT); the lines of module,
class and function docstrings do not count. Blank lines, comment lines and
docstrings thus leave the figure alone, and a statement spread over several
lines counts each of them.

    python tools/code_lines.py              # the package's modules
    python tools/code_lines.py a.py b.py    # the given files
    python tools/code_lines.py --base REF   # the package at git revision REF, in the work tree, and the difference
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "unabench"
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


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout


def sources_at(ref: str) -> dict[str, str]:
    """The package's modules at git revision ``ref``, by file name, read with ``git show``."""
    tree = f"{ref}:{PACKAGE.relative_to(ROOT).as_posix()}"
    return {name: _git("show", f"{tree}/{name}") for name in _git("ls-tree", "--name-only", tree).split()
            if name.endswith(".py")}


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Print code lines per module.")
    parser.add_argument("files", nargs="*", help="files to count instead of the package's modules")
    parser.add_argument("--base", metavar="REF", help="also count the package at git revision REF")
    args = parser.parse_args(argv)
    if args.base and args.files:
        parser.error("--base counts the package's modules; give no files with it")
    files = [Path(p) for p in args.files] or sorted(PACKAGE.glob("*.py"))
    counts = {f.name: code_lines(f.read_text(encoding="utf-8")) for f in files}
    try:
        base = {name: code_lines(source) for name, source in sources_at(args.base).items()} if args.base else None
    except subprocess.CalledProcessError:
        parser.error(f"--base: no package at git revision {args.base!r}")
    width = max(map(len, [*counts, *(base or ()), "total"]))
    if base is None:
        for name, n in counts.items():
            print(f"{name:<{width}} {n:>6,}")
        print(f"{'total':<{width}} {sum(counts.values()):>6,}")
        return
    print(f"{'':<{width}} {'base':>6} {'work':>6} {'diff':>6}")
    for name in sorted(base.keys() | counts.keys()):
        was, now = base.get(name, 0), counts.get(name, 0)
        print(f"{name:<{width}} {was:>6,} {now:>6,} {now - was:>+6,}")
    was, now = sum(base.values()), sum(counts.values())
    print(f"{'total':<{width}} {was:>6,} {now:>6,} {now - was:>+6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
