#!/usr/bin/env python3
"""Count code lines per Python module: lines that hold a token of code,
leaving out docstrings, comments and blank lines.

Usage: tools/count_lines.py [DIR_OR_FILE ...]

With no argument it counts the modules of src/fogcoded in the tree the
script lives in.  Prints one `lines  path` row per module, then the total.
A statement over several lines counts each line that holds one of its
tokens; a string other than a docstring counts every line it spans.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """Where each module, class and function docstring starts, as the
    (row, column) of its string token."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in SKIP:
                continue
            if tok.type == tokenize.STRING and tok.start in docstrings:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(args: list[str]) -> list[Path]:
    roots = [Path(a) for a in args] or [Path(__file__).resolve().parents[1] / "src" / "fogcoded"]
    found = []
    for root in roots:
        found.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
