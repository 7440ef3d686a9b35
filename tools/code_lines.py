#!/usr/bin/env python3
"""Lines of code in each src/conjsum module, not counting blank lines, comments or docstrings.

Usage, from the repository root:

    python3 tools/code_lines.py                      # this checkout
    python3 tools/code_lines.py /path/to/other/checkout

One line per module, then the total:

    <code lines> <module>
    <code lines> total

A line counts when it holds a token other than a comment or a docstring (the
string that opens a module, class or function body).  So a line shared by
code and a comment counts, and a change to docstrings or comments alone does
not move the total, as ``wc -l`` would.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT and token.start[0] not in docs:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT, help="checkout whose src/conjsum is counted")
    args = parser.parse_args()
    total = 0
    for path in sorted((args.root / "src" / "conjsum").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
