"""Count the code lines of each module of ``src/ridesim`` and ``tools``,
each directory's total and the total of both.

A code line holds a token other than a comment; a docstring (the string
that opens a module, class or function body) counts as no code. Blank
lines, comment lines and docstrings are thus left out, and a statement
spread over several lines counts each of them. Run from anywhere, with the
standard library only::

    python tools/code_lines.py
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = (ROOT / "src" / "ridesim", ROOT / "tools")

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for directory in DIRECTORIES:
        counts = {path.name: code_lines(path.read_text())
                  for path in sorted(directory.glob("*.py"))}
        for name, count in counts.items():
            print(f"{name:<18} {count:>5}")
        subtotal = sum(counts.values())
        print(f"{'total ' + directory.name:<18} {subtotal:>5}")
        total += subtotal
    print(f"{'total':<18} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
