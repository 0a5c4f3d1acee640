"""Count the code lines of each module of ``src/ridesim`` and ``tools``,
each directory's total and the total of both, each with the import lines
among them and the code lines left without those.

A code line holds a token other than a comment; a docstring (the string
that opens a module, class or function body) counts as no code. Blank
lines, comment lines and docstrings are thus left out, and a statement
spread over several lines counts each of them. An import line is a code
line of an ``import`` or ``from ... import`` statement. Run from anywhere,
with the standard library only::

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


def import_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every import statement in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> tuple[int, int]:
    """The number of code lines in ``source``, and of import lines among
    them."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    tree = ast.parse(source)
    lines -= docstring_lines(tree)
    return len(lines), len(lines & import_lines(tree))


def row(name: str, code: int, imports: int) -> str:
    """One line of the table: code lines, import lines and the rest."""
    return f"{name:<18} {code:>5} {imports:>7} {code - imports:>5}"


def main() -> int:
    print(f"{'':<18} {'code':>5} {'imports':>7} {'other':>5}")
    total = total_imports = 0
    for directory in DIRECTORIES:
        counts = {path.name: code_lines(path.read_text())
                  for path in sorted(directory.glob("*.py"))}
        for name, (code, imports) in counts.items():
            print(row(name, code, imports))
        code = sum(code for code, _ in counts.values())
        imports = sum(imports for _, imports in counts.values())
        print(row("total " + directory.name, code, imports))
        total += code
        total_imports += imports
    print(row("total", total, total_imports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
