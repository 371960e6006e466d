"""Print the total, docstring and code lines of the qamseq package.

Usage: python3 tools/src_lines.py [DIRECTORY]   (default: src/qamseq)

Total lines are those of every .py file, as `cat *.py | wc -l` counts them.
A docstring line is a line spanned by the docstring of a module, class or
function, as `ast` finds them.  A code line is a line that is not blank,
is not a comment and lies outside every docstring.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring of a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, int]:
    """(total, docstring, code) lines of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in docs and line.strip() and not line.strip().startswith("#"))
    return len(text.splitlines()), len(docs), code


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "qamseq"
    totals = [0, 0, 0]
    for path in sorted(root.glob("*.py")):
        counts = count(path)
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{path.name:20} total {counts[0]:5}  docstring {counts[1]:5}  code {counts[2]:5}")
    print(f"{'all':20} total {totals[0]:5}  docstring {totals[1]:5}  code {totals[2]:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
