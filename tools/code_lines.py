"""Count the code lines of each module under a directory (default: src).

A code line holds a token other than a comment; docstrings of modules,
classes and functions are not code. Prints one count per module and the
total. Standard library only:

    python tools/code_lines.py [directory]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        lines = {row for token in tokenize.tokenize(fh.readline) if token.type not in SKIPPED
                 for row in range(token.start[0], token.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
