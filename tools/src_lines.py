"""Count the logical source lines of the protcoord package.

    python tools/src_lines.py [ROOT]

A line counts when it holds at least one code token: blank lines,
comment-only lines and the lines of module, class and function
docstrings do not. Prints one count per file under ROOT/src/protcoord
(ROOT defaults to the repository holding this script) and the total.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def logical_lines(source: str) -> int:
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 \
        else Path(__file__).resolve().parent.parent
    package = root / "src" / "protcoord"
    total = 0
    for path in sorted(package.rglob("*.py")):
        n = logical_lines(path.read_text())
        total += n
        print(f"{n:6d} {path.relative_to(root)}")
    print(f"{total} total")


if __name__ == "__main__":
    main()
