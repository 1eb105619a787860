"""Count the lines of each module of a Python package: code, docstring and
comment-only lines, and their totals.

A line is read by `tokenize`.  A docstring line is a line of a module,
class or function docstring (the string expression that opens its body,
found by `ast`).  A code line is any other line holding a token that is
not a comment: every line a multi-line string expression spans counts.  A
comment-only line holds a comment and no other token.  Blank lines, and
the lines inside a docstring, are counted nowhere else.

Run it as:

    python tools/src_lines.py            # the package, src/weylfans
    python tools/src_lines.py DIR        # the *.py files of DIR
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The code, docstring and comment-only lines of one module's source."""
    docstring = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    return {"code": len(code), "docstring": len(docstring), "comment_only": len(comments - code - docstring)}


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "weylfans"
    total = {"code": 0, "docstring": 0, "comment_only": 0}
    print(f"{'module':<12} {'code':>6} {'docstring':>10} {'comment':>8}")
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for key, value in counts.items():
            total[key] += value
        print(f"{path.stem:<12} {counts['code']:>6} {counts['docstring']:>10} {counts['comment_only']:>8}")
    print(f"{'total':<12} {total['code']:>6} {total['docstring']:>10} {total['comment_only']:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
