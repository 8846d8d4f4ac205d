"""Count the raw and code lines of each ``src/pfol`` module.

A code line holds a token of Python code. Blank lines, comment lines and the
lines of docstrings (the first string statement of a module, class or
function, found with ``ast``) do not count; the lines of any other string
literal do. Raw lines are all lines of the file.

Run it (from any directory) to print one row per module, then the total::

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pfol"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    total_raw = total_code = 0
    print(f"{'module':<16} {'raw':>6} {'code':>6}")
    for path in sorted(SRC.glob("*.py")):
        raw, code = count(path.read_text())
        total_raw += raw
        total_code += code
        print(f"{path.name:<16} {raw:>6} {code:>6}")
    print(f"{'total':<16} {total_raw:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
