#!/usr/bin/env python3
"""Count the code lines of Python files: lines that hold code, not prose.

A line counts when it holds a token other than a comment, a line break,
an indent or a dedent, and lies outside every module, class and
function docstring.  A token that spans lines, such as a multi-line
string that is not a docstring, counts on each line it spans.  Blank
lines, comment lines and docstrings count nothing.

    python3 scripts/code_lines.py src/semipi/*.py

prints each file's count and then the total.
"""

import ast
import io
import sys
import tokenize

#: Tokens that hold no code by themselves.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}

_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source, by the rule in the module docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: code_lines.py FILE...", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
