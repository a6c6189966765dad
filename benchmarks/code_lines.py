"""Count the lines that hold code: the yardstick simplicity PRs cite.

A line counts when it holds at least one token that is neither a comment
nor part of a module/class/function docstring (blank lines, comment-only
lines and docstring lines do not).  Usage::

    python benchmarks/code_lines.py src/repro [more paths or files ...]
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, _OWNERS) and ast.get_docstring(node, clean=False) is not None:
            expr = node.body[0]
            docstrings.update(range(expr.lineno, expr.end_lineno + 1))
    lines = set()
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(paths) -> None:
    total = 0
    for path in map(Path, paths):
        for f in [path] if path.is_file() else sorted(path.rglob("*.py")):
            n = code_lines(f)
            total += n
            print(f"{n:7d}  {f}")
    print(f"{total:7d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
