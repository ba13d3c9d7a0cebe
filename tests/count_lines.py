"""Print the line counts of ``src/``: total, code and docstring lines.

A docstring line is any line of a module, class or function docstring (its
``ast`` span). A code line is any other line that is neither blank nor a
comment. Run from the repository root:

    python tests/count_lines.py
"""

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def docstring_lines(tree) -> set:
    """The line numbers covered by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(total, code, docstring) lines of the Python file at ``path``."""
    text = path.read_text()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    with path.open("rb") as fh:
        comments = {tok.start[0] for tok in tokenize.tokenize(fh.readline) if tok.type == tokenize.COMMENT}
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and i not in docs and not (i in comments and line.lstrip().startswith("#")))
    return len(lines), code, len(docs)


def main() -> int:
    totals = [sum(column) for column in zip(*(count(p) for p in sorted(SRC.rglob("*.py"))))]
    print("src/ lines: {:,} total, {:,} code, {:,} docstring".format(*totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
