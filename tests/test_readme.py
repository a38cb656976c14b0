"""README's Quick start runs as written, and each commented result is what it shows."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Quick start\s+```python\n(.*?)```", text, re.S).group(1)


def shown(comment: str):
    """The value a ``# result`` comment shows; a trailing "(remark)" is not part of it."""
    try:
        return ast.literal_eval(comment)
    except (SyntaxError, ValueError):
        return ast.literal_eval(comment.split(" (")[0])


def test_quick_start_results():
    namespace: dict = {}
    checked = []
    for line in quick_start().splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        statement = ast.parse(code).body[0]
        if isinstance(statement, ast.Expr):
            got = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            assert got == shown(comment.strip()), line
            checked.append(code.strip())
        else:
            exec(compile(code, "README", "exec"), namespace)
    assert len(checked) == 6
