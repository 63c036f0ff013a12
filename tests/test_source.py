"""The library's checks run alike under `python -O`, which strips `assert`
statements and the blocks under `if __debug__:`: the source has neither."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "asym"


def test_no_check_is_stripped_under_optimize():
    stripped = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert stripped == []
