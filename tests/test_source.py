"""Checks of the source itself. The library's checks run alike under
`python -O`, which strips `assert` statements and the blocks under
`if __debug__:`: the source has neither. Each helper of the tests has one
home: a builder, reference or refusal that two modules share lives in
corpus.py, reference.py, ground_truth.py or conftest.py, or in a table."""

import ast
import collections
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "asym"


def test_no_check_is_stripped_under_optimize():
    stripped = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert stripped == []


def imported_modules(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_each_test_helper_is_defined_once_and_no_test_module_imports_another():
    homes = collections.defaultdict(list)
    imports = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes[node.name].append(path.name)
        imports += [f"{path.name}:{node.lineno} imports {module}" for node in ast.walk(tree)
                    for module in imported_modules(node) if module.startswith("test_")]
    assert {name: files for name, files in homes.items() if len(files) > 1} == {}
    assert imports == []
