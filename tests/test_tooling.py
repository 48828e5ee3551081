"""Source-level rules for the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "overpart"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a check written as one
    # silently stops running; package checks raise typed errors instead
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
