"""Source-level rules for the package."""

import ast
import types
from pathlib import Path

import overpart

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


def test_all_lists_exactly_the_public_names():
    # a name dropped from the imports or from __all__ alone fails here
    public = {name for name, value in vars(overpart).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    listed = overpart.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(overpart, name)] == []
    assert set(listed) - {"__version__"} == public
