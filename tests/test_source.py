"""Properties of the package source itself."""

import ast
from pathlib import Path

import wittcycles

PACKAGE_DIR = Path(wittcycles.__file__).parent


def test_no_assert_statements_in_package():
    """assert vanishes under python -O; exactness checks must raise."""
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
