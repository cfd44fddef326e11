"""Module boundaries of the aldlab package."""

import ast
from pathlib import Path

import aldlab

PACKAGE = Path(aldlab.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    # a `_`-prefixed name belongs to its module; code that needs one belongs in that module
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("aldlab")):
                crossings += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert crossings == []
