"""Checks in the library must survive `python -O`, which strips `assert`."""

import ast
from pathlib import Path

import vcgap


def test_library_has_no_assert_statements():
    root = Path(vcgap.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"
