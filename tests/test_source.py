"""Rules on the library source itself."""

import ast
from pathlib import Path

import omegalab


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and a check must survive it
    src = Path(omegalab.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
