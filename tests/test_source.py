"""Rules on the library source itself."""

import ast
from pathlib import Path

import omegalab


def _library_nodes(matches):
    src = Path(omegalab.__file__).parent
    return [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path))) if matches(node)]


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and a check must survive it
    found = _library_nodes(lambda node: isinstance(node, ast.Assert))
    assert not found, found


def test_library_never_reads_debug():
    # __debug__ is the other thing python -O changes; with neither it nor
    # assert in the library, -O cannot change what the library does
    found = _library_nodes(lambda node: isinstance(node, ast.Name) and node.id == "__debug__")
    assert not found, found
