"""Source-level checks on the library itself."""

import ast
from pathlib import Path

import qct

SRC = Path(qct.__file__).parent


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check the library relies on
    # must raise explicitly instead
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"
