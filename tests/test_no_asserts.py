"""The library guards its answers with exceptions, never `assert`:
`python -O` strips assert statements, and an unchecked answer would
then stay in the structure store for the rest of the process."""

import ast
from pathlib import Path

import atomcat


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(Path(atomcat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, found
