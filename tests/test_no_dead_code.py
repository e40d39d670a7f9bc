"""Every public module-level function of the library has a caller: a
`Name` or `Attribute` node naming it somewhere in `src/atomcat` or
`perfbench/`, or an import into the package namespace by
`atomcat/__init__.py`.  Tests do not count as callers, so a function
that only its own tests call fails here: delete it, or give it a use."""

import ast
from pathlib import Path

import atomcat

SRC = Path(atomcat.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees(folder):
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(folder.glob("*.py"))}


def test_every_public_function_has_a_caller():
    src = _trees(SRC)
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in [*src.values(), *_trees(PERFBENCH).values()]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    used = named | {alias.name for node in src["__init__"].body
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
    unused = [f"{module}.{node.name}" for module, tree in src.items()
              for node in tree.body if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and node.name not in used]
    assert not unused, ", ".join(unused)
