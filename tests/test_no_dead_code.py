"""Every public module-level function of the library, and every public
method of a module-level class, has a caller: a `Name` or `Attribute`
node naming it somewhere in `src/atomcat` or `perfbench/`.  An export
is not a use: an import into the package namespace by
`atomcat/__init__.py` names no `Name` node and counts for nothing.
Tests do not count as callers either, so a function or method that
only its own tests call fails here: delete it, or give it a use."""

import ast
from pathlib import Path

import atomcat

SRC = Path(atomcat.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees(folder):
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(folder.glob("*.py"))}


def _named(trees):
    """Every name a `Name` or `Attribute` node of the trees reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_function_has_a_caller():
    src = _trees(SRC)
    named = _named([*src.values(), *_trees(PERFBENCH).values()])
    unused = [f"{module}.{node.name}" for module, tree in src.items()
              for node in tree.body if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and node.name not in named]
    assert not unused, ", ".join(unused)


def test_every_public_method_has_a_caller():
    src = _trees(SRC)
    named = _named([*src.values(), *_trees(PERFBENCH).values()])
    unused = [f"{module}.{cls.name}.{node.name}"
              for module, tree in src.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and node.name not in named]
    assert not unused, ", ".join(unused)
