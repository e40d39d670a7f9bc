"""Every module-level function of the library, and every method of a
module-level class other than a dunder method, has a caller somewhere
in `src/atomcat` or `perfbench/`; public and private names are checked
apart.  Tests do not count as callers, so a function or method that
only its own tests call fails here: delete it, or give it a use.

A function counts as used only where the use reaches its own module: a
name read inside that module, a `module.name` attribute on a name bound
to that module by an import, or a name imported from that module
(`from .module import name`) and then read.  An export is not a use: an
import into the package namespace by `atomcat/__init__.py` reads no
name and counts for nothing.  A method counts as used wherever a `Name`
or `Attribute` node names it.

Every parameter of a function, method or lambda in `src/atomcat` is
read in its body, but for three named signatures that a caller fixes:
the `F2Ops`/`FpOps` methods, whose one shape across both fields
`test_kernels.py::test_both_kernels_have_one_ops_shape` holds; the
`cli.cmd_*` handlers, which `cli.COMMANDS` dispatches with (args, cfg);
and the callbacks handed to `terms.fold`, which it calls with the term
whatever they read of it."""

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


def _package_module(node):
    """The `atomcat` module an `ImportFrom` reads names from: "" for the
    package itself, None outside it."""
    if node.level == 0:
        if node.module == "atomcat":
            return ""
        if node.module and node.module.startswith("atomcat."):
            return node.module[len("atomcat."):]
        return None
    return node.module or ""


def _reached(tree):
    """The (module, name) pairs a tree reaches outside its own module:
    `module.name` attributes and names imported from a module, read."""
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node)
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "":
                    modules[local] = alias.name
                elif source is not None:
                    imported[local] = (source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("atomcat."):
                    modules[alias.asname] = alias.name[len("atomcat."):]
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and node.id in imported:
            out.add(imported[node.id])
    return out


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _unused_functions():
    src = _trees(SRC)
    used = set().union(*map(_reached, [*src.values(),
                                       *_trees(PERFBENCH).values()]))
    used |= {(module, node.id) for module, tree in src.items()
             for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(module, node.name) for module, tree in src.items()
            for node in tree.body if isinstance(node, ast.FunctionDef)
            and (module, node.name) not in used]


def _unused_methods():
    src = _trees(SRC)
    named = _named([*src.values(), *_trees(PERFBENCH).values()])
    return [(f"{module}.{cls.name}", node.name)
            for module, tree in src.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name not in named]


def test_every_public_function_has_a_caller():
    unused = [f"{m}.{name}" for m, name in _unused_functions()
              if not name.startswith("_")]
    assert not unused, ", ".join(unused)


def test_every_private_function_has_a_caller():
    unused = [f"{m}.{name}" for m, name in _unused_functions()
              if _private(name)]
    assert not unused, ", ".join(unused)


def test_every_public_method_has_a_caller():
    unused = [f"{c}.{name}" for c, name in _unused_methods()
              if not name.startswith("_")]
    assert not unused, ", ".join(unused)


def test_every_private_method_has_a_caller():
    unused = [f"{c}.{name}" for c, name in _unused_methods()
              if _private(name)]
    assert not unused, ", ".join(unused)


KERNEL_CLASSES = {"F2Ops", "FpOps"}


def _fold_callbacks(trees):
    """The names passed to a `fold(...)` call as its callbacks."""
    return {arg.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "fold"
            for arg in node.args if isinstance(arg, ast.Name)}


def _fixed_signatures(module, tree, callbacks):
    """The function nodes whose parameters a caller fixes: the kernel
    methods, the `cli.cmd_*` handlers and the `fold` callbacks."""
    fixed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in KERNEL_CLASSES:
            fixed.update(ast.walk(node))
        elif isinstance(node, ast.FunctionDef) and (
                node.name in callbacks
                or module == "cli" and node.name.startswith("cmd_")):
            fixed.add(node)
    return fixed


def _unread_parameters(tree, fixed):
    """(function, parameter) for each parameter other than self that no
    `Name` in its function's body reads, the `fixed` functions left out."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)) or node in fixed:
            continue
        a = node.args
        body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        out += [(getattr(node, "name", "<lambda>"), x.arg)
                for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg,
                          a.kwarg)
                if x is not None and x.arg != "self" and x.arg not in read]
    return out


def test_every_parameter_is_read():
    src = _trees(SRC)
    callbacks = _fold_callbacks(src.values())
    unread = [f"{module}.{name}({x})" for module, tree in src.items()
              for name, x in _unread_parameters(
                  tree, _fixed_signatures(module, tree, callbacks))]
    assert not unread, ", ".join(unread)
