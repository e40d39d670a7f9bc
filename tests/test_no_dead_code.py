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
or `Attribute` node names it, so a method name that two classes define
is listed in `SHARED_METHODS` with the caller of each class's copy.

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


# Every method name that two or more classes define, the kernel classes
# left out (they share one shape on purpose).  `_unused_methods` counts
# a name read anywhere as a use of every method of that name, so a dead
# method could hide behind a live namesake: here each class's copy names
# the function or method (`module.qualified name`, `perfbench.` for the
# benchmark's files) whose read of the name is on that class.  A new
# shared name, or a new class sharing one, fails until it is added here.
SHARED_METHODS = {
    "colors": {"linmod.FdModule": "linmod.FdModule.action_stack",
               "quiver.ColoredQuiver": "quiver.full_subquiver"},
    "key": {"linmod.FdModule": "linmod.FdModule.stored",
            "linmod.Submodule": "linmod.Submodule.__hash__"},
    "labels": {"atomspec.AtomSet": "atomspec.SpectrumReport.opens",
               "predictor.SymbolicSpectrum": "predictor.check_max_not_open"},
    "opens": {"atomspec.SpectrumReport": "perfbench.tracer._opens",
              "ordertop.FiniteTopology": "ordertop.FiniteTopology.to_json"},
    "to_dot": {"ordertop.Poset": "cli.cmd_spectrum",
               "quiver.ColoredQuiver": "cli.cmd_spectrum"},
    "to_json": {"atomspec.Atom": "atomspec.SpectrumReport.to_json",
                "atomspec.SpectrumReport": "cli.cmd_spectrum",
                "errors.AtomcatError": "cli.cli_dispatch",
                "harness.SuiteResult": "cli.cmd_verify",
                "ordertop.Poset": "cli.cmd_convert",
                "ordertop.FiniteTopology": "cli.cmd_convert",
                "predictor.SymbolicSpectrum": "cli._construction_report",
                "predictor.DiffReport": "cli._construction_report",
                "quiver.ColoredQuiver": "quiver.GeneratedQuiver.to_json",
                "quiver.GeneratedQuiver": "cli._construction_report"},
}


def _shared_method_names():
    """{name: classes} for every non-dunder method name that two or
    more classes of `src/atomcat` define, the kernel classes left out."""
    defs = {}
    for module, tree in _trees(SRC).items():
        for cls in tree.body:
            if (isinstance(cls, ast.ClassDef)
                    and cls.name not in KERNEL_CLASSES):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not (
                            node.name.startswith("__")
                            and node.name.endswith("__")):
                        defs.setdefault(node.name, set()).add(
                            f"{module}.{cls.name}")
    return {name: cls for name, cls in defs.items() if len(cls) > 1}


def _functions():
    """`module.qualified name` -> node for every module-level function and
    method of `src/atomcat`, and of `perfbench` under `perfbench.`."""
    out = {}
    for prefix, folder in (("", SRC), ("perfbench.", PERFBENCH)):
        for module, tree in _trees(folder).items():
            for node in tree.body:
                cls = isinstance(node, ast.ClassDef)
                scope = f"{prefix}{module}." + (f"{node.name}." if cls else "")
                out.update((scope + f.name, f)
                           for f in (node.body if cls else [node])
                           if isinstance(f, ast.FunctionDef))
    return out


def test_shared_method_names_are_reviewed():
    assert _shared_method_names() == {
        name: set(callers) for name, callers in SHARED_METHODS.items()}
    functions = _functions()
    unread = [f"{cls}.{name} by {caller}"
              for name, callers in SHARED_METHODS.items()
              for cls, caller in callers.items()
              if caller not in functions
              or name not in _named([functions[caller]])]
    assert not unread, ", ".join(unread)


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
