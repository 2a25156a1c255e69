"""Source guards over every module of the package."""

import ast
import dataclasses
import pathlib
import typing

import prodcheck
from prodcheck import equations, ioalg, prodterm, streamspec

SOURCES = sorted(pathlib.Path(ioalg.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    """Guards must hold under `python -O` too, which drops assert
    statements, so every module raises explicitly."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _call_graph(tree):
    """Function name -> names it calls, nested functions included in their
    parents' calls; a call through `super()` is left out."""
    calls: dict = {}
    todo = [tree]
    while todo:
        for node in ast.iter_child_nodes(todo.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = calls.setdefault(node.name, set())
                for sub in ast.walk(node):
                    f = sub.func if isinstance(sub, ast.Call) else None
                    if isinstance(f, ast.Name):
                        names.add(f.id)
                    elif isinstance(f, ast.Attribute):
                        via_super = isinstance(f.value, ast.Call) and getattr(f.value.func, "id", None) == "super"
                        if not via_super:
                            names.add(f.attr)
            todo.append(node)
    return calls


def _on_cycles(calls):
    cyclic = set()
    for start in calls:
        seen, todo = set(), [start]
        while todo:
            for w in calls.get(todo.pop(), ()):
                if w in calls and w not in seen:
                    seen.add(w)
                    todo.append(w)
        if start in seen:
            cyclic.add(start)
    return cyclic


def test_no_recursive_functions():
    """No function of the package calls itself, directly or through others
    of its module (matched by name), so nesting depth is bounded by caps
    and never by the interpreter's recursion limit."""
    found = {path.name: sorted(_on_cycles(_call_graph(ast.parse(path.read_text(encoding="utf-8"))))) for path in SOURCES}
    assert {name: cycle for name, cycle in found.items() if cycle} == {}
    recursive = ast.parse("def f(t):\n    return [f(c) for c in t]\ndef g(t):\n    return h(t)\ndef h(t):\n    return t.g()\n")
    assert _on_cycles(_call_graph(recursive)) == {"f", "g", "h"}


def test_term_methods_are_written_in_the_package():
    """Every production-term, stream-term and IO-expression class takes
    `__eq__`, `__hash__` and `__repr__` from a function written in a module
    of the package, never from dataclass code generation, whose methods
    recurse once per level and which the guard above cannot see."""
    package = pathlib.Path(ioalg.__file__).parent
    classes = typing.get_args(prodterm.ProdTerm) + typing.get_args(streamspec.Term) + typing.get_args(equations.IOExpr)
    assert len(classes) == 14
    found = {}
    for cls in classes:
        for name in ("__eq__", "__hash__", "__repr__"):
            code = getattr(getattr(cls, name), "__code__", None)
            found[cls.__name__, name] = code is not None and pathlib.Path(code.co_filename).parent == package
    assert found == dict.fromkeys(found, True)
    generated = dataclasses.dataclass(frozen=True)(type("Frozen", (), {"__annotations__": {"x": int}}))
    assert generated.__eq__.__code__.co_filename == "<string>"


def _dataclass_imports(tree):
    """Lines that import the standard library's `dataclasses`, whole or
    from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [node.lineno for name in names if name == "dataclasses"]
    return found


def test_no_dataclasses():
    """No module imports `dataclasses`: generating a class's methods costs
    about a millisecond per class at every start-up, and loading the module
    loads `inspect` too.  Records are slotted classes with written methods."""
    found = {path.name: _dataclass_imports(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    sample = ast.parse("import re, dataclasses\nfrom dataclasses import field\nfrom . import dataclasses\nimport dataclasses_x\n")
    assert _dataclass_imports(sample) == [1, 2]


_CACHES = ("cache", "lru_cache")


def _cache_uses(tree, allowed=()):
    """Lines that name functools.cache or lru_cache, outside the decorators
    of the functions named in `allowed`."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in allowed:
            exempt.update(id(sub) for d in node.decorator_list for sub in ast.walk(d))
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) and node.attr in _CACHES and getattr(node.value, "id", None) == "functools":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name in _CACHES]
    return sorted(found)


def test_no_cache_outlives_an_analysis():
    """Every operation is pure and keeps no state between analyses: a memo
    lives in one call.  Only the argument parser, the same for every
    command line, is cached.  A term's hash and reader are views kept on
    the term, not memos: they live and die with it."""
    found = {}
    for path in SOURCES:
        allowed = ("_build_parser",) if path.name == "cli.py" else ()
        lines = _cache_uses(ast.parse(path.read_text(encoding="utf-8")), allowed)
        if lines:
            found[path.name] = lines
    assert found == {}
    cli = ast.parse((pathlib.Path(ioalg.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    assert len(_cache_uses(cli)) == 1
    cached = ast.parse("import functools\n@functools.lru_cache(None)\ndef f(x):\n    return x\nfrom functools import cache\n")
    assert _cache_uses(cached) == [2, 5]


def _imported_modules(tree, modules):
    """The names in `modules`, the package's modules, that the tree imports
    anywhere: as `from . import m`, `from .m import x`, or the same spelled
    from `prodcheck`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base + "." + alias.name for alias in node.names] if base in (".", "prodcheck") else [base]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            module = name.rpartition(".")[2]
            if name.startswith((".", "prodcheck.")) and module in modules:
                found.add(module)
    return found


def test_imports_sit_at_module_level():
    """An import inside a function hides a dependency from the module's
    head, and with it any cycle it closes."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert found == []


def test_module_imports_are_one_way():
    """The modules of the package import one another without a cycle, so
    each layer builds only on the ones below it."""
    modules = {path.stem for path in SOURCES}
    imports = {path.stem: _imported_modules(ast.parse(path.read_text(encoding="utf-8")), modules) for path in SOURCES}
    assert imports["ioalg"] == set()
    assert _on_cycles(imports) == set()
    sample = ast.parse("from . import a, f\nfrom .b import x\nimport prodcheck.c, re\ndef f():\n    from prodcheck.d import y\n")
    assert _imported_modules(sample, {"a", "b", "c", "d", "re"}) == {"a", "b", "c", "d"}


# Definitions that only a caller outside the package reaches, with that caller.
OUTSIDE_CALLERS = {
    "cli._Parser.error": "argparse, on a malformed command line",
    "solver.TraceGraph.size": "perfbench/tracing.py, for the solver.graph_nodes count",
}


def _unnamed_definitions(trees, exported):
    """Qualified names (module.Class.name) of the functions, methods and
    classes defined in `trees` (module name -> tree) that no tree names,
    as a variable or an attribute, and that `exported` does not hold;
    special methods, which Python calls, are left out."""
    named, defined = set(exported), []
    for module, tree in trees.items():
        todo = [(tree, module)]
        while todo:
            node, path = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((child.name, path + "." + child.name))
                    todo.append((child, path + "." + child.name))
                else:
                    todo.append((child, path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(q for name, q in defined if name not in named and not (name.startswith("__") and name.endswith("__")))


def test_no_definition_exists_only_for_tests():
    """Every function, method and class of the package is named by some
    module of it, exported by `prodcheck.__all__`, or reached by a caller
    outside the package that `OUTSIDE_CALLERS` names: no wrapper is kept
    only so that a test can call it."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _unnamed_definitions(trees, prodcheck.__all__) == sorted(OUTSIDE_CALLERS)
    sample = ast.parse(
        "def used():\n    return C().m\ndef helper():\n    def inner():\n        pass\n    inner()\n"
        "def api():\n    pass\nclass C:\n    def __init__(self):\n        pass\n    def m(self):\n        pass\n"
        "    def left(self):\n        pass\nused()\n"
    )
    assert _unnamed_definitions({"s": sample}, ["api"]) == ["s.C.left", "s.helper"]
