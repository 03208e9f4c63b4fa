"""Module layout of the package: imports sit at module level, every imported
name is used, every module-level function and class and every method has a
reader, the intra-package import graph has no cycle, every function the
benchmark's tracer wraps is where it looks for it, and one function starts
worker processes."""

import ast
import importlib
from pathlib import Path

import fdcluster

PACKAGE = Path(fdcluster.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _local_imports(tree):
    """(line, text) of every import statement inside a function body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((inner.lineno, ast.unparse(inner)))
    return found


def _package_imports(tree):
    """Names of the package modules a module imports, wherever the import sits."""
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                names = [alias.name for alias in node.names]   # from . import x
            elif node.level == 1:
                names = [node.module.split(".")[0]]
            elif node.module and node.module.split(".")[0] == "fdcluster":
                parts = node.module.split(".")
                names = parts[1:2] or [alias.name for alias in node.names]
            else:
                names = []
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[1] for alias in node.names
                     if alias.name.startswith("fdcluster.")]
        else:
            continue
        targets.update(name for name in names if name in MODULES)
    return targets


def _unused_imports(tree):
    """Names a module imports but never reads (``__future__`` features aside)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def _find_cycle(graph):
    """One import cycle as a list of module names, or None."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(graph[name]):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        cycle = visit(name)
        if cycle:
            return cycle
    return None


def test_modules_found():
    assert {"basis", "mixtures", "tclust", "selection", "simstudy",
            "pipeline", "cli"} <= set(MODULES)


def test_no_import_inside_a_function():
    local = {name: found for name, tree in MODULES.items()
             if (found := _local_imports(tree))}
    assert local == {}


def test_every_imported_name_is_used():
    # the package root re-exports what it imports, so it is not checked
    unused = {name: found for name, tree in MODULES.items()
              if name != "__init__" and (found := _unused_imports(tree))}
    assert unused == {}


def test_unused_import_finder():
    tree = ast.parse("from __future__ import annotations\nimport os, numpy as np\n"
                     "from .mixtures import a, b as c\nnp.zeros(c())\n")
    assert _unused_imports(tree) == ["a", "os"]


def test_import_graph_has_no_cycle():
    graph = {name: _package_imports(tree) - {name} for name, tree in MODULES.items()}
    assert _find_cycle(graph) is None


def test_cycle_finder_reports_a_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}
    assert _find_cycle(graph) == ["a", "b", "c", "a"]
    graph = {"a": {"b"}, "b": set(), "c": {"a", "b"}}
    assert _find_cycle(graph) is None


def test_function_local_import_is_an_edge():
    tree = ast.parse("def f():\n    from .tclust import trimmed_kmeans\n")
    assert _local_imports(tree) == [(2, "from .tclust import trimmed_kmeans")]
    assert _package_imports(tree) == {"tclust"}


def _patch_sites(tree):
    """The literal PATCH_SITES tuple of the tracer's module."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "PATCH_SITES"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("PATCH_SITES not found")


def test_every_traced_function_resolves():
    # a site that no longer resolves reports its layer as null, which
    # makes a traced benchmark run's result line unusable
    sites = _patch_sites(ast.parse(TRACER.read_text(), filename=str(TRACER)))
    assert sites
    missing = [(module, attr) for _, module, attr in sites
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def _has_reference(trees, name, definition):
    """Whether any node of the package outside `definition` reads `name`,
    as a bare name or an attribute."""
    stack = list(trees.values())
    while stack:
        node = stack.pop()
        if node is definition:
            continue
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _unread_definitions(trees, traced):
    """(module, name) of every module-level function and class, and every
    method and property of a module-level class ("Class.name"), with no
    reader: no reference to its name outside its own definition, anywhere in
    the package. Dunders are exempt (the language calls them), and so are
    dataclass fields; a module-level name imported in ``__init__`` (an
    export) or named by a tracer patch site in `traced` counts as read."""
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            if (node.name not in exported and node.name not in traced
                    and not _has_reference(trees, node.name, node)):
                unread.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                unread.extend((module, f"{node.name}.{method.name}")
                              for method in node.body
                              if isinstance(method, functions)
                              and not (method.name.startswith("__")
                                       and method.name.endswith("__"))
                              and not _has_reference(trees, method.name, method))
    return sorted(unread)


def test_every_definition_has_a_reader():
    # a helper, class, method or property only tests read is code the
    # program carries for nothing
    traced = {attr for _, _, attr in
              _patch_sites(ast.parse(TRACER.read_text(), filename=str(TRACER)))}
    assert _unread_definitions(MODULES, traced) == []


def test_unread_definition_finder():
    trees = {name: ast.parse(text) for name, text in {
        "__init__": "from .a import Exported\n",
        "a": ("def used():\n    pass\ndef unused():\n    pass\n"
              "def traced():\n    pass\ndef recursive():\n    return recursive()\n"
              "class Exported:\n    pass\nclass Annotation:\n    pass\n"),
        "b": ("from . import a\nfrom .a import used\nused()\n"
              "def f(x: Annotation):\n    return a.unused\n"),
        "c": ("from dataclasses import dataclass\n"
              "@dataclass\nclass Holder:\n    field_only_tests_read: int = 0\n"
              "    def __post_init__(self):\n        self.check()\n"
              "    def check(self):\n        pass\n"
              "    def lonely(self):\n        return self.lonely()\n"
              "    @property\n    def size(self):\n        return 1\n"
              "    @property\n    def shown(self):\n        return 2\n"
              "print(Holder().shown)\n"),
    }.items()}
    assert _unread_definitions(trees, {"traced"}) == [
        ("a", "recursive"), ("b", "f"), ("c", "Holder.lonely"), ("c", "Holder.size")]


def _functions_calling(tree, name):
    """Qualified names of the functions whose own bodies call `name`
    (as a bare name or an attribute); a call at module level counts as
    '<module>'."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                visit(child, inner)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.add(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_one_function_forks_worker_processes():
    # a run forks its workers once, in the pool; a second construction site
    # would bring back a pool per phase
    sites = {f"{module}.{scope}" for module, tree in MODULES.items()
             for scope in _functions_calling(tree, "ProcessPoolExecutor")}
    assert sites == {"tclust.TaskPool.map"}


def test_call_site_finder():
    tree = ast.parse("import concurrent.futures as cf\n"
                     "class P:\n    def go(self):\n        def inner():\n"
                     "            return cf.ProcessPoolExecutor(2)\n"
                     "        return ProcessPoolExecutor(1)\n"
                     "ProcessPoolExecutor(3)\n")
    assert _functions_calling(tree, "ProcessPoolExecutor") == {
        "P.go", "P.go.inner", "<module>"}
