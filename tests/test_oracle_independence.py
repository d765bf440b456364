"""Read off the package's call graph: oracles share no code with the engines
they check, and the package holds only code that something other than a test
runs.

The graph is built with `ast` from the package source and errs towards
reaching too much.  Its nodes are the top-level functions, classes and
assigned names of each module.  A node reaches:

  * each name it reads that its module defines or imports from the package,
    and each name it imports from the package inside its body;
  * for each attribute `m.f` it reads on a module m of the package (as
    `from . import m` binds it), the node f of m;
  * for each other attribute `.f` it reads, every method or nested function
    named f in the package, whatever the object;
  * for a class, everything its methods reach.

Dispatch by strings (`getattr`, `globals()`) escapes the graph; the package
does not use it on these paths.  A test also checks that the graph sees
each engine reach its own entry points, so that a vacuous graph fails.

The library's roots are what runs it: the command line (`cli.main`), the
suites and `run_suite`, the package's exports and module body, and what the
scripts and the benchmark import or look up by name.  Every top-level
definition must be reached from a root, except the names in KEPT, which
must stay unreached, so that the list can only shrink.  Helpers that only
tests use live in `tests/helpers.py`.  No module may import a name, from the
package or from the standard library, that it never reads.
"""
import ast
from pathlib import Path

import pytest

import spanpoly

PKG = Path(spanpoly.__file__).parent
REPO = Path(__file__).resolve().parents[1]

# oracle -> the engine functions it checks and must not reach
ORACLES = {
    "mackey.burnside_table_bruteforce": ("mackey.table_of_marks", "mackey.burnside_table"),
    "mackey.burnside_table_double_cosets": ("mackey.table_of_marks", "mackey.burnside_table"),
    "poly.enumerate_spanspan_2cells": ("poly.enumerate_poly_morphisms", "poly.poly_morphism"),
    "poly.eval_semiring": ("poly.compose_poly", "poly.normalize_word", "poly._rewrite_pair",
                           "poly.distribute"),
}

# engine entry point -> an engine function the graph must see it reach
ENGINE_PATHS = {
    "mackey.burnside_table": "mackey.table_of_marks",
    "poly.compose_poly": "poly.distribute",
}

# top-level definitions that no root reaches yet, each kept for named work:
# the subgroup classes start the lattice up to conjugacy, Mackey functors
# given as orbit data and small-scope certification (ROADMAP items 3, 7, 15)
KEPT = frozenset({"groups.subgroup_class_reps"})

# the entry points that run the package, besides what `_roots` reads off
ENTRY_POINTS = ("cli.main", "suites.SUITES", "suites.run_suite")


def _call_graph():
    """(edges, methods): node -> names it reaches, and method name -> its owning nodes."""
    edges, methods = {}, {}
    for path in sorted(PKG.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        local, modules = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        local[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    else:
                        modules[alias.asname or alias.name] = alias.name
        bodies = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target]):
                    if isinstance(target, ast.Name):
                        bodies[target.id] = node
        for name, node in bodies.items():
            local[name] = f"{mod}.{name}"
        for name, node in bodies.items():
            key = f"{mod}.{name}"
            out = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in local:
                    out.add(local[sub.id])
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id in modules):
                    out.add(f"{modules[sub.value.id]}.{sub.attr}")
                elif isinstance(sub, ast.Attribute):
                    out.add("." + sub.attr)
                elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
                    out.update(f"{sub.module}.{alias.name}" for alias in sub.names)
                elif sub is not node and isinstance(sub, ast.FunctionDef):
                    methods.setdefault(sub.name, set()).add(key)
            edges[key] = out
    return edges, methods


def _reach(start, edges, methods):
    seen, stack = {start}, [start]
    while stack:
        for ref in edges.get(stack.pop(), ()):
            for node in methods.get(ref[1:], ()) if ref.startswith(".") else (ref,):
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
    return seen


def _roots(edges):
    """The nodes that run the package: ENTRY_POINTS, the exports, the module
    body of `spanpoly`, what `scripts/` and `perfbench/` import from its
    modules, and each pair of string constants (module, name) there, which
    is how the benchmark's tracer looks its hooks up."""
    modules = {path.stem for path in PKG.glob("*.py")}
    roots = set(ENTRY_POINTS)
    roots.update(f"{module}.{name}" for name, module in spanpoly._HOME.items())
    roots.update(node for node in edges if node.startswith("__init__."))
    for path in sorted((REPO / "scripts").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spanpoly."):
                module = node.module.split(".", 1)[1]
                roots.update(f"{module}.{alias.name}" for alias in node.names)
            elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
                  and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                          for e in node.elts)
                  and node.elts[0].value in modules):
                roots.add(".".join(e.value for e in node.elts))
    return roots


def _unread_imports(path):
    """The names a module imports, outside `__future__`, and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.fixture(scope="module")
def graph():
    return _call_graph()


@pytest.fixture(scope="module")
def reached(graph):
    edges, methods = graph
    out = set()
    for root in _roots(edges):
        out |= _reach(root, edges, methods)
    return out


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracle_reaches_none_of_its_engine(oracle, graph):
    edges, methods = graph
    assert oracle in edges
    reached = _reach(oracle, edges, methods)
    assert not reached & set(ORACLES[oracle])


@pytest.mark.parametrize("engine", sorted(ENGINE_PATHS))
def test_graph_sees_the_engines_own_calls(engine, graph):
    edges, methods = graph
    assert ENGINE_PATHS[engine] in _reach(engine, edges, methods)


def test_roots_name_package_definitions(graph):
    edges, _ = graph
    assert sorted(_roots(edges) - set(edges)) == []


def test_every_definition_is_run_by_the_library(graph, reached):
    edges, _ = graph
    assert sorted(set(edges) - reached - KEPT) == []


@pytest.mark.parametrize("name", sorted(KEPT))
def test_kept_definitions_have_no_caller(name, graph, reached):
    edges, _ = graph
    assert name in edges
    assert name not in reached


@pytest.mark.parametrize("module", sorted(path.stem for path in PKG.glob("*.py")))
def test_no_module_imports_a_name_it_never_reads(module):
    assert _unread_imports(PKG / f"{module}.py") == []
