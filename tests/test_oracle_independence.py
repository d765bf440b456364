"""Oracles share no code with the engines they check, read off the call graph.

The graph is built with `ast` from the package source and errs towards
reaching too much.  Its nodes are the top-level functions, classes and
assigned names of each module.  A node reaches:

  * each name it reads that its module defines or imports from the package;
  * for each attribute `.f` it reads, every function or method named f in
    the package, whatever the object;
  * for a class, everything its methods reach.

Dispatch by strings (`getattr`, `globals()`) escapes the graph; the package
does not use it on these paths.  A test also checks that the graph sees
each engine reach its own entry points, so that a vacuous graph fails.
"""
import ast
from pathlib import Path

import pytest

import spanpoly

PKG = Path(spanpoly.__file__).parent

# oracle -> the engine functions it checks and must not reach
ORACLES = {
    "mackey.burnside_table_bruteforce": ("mackey.table_of_marks", "mackey.burnside_table"),
    "poly.eval_semiring": ("poly.compose_poly", "poly.normalize_word", "poly._rewrite_pair",
                           "poly.distribute"),
}

# engine entry point -> an engine function the graph must see it reach
ENGINE_PATHS = {
    "mackey.burnside_table": "mackey.table_of_marks",
    "poly.compose_poly": "poly.distribute",
}


def _call_graph():
    """(edges, methods): node -> names it reaches, and method name -> its owning nodes."""
    edges, methods = {}, {}
    for path in sorted(PKG.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        local = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    local[alias.asname or alias.name] = f"{node.module}.{alias.name}"
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
                elif isinstance(sub, ast.Attribute):
                    out.add("." + sub.attr)
                elif sub is not node and isinstance(sub, ast.FunctionDef):
                    methods.setdefault(sub.name, set()).add(key)
            edges[key] = out
            if isinstance(node, ast.FunctionDef):
                methods.setdefault(name, set()).add(key)
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


@pytest.fixture(scope="module")
def graph():
    return _call_graph()


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
