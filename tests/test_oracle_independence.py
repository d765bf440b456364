"""Read off the package's call graph: oracles share no code with the engines
they check, and the package holds only code that something other than a test
runs.

The graph is built with `ast` from the package source and errs towards
reaching too much.  Its nodes are the top-level functions, classes and
assigned names of each module.  A node reaches:

  * each name it reads from module scope that its module defines or imports
    from the package, and each name it imports from the package inside its
    body; a read of a name that an enclosing function binds (a parameter, an
    assigned or imported name) or a comprehension's target is local, not a
    read of the module's definition;
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
definition must be reached from a root.  Helpers that only tests use live
in `tests/helpers.py`.  No module may import a name, from the
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

# the entry points that run the package, besides what `_roots` reads off
ENTRY_POINTS = ("cli.main", "suites.SUITES", "suites.run_suite")


def _call_graph():
    """(edges, methods): node -> names it reaches, and method name -> its owning nodes."""
    edges, methods = {}, {}
    for path in sorted(PKG.glob("*.py")):
        _module_graph(path.stem, ast.parse(path.read_text(encoding="utf-8")), edges, methods)
    return edges, methods


def _module_graph(mod, tree, edges, methods):
    """Add the nodes of module mod, parsed as tree, to edges and methods."""
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
        out = {local[ref] for ref in _free_names(node) if ref in local}
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id in modules):
                out.add(f"{modules[sub.value.id]}.{sub.attr}")
            elif isinstance(sub, ast.Attribute):
                out.add("." + sub.attr)
            elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
                out.update(f"{sub.module}.{alias.name}" for alias in sub.names)
            elif sub is not node and isinstance(sub, ast.FunctionDef):
                methods.setdefault(sub.name, set()).add(key)
        edges[key] = out


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _free_names(node, bound=frozenset()):
    """The names node reads from module scope: the names it loads that no
    function or comprehension around the read binds (see `_bound`).

    A function's decorators, defaults and annotations, and a comprehension's
    first iterable, are read in the enclosing scope.  A class body binds
    nothing here, so a read of a class attribute by its bare name counts as
    a read of the module's name."""
    if isinstance(node, ast.Name):
        return {node.id} if isinstance(node.ctx, ast.Load) and node.id not in bound else set()
    if isinstance(node, _FUNCTIONS):
        args = node.args
        outer = [*getattr(node, "decorator_list", ()), *args.defaults, *args.kw_defaults,
                 getattr(node, "returns", None), *(a.annotation for a in _params(args))]
        body = node.body if isinstance(node.body, list) else [node.body]
        return _reads(outer, bound) | _reads(body, bound | _bound(node))
    if isinstance(node, _COMPREHENSIONS):
        first = node.generators[0].iter
        rest = [sub for sub in ast.iter_child_nodes(node) if not isinstance(sub, ast.comprehension)]
        rest += [sub for gen in node.generators for sub in ast.iter_child_nodes(gen)
                 if sub is not first]
        return _free_names(first, bound) | _reads(rest, bound | _bound(node))
    return _reads(ast.iter_child_nodes(node), bound)


def _reads(nodes, bound):
    """`_free_names` over nodes, skipping None."""
    return set().union(*(_free_names(sub, bound) for sub in nodes if sub is not None))


def _params(args):
    """The parameters of a function's argument list."""
    return [a for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if a is not None]


def _bound(node):
    """The names a function or comprehension binds in its own scope.

    A comprehension binds its targets.  A function binds its parameters and
    each name its body stores, deletes, imports or defines or an except
    clause catches, less those it declares global or nonlocal; the bodies of
    nested functions, classes and comprehensions are not entered."""
    if isinstance(node, _COMPREHENSIONS):
        return {sub.id for gen in node.generators for sub in ast.walk(gen.target)
                if isinstance(sub, ast.Name)}
    names = {a.arg for a in _params(node.args)}
    if isinstance(node, ast.Lambda):
        return names
    declared, stack = set(), list(node.body)
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.Global, ast.Nonlocal)):
            declared.update(sub.names)
        elif isinstance(sub, ast.Name):
            if not isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(sub.name)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in sub.names)
        elif not isinstance(sub, _COMPREHENSIONS + (ast.Lambda,)):
            if isinstance(sub, ast.ExceptHandler) and sub.name:
                names.add(sub.name)
            stack.extend(ast.iter_child_nodes(sub))
    return names - declared


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


# a module whose dead `size` is shadowed, by name, wherever something reads `size`
SHADOWED = """
def size(x):
    return len(x)


def fill(x, size):
    return [size for _ in x]


def entry(x, *rest, **options):
    size = len(x)
    count = lambda size=size: size
    sizes = [size for size in x]
    for item in x:
        try:
            item()
        except ValueError as size:
            del size
    return fill(x, size), count(), sizes


def measure(x):
    return size(x)
"""


def test_a_name_bound_in_a_function_does_not_reach_the_module_definition():
    edges, methods = {}, {}
    _module_graph("demo", ast.parse(SHADOWED), edges, methods)
    assert _reach("demo.entry", edges, methods) == {"demo.entry", "demo.fill"}
    assert "demo.size" in _reach("demo.measure", edges, methods)


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
    assert sorted(set(edges) - reached) == []


@pytest.mark.parametrize("module", sorted(path.stem for path in PKG.glob("*.py")))
def test_no_module_imports_a_name_it_never_reads(module):
    assert _unread_imports(PKG / f"{module}.py") == []
