"""Tracing from outside the program: spans around calls into each layer.

A layer is a module of the `spanpoly` package.  `install` must run before
`spanpoly` is imported: it times each module's import as a span named
`<layer>.import`, then, once the package is loaded, `wrap_package` rebinds
every `spanpoly.*` module attribute that points at a public function to a
wrapper recording a span `<layer>.<function>`, and wraps the `__init__` of
the large constructions.  Calls through references taken before wrapping
(such as functions stored in a dict at import time) are not seen.
A generator function's span covers only the call that creates the
generator; the work done while it is consumed counts to the consumer.

Spans (name, start, end, parent) go into flat arrays in memory and are
written at process exit, together with the counts recorded at the same
boundaries.
"""
from __future__ import annotations

import atexit
import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
import types
from array import array

CONSTRUCTIONS = (("finact", "Pullback"), ("finact", "ProductDiagram"),
                 ("finact", "PiData"), ("spans", "SpanComposite"))
ISO_SEARCHES = (("finact", "iso_gsets"), ("finact", "slice_iso"))


class Recorder:
    """Spans in flat arrays plus named counters, written out at exit."""

    def __init__(self, path: str):
        self.path = path
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.seen: dict[str, set] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def repeat(self, key: str, arg) -> bool:
        """Whether arg was seen before under key; remembers it."""
        seen = self.seen.setdefault(key, set())
        if arg in seen:
            return True
        seen.add(arg)
        return False

    def traced(self, fn, name: str, after=None):
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (self.name, self.parent, self.start,
                                               self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def dump(self) -> None:
        with open(self.path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(self.path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "n": len(self.start),
                       "counters": self.counters}, fh)


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, loader, run):
        self._loader = loader
        self._run = run

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._run(self._loader.exec_module, module)


class _ImportTimer(importlib.abc.MetaPathFinder):
    """Records `<layer>.import` spans for the package's submodules."""

    def __init__(self, rec: Recorder, package: str):
        self.rec = rec
        self.prefix = package + "."

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith(self.prefix):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        layer = fullname[len(self.prefix):]
        spec.loader = _TimedLoader(
            spec.loader, self.rec.traced(lambda exec_module, m: exec_module(m),
                                         f"{layer}.import"))
        return spec


def install(path: str, package: str = "spanpoly") -> Recorder:
    rec = Recorder(path)
    sys.meta_path.insert(0, _ImportTimer(rec, package))
    atexit.register(rec.dump)
    return rec


def _after_hooks(rec: Recorder) -> dict:
    def subgroups(args, result):
        if rec.repeat("subgroups", args[0]):
            rec.count("groups.subgroups.repeats")
        else:
            rec.count("groups.subgroups_found", len(result))

    def atoms(args, result):
        if rec.repeat("atoms", args[0]):
            rec.count("mackey.atoms.repeats")

    def pullback(args, result):
        pb = args[0]
        rec.count("finact.pullback_pair_space", pb.f.dom.size * pb.g.dom.size)
        rec.count("finact.pullback_points", pb.gset.size)

    def build(args, result):
        rec.count("finact.points_built", result.gset.size)

    def pidata(args, result):
        rec.count("finact.pi_sections", args[0].con.gset.size)

    def iso(args, result):
        if result is not None:
            rec.count("finact.iso_search.found")

    def normalize(args, result):
        rec.count("poly.rules_fired", len(result[1]))

    def dump(args, result):
        rec.count("workspace.bytes_out", len(result.encode("utf-8")))

    hooks = {("groups", "subgroups"): subgroups, ("mackey", "atoms"): atoms,
             ("finact", "Pullback"): pullback, ("finact", "build_gset"): build,
             ("finact", "PiData"): pidata, ("poly", "normalize_word"): normalize,
             ("workspace", "dump_json"): dump}
    hooks.update({key: iso for key in ISO_SEARCHES})
    return hooks


def wrap_package(rec: Recorder, package: str = "spanpoly") -> int:
    """Rebind every module attribute that points at a public function; returns the count."""
    modules = {name[len(package) + 1:]: mod for name, mod in list(sys.modules.items())
               if name.startswith(package + ".") and mod is not None}
    hooks = _after_hooks(rec)
    replaced: dict[int, object] = {}
    for layer, mod in sorted(modules.items()):
        for attr, obj in list(vars(mod).items()):
            is_function = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
            if (attr.startswith("_") or not is_function
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            replaced[id(obj)] = rec.traced(obj, f"{layer}.{attr}", hooks.get((layer, attr)))
    for layer, cls_name in CONSTRUCTIONS:
        cls = getattr(modules[layer], cls_name)
        cls.__init__ = rec.traced(cls.__init__, f"{layer}.{cls_name}",
                                  hooks.get((layer, cls_name)))
    targets = list(modules.values()) + [sys.modules[package]]
    for mod in targets:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    return len(replaced)
