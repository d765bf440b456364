"""Workspace files: named groups, G-sets, maps, spans, polynomials, classes.

A workspace is a directory of JSON documents.  Each document holds one
entry or a list of entries; an entry is an object with a "kind" field
(group | gset | gmap | span | poly | class), a "name", and kind-specific
fields.  References between entries are by name.  Groups may be given by a
full multiplication table or by permutation generators; G-set actions may
be given as a full table or per generator.

Builtin names (triv, C2, C3, C4, S3, S4 and derived point/regular objects)
are preloaded so the command-line tools work without any files.  A name is
taken once within its kind: an entry may not reuse a builtin's name or an
earlier entry's.

Serialized spans and polynomials (the `compose` output) are self-contained:
the group object carries its table and `generator_elements`, and each G-set
is written by its size and `action_by_generator`, one row per element of
`generator_elements`.

Every JSON document the command line writes goes through `dump_json`: its
bytes are those of json.dumps(obj, sort_keys=True, indent=2) plus a
trailing newline (two-space indent, sorted keys, every non-ASCII
character written as a JSON escape, empty containers as [] and {}).
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence

from .calib import BUILTIN_CLASSES, MorphismClass, whitelist_class
from .errors import WorkspaceError
from .finact import (
    GMap,
    GSet,
    gmap,
    gset,
    identity_gmap,
    regular_gset,
    terminal_gset,
    unique_to_terminal,
)
from .groups import (
    BUILTIN_GROUPS,
    FiniteGroup,
    generating_set,
    group_from_permutations,
    group_from_table,
)
from .poly import Polynomial, polynomial
from .record import Record
from .spans import Span, span


class Workspace(Record):
    __slots__ = ("groups", "gsets", "gmaps", "spans", "polys", "classes")

    def __init__(self, groups: dict[str, FiniteGroup] | None = None,
                 gsets: dict[str, GSet] | None = None, gmaps: dict[str, GMap] | None = None,
                 spans: dict[str, Span] | None = None,
                 polys: dict[str, Polynomial] | None = None,
                 classes: dict[str, MorphismClass] | None = None):
        self.groups = {} if groups is None else groups
        self.gsets = {} if gsets is None else gsets
        self.gmaps = {} if gmaps is None else gmaps
        self.spans = {} if spans is None else spans
        self.polys = {} if polys is None else polys
        self.classes = {} if classes is None else classes

    def group(self, name: str) -> FiniteGroup:
        return self._get(self.groups, name, "group")

    def gset(self, name: str) -> GSet:
        return self._get(self.gsets, name, "gset")

    def gmap(self, name: str) -> GMap:
        return self._get(self.gmaps, name, "gmap")

    def span(self, name: str) -> Span:
        return self._get(self.spans, name, "span")

    def poly(self, name: str) -> Polynomial:
        return self._get(self.polys, name, "poly")

    def morphism_class(self, name: str) -> MorphismClass:
        if name in self.classes:
            return self.classes[name]
        if name in BUILTIN_CLASSES:
            return BUILTIN_CLASSES[name]
        raise WorkspaceError(f"unknown class {name!r}")

    @staticmethod
    def _get(table: dict, name: str, kind: str):
        try:
            return table[name]
        except KeyError:
            known = ", ".join(sorted(table)) or "(none)"
            raise WorkspaceError(f"unknown {kind} {name!r}; known: {known}") from None


def builtin_workspace() -> Workspace:
    """A fresh workspace holding the builtin objects.

    The objects are built once per process and shared, since they are
    immutable; the dicts are copies, since `load_entries` adds to the
    workspace it is given.
    """
    shared = _builtin_objects()
    return Workspace(*(dict(getattr(shared, name)) for name in Workspace._fields))


@lru_cache(maxsize=None)
def _builtin_objects() -> Workspace:
    ws = Workspace()
    for gname, ctor in BUILTIN_GROUPS.items():
        g = ctor()
        ws.groups[gname] = g
        pt = terminal_gset(g)
        reg = regular_gset(g)
        ws.gsets[f"{gname}.pt"] = pt
        ws.gsets[f"{gname}.regular"] = reg
        to_pt = unique_to_terminal(reg)
        ws.gmaps[f"{gname}.regular_to_pt"] = to_pt
        ws.gmaps[f"{gname}.id_pt"] = identity_gmap(pt)
        ws.spans[f"{gname}.free-span"] = Span(to_pt, to_pt)
        ws.spans[f"{gname}.id-span-pt"] = Span(identity_gmap(pt), identity_gmap(pt))
        ws.polys[f"{gname}.free-poly"] = Polynomial(to_pt, identity_gmap(reg), to_pt)
    return ws


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise WorkspaceError(f"{where}: missing field {key!r}")
    return obj[key]


def _need_name(obj: dict, key: str, where: str) -> str:
    """A field holding a name: the entry's own or a reference to another entry."""
    value = _need(obj, key, where)
    if not isinstance(value, str):
        raise WorkspaceError(f"{where}: field {key!r} must be a name, not {value!r}")
    return value


_INT_SHAPES = ("an integer", "a list of integers", "a list of lists of integers")


def _need_ints(obj: dict, key: str, where: str, depth: int):
    """A field holding a JSON integer (depth 0), a list of them (1) or a list of such lists (2).

    Nothing is coerced: a float, a string or a bool where an integer belongs
    is an error naming the entry and the field.
    """
    value = _need(obj, key, where)
    items = [value]
    for level in range(depth, -1, -1):
        kind = list if level else int
        bad = [v for v in items if type(v) is not kind]
        if bad:
            raise WorkspaceError(f"{where}: field {key!r} must be {_INT_SHAPES[depth]}; "
                                 f"found {bad[0]!r}")
        if level:
            items = [v for row in items for v in row]
    return value


def _parse_group(name: str, obj: dict) -> FiniteGroup:
    where = f"group {name!r}"
    if "mult" in obj:
        build, field = group_from_table, "mult"
    elif "generators" in obj:
        build, field = group_from_permutations, "generators"
    else:
        raise WorkspaceError(f"{where}: need 'mult' or 'generators'")
    table = _need_ints(obj, field, where, 2)
    try:
        return build(name, table)
    except Exception as exc:
        raise WorkspaceError(f"{where}: {exc}") from exc


def _parse_gset(name: str, obj: dict, ws: Workspace) -> GSet:
    where = f"gset {name!r}"
    group = ws.group(_need_name(obj, "group", where))
    size = _need_ints(obj, "size", where, 0)
    field = "action" if "action" in obj else "action_by_generator"
    if field not in obj:
        raise WorkspaceError(f"{where}: need 'action' or 'action_by_generator'")
    table = _need_ints(obj, field, where, 2)
    try:
        if field == "action":
            return gset(group, size, table)
        if not group.generators:
            raise WorkspaceError(f"group {group.name!r} has no designated generators")
        x = GSet(group, size, tuple(map(tuple, table)))
        x.validate()
        return x
    except Exception as exc:
        raise WorkspaceError(f"{where}: {exc}") from exc


def _parse_gmap(name: str, obj: dict, ws: Workspace) -> GMap:
    where = f"gmap {name!r}"
    dom = ws.gset(_need_name(obj, "dom", where))
    cod = ws.gset(_need_name(obj, "cod", where))
    table = _need_ints(obj, "table", where, 1)
    try:
        return gmap(dom, cod, table)
    except Exception as exc:
        raise WorkspaceError(f"{where}: {exc}") from exc


def _new_name(obj: dict, kind: str, taken: dict) -> str:
    """The entry's name; refused if its kind holds it, from a builtin or an earlier entry."""
    name = _need_name(obj, "name", f"{kind} entry")
    if name in taken:
        raise WorkspaceError(f"{kind} {name!r}: the name is already taken; "
                             f"names are unique within a kind")
    return name


def load_entries(entries: list[dict], ws: Optional[Workspace] = None) -> Workspace:
    """Resolve a list of entries into a workspace, in dependency order; see `_new_name`."""
    ws = ws if ws is not None else builtin_workspace()
    by_kind: dict[str, list[dict]] = {}
    for e in entries:
        if not isinstance(e, dict) or not isinstance(e.get("kind"), str):
            raise WorkspaceError(f"entry without a 'kind': {e!r}")
        by_kind.setdefault(e["kind"], []).append(e)
    unknown = set(by_kind) - {"group", "gset", "gmap", "span", "poly", "class"}
    if unknown:
        raise WorkspaceError(f"unknown entry kinds: {sorted(unknown)}")
    for e in by_kind.get("group", ()):
        name = _new_name(e, "group", ws.groups)
        ws.groups[name] = _parse_group(name, e)
    for e in by_kind.get("gset", ()):
        name = _new_name(e, "gset", ws.gsets)
        ws.gsets[name] = _parse_gset(name, e, ws)
    for e in by_kind.get("gmap", ()):
        name = _new_name(e, "gmap", ws.gmaps)
        ws.gmaps[name] = _parse_gmap(name, e, ws)
    for e in by_kind.get("class", ()):
        name = _new_name(e, "class", ws.classes)
        if name in BUILTIN_CLASSES:
            raise WorkspaceError(f"class {name!r}: the name of a builtin class "
                                 f"({', '.join(BUILTIN_CLASSES)})")
        maps = _need(e, "maps", f"class {name!r}")
        if not isinstance(maps, list) or not all(isinstance(n, str) for n in maps):
            raise WorkspaceError(f"class {name!r}: field 'maps' must be a list of names, "
                                 f"not {maps!r}")
        ws.classes[name] = whitelist_class(name, [ws.gmap(n) for n in maps])
    for e in by_kind.get("span", ()):
        name = _new_name(e, "span", ws.spans)
        left = ws.gmap(_need_name(e, "left", f"span {name!r}"))
        right = ws.gmap(_need_name(e, "right", f"span {name!r}"))
        try:
            if "class" in e:
                ws.morphism_class(e["class"]).require(left, "left leg")
            ws.spans[name] = span(left, right)
        except Exception as exc:
            raise WorkspaceError(f"span {name!r}: {exc}") from exc
    for e in by_kind.get("poly", ()):
        name = _new_name(e, "poly", ws.polys)
        try:
            ws.polys[name] = polynomial(
                ws.gmap(_need_name(e, "r", f"poly {name!r}")),
                ws.gmap(_need_name(e, "n", f"poly {name!r}")),
                ws.gmap(_need_name(e, "t", f"poly {name!r}")))
        except Exception as exc:
            raise WorkspaceError(f"poly {name!r}: {exc}") from exc
    return ws


def load_dir(path: str) -> Workspace:
    if not os.path.isdir(path):
        raise WorkspaceError(f"workspace directory {path!r} does not exist")
    entries: list[dict] = []
    for fname in sorted(os.listdir(path)):
        if not fname.endswith(".json"):
            continue
        full = os.path.join(path, fname)
        try:
            with open(full, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WorkspaceError(f"{fname}: invalid JSON ({exc})") from exc
        if isinstance(doc, list):
            entries.extend(doc)
        elif isinstance(doc, dict):
            entries.append(doc)
        else:
            raise WorkspaceError(f"{fname}: top level must be an object or a list")
    return load_entries(entries)


# ---------------------------------------------------------------------------
# serialization (self-contained objects)
# ---------------------------------------------------------------------------

def group_to_obj(g: FiniteGroup) -> dict:
    return {"name": g.name, "order": g.order, "mult": [list(r) for r in g.mult],
            "generator_elements": list(generating_set(g))}


def gset_to_obj(x: GSet) -> dict:
    """The size and one action row per element of the group's `generator_elements`."""
    return {"group": x.group.name, "size": x.size,
            "action_by_generator": list(map(list, x.rows))}


def gmap_to_obj(f: GMap, gset_obj: Callable[[GSet], dict]) -> dict:
    """The map's table and its ends, each written by gset_obj."""
    return {"dom": gset_obj(f.dom), "cod": gset_obj(f.cod), "table": list(f.table)}


def _gset_objects() -> Callable[[GSet], dict]:
    """`gset_to_obj` with one object per G-set: equal G-sets get the object of the first.

    A document's legs share their ends (a span's apex, a polynomial's A and
    B), so `dump_json` writes each end's text once.
    """
    done: list[tuple[GSet, dict]] = []

    def gset_obj(x: GSet) -> dict:
        for y, obj in done:
            if y == x:
                return obj
        obj = gset_to_obj(x)
        done.append((x, obj))
        return obj
    return gset_obj


def span_to_obj(p: Span) -> dict:
    one = _gset_objects()
    return {"kind": "span", "group": group_to_obj(p.group),
            "left": gmap_to_obj(p.left, one), "right": gmap_to_obj(p.right, one)}


def poly_to_obj(p: Polynomial) -> dict:
    one = _gset_objects()
    return {"kind": "poly", "group": group_to_obj(p.group), "r": gmap_to_obj(p.r, one),
            "n": gmap_to_obj(p.n, one), "t": gmap_to_obj(p.t, one)}


# the scalar types of the command line's output; a container holding only
# these is encoded in one call of the C encoder
_SCALARS = frozenset((str, int, bool, type(None)))


@lru_cache(maxsize=None)
def _flat_encoder(depth: int) -> Callable[[object, int], Sequence[str]]:
    """A one-line encoder whose item separator breaks and indents to `depth`.

    It returns the text in pieces.  It is json's C encoder, made with the
    nine arguments `JSONEncoder.iterencode` passes it (no circular check:
    it only meets scalars and containers of scalars); without the C module
    it is `JSONEncoder.encode`.
    """
    base = json.JSONEncoder(check_circular=False, sort_keys=True,
                            separators=(",\n" + "  " * depth, ": "))
    make = json.encoder.c_make_encoder
    if make is None:
        return lambda obj, _level: (base.encode(obj),)
    return make(None, base.default, encode_basestring_ascii, base.indent,
                base.key_separator, base.item_separator, base.sort_keys,
                base.skipkeys, base.allow_nan)


def _write(obj, depth: int, out: list[str], seen: dict) -> None:
    """Append to out the text json.dumps(obj, sort_keys=True, indent=2) writes for obj at depth.

    seen maps (id, depth) of each container written so far to the pieces of
    out that hold its text, so a container met again at the same depth is
    copied piece by piece, not encoded again.  The key is the object's
    identity, not its value, as (1, 0) == (True, False).
    """
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        out.append("".join(_flat_encoder(depth)(obj, 0)))
        return
    if not obj:
        out.append(brackets)
        return
    key = id(obj), depth
    at = seen.get(key)
    if at is not None:
        out += out[at[0]:at[1]]
        return
    start, inner = len(out), depth + 1
    pad, sep = "\n" + "  " * depth, ",\n" + "  " * inner
    if _SCALARS.issuperset(map(type, values)):
        text = "".join(_flat_encoder(inner)(obj, 0))
        out.append(f"{brackets[0]}{sep[1:]}{text[1:-1]}{pad}{brackets[1]}")
    elif brackets == "[]":
        lead = brackets[0] + sep[1:]
        for v in obj:
            out.append(lead)
            lead = sep
            _write(v, inner, out, seen)
        out.append(pad + brackets[1])
    else:
        lead = brackets[0] + sep[1:]
        for k, v in sorted(obj.items()):
            out.append(f"{lead}{encode_basestring_ascii(k)}: ")
            lead = sep
            _write(v, inner, out, seen)
        out.append(pad + brackets[1])
    seen[key] = start, len(out)


def dump_json(obj: dict) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) + "\\n" writes it, byte for byte.

    json's indenting encoder is pure Python.  This one recurses in Python
    only through containers that hold containers, encodes each container of
    scalars in one call of the C encoder, and appends every piece to one
    list, joined once at the end.  A container that obj holds more than once
    at one depth is encoded once; its later copies reuse its pieces.  Keys
    must be strings.
    """
    out: list[str] = []
    _write(obj, 0, out, {})
    out.append("\n")
    return "".join(out)
