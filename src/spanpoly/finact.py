"""Finite G-sets, equivariant maps, and the limit/colimit machinery of the base category.

Points of a G-set are 0-based contiguous indices.  A G-set stores one
action row per element of the group's `generating_set`, in that order;
these rows fix the action.  `point_images` composes the images g.p of one
point along the group's breadth-first words (`GroupData.words`).
`orbit_cosets`, the one reader of whole orbits, takes one such pass per
orbit and lays its points out along the coset table of the least point's
stabilizer.  The full table `GSet.action` is derived on first use, for
outside readers and validation.
Every constructed G-set (pullback, product, dependent product) comes from
the one builder `build_gset`, and its position is its point.  Each
construction numbers its elements by position arithmetic on its factors
and computes the same way the position of each generator's image of each
element: a pullback's pair (a, b) is the point start[a] + rank[b], so
pairs come in lexicographic order; a section over x is start[x] plus
mixed-radix digits, so each fiber's sections come in `itertools.product`
order.  That arithmetic is the one way to find a point:
`Pullback.index_of` and `PiData.index_of_section` run it forwards,
`PiData.evaluation` reads the sections' values off the same
`itertools.product` order and `PiData.transpose` reads a map's values off
the pairs' order, and no point keeps a descriptor.  A binary
product is the pullback over the terminal G-set.  The part of a map
f : R -> U + V over a summand is its pullback along that summand's
injection (the base is extensive): each point of R has at most one pair,
so the part's points are R's points over the summand, ascending, proj1 is
their inclusion into R and proj2 their map to the summand.  Coproducts keep
the tagging order, all left-summand points first, so that injections are
plain shifts.  All values are immutable; every operation is pure.

Iso classes of G-sets, slices and spans are decided in one place.
`orbit_labels` gives each orbit one label (stabilizer, leg values),
`equivariant_iso` reads an iso off the labels, and `from_labels` rebuilds
the canonical representative from labels; it is also the only builder of
coset G-sets (`coset_gset` wraps it).  Equivariant maps f : x -> y are
searched orbit by orbit, subject to legs: pairs (a, b) of maps out of x and
y into a common G-set, with b.f = a required.  Slice maps, span two-cells,
polynomial morphisms and completion morphisms are all apex maps commuting
with legs in this sense.  `orbit_candidates` lists the admissible images of
each orbit's least point, checking the legs at that point only
(equivariance carries the check to the whole orbit), and map enumeration
and random sampling fill each orbit from its image along the coset
representatives; the closed-form hom-set counts read `point_images` only.

Along u, Sigma_u a composes with u, Delta_u b is `pullback(b.arrow, u)`
(read as a slice by its second projection; readers of its pairs take the
`Pullback`), and Pi_u a is `pi`; `PiData.evaluation` is the counit of
Delta_u -| Pi_u and `PiData.transpose` its hom bijection.

The dependent-product construction `pi` enumerates sections fiber by fiber
and can explode exponentially.  Two module constants bound the work, read
when a guarded call runs: MAX_POINTS caps the points of every constructed
G-set and the sections of a dependent product, MAX_MAPS the count of an
equivariant-map enumeration.  There is no per-call override.

Inside a `sharing` scope (one per suite run) pullbacks, products, dependent
products, `from_labels`, `orbit_cosets` and `mackey.atoms` return the first
result built for equal arguments; outside one every call builds anew.
"""
from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cached_property
from operator import add, ne
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    BoundaryMismatch,
    GroupMismatch,
    InvalidStructure,
    ResourceLimit,
)
from .groups import Cosets, FiniteGroup, generating_set
from .record import FrozenRecord

MAX_POINTS = 10 ** 6
MAX_MAPS = 200_000
SHARE_POINTS = 10 ** 4
"""The most points the G-sets of one shared entry, key and value, may hold.

Peak RSS of `check --suite tambara --group C4 --seed 453872 --max-size 6`
(a Pi of ~10^6 sections, then `ResourceLimit`), Python 3.11 on a 2-core
host: 133.8 MB unshared; 138.3, 136.0, 138.4 and 323.9 MB with this bound at
10^3, 10^4, 10^5 and unbounded.  In a suite-sweep pass (324 suite runs) no
entry exceeds 10^4 points; 27 of 59,133 shared calls exceed 10^3.
"""


def _over_limit(construction: str, unit: str, sizes: dict[str, int],
                projected: int, limit: int) -> ResourceLimit:
    shown = ", ".join(f"{k}={v}" for k, v in sizes.items())
    return ResourceLimit(f"{construction} ({shown}) would have {projected} {unit}, "
                         f"over the limit {limit}", construction, sizes, projected, limit)


# ---------------------------------------------------------------------------
# sharing equal constructions within one scope
# ---------------------------------------------------------------------------

_SCOPE: ContextVar[Optional[dict]] = ContextVar("spanpoly.finact.sharing", default=None)


@contextmanager
def sharing() -> Iterator[None]:
    """A scope in which equal constructions are built once; a nested scope
    starts empty and restores the outer one on exit.  Never share a call
    taking an `Rng`.
    """
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _shared(build, points, *args):
    """build(*args), or within a `sharing` scope the first result built for
    equal args; kept only if points(result, *args) <= SHARE_POINTS."""
    table = _SCOPE.get()
    if table is None:
        return build(*args)
    key = (build, *args)
    out = table.get(key)
    if out is None:
        out = build(*args)
        if points(out, *args) <= SHARE_POINTS:
            table[key] = out
    return out


# ---------------------------------------------------------------------------
# core value types
# ---------------------------------------------------------------------------

class GSet(FrozenRecord):
    """A finite set with a group action, stored as one row per generator.

    rows[k][x] is gens[k] acting on point x, for gens = `generating_set`.
    The full table, action[g][x] = g.x, is derived on first use and kept
    outside equality and hash; the library's algorithms read `rows` or
    `point_images` instead.
    """

    __slots__ = ("group", "size", "rows", "__dict__")

    def __init__(self, group: FiniteGroup, size: int, rows: tuple[tuple[int, ...], ...]):
        set_group, set_size, set_rows = self._setters
        set_group(self, group)
        set_size(self, size)
        set_rows(self, rows)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group == other.group and self.size == other.size
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.group, self.size, self.rows))

    @cached_property
    def action(self) -> tuple[tuple[int, ...], ...]:
        return action_from_generator_rows(self.group, self.size, self.rows)

    def act(self, g: int, x: int) -> int:
        return self.action[g][x]

    def points(self) -> range:
        return range(self.size)

    def validate(self) -> None:
        """Check that the rows are one permutation per generator and define an action.

        The derived table has row[g] = row[s] after row[h] for each word
        (g, s, h) of `GroupData.words`; it is an action iff that holds for
        every generator s and every element h.
        """
        gens, size = generating_set(self.group), self.size
        if len(self.rows) != len(gens):
            raise InvalidStructure("action needs one permutation row per generator: "
                                   f"{len(self.rows)} rows, expected {len(gens)}")
        for k, row in enumerate(self.rows):
            if sorted(row) != list(range(size)):
                raise InvalidStructure("action needs one permutation row per generator: "
                                       f"row {k} is not a permutation of 0..{size - 1}")
        action, mult = self.action, self.group.mult
        for s, srow in zip(gens, self.rows):
            for h, hrow in enumerate(action):
                shrow = action[mult[s][h]]
                if any(map(ne, map(srow.__getitem__, hrow), shrow)):
                    x = next(x for x in range(size) if srow[hrow[x]] != shrow[x])
                    raise InvalidStructure(f"action not compatible at (g={s},h={h},x={x})")


class GMap(FrozenRecord):
    """An equivariant map, stored as a point table."""

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: GSet, cod: GSet, table: tuple[int, ...]):
        set_dom, set_cod, set_table = self._setters
        set_dom(self, dom)
        set_cod(self, cod)
        set_table(self, table)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.table))

    def __call__(self, x: int) -> int:
        return self.table[x]

    @property
    def group(self) -> FiniteGroup:
        return self.dom.group

    def validate(self) -> None:
        if self.dom.group != self.cod.group:
            raise GroupMismatch("dom and cod live over different groups")
        if len(self.table) != self.dom.size:
            raise InvalidStructure("table length != domain size")
        if any(not (0 <= y < self.cod.size) for y in self.table):
            raise InvalidStructure("table value out of codomain range")
        # commuting with the generators' actions is commuting with all products
        table = self.table
        for g, drow, crow in zip(generating_set(self.group), self.dom.rows, self.cod.rows):
            if any(map(ne, map(table.__getitem__, drow), map(crow.__getitem__, table))):
                x = next(x for x in range(self.dom.size) if table[drow[x]] != crow[table[x]])
                raise InvalidStructure(f"map not equivariant at (g={g},x={x})")

    def is_identity(self) -> bool:
        return self.dom == self.cod and self.table == tuple(range(self.dom.size))

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return set(self.table) == set(range(self.cod.size))

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


class SliceObject(FrozenRecord):
    """An object of the slice over arrow.cod: a G-set together with a map down."""

    __slots__ = ("arrow",)

    def __init__(self, arrow: GMap):
        self._setters[0](self, arrow)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arrow == other.arrow

    def __hash__(self) -> int:
        return hash((self.arrow,))

    @property
    def base(self) -> GSet:
        return self.arrow.cod

    @property
    def total(self) -> GSet:
        return self.arrow.dom

    @property
    def size(self) -> int:
        return self.arrow.dom.size


def gset(group: FiniteGroup, size: int, action: Sequence[Sequence[int]]) -> GSet:
    """The G-set with the full action table action, checked on every row."""
    table = tuple(tuple(map(int, row)) for row in action)
    if len(table) != group.order or any(
            len(row) != size or (size and not 0 <= min(row) <= max(row) < size)
            for row in table):
        raise InvalidStructure("action table has wrong shape")
    x = GSet(group, size, tuple(table[s] for s in generating_set(group)))
    x.validate()
    g = next((g for g, row in enumerate(x.action) if row != table[g]), None)
    if g is not None:
        raise InvalidStructure(f"action not compatible with the generator rows at element {g}")
    return x


def gmap(dom: GSet, cod: GSet, table: Sequence[int]) -> GMap:
    f = GMap(dom, cod, tuple(map(int, table)))
    f.validate()
    return f


def identity_gmap(x: GSet) -> GMap:
    return GMap(x, x, tuple(range(x.size)))


def compose_gmaps(g: GMap, f: GMap) -> GMap:
    """g after f."""
    if f.cod != g.dom:
        raise BoundaryMismatch("compose_gmaps: codomain of f is not domain of g")
    return GMap(f.dom, g.cod, tuple(map(g.table.__getitem__, f.table)))


def invert_gmap(f: GMap) -> GMap:
    """The inverse of a bijective map."""
    if not f.is_bijective():
        raise InvalidStructure("cannot invert a non-bijective map")
    inv = [0] * f.cod.size
    for p, q in enumerate(f.table):
        inv[q] = p
    return GMap(f.cod, f.dom, tuple(inv))


def slice_identity(u: GSet) -> SliceObject:
    return SliceObject(identity_gmap(u))


# ---------------------------------------------------------------------------
# basic G-sets
# ---------------------------------------------------------------------------

def terminal_gset(group: FiniteGroup) -> GSet:
    return GSet(group, 1, ((0,),) * len(generating_set(group)))

def initial_gset(group: FiniteGroup) -> GSet:
    return GSet(group, 0, ((),) * len(generating_set(group)))

def regular_gset(group: FiniteGroup) -> GSet:
    """G acting on itself by left multiplication: the cosets of the trivial subgroup."""
    return coset_gset(group, (group.identity,))

def coset_gset(group: FiniteGroup, subgroup: Iterable[int]) -> GSet:
    """The transitive G-set of left cosets gH, cosets ordered by least element."""
    return from_labels(group, (), ((frozenset(subgroup), ()),))[0]

def unique_to_terminal(x: GSet) -> GMap:
    return GMap(x, terminal_gset(x.group), (0,) * x.size)


# ---------------------------------------------------------------------------
# orbits, stabilizers, labels and rebuilding from labels
# ---------------------------------------------------------------------------

def point_images(x: GSet, p: int) -> list[int]:
    """g.p for every group element g, composed along `GroupData.words`."""
    words, rows = x.group.data.words, x.rows
    img = [p] * (len(words) + 1)
    for g, k, h in words:
        img[g] = rows[k][img[h]]
    return img


class Orbit(NamedTuple):
    """One orbit of a G-set, read from its least point; see `orbit_cosets`."""

    rep: int
    stab: tuple[int, ...]
    cosets: Cosets
    points: tuple[int, ...]


def orbit_cosets(x: GSet) -> tuple[Orbit, ...]:
    """The orbits of x by least point, each read off one `point_images` pass.

    rep is the least point, stab its stabilizer H and cosets
    `GroupData.cosets(H)`; points[j] = cosets.reps[j].rep has stabilizer
    cosets.conj[j], and cosets.reps[j] is the least element moving rep there.
    Anchor at rep: reps[0] is the least element, the identity only when that
    is element 0.  The one reader of whole orbits; shared within a `sharing`
    scope, where most reads repeat one already made."""
    return _shared(_orbit_cosets, _size_of_key, x)


def _size_of_key(out, x: GSet) -> int:
    return x.size


def _orbit_cosets(x: GSet) -> tuple[Orbit, ...]:
    cosets = x.group.data.cosets
    seen = [False] * x.size
    out = []
    for p in range(x.size):
        if not seen[p]:
            img = point_images(x, p)
            stab = tuple([g for g, q in enumerate(img) if q == p])
            c = cosets(stab)
            points = tuple(map(img.__getitem__, c.reps))
            for q in points:
                seen[q] = True
            out.append(Orbit(p, stab, c, points))
    return tuple(out)


def orbit_labels(x: GSet, legs: Sequence[GMap] = ()) -> tuple[tuple, ...]:
    """One label per orbit: min over its points of (stabilizer, leg values).

    This is the one canonical form of the library.  Two G-sets carrying
    legs into the same G-sets are isomorphic compatibly with the legs iff
    their label multisets agree, so the labels decide iso classes of G-sets,
    slices (one leg) and spans (two legs), `equivariant_iso` builds an iso
    from them, and `from_labels` rebuilds the canonical representative.
    """
    return tuple([(s, v) for s, v, _ in sorted(_least(x, legs))])


def _least(x: GSet, legs: Sequence[GMap]) -> list[tuple]:
    """Per orbit of x (`orbit_cosets`): the least (stabilizer, leg values,
    point) over its points, whose first two entries are the orbit's label."""
    values = list(zip(*[leg.table for leg in legs])) if legs else [()] * x.size
    return [min(zip(o.cosets.conj, map(values.__getitem__, o.points), o.points))
            for o in orbit_cosets(x)]


def from_labels(group: FiniteGroup, cods: Sequence[GSet],
                labels: Iterable[tuple]) -> tuple[GSet, tuple[GMap, ...]]:
    """The G-set and legs into cods rebuilt from orbit labels, in label order.

    A label (stabilizer H, leg values v) contributes the orbit of left
    cosets gH, ordered by their least element g; that point's legs take the
    values g.v, so H must fix v.  The labels need not be canonical; fed
    `orbit_labels`, this returns the canonical representative, so identical
    label multisets rebuild identical G-sets and legs.  H is a tuple or a
    frozenset (see `GroupData.cosets`).
    """
    return _shared(_from_labels, _labels_points, group, tuple(cods), tuple(labels))


def _labels_points(out: tuple[GSet, tuple[GMap, ...]], group: FiniteGroup,
                   cods: tuple[GSet, ...], labels: tuple[tuple, ...]) -> int:
    return out[0].size + sum(cod.size for cod in cods)


def _from_labels(group: FiniteGroup, cods: tuple[GSet, ...],
                 labels: tuple[tuple, ...]) -> tuple[GSet, tuple[GMap, ...]]:
    cosets = group.data.cosets
    rows: list[list[int]] = [[] for _ in generating_set(group)]
    tables: list[list[int]] = [[] for _ in cods]
    size = 0
    for stab, values in labels:
        c = cosets(stab)
        for row, crow in zip(rows, c.rows):
            row.extend(map(size.__add__, crow))
        for cod, v, table in zip(cods, values, tables):
            table.extend(map(point_images(cod, v).__getitem__, c.reps))
        size += len(c.reps)
    apex = GSet(group, size, tuple(tuple(row) for row in rows))
    return apex, tuple(GMap(apex, cod, tuple(t)) for cod, t in zip(cods, tables))


def render_labels(labels: Iterable[tuple]) -> str:
    """Orbit labels as text: stab[...] per orbit, then @ and the leg values if any."""
    return ";".join(f"stab{list(s)}" + (f"@{','.join(map(str, v))}" if v else "")
                    for s, v in labels)


def canonical_form(x: GSet) -> str:
    return f"{x.group.name}[{x.size}]{{{render_labels(orbit_labels(x))}}}"


def slice_canonical_form(a: SliceObject) -> str:
    labs = render_labels(orbit_labels(a.total, (a.arrow,)))
    return f"{a.base.group.name}[{a.size}/{a.base.size}]{{{labs}}}"


# ---------------------------------------------------------------------------
# equivariant maps and isos
# ---------------------------------------------------------------------------

Legs = Sequence[tuple[GMap, GMap]]


def orbit_candidates(x: GSet, y: GSet, legs: Legs = ()) -> list[tuple[Orbit, list[int]]]:
    """Per orbit of x (`orbit_cosets`): the orbit and the admissible images of its least point.

    An equivariant map f : x -> y is fixed by choosing, independently for
    each orbit, an image q of its least point p with stab(q) containing
    stab(p); the orbit's point reps[j].p then goes to reps[j].q.  legs are
    pairs (a, b) of maps out of x and y into a common G-set, and f must
    satisfy b.f = a: q is admissible when b(q) = a(p) for every pair.  As a
    and b are equivariant, agreement at p carries to t.p -> t.q for every t,
    so one check per orbit covers all of its points.  y's points are indexed
    once by their leg values; candidates are ascending, so every search built
    on them enumerates in the same order.  Orbits with the same stabilizer
    and leg values at their least points share one candidate list.
    """
    _check_legs(x, y, legs)
    ystabs: list = [None] * y.size
    for o in orbit_cosets(y):
        for q, k in zip(o.points, o.cosets.conj):
            ystabs[q] = frozenset(k)
    atabs, btabs = [a.table for a, _ in legs], [b.table for _, b in legs]
    bucket: dict[tuple, list[int]] = {}
    for q in y.points():
        bucket.setdefault(tuple([t[q] for t in btabs]), []).append(q)
    out = []
    shared: dict[tuple, list[int]] = {}
    for o in orbit_cosets(x):
        key = (tuple([t[o.rep] for t in atabs]), frozenset(o.stab))
        cands = shared.get(key)
        if cands is None:
            cands = shared[key] = [q for q in bucket.get(key[0], ()) if key[1] <= ystabs[q]]
        out.append((o, cands))
    return out


def _check_legs(x: GSet, y: GSet, legs: Legs) -> None:
    if x.group != y.group:
        raise GroupMismatch("equivariant maps over different groups")
    if any(a.dom != x or b.dom != y or a.cod != b.cod for a, b in legs):
        raise BoundaryMismatch("legs must run from x and y into a common G-set")


def equivariant_maps(x: GSet, y: GSet, legs: Legs = ()) -> Iterator[GMap]:
    """All equivariant maps x -> y commuting with the legs, one per choice of `orbit_candidates`.

    Each orbit is filled from its chosen image along the coset
    representatives; the legs were checked once per orbit.  More than
    MAX_MAPS choices raise ResourceLimit before the first map is yielded.
    """
    percand = orbit_candidates(x, y, legs)
    count = math.prod(len(c) for _, c in percand)
    if count == 0:
        return
    if count > MAX_MAPS:
        raise _over_limit("equivariant maps", "maps", {"dom": x.size, "cod": y.size},
                          count, MAX_MAPS)
    moved = {q: point_images(y, q) for _, c in percand for q in c}
    for choice in itertools.product(*(c for _, c in percand)):
        table = [0] * x.size
        for (o, _), q0 in zip(percand, choice):
            img = moved[q0]
            for p, t in zip(o.points, o.cosets.reps):
                table[p] = img[t]
        yield GMap(x, y, tuple(table))


def equivariant_iso(x: GSet, y: GSet, legs: Legs = ()) -> Optional[GMap]:
    """An equivariant bijection x -> y commuting with the legs, or None.

    It exists iff x and y have the same `orbit_labels` under the legs, and
    then it is read off them: pair the orbits in label order, send each
    x-orbit's least point p bearing its label to the partner's least point q
    bearing it, and g.p to g.q for every g.  As p and q have the same
    stabilizer, this is well defined and bijective on the orbit; as they
    have the same leg values, it commutes with the legs.
    """
    _check_legs(x, y, legs)
    xs = sorted(_least(x, [a for a, _ in legs]))
    ys = sorted(_least(y, [b for _, b in legs]))
    if [t[:2] for t in xs] != [t[:2] for t in ys]:
        return None
    table = [0] * x.size
    for (_, _, p), (_, _, q) in zip(xs, ys):
        for gp, gq in zip(point_images(x, p), point_images(y, q)):
            table[gp] = gq
    return GMap(x, y, tuple(table))


def iso_gsets(x: GSet, y: GSet) -> Optional[GMap]:
    """An equivariant bijection, or None."""
    return equivariant_iso(x, y)


def slice_homs(a: SliceObject, b: SliceObject) -> Iterator[GMap]:
    """Maps between slice objects over the same base."""
    if a.base != b.base:
        raise BoundaryMismatch("slice_homs: different bases")
    return equivariant_maps(a.total, b.total, ((a.arrow, b.arrow),))


def slice_iso(a: SliceObject, b: SliceObject) -> Optional[GMap]:
    """A bijection of totals over the common base, or None."""
    if a.base != b.base:
        raise BoundaryMismatch("slice_iso: different bases")
    return equivariant_iso(a.total, b.total, ((a.arrow, b.arrow),))


def relabel_gset(x: GSet, perm: Sequence[int]) -> tuple[GSet, GMap]:
    """An isomorphic copy with point p renamed perm[p]; returns (copy, iso x->copy)."""
    if sorted(perm) != list(range(x.size)):
        raise InvalidStructure("relabel_gset: not a permutation")
    inv = [0] * x.size
    for p, q in enumerate(perm):
        inv[q] = p
    y = GSet(x.group, x.size, tuple(tuple(perm[row[p]] for p in inv) for row in x.rows))
    return y, GMap(x, y, tuple(perm))


# ---------------------------------------------------------------------------
# constructed G-sets
# ---------------------------------------------------------------------------

class BuiltGSet(NamedTuple):
    """A constructed G-set, point i being the element at position i."""

    gset: GSet


def action_from_generator_rows(group: FiniteGroup, size: int,
                               rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The full action table on size points from one row per generator.

    Every other row is a composite, row[s.h] = row[s] after row[h], taken
    in the order of `GroupData.words`.  Raises InvalidStructure if the
    generators do not reach every group element.
    """
    full: list = [None] * group.order
    full[group.identity] = tuple(range(size))
    for g, k, h in group.data.words:
        full[g] = tuple(map(rows[k].__getitem__, full[h]))
    return tuple(full)


def check_points(n: int) -> None:
    """The size guard of every constructed G-set: n points at most MAX_POINTS."""
    if n > MAX_POINTS:
        raise _over_limit("G-set construction", "points", {"descriptors": n}, n, MAX_POINTS)


def build_gset(group: FiniteGroup, n: int, rows: list[Sequence[int]]) -> BuiltGSet:
    """Materialize a G-set from position rows: the position is the point.

    The caller numbers its n elements by position arithmetic;
    rows[k][i] is the position of s.e for e the element at position i and
    s the k-th element of `generating_set(group)`.  Point i of the result
    is the element at position i.
    """
    check_points(n)
    return BuiltGSet(GSet(group, n, tuple(map(tuple, rows))))


# ---------------------------------------------------------------------------
# pullbacks
# ---------------------------------------------------------------------------

def _fibers(f: GMap) -> list[list[int]]:
    """The preimage of each point of the codomain, ascending."""
    out: list[list[int]] = [[] for _ in f.cod.points()]
    for p, y in enumerate(f.table):
        out[y].append(p)
    return out


def _fiber_ranks(fibers: list[list[int]], size: int) -> list[int]:
    """The position of each of size points in its fiber."""
    rank = [0] * size
    for fib in fibers:
        for i, p in enumerate(fib):
            rank[p] = i
    return rank


class Pullback:
    """Canonical pullback of a cospan: the pairs (a, b) with f(a) = g(b).

    The pair (a, b) is the point start[a] + rank[b]: start[a] counts the
    pairs of every a' < a, and rank[b] is the position of b in its fiber of
    g, so the pairs come in lexicographic order.  `index_of` reads a pair's
    point off that arithmetic; proj1 and proj2 give each point's pair.
    """

    __slots__ = ("f", "g", "gset", "proj1", "proj2", "_start", "_rank")

    def __init__(self, f: GMap, g: GMap):
        if f.group != g.group:
            raise GroupMismatch("pullback over different groups")
        if f.cod != g.cod:
            raise BoundaryMismatch("pullback needs a common codomain")
        xa, xb = f.dom, g.dom
        over = _fibers(g)
        counts = [len(over[v]) for v in f.table]
        start = list(itertools.accumulate(counts, initial=0))
        n = start[-1]
        check_points(n)
        left = tuple(itertools.chain.from_iterable(map(itertools.repeat, xa.points(), counts)))
        right = tuple(itertools.chain.from_iterable(map(over.__getitem__, f.table)))
        rank = _fiber_ranks(over, xb.size)
        # s.(a, b) = (s.a, s.b) sits at start[s.a] + rank[s.b]
        built = build_gset(f.group, n, [
            list(map(add, map(list(map(start.__getitem__, ra)).__getitem__, left),
                     map(list(map(rank.__getitem__, rb)).__getitem__, right)))
            for ra, rb in zip(xa.rows, xb.rows)])
        self.f, self.g, self.gset = f, g, built.gset
        self.proj1 = GMap(self.gset, xa, left)
        self.proj2 = GMap(self.gset, xb, right)
        self._start, self._rank = start, rank

    def index_of(self, a: int, b: int) -> int:
        """The point of the pair (a, b); KeyError unless f(a) = g(b)."""
        ft, gt = self.f.table, self.g.table
        if not (0 <= a < len(ft) and 0 <= b < len(gt)) or ft[a] != gt[b]:
            raise KeyError((a, b))
        return self._start[a] + self._rank[b]

    def mediator(self, q1: GMap, q2: GMap) -> GMap:
        """The unique map into the apex from a commuting cone (q1, q2).

        Every map into a pullback is built here.  Each point is sent to the
        pair of its images, and pairing is the check that the cone
        commutes: a pair off the pullback refuses the cone.
        """
        if q1.dom != q2.dom:
            raise BoundaryMismatch("mediator cone legs have different domains")
        if q1.cod != self.f.dom:
            raise BoundaryMismatch("mediator: q1 does not land in the domain of f")
        if q2.cod != self.g.dom:
            raise BoundaryMismatch("mediator: q2 does not land in the domain of g")
        try:
            table = tuple(map(self.index_of, q1.table, q2.table))
        except KeyError:
            raise BoundaryMismatch("mediator cone does not commute") from None
        return GMap(q1.dom, self.gset, table)


def pullback(f: GMap, g: GMap) -> Pullback:
    return _shared(Pullback, _pullback_points, f, g)


def _pullback_points(pb: Pullback, *args) -> int:
    return pb.f.dom.size + pb.g.dom.size + pb.f.cod.size + pb.gset.size


# ---------------------------------------------------------------------------
# coproducts and products
# ---------------------------------------------------------------------------

class CoproductDiagram:
    """Binary coproduct with tagging order: all left points first."""

    __slots__ = ("left", "right", "sum", "inj1", "inj2")

    def __init__(self, x: GSet, y: GSet):
        if x.group != y.group:
            raise GroupMismatch("coproduct over different groups")
        nx = x.size
        rows = tuple(xrow + tuple(map(nx.__add__, yrow)) for xrow, yrow in zip(x.rows, y.rows))
        self.left, self.right = x, y
        self.sum = GSet(x.group, nx + y.size, rows)
        self.inj1 = GMap(x, self.sum, tuple(range(nx)))
        self.inj2 = GMap(y, self.sum, tuple(range(nx, nx + y.size)))

    def cotuple(self, f: GMap, g: GMap) -> GMap:
        if f.cod != g.cod:
            raise BoundaryMismatch("cotuple legs need a common codomain")
        if f.dom != self.left or g.dom != self.right:
            raise BoundaryMismatch("cotuple legs do not match the summands")
        return GMap(self.sum, f.cod, f.table + g.table)


def coproduct(x: GSet, y: GSet) -> CoproductDiagram:
    return CoproductDiagram(x, y)


def sum_gmap(cop_dom: CoproductDiagram, cop_cod: CoproductDiagram,
             f: GMap, g: GMap) -> GMap:
    """f + g between constructed coproducts."""
    if f.dom != cop_dom.left or g.dom != cop_dom.right:
        raise BoundaryMismatch("sum_gmap domains do not match")
    if f.cod != cop_cod.left or g.cod != cop_cod.right:
        raise BoundaryMismatch("sum_gmap codomains do not match")
    return cop_dom.cotuple(compose_gmaps(cop_cod.inj1, f), compose_gmaps(cop_cod.inj2, g))


def slice_sum(cop: CoproductDiagram, a: SliceObject, b: SliceObject) -> SliceObject:
    """The slice a + b over cop.sum, from slices a over cop.left and b over cop.right."""
    return SliceObject(sum_gmap(coproduct(a.total, b.total), cop, a.arrow, b.arrow))


def codiagonal(x: GSet) -> tuple[CoproductDiagram, GMap]:
    cop = coproduct(x, x)
    return cop, cop.cotuple(identity_gmap(x), identity_gmap(x))


class ProductDiagram(Pullback):
    """Binary product: the pullback of the maps to the terminal G-set."""

    __slots__ = ()

    def __init__(self, x: GSet, y: GSet):
        if x.group != y.group:
            raise GroupMismatch("product over different groups")
        super().__init__(unique_to_terminal(x), unique_to_terminal(y))


def product(x: GSet, y: GSet) -> ProductDiagram:
    return _shared(ProductDiagram, _pullback_points, x, y)


def product_gmap(prod_dom: ProductDiagram, prod_cod: ProductDiagram,
                 f: GMap, g: GMap) -> GMap:
    """f x g between constructed products."""
    if f.dom != prod_dom.proj1.cod or g.dom != prod_dom.proj2.cod:
        raise BoundaryMismatch("product_gmap domains do not match")
    if f.cod != prod_cod.proj1.cod or g.cod != prod_cod.proj2.cod:
        raise BoundaryMismatch("product_gmap codomains do not match")
    return prod_cod.mediator(compose_gmaps(f, prod_dom.proj1), compose_gmaps(g, prod_dom.proj2))


# ---------------------------------------------------------------------------
# slice adjoints: Sigma -| Delta -| Pi
# ---------------------------------------------------------------------------

def sigma(u: GMap, a: SliceObject) -> SliceObject:
    """Left adjoint to pullback: postcompose with u."""
    if a.base != u.dom:
        raise BoundaryMismatch("sigma: slice is not over the domain of u")
    return SliceObject(compose_gmaps(u, a.arrow))


def delta(u: GMap, b: SliceObject) -> SliceObject:
    """Right adjoint to sigma: the second projection of `pullback(b.arrow, u)`."""
    if b.base != u.cod:
        raise BoundaryMismatch("delta: slice is not over the codomain of u")
    return SliceObject(pullback(b.arrow, u).proj2)


class PiData:
    """Dependent product of a slice a over dom(u) along u: S -> U.

    The fiber over x in U is the set of sections of a over the fiber
    u^-1(x), whose points fibers[x] are listed ascending; the action
    conjugates sections.  A section over x is the point start[x] plus its
    values' ranks in their fibers of a, read as mixed-radix digits with the
    last one fastest, so each fiber's sections come in the order of
    `itertools.product`.  `index_of_section` runs that arithmetic
    forwards; con is the `BuiltGSet` of the sections.  The two structure
    maps of Delta_u -| Pi_u are `evaluation`, the counit at a, and
    `transpose`, the hom bijection into Pi_u a.
    """

    __slots__ = ("u", "a", "con", "slice", "fibers", "_pre", "_start", "_rank", "_weight")

    def __init__(self, u: GMap, a: SliceObject):
        if a.base != u.dom:
            raise BoundaryMismatch("pi: slice is not over the domain of u")
        s, uu = u.dom, u.cod
        fibers, pre = _fibers(u), _fibers(a.arrow)
        counts = [math.prod(len(pre[p]) for p in fib) for fib in fibers]
        total = sum(counts)
        if total > MAX_POINTS:
            raise _over_limit("dependent product", "sections",
                              {"dom": s.size, "cod": uu.size, "slice": a.total.size},
                              total, MAX_POINTS)
        rank = _fiber_ranks(pre, a.total.size)
        start = list(itertools.accumulate(counts, initial=0))
        # weight[p]: the place value of the digit at p, the product of the
        # radices len(pre[q]) of the later points q of its fiber
        weight = [0] * s.size
        for fib in fibers:
            w = 1
            for p in reversed(fib):
                weight[p] = w
                w *= len(pre[p])
        rows = []
        for ra, rs, ru in zip(a.total.rows, s.rows, uu.rows):
            # a generator g sends the section over u^-1(x) with value v at p
            # to the section over u^-1(g.x) with value g.v at g.p, so each
            # digit adds rank[g.v] * weight[g.p] to start[g.x]
            row: list[int] = []
            for x, fib in enumerate(fibers):
                acc = [start[ru[x]]]
                for p in fib:
                    w = weight[rs[p]]
                    digit = [rank[v] * w for v in map(ra.__getitem__, pre[p])]
                    acc = [c + d for c in acc for d in digit]
                row += acc
            rows.append(row)
        self.con = build_gset(s.group, total, rows)
        del rows  # free the raw rows before the slice table is built
        self.u, self.a, self.fibers = u, a, fibers
        self._pre, self._start, self._rank, self._weight = pre, start, rank, weight
        over = tuple(itertools.chain.from_iterable(map(itertools.repeat, uu.points(), counts)))
        self.slice = SliceObject(GMap(self.con.gset, uu, over))

    def index_of_section(self, x: int, values: Sequence[int]) -> int:
        """The point of the section over x with value values[k] at fibers[x][k], or KeyError."""
        fibers, arrow = self.fibers, self.a.arrow.table
        if not 0 <= x < len(fibers) or len(values) != len(fibers[x]) or any(
                not 0 <= v < len(arrow) or arrow[v] != p for p, v in zip(fibers[x], values)):
            raise KeyError((x, tuple(values)))
        rank, weight = self._rank, self._weight
        return self._start[x] + sum([rank[v] * weight[p] for p, v in zip(fibers[x], values)])

    def evaluation(self) -> tuple[Pullback, GMap]:
        """The counit Delta_u Pi_u a -> a: the pullback P of the sections
        along u, whose proj1 is ubar : P -> B, and e : P -> A, evaluating a
        section at a point of its fiber.  Built anew on each call."""
        pull = pullback(self.slice.arrow, self.u)
        # the pairs (b, p) come section by section, each section's fiber
        # points ascending, and the sections over each x in the order of
        # `itertools.product` over the fibers of a: chained, those products
        # list e
        pre = self._pre
        e = GMap(pull.gset, self.a.total, tuple(itertools.chain.from_iterable(
            itertools.chain.from_iterable(itertools.product(*map(pre.__getitem__, fib))
                                          for fib in self.fibers))))
        # evaluation triangle: a after e equals the projection to S
        if compose_gmaps(self.a.arrow, e).table != pull.proj2.table:
            raise InvalidStructure("evaluation triangle failed to commute")
        return pull, e

    def transpose(self, pull: Pullback, m: GMap) -> GMap:
        """The map c -> Pi_u a over U sending y over x to the section p -> m(y, p),
        for pull = Delta_u c, the pullback of c's arrow along u, and
        m : Delta_u c -> a; KeyError (from `index_of_section`) if some y
        gives no section."""
        if pull.g != self.u or m.dom != pull.gset or m.cod != self.a.total:
            raise BoundaryMismatch("transpose: m does not run from Delta_u c to a")
        # the pairs (y, p) come y by y, each fiber of u ascending
        values, fibers = iter(m.table), self.fibers
        return GMap(pull.f.dom, self.con.gset, tuple([
            self.index_of_section(x, list(itertools.islice(values, len(fibers[x]))))
            for x in pull.f.table]))


def pi(u: GMap, a: SliceObject) -> PiData:
    return _shared(PiData, _pi_points, u, a)


def _pi_points(pd: PiData, u: GMap, a: SliceObject) -> int:
    return u.dom.size + u.cod.size + a.total.size + pd.con.gset.size


def pi_slice(u: GMap, a: SliceObject) -> SliceObject:
    return pi(u, a).slice


# ---------------------------------------------------------------------------
# adjunction triangle checks
# ---------------------------------------------------------------------------

def check_adjunction_triangles(u: GMap, samples_dom: Sequence[SliceObject],
                               samples_cod: Sequence[SliceObject]) -> "list[tuple[str, bool]]":
    """Verify the four unit/counit triangle identities on sample slices.

    samples_dom live over dom(u) (probing Sigma_u and Pi_u), samples_cod
    over cod(u) (probing Delta_u).  Each identity is a composite of units
    and counits, checked to be the identity map: the units and counits of
    Sigma_u -| Delta_u are pullback projections and mediators, the counit of
    Delta_u -| Pi_u is `PiData.evaluation` and a map into Pi_u is a
    `PiData.transpose`, so no dependent product of a dependent product is
    built.  A cone that does not commute or a value that is not a section
    fails the triangle.  Returns (name, passed) pairs.
    """
    def holds(composite: Callable[[], GMap]) -> bool:
        try:
            return composite().is_identity()
        except (KeyError, BoundaryMismatch):
            return False

    results: list[tuple[str, bool]] = []
    for k, a in enumerate(samples_dom):
        # the counit of Sigma -| Delta on Sigma_u a after Sigma of the unit at a
        pb = pullback(sigma(u, a).arrow, u)
        results.append((f"sigma-delta/left[{k}]", holds(lambda: compose_gmaps(
            pb.proj1, pb.mediator(identity_gmap(a.total), a.arrow)))))

        # Pi(counit) after the unit on Pi_u a is the transpose of the counit
        pd = pi(u, a)
        pull, e = pd.evaluation()
        results.append((f"delta-pi/right[{k}]", holds(lambda: pd.transpose(pull, e))))

    for k, b in enumerate(samples_cod):
        # Delta of the counit of Sigma -| Delta after the unit on Delta_u b
        db = pullback(b.arrow, u)
        d2 = pullback(compose_gmaps(u, db.proj2), u)
        results.append((f"sigma-delta/right[{k}]", holds(lambda: compose_gmaps(
            db.mediator(compose_gmaps(db.proj1, d2.proj1), d2.proj2),
            d2.mediator(identity_gmap(db.gset), db.proj2)))))

        # the counit of Delta -| Pi on Delta_u b after Delta of the unit at b
        pd = pi(u, SliceObject(db.proj2))
        pull, e = pd.evaluation()
        results.append((f"delta-pi/left[{k}]", holds(lambda: compose_gmaps(e, pull.mediator(
            compose_gmaps(pd.transpose(db, identity_gmap(db.gset)), db.proj1), db.proj2)))))
    return results


# ---------------------------------------------------------------------------
# lextensivity
# ---------------------------------------------------------------------------

def lextensive_factor(f: GMap,
                      dom_cop: CoproductDiagram,
                      cod_cop: CoproductDiagram,
                      left_leg: GMap,
                      right_leg: GMap) -> tuple[GMap, GMap]:
    """Split a map of coproducts over a coproduct base into its two components.

    left_leg : dom_cop.sum -> base, right_leg : cod_cop.sum -> base must both
    be summand-respecting maps into a constructed coproduct base, with
    right_leg after f equal to left_leg.  Returns the unique (r, s) with
    f = r + s, read off the pullbacks of f along the injections of cod_cop:
    f respects the summands iff each one's points are dom_cop's summand.
    """
    if f.dom != dom_cop.sum or f.cod != cod_cop.sum:
        raise BoundaryMismatch("lextensive_factor: f does not match the coproducts")
    if left_leg.dom != dom_cop.sum or right_leg.dom != cod_cop.sum:
        raise BoundaryMismatch("lextensive_factor: legs do not match the coproducts")
    if left_leg.cod != right_leg.cod:
        raise BoundaryMismatch("lextensive_factor: legs land in different bases")
    if compose_gmaps(right_leg, f).table != left_leg.table:
        raise InvalidStructure("lextensive_factor: triangle does not commute")
    parts = []
    for dinj, cinj in ((dom_cop.inj1, cod_cop.inj1), (dom_cop.inj2, cod_cop.inj2)):
        part = pullback(f, cinj)
        if part.proj1.table != dinj.table:
            raise InvalidStructure("lextensive_factor: f does not respect the summands")
        parts.append(GMap(dinj.dom, cinj.dom, part.proj2.table))
    return parts[0], parts[1]
