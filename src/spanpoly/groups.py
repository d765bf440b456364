"""Finite groups given by full multiplication tables.

Elements are the indices 0..order-1; 0 is the identity of the builtin and
permutation groups, while `group_from_table` keeps the table's numbering,
so its identity may be any element.  A generators-as-permutations input
format is compiled down to a table, so everything downstream only ever sees
tables.  Subgroups are found class by class, by closing generator sets of
one subgroup per conjugacy class (`GroupData.class_keys`), so groups of
order 720 are in reach: `subgroups` of S6 takes under 1 s.  Tables from
outside (`group_from_table`) are checked for every group law; tables
compiled from permutations or addition mod n are associative by
construction, so only their identity and inverses are checked.
`FiniteGroup.data` (`GroupData`) is the one per-group cache.
"""
from __future__ import annotations

from functools import cached_property
from operator import ne
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidStructure
from .record import FrozenRecord


class FiniteGroup(FrozenRecord):
    """A finite group as a multiplication table.

    mult[a][b] is the product a*b.  identity and inverse are stored rather
    than recomputed; validate() rechecks every law.
    """

    __slots__ = ("name", "mult", "identity", "inverse", "generators", "__dict__")

    def __init__(self, name: str, mult: tuple[tuple[int, ...], ...], identity: int,
                 inverse: tuple[int, ...], generators: tuple[int, ...] = ()):
        self._init(name, mult, identity, inverse, generators)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name == other.name and self.mult == other.mult
                and self.identity == other.identity and self.inverse == other.inverse
                and self.generators == other.generators)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # computed once: every G-set's hash hashes its group's table
        return hash((self.name, self.mult, self.identity, self.inverse, self.generators))

    @property
    def order(self) -> int:
        return len(self.mult)

    def op(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def data(self) -> GroupData:
        """The one per-group cache; stored in the instance dict, outside equality and hash."""
        return GroupData(self)

    def validate(self) -> None:
        n = self.order
        if n == 0:
            raise InvalidStructure("group must be nonempty")
        if len(self.inverse) != n or any(len(row) != n for row in self.mult):
            raise InvalidStructure("multiplication table is not square")
        e = self.identity
        for a in range(n):
            if self.mult[e][a] != a or self.mult[a][e] != a:
                raise InvalidStructure(f"identity law fails at element {a}")
            if self.mult[a][self.inverse[a]] != e or self.mult[self.inverse[a]][a] != e:
                raise InvalidStructure(f"inverse law fails at element {a}")
        # Light's test: the a with (xa)y = x(ay) for all x, y form a submagma
        # holding the identity, so checking a generating set checks all of G
        # (Clifford and Preston, The Algebraic Theory of Semigroups I, 1.2)
        mult = self.mult
        for a in generating_set(self):
            arow = mult[a]
            for x, xrow in enumerate(mult):
                xarow = mult[xrow[a]]
                if any(map(ne, xarow, map(xrow.__getitem__, arow))):
                    y = next(y for y in range(n) if xarow[y] != xrow[arow[y]])
                    raise InvalidStructure(f"associativity fails at ({x},{a},{y})")


def _table_to_group(name: str, mult: Sequence[Sequence[int]],
                    generators: tuple[int, ...] = ()) -> FiniteGroup:
    """The group of a table of ints, its identity and inverses found and checked
    on whole rows and columns; associativity is left to `validate`."""
    mult = tuple(map(tuple, mult))
    n = len(mult)
    if any(len(row) != n or min(row) < 0 or max(row) >= n for row in mult):
        raise InvalidStructure(f"multiplication table is not {n} x {n} with entries in 0..{n - 1}")
    ident = tuple(range(n))
    columns = list(zip(*mult))
    identity = next((e for e in ident if mult[e] == ident and columns[e] == ident), None)
    if identity is None:
        raise InvalidStructure("table has no identity element")
    inverse = []
    for a, row in enumerate(mult):
        if row.count(identity) != 1:
            raise InvalidStructure(f"element {a} has no unique inverse")
        inverse.append(row.index(identity))
    return FiniteGroup(name, mult, identity, tuple(inverse), generators)


def group_from_table(name: str, mult: Sequence[Sequence[int]]) -> FiniteGroup:
    """A group from an outside table, with every law rechecked by `validate`."""
    g = _table_to_group(name, [tuple(map(int, row)) for row in mult])
    g.validate()
    return g


def group_from_permutations(name: str, gens: Sequence[Sequence[int]]) -> FiniteGroup:
    """Compile permutation generators (images lists on 0..n-1) to a table.

    The generated permutation group is enumerated by a breadth-first closure
    that composes each generator p after each element a found,
    `tuple(map(p.__getitem__, a))`; the identity gets index 0, the other
    elements follow in sorted order, and the generators become the group's
    designated generators.  Those k*n compositions also give each generator's
    left-multiplication row left_p, and the table is built row by row along
    the closure's words, row(p after a) = left_p after row(a): one C-level
    map per row instead of n^2 compositions.  Composition of permutations is
    associative, so the table is not rechecked for it.
    """
    if not gens:
        raise InvalidStructure("need at least one generator (use trivial_group() instead)")
    deg = len(gens[0])
    perms = []
    for p in gens:
        if not all(type(v) is int for v in p) or sorted(p) != list(range(deg)):
            raise InvalidStructure(f"{p!r} is not a permutation of 0..{deg - 1}")
        perms.append(tuple(p))
    ident = tuple(range(deg))
    reached = [ident]
    seen = {ident}
    images: list[dict] = [{} for _ in perms]  # images[k][a] = perms[k] after a
    words = []  # (q, k, a) with q = perms[k] after a, breadth first
    for a in reached:
        for k, p in enumerate(perms):
            q = images[k][a] = tuple(map(p.__getitem__, a))
            if q not in seen:
                seen.add(q)
                reached.append(q)
                words.append((q, k, a))
    elems = [ident] + sorted(reached[1:])
    index = {e: i for i, e in enumerate(elems)}
    lefts = [tuple(map(index.__getitem__, map(image.__getitem__, elems))) for image in images]
    rows: list = [None] * len(elems)
    rows[0] = tuple(range(len(elems)))
    for q, k, a in words:
        rows[index[q]] = tuple(map(lefts[k].__getitem__, rows[index[a]]))
    return _table_to_group(name, rows, tuple(index[p] for p in perms))


def trivial_group() -> FiniteGroup:
    return _table_to_group("triv", [[0]])


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidStructure("cyclic group needs n >= 1")
    if n == 1:
        return trivial_group()
    mult = [[(a + b) % n for b in range(n)] for a in range(n)]  # associative: no recheck
    return _table_to_group(f"C{n}", mult, generators=(1,))


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidStructure("symmetric group needs n >= 1")
    if n == 1:
        return trivial_group()
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_permutations(f"S{n}", gens)


BUILTIN_GROUPS = {
    "triv": trivial_group,
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
}


def builtin_group(name: str) -> FiniteGroup:
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise InvalidStructure(f"unknown builtin group {name!r}") from None


# ---------------------------------------------------------------------------
# subgroup machinery
# ---------------------------------------------------------------------------

def _closure(g: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    """The subgroup generated by gens: a frontier search right-multiplying by each generator.

    In a finite group the products of generators already form a subgroup, so
    each element is reached once per generator: O(|K| * #gens).
    """
    gens = tuple(gens)
    seen = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for a in frontier:
            row = g.mult[a]
            for s in gens:
                b = row[s]
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(seen)


class Cosets(NamedTuple):
    """The left cosets of a subgroup H: reps[i] is the least element of coset i,
    ascending; coset[g] is the coset of g; rows[k][i] is the coset of
    gens[k].reps[i], one row per element of `generating_set`, as in
    `GSet.rows` (the generator rows of G/H); conj[i] is
    sorted(reps[i] H reps[i]^-1).
    """

    reps: tuple[int, ...]
    coset: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    conj: tuple[tuple[int, ...], ...]


class GroupData:
    """Derived data of one group's table, computed on first use and kept; a race
    can only compute an equal entry twice, so no lock is needed.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self._cosets: dict[tuple[int, ...] | frozenset[int], Cosets] = {}

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """The designated generators, else a greedy set: each element not closed by those before."""
        g = self.group
        if g.generators:
            return g.generators
        gens: tuple[int, ...] = ()
        closed = _closure(g, gens)
        for x in g.elements():
            if x not in closed:
                gens += (x,)
                closed = _closure(g, gens)
        return gens

    @cached_property
    def words(self) -> tuple[tuple[int, int, int], ...]:
        """(g, k, h) with g = gens[k].h, one per element g but the identity, found
        breadth first from it, so each h is the identity or an earlier g.
        Raises InvalidStructure if the generators do not reach every element."""
        mult, gens = self.group.mult, self.generating_set
        reached = [self.group.identity]
        seen = set(reached)
        out = []
        for h in reached:
            for k, s in enumerate(gens):
                g = mult[s][h]
                if g not in seen:
                    seen.add(g)
                    reached.append(g)
                    out.append((g, k, h))
        if len(reached) != len(mult):
            raise InvalidStructure("generators do not generate the whole group")
        return tuple(out)

    @cached_property
    def class_keys(self) -> dict[frozenset[int], tuple[int, ...]]:
        """Every subgroup, mapped to its class key: its least sorted conjugate.

        The lattice is searched class by class.  A subgroup H is extended by
        one x per left coset xH (elements of one coset give the same
        extension), closing the generators H was found from with x.  A new
        subgroup K brings in its whole conjugacy class at once, the orbit of
        K under conjugation by the generators, each conjugate keyed by the
        least of them; only K goes on the frontier.  This reaches every
        subgroup: the extensions of gHg^-1 are the conjugates by g of the
        extensions of H, so extending one subgroup per class finds a
        conjugate of every extension, and with it the extension itself.
        """
        g = self.group
        mult, inverse = g.mult, g.inverse
        # by_gen[k][a] = s a s^-1 for s = gens[k]
        by_gen = []
        for s in self.generating_set:
            column = [row[inverse[s]] for row in mult]
            by_gen.append(tuple(map(column.__getitem__, mult[s])))
        trivial = _closure(g, ())
        keys = {trivial: (g.identity,)}
        frontier = [(trivial, ())]
        while frontier:
            h, hgens = frontier.pop()
            tried = [False] * g.order
            for x in g.elements():
                if x in h or tried[x]:
                    continue
                row = mult[x]
                for a in h:
                    tried[row[a]] = True
                kgens = hgens + (x,)
                k = _closure(g, kgens)
                if k not in keys:
                    conjugates, seen = [k], {k}
                    for c in conjugates:
                        for by in by_gen:
                            d = frozenset(map(by.__getitem__, c))
                            if d not in seen:
                                seen.add(d)
                                conjugates.append(d)
                    key = min(tuple(sorted(c)) for c in conjugates)
                    keys.update(dict.fromkeys(conjugates, key))
                    frontier.append((k, kgens))
        return keys

    @cached_property
    def subgroups(self) -> tuple[frozenset[int], ...]:
        """All subgroups, sorted by order, then by elements: the keys of `class_keys`.

        Each is reached by closing a class representative with one more
        element and then conjugating; no coset table is built on the way.
        """
        return tuple(sorted(self.class_keys, key=lambda s: (len(s), sorted(s))))

    @cached_property
    def subgroup_class_reps(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(set(self.class_keys.values()), key=lambda t: (len(t), t)))

    def cosets(self, h: tuple[int, ...] | frozenset[int]) -> Cosets:
        """The cosets of the subgroup h, memoized under h and under its sorted tuple."""
        c = self._cosets.get(h)
        if c is None:
            key = tuple(sorted(h))
            c = self._cosets.get(key)
            if c is None:
                mult, inverse = self.group.mult, self.group.inverse
                coset = [-1] * len(mult)
                reps: list[int] = []
                for g, row in enumerate(mult):
                    if coset[g] < 0:
                        for a in key:
                            coset[row[a]] = len(reps)
                        reps.append(g)
                c = self._cosets[key] = Cosets(
                    tuple(reps), tuple(coset),
                    tuple(tuple([coset[row[r]] for r in reps])
                          for row in map(mult.__getitem__, self.generating_set)),
                    tuple(tuple(sorted([mult[mult[r][a]][inverse[r]] for a in key]))
                          for r in reps))
            self._cosets[h] = c
        return c


def generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """A generating set: the designated generators, else a greedy one."""
    return g.data.generating_set


def subgroups(g: FiniteGroup) -> tuple[frozenset[int], ...]:
    """All subgroups, sorted by order, then by elements."""
    return g.data.subgroups


def subgroup_class_key(g: FiniteGroup, h: tuple[int, ...] | frozenset[int]) -> tuple[int, ...]:
    """Canonical label for the conjugacy class of a subgroup: its least sorted conjugate.

    A lookup in `GroupData.class_keys`; raises InvalidStructure if h is not a
    subgroup of g."""
    key = g.data.class_keys.get(frozenset(h))
    if key is None:
        raise InvalidStructure(f"{sorted(h)} is not a subgroup of {g.name}")
    return key


def subgroup_class_reps(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """One canonical representative per conjugacy class of subgroups, sorted."""
    return g.data.subgroup_class_reps


def double_cosets(g: FiniteGroup, h: frozenset[int], k: frozenset[int]) -> list[frozenset[int]]:
    """Partition of the group into H\\-g-/K double cosets."""
    mult = g.mult
    remaining = set(g.elements())
    out = []
    while remaining:
        x = min(remaining)
        coset = frozenset(mult[mult[a][x]][b] for a in h for b in k)
        out.append(coset)
        remaining -= coset
    return out
