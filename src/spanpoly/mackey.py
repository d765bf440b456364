"""Commutative-monoid-valued functors on iso-classes of spans.

Values are free commutative monoids on canonically ordered generator sets,
so restriction and transfer become natural-number matrices and every law
check is an exact matrix equation.  A span X <-u- S -v-> Y acts covariantly
by restriction along the left leg followed by transfer along the right one
(the reversed-span convention gives the contravariant reading).

The Burnside instance takes a G-set to the free monoid on its atoms, the
iso classes of transitive G-sets over it.  Restriction and transfer are
read off orbit records by the double-coset formula, with no pullback or
slice per atom: restricting the atom G/H -> y along f: X -> Y gives one
atom G/(H & G_x) -> x for each H-orbit of the fiber f^-1(y), x its least
point (`restrict_atom`), and transfer along u moves the atom G/H -> x to
G/H -> u(x); restriction still raises the size guard of each atom's
pullback.  At the point its value is the
Burnside ring, whose multiplication table is computed in mark coordinates:
a G-set X has the mark vector of fixed-point counts |X^H| over the subgroup
classes, the mark vector of a product is the pointwise product, and the
table of marks is triangular, so a mark vector decomposes into atoms by
back-substitution (Burnside and Pfeiffer, Exp. Math. 1997).  The
fixed-point instance is parametrized by a G-set of coordinates: its value on
X is the monoid of equivariant natural-vector-valued functions, free on the
orbits of the product of X with the coordinate set; each orbit is named by
its least pair, read from the orbits of X without building the product,
under the product's size guard.
"""
from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Optional, Sequence

from .errors import GroupMismatch, InvalidStructure
from .finact import (
    GMap,
    GSet,
    SliceObject,
    _shared,
    _size_of_key,
    check_points,
    coproduct,
    from_labels,
    orbit_cosets,
    orbit_labels,
    point_images,
    pullback,
    terminal_gset,
)
from .groups import (
    FiniteGroup,
    double_cosets,
    subgroup_class_key,
    subgroup_class_reps,
    subgroups,
)
from .record import FrozenRecord
from .report import Check, Report
from .spans import Span, compose_spans
from .util_linear import LinMap, lin_map, mat_add, mat_compose, mat_identity


# ---------------------------------------------------------------------------
# atoms: transitive slices up to iso
# ---------------------------------------------------------------------------

AtomLabel = tuple  # ((stabilizer elements...), point of the base)


def atoms(base: GSet) -> tuple[AtomLabel, ...]:
    """Iso classes of transitive G-sets over the base, canonically sorted.

    Every transitive G-set over the base is G/H over an orbit representative
    x with H inside the stabilizer of x; the labels of these pieces, less
    duplicates, are the atoms.  Shared within a `finact.sharing` scope.
    """
    return _shared(_atoms, _size_of_key, base)


def _atoms(base: GSet) -> tuple[AtomLabel, ...]:
    group = base.group
    labs = set()
    for o in orbit_cosets(base):
        if len(o.stab) == group.order:
            # a fixed point: every g.rep is rep, so the label of G/H is (class key of H, rep)
            labs.update((k, o.rep) for k in subgroup_class_reps(group))
            continue
        stab, img = frozenset(o.stab), [o.points[i] for i in o.cosets.coset]  # img[g] = g.rep
        labs.update(atom_label(group, h, img) for h in subgroups(group) if h <= stab)
    return tuple(sorted(labs))


def atom_label(group: FiniteGroup, h: tuple[int, ...] | frozenset[int],
               img: Sequence[int]) -> AtomLabel:
    """The atom of G/H over a G-set by rH -> r.x, for H fixing x and img[g] = g.x:
    its `orbit_labels` label."""
    c = group.data.cosets(h)
    return min(zip(c.conj, map(img.__getitem__, c.reps)))


def restrict_atom(f: GMap, atom: AtomLabel) -> list[AtomLabel]:
    """The atoms of the pullback of the atom G/H -> y along f: X -> Y.

    Double-coset formula: one atom G/(H & G_p) -> p for each H-orbit of the
    fiber f^-1(y), p its least point.  H is a sorted tuple, so that the
    stabilizers H & G_p are too.
    """
    h, y = atom
    dom = f.dom
    covered = set()
    out = []
    for p, v in enumerate(f.table):
        if v == y and p not in covered:
            img = point_images(dom, p)
            covered.update(map(img.__getitem__, h))
            out.append(atom_label(dom.group, tuple([g for g in h if img[g] == p]), img))
    return out


def slice_of_atoms(base: GSet, labels: Iterable[AtomLabel]) -> SliceObject:
    """The canonical slice over base with one orbit per atom label, in any order."""
    _, (arrow,) = from_labels(base.group, (base,), sorted((s, (v,)) for s, v in labels))
    return SliceObject(arrow)


def atom_slice(base: GSet, label: AtomLabel) -> SliceObject:
    """The canonical representative slice of an atom: cosets of its stabilizer."""
    return slice_of_atoms(base, (label,))


def canonical_slice(a: SliceObject) -> SliceObject:
    """The canonical representative of the iso class of a slice."""
    _, (arrow,) = from_labels(a.base.group, (a.base,), orbit_labels(a.total, (a.arrow,)))
    return SliceObject(arrow)


# ---------------------------------------------------------------------------
# Mackey functors
# ---------------------------------------------------------------------------

class MackeyFunctor:
    """Interface: value generators, restriction and transfer matrices."""

    name: str = "abstract"

    def value_gens(self, x: GSet) -> tuple:
        raise NotImplementedError

    def res_matrix(self, f: GMap) -> LinMap:
        """Linear map value(cod f) -> value(dom f)."""
        raise NotImplementedError

    def tr_matrix(self, u: GMap) -> LinMap:
        """Linear map value(dom u) -> value(cod u)."""
        raise NotImplementedError


class BurnsideMackey(MackeyFunctor):
    """Free commutative monoid on the atoms of each G-set."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.name = f"burnside[{group.name}]"

    def value_gens(self, x: GSet) -> tuple:
        return atoms(x)

    def res_matrix(self, f: GMap) -> LinMap:
        src = self.value_gens(f.cod)
        tgt = self.value_gens(f.dom)
        index = {g: j for j, g in enumerate(tgt)}
        fiber, order = Counter(f.table), f.group.order
        rows = []
        for g in src:
            # the size guard of the pullback of the atom along f
            check_points(order // len(g[0]) * fiber[g[1]])
            row = [0] * len(tgt)
            for lab in restrict_atom(f, g):
                row[index[lab]] += 1
            rows.append(row)
        return lin_map(rows, len(src), len(tgt))

    def tr_matrix(self, u: GMap) -> LinMap:
        src = self.value_gens(u.dom)
        tgt = self.value_gens(u.cod)
        index = {g: j for j, g in enumerate(tgt)}
        rows = []
        for h, x in src:
            # the atom G/H -> x transfers to G/H -> u(x)
            row = [0] * len(tgt)
            row[index[atom_label(u.group, h, point_images(u.cod, u.table[x]))]] = 1
            rows.append(row)
        return lin_map(rows, len(src), len(tgt))


class FixedPointMackey(MackeyFunctor):
    """Equivariant functions into natural vectors indexed by a coordinate G-set.

    value(X) is free on the orbits of X x coords; restriction precomposes,
    transfer sums a function over the fibers.  Each orbit is named by its
    least pair, read from the orbits of X without building the product:
    for a = t.r, r the least point of its orbit, the orbit of (a, k) holds
    (r, t^-1.k), so its least pair is r with the least point of the
    G_r-orbit of t^-1.k.
    """

    def __init__(self, group: FiniteGroup, coords: Optional[GSet] = None):
        self.group = group
        self.coords = coords if coords is not None else terminal_gset(group)
        self.name = f"fixed-point[{group.name},k={self.coords.size}]"

    def _orbit_pairs(self, x: GSet) -> tuple[list, tuple[tuple[int, int], ...]]:
        """pairs[a][k], the least pair of the orbit of (a, k) in x * coords, and
        the ascending list of least pairs: the value generators."""
        if x.group != self.coords.group:
            raise GroupMismatch("product over different groups")
        check_points(x.size * self.coords.size)  # the size guard of the product
        inverse = x.group.inverse
        cimg = [point_images(self.coords, k) for k in self.coords.points()]
        pairs: list = [None] * x.size
        for o in orbit_cosets(x):
            low = [min(map(img.__getitem__, o.stab)) for img in cimg]
            for t, a in zip(o.cosets.reps, o.points):
                ti = inverse[t]
                pairs[a] = [(o.rep, low[img[ti]]) for img in cimg]
        return pairs, tuple(sorted(set(itertools.chain.from_iterable(pairs))))

    def value_gens(self, x: GSet) -> tuple:
        return self._orbit_pairs(x)[1]

    def res_matrix(self, f: GMap) -> LinMap:
        pairs_b, gens_b = self._orbit_pairs(f.cod)
        gens_a = self.value_gens(f.dom)
        index_b = {g: i for i, g in enumerate(gens_b)}
        rows = [[0] * len(gens_a) for _ in gens_b]
        for j, (a, k) in enumerate(gens_a):
            rows[index_b[pairs_b[f.table[a]][k]]][j] = 1
        return lin_map(rows, len(gens_b), len(gens_a))

    def tr_matrix(self, u: GMap) -> LinMap:
        pairs_a, gens_a = self._orbit_pairs(u.dom)
        gens_b = self.value_gens(u.cod)
        index_a = {g: i for i, g in enumerate(gens_a)}
        rows = [[0] * len(gens_b) for _ in gens_a]
        for j, (b, k) in enumerate(gens_b):
            for a, v in enumerate(u.table):
                if v == b:
                    rows[index_a[pairs_a[a][k]]][j] += 1
        return lin_map(rows, len(gens_a), len(gens_b))


# ---------------------------------------------------------------------------
# evaluation and law checks
# ---------------------------------------------------------------------------

def eval_span(m: MackeyFunctor, p: Span) -> LinMap:
    """Matrix of the span action value(src) -> value(tgt): restrict, then transfer."""
    return mat_compose(m.tr_matrix(p.right), m.res_matrix(p.left))


def check_functoriality(m: MackeyFunctor, p: Span, q: Span) -> Report:
    comp = compose_spans(p, q)
    lhs = eval_span(m, comp)
    rhs = mat_compose(eval_span(m, q), eval_span(m, p))
    ok = lhs == rhs
    return Report(f"mackey-functoriality:{m.name}",
                  (Check("composite-matrix", ok,
                         "" if ok else f"{lhs.rows} != {rhs.rows}"),))


def check_double_coset(m: MackeyFunctor, f: GMap, g: GMap) -> Report:
    """Exact exchange of transfer and restriction across a pullback square."""
    pb = pullback(f, g)
    lhs = mat_compose(m.tr_matrix(pb.proj2), m.res_matrix(pb.proj1))
    rhs = mat_compose(m.res_matrix(g), m.tr_matrix(f))
    ok = lhs == rhs
    return Report(f"double-coset:{m.name}", (Check("exchange", ok),))


def check_additivity(m: MackeyFunctor, x: GSet, y: GSet) -> Report:
    """value(X+Y) splits as the product of values, by restriction both ways."""
    cop = coproduct(x, y)
    r1, r2 = m.res_matrix(cop.inj1), m.res_matrix(cop.inj2)
    t1, t2 = m.tr_matrix(cop.inj1), m.tr_matrix(cop.inj2)
    n_sum = len(m.value_gens(cop.sum))
    n_x, n_y = len(m.value_gens(x)), len(m.value_gens(y))
    total = mat_add(mat_compose(t1, r1), mat_compose(t2, r2))
    checks = [Check("sum-recovers", total == mat_identity(n_sum))]
    checks.append(Check("x-component", mat_compose(r1, t1) == mat_identity(n_x)))
    checks.append(Check("y-component", mat_compose(r2, t2) == mat_identity(n_y)))
    checks.append(Check("cross-vanishes",
                        all(v == 0 for row in mat_compose(r2, t1).rows for v in row)
                        and all(v == 0 for row in mat_compose(r1, t2).rows for v in row)))
    return Report(f"additivity:{m.name}", tuple(checks))


# ---------------------------------------------------------------------------
# the Burnside multiplication table
# ---------------------------------------------------------------------------

class BurnsideTable(FrozenRecord):
    __slots__ = ("group_name", "atom_names", "atom_sizes", "entries")

    def __init__(self, group_name: str, atom_names: tuple[str, ...],
                 atom_sizes: tuple[int, ...],
                 entries: tuple[tuple[tuple[int, ...], ...], ...]):  # entries[i][j] over atoms
        self._init(group_name, atom_names, atom_sizes, entries)

    def render_text(self) -> str:
        def fmt(vec):
            parts = [f"{c}{n}" if c != 1 else n
                     for c, n in zip(vec, self.atom_names) if c]
            return "+".join(parts) if parts else "0"

        cells = [[fmt(self.entries[i][j]) for j in range(len(self.atom_names))]
                 for i in range(len(self.atom_names))]
        width = max(len(n) for n in self.atom_names)
        width = max(width, max(len(c) for row in cells for c in row))
        head = " " * (width + 2) + "  ".join(n.rjust(width) for n in self.atom_names)
        lines = [f"Burnside ring of {self.group_name} "
                 f"({len(self.atom_names)} transitive actions)", head]
        for i, name in enumerate(self.atom_names):
            lines.append(name.rjust(width) + " |" +
                         "  ".join(c.rjust(width) for c in cells[i]))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The table as JSON data; equal entries are one tuple, which `dump_json` encodes once."""
        one: dict[tuple[int, ...], tuple[int, ...]] = {}
        return {
            "group": self.group_name,
            "atoms": [{"name": n, "size": s}
                      for n, s in zip(self.atom_names, self.atom_sizes)],
            "table": [[one.setdefault(v, v) for v in row] for row in self.entries],
        }


def _atom_names(group: FiniteGroup, labs: Sequence[AtomLabel]) -> tuple[str, ...]:
    sizes = [group.order // len(l[0]) for l in labs]
    names = []
    for i, s in enumerate(sizes):
        same = [j for j, s2 in enumerate(sizes) if s2 == s]
        if len(same) == 1:
            names.append(f"[{s}]")
        else:
            names.append(f"[{s}{chr(ord('a') + same.index(i))}]")
    return tuple(names)


def _exact(num: int, den: int) -> int:
    """num / den as a natural number; anything else breaks a mark identity."""
    q, r = divmod(num, den)
    if r or q < 0:
        raise InvalidStructure(f"marks do not decompose: {num} / {den} is not a natural number")
    return q


def table_of_marks(group: FiniteGroup,
                   hs: Sequence[frozenset[int]]) -> tuple[tuple[int, ...], ...]:
    """Marks of the coset actions on a list of subgroups: marks[i][j] = |(G/H_i)^{H_j}|.

    marks[i][j] = #{x : x H_j x^-1 <= H_i} / |H_i|.  The conjugate x H_j x^-1
    depends only on the left coset x H_j, so each conjugate is read once per
    coset from `GroupData.cosets`, counted |H_j| times, and tested against every H_i.
    """
    cosets = group.data.cosets
    marks = [[0] * len(hs) for _ in hs]
    for j, hj in enumerate(hs):
        counts = Counter(map(frozenset, cosets(hj).conj))
        for i, hi in enumerate(hs):
            if len(hi) % len(hj) == 0:
                marks[i][j] = _exact(len(hj) * sum(c for k, c in counts.items() if k <= hi),
                                     len(hi))
    return tuple(tuple(row) for row in marks)


def burnside_table(group: FiniteGroup) -> BurnsideTable:
    """Multiplication table of the Burnside ring, computed in mark coordinates.

    The mark vector of a product of atoms is the pointwise product of their
    rows in the table of marks.  marks[i][j] vanishes unless H_j is
    subconjugate to H_i, so the atom coefficients come out by
    back-substitution from the largest subgroups down: each coefficient is
    what the rows already found leave in its column, divided exactly by its
    diagonal mark |N_G(H_j) : H_j|, and its own row is then subtracted.
    Builds no G-set beyond the atom labels of the point.
    """
    labs = atoms(terminal_gset(group))
    hs = [frozenset(l[0]) for l in labs]
    marks = table_of_marks(group, hs)
    n = len(hs)
    order = sorted(range(n), key=lambda j: -len(hs[j]))
    below = [[(k, mk) for k, mk in enumerate(row) if k != j and mk]
             for j, row in enumerate(marks)]
    entries = [[()] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            m = [x * y for x, y in zip(marks[a], marks[b])]
            c = [0] * n
            for j in order:
                # m[j] is what the rows of larger subgroups leave in column j
                if m[j]:
                    c[j] = q = _exact(m[j], marks[j][j])
                    for k, mk in below[j]:
                        m[k] -= q * mk
            entries[a][b] = entries[b][a] = tuple(c)
    sizes = tuple(group.order // len(h) for h in hs)
    return BurnsideTable(group.name, _atom_names(group, labs), sizes,
                         tuple(tuple(row) for row in entries))


def burnside_table_bruteforce(group: FiniteGroup) -> BurnsideTable:
    """Independent route: orbits of each product of two atoms, read off the action tables.

    For every ordered pair of atoms X, Y (each computed on its own, never
    mirrored from Y, X): X is transitive, so every orbit of X * Y meets
    {x0} * Y, x0 the point 0 of X, and it meets it in one orbit of
    S = stab(x0) on Y.  So the orbits of X * Y are the S-orbits on Y,
    each found from its least unseen point y as the images g.y, g in S,
    read from y's column of the full action table, and classified by the
    conjugacy class of the pair stabilizer S & stab(y).  Point stabilizers
    are built once per atom.  Shares no code with the marks; from the slice
    machinery above it reads only the atoms of the point, `atoms(pt)`, and
    their representatives, built by `atom_slice` through `from_labels`.
    """
    pt = terminal_gset(group)
    labs = atoms(pt)
    reps = [atom_slice(pt, l).total for l in labs]
    index = {tuple(sorted(l[0])): i for i, l in enumerate(labs)}
    class_of = {h: index[subgroup_class_key(group, h)] for h in subgroups(group)}
    elements = group.elements()
    # columns[i][a][g] = g.a in atom i; stabs[i][a] = the stabilizer of a
    columns = [list(zip(*x.action)) for x in reps]
    stabs = [[frozenset(itertools.compress(elements, map(a.__eq__, col)))
              for a, col in enumerate(cols)] for cols in columns]

    entries = []
    for xstabs in stabs:
        s = xstabs[0]
        row = []
        for ycols, ystabs in zip(columns, stabs):
            vec = [0] * len(labs)
            seen: set[int] = set()
            # filterfalse reads `seen` as the scan goes, so each y is the
            # least point of an S-orbit not met before
            for y in itertools.filterfalse(seen.__contains__, range(len(ycols))):
                seen.update(map(ycols[y].__getitem__, s))
                vec[class_of[s & ystabs[y]]] += 1
            row.append(tuple(vec))
        entries.append(tuple(row))
    sizes = tuple(x.size for x in reps)
    return BurnsideTable(group.name, _atom_names(group, labs), sizes, tuple(entries))


def burnside_table_double_cosets(group: FiniteGroup) -> BurnsideTable:
    """Third route: the double-coset expansion of products of coset actions."""
    pt = terminal_gset(group)
    labs = atoms(pt)
    class_of = {tuple(sorted(l[0])): i for i, l in enumerate(labs)}
    entries = []
    for la in labs:
        h = frozenset(la[0])
        row = []
        for lb in labs:
            k = frozenset(lb[0])
            vec = [0] * len(labs)
            for coset in double_cosets(group, h, k):
                g = min(coset)
                ginv = group.inv(g)
                conj = frozenset(group.op(group.op(g, a), ginv) for a in k)
                vec[class_of[subgroup_class_key(group, h & conj)]] += 1
            row.append(tuple(vec))
        entries.append(tuple(row))
    sizes = tuple(group.order // len(l[0]) for l in labs)
    return BurnsideTable(group.name, _atom_names(group, labs), sizes, tuple(entries))
