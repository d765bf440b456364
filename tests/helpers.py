"""Shared construction helpers for the tests.

Besides small constructions, it holds the helpers that tests use to check
library code and that no command, suite or script runs: the slice action
of a polynomial and of a generator word, the forgetful functor to plain
sets, atom-count vectors, seeded relabellings, the list of all isos, a
pullback-square oracle by pair enumeration, the composite and the
reindexing of completion morphisms, an iso of completion objects by brute
force, a deliberately broken indexed category, orbit and stabilizer
readers, and a raw pair enumeration of Burnside tables.
"""
import itertools
from operator import add, mul
from typing import Iterator, Optional

from spanpoly.completion import (
    CompletionMorphism,
    CompletionObject,
    SliceIndexed,
    completion_homs,
)
from spanpoly.errors import BoundaryMismatch, InvalidStructure
from spanpoly.finact import (
    GMap,
    GSet,
    SliceObject,
    compose_gmaps,
    coproduct,
    coset_gset,
    delta,
    equivariant_maps,
    identity_gmap,
    initial_gset,
    invert_gmap,
    orbit_cosets,
    orbit_labels,
    pi_slice,
    point_images,
    product,
    pullback,
    relabel_gset,
    sigma,
    terminal_gset,
)
from spanpoly.groups import group_from_table, subgroup_class_key, trivial_group
from spanpoly.mackey import AtomLabel, atom_slice, atoms
from spanpoly.poly import DELTA, SIGMA, Polynomial, Word
from spanpoly.sampling import Rng
from spanpoly.spans import Span

def tset(group, n: int) -> GSet:
    """Plain finite set as a trivial-group action."""
    assert group.order == 1
    return GSet(group, n, ())


def tmap(group, dom_size: int, cod_size: int, table) -> GMap:
    return GMap(tset(group, dom_size), tset(group, cod_size), tuple(table))


def coset_sum(group, reps, picks):
    """The sum of coset G-sets G/H, H = reps[i] for i in picks, plus a point."""
    x = terminal_gset(group)
    for i in picks:
        x = coproduct(coset_gset(group, reps[i]), x).sum
    return x


def seeded_map(rng, x, y):
    """A seeded choice among the equivariant maps x -> y."""
    return rng.choice(list(equivariant_maps(x, y)))


def relabelled_group(name, group, perm):
    """group with element a renamed perm[a], through `group_from_table`."""
    n = group.order
    mult = [[0] * n for _ in range(n)]
    for a, row in enumerate(group.mult):
        for b, ab in enumerate(row):
            mult[perm[a]][perm[b]] = perm[ab]
    return group_from_table(name, mult)


def pairs(pb):
    """The pair (a, b) of each point of a pullback or product, read off its projections."""
    return list(zip(pb.proj1.table, pb.proj2.table))


def is_pullback_square(f: GMap, g: GMap, p1: GMap, p2: GMap) -> bool:
    """Whether (p1, p2) exhibit their domain as the pullback of f against g.

    The pairs (p1(x), p2(x)) must be distinct and be every pair (a, b) with
    f(a) = g(b), found by scanning all pairs.
    """
    if p1.dom != p2.dom or p1.cod != f.dom or p2.cod != g.dom:
        return False
    cone = list(zip(p1.table, p2.table))
    matching = {(a, b) for a in f.dom.points() for b in g.dom.points() if f(a) == g(b)}
    return len(set(cone)) == len(cone) and set(cone) == matching


def sections(pd):
    """The descriptor (x, values) of each point of a dependent product.

    values lists the section's value at each point of the fiber over x, ascending.
    """
    return [(x, section_values(pd, [b] * len(pd.fibers[x]), pd.fibers[x]))
            for b, x in enumerate(pd.slice.arrow.table)]


def section_values(pd, bs, ps):
    """For each i, the value at the point ps[i] of S of the section at point bs[i] of `pi`'s pd.

    It runs `PiData.index_of_section`'s arithmetic backwards.  KeyError
    unless each ps[i] lies in the fiber its section is over.
    """
    over, ut = pd.slice.arrow.table, pd.u.table
    out = []
    for b, p in zip(bs, ps, strict=True):
        x = over[b]
        if ut[p] != x:
            raise KeyError((b, p))
        q = pd._pre[p]
        out.append(q[(b - pd._start[x]) // pd._weight[p] % len(q)])
    return tuple(out)


def poly_key(p):
    """A complete iso invariant of a polynomial r : A -> X, n : A -> B, t : B -> Y.

    For each orbit of B the key takes the least, over the points b of the
    orbit, of D(b) = (G_b, t(b), F_b), where F_b is the sorted list of the
    pairs (G_a, r(a)) over the points a with n(a) = b; stabilizers are sorted
    tuples of elements.  The key is the sorted list of these least data.  Two
    polynomials with the same X and Y are isomorphic (bijections A -> A',
    B -> B' commuting with r, n and t) iff their keys are equal.

    Invariance.  An iso carries each b to a point with the same datum, so
    each orbit of B to one with the same least datum.

    Completeness.  D(g.b) = g.D(b), g acting on stabilizers by conjugation
    and on X and Y by their actions, so the data over an orbit of B are one
    G-orbit of data, and the least of them depends on no choice of b.  Let
    the orbits of b and b' have the same least datum, attained at b and b',
    so D(b) = D(b').  The part of the polynomial over the orbit of b is
    induced, G x_{G_b} n^-1(b) over G/G_b, from the fiber n^-1(b): a G_b-set
    with the G_b-map r to X, in which a has stabilizer G_a (G_a lies in
    G_b).  So it suffices that F_b fixes this G_b-set over X up to iso:
    then g.b -> g.b' and the induced map on A are an iso of the two parts,
    and matching the orbits of B by equal least data gives the iso.

    Put K = G_b, let L be a subgroup of K and N = N_K(L).  The points of
    stabilizer exactly L lie in the orbits of type conjugate to L, and such
    an orbit is iso over X to some K/L -> X sending the coset L to a point x
    of X^L.  Its points of stabilizer exactly L are the cosets mL, m in N,
    with values m.x: each y in the N-orbit of x is taken |N_y| / |L| times,
    and no other value.  So the count of the pair (L, y) in F_b is |N_y| / |L|
    times the number of these orbits with x in the N-orbit of y.  And K/L -> X
    with x and with m.x are iso over X (by kL -> km^-1L), so these numbers,
    for one L from each conjugacy class of K and each N-orbit of X^L, count
    the orbits of the fiber in each iso class over X: F_b fixes the fiber.
    """
    stab_a, stab_b = _stabilizers(p.n.dom), _stabilizers(p.n.cod)
    over = [[] for _ in range(p.n.cod.size)]
    for a, (b, x) in enumerate(zip(p.n.table, p.r.table)):
        over[b].append((stab_a[a], x))
    t = p.t.table
    return sorted(min((stab_b[b], t[b], sorted(over[b])) for b in o.points)
                  for o in orbit_cosets(p.n.cod))


def _stabilizers(x):
    """The stabilizer of each point of x, as a sorted tuple."""
    out = [()] * x.size
    for o in orbit_cosets(x):
        for q, k in zip(o.points, o.cosets.conj):
            out[q] = k
    return out


def isomorphic_polys(p, q):
    """Whether p and q have the same ends and isomorphic middles, by `poly_key`."""
    return p.src == q.src and p.tgt == q.tgt and poly_key(p) == poly_key(q)


def relabelled_poly(rng, p):
    """p with the points of A and of B renamed by seeded permutations."""
    a, perm_a, inv_a = shuffled_gset(rng, p.n.dom)
    b, perm_b, inv_b = shuffled_gset(rng, p.n.cod)
    return Polynomial(GMap(a, p.src, tuple(p.r.table[i] for i in inv_a)),
                      GMap(a, b, tuple(perm_b[p.n.table[i]] for i in inv_a)),
                      GMap(b, p.tgt, tuple(p.t.table[i] for i in inv_b)))


def shuffled_gset(rng, x):
    """A seeded relabelling of x: (copy, perm, inv), point p of x renamed perm[p]."""
    perm = list(range(x.size))
    rng.shuffle(perm)
    inv = [0] * x.size
    for p, q in enumerate(perm):
        inv[q] = p
    return relabel_gset(x, perm)[0], perm, inv


# ---------------------------------------------------------------------------
# polynomials: the slice action and the forgetful functor
# ---------------------------------------------------------------------------

def identity_polynomial(x: GSet) -> Polynomial:
    i = identity_gmap(x)
    return Polynomial(i, i, i)


def apply_polynomial(p: Polynomial, s: SliceObject) -> SliceObject:
    """The slice action: restriction, dependent product, dependent sum."""
    return sigma(p.t, pi_slice(p.n, delta(p.r, s)))


def apply_word(word: Word, s: SliceObject) -> SliceObject:
    """Evaluate a generator word on a slice (rightmost generator first)."""
    for gen in reversed(word):
        if gen.kind == DELTA:
            s = delta(gen.f, s)
        elif gen.kind == SIGMA:
            s = sigma(gen.f, s)
        else:
            s = pi_slice(gen.f, s)
    return s


def forget_gset(x: GSet) -> GSet:
    t = trivial_group()
    return GSet(t, x.size, ())


def forget_gmap(f: GMap) -> GMap:
    return GMap(forget_gset(f.dom), forget_gset(f.cod), f.table)


def forget_polynomial(p: Polynomial) -> Polynomial:
    return Polynomial(forget_gmap(p.r), forget_gmap(p.n), forget_gmap(p.t))


# ---------------------------------------------------------------------------
# slices, spans and orbits
# ---------------------------------------------------------------------------

def _atom_labels(arrow: GMap) -> list[AtomLabel]:
    """The orbit labels of a slice, one leg value unwrapped: (stabilizer, point)."""
    return [(s, v) for s, (v,) in orbit_labels(arrow.dom, (arrow,))]


def vectorize_slice(a: SliceObject, gens: Optional[tuple[AtomLabel, ...]] = None) -> tuple[int, ...]:
    """Atom-count vector of a slice over the generator list of its base."""
    if gens is None:
        gens = atoms(a.base)
    counts = {g: 0 for g in gens}
    for lab in _atom_labels(a.arrow):
        if lab not in counts:
            raise InvalidStructure("slice decomposes outside the generator list")
        counts[lab] += 1
    return tuple(counts[g] for g in gens)


def shuffle_slice(rng: Rng, a: SliceObject) -> SliceObject:
    """An isomorphic copy of a slice with randomly relabelled total space."""
    perm = list(range(a.total.size))
    rng.shuffle(perm)
    copy, iso = relabel_gset(a.total, perm)
    inv = [0] * len(perm)
    for p, q in enumerate(perm):
        inv[q] = p
    return SliceObject(GMap(copy, a.base, tuple(a.arrow.table[inv[q]]
                                                for q in range(copy.size))))


def isos(x: GSet, y: GSet, legs=()) -> list[GMap]:
    """The equivariant bijections x -> y commuting with the legs: the
    bijective maps among `equivariant_maps`, in its order."""
    return [f for f in equivariant_maps(x, y, legs) if f.is_bijective()]


def span_morphisms(p: Span, q: Span) -> Iterator[GMap]:
    """All two-cells p => q: apex maps commuting with all four legs.

    The hom-category of parallel spans is presented by this search rather
    than materialized.
    """
    if p.src != q.src or p.tgt != q.tgt:
        raise BoundaryMismatch("span_morphisms needs parallel spans")
    return equivariant_maps(p.apex, q.apex, ((p.left, q.left), (p.right, q.right)))


def unique_from_initial(x: GSet) -> GMap:
    return GMap(initial_gset(x.group), x, ())


def orbits(x: GSet) -> tuple[tuple[int, ...], ...]:
    """The orbits of x by least point, each ascending."""
    return tuple(tuple(sorted(o.points)) for o in orbit_cosets(x))


def stabilizer(x: GSet, p: int) -> tuple[int, ...]:
    return tuple(g for g, q in enumerate(point_images(x, p)) if q == p)


def burnside_pair_codes(group) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Burnside table entries by raw pair enumeration, off the action tables.

    For every ordered pair of atoms X, Y, numbers the pairs of X * Y by
    a * |Y| + b and scans every code in ascending order.  An unseen code is
    the least of its orbit, and the orbit is its images (g.a, g.b) under
    every group element g, read from the points' columns of the full action
    tables.  Each orbit is classified by the conjugacy class of its pair
    stabilizer stab(a) & stab(b).
    """
    pt = terminal_gset(group)
    labs = atoms(pt)
    reps = [atom_slice(pt, l).total for l in labs]
    index = {tuple(sorted(l[0])): i for i, l in enumerate(labs)}
    elements = group.elements()
    # columns[i][a][g] = g.a in atom i; stabs[i][a] = the stabilizer of a
    columns = [list(zip(*x.action)) for x in reps]
    stabs = [[frozenset(itertools.compress(elements, map(a.__eq__, col)))
              for a, col in enumerate(cols)] for cols in columns]
    entries = []
    for xcols, xstabs in zip(columns, stabs):
        row = []
        for ycols, ystabs in zip(columns, stabs):
            ny = len(ycols)
            vec = [0] * len(labs)
            seen: set[int] = set()
            # filterfalse reads `seen` as the scan goes, so each root is the
            # least code of an orbit not met before
            for root in itertools.filterfalse(seen.__contains__, range(len(xcols) * ny)):
                a, b = divmod(root, ny)
                seen.update(map(add, map(mul, xcols[a], itertools.repeat(ny)), ycols[b]))
                vec[index[subgroup_class_key(group, xstabs[a] & ystabs[b])]] += 1
            row.append(tuple(vec))
        entries.append(tuple(row))
    return tuple(entries)


# ---------------------------------------------------------------------------
# completion morphisms
# ---------------------------------------------------------------------------

def mu_flatten(o: CompletionObject) -> CompletionObject:
    """Flatten an object of the double completion by composing its legs."""
    if not isinstance(o.x, CompletionObject):
        raise InvalidStructure("mu_flatten expects a completion object of completion objects")
    return CompletionObject(compose_gmaps(o.u, o.x.u), o.x.x)


def completion_iso(xcat: SliceIndexed, o: CompletionObject,
                   o2: CompletionObject) -> Optional[CompletionMorphism]:
    """An invertible morphism o -> o2, or None: a pair (w, xi) among
    `completion_homs` with both parts bijective."""
    return next((m for m in completion_homs(xcat, o, o2)
                 if m.w.is_bijective() and m.xi.is_bijective()), None)


def completion_compose(xcat: SliceIndexed,
                       o1: CompletionObject, o2: CompletionObject, o3: CompletionObject,
                       m12: tuple[GMap, GMap],
                       m23: tuple[GMap, GMap]) -> tuple[GMap, GMap]:
    """Composite of completion morphisms o1 -> o2 -> o3 over a common base."""
    w1, xi1 = m12
    w2, xi2 = m23
    w = compose_gmaps(w2, w1)
    lifted = xcat.act_mor(w1, o2.x, xcat.act_obj(w2, o3.x), xi2)
    coh = xcat.compose_witness(w2, w1, o3.x)
    return (w, compose_gmaps(coh, compose_gmaps(lifted, xi1)))


def reindex_mor(xcat: SliceIndexed, r: GMap,
                o2: CompletionObject, o3: CompletionObject,
                m: tuple[GMap, GMap]) -> tuple[GMap, GMap]:
    """Action of reindexing along r on a completion morphism o2 -> o3."""
    w, xi = m
    pb2 = pullback(o2.u, r)
    pb3 = pullback(o3.u, r)
    wbar = pb3.mediator(compose_gmaps(w, pb2.proj1), pb2.proj2)
    step = xcat.act_mor(pb2.proj1, o2.x, xcat.act_obj(w, o3.x), xi)
    c1 = xcat.compose_witness(w, pb2.proj1, o3.x)
    c2 = xcat.compose_witness(pb3.proj1, wbar, o3.x)
    c2_inv = invert_gmap(c2)
    xibar = compose_gmaps(c2_inv, compose_gmaps(c1, step))
    return (wbar, xibar)


class ForgetfulReindexing(SliceIndexed):
    """Slices whose reindexing forgets the map: X(f)(x) is dom(f) x total(x)
    over dom(f).  Pushing forward along f and reindexing along g then do not
    exchange across a pullback square unless f_g is a bijection."""

    def __init__(self):
        super().__init__()
        self.name = "forgetful"

    def act_obj(self, f, x):
        return SliceObject(product(f.dom, x.total).proj1)


class ConstantWitness(SliceIndexed):
    """Slices whose coherence iso is collapsed to a constant map, so it is
    not bijective once its domain has two points."""

    def compose_witness(self, f, g, a):
        w = super().compose_witness(f, g, a)
        return GMap(w.dom, w.cod, w.table[:1] * w.dom.size)


class TwistedWitness(SliceIndexed):
    """Slices whose coherence iso is followed by the action of t.  For t
    central, such as C2's non-identity element, that action is an
    automorphism of every G-set, so the witness stays a bijection between
    the same fiber objects but no longer commutes with their arrows."""

    def __init__(self, t):
        super().__init__()
        self.t = t

    def compose_witness(self, f, g, a):
        w = super().compose_witness(f, g, a)
        return GMap(w.dom, w.cod, tuple(w.cod.act(self.t, q) for q in w.table))
