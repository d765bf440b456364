"""Shared construction helpers for the tests."""
from spanpoly.finact import (
    GMap,
    GSet,
    coproduct,
    coset_gset,
    equivariant_maps,
    orbit_cosets,
    relabel_gset,
    terminal_gset,
)
from spanpoly.groups import group_from_table
from spanpoly.poly import Polynomial


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
