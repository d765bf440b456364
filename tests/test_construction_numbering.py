"""Constructed G-sets against a reference numbering that shares no code with `build_gset`.

Pullbacks, products and dependent products number their points by position
arithmetic, and find a point the same way; the parts of a map into a
coproduct are its pullbacks along the injections.  Here each is rebuilt
from descriptors alone (pairs (a, b), sections (x, values), the points of a
part over its summand): point i is the i-th descriptor in sorted order,
and each generator row is read by moving every descriptor and looking it up
in a dict.  The generator rows and the projection tables must agree, the
lookups `index_of` and `index_of_section` must find descriptor i at point
i, the test reader `helpers.section_values` must give back its values, and
a pair or section that is not in the construction must raise KeyError.
"""
import itertools
import random

import pytest

from spanpoly.finact import (
    SliceObject,
    coproduct,
    identity_gmap,
    initial_gset,
    compose_gmaps,
    pi,
    product,
    pullback,
    sum_gmap,
)
from spanpoly.groups import (
    cyclic_group,
    generating_set,
    subgroup_class_reps,
    symmetric_group,
    trivial_group,
)

from helpers import coset_sum, relabelled_group, section_values, seeded_map, unique_from_initial

GROUPS = {
    "triv": trivial_group(),
    "C2": cyclic_group(2),
    "S3": symmetric_group(3),
    "S4": symmetric_group(4),
    "S3-identity-at-3": relabelled_group("S3r", symmetric_group(3), [3, 0, 1, 2, 4, 5]),
    "C4-identity-at-2": relabelled_group("C4r", cyclic_group(4), [2, 0, 3, 1]),
}


def reference(group, descs, act):
    """The rows and the descriptor of each point of the G-set on descs.

    act(k, d) is the descriptor of the k-th generator acting on d.
    """
    descs = sorted(descs)
    index = {d: i for i, d in enumerate(descs)}
    rows = tuple(tuple(index[act(k, d)] for d in descs)
                 for k in range(len(generating_set(group))))
    return rows, descs


def _pair_act(x, y):
    return lambda k, d: (x.rows[k][d[0]], y.rows[k][d[1]])


def check_pairs(pb, x, y, elems):
    """pb's projections and index_of against the reference pairs elems on x and y."""
    assert pb.proj1.table == tuple(a for a, _ in elems)
    assert pb.proj2.table == tuple(b for _, b in elems)
    assert [pb.index_of(a, b) for a, b in elems] == list(range(len(elems)))
    members = set(elems)
    outside = [(a, b) for a in range(-1, x.size + 1) for b in range(-1, y.size + 1)
               if (a, b) not in members]
    for a, b in outside:
        with pytest.raises(KeyError):
            pb.index_of(a, b)


def check_pullback(pb, f, g):
    descs = [(a, b) for a in f.dom.points() for b in g.dom.points() if f.table[a] == g.table[b]]
    rows, elems = reference(f.group, descs, _pair_act(f.dom, g.dom))
    assert pb.gset.size == len(elems)
    assert pb.gset.rows == rows
    check_pairs(pb, f.dom, g.dom, elems)


def check_product(pr, x, y):
    rows, elems = reference(x.group, itertools.product(x.points(), y.points()), _pair_act(x, y))
    assert pr.gset.rows == rows
    check_pairs(pr, x, y, elems)


def check_pi(u, a):
    s, uu, total = u.dom, u.cod, a.total
    fiber = {x: [p for p in s.points() if u.table[p] == x] for x in uu.points()}
    over = {p: [q for q in total.points() if a.arrow.table[q] == p] for p in s.points()}
    descs = [(x, sec) for x in uu.points()
             for sec in itertools.product(*(over[p] for p in fiber[x]))]

    def act(k, d):
        x, sec = d
        gx = uu.rows[k][x]
        moved = {s.rows[k][p]: total.rows[k][v] for p, v in zip(fiber[x], sec)}
        return gx, tuple(moved[q] for q in fiber[gx])

    rows, elems = reference(u.group, descs, act)
    pd = pi(u, a)
    assert pd.con.gset.rows == rows
    assert pd.slice.arrow.table == tuple(x for x, _ in elems)
    assert [pd.index_of_section(x, sec) for x, sec in elems] == list(range(len(elems)))
    assert [section_values(pd, [b] * len(fiber[x]), fiber[x])
            for b, (x, sec) in enumerate(elems)] == [sec for _, sec in elems]
    # not sections: one value moved off its fiber point, a value too many or
    # too few, a base point out of range
    for x, sec in elems:
        for k, p in enumerate(fiber[x]):
            for v in total.points():
                if a.arrow.table[v] != p:
                    with pytest.raises(KeyError):
                        pd.index_of_section(x, sec[:k] + (v,) + sec[k + 1:])
        for wrong in (sec + (0,), sec[1:]):
            if wrong != sec:
                with pytest.raises(KeyError):
                    pd.index_of_section(x, wrong)
    for x in (-1, uu.size):
        with pytest.raises(KeyError):
            pd.index_of_section(x, ())
    for b, (x, _) in enumerate(elems):
        for p in s.points():
            if u.table[p] != x:
                with pytest.raises(KeyError):
                    section_values(pd, [b], [p])
    return len(elems)


def check_parts(f, cop):
    r, split = f.dom, cop.left.size
    for part, side, shift in ((pullback(f, cop.inj1), False, 0),
                              (pullback(f, cop.inj2), True, split)):
        descs = [p for p in r.points() if (f.table[p] >= split) == side]
        rows, elems = reference(r.group, descs, lambda k, p: r.rows[k][p])
        assert part.gset.rows == rows
        assert part.proj1.table == tuple(elems)
        assert part.proj2.table == tuple(f.table[p] - shift for p in elems)


@pytest.mark.parametrize("name", list(GROUPS))
@pytest.mark.parametrize("seed", range(2))
def test_constructions_match_the_reference(name, seed):
    group = GROUPS[name]
    rng = random.Random(f"{name}/{seed}")
    reps = subgroup_class_reps(group)
    # coset G-sets of index at most 4 keep the dependent products small
    small = [i for i, h in enumerate(reps) if group.order // len(h) <= 4]

    def sum_of(k, picks=None):
        return coset_sum(group, reps, [rng.choice(picks or range(len(reps))) for _ in range(k)])

    x = sum_of(1)
    f, g = seeded_map(rng, sum_of(2), x), seeded_map(rng, sum_of(1), x)
    check_pullback(pullback(f, g), f, g)
    check_pullback(pullback(g, f), g, f)
    check_product(product(f.dom, g.dom), f.dom, g.dom)

    def onto(base):
        """A slice over base with a point over every point of base, so that sections exist."""
        cop = coproduct(base, sum_of(1, small))
        return SliceObject(cop.cotuple(identity_gmap(base), seeded_map(rng, cop.right, base)))

    u = seeded_map(rng, sum_of(2, small), sum_of(1, small))
    assert check_pi(u, onto(u.dom)) > 0
    check_pi(u, SliceObject(seeded_map(rng, sum_of(2, small), u.dom)))
    cop = coproduct(u.cod, sum_of(1, small))
    check_pi(cop.inj1, onto(u.cod))  # the points of the right summand have empty fibers

    cop = coproduct(x, sum_of(1))
    check_parts(seeded_map(rng, sum_of(2), cop.sum), cop)


@pytest.mark.parametrize("name", list(GROUPS))
def test_empty_constructions_match_the_reference(name):
    group = GROUPS[name]
    rng = random.Random(name)
    reps = subgroup_class_reps(group)
    x = coset_sum(group, reps, [len(reps) - 1])
    g = seeded_map(rng, coset_sum(group, reps, [0]), x)
    empty = unique_from_initial(x)
    for f1, f2 in ((empty, g), (g, empty)):
        pb = pullback(f1, f2)
        assert pb.gset.size == 0
        check_pullback(pb, f1, f2)
    check_product(product(initial_gset(group), x), initial_gset(group), x)
    # an empty slice: no sections over a nonempty fiber, one over an empty fiber
    cop = coproduct(x, coset_sum(group, reps, []))
    nothing = SliceObject(unique_from_initial(x))
    missed = sum(1 for y in x.points() if y not in g.table)
    assert check_pi(g, SliceObject(unique_from_initial(g.dom))) == missed
    assert check_pi(cop.inj1, nothing) == cop.right.size
    # every point over the left summand: the right part is empty
    check_parts(cop.inj1, cop)
    check_parts(coproduct(x, x).inj2, coproduct(x, x))


@pytest.mark.parametrize("name", ["C2", "S3", "S4"])
@pytest.mark.parametrize("seed", range(3))
def test_section_evaluation_reads_the_section_values(name, seed):
    """`PiData.evaluation`'s e, read off the section order, against the arithmetic reader.

    u : S1 + S2 -> (U1 + U2) + U3 sends S1 to U1 and S2 to U2, so the points
    of U3 have empty fibers (one empty section each); a covers S1 and
    nothing over S2, so the fibers over U2 have no sections.
    """
    group = GROUPS[name]
    rng = random.Random(f"eval/{name}/{seed}")
    reps = subgroup_class_reps(group)
    small = [i for i, h in enumerate(reps) if group.order // len(h) <= 4]

    def sum_of(k):
        return coset_sum(group, reps, [rng.choice(small) for _ in range(k)])

    cs, cu = coproduct(sum_of(1), sum_of(1)), coproduct(sum_of(1), sum_of(1))
    spread = sum_gmap(cs, cu, seeded_map(rng, cs.left, cu.left),
                      seeded_map(rng, cs.right, cu.right))
    ext = coproduct(cu.sum, sum_of(1))
    u = compose_gmaps(ext.inj1, spread)
    cover = coproduct(cs.left, sum_of(1))
    onto = cover.cotuple(identity_gmap(cs.left), seeded_map(rng, cover.right, cs.left))
    a = SliceObject(compose_gmaps(cs.inj1, onto))
    assert set(ext.inj2.table).isdisjoint(u.table)
    assert set(cs.inj2.table).isdisjoint(a.arrow.table)
    pd = pi(u, a)
    pull, e = pd.evaluation()
    # the points of U with sections are those whose whole fiber lies in S1
    covered = set(cs.inj1.table)
    with_sections = {x for x in u.cod.points()
                     if all(p in covered for p in u.dom.points() if u.table[p] == x)}
    assert set(pd.slice.arrow.table) == with_sections
    assert with_sections.issuperset(ext.inj2.table)
    assert not with_sections.issuperset(u.table[p] for p in cs.inj2.table)
    assert pull.gset.size > 0
    assert e.table == section_values(pd, pull.proj1.table, pull.proj2.table)
    assert compose_gmaps(a.arrow, e).table == pull.proj2.table

