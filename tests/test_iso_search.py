"""Isos at scale: many orbits, and composites against relabelled copies.

`equivariant_iso` reads an iso off the orbit labels in one pass, so many
interchangeable orbits take linear time.  Each found iso is checked against
the legs it must commute with, and on seeded searches it is one of the isos
that `helpers.isos` lists, whose order is pinned.  A polynomial composite is
compared with a relabelled copy by its ends and `helpers.poly_key`.
"""
import hashlib
import random

from spanpoly.finact import (
    GMap,
    GSet,
    compose_gmaps,
    equivariant_iso,
    from_labels,
    iso_gsets,
    regular_gset,
)
from spanpoly.groups import cyclic_group, subgroup_class_reps, subgroups, symmetric_group
from spanpoly.poly import compose_poly
from spanpoly.sampling import random_gmap
from spanpoly.spans import Span, compose_spans, span_iso
from spanpoly.workspace import load_entries

from helpers import coset_sum, isomorphic_polys, isos, relabelled_poly, shuffled_gset
from test_compose_output import _seeded_s4_entries


def _moved(f, copy, inv):
    """f read on the relabelled copy of its domain."""
    return GMap(copy, f.cod, tuple(f.table[inv[q]] for q in range(copy.size)))


def _free_orbits_iso(n):
    c2 = cyclic_group(2)
    free = regular_gset(c2)
    x = GSet(c2, 2 * n, tuple(tuple(p + 2 * k for k in range(n) for p in row)
                              for row in free.rows))
    y, _, _ = shuffled_gset(random.Random(0), x)
    f = iso_gsets(x, y)
    assert f is not None
    f.validate()
    assert f.is_bijective()


def test_iso_gsets_on_5000_free_orbits():
    _free_orbits_iso(5000)


def test_iso_gsets_on_20000_free_orbits():
    _free_orbits_iso(20_000)


def _seeded_iso_searches():
    """Searches on seeded sums of 1-5 coset orbits over C2, S3 and C4 and relabelled copies.

    Each sum is searched against its copy with no legs and, where a seeded
    map into a sum of 1-2 orbits exists, with that map and its copy as legs.
    """
    for group in (cyclic_group(2), symmetric_group(3), cyclic_group(4)):
        subs = sorted(subgroups(group), key=sorted)
        for seed in range(40):
            rng = random.Random(f"{group.name}/{seed}")
            x = from_labels(group, (), sorted((rng.choice(subs), ())
                                              for _ in range(rng.randint(1, 5))))[0]
            y, _, inv = shuffled_gset(rng, x)
            yield x, y, ()
            z = from_labels(group, (), sorted((rng.choice(subs), ())
                                              for _ in range(rng.randint(1, 2))))[0]
            f = random_gmap(rng, x, z)
            if f is not None:
                yield x, y, ((f, _moved(f, y, inv)),)


def test_iso_enumeration_order_is_pinned():
    digest, searches, found = hashlib.sha256(), 0, 0
    for x, y, legs in _seeded_iso_searches():
        searches += 1
        listed = isos(x, y, legs)
        for f in listed:
            digest.update(repr(f.table).encode())
            found += 1
        digest.update(b";")
        f = equivariant_iso(x, y, legs)
        f.validate()
        assert f in listed
    assert (searches, found) == (197, 4447)
    assert digest.hexdigest() == (
        "0732daddd8d08a04484e3f50b051fa515dc3c6140bdad6551b4df9d74163be85")


def test_span_iso_between_a_composite_and_a_relabelled_copy():
    s3 = symmetric_group(3)
    reps = subgroup_class_reps(s3)
    rng = random.Random(3)
    x, y, z = (coset_sum(s3, reps, picks) for picks in ([2], [1, 3], [3]))
    a, b = coset_sum(s3, reps, [0, 0, 1, 2] * 6), coset_sum(s3, reps, [0, 1, 1, 2] * 6)
    p = Span(random_gmap(rng, a, x), random_gmap(rng, a, y))
    q = Span(random_gmap(rng, b, y), random_gmap(rng, b, z))
    comp = compose_spans(p, q)
    assert comp.apex.size > 1500
    apex, _, inv = shuffled_gset(rng, comp.apex)
    copy = Span(_moved(comp.left, apex, inv), _moved(comp.right, apex, inv))
    f = span_iso(comp, copy)
    assert f is not None
    f.validate()
    assert f.is_bijective()
    assert compose_gmaps(copy.left, f).table == comp.left.table
    assert compose_gmaps(copy.right, f).table == comp.right.table


def test_poly_key_between_a_composite_and_a_relabelled_copy():
    ws = load_entries(_seeded_s4_entries(7))
    comp = compose_poly(ws.poly("P"), ws.poly("Q"))[0]
    assert comp.n.dom.size > 10_000
    copy = relabelled_poly(random.Random(5), comp)
    assert copy.n.dom != comp.n.dom and copy.n.cod != comp.n.cod
    assert isomorphic_polys(comp, copy)
