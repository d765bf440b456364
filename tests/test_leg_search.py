"""Maps and isos under legs, against the unconstrained search filtered by the legs.

A leg pair (a, b) runs from x and y into a common G-set; a map f : x -> y
qualifies when b.f = a.  The search checks the legs at each orbit's least
point only, so it must agree, table for table and in the same order, with
the plain search filtered on every point.  The iso read off the orbit
labels (`equivariant_iso`, `slice_iso`, `span_iso`) is None iff the
filtered list of isos is empty, and otherwise one of them.  G-sets are
drawn with shuffled point numbers, so that orbits are not blocks of
consecutive points, and also over a copy of S3 whose identity is element 3.
The closed count of slice maps, `completion.count_completion_homs` with
identity legs, must count what the search yields.
"""
import random

import pytest

from spanpoly import finact
from spanpoly.completion import CompletionObject, count_completion_homs
from spanpoly.errors import BoundaryMismatch, ResourceLimit
from spanpoly.finact import (
    GMap,
    SliceObject,
    compose_gmaps,
    coproduct,
    equivariant_iso,
    equivariant_maps,
    identity_gmap,
    regular_gset,
    relabel_gset,
    slice_iso,
    terminal_gset,
    unique_to_terminal,
)
from spanpoly.groups import cyclic_group, symmetric_group, trivial_group
from spanpoly.sampling import random_gmap, random_gset, random_gset_with_fixed_point
from spanpoly.spans import Span, span_iso

from helpers import isos, relabelled_group

GROUPS = {
    "triv": trivial_group(),
    "C2": cyclic_group(2),
    "C3": cyclic_group(3),
    "C4": cyclic_group(4),
    "S3": symmetric_group(3),
    "S4": symmetric_group(4),
    "S3r": relabelled_group("S3r", symmetric_group(3), [3, 0, 1, 2, 4, 5]),
}
SEEDS = range(20)


def _shuffled(rng, x):
    perm = list(range(x.size))
    rng.shuffle(perm)
    return relabel_gset(x, perm)


def _legs(rng, x, y, f):
    """One or two leg pairs out of x and y; each admits f with even odds."""
    legs = []
    for _ in range(rng.randint(1, 2)):
        z, _ = _shuffled(rng, random_gset_with_fixed_point(rng, x.group, 6))
        b = random_gmap(rng, y, z)
        a = compose_gmaps(b, f) if rng.random() < 0.5 else random_gmap(rng, x, z)
        legs.append((a, b))
    return tuple(legs)


def _filtered(search, x, y, legs):
    return [f.table for f in search(x, y)
            if all(b.table[q] == a.table[p] for a, b in legs for p, q in enumerate(f.table))]


def _tables(maps):
    out = []
    for f in maps:
        f.validate()
        out.append(f.table)
    return out


@pytest.mark.parametrize("name", list(GROUPS))
def test_maps_under_legs_are_the_filtered_maps(name):
    found = set()
    for seed in SEEDS:
        rng = random.Random(f"maps/{name}/{seed}")
        x, _ = _shuffled(rng, random_gset(rng, GROUPS[name], 8))
        y, _ = _shuffled(rng, random_gset_with_fixed_point(rng, GROUPS[name], 8))
        legs = _legs(rng, x, y, random_gmap(rng, x, y))
        maps = _tables(equivariant_maps(x, y, legs))
        assert maps == _filtered(equivariant_maps, x, y, legs)
        found.add(bool(maps))
    assert found == {True, False}


def _count_slice_maps(a, b):
    """The slice maps a -> b over the common base V, counted in closed form as
    the completion hom-set of (1_V, a) and (1_V, b)."""
    return count_completion_homs(CompletionObject(identity_gmap(a.cod), SliceObject(a)),
                                 CompletionObject(identity_gmap(b.cod), SliceObject(b)))


@pytest.mark.parametrize("name", list(GROUPS))
def test_count_maps_counts_the_maps_the_search_yields(name):
    """Over each leg pair and over the point, none of the maps built."""
    found = set()
    for seed in SEEDS:
        rng = random.Random(f"count/{name}/{seed}")
        x, _ = _shuffled(rng, random_gset(rng, GROUPS[name], 6))
        y, _ = _shuffled(rng, random_gset_with_fixed_point(rng, GROUPS[name], 6))
        legs = _legs(rng, x, y, random_gmap(rng, x, y))
        for a, b in ((unique_to_terminal(x), unique_to_terminal(y)),) + legs:
            n = _count_slice_maps(a, b)
            assert n == len(list(equivariant_maps(x, y, ((a, b),))))
            found.add(min(n, 2))
    assert found == {0, 1, 2}


def test_count_maps_is_not_bounded_by_the_maps_guard(monkeypatch):
    """The search raises above MAX_MAPS; the count, which builds nothing, does not."""
    c2 = cyclic_group(2)
    pt = terminal_gset(c2)
    four = coproduct(coproduct(pt, pt).sum, coproduct(pt, pt).sum).sum
    leg = GMap(four, pt, (0,) * 4)
    monkeypatch.setattr(finact, "MAX_MAPS", 255)  # 4^4 maps over the point
    with pytest.raises(ResourceLimit):
        next(equivariant_maps(four, four, ((leg, leg),)))
    assert _count_slice_maps(leg, leg) == 256


@pytest.mark.parametrize("name", list(GROUPS))
def test_isos_under_legs_are_the_filtered_isos(name):
    found = set()
    for seed in SEEDS:
        rng = random.Random(f"isos/{name}/{seed}")
        x, _ = _shuffled(rng, random_gset(rng, GROUPS[name], 8))
        y, f = _shuffled(rng, x)
        legs = _legs(rng, x, y, f)
        listed = _tables(isos(x, y, legs))
        assert listed == _filtered(isos, x, y, legs)
        found.add(bool(listed))
        for some in ((), legs[:1], legs):
            _assert_one_of(equivariant_iso(x, y, some), _tables(isos(x, y, some)))
        for a, b in legs:
            _assert_one_of(slice_iso(SliceObject(a), SliceObject(b)),
                           _filtered(isos, x, y, ((a, b),)))
        if len(legs) == 2:
            (a1, b1), (a2, b2) = legs
            _assert_one_of(span_iso(Span(a1, a2), Span(b1, b2)), listed)
    assert found == {True, False}


def _assert_one_of(f, listed):
    """f is None iff nothing is listed, and else a valid map among the listed tables."""
    assert (f is None) == (not listed)
    if f is not None:
        f.validate()
        assert f.table in listed


def test_legs_must_meet_in_a_common_gset():
    c2 = cyclic_group(2)
    free, pt = regular_gset(c2), terminal_gset(c2)
    with pytest.raises(BoundaryMismatch):
        next(equivariant_maps(free, free, ((identity_gmap(free), identity_gmap(pt)),)))
    with pytest.raises(BoundaryMismatch):
        equivariant_iso(free, free, ((identity_gmap(pt), identity_gmap(free)),))
