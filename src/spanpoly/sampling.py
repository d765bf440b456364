"""Deterministic random generators for sample families.

Every generator takes an explicit random.Random so that a fixed seed gives
an identical sample inventory; all underlying enumerations (subgroups,
atoms, orbit representatives) are sorted.
"""
from __future__ import annotations

import random
from typing import Optional

from .finact import (
    GMap,
    GSet,
    SliceObject,
    compose_gmaps,
    coproduct,
    from_labels,
    initial_gset,
    invert_gmap,
    orbit_candidates,
    point_images,
    product,
    relabel_gset,
    terminal_gset,
)
from .groups import FiniteGroup, subgroups, trivial_group
from .mackey import atom_label, slice_of_atoms
from .poly import Polynomial, polynomial
from .spans import Span

Rng = random.Random


def random_gset(rng: Rng, group: FiniteGroup, max_size: int) -> GSet:
    """A sum of 1-3 random coset orbits, each kept if it fits the size budget, in draw order."""
    if max_size <= 0:
        return initial_gset(group)
    labels: list[tuple] = []
    for _ in range(rng.randint(1, 3)):
        h = rng.choice(subgroups(group))
        if sum(group.order // len(k) for k, _ in labels) + group.order // len(h) <= max_size:
            labels.append((h, ()))
    if not labels:
        return terminal_gset(group)
    return from_labels(group, (), labels)[0]


def random_gset_with_fixed_point(rng: Rng, group: FiniteGroup, max_size: int) -> GSet:
    base = random_gset(rng, group, max(0, max_size - 1))
    return coproduct(base, terminal_gset(group)).sum


def random_slice(rng: Rng, base: GSet, max_size: int,
                 allow_empty: bool = True) -> SliceObject:
    """A random slice over the base, assembled from random transitive pieces.

    It is the canonical representative of its iso class, so
    `mackey.canonical_slice` returns it unchanged.
    """
    pieces = []
    size = 0
    n_orbits = rng.randint(0 if allow_empty else 1, 3)
    for _ in range(n_orbits):
        if base.size == 0:
            break
        x = rng.randrange(base.size)
        img = point_images(base, x)
        stab = frozenset(g for g, y in enumerate(img) if y == x)
        options = [h for h in subgroups(base.group) if h <= stab]
        h = rng.choice(options)
        orb_size = base.group.order // len(h)
        if size + orb_size > max_size:
            continue
        size += orb_size
        pieces.append(atom_label(base.group, h, img))
    return slice_of_atoms(base, pieces)


def random_gmap(rng: Rng, x: GSet, y: GSet) -> Optional[GMap]:
    """A random equivariant map, or None when none exists."""
    table = [0] * x.size
    for o, cands in orbit_candidates(x, y):
        if not cands:
            return None
        img = point_images(y, rng.choice(cands))
        for p, t in zip(o.points, o.cosets.reps):
            table[p] = img[t]
    return GMap(x, y, tuple(table))


def random_map_into(rng: Rng, base: GSet, max_size: int) -> GMap:
    """The arrow of a random slice over the base with at least one orbit drawn."""
    return random_slice(rng, base, max_size, allow_empty=False).arrow


def random_span(rng: Rng, u: GSet, v: GSet, max_apex: int) -> Span:
    """A random span, drawn as a slice over the product composed with projections."""
    pr = product(u, v)
    s = random_slice(rng, pr.gset, max_apex)
    return Span(compose_gmaps(pr.proj1, s.arrow), compose_gmaps(pr.proj2, s.arrow))


def shuffle_span(rng: Rng, p: Span) -> Span:
    perm = list(range(p.apex.size))
    rng.shuffle(perm)
    back = invert_gmap(relabel_gset(p.apex, perm)[1])
    return Span(compose_gmaps(p.left, back), compose_gmaps(p.right, back))


def random_cospan(rng: Rng, group: FiniteGroup, max_size: int) -> tuple[GMap, GMap]:
    w = random_gset(rng, group, max_size)
    f = random_map_into(rng, w, max_size)
    g = random_map_into(rng, w, max_size)
    return f, g


def random_polynomial(rng: Rng, x: GSet, y: GSet, max_size: int) -> Polynomial:
    """A random polynomial from x to y, in at most 20 draws; x should contain a fixed point."""
    for _ in range(20):
        t = random_map_into(rng, y, max_size)
        n = random_map_into(rng, t.dom, max_size)
        r = random_gmap(rng, n.dom, x)
        if r is not None:
            return polynomial(r, n, t)
    raise RuntimeError("could not sample a polynomial; give x a fixed point")


def random_trivial_polynomial(rng: Rng, x_size: int, y_size: int,
                              max_size: int) -> Polynomial:
    """Random polynomial over the one-point group with plain-set boundaries."""
    group = trivial_group()

    def tset(n: int) -> GSet:
        return GSet(group, n, ())
    x, y = tset(x_size), tset(y_size)
    b = tset(rng.randint(1, max_size))
    a = tset(rng.randint(0, max_size))
    t = GMap(b, y, tuple(rng.randrange(y_size) for _ in range(b.size)))
    n = GMap(a, b, tuple(rng.randrange(b.size) for _ in range(a.size)))
    r = GMap(a, x, tuple(rng.randrange(x_size) for _ in range(a.size)))
    return Polynomial(r, n, t)
