"""Shared construction helpers for the tests."""
import itertools

from spanpoly.finact import (
    GMap,
    GSet,
    coproduct,
    coset_gset,
    count_equivariant_maps,
    equivariant_maps,
    terminal_gset,
)


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
    k = rng.randrange(count_equivariant_maps(x, y))
    return next(itertools.islice(equivariant_maps(x, y), k, None))
