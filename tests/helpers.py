"""Shared construction helpers for the tests."""
from spanpoly.finact import (
    GMap,
    GSet,
    coproduct,
    coset_gset,
    equivariant_maps,
    terminal_gset,
)
from spanpoly.groups import group_from_table


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
