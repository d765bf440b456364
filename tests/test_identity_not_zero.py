"""Table groups whose identity is not element 0, against the groups they relabel.

A group read from a table keeps the table's numbering, so its identity can
be any element.  The least element of a coset of H is then not always the
identity for the coset H itself, and an orbit must be anchored at its
least point, never at the image of its first coset representative.  Each
relabelled group is compared with the builtin group through the renaming:
maps and isos as point tables, orbit labels and atoms against full-table
scans, and every law-check suite through the command line.
"""
import json
import random

import pytest

from spanpoly import cli
from spanpoly.finact import (
    GMap,
    equivariant_iso,
    equivariant_maps,
    gset,
    orbit_labels,
    relabel_gset,
)
from spanpoly.groups import cyclic_group, subgroups, symmetric_group
from spanpoly.mackey import atoms
from spanpoly.sampling import random_gmap, random_gset, random_gset_with_fixed_point

from helpers import isos, relabelled_group

# name: (builtin group, renaming of its elements)
CASES = {
    "S3r": (symmetric_group(3), [3, 0, 1, 2, 4, 5]),  # identity at 3
    "C4r": (cyclic_group(4), [2, 0, 3, 1]),           # identity at 2
}


@pytest.fixture(params=list(CASES), ids=list(CASES))
def case(request):
    group, perm = CASES[request.param]
    copy = relabelled_group(request.param, group, perm)
    assert copy.identity == perm[group.identity] != 0
    return request.param, group, copy, perm


def _transport(x, copy, perm):
    """The G-set x over the copy: element perm[g] acts as g does."""
    table = [None] * copy.order
    for g, row in enumerate(x.action):
        table[perm[g]] = row
    return gset(copy, x.size, table)


def _pairs(group, seed):
    rng = random.Random(seed)
    return [(random_gset(rng, group, 8), random_gset_with_fixed_point(rng, group, 8))
            for _ in range(3)]


@pytest.mark.parametrize("seed", range(3))
def test_maps_and_isos_match_the_builtin_group(case, seed):
    _, group, copy, perm = case
    for x, y in _pairs(group, seed):
        x2, y2 = _transport(x, copy, perm), _transport(y, copy, perm)
        maps = list(equivariant_maps(x2, y2))
        for f in maps:
            f.validate()
        assert maps and [f.table for f in maps] == [f.table for f in equivariant_maps(x, y)]

        shuffle = list(range(x.size))
        random.Random(seed).shuffle(shuffle)
        z, _ = relabel_gset(x, shuffle)
        z2 = _transport(z, copy, perm)
        listed = isos(x2, z2)
        for f in listed:
            f.validate()
        assert listed and [f.table for f in listed] == [f.table for f in isos(x, z)]
        f = equivariant_iso(x2, z2)
        f.validate()
        assert f in listed

        for k in range(3):
            f = random_gmap(random.Random(k), x2, y2)
            f.validate()
            assert f.table == random_gmap(random.Random(k), x, y).table


def _naive_label(table, perm, points, legs):
    """min over the points of (renamed sorted stabilizer, leg values), from the full table."""
    return min((tuple(sorted(perm[g] for g, row in enumerate(table) if row[p] == p)),
                tuple(leg.table[p] for leg in legs)) for p in points)


@pytest.mark.parametrize("seed", range(3))
def test_orbit_labels_and_atoms_match_the_builtin_group(case, seed):
    _, group, copy, perm = case
    for x, y in _pairs(group, seed):
        f = random_gmap(random.Random(seed), x, y)
        x2, y2 = _transport(x, copy, perm), _transport(y, copy, perm)
        f2 = GMap(x2, y2, f.table)
        table = x.action
        orbs = {frozenset(row[p] for row in table) for p in x.points()}
        for legs, legs2 in (((), ()), ((f,), (f2,))):
            assert orbit_labels(x2, legs2) == tuple(sorted(
                _naive_label(table, perm, orb, legs) for orb in orbs))

        # an atom is the label of G/H -> y, rH -> r.p, for H fixing p
        mult, inv, ytab = group.mult, group.inverse, y.action
        want = {min((tuple(sorted(perm[mult[mult[g][h]][inv[g]]] for h in hs)), ytab[g][p])
                    for g in group.elements())
                for p in y.points() for hs in subgroups(group)
                if all(ytab[h][p] == p for h in hs)}
        assert atoms(y2) == tuple(sorted(want))


def test_check_all_suites_passes_on_a_workspace_group(case, tmp_path, capsys):
    name, _, copy, _ = case
    (tmp_path / "group.json").write_text(json.dumps(
        {"kind": "group", "name": name, "mult": [list(row) for row in copy.mult]}))
    argv = ["check", "--workspace", str(tmp_path), "--group", name,
            "--suite", "all", "--seed", "0"]
    assert cli.main(argv) == 0, capsys.readouterr().out
