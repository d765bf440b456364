"""Mackey and Tambara restriction and transfer by the double-coset formula.

The evaluators read restriction and transfer off orbit records and build no
G-set per atom.  These tests hold them to the slice routes they replace
(pullback, postcomposition, then relabelling), to a product-based fixed-point
reference written here, and to an oracle in mark coordinates that counts
fixed points straight from the action tables.
"""
import random

import pytest

from spanpoly import finact
from spanpoly.errors import BoundaryMismatch, GroupMismatch, ResourceLimit
from spanpoly.finact import (
    SliceObject,
    coproduct,
    coset_gset,
    delta,
    product,
    regular_gset,
    sigma,
    terminal_gset,
)
from spanpoly.groups import cyclic_group, subgroups, symmetric_group, trivial_group
from spanpoly.mackey import (
    BurnsideMackey,
    FixedPointMackey,
    atom_slice,
    atoms,
    canonical_slice,
    restrict_atom,
)
from spanpoly.sampling import random_gmap, random_gset, random_map_into, random_slice
from spanpoly.tambara import BurnsideTambara
from spanpoly.util_linear import lin_map

from helpers import orbits, pairs, relabelled_group, shuffle_slice, vectorize_slice

GROUPS = {
    "triv": trivial_group(),
    "C2": cyclic_group(2),
    "C3": cyclic_group(3),
    "C4": cyclic_group(4),
    "S3": symmetric_group(3),
    "S4": symmetric_group(4),
    # the identity-not-zero copies of tests/test_identity_not_zero.py
    "S3r": relabelled_group("S3r", symmetric_group(3), [3, 0, 1, 2, 4, 5]),
    "C4r": relabelled_group("C4r", cyclic_group(4), [2, 0, 3, 1]),
}


def _maps(group, seed, n=4):
    """Seeded maps f: X -> Y with several orbits over some points of Y."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        y = random_gset(rng, group, 2 * group.order)
        out.append(random_map_into(rng, y, 3 * group.order))
        x = random_gset(rng, group, 3 * group.order)
        f = random_gmap(rng, x, y)
        if f is not None:
            out.append(f)
    return out


def _slice_res_matrix(f):
    src, tgt = atoms(f.cod), atoms(f.dom)
    return lin_map([vectorize_slice(delta(f, atom_slice(f.cod, g)), tgt) for g in src],
                   len(src), len(tgt))


def _slice_tr_matrix(u):
    src, tgt = atoms(u.dom), atoms(u.cod)
    return lin_map([vectorize_slice(sigma(u, atom_slice(u.dom, g)), tgt) for g in src],
                   len(src), len(tgt))


@pytest.mark.parametrize("name", list(GROUPS))
@pytest.mark.parametrize("seed", range(3))
def test_burnside_matrices_match_slice_routes(name, seed):
    group = GROUPS[name]
    m = BurnsideMackey(group)
    for f in _maps(group, seed):
        assert m.res_matrix(f) == _slice_res_matrix(f)
        assert m.tr_matrix(f) == _slice_tr_matrix(f)


@pytest.mark.parametrize("name", list(GROUPS))
@pytest.mark.parametrize("seed", range(3))
def test_burnside_tambara_matches_slice_routes(name, seed):
    group = GROUPS[name]
    t = BurnsideTambara(group)
    rng = random.Random(100 + seed)
    for f in _maps(group, seed):
        for _ in range(2):
            # shuffled copies: the routes must not rely on canonical input
            v = shuffle_slice(rng, random_slice(rng, f.cod, 2 * group.order))
            assert t.res(f, v) == canonical_slice(delta(f, v))
            w = shuffle_slice(rng, random_slice(rng, f.dom, 2 * group.order))
            assert t.tr(f, w) == canonical_slice(sigma(f, w))


def test_evaluators_build_no_g_set(monkeypatch):
    """Restriction and transfer run with pullbacks and `build_gset` switched off."""
    group = GROUPS["S3"]
    rng = random.Random(5)
    cases = [(f, random_slice(rng, f.cod, 12), random_slice(rng, f.dom, 12))
             for f in _maps(group, 0, n=2)]
    coords = regular_gset(group)

    def refuse(*args, **kwargs):
        raise AssertionError("construction called")

    monkeypatch.setattr(finact.Pullback, "__init__", refuse)
    monkeypatch.setattr(finact, "build_gset", refuse)
    b, fp, t = BurnsideMackey(group), FixedPointMackey(group, coords), BurnsideTambara(group)
    for f, v, w in cases:
        for m in (b, fp):
            m.value_gens(f.dom)
            m.res_matrix(f)
            m.tr_matrix(f)
        t.res(f, v)
        t.tr(f, w)


def test_restrict_atom_counts_h_orbits_of_the_fiber():
    """G/G -> pt restricted to the free S3-set is one free atom; G/e -> pt gives |G|."""
    s3 = GROUPS["S3"]
    free = regular_gset(s3)
    f = finact.unique_to_terminal(free)
    whole = tuple(range(s3.order))
    assert restrict_atom(f, (whole, 0)) == [((0,), 0)]
    assert len(restrict_atom(f, ((0,), 0))) == s3.order
    assert sum(s3.order // len(k) for k, _ in restrict_atom(f, ((0,), 0))) == s3.order ** 2


def test_tambara_routes_keep_boundary_errors():
    c2 = GROUPS["C2"]
    t = BurnsideTambara(c2)
    f = finact.unique_to_terminal(regular_gset(c2))
    over_dom = SliceObject(finact.identity_gmap(f.dom))
    with pytest.raises(BoundaryMismatch, match="res: slice is not over the codomain of f"):
        t.res(f, over_dom)
    with pytest.raises(BoundaryMismatch, match="tr: slice is not over the domain of u"):
        t.tr(f, SliceObject(finact.identity_gmap(f.cod)))


def test_tambara_res_keeps_the_size_guard(monkeypatch):
    """Restriction raises the pullback's guard, with its fields, before rebuilding."""
    s3 = GROUPS["S3"]
    t = BurnsideTambara(s3)
    f = finact.unique_to_terminal(coproduct(regular_gset(s3), regular_gset(s3)).sum)
    v = SliceObject(finact.unique_to_terminal(regular_gset(s3)))
    n = delta(f, v).size
    assert n == 72
    monkeypatch.setattr(finact, "MAX_POINTS", n - 1)
    with pytest.raises(ResourceLimit) as exc:
        t.res(f, v)
    e = exc.value
    assert (e.construction, e.sizes, e.projected, e.limit) == (
        "G-set construction", {"descriptors": n}, n, n - 1)
    with pytest.raises(ResourceLimit) as old:
        delta(f, v)
    assert str(e) == str(old.value)
    monkeypatch.setattr(finact, "MAX_POINTS", n)
    assert t.res(f, v).size == n


def _guard_error(call):
    """The message and fields of the ResourceLimit that call raises."""
    with pytest.raises(ResourceLimit) as exc:
        call()
    e = exc.value
    return str(e), (e.construction, e.sizes, e.projected, e.limit)


def test_burnside_res_keeps_the_pullback_size_guard(monkeypatch):
    """Restriction raises the guard of the first atom pullback over the limit."""
    s3 = GROUPS["S3"]
    f = finact.unique_to_terminal(coproduct(regular_gset(s3), regular_gset(s3)).sum)
    n = max(delta(f, atom_slice(f.cod, g)).size for g in atoms(f.cod))
    assert n == 72
    m = BurnsideMackey(s3)
    monkeypatch.setattr(finact, "MAX_POINTS", n - 1)
    got = _guard_error(lambda: m.res_matrix(f))
    assert got[1] == ("G-set construction", {"descriptors": n}, n, n - 1)
    assert got == _guard_error(lambda: _slice_res_matrix(f))
    monkeypatch.setattr(finact, "MAX_POINTS", n)
    assert m.res_matrix(f) == _slice_res_matrix(f)


# ---------------------------------------------------------------------------
# fixed-point functor against a product-based reference
# ---------------------------------------------------------------------------

class ProductFixedPoint:
    """The fixed-point functor read off the built product x * coords."""

    def __init__(self, coords):
        self.coords = coords

    def _gens(self, x):
        pr = product(x, self.coords)
        descs = pairs(pr)
        orbit_of = {}
        for i, o in enumerate(orbits(pr.gset)):
            for p in o:
                orbit_of[descs[p]] = i
        gens = tuple(descs[o[0]] for o in orbits(pr.gset))
        return gens, orbit_of

    def value_gens(self, x):
        return self._gens(x)[0]

    def res_matrix(self, f):
        gens_b, orbit_b = self._gens(f.cod)
        gens_a, _ = self._gens(f.dom)
        rows = [[int(orbit_b[(f.table[a], k)] == i) for a, k in gens_a]
                for i in range(len(gens_b))]
        return lin_map(rows, len(gens_b), len(gens_a))

    def tr_matrix(self, u):
        gens_a, orbit_a = self._gens(u.dom)
        gens_b, _ = self._gens(u.cod)
        rows = [[sum(1 for a in u.dom.points() if u.table[a] == b and orbit_a[(a, k)] == i)
                 for b, k in gens_b] for i in range(len(gens_a))]
        return lin_map(rows, len(gens_a), len(gens_b))


def _coordinate_sets(group):
    """Terminal, free-orbit and mixed coordinate G-sets."""
    subs = subgroups(group)
    mixed = coproduct(coset_gset(group, subs[len(subs) // 2]), terminal_gset(group)).sum
    mixed = coproduct(regular_gset(group), mixed).sum if group.order <= 4 else mixed
    return {"terminal": terminal_gset(group), "free": regular_gset(group), "mixed": mixed}


@pytest.mark.parametrize("name", list(GROUPS))
@pytest.mark.parametrize("kind", ["terminal", "free", "mixed"])
def test_fixed_point_matches_product_reference(name, kind):
    group = GROUPS[name]
    coords = _coordinate_sets(group)[kind]
    m, ref = FixedPointMackey(group, coords), ProductFixedPoint(coords)
    for f in _maps(group, 7, n=3):
        for x in (f.dom, f.cod):
            assert m.value_gens(x) == ref.value_gens(x)
        assert m.res_matrix(f) == ref.res_matrix(f)
        assert m.tr_matrix(f) == ref.tr_matrix(f)


def test_fixed_point_rejects_coordinates_over_another_group():
    m = FixedPointMackey(GROUPS["C2"], terminal_gset(GROUPS["C3"]))
    with pytest.raises(GroupMismatch):
        m.value_gens(terminal_gset(GROUPS["C2"]))


def test_fixed_point_keeps_the_product_size_guard(monkeypatch):
    """Each method raises the guard of the product it no longer builds, at the
    end the product route reaches first: the codomain for restriction, the
    domain for the generators and for transfer."""
    s3 = GROUPS["S3"]
    coords = regular_gset(s3)
    f = finact.unique_to_terminal(regular_gset(s3))
    m, ref = FixedPointMackey(s3, coords), ProductFixedPoint(coords)
    monkeypatch.setattr(finact, "MAX_POINTS", 5)
    for method, arg, n in (("value_gens", f.dom, 36), ("res_matrix", f, 6), ("tr_matrix", f, 36)):
        got = _guard_error(lambda: getattr(m, method)(arg))
        assert got[1] == ("G-set construction", {"descriptors": n}, n, 5)
        assert got == _guard_error(lambda: getattr(ref, method)(arg))
    monkeypatch.setattr(finact, "MAX_POINTS", 36)
    assert m.res_matrix(f) == ref.res_matrix(f)
    assert m.tr_matrix(f) == ref.tr_matrix(f)


# ---------------------------------------------------------------------------
# mark coordinates: an oracle that builds no G-set
# ---------------------------------------------------------------------------

def _atom_marks(group, x, label, subs):
    """Marks of the atom G/H -> x0: m(K, x) = #{gH : K g H = g H, g.x0 = x},
    for each subgroup K and each point x fixed by K, from the tables alone."""
    h, x0 = set(label[0]), label[1]
    mult, inv, action = group.mult, group.inverse, x.action
    marks = {}
    for ki, k in enumerate(subs):
        for p in x.points():
            if all(action[g][p] == p for g in k):
                marks[(ki, p)] = 0
        for g in group.elements():
            # gH is K-fixed iff g^-1 K g lies in H
            if all(mult[mult[inv[g]][a]][g] in h for a in k):
                marks[(ki, action[g][x0])] += 1
    return {key: c // len(h) for key, c in marks.items()}


def _vector_marks(group, x, vec, subs):
    gens = atoms(x)
    total = {}
    for c, label in zip(vec, gens):
        for key, m in _atom_marks(group, x, label, subs).items():
            total[key] = total.get(key, 0) + c * m
    return total


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "S3", "S4"])
def test_matrices_agree_with_marks(name):
    """Restriction reads m'(K, x) = m(K, f x); transfer sums m(K, x) over the
    K-fixed x of each fiber.  Checked on the image of every atom."""
    group = GROUPS[name]
    subs = subgroups(group)
    m = BurnsideMackey(group)
    for f in _maps(group, 11, n=2):
        res, tr = m.res_matrix(f), m.tr_matrix(f)
        for label, row in zip(atoms(f.cod), res.rows):
            before = _atom_marks(group, f.cod, label, subs)
            after = _vector_marks(group, f.dom, row, subs)
            assert after == {(k, x): before[(k, f.table[x])] for k, x in after}
        for label, row in zip(atoms(f.dom), tr.rows):
            before = _atom_marks(group, f.dom, label, subs)
            after = _vector_marks(group, f.cod, row, subs)
            assert after == {(k, y): sum(c for (k2, x), c in before.items()
                                         if k2 == k and f.table[x] == y)
                             for k, y in after}
