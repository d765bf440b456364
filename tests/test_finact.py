"""Limits, colimits, and the slice adjoints, checked against direct enumeration."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from spanpoly import finact
from spanpoly.errors import BoundaryMismatch, InvalidStructure, ResourceLimit
from spanpoly.finact import (
    GMap,
    SliceObject,
    canonical_form,
    check_adjunction_triangles,
    compose_gmaps,
    coproduct,
    delta,
    equivariant_maps,
    gmap,
    gset,
    identity_gmap,
    initial_gset,
    iso_gsets,
    lextensive_factor,
    orbit_labels,
    pi,
    pi_slice,
    product,
    product_gmap,
    pullback,
    regular_gset,
    relabel_gset,
    sigma,
    slice_identity,
    slice_homs,
    slice_iso,
    sum_gmap,
    terminal_gset,
    unique_to_terminal,
)
from spanpoly.groups import (
    cyclic_group,
    generating_set,
    group_from_table,
    subgroup_class_reps,
    symmetric_group,
    trivial_group,
)
from spanpoly.sampling import random_gset, random_map_into, random_slice

from helpers import (
    coset_sum,
    is_pullback_square,
    orbits,
    pairs,
    section_values,
    sections,
    seeded_map,
    unique_from_initial,
)



# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def test_pullback_of_identities(f2):
    i = identity_gmap(f2)
    pb = pullback(i, i)
    assert iso_gsets(pb.gset, f2) is not None


def test_pullback_free_square(c2, f2, u2):
    # independent oracle: enumerate the product set and its orbits directly
    pairs = [(a, b) for a in range(2) for b in range(2)]
    orbs = set()
    for a, b in pairs:
        orb = frozenset((f2.act(g, a), f2.act(g, b)) for g in c2.elements())
        orbs.add(orb)
    assert len(pairs) == 4 and len(orbs) == 2 and all(len(o) == 2 for o in orbs)

    pb = pullback(u2, u2)
    assert pb.gset.size == 4
    assert len(orbits(pb.gset)) == 2
    assert all(len(o) == 2 for o in orbits(pb.gset))
    assert iso_gsets(pb.gset, coproduct(f2, f2).sum) is not None


def test_pullback_strict_initial(f2, c2):
    z = unique_from_initial(f2)
    pb = pullback(z, identity_gmap(f2))
    assert pb.gset.size == 0


def test_pullback_errors(f2, pt2, c3):
    with pytest.raises(BoundaryMismatch):
        pullback(identity_gmap(f2), identity_gmap(pt2))
    from spanpoly.errors import GroupMismatch
    with pytest.raises(GroupMismatch):
        pullback(identity_gmap(f2), identity_gmap(regular_gset(c3)))


def test_pullback_boundary_checks(c2, c3):
    """An equal copy of the codomain still pulls back, and a mismatch names
    the groups before the sets."""
    from spanpoly.errors import GroupMismatch
    f = unique_to_terminal(regular_gset(c2))
    g = unique_to_terminal(regular_gset(c2))
    assert f.cod is not g.cod and f.cod == g.cod
    assert pullback(f, g).gset.size == 4
    with pytest.raises(BoundaryMismatch, match="^pullback needs a common codomain$"):
        pullback(f, identity_gmap(regular_gset(c2)))
    with pytest.raises(GroupMismatch, match="^pullback over different groups$"):
        pullback(f, unique_to_terminal(regular_gset(c3)))


def test_pullback_mediator_unique(c2, f2, u2, rng):
    pb = pullback(u2, u2)
    q1 = identity_gmap(f2)
    q2 = GMap(f2, f2, (1, 0))
    med = pb.mediator(q1, q2)
    assert compose_gmaps(pb.proj1, med).table == q1.table
    assert compose_gmaps(pb.proj2, med).table == q2.table
    others = [m for m in equivariant_maps(f2, pb.gset)
              if compose_gmaps(pb.proj1, m).table == q1.table
              and compose_gmaps(pb.proj2, m).table == q2.table]
    assert others == [med]


def test_pullback_mediator_refusals(c2, f2, pt2, u2):
    """A cone whose legs start apart, land off the cospan or do not commute is refused."""
    pb = pullback(u2, u2)
    swap = GMap(f2, f2, (1, 0))
    with pytest.raises(BoundaryMismatch, match="^mediator cone legs have different domains$"):
        pb.mediator(identity_gmap(f2), coproduct(f2, f2).cotuple(swap, swap))
    with pytest.raises(BoundaryMismatch,
                       match="^mediator: q1 does not land in the domain of f$"):
        pb.mediator(u2, identity_gmap(f2))
    with pytest.raises(BoundaryMismatch,
                       match="^mediator: q2 does not land in the domain of g$"):
        pb.mediator(identity_gmap(f2), u2)
    with pytest.raises(BoundaryMismatch, match="^mediator cone does not commute$"):
        pullback(identity_gmap(f2), identity_gmap(f2)).mediator(identity_gmap(f2), swap)


# ---------------------------------------------------------------------------
# coproducts and products
# ---------------------------------------------------------------------------

def test_coproduct_unit(f2, c2):
    cop = coproduct(f2, initial_gset(c2))
    assert iso_gsets(cop.sum, f2) is not None
    assert cop.inj1.table == (0, 1)


def test_coproduct_free(f2):
    cop = coproduct(f2, f2)
    assert cop.sum.size == 4
    assert len(orbits(cop.sum)) == 2


def test_product_free_splits(f2):
    pr = product(f2, f2)
    assert pr.gset.size == 4
    assert iso_gsets(pr.gset, coproduct(f2, f2).sum) is not None


def test_product_pairing(f2):
    pr = product(f2, f2)
    d = pr.mediator(identity_gmap(f2), identity_gmap(f2))
    assert compose_gmaps(pr.proj1, d).table == identity_gmap(f2).table


def test_product_gmap_boundary_checks(f2, pt2):
    pd = product(f2, pt2)
    f = product_gmap(pd, product(pt2, pt2), unique_to_terminal(f2), identity_gmap(pt2))
    assert f.table == (0, 0)
    with pytest.raises(BoundaryMismatch, match="domains"):
        # g runs from f2, not from the second factor pt2
        product_gmap(pd, product(pt2, pt2), unique_to_terminal(f2), identity_gmap(f2))
    with pytest.raises(BoundaryMismatch, match="codomains"):
        # f lands in f2, not in the first factor pt2 of the codomain
        product_gmap(pd, product(pt2, pt2), identity_gmap(f2), identity_gmap(pt2))
    with pytest.raises(BoundaryMismatch, match="domains"):
        # g runs from the empty G-set
        product_gmap(pd, product(f2, f2), identity_gmap(f2), unique_from_initial(f2))


# ---------------------------------------------------------------------------
# sigma / delta / pi
# ---------------------------------------------------------------------------

def test_sigma_identity(f2):
    a = slice_identity(f2)
    assert sigma(identity_gmap(f2), a) == a


def test_sigma_composition(u2, f2, pt2):
    a = slice_identity(f2)
    out = sigma(u2, a)
    assert out.base == pt2 and out.arrow.table == u2.table


def test_sigma_associative(c2, f2, rng):
    v = random_map_into(rng, f2, 6)
    u = random_map_into(rng, v.dom, 6)
    a = random_slice(rng, u.dom, 6)
    assert sigma(v, sigma(u, a)) == sigma(compose_gmaps(v, u), a)


def test_delta_identity(f2, rng):
    b = random_slice(rng, f2, 6)
    assert slice_iso(delta(identity_gmap(f2), b), b) is not None


def test_delta_of_terminal_slice(u2, f2, pt2):
    d = delta(u2, slice_identity(pt2))
    assert slice_iso(d, slice_identity(f2)) is not None


def test_delta_along_initial(f2, c2, rng):
    z = unique_from_initial(f2)
    d = delta(z, random_slice(rng, f2, 6))
    assert d.size == 0


def test_delta_contravariant_composition(c2, rng):
    for _ in range(5):
        w = random_gset(rng, c2, 6)
        u = random_map_into(rng, w, 6)
        v = random_map_into(rng, u.dom, 6)
        b = random_slice(rng, w, 6)
        lhs = delta(v, delta(u, b))
        rhs = delta(compose_gmaps(u, v), b)
        assert slice_iso(lhs, rhs) is not None


def _brute_force_sections(u2, a: SliceObject):
    """Independent enumeration of sections with the conjugation action."""
    fiber = [s for s in range(u2.dom.size) if u2.table[s] == 0]
    pre = {s: [q for q in range(a.total.size) if a.arrow.table[q] == s] for s in fiber}
    secs = [dict(zip(fiber, choice))
            for choice in itertools.product(*(pre[s] for s in fiber))]
    return fiber, secs


def test_pi_free_example(c2, f2, u2):
    cop = coproduct(f2, f2)
    a = SliceObject(cop.cotuple(identity_gmap(f2), identity_gmap(f2)))
    pd = pi(u2, a)
    assert pd.slice.size == 4

    # oracle: enumerate all sections and the conjugation orbits by hand
    fiber, secs = _brute_force_sections(u2, a)
    assert len(secs) == 4

    def act_sec(g, sec):
        return {q: cop.sum.act(g, sec[f2.act(c2.inv(g), q)]) for q in fiber}

    orbs = []
    seen = []
    for sec in secs:
        if sec in seen:
            continue
        orb = [sec]
        other = act_sec(1, sec)
        if other != sec:
            orb.append(other)
        seen.extend(orb)
        orbs.append(orb)
    sizes = sorted(len(o) for o in orbs)
    assert sizes == [1, 1, 2]
    assert sorted(len(o) for o in orbits(pd.slice.total)) == [1, 1, 2]

    expected = coproduct(coproduct(terminal_gset(c2), terminal_gset(c2)).sum, f2).sum
    assert canonical_form(pd.slice.total) == canonical_form(expected)


def test_pi_identity(f2, rng):
    a = random_slice(rng, f2, 6)
    assert slice_iso(pi_slice(identity_gmap(f2), a), a) is not None


def test_pi_of_identity_slice(u2, f2, pt2):
    out = pi_slice(u2, slice_identity(f2))
    assert out.size == 1 and out.base == pt2


def test_pi_resource_guard(c2, f2, u2, monkeypatch):
    cop = coproduct(f2, f2)
    a = SliceObject(cop.cotuple(identity_gmap(f2), identity_gmap(f2)))
    monkeypatch.setattr(finact, "MAX_POINTS", 3)
    with pytest.raises(ResourceLimit):
        pi(u2, a)


def test_delta_is_the_second_projection_of_the_pullback(c2, f2, u2, rng):
    for _ in range(4):
        b = random_slice(rng, u2.cod, 5)
        assert delta(u2, b) == SliceObject(pullback(b.arrow, u2).proj2)
    with pytest.raises(BoundaryMismatch, match="delta: slice is not over the codomain of u"):
        delta(u2, slice_identity(f2))


def test_counit_identity_is_iso(f2, rng):
    a = random_slice(rng, f2, 6)
    pull, e = pi(identity_gmap(f2), a).evaluation()
    assert e.is_bijective() and pull.proj1.is_bijective()


def test_counit_triangle_and_surjectivity(c2, f2, u2):
    cop = coproduct(f2, f2)
    a = SliceObject(cop.cotuple(identity_gmap(f2), identity_gmap(f2)))
    pull, e = pi(u2, a).evaluation()
    # triangle is asserted inside evaluation; evaluation hits every point here
    assert e.is_surjective()
    assert compose_gmaps(a.arrow, e).table == pull.proj2.table


def test_adjunction_triangles_identity(f2, rng):
    res = check_adjunction_triangles(identity_gmap(f2),
                                     [random_slice(rng, f2, 5)],
                                     [random_slice(rng, f2, 5)])
    assert all(ok for _, ok in res)


def test_adjunction_triangles_free(c2, f2, u2, pt2, rng):
    cop = coproduct(f2, f2)
    a = SliceObject(cop.cotuple(identity_gmap(f2), identity_gmap(f2)))
    res = check_adjunction_triangles(u2, [a, slice_identity(f2)],
                                     [slice_identity(pt2), random_slice(rng, pt2, 4)])
    assert all(ok for _, ok in res)


def _wrong_evaluation(monkeypatch, wrong):
    """Have `PiData.evaluation` hand out e replaced by wrong(e)."""
    real = finact.PiData.evaluation

    def patched(pd):
        pull, e = real(pd)
        return pull, GMap(e.dom, e.cod, wrong(e.table))
    monkeypatch.setattr(finact.PiData, "evaluation", patched)


@pytest.mark.parametrize("wrong", [
    # swap the two copies of f2: each value stays over its point, but in the other copy
    lambda table: tuple((v + 2) % 4 for v in table),
    # every value in the first copy over the first point: no longer a section
    lambda table: (0,) * len(table),
], ids=["swapped-within-fibers", "not-a-section"])
def test_delta_pi_right_fails_on_a_wrong_evaluation(f2, pt2, u2, monkeypatch, wrong):
    """Delta_u of the codomain sample b = pt + pt is a, so both Pi triangles
    evaluate the same wrong e."""
    cop = coproduct(f2, f2)
    a = SliceObject(cop.cotuple(identity_gmap(f2), identity_gmap(f2)))
    b = SliceObject(coproduct(pt2, pt2).cotuple(identity_gmap(pt2), identity_gmap(pt2)))
    assert delta(u2, b) == a
    assert all(dict(check_adjunction_triangles(u2, [a], [b])).values())
    _wrong_evaluation(monkeypatch, wrong)
    assert dict(check_adjunction_triangles(u2, [a], [b])) == {
        "sigma-delta/left[0]": True, "delta-pi/right[0]": False,
        "sigma-delta/right[0]": True, "delta-pi/left[0]": False}


def test_sigma_delta_left_fails_on_a_twisted_sigma(c2, f2, u2, monkeypatch):
    """A sigma whose arrow is moved by C2's non-identity element t is no
    longer left adjoint: the unit's cone does not commute at a free point."""
    a = SliceObject(identity_gmap(f2))
    assert dict(check_adjunction_triangles(identity_gmap(f2), [a], []))["sigma-delta/left[0]"]
    real, t = finact.sigma, next(g for g in c2.elements() if g != c2.identity)

    def twisted(u, a):
        arrow = real(u, a).arrow
        return SliceObject(GMap(arrow.dom, arrow.cod,
                                tuple(arrow.cod.act(t, y) for y in arrow.table)))
    monkeypatch.setattr(finact, "sigma", twisted)
    assert dict(check_adjunction_triangles(identity_gmap(f2), [a], [])) == {
        "sigma-delta/left[0]": False, "delta-pi/right[0]": True}


@pytest.mark.parametrize("group", [cyclic_group(2), symmetric_group(3), symmetric_group(4)],
                         ids=["C2", "S3", "S4"])
def test_transpose_sends_each_point_to_its_values(group):
    """`PiData.transpose` against the arithmetic reader `helpers.section_values`:
    the transpose of m sends y to the section whose value at each p of its
    fiber is m(y, p).  U has a fixed point, so every map below exists, and a
    covers S, so every fiber has sections."""
    rng = random.Random(f"transpose/{group.name}")
    reps = subgroup_class_reps(group)
    small = [i for i, h in enumerate(reps) if group.order // len(h) <= 4]

    def sum_of(k):
        return coset_sum(group, reps, [rng.choice(small) for _ in range(k)])

    count = 0
    for _ in range(3):
        base = coproduct(terminal_gset(group), sum_of(1)).sum
        s = sum_of(2)
        u = seeded_map(rng, s, base)
        cover = coproduct(s, sum_of(1))
        a = SliceObject(cover.cotuple(identity_gmap(s), seeded_map(rng, cover.right, s)))
        c = SliceObject(seeded_map(rng, sum_of(2), base))
        pd, pb = pi(u, a), pullback(c.arrow, u)
        for m in slice_homs(SliceObject(pb.proj2), a):
            t = pd.transpose(c, m)
            assert compose_gmaps(pd.slice.arrow, t) == c.arrow
            assert section_values(pd, [t(y) for y in pb.proj1.table],
                                  pb.proj2.table) == m.table
            count += 1
    assert count >= 6


def test_transpose_refuses_a_map_that_is_not_a_section(f2, u2):
    cop = coproduct(f2, f2)
    a = SliceObject(cop.cotuple(identity_gmap(f2), identity_gmap(f2)))
    pd = pi(u2, a)
    pull, e = pd.evaluation()
    assert pd.transpose(pd.slice, e).is_identity()
    with pytest.raises(KeyError):
        pd.transpose(pd.slice, GMap(e.dom, e.cod, (0,) * e.dom.size))
    with pytest.raises(BoundaryMismatch, match="transpose: m does not run from Delta_u c to a"):
        pd.transpose(pd.slice, identity_gmap(pull.gset))


def test_adjunction_triangles_random(c2, rng):
    for _ in range(20):
        w = random_gset(rng, c2, 5)
        u = random_map_into(rng, w, 5)
        doms = [random_slice(rng, u.dom, 4) for _ in range(2)]
        cods = [random_slice(rng, w, 4) for _ in range(2)]
        res = check_adjunction_triangles(u, doms, cods)
        assert all(ok for _, ok in res)


# ---------------------------------------------------------------------------
# slice Chevalley-Beck and the distributivity identity
# ---------------------------------------------------------------------------

def test_slice_cb_for_sigma(c2, rng):
    for _ in range(8):
        w = random_gset(rng, c2, 6)
        f = random_map_into(rng, w, 6)
        g = random_map_into(rng, w, 6)
        pb = pullback(f, g)
        m = random_slice(rng, f.dom, 5)
        lhs = sigma(pb.proj2, delta(pb.proj1, m))
        rhs = delta(g, sigma(f, m))
        assert slice_iso(lhs, rhs) is not None


def test_slice_distributivity(c2, rng):
    for _ in range(6):
        s = random_gset(rng, c2, 5)
        u = random_map_into(rng, s, 5)
        a = random_map_into(rng, u.dom, 5)
        m = random_slice(rng, a.dom, 4)
        pd = pi(u, SliceObject(a))
        pull, e = pd.evaluation()
        lhs = pi_slice(u, sigma(a, m))
        rhs = sigma(pd.slice.arrow, pi_slice(pull.proj1, delta(e, m)))
        assert slice_iso(lhs, rhs) is not None


# ---------------------------------------------------------------------------
# lextensivity
# ---------------------------------------------------------------------------

def test_lextensive_factor_identity(f2, pt2, u2):
    dom_cop = coproduct(f2, f2)
    base_cop = coproduct(pt2, pt2)
    leg = sum_gmap(dom_cop, base_cop, u2, u2)
    f = sum_gmap(dom_cop, dom_cop, identity_gmap(f2), identity_gmap(f2))
    r, s = lextensive_factor(f, dom_cop, dom_cop, leg, leg)
    assert r.is_identity() and s.is_identity()


def test_lextensive_factor_random_unique(c2, rng):
    for _ in range(8):
        u = random_gset(rng, c2, 5)
        v = random_gset(rng, c2, 5)
        base_cop = coproduct(u, v)
        h2 = random_map_into(rng, u, 5)
        k2 = random_map_into(rng, v, 5)
        a = random_slice(rng, h2.dom, 5)
        b = random_slice(rng, k2.dom, 5)
        r, s = a.arrow, b.arrow
        h = compose_gmaps(h2, r)
        k = compose_gmaps(k2, s)
        dom_cop = coproduct(r.dom, s.dom)
        cod_cop = coproduct(h2.dom, k2.dom)
        f = sum_gmap(dom_cop, cod_cop, r, s)
        left = sum_gmap(dom_cop, base_cop, h, k)
        right = sum_gmap(cod_cop, base_cop, h2, k2)
        r2, s2 = lextensive_factor(f, dom_cop, cod_cop, left, right)
        assert (r2.table, s2.table) == (r.table, s.table)
        # exhaustive uniqueness of the factorization
        count = 0
        for rr in equivariant_maps(r.dom, h2.dom):
            for ss in equivariant_maps(s.dom, k2.dom):
                if sum_gmap(dom_cop, cod_cop, rr, ss).table == f.table:
                    count += 1
        assert count == 1


def test_lextensive_factor_rejects_summand_swap(c2, f2, pt2, u2):
    """A swap of identical summands is refused rather than split.  Over a
    base that tells the summands apart the triangle premise fails; with
    both legs into a point the triangle commutes, and the summand check
    refuses the swap."""
    dom_cop = coproduct(f2, f2)
    base_cop = coproduct(pt2, pt2)
    leg = sum_gmap(dom_cop, base_cop, u2, u2)
    swap = GMap(dom_cop.sum, dom_cop.sum, (2, 3, 0, 1))
    swap.validate()
    with pytest.raises(InvalidStructure,
                       match="^lextensive_factor: triangle does not commute$"):
        lextensive_factor(swap, dom_cop, dom_cop, leg, leg)
    to_point = unique_to_terminal(dom_cop.sum)
    with pytest.raises(InvalidStructure,
                       match="^lextensive_factor: f does not respect the summands$"):
        lextensive_factor(swap, dom_cop, dom_cop, to_point, to_point)


def test_sum_gmap_refusals(f2, pt2, u2):
    """A leg that does not start at its summand, or does not land in its
    summand, is refused before the cotuple is built."""
    cop_dom, cop_cod = coproduct(f2, f2), coproduct(pt2, pt2)
    with pytest.raises(BoundaryMismatch, match="^sum_gmap domains do not match$"):
        sum_gmap(cop_dom, cop_cod, u2, identity_gmap(pt2))
    with pytest.raises(BoundaryMismatch, match="^sum_gmap codomains do not match$"):
        sum_gmap(cop_dom, cop_cod, u2, identity_gmap(f2))


def test_decompose_inj1(f2, c2):
    cop = coproduct(f2, initial_gset(c2))
    part1, part2 = pullback(cop.inj1, cop.inj1), pullback(cop.inj1, cop.inj2)
    assert part1.gset.size == f2.size and part2.gset.size == 0


def test_decompose_constant_on_first(c2, f2, u2, pt2):
    cop = coproduct(pt2, pt2)
    f = compose_gmaps(cop.inj1, u2)
    part1, part2 = pullback(f, cop.inj1), pullback(f, cop.inj2)
    assert part1.gset.size == 2 and part2.gset.size == 0


def test_decompose_random(c2, rng):
    for _ in range(8):
        u = random_gset(rng, c2, 5)
        v = random_gset(rng, c2, 5)
        cop = coproduct(u, v)
        f = random_map_into(rng, cop.sum, 6)
        part1, part2 = pullback(f, cop.inj1), pullback(f, cop.inj2)
        assert is_pullback_square(f, cop.inj1, part1.proj1, part1.proj2)
        assert is_pullback_square(f, cop.inj2, part2.proj1, part2.proj2)
        glue = coproduct(part1.gset, part2.gset)
        assert glue.cotuple(part1.proj1, part2.proj1).is_bijective()


# ---------------------------------------------------------------------------
# iso search and canonical forms
# ---------------------------------------------------------------------------

def test_iso_self(f2):
    assert iso_gsets(f2, f2) is not None


def test_iso_coproduct_symmetry(f2, pt2):
    a = coproduct(f2, pt2).sum
    b = coproduct(pt2, f2).sum
    assert iso_gsets(a, b) is not None


def test_no_iso_different_orbit_types(f2, pt2):
    two_fixed = coproduct(pt2, pt2).sum
    assert iso_gsets(f2, two_fixed) is None
    assert canonical_form(f2) != canonical_form(two_fixed)


def test_canonical_form_iff_iso(c2, s3, rng):
    for group in (c2, s3):
        pool = [random_gset(rng, group, 6) for _ in range(8)]
        for x in pool:
            for y in pool:
                have_iso = iso_gsets(x, y) is not None
                assert have_iso == (canonical_form(x) == canonical_form(y))


def test_relabel_produces_iso(c2, rng):
    x = random_gset(rng, c2, 6)
    perm = list(range(x.size))
    rng.shuffle(perm)
    y, iso = relabel_gset(x, perm)
    iso.validate()
    assert iso_gsets(x, y) is not None


def test_strict_initial(c2, f2):
    # any map into the empty set forces an empty domain
    z = initial_gset(c2)
    maps = list(equivariant_maps(f2, z))
    assert maps == []
    assert list(equivariant_maps(z, z)) == [GMap(z, z, ())]


def test_gmap_validation(c2, f2, pt2):
    with pytest.raises(InvalidStructure):
        gmap(f2, f2, (0, 0))  # not equivariant: collapses a free orbit
    gmap(f2, pt2, (0, 0)).validate()


@pytest.mark.parametrize("change, message", [
    (lambda row: row.reverse(), "action not compatible"),
    (lambda row: row.__setitem__(0, -1), "wrong shape"),
], ids=["permuted", "out-of-range"])
def test_gset_validation_covers_non_generator_rows(change, message):
    """validate composes with the generators only, yet every row is checked."""
    s3 = symmetric_group(3)
    reg = regular_gset(s3)
    g = next(g for g in s3.elements() if g != s3.identity and g not in generating_set(s3))
    rows = [list(r) for r in reg.action]
    change(rows[g])
    with pytest.raises(InvalidStructure, match=message):
        gset(s3, reg.size, rows)


def test_gmap_validation_covers_non_generator_elements():
    """validate checks the generators only; on every bijection of the regular
    S3-set it must agree with a check over all group elements."""
    s3 = symmetric_group(3)
    reg = regular_gset(s3)
    accepted = 0
    for table in itertools.permutations(reg.points()):
        if all(table[reg.act(g, p)] == reg.act(g, table[p])
               for g in s3.elements() for p in reg.points()):
            gmap(reg, reg, table)
            accepted += 1
        else:
            with pytest.raises(InvalidStructure):
                gmap(reg, reg, table)
    assert accepted == s3.order


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_random_slices_validate(seed):
    rng = random.Random(seed)
    g = cyclic_group(2) if seed % 2 == 0 else symmetric_group(3)
    base = random_gset(rng, g, 6)
    s = random_slice(rng, base, 6)
    s.arrow.validate()
    d = delta(unique_to_terminal(base) if base.size else identity_gmap(base),
              SliceObject(unique_to_terminal(base))) if base.size else None
    assert sum(1 for _ in orbits(s.total)) == len(orbit_labels(s.total))


# ---------------------------------------------------------------------------
# the generator-row builder against every group element
# ---------------------------------------------------------------------------

def _naive_rows(x, descs, act):
    """The action row of every group element on x, from act(g, descriptor)."""
    index = {e: i for i, e in enumerate(descs)}
    return [tuple(index[act(g, e)] for e in descs) for g in x.group.elements()]


def _pair_act(x, y):
    """g acting on a pair (a, b) of points of x and y."""
    return lambda g, e: (x.act(g, e[0]), y.act(g, e[1]))


def _pi_act(u, a):
    """g acting on a section (x, values) over the ascending fiber u^-1(x)."""
    fib = [[p for p in u.dom.points() if u.table[p] == x] for x in u.cod.points()]

    def act(g, e):
        x, sec = e
        gx, ginv = u.cod.act(g, x), u.group.inv(g)
        return gx, tuple(a.total.act(g, sec[fib[x].index(u.dom.act(ginv, q))])
                         for q in fib[gx])
    return act


@pytest.mark.parametrize("group", [
    trivial_group(), symmetric_group(3), symmetric_group(4),
    group_from_table("S3t", symmetric_group(3).mult)], ids=["triv", "S3", "S4", "S3-table"])
@pytest.mark.parametrize("seed", range(3))
def test_built_action_matches_every_group_element(group, seed):
    """build_gset reads only the generators' images; every other row must still be right."""
    rng = random.Random(seed)
    reps = subgroup_class_reps(group)

    def sum_of(k):
        return coset_sum(group, reps, [rng.randrange(len(reps)) for _ in range(k)])

    base = sum_of(1)
    f = seeded_map(rng, sum_of(2), base)
    g = seeded_map(rng, sum_of(2), base)
    # a slice with a point over every point of f.dom, so that sections exist
    cop = coproduct(f.dom, sum_of(1))
    a = SliceObject(cop.cotuple(identity_gmap(f.dom), seeded_map(rng, cop.right, f.dom)))
    pb, pr, pd = pullback(f, g), product(f.dom, base), pi(f, a)
    assert list(pb.gset.action) == _naive_rows(pb.gset, pairs(pb), _pair_act(f.dom, g.dom))
    assert list(pr.gset.action) == _naive_rows(pr.gset, pairs(pr), _pair_act(f.dom, base))
    assert pd.con.gset.size > 0
    assert list(pd.con.gset.action) == _naive_rows(pd.con.gset, sections(pd), _pi_act(f, a))
