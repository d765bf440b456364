"""Completions of indexed categories: adjoints, exchange laws, span extension."""
import random
from collections import Counter

import pytest

from spanpoly import completion, finact
from spanpoly.completion import (
    CompletionObject,
    check_biproduct_preservation,
    check_CB,
    check_CB_fiber,
    check_extension_composition,
    completion_homs,
    completion_obj,
    count_completion_homs,
    extend_to_spans,
    hom_bijection,
    hom_bijection_map,
    pushforward,
    reindex,
    SliceIndexed,
    span_action,
    terminal_indexed,
)
from spanpoly.errors import BoundaryMismatch, InvalidStructure
from spanpoly.finact import (
    GMap,
    SliceObject,
    compose_gmaps,
    coproduct,
    delta,
    equivariant_maps,
    identity_gmap,
    initial_gset,
    iso_gsets,
    pi_slice,
    sigma,
    slice_homs,
    slice_identity,
    slice_iso,
    unique_to_terminal,
)
from spanpoly.groups import BUILTIN_GROUPS, builtin_group
from spanpoly.mackey import BurnsideMackey, atoms, eval_span
from spanpoly.poly import enumerate_poly_morphisms, polynomial
from spanpoly.sampling import random_cospan, random_gset, random_map_into, random_slice
from spanpoly.spans import Span, lower_star, upper_star

from helpers import (
    ConstantWitness,
    ForgetfulReindexing,
    TwistedWitness,
    completion_compose,
    completion_iso,
    mu_flatten,
    reindex_mor,
    shuffle_slice,
    unique_from_initial,
    vectorize_slice,
)


@pytest.fixture
def e_cat():
    return SliceIndexed()


def test_reindex_identity(e_cat, f2, rng):
    leg = random_map_into(rng, f2, 5)
    o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 5))
    back = reindex(e_cat, identity_gmap(f2), o)
    assert completion_iso(e_cat, back, o) is not None


def test_reindex_terminal_instance(c2, f2, u2):
    one = terminal_indexed(c2)
    o = completion_obj(one, u2, slice_identity(one.carrier(f2)))
    back = reindex(one, u2, o)
    assert back.stage.size == 4
    assert iso_gsets(back.stage, coproduct(f2, f2).sum) is not None
    assert back.x == slice_identity(initial_gset(c2))


@pytest.mark.parametrize("name", ["C2", "S3", "S4"])
def test_terminal_instance_is_one_object_and_one_morphism(name):
    group = builtin_group(name)
    one = terminal_indexed(group)
    star = slice_identity(initial_gset(group))
    empty = GMap(star.total, star.total, ())
    assert one.name == "terminal"
    rng = random.Random(0)
    for _ in range(4):
        u, v = random_gset(rng, group, 6), random_gset(rng, group, 6)
        f = random_map_into(rng, u, 6)
        assert one.carrier(u) == initial_gset(group)
        # a slice over the empty carrier has an empty total: the one object
        assert random_slice(rng, one.carrier(u), 6) == star
        assert list(slice_homs(star, star)) == [empty]
        assert one.act_obj(f, star) == star
        assert one.push_obj(f, star) == star
        assert one.norm_obj(f, star) == star
        assert one.sum_obj(coproduct(u, v), star, star) == star
        with pytest.raises(InvalidStructure, match="object invalid"):
            completion_obj(one, identity_gmap(u), "*")


def test_reindex_along_initial(e_cat, c2, f2, rng):
    leg = random_map_into(rng, f2, 5)
    o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 5))
    z = unique_from_initial(f2)
    back = reindex(e_cat, z, o)
    assert back.stage.size == 0


def test_pushforward_is_sigma_on_slices(e_cat, c2, f2, u2, rng):
    a = random_slice(rng, f2, 5)
    o = completion_obj(e_cat, a.arrow, slice_identity(a.total))
    pushed = pushforward(e_cat, u2, o)
    assert pushed.u.table == sigma(u2, a).arrow.table
    with pytest.raises(BoundaryMismatch):
        pushforward(e_cat, u2, pushed)


def test_pushforward_identity(e_cat, f2, rng):
    leg = random_map_into(rng, f2, 5)
    o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 4))
    assert pushforward(e_cat, identity_gmap(f2), o) == o


def test_hom_bijection_identity(e_cat, f2, rng):
    leg = random_map_into(rng, f2, 4)
    o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 4))
    o2 = completion_obj(e_cat, random_map_into(rng, f2, 4),
                        random_slice(rng, f2, 0))
    o2 = CompletionObject(o2.u, random_slice(rng, o2.stage, 4))
    rep = hom_bijection(o, o2, identity_gmap(f2))
    assert rep.passed


def test_hom_bijection_free(e_cat, c2, f2, pt2, u2, rng):
    for _ in range(4):
        leg = random_map_into(rng, f2, 4)
        o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 4))
        leg2 = random_map_into(rng, pt2, 4)
        o2 = completion_obj(e_cat, leg2, random_slice(rng, leg2.dom, 4))
        rep = hom_bijection(o, o2, u2)
        assert rep.passed, rep.render_text()


def test_hom_bijection_empty_side(e_cat, c2, f2, pt2, u2):
    zero = initial_gset(c2)
    o = completion_obj(e_cat, unique_from_initial(f2), slice_identity(zero))
    o2 = completion_obj(e_cat, identity_gmap(pt2), slice_identity(pt2))
    lhs, rhs, _ = hom_bijection_map(o, o2, u2)
    assert len(lhs) == len(rhs) == 1  # the empty stage maps in exactly one way
    # genuinely empty hom-sets on both sides: no fiber map into an empty slice
    o3 = completion_obj(e_cat, identity_gmap(f2), slice_identity(f2))
    o4 = completion_obj(e_cat, identity_gmap(pt2),
                        SliceObject(unique_from_initial(pt2)))
    lhs2, rhs2, _ = hom_bijection_map(o3, o4, u2)
    assert len(lhs2) == len(rhs2) == 0


def test_hom_bijection_naturality_second_argument(e_cat, c2, f2, pt2, u2, rng):
    """Postcomposition squares of the adjunction correspondence commute."""
    leg = random_map_into(rng, f2, 3)
    o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 3))
    leg2 = random_map_into(rng, pt2, 3)
    o2 = completion_obj(e_cat, leg2, random_slice(rng, leg2.dom, 3))
    o3 = o2  # endomorphisms always include the identity
    psis = completion_homs(e_cat, o2, o3)
    assert psis
    pushed = pushforward(e_cat, u2, o)
    lhs2, _, img2 = hom_bijection_map(o, o2, u2)
    lhs3, _, img3 = hom_bijection_map(o, o3, u2)
    to3 = {(w.table, xi.table): im for (w, xi), im in zip(lhs3, img3)}
    back2 = reindex(e_cat, u2, o2)
    back3 = reindex(e_cat, u2, o3)
    for psi in psis[:2]:
        psi_bar = reindex_mor(e_cat, u2, o2, o3, psi)
        for (alpha, image) in list(zip(lhs2, img2))[:3]:
            comp_up = completion_compose(e_cat, pushed, o2, o3, alpha, psi)
            key = (comp_up[0].table, comp_up[1].table)
            assert key in to3
            img_up = to3[key]
            comp_down = completion_compose(e_cat, o, back2, back3, image, psi_bar)
            assert img_up[0].table == comp_down[0].table
            assert img_up[1].table == comp_down[1].table


def test_hom_bijection_dual(e_cat, c2, f2, pt2, u2, rng):
    """Pushing the leg is right adjoint to reindexing on the product side."""
    from spanpoly.completion import hom_bijection_dual
    for _ in range(4):
        leg = random_map_into(rng, f2, 3)
        o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 3))
        leg2 = random_map_into(rng, pt2, 3)
        o2 = completion_obj(e_cat, leg2, random_slice(rng, leg2.dom, 3))
        rep = hom_bijection_dual(o, o2, u2)
        assert rep.passed, rep.render_text()
    # identity case: both sides are the dual endomorphisms
    leg = random_map_into(rng, f2, 3)
    o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 3))
    rep = hom_bijection_dual(o, o, identity_gmap(f2))
    assert rep.passed
    n, m = map(int, rep.checks[0].detail.split(" vs "))
    assert n == m >= 1  # at least the identity morphism


def _draw_pair(rng, group, size):
    """Two completion objects of slices over one random base."""
    e, base = SliceIndexed(), random_gset(rng, group, size)
    objs = []
    for _ in range(2):
        leg = random_map_into(rng, base, size)
        objs.append(completion_obj(e, leg, random_slice(rng, leg.dom, size)))
    return objs


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
def test_count_completion_homs_counts_the_completion_hom_set(e_cat, name):
    """The closed form agrees with the search on draws that reach counts
    above 1 on every group; S4 reaches them at size 24."""
    counts = []
    for seed in range(20):
        for size in (6, 24):
            o, o2 = _draw_pair(random.Random(f"count/{name}/{seed}/{size}"),
                               builtin_group(name), size)
            counts.append(count_completion_homs(o, o2))
            assert counts[-1] == len(completion_homs(e_cat, o, o2))
    assert max(counts) > 1 and min(counts) == 0


def test_count_completion_homs_refuses_different_bases(e_cat, f2, pt2):
    o = completion_obj(e_cat, identity_gmap(f2), slice_identity(f2))
    o2 = completion_obj(e_cat, identity_gmap(pt2), slice_identity(pt2))
    with pytest.raises(BoundaryMismatch, match="^count_completion_homs: different bases"):
        count_completion_homs(o, o2)


def _poly(o):
    """The polynomial 1 <- X -> S -> U of o = (u : S -> U, x : X -> S)."""
    return polynomial(unique_to_terminal(o.x.total), o.x.arrow, o.u)


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
def test_product_completion_morphisms_are_polynomial_morphisms(name):
    """The product-completion morphisms o1 -> o2, (w : S2 -> S1, zeta :
    X(w)(x1) -> x2), searched leg by leg and fiber by fiber, are in order the
    polynomial morphisms P(o2) -> P(o1), with w as g and zeta as ell."""
    e, found = SliceIndexed(), []
    for seed in range(20):
        for size in (6, 24):
            o1, o2 = _draw_pair(random.Random(f"dual/{name}/{seed}/{size}"),
                                builtin_group(name), size)
            searched = [(w, zeta)
                        for w in equivariant_maps(o2.stage, o1.stage, ((o2.u, o1.u),))
                        for zeta in slice_homs(e.act_obj(w, o1.x), o2.x)]
            assert searched == [(m.g, m.ell)
                                for m in enumerate_poly_morphisms(_poly(o2), _poly(o1))]
            found.append(len(searched))
    assert max(found) > 1


def test_check_cb_identity_square(e_cat, f2, rng):
    leg = random_map_into(rng, f2, 4)
    o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 4))
    rep = check_CB(e_cat, identity_gmap(f2), identity_gmap(f2), [o])
    assert rep.passed


def test_check_cb_random_squares(e_cat, c2, s3, rng):
    for group in (c2, s3):
        for _ in range(3):
            f, g = random_cospan(rng, group, 5)
            leg = random_map_into(rng, f.dom, 4)
            o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 4))
            assert check_CB(e_cat, f, g, [o]).passed


# check_CB's verdict per group and seed on the cospans below: the exchange
# holds in the slices and fails in the forgetful reindexing on these draws
FORGETFUL_CB_VERDICTS = {
    "C2": [True, False, True, False, False, False],
    "S3": [False, True, False, False, False, False],
    "C4": [False, False, False, True, True, True],
}


@pytest.mark.parametrize("name", sorted(FORGETFUL_CB_VERDICTS))
def test_check_cb_fails_on_a_forgetful_reindexing(e_cat, name):
    group = builtin_group(name)
    verdicts = []
    for seed in range(6):
        rng = random.Random(f"cb/{name}/{seed}")
        f, g = random_cospan(rng, group, 6)
        leg = random_map_into(rng, f.dom, 6)
        o = CompletionObject(leg, random_slice(rng, leg.dom, 6))
        assert check_CB(e_cat, f, g, [o]).passed
        rep = check_CB(ForgetfulReindexing(), f, g, [o])
        assert [c.name for c in rep.checks] == ["mate[0]"]
        if not rep.passed:
            assert rep.checks[0].detail == "the coherence iso does not join the two fiber objects"
        verdicts.append(rep.passed)
    assert verdicts == FORGETFUL_CB_VERDICTS[name]


def _c2_flip():
    """C2's non-identity element."""
    c2 = builtin_group("C2")
    return next(g for g in c2.elements() if g != c2.identity)


def _c2_cb_draws():
    """40 seeded C2 cospans f, g of size 6 with a sample o over dom(f)."""
    group, draws = builtin_group("C2"), []
    for seed in range(40):
        rng = random.Random(f"cb/C2/{seed}")
        f, g = random_cospan(rng, group, 6)
        leg = random_map_into(rng, f.dom, 6)
        draws.append((f, g, CompletionObject(leg, random_slice(rng, leg.dom, 6))))
    return draws


def _cb_details(xcat, draws):
    """check_CB's detail per draw: the first failing condition, or ''."""
    details = []
    for f, g, o in draws:
        assert check_CB(SliceIndexed(), f, g, [o]).passed
        (check,) = check_CB(xcat, f, g, [o]).checks
        details.append(check.detail)
    return Counter(details)


@pytest.mark.parametrize("xcat, detail, failures", [
    (ConstantWitness(), "the coherence iso is not bijective", 23),
    (TwistedWitness(_c2_flip()), "xi does not commute with the arrows", 21),
], ids=["collapsed", "twisted"])
def test_check_cb_fails_on_a_wrong_coherence_iso(xcat, detail, failures):
    assert _cb_details(xcat, _c2_cb_draws()) == Counter({detail: failures, "": 40 - failures})


def test_check_cb_fails_on_legs_moved_by_reindexing(monkeypatch):
    """Four of check_CB's five conditions are reached by a failing draw: the
    coherence iso's two by the witnesses above, the join of the fiber
    objects by `ForgetfulReindexing`, and the legs here, by a reindexing
    along g that moves its leg by C2's non-identity element.  The first,
    that w is bijective, is reached by none: w is built from finact's
    pullbacks alone, so no indexed category can make it non-bijective."""
    real, t, details = completion.reindex, _c2_flip(), Counter()
    for f, g, o in _c2_cb_draws():
        def moved(xcat, r, o2, g=g):
            out = real(xcat, r, o2)
            if r != g:
                return out
            u = out.u
            return CompletionObject(GMap(u.dom, u.cod, tuple(u.cod.act(t, v) for v in u.table)),
                                    out.x)
        monkeypatch.setattr(completion, "reindex", moved)
        (check,) = check_CB(SliceIndexed(), f, g, [o]).checks
        details[check.detail] += 1
    assert details == Counter({"w does not commute with the legs": 22, "": 18})


def test_check_cb_representable(c2, rng):
    k = random_gset(rng, c2, 3)
    rk = SliceIndexed(k)
    for _ in range(3):
        f, g = random_cospan(rng, c2, 4)
        leg = random_map_into(rng, f.dom, 3)
        x = random_slice(rng, rk.carrier(leg.dom), 4)
        o = completion_obj(rk, leg, x)
        assert check_CB(rk, f, g, [o]).passed


def test_unit_and_mu_monad_laws(e_cat, c2, f2, rng):
    leg = random_map_into(rng, f2, 4)
    o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 4))
    # unit at the completion, then flatten: exact identity
    assert mu_flatten(CompletionObject(identity_gmap(f2), o)) == o
    # completion of the unit, then flatten: exact identity
    inner = CompletionObject(o.u, CompletionObject(identity_gmap(o.stage), o.x))
    assert mu_flatten(inner) == o
    # mu on nested data composes the legs
    leg2 = random_map_into(rng, leg.dom, 4)
    nested = CompletionObject(leg, CompletionObject(leg2, random_slice(rng, leg2.dom, 3)))
    flat = mu_flatten(nested)
    assert flat.u.table == compose_gmaps(leg, leg2).table


def test_sum_and_product_from_family(e_cat, c2, f2, pt2, u2, rng):
    a = random_slice(rng, f2, 4)
    o = completion_obj(e_cat, u2, a)
    s = e_cat.push_obj(o.u, o.x)
    assert slice_iso(s, sigma(u2, a)) is not None
    p = e_cat.norm_obj(o.u, o.x)
    assert slice_iso(p, pi_slice(u2, a)) is not None
    # the unit then the product assignment is the identity up to iso
    x = random_slice(rng, f2, 4)
    one = CompletionObject(identity_gmap(f2), x)
    assert slice_iso(e_cat.norm_obj(one.u, one.x), x) is not None


def test_dual_cb_fiber(e_cat, c2, rng):
    for _ in range(4):
        f, g = random_cospan(rng, c2, 4)
        xs = [random_slice(rng, f.dom, 4) for _ in range(2)]
        assert check_CB_fiber(e_cat, f, g, xs, mode="norm").passed
        assert check_CB_fiber(e_cat, f, g, xs, mode="push").passed


def test_extend_identity_span(e_cat, f2, rng):
    one = Span(identity_gmap(f2), identity_gmap(f2))
    x = random_slice(rng, f2, 4)
    assert slice_iso(span_action(e_cat, one, x), x) is not None


def test_extend_matches_burnside_transfer_restriction(e_cat, c2, f2, pt2, u2):
    """The span action on slices agrees with the Burnside matrix action."""
    p = Span(u2, u2)
    ext = extend_to_spans(e_cat, p,
                          probe_squares=[(u2, u2)],
                          probe_objects=[slice_identity(f2)])
    b = BurnsideMackey(c2)
    gens = atoms(pt2)
    mat = eval_span(b, p)
    for i, g in enumerate(gens):
        from spanpoly.mackey import atom_slice
        image = ext(atom_slice(pt2, g))
        basis = tuple(1 if j == i else 0 for j in range(len(gens)))
        assert vectorize_slice(image, gens) == mat(basis)


def test_extension_respects_iso_classes(e_cat, c2, rng):
    from spanpoly.sampling import random_span, shuffle_span
    u = random_gset(rng, c2, 4)
    v = random_gset(rng, c2, 4)
    p = random_span(rng, u, v, 4)
    q = shuffle_span(rng, p)
    x = random_slice(rng, v, 4)
    px = span_action(e_cat, p, x)
    assert slice_iso(px, span_action(e_cat, q, x)) is not None
    assert slice_iso(px, span_action(e_cat, p, shuffle_slice(rng, x))) is not None


def test_extension_composition_random(e_cat, c2, rng):
    from spanpoly.sampling import random_span
    for _ in range(4):
        u = random_gset(rng, c2, 4)
        v = random_gset(rng, c2, 4)
        w = random_gset(rng, c2, 4)
        p = random_span(rng, u, v, 4)
        q = random_span(rng, v, w, 4)
        probes = [random_slice(rng, w, 4) for _ in range(2)]
        assert check_extension_composition(e_cat, p, q, probes).passed


def test_cocompleteness_probe_gate(e_cat, c2, f2, u2):
    # a healthy instance passes the gate; the gate actually runs the probes
    ext = extend_to_spans(e_cat, Span(u2, u2),
                          probe_squares=[(u2, u2)],
                          probe_objects=[slice_identity(f2)])
    assert ext(slice_identity(terminal := u2.cod)).base == terminal


def test_biproduct_preservation_instances(e_cat, c2, f2, pt2, rng):
    pairs = [(random_slice(rng, f2, 4), random_slice(rng, pt2, 4)) for _ in range(2)]
    assert check_biproduct_preservation(e_cat, f2, pt2, pairs).passed
    one = terminal_indexed(c2)
    star_pair = (slice_identity(one.carrier(f2)), slice_identity(one.carrier(pt2)))
    assert check_biproduct_preservation(one, f2, pt2, [star_pair]).passed
    k = random_gset(rng, c2, 3)
    rk = SliceIndexed(k)
    pairs_k = [(random_slice(rng, rk.carrier(f2), 4),
                random_slice(rng, rk.carrier(pt2), 4)) for _ in range(2)]
    assert check_biproduct_preservation(rk, f2, pt2, pairs_k).passed


class CountingReindexing(SliceIndexed):
    """Slices whose reindexing counts its calls."""

    def __init__(self, at=None):
        super().__init__(at)
        self.act_obj_calls = 0

    def act_obj(self, f, x):
        self.act_obj_calls += 1
        return super().act_obj(f, x)


def test_biproduct_preservation_restricts_each_glued_object_once(c2, f2, pt2, rng):
    """One restriction along each injection per glued object, none per pair."""
    for xcat in (CountingReindexing(), CountingReindexing(random_gset(rng, c2, 3))):
        pairs = [(random_slice(rng, xcat.carrier(f2), 4), random_slice(rng, xcat.carrier(pt2), 4))
                 for _ in range(3)]
        assert check_biproduct_preservation(xcat, f2, pt2, pairs).passed
        assert xcat.act_obj_calls == 2 * len(pairs)


@pytest.mark.parametrize("name", ["C2", "S3"])
def test_span_action_on_map_presentations(e_cat, name):
    """lower_star(u) acts as the reindexing Δ_u, upper_star(u) as the dependent sum Σ_u."""
    group = builtin_group(name)
    rng = random.Random(7)
    for _ in range(6):
        u = random_map_into(rng, random_gset(rng, group, 6), 6)
        x = random_slice(rng, u.cod, 6)
        assert slice_iso(span_action(e_cat, lower_star(u), x), delta(u, x)) is not None
        y = random_slice(rng, u.dom, 6)
        assert slice_iso(span_action(e_cat, upper_star(u), y), sigma(u, y)) is not None


def test_hom_bijection_representable(c2, f2, pt2, u2, rng):
    """Over SliceIndexed(k) the two sides of the hom bijection have equal sizes."""
    k = random_gset(rng, c2, 2)
    rk = SliceIndexed(k)
    leg = random_map_into(rng, f2, 3)
    o = completion_obj(rk, leg, random_slice(rng, rk.carrier(leg.dom), 3))
    leg2 = random_map_into(rng, pt2, 3)
    o2 = completion_obj(rk, leg2, random_slice(rng, rk.carrier(leg2.dom), 3))
    assert len(completion_homs(rk, pushforward(rk, u2, o), o2)) == \
        len(completion_homs(rk, o, reindex(rk, u2, o2)))


def test_dual_cb_fiber_representable(c2, rng):
    k = random_gset(rng, c2, 2)
    rk = SliceIndexed(k)
    f, g = random_cospan(rng, c2, 3)
    xs = [random_slice(rng, rk.carrier(f.dom), 3) for _ in range(2)]
    assert check_CB_fiber(rk, f, g, xs, mode="norm").passed
    assert check_CB_fiber(rk, f, g, xs, mode="push").passed


def _four_points_over(pt):
    """Four fixed points and their unique map to the point."""
    four = coproduct(coproduct(pt, pt).sum, coproduct(pt, pt).sum).sum
    return four, GMap(four, pt, (0,) * 4)


def _assert_maps_guard(err, limit):
    e = err.value
    assert (e.construction, e.sizes, e.projected, e.limit) == \
        ("equivariant maps", {"dom": 4, "cod": 4}, 256, limit)  # 4^4 maps over the point


def test_fiber_hom_resource_guard(c2, pt2, monkeypatch):
    from spanpoly.errors import ResourceLimit
    monkeypatch.setattr(finact, "MAX_MAPS", 10)
    _, leg = _four_points_over(pt2)
    a = SliceObject(leg)
    with pytest.raises(ResourceLimit) as err:
        list(slice_homs(a, a))
    _assert_maps_guard(err, 10)


def test_completion_homs_resource_guard(e_cat, c2, pt2, monkeypatch):
    """The coproduct side's search, and the dual hom bijection's one search
    (its searched side; the counted side builds nothing), trip the guards."""
    from spanpoly.errors import ResourceLimit
    from spanpoly.completion import hom_bijection_dual
    pt = identity_gmap(pt2)
    four, leg = _four_points_over(pt2)
    o = completion_obj(e_cat, leg, slice_identity(four))
    monkeypatch.setattr(finact, "MAX_MAPS", 10)
    for homs in (lambda: completion_homs(e_cat, o, o), lambda: hom_bijection_dual(o, o, pt)):
        with pytest.raises(ResourceLimit) as err:
            homs()
        _assert_maps_guard(err, 10)
    # 4 legs of two fixed points over the point, 16 fiber maps each: only the total is over 20
    two = coproduct(pt2, pt2).sum
    o = completion_obj(e_cat, GMap(two, pt2, (0, 0)), SliceObject(finact.codiagonal(two)[1]))
    monkeypatch.setattr(finact, "MAX_MAPS", 20)
    for homs, name in ((lambda: completion_homs(e_cat, o, o), "completion hom-set"),
                       (lambda: hom_bijection_dual(o, o, pt), "dual hom-set")):
        with pytest.raises(ResourceLimit, match="exceeds limit 20") as err:
            homs()
        e = err.value
        # the total stops at the first morphism over the limit
        assert (e.construction, e.sizes, e.projected, e.limit) == \
            (name, {"dom": 2, "cod": 2}, 21, 20)
        assert str(e) == f"{name} exceeds limit 20"
    monkeypatch.setattr(finact, "MAX_MAPS", 64)
    assert len(completion_homs(e_cat, o, o)) == 64
    rep = hom_bijection_dual(o, o, pt)
    assert rep.passed and rep.checks[0].detail == "64 vs 64"


def test_fiber_coproduct_universality(e_cat, c2, f2, rng):
    from spanpoly.completion import check_fiber_coproduct, fiber_coproduct
    x = random_slice(rng, f2, 3)
    y = random_slice(rng, f2, 3)
    targets = [random_slice(rng, f2, 3) for _ in range(2)]
    rep = check_fiber_coproduct(e_cat, f2, x, y, targets)
    assert rep.passed, rep.render_text()
    z = fiber_coproduct(e_cat, f2, x, y)
    assert z.size == x.size + y.size


def test_counted_fiber_hom_sets_build_no_maps(e_cat, c2, f2, pt2, rng, monkeypatch):
    """The fiber-coproduct check counts every hom-set it reads; the biproduct
    probe builds only the homs out of glued objects, one search per pair."""
    from spanpoly.completion import check_fiber_coproduct
    searches = []
    real = finact.equivariant_maps

    def counted(x, y, legs=()):
        searches.append((x, y))
        return real(x, y, legs)

    monkeypatch.setattr(finact, "equivariant_maps", counted)
    x, y = random_slice(rng, f2, 3), random_slice(rng, f2, 3)
    targets = [random_slice(rng, f2, 3) for _ in range(2)]
    assert check_fiber_coproduct(e_cat, f2, x, y, targets).passed
    assert searches == []
    pairs = [(random_slice(rng, f2, 4), random_slice(rng, pt2, 4)) for _ in range(3)]
    assert check_biproduct_preservation(e_cat, f2, pt2, pairs).passed
    assert len(searches) == len(pairs) ** 2


def test_mu_associativity_exact(e_cat, c2, f2, rng):
    leg1 = random_map_into(rng, f2, 4)
    leg2 = random_map_into(rng, leg1.dom, 4)
    leg3 = random_map_into(rng, leg2.dom, 4)
    triple = CompletionObject(leg1, CompletionObject(leg2, CompletionObject(
        leg3, random_slice(rng, leg3.dom, 3))))
    # flatten the two outer layers first, or the two inner ones: same object
    outer_first = mu_flatten(CompletionObject(compose_gmaps(leg1, leg2), triple.x.x))
    inner_first = mu_flatten(CompletionObject(leg1, mu_flatten(triple.x)))
    assert outer_first == inner_first


def test_compose_witness_chases_descriptors(e_cat, c2, f2, u2, rng):
    b = random_slice(rng, f2.group and u2.cod, 4)
    w = e_cat.compose_witness(u2, identity_gmap(f2), b)
    assert w.is_bijective()
    lhs = delta(identity_gmap(f2), delta(u2, b))
    rhs = delta(u2, b)
    assert compose_gmaps(rhs.arrow, w).table == lhs.arrow.table


def test_completion_obj_validation(e_cat, c2, f2, u2, rng):
    with pytest.raises(InvalidStructure):
        completion_obj(e_cat, u2, slice_identity(f2.group and u2.cod))  # wrong stage
