"""Span composition, adjunctions, coproducts, and iso classes."""
import pytest

from spanpoly.errors import BoundaryMismatch
from spanpoly.finact import (
    GMap,
    compose_gmaps,
    coproduct,
    from_labels,
    identity_gmap,
    initial_gset,
    orbit_labels,
    slice_iso,
    unique_to_terminal,
)
from spanpoly import spans
from spanpoly.groups import symmetric_group
from spanpoly.mackey import canonical_slice
from spanpoly.spans import (
    Span,
    SpanComposite,
    associator,
    check_adjunction,
    compose_spans,
    identity_span,
    is_span_morphism,
    local_coproduct,
    lower_star,
    lunitor,
    runitor,
    span,
    span_canonical_form,
    span_iso,
    span_labels,
    upper_star,
)
from spanpoly.sampling import (
    random_gset,
    random_map_into,
    random_slice,
    random_span,
    shuffle_span,
)

from helpers import orbits, shuffle_slice, span_morphisms


def test_compose_with_identity(c2, f2, pt2, u2, rng):
    p = random_span(rng, f2, pt2, 5)
    left = compose_spans(identity_span(f2), p)
    right = compose_spans(p, identity_span(pt2))
    assert span_iso(left, p) is not None
    assert span_iso(right, p) is not None


def test_free_span_self_composition(c2, f2, pt2, u2):
    p = Span(u2, u2)
    pp = compose_spans(p, p)
    assert pp.apex.size == 4
    assert sorted(len(o) for o in orbits(pp.apex)) == [2, 2]
    cop = coproduct(f2, f2)
    expected = Span(unique_to_terminal(cop.sum), unique_to_terminal(cop.sum))
    assert span_iso(pp, expected) is not None


def test_lower_star_functorial(c2, f2, pt2, u2, rng):
    r = random_map_into(rng, f2, 5)
    s = u2
    comp = compose_spans(lower_star(r), lower_star(s))
    assert span_iso(comp, lower_star(compose_gmaps(s, r))) is not None
    assert lower_star(identity_gmap(f2)) == identity_span(f2)


def test_lower_then_upper_is_kernel_pair(c2, f2, u2):
    comp = compose_spans(lower_star(u2), upper_star(u2))
    # kernel pair of the free projection: all four pairs
    assert comp.apex.size == 4


def test_span_requires_shared_apex(f2, pt2, u2):
    with pytest.raises(BoundaryMismatch):
        span(u2, identity_gmap(pt2))


def test_adjunction_identity(f2):
    rep = check_adjunction(identity_gmap(f2))
    assert rep.passed
    # for an identity, the unit and counit are themselves isos
    from spanpoly.spans import adjunction_counit, adjunction_unit
    _, eta = adjunction_unit(identity_gmap(f2))
    _, eps = adjunction_counit(identity_gmap(f2))
    assert eta.is_bijective() and eps.is_bijective()


def test_adjunction_free(u2):
    rep = check_adjunction(u2)
    assert rep.passed, rep.render_text()


def test_adjunction_random(c2, s3, rng):
    for group in (c2, s3):
        for _ in range(5):
            w = random_gset(rng, group, 6)
            r = random_map_into(rng, w, 6)
            rep = check_adjunction(r)
            assert rep.passed, rep.render_text()


def test_triangles_compose_the_associator(c2, s3, rng, monkeypatch):
    """With the associator's table reversed, a triangle fails: the triangles
    certify the cell that the span-law checks use."""
    true_associator = spans.associator

    def reversed_associator(p, q, r):
        left, right, cell = true_associator(p, q, r)
        return left, right, GMap(cell.dom, cell.cod, cell.table[::-1])

    monkeypatch.setattr(spans, "associator", reversed_associator)
    seen = 0
    for group in (c2, s3):
        for _ in range(5):
            r = random_map_into(rng, random_gset(rng, group, 6), 6)
            if r.dom.size > 1:
                seen += 1
                failed = {c.name for c in check_adjunction(r).failures()}
                assert failed and failed <= {"triangle-lower", "triangle-upper"}
    assert seen > 0


def test_whiskering_identity_cells_is_the_identity(c2, s3, rng):
    for group in (c2, s3):
        u, v, w = (random_gset(rng, group, 5) for _ in range(3))
        p, q = random_span(rng, u, v, 5), random_span(rng, v, w, 5)
        comp = SpanComposite(p, q)
        ident = spans._whisker(comp, comp, identity_gmap(p.apex), identity_gmap(q.apex))
        assert ident == identity_gmap(comp.span.apex)


def test_decompose_roundtrip(c2, f2, pt2, u2, rng):
    """Each span p is (its right leg)_* after (its left leg)^*, by the first projection."""
    for p in (identity_span(f2), lower_star(u2), random_span(rng, f2, pt2, 6)):
        comp = SpanComposite(upper_star(p.left), lower_star(p.right))
        cert = GMap(comp.span.apex, p.apex, comp.pb.proj1.table)
        assert is_span_morphism(comp.span, p, cert)
        assert cert.is_bijective()


def test_local_coproduct_unit_and_symmetry(c2, f2, pt2, rng):
    p = random_span(rng, f2, pt2, 5)
    zero = initial_gset(c2)
    e = Span(GMap(zero, f2, ()), GMap(zero, pt2, ()))
    total, i1, i2 = local_coproduct(p, e)
    assert span_iso(total, p) is not None
    q = random_span(rng, f2, pt2, 5)
    pq, j1, j2 = local_coproduct(p, q)
    qp, _, _ = local_coproduct(q, p)
    assert span_iso(pq, qp) is not None
    assert is_span_morphism(p, pq, j1) and is_span_morphism(q, pq, j2)


def test_local_coproduct_right_composition(c2, rng):
    for _ in range(5):
        x = random_gset(rng, c2, 5)
        y = random_gset(rng, c2, 5)
        z = random_gset(rng, c2, 5)
        p = random_span(rng, x, y, 5)
        q = random_span(rng, x, y, 5)
        r = random_span(rng, y, z, 5)
        lhs = compose_spans(local_coproduct(p, q)[0], r)
        rhs = local_coproduct(compose_spans(p, r), compose_spans(q, r))[0]
        assert span_iso(lhs, rhs) is not None


def test_local_coproduct_left_composition_all_maps(c2, rng):
    # with the maximum class, composition preserves local coproducts on both sides
    for _ in range(5):
        x = random_gset(rng, c2, 5)
        y = random_gset(rng, c2, 5)
        z = random_gset(rng, c2, 5)
        p = random_span(rng, y, z, 5)
        q = random_span(rng, y, z, 5)
        r = random_span(rng, x, y, 5)
        lhs = compose_spans(r, local_coproduct(p, q)[0])
        rhs = local_coproduct(compose_spans(r, p), compose_spans(r, q))[0]
        assert span_iso(lhs, rhs) is not None


def test_span_iso_negative(c2, f2, pt2, u2):
    free = Span(u2, u2)
    cop = coproduct(pt2, pt2)
    fixed = Span(unique_to_terminal(cop.sum), unique_to_terminal(cop.sum))
    assert span_iso(free, fixed) is None
    assert span_canonical_form(free) != span_canonical_form(fixed)


def test_span_iso_found_on_shuffle(c2, s3, rng):
    for group in (c2, s3):
        for _ in range(5):
            u = random_gset(rng, group, 5)
            v = random_gset(rng, group, 5)
            p = random_span(rng, u, v, 6)
            q = shuffle_span(rng, p)
            w = span_iso(p, q)
            assert w is not None and is_span_morphism(p, q, w)


def test_associativity_witness_random(c2, s3, rng):
    for group in (c2, s3):
        for _ in range(8):
            a = random_gset(rng, group, 5)
            b = random_gset(rng, group, 5)
            c = random_gset(rng, group, 5)
            d = random_gset(rng, group, 5)
            p = random_span(rng, a, b, 5)
            q = random_span(rng, b, c, 5)
            r = random_span(rng, c, d, 5)
            left, right, cell = associator(p, q, r)
            assert cell.is_bijective()
            assert is_span_morphism(left.span, right.span, cell)
            assert span_iso(left.span, right.span) is not None


def test_unitors_are_isos(c2, rng):
    p = random_span(rng, random_gset(rng, c2, 5), random_gset(rng, c2, 5), 5)
    comp_l, lam = lunitor(p)
    comp_r, rho = runitor(p)
    assert lam.is_bijective() and is_span_morphism(comp_l.span, p, lam)
    assert rho.is_bijective() and is_span_morphism(comp_r.span, p, rho)


def test_class_composition_well_defined(c2, rng):
    u = random_gset(rng, c2, 5)
    v = random_gset(rng, c2, 5)
    w = random_gset(rng, c2, 5)
    p = random_span(rng, u, v, 5)
    q = random_span(rng, v, w, 5)
    direct = span_canonical_form(compose_spans(p, q))
    via_cls = span_canonical_form(compose_spans(_rep(p), _rep(q)))
    assert via_cls == direct
    # different representatives of the same classes compose to the same class
    p2, q2 = shuffle_span(rng, p), shuffle_span(rng, q)
    assert span_canonical_form(compose_spans(_rep(p2), _rep(q2))) == direct


def _rep(p):
    """The canonical representative of p's iso class, rebuilt from its labels."""
    _, (left, right) = from_labels(p.group, (p.src, p.tgt), span_labels(p))
    return Span(left, right)


def test_span_morphism_search(c2, f2, pt2, u2):
    free = Span(u2, u2)
    double, _, _ = local_coproduct(free, free)
    # the free apex is one free orbit: a map is fixed by the image of its
    # representative, and every point of the doubled apex is available
    outgoing = list(span_morphisms(free, double))
    assert len(outgoing) == 4
    assert all(is_span_morphism(free, double, f) for f in outgoing)
    # each of the two orbits of the doubled apex maps onto the free orbit
    # independently, two choices each
    incoming = list(span_morphisms(double, free))
    assert len(incoming) == 4
    assert all(is_span_morphism(double, free, f) for f in incoming)


def test_canonical_representative_rebuilds(c2, s3, rng):
    for group in (c2, s3, symmetric_group(4)):
        for _ in range(4):
            x = random_gset(rng, group, 6)
            p = shuffle_span(rng, random_span(rng, x, random_gset(rng, group, 6), 8))
            labels = span_labels(p)
            _, (left, right) = from_labels(group, (p.src, p.tgt), labels)
            rep = Span(left, right)
            assert span_iso(rep, p) is not None
            assert span_labels(rep) == labels
            assert _rep(rep) == rep == _rep(p)
            # slices: labels, rebuild, labels again; rebuilding is idempotent
            a = shuffle_slice(rng, random_slice(rng, x, 8, allow_empty=False))
            c = canonical_slice(a)
            assert slice_iso(c, a) is not None
            assert orbit_labels(c.total, (c.arrow,)) == orbit_labels(a.total, (a.arrow,))
            assert canonical_slice(c) == c
