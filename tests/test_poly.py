"""Polynomials: the correspondence with spans of spans, rewriting, the oracle."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from spanpoly import finact
from spanpoly.completion import CompletionObject, SliceIndexed, reindex
from spanpoly.errors import BoundaryMismatch, InvalidStructure
from spanpoly.finact import (
    GMap,
    SliceObject,
    compose_gmaps,
    coproduct,
    delta,
    identity_gmap,
    pi,
    pullback,
    slice_identity,
    slice_iso,
    terminal_gset,
)
from spanpoly.groups import BUILTIN_GROUPS, builtin_group
from spanpoly.poly import (
    Gen,
    compose_poly,
    count_poly_morphisms,
    distribute,
    enumerate_poly_morphisms,
    eval_semiring,
    normalize_word,
    poly_morphism,
    poly_to_spanspan,
    poly_word,
    polynomial,
    spanspan_to_poly,
    translate_2cell,
    translate_2cell_inverse,
    check_poly_oracle,
)
from spanpoly.sampling import (
    random_gset,
    random_gset_with_fixed_point,
    random_map_into,
    random_polynomial,
    random_slice,
    random_trivial_polynomial,
)
from spanpoly.semirings import BOOLEANS, NATURALS
from spanpoly.spans import Span, compose_spans, span_iso
from spanpoly.suites import run_suite

from helpers import (
    apply_polynomial,
    apply_word,
    completion_iso,
    forget_polynomial,
    identity_polynomial,
    isomorphic_polys,
    mu_flatten,
    span_morphisms,
    tmap,
    tset,
)


# ---------------------------------------------------------------------------
# correspondence with spans of spans
# ---------------------------------------------------------------------------

def test_identity_roundtrip(f2):
    p = identity_polynomial(f2)
    assert spanspan_to_poly(poly_to_spanspan(p)) == p


def test_trivial_norm_leg_is_plain_span(c2, f2, pt2, u2):
    p = polynomial(u2, identity_gmap(f2), u2)
    s = poly_to_spanspan(p)
    assert s.apex == f2
    assert s.right.left.is_identity()
    assert spanspan_to_poly(s) == p


def test_random_roundtrips_exact(c2, s3, rng):
    for group in (c2, s3):
        for _ in range(10):
            x = random_gset_with_fixed_point(rng, group, 5)
            y = random_gset_with_fixed_point(rng, group, 5)
            p = random_polynomial(rng, x, y, 5)
            assert spanspan_to_poly(poly_to_spanspan(p)) == p


def test_spanspan_shape_violation(c2, f2, u2):
    p = polynomial(u2, identity_gmap(f2), u2)
    s = poly_to_spanspan(p)
    broken = type(s)(s.apex, s.left, Span(u2, u2))  # right leg not identity-legged
    with pytest.raises(InvalidStructure):
        spanspan_to_poly(broken)


def test_identity_2cell_translates(c2, f2, u2):
    p = polynomial(u2, identity_gmap(f2), u2)
    pb = pullback(p.n, identity_gmap(p.n.cod))
    m = poly_morphism(p, p, identity_gmap(p.n.cod), GMap(pb.gset, p.n.dom, pb.proj1.table))
    cell = translate_2cell(m)
    assert translate_2cell_inverse(cell) == m


def test_2cell_translation_bijective_small(c2, rng):
    """Every morphism round-trips through its two-cell, distinct morphisms
    give distinct two-cells, and there are as many as the closed form counts."""
    for _ in range(4):
        x = random_gset_with_fixed_point(rng, c2, 2)
        y = random_gset_with_fixed_point(rng, c2, 2)
        p = random_polynomial(rng, x, y, 3)
        q = random_polynomial(rng, x, y, 3)
        ms = list(enumerate_poly_morphisms(p, q))
        cells = [translate_2cell(m) for m in ms]
        for m, cell in zip(ms, cells):
            assert translate_2cell_inverse(cell) == m
        assert len(set(cells)) == len(ms) == count_poly_morphisms(p, q)


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
def test_count_poly_morphisms_matches_the_enumeration(name):
    """The closed form counts what the search enumerates, on p against
    itself and against a fresh q, with some count above 1 in every group."""
    group, counts = builtin_group(name), []
    for seed in range(40):
        for size in (2, 3, 4):
            rng = random.Random(seed)
            x = random_gset_with_fixed_point(rng, group, size)
            y = random_gset_with_fixed_point(rng, group, size)
            p = random_polynomial(rng, x, y, size)
            q = random_polynomial(rng, x, y, size)
            for tgt in (p, q):
                n = count_poly_morphisms(p, tgt)
                assert n == len(list(enumerate_poly_morphisms(p, tgt)))
                counts.append(n)
    assert max(counts) > 1


def test_count_poly_morphisms_refuses_polynomials_that_are_not_parallel(c2, f2, pt2, u2):
    p = polynomial(u2, identity_gmap(f2), u2)
    q = polynomial(identity_gmap(f2), identity_gmap(f2), identity_gmap(f2))
    with pytest.raises(BoundaryMismatch, match="^count_poly_morphisms needs parallel"):
        count_poly_morphisms(p, q)


def test_2cells_check_catches_a_search_that_drops_candidates(monkeypatch):
    """A search that drops the last admissible image of every orbit with two
    or more misses morphisms, and `2cells[k]` sees it on C4 seed 1.  This
    test fails where the check compared the search with a second search
    built on the same candidate lists, as both lost the same morphisms."""
    real = finact.orbit_candidates

    def dropped(x, y, legs=()):
        return [(o, c[:-1] if len(c) >= 2 else c) for o, c in real(x, y, legs)]

    assert run_suite("plycorrespondence", builtin_group("C4"), 1, 6).passed
    monkeypatch.setattr(finact, "orbit_candidates", dropped)
    rep = run_suite("plycorrespondence", builtin_group("C4"), 1, 6)
    assert [(c.name, c.detail) for c in rep.failures()] == [("2cells[1]", "0 vs 1")]


# ---------------------------------------------------------------------------
# distribute
# ---------------------------------------------------------------------------

def test_distribute_returns_the_section_evaluation(c2, s3, rng):
    """The exchange data is the dependent product's own evaluation data."""
    for group in (c2, s3):
        for _ in range(3):
            s = random_gset(rng, group, 4)
            u = random_map_into(rng, s, 4)
            a = random_map_into(rng, u.dom, 4)
            (pia, ubar, e), rep = distribute(u, a, probes=[slice_identity(a.dom)])
            pd = pi(u, SliceObject(a))
            pull, e_pd = pd.evaluation()
            assert rep.passed
            assert (pia, ubar, e) == (pd.slice.arrow, pull.proj1, e_pd)
            assert pia.cod == u.cod and ubar.cod == pia.dom
            assert e.cod == a.dom


def test_distribute_identity_u(c2, f2, rng):
    a = random_slice(rng, f2, 4).arrow
    (pia, _, e), rep = distribute(identity_gmap(f2), a, probes=[slice_identity(a.dom)])
    assert rep.passed
    assert slice_iso(SliceObject(pia), SliceObject(a)) is not None
    assert e.is_bijective()


def test_distribute_identity_a(c2, f2, u2):
    (pia, _, _), rep = distribute(u2, identity_gmap(f2), probes=[slice_identity(f2)])
    assert rep.passed
    assert pia.dom.size == 1 and pia.cod.size == 1


def test_distribute_anchored_sections(c2, f2, u2):
    cop = coproduct(f2, f2)
    a = cop.cotuple(identity_gmap(f2), identity_gmap(f2))
    (pia, _, _), rep = distribute(u2, a, probes=[slice_identity(cop.sum)])
    assert rep.passed
    assert pia.dom.size == 4
    from spanpoly.finact import canonical_form
    expected = coproduct(coproduct(terminal_gset(c2), terminal_gset(c2)).sum, f2).sum
    assert canonical_form(pia.dom) == canonical_form(expected)


def test_distribute_naturality_squares(c2, rng):
    """Reindexing the exchange output matches exchanging the reindexed input,
    after flattening both nested families."""
    e_cat = SliceIndexed()
    for _ in range(4):
        s = random_gset(rng, c2, 4)
        u = random_slice(rng, s, 4, allow_empty=False).arrow
        a = random_slice(rng, u.dom, 4, allow_empty=False).arrow
        x = slice_identity(a.dom)
        (pia, ubar, e), _ = distribute(u, a)
        out_outer = pia
        out_inner = CompletionObject(ubar, delta(e, x))
        side1 = CompletionObject(out_outer, out_inner)
        f = random_slice(rng, u.cod, 4, allow_empty=False).arrow  # V -> U
        flat1 = mu_flatten(side1)
        r1 = reindex(e_cat, f, flat1)
        # reindex the input triple, then exchange
        pb_u = pullback(u, f)
        u_f = pb_u.proj2
        f_u = pb_u.proj1
        pb_a = pullback(a, f_u)
        a_f = pb_a.proj2
        x_f = delta(pb_a.proj1, x)
        (pia2, ubar2, e2), _ = distribute(u_f, a_f)
        side2 = CompletionObject(pia2, CompletionObject(ubar2, delta(e2, x_f)))
        flat2 = mu_flatten(side2)
        assert completion_iso(e_cat, r1, flat2) is not None


# ---------------------------------------------------------------------------
# word rewriting and composition
# ---------------------------------------------------------------------------

def test_word_validation(c2, f2, u2):
    with pytest.raises(BoundaryMismatch):
        normalize_word((Gen("Sigma", u2), Gen("Sigma", u2)))


def test_compose_boundary_and_guard(c2, f2, pt2, u2, monkeypatch):
    p = polynomial(u2, identity_gmap(f2), u2)
    bad = identity_polynomial(f2)
    with pytest.raises(BoundaryMismatch):
        compose_poly(p, bad)
    # force a product blow-up past a tiny bound
    from spanpoly.errors import ResourceLimit
    big = polynomial(u2, u2, identity_gmap(pt2))
    monkeypatch.setattr(finact, "MAX_POINTS", 1)
    with pytest.raises(ResourceLimit):
        compose_poly(p, big)


def test_morphism_searches_raise_the_maps_guard(c2, pt2, monkeypatch):
    """Span two-cells and polynomial morphisms enumerate up to MAX_MAPS and raise above it."""
    from spanpoly.errors import ResourceLimit
    four = coproduct(coproduct(pt2, pt2).sum, coproduct(pt2, pt2).sum).sum
    leg = GMap(four, pt2, (0,) * 4)
    s = Span(leg, leg)
    p = polynomial(leg, leg, identity_gmap(pt2))
    monkeypatch.setattr(finact, "MAX_MAPS", 256)  # 4^4 apex maps over the point
    assert len(list(span_morphisms(s, s))) == 256
    assert len(list(enumerate_poly_morphisms(p, p))) == 256
    monkeypatch.setattr(finact, "MAX_MAPS", 255)
    for search in (span_morphisms(s, s), enumerate_poly_morphisms(p, p)):
        with pytest.raises(ResourceLimit) as err:
            next(search)
        assert (err.value.construction, err.value.projected, err.value.limit) == \
            ("equivariant maps", 256, 255)


def test_compose_with_identity(c2, f2, pt2, u2):
    p = polynomial(u2, identity_gmap(f2), u2)
    c, _ = compose_poly(p, identity_polynomial(pt2))
    assert isomorphic_polys(c, p)
    c2_, _ = compose_poly(identity_polynomial(pt2), p)
    assert isomorphic_polys(c2_, p)


def test_span_only_composition_matches_spans(c2, rng):
    """With identity product legs, composition reduces to span composition."""
    for _ in range(5):
        x = random_gset_with_fixed_point(rng, c2, 4)
        y = random_gset_with_fixed_point(rng, c2, 4)
        z = random_gset_with_fixed_point(rng, c2, 4)
        a = random_slice(rng, x, 4, allow_empty=False)
        t = random_slice(rng, y, 4, allow_empty=False)
        from spanpoly.sampling import random_gmap
        r1 = random_gmap(rng, t.total, x)
        if r1 is None:
            continue
        p = polynomial(r1, identity_gmap(t.total), t.arrow)
        t2 = random_slice(rng, z, 4, allow_empty=False)
        r2 = random_gmap(rng, t2.total, y)
        if r2 is None:
            continue
        q = polynomial(r2, identity_gmap(t2.total), t2.arrow)
        c, transcript = compose_poly(p, q)
        assert not any(s["rule"].startswith("distribute") for s in transcript)
        sp = compose_spans(Span(p.r, p.t), Span(q.r, q.t))
        assert span_iso(Span(c.r, compose_gmaps(c.t, c.n)), sp) is not None


def test_composition_validated_on_slices(c2, rng):
    for _ in range(6):
        x = random_gset_with_fixed_point(rng, c2, 3)
        y = random_gset_with_fixed_point(rng, c2, 3)
        z = random_gset_with_fixed_point(rng, c2, 3)
        p = random_polynomial(rng, x, y, 3)
        q = random_polynomial(rng, y, z, 3)
        c, _ = compose_poly(p, q)
        s = random_slice(rng, x, 3)
        lhs = apply_polynomial(c, s)
        rhs = apply_polynomial(q, apply_polynomial(p, s))
        assert slice_iso(lhs, rhs) is not None


def test_transcript_steps_preserve_action(c2, f2, pt2, u2, rng):
    p = polynomial(u2, identity_gmap(f2), u2)
    q = polynomial(u2, u2, identity_gmap(pt2))
    word = poly_word(q) + poly_word(p)
    normal, transcript = normalize_word(word)
    assert transcript
    s = slice_identity(pt2)
    assert slice_iso(apply_word(word, s), apply_word(normal, s)) is not None


def _random_word(rng, group, length, size):
    """A random boundary-consistent generator word, built from the inside out."""
    from spanpoly.finact import GSet
    from spanpoly.sampling import random_gmap
    cur = random_gset_with_fixed_point(rng, group, size)
    start = cur
    gens = []
    for _ in range(length):
        kind = rng.choice(["Delta", "Sigma", "Pi"])
        if kind == "Delta":
            f = random_map_into(rng, cur, size)
            gens.append(Gen("Delta", f))
            cur = f.dom
        else:
            tgt = random_gset_with_fixed_point(rng, group, size)
            f = random_gmap(rng, cur, tgt)
            if f is None:
                continue
            gens.append(Gen(kind, f))
            cur = f.cod
    return tuple(reversed(gens)), start


def test_normalize_random_words(c2, rng, monkeypatch):
    """Arbitrary generator words normalize to the sorted shape and keep
    their slice action up to iso.  Draws whose dependent products blow past
    the size guard are skipped but must stay a minority."""
    from spanpoly.errors import ResourceLimit
    from spanpoly.poly import _RANK
    monkeypatch.setattr(finact, "MAX_POINTS", 200_000)
    done = 0
    for _ in range(40):
        word, start = _random_word(rng, c2, rng.randint(1, 5), 3)
        if not word:
            continue
        try:
            normal, _ = normalize_word(word)
            probe = random_slice(rng, start, 3)
            lhs = apply_word(word, probe)
            rhs = apply_word(normal, probe)
        except ResourceLimit:
            continue
        kinds = [g.kind for g in normal]
        assert kinds == sorted(kinds, key=_RANK.get)
        assert len(set(kinds)) == len(kinds)
        assert slice_iso(lhs, rhs) is not None
        done += 1
    assert done >= 20


def test_associativity_up_to_iso(c2, rng):
    for _ in range(4):
        x = random_gset_with_fixed_point(rng, c2, 3)
        y = random_gset_with_fixed_point(rng, c2, 3)
        z = random_gset_with_fixed_point(rng, c2, 3)
        w = random_gset_with_fixed_point(rng, c2, 3)
        p = random_polynomial(rng, x, y, 3)
        q = random_polynomial(rng, y, z, 3)
        r = random_polynomial(rng, z, w, 3)
        left, _ = compose_poly(compose_poly(p, q)[0], r)
        right, _ = compose_poly(p, compose_poly(q, r)[0])
        assert isomorphic_polys(left, right)


# ---------------------------------------------------------------------------
# the semiring oracle
# ---------------------------------------------------------------------------

def test_eval_semiring_anchored(triv):
    p1 = polynomial(tmap(triv, 2, 1, [0, 0]), tmap(triv, 2, 1, [0, 0]),
                    tmap(triv, 1, 1, [0]))
    assert eval_semiring(p1, (3,), NATURALS) == (9,)
    p2 = polynomial(tmap(triv, 2, 1, [0, 0]), tmap(triv, 2, 2, [0, 1]),
                    tmap(triv, 2, 1, [0, 0]))
    assert eval_semiring(p2, (3,), NATURALS) == (6,)
    pid = identity_polynomial(tset(triv, 3))
    assert eval_semiring(pid, (5, 7, 11), NATURALS) == (5, 7, 11)


def test_oracle_identity_and_span_pairs(triv, rng):
    x = tset(triv, 2)
    p = identity_polynomial(x)
    assert check_poly_oracle(p, p, [NATURALS, BOOLEANS]).passed
    q = polynomial(tmap(triv, 3, 2, [0, 1, 1]), tmap(triv, 3, 3, [0, 1, 2]),
                   tmap(triv, 3, 2, [1, 0, 0]))
    assert check_poly_oracle(q, identity_polynomial(tset(triv, 2)), [NATURALS]).passed


def test_oracle_random_pairs(rng):
    for _ in range(25):
        xs, ys, zs = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        p = random_trivial_polynomial(rng, xs, ys, 4)
        q = random_trivial_polynomial(rng, ys, zs, 4)
        rep = check_poly_oracle(p, q, [NATURALS, BOOLEANS])
        assert rep.passed, rep.render_text()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_hypothesis(seed):
    rng = random.Random(seed)
    xs, ys, zs = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    p = random_trivial_polynomial(rng, xs, ys, 3)
    q = random_trivial_polynomial(rng, ys, zs, 3)
    assert check_poly_oracle(p, q, [NATURALS, BOOLEANS]).passed


def test_forgetful_pass_commutes(c2, rng):
    for _ in range(5):
        x = random_gset_with_fixed_point(rng, c2, 3)
        y = random_gset_with_fixed_point(rng, c2, 3)
        z = random_gset_with_fixed_point(rng, c2, 3)
        p = random_polynomial(rng, x, y, 3)
        q = random_polynomial(rng, y, z, 3)
        c, _ = compose_poly(p, q)
        fc = forget_polynomial(c)
        fcomp, _ = compose_poly(forget_polynomial(p), forget_polynomial(q))
        for _ in range(3):
            fam = tuple(rng.randint(0, 2) for _ in range(x.size))
            assert eval_semiring(fc, fam, NATURALS) == eval_semiring(fcomp, fam, NATURALS)
