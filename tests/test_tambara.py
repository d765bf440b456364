"""Tambara-style evaluation: norms, the distributive law, oracle consistency."""
import itertools

import pytest

from spanpoly.errors import InvalidStructure
from spanpoly.finact import (
    SliceObject,
    coproduct,
    identity_gmap,
    initial_gset,
    slice_canonical_form,
    slice_identity,
    terminal_gset,
    unique_to_terminal,
)
from spanpoly.mackey import BurnsideMackey, atoms, atom_slice, canonical_slice
from spanpoly.poly import eval_semiring, polynomial
from spanpoly.sampling import (
    random_gset,
    random_gset_with_fixed_point,
    random_map_into,
    random_polynomial,
    random_slice,
    random_trivial_polynomial,
)
from spanpoly.semirings import BOOLEANS, NATURALS, check_semiring_laws
from spanpoly.tambara import (
    BurnsideTambara,
    SemiringTambara,
    check_fp_preservation,
    check_norm_of_sum,
    check_semiring_matches_oracle,
    check_tambara_functoriality,
    eval_poly,
)

from helpers import identity_polynomial, tmap, tset, vectorize_slice


def test_semiring_laws():
    assert check_semiring_laws(NATURALS).passed
    assert check_semiring_laws(BOOLEANS).passed


def test_eval_identity(triv):
    t = SemiringTambara(NATURALS)
    p = identity_polynomial(tset(triv, 3))
    assert eval_poly(t, p, (4, 5, 6)) == (4, 5, 6)


def test_eval_matches_anchored_values(triv):
    t = SemiringTambara(NATURALS)
    p1 = polynomial(tmap(triv, 2, 1, [0, 0]), tmap(triv, 2, 1, [0, 0]),
                    tmap(triv, 1, 1, [0]))
    assert eval_poly(t, p1, (3,)) == (9,) == eval_semiring(p1, (3,), NATURALS)
    p2 = polynomial(tmap(triv, 2, 1, [0, 0]), tmap(triv, 2, 2, [0, 1]),
                    tmap(triv, 2, 1, [0, 0]))
    assert eval_poly(t, p2, (3,)) == (6,) == eval_semiring(p2, (3,), NATURALS)


def test_eval_equals_oracle_exhaustively(triv, rng):
    for _ in range(10):
        xs, ys = rng.randint(1, 3), rng.randint(1, 3)
        p = random_trivial_polynomial(rng, xs, ys, 3, triv)
        for sr in (NATURALS, BOOLEANS):
            fams = list(itertools.product(sr.sample_elements[:3], repeat=xs))
            rep = check_semiring_matches_oracle(sr, p, fams)
            assert rep.passed, rep.render_text()


def test_burnside_tambara_norm_anchored(c2, f2, pt2, u2):
    t = BurnsideTambara(c2)
    cop = coproduct(f2, f2)
    a = cop.cotuple(identity_gmap(f2), identity_gmap(f2))
    v = canonical_slice(SliceObject(a))
    out = t.norm(u2, v)
    expected = canonical_slice(SliceObject(unique_to_terminal(
        coproduct(coproduct(pt2, pt2).sum, f2).sum)))
    assert out == expected
    assert slice_canonical_form(out) == slice_canonical_form(expected)


def test_burnside_tambara_eval(c2, f2, pt2, u2):
    t = BurnsideTambara(c2)
    p = polynomial(u2, identity_gmap(f2), u2)
    out = eval_poly(t, p, canonical_slice(slice_identity(pt2)))
    assert out == canonical_slice(SliceObject(u2))


def test_tambara_functoriality_identity(c2, f2, rng):
    t = BurnsideTambara(c2)
    p = random_polynomial(rng, coproduct(f2, terminal_gset(c2)).sum,
                          coproduct(f2, terminal_gset(c2)).sum, 4)
    probes = [canonical_slice(random_slice(rng, p.src, 4))]
    rep = check_tambara_functoriality(t, p, identity_polynomial(p.tgt), probes)
    assert rep.passed


def test_tambara_functoriality_random(c2, rng):
    t = BurnsideTambara(c2)
    for _ in range(8):
        x = random_gset_with_fixed_point(rng, c2, 4)
        y = random_gset_with_fixed_point(rng, c2, 4)
        z = random_gset_with_fixed_point(rng, c2, 4)
        p = random_polynomial(rng, x, y, 4)
        q = random_polynomial(rng, y, z, 4)
        probes = [canonical_slice(random_slice(rng, x, 4)) for _ in range(2)]
        rep = check_tambara_functoriality(t, p, q, probes)
        assert rep.passed, rep.render_text()


def test_trivial_group_functoriality_matches_oracle(triv, rng):
    ts = [SemiringTambara(NATURALS), SemiringTambara(BOOLEANS)]
    for _ in range(6):
        xs, ys, zs = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        p = random_trivial_polynomial(rng, xs, ys, 4, triv)
        q = random_trivial_polynomial(rng, ys, zs, 4, triv)
        for t in ts:
            sr = t.sr
            probes = [tuple(sr.sample_elements[(i + k) % len(sr.sample_elements)]
                            for i in range(xs)) for k in range(3)]
            rep = check_tambara_functoriality(t, p, q, probes)
            assert rep.passed, rep.render_text()


def test_norm_of_sum_identity_u(c2, f2, rng):
    t = BurnsideTambara(c2)
    a = random_slice(rng, f2, 4).arrow
    probes = [canonical_slice(random_slice(rng, a.dom, 3)) for _ in range(2)]
    rep = check_norm_of_sum(t, identity_gmap(f2), a, probes)
    assert rep.passed
    for v in probes:
        assert t.eq(t.norm(identity_gmap(f2), t.tr(a, v)), t.tr(a, v))


def test_norm_of_sum_binomial(triv):
    """Product of sums expands to the sum over all choices."""
    t = SemiringTambara(NATURALS)
    two = tset(triv, 2)
    one = tset(triv, 1)
    four = tset(triv, 4)
    u = tmap(triv, 2, 1, [0, 0])
    a = tmap(triv, 4, 2, [0, 0, 1, 1])
    rep = check_norm_of_sum(t, u, a, [(1, 2, 3, 4), (0, 1, 2, 3), (2, 2, 2, 2)])
    assert rep.passed
    # hand expansion: (v0+v1)(v2+v3)
    v = (1, 2, 3, 4)
    assert t.norm(u, t.tr(a, v)) == ((1 + 2) * (3 + 4),)


def test_norm_of_sum_free_example(c2, f2, u2, rng):
    t = BurnsideTambara(c2)
    cop = coproduct(f2, f2)
    a = cop.cotuple(identity_gmap(f2), identity_gmap(f2))
    probes = [canonical_slice(random_slice(rng, cop.sum, 3)) for _ in range(3)]
    probes.append(canonical_slice(slice_identity(cop.sum)))
    rep = check_norm_of_sum(t, u2, a, probes)
    assert rep.passed, rep.render_text()


def test_fp_preservation(c2, f2, pt2, triv, rng):
    t = BurnsideTambara(c2)
    zero = initial_gset(c2)
    pairs0 = [(canonical_slice(random_slice(rng, f2, 3)),
               canonical_slice(slice_identity(zero)))]
    assert check_fp_preservation(t, f2, zero, pairs0).passed
    pairs = [(canonical_slice(random_slice(rng, f2, 3)),
              canonical_slice(random_slice(rng, pt2, 3))) for _ in range(3)]
    assert check_fp_preservation(t, f2, pt2, pairs).passed
    ts = SemiringTambara(NATURALS)
    x, y = tset(triv, 2), tset(triv, 3)
    spairs = [((1, 2), (3, 4, 5)), ((0, 0), (1, 0, 1))]
    assert check_fp_preservation(ts, x, y, spairs).passed


def test_additive_reduct_matches_mackey(c2, rng):
    """Forgetting the norm, the slice-class instance is the Burnside functor."""
    t = BurnsideTambara(c2)
    b = BurnsideMackey(c2)
    for _ in range(4):
        x = random_gset(rng, c2, 4)
        y = random_gset(rng, c2, 4)
        f = random_map_into(rng, y, 4)
        gens_y = atoms(y)
        # transfer along a map into y, compared on every atom generator
        for i, lab in enumerate(atoms(f.dom)):
            rep = atom_slice(f.dom, lab)
            via_t = vectorize_slice(t.tr(f, canonical_slice(rep)), gens_y)
            basis = tuple(1 if j == i else 0 for j in range(len(atoms(f.dom))))
            assert via_t == b.tr_matrix(f)(basis)
        for i, lab in enumerate(gens_y):
            rep = atom_slice(y, lab)
            via_t = vectorize_slice(t.res(f, canonical_slice(rep)), atoms(f.dom))
            basis = tuple(1 if j == i else 0 for j in range(len(gens_y)))
            assert via_t == b.res_matrix(f)(basis)


def test_cb_exchange_for_generators(c2, rng):
    """Transfer past restriction and norm past restriction across pullbacks."""
    from spanpoly.finact import pullback
    from spanpoly.sampling import random_cospan
    t = BurnsideTambara(c2)
    for _ in range(4):
        f, g = random_cospan(rng, c2, 4)
        pb = pullback(f, g)
        for v in [canonical_slice(random_slice(rng, f.dom, 3)) for _ in range(2)]:
            lhs = t.res(g, t.tr(f, v))
            rhs = t.tr(pb.proj2, t.res(pb.proj1, v))
            assert t.eq(lhs, rhs)
            lhs_n = t.res(g, t.norm(f, v))
            rhs_n = t.norm(pb.proj2, t.res(pb.proj1, v))
            assert t.eq(lhs_n, rhs_n)


def test_semiring_needs_trivial_group(c2, f2, u2):
    t = SemiringTambara(NATURALS)
    with pytest.raises(InvalidStructure):
        t.tr(u2, (1, 1))
