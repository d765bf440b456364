"""Morphism-class checkers, closure checks, extensivity."""
import pytest

from spanpoly.calib import (
    ALL_MAPS,
    INJECTIVE_MAPS,
    ISO_MAPS,
    SURJECTIVE_MAPS,
    MorphismClass,
    check_compatible_pair,
    check_product_closure,
    check_protocalibration,
    whitelist_class,
)
from spanpoly.errors import BoundaryMismatch, ClassViolation
from spanpoly.finact import (
    SliceObject,
    codiagonal,
    compose_gmaps,
    coproduct,
    delta,
    identity_gmap,
    initial_gset,
    regular_gset,
    slice_iso,
    slice_sum,
    sum_gmap,
    unique_to_terminal,
)
from spanpoly.sampling import random_gset, random_map_into, random_slice

from helpers import unique_from_initial


def _samples(rng, group, n=6, size=5):
    out = []
    for _ in range(n):
        w = random_gset(rng, group, size)
        out.append(random_map_into(rng, w, size))
    return out


@pytest.mark.parametrize("cls", [ALL_MAPS, INJECTIVE_MAPS, SURJECTIVE_MAPS, ISO_MAPS])
def test_builtin_classes_pass(cls, c2, s3, rng):
    for group in (c2, s3):
        rep = check_protocalibration(cls, _samples(rng, group))
        assert rep.passed, rep.render_text()


def test_broken_class_yields_witness(c2, rng):
    broken = MorphismClass("image-size-1", lambda f: len(set(f.table)) == 1)
    rep = check_protocalibration(broken, _samples(rng, c2))
    assert not rep.passed
    assert any("rejected" in c.detail or "iso" in c.name for c in rep.failures())


def test_compatible_pairs(c2, rng):
    samples = _samples(rng, c2)
    pi_samples = []
    for _ in range(5):
        r = random_map_into(rng, random_gset(rng, c2, 5), 5)
        v = random_map_into(rng, r.dom, 5)
        pi_samples.append((r, v))
    assert check_compatible_pair(ALL_MAPS, ALL_MAPS, samples, pi_samples).passed
    assert check_compatible_pair(INJECTIVE_MAPS, ALL_MAPS, samples, pi_samples).passed
    # the reverse order fails the inclusion with a concrete witness
    f2 = regular_gset(c2)
    bad = check_compatible_pair(ALL_MAPS, INJECTIVE_MAPS,
                                samples + [unique_to_terminal(f2)], pi_samples)
    assert not bad.passed
    assert any("not in injective" in c.detail for c in bad.failures())


def test_product_closure(c2, f2, rng):
    i = identity_gmap(f2)
    assert check_product_closure(ALL_MAPS, i, i)
    inj = coproduct(f2, f2).inj1
    assert check_product_closure(INJECTIVE_MAPS, inj, inj)
    u = unique_to_terminal(f2)
    assert check_product_closure(SURJECTIVE_MAPS, u, u)
    with pytest.raises(ClassViolation):
        check_product_closure(INJECTIVE_MAPS, u, u)


def test_coproduct_closure_flags(c2, f2):
    # sums of injections stay injective, but codiagonals leave the class
    cop = coproduct(f2, f2)
    assert INJECTIVE_MAPS(sum_gmap(cop, coproduct(cop.sum, cop.sum), cop.inj1, cop.inj1))
    _, nabla = codiagonal(f2)
    assert ALL_MAPS(nabla) and not INJECTIVE_MAPS(nabla)
    assert ALL_MAPS(unique_from_initial(f2))


def test_whitelist_class(c2, f2):
    u = unique_to_terminal(f2)
    cls = whitelist_class("just-u", [u])
    assert cls(u) and not cls(identity_gmap(f2))


# ---------------------------------------------------------------------------
# extensivity
# ---------------------------------------------------------------------------

def test_extensivity_over_initial(c2, f2, rng):
    zero = initial_gset(c2)
    cop = coproduct(f2, zero)
    w = random_slice(rng, cop.sum, 5)
    a, b = delta(cop.inj1, w), delta(cop.inj2, w)
    assert b.size == 0
    assert slice_iso(a, SliceObject(compose_gmaps(
        identity_gmap(f2), a.arrow))) is not None


def test_extensivity_roundtrip_random(c2, s3, rng):
    for group in (c2, s3):
        for _ in range(5):
            u = random_gset(rng, group, 5)
            v = random_gset(rng, group, 5)
            cop = coproduct(u, v)
            w = random_slice(rng, cop.sum, 6)
            a, b = delta(cop.inj1, w), delta(cop.inj2, w)
            back = slice_sum(cop, a, b)
            assert slice_iso(back, w) is not None
            assert slice_iso(delta(cop.inj1, back), a) is not None
            assert slice_iso(delta(cop.inj2, back), b) is not None


def test_inverse_sum_then_comparison(c2, rng):
    u = random_gset(rng, c2, 5)
    v = random_gset(rng, c2, 5)
    a = random_slice(rng, u, 5)
    b = random_slice(rng, v, 5)
    cop = coproduct(u, v)
    w = slice_sum(cop, a, b)
    a2, b2 = delta(cop.inj1, w), delta(cop.inj2, w)
    assert slice_iso(a2, a) is not None and slice_iso(b2, b) is not None


def test_extensivity_requires_constructed_coproduct(c2, f2, rng):
    with pytest.raises(BoundaryMismatch):
        delta(coproduct(f2, f2).inj1, random_slice(rng, f2, 4))
