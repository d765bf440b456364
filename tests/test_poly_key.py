"""Polynomials compared by `helpers.poly_key`, a complete iso invariant.

Two polynomials with the same ends are isomorphic iff their keys are equal
(the proof is in the key's docstring).  The key must reproduce, pair for
pair, the verdicts of a backtracking search for legwise isos, pinned before
that search left the library, and it must stay fast where that search was
quadratic: on a composite whose B orbits all share one stabilizer and one
t-value.
"""
import hashlib
import random
import time

from spanpoly.finact import GSet, gmap
from spanpoly.groups import cyclic_group, symmetric_group
from spanpoly.poly import Polynomial, compose_poly, polynomial
from spanpoly.sampling import random_gmap, random_gset_with_fixed_point, random_polynomial

from helpers import isomorphic_polys, poly_key, relabelled_poly


def _verdict_pairs():
    """600 seeded pairs per group: p against relabelled copies of itself, of p
    with its r leg drawn again, and of an independent draw with p's ends."""
    for group in (cyclic_group(2), symmetric_group(3), cyclic_group(4), symmetric_group(4)):
        for seed in range(150):
            rng = random.Random(f"poly-key/{group.name}/{seed}")
            x = random_gset_with_fixed_point(rng, group, 4)
            y = random_gset_with_fixed_point(rng, group, 4)
            p = random_polynomial(rng, x, y, 6)
            yield p, relabelled_poly(rng, p)
            yield p, relabelled_poly(rng, Polynomial(random_gmap(rng, p.n.dom, x), p.n, p.t))
            yield p, relabelled_poly(rng, random_polynomial(rng, x, y, 6))


def test_key_reproduces_the_pinned_iso_search_verdicts():
    verdicts = "".join("1" if isomorphic_polys(p, q) else "0" for p, q in _verdict_pairs())
    assert (len(verdicts), verdicts.count("1")) == (1800, 925)
    assert verdicts[::3] == "1" * 600
    assert hashlib.sha256(verdicts.encode()).hexdigest() == (
        "c749df6be6604b21e9d37e3bf8ff69a8ada5811e006ec09ede4355c00caa4db8")


def test_key_ignores_the_ends():
    """The key reads r and t as point indices: equal keys say nothing without equal ends."""
    group = cyclic_group(2)
    rng = random.Random(0)
    x = random_gset_with_fixed_point(rng, group, 4)
    p = random_polynomial(rng, x, x, 6)
    q = Polynomial(p.r, p.n, gmap(p.n.cod, GSet(group, x.size + 1, tuple(
        row + (x.size,) for row in x.rows)), p.t.table))
    assert poly_key(p) == poly_key(q)
    assert not isomorphic_polys(p, q)


def _c2_set(fixed, orbits):
    """A C2-set of `fixed` fixed points followed by free orbits {2k, 2k + 1} (shifted)."""
    return GSet(cyclic_group(2), fixed + 2 * orbits,
                (tuple(range(fixed)) + tuple(fixed + (q ^ 1) for q in range(2 * orbits)),))


def _c2_map(rng, dom, cod, targets, fixed=0):
    """The map sending free orbit k of dom onto free orbit targets[k] of cod
    (a seeded one of its two ways), or onto the fixed point 0 where targets[k] is None."""
    table = []
    for j in targets:
        flip = rng.randrange(2)
        table += [0, 0] if j is None else [fixed + 2 * j + flip, fixed + 2 * j + 1 - flip]
    return gmap(dom, cod, table)


def test_key_on_a_composite_of_20000_b_points_of_one_class():
    """p : X -> Y has 100 sum-leg orbits over each orbit of Y, and q : Y -> 1
    takes a product over two points, one over each orbit of Y: the composite
    has 2 * 100^2 sections, so 10,000 free orbits of B over the one point."""
    rng = random.Random(0)
    x, y, z = _c2_set(1, 1), _c2_set(0, 2), _c2_set(1, 0)
    b_p, a_p, b_q, a_q = (_c2_set(0, k) for k in (200, 200, 1, 2))
    p = polynomial(_c2_map(rng, a_p, x, [rng.choice((None, 0)) for _ in range(200)], 1),
                   _c2_map(rng, a_p, b_p, range(200)),
                   _c2_map(rng, b_p, y, [k % 2 for k in range(200)]))
    q = polynomial(_c2_map(rng, a_q, y, [0, 1]), _c2_map(rng, a_q, b_q, [0, 0]),
                   _c2_map(rng, b_q, z, [None]))
    comp = compose_poly(p, q)[0]
    assert (comp.n.dom.size, comp.n.cod.size) == (40_000, 20_000)
    assert set(comp.t.table) == {0}
    assert all(q != b for b, q in enumerate(comp.n.cod.rows[0]))  # every orbit free
    copy = relabelled_poly(rng, comp)
    start = time.perf_counter()
    keys = poly_key(comp), poly_key(copy)
    elapsed = time.perf_counter() - start
    assert keys[0] == keys[1]
    assert elapsed < 1.0
