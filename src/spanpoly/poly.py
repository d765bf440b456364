"""Polynomials of finite G-sets and their composition by term rewriting.

A polynomial X <-r- A -n-> B -t-> Y acts on slices as restriction, then
dependent product, then dependent sum.  Every finite equivariant map is
exponentiable, so any map may be the product leg n, and any the sum leg t;
classes of maps are certified on samples in `calib`.  Composition of two
polynomials is carried out on formal words of those three generators,
rewritten to the normal shape (sum, product, restriction) by:

  * fusing adjacent generators of equal kind,
  * exchanging a restriction past a sum or a product across the canonical
    pullback square,
  * pushing a product past a sum with the evaluation data of the dependent
    product (the distributive-law step).

Every step replaces a sub-composite by a canonically isomorphic one, and
every step strictly decreases the measure (product/sum inversions,
restriction inversions, word length) lexicographically, so normalization
terminates regardless of strategy; the innermost reducible pair is taken
first.  The result is validated against an independent sum-of-products
evaluator on the points of the underlying sets.  Morphisms of polynomials
(the two-cells of span-of-spans presentations) are searched by
`enumerate_poly_morphisms` and counted by `count_poly_morphisms`, a closed
form that shares no code with the search.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .errors import BoundaryMismatch, InvalidStructure
from .finact import (
    GMap,
    GSet,
    SliceObject,
    compose_gmaps,
    delta,
    equivariant_maps,
    identity_gmap,
    pi,
    pi_slice,
    point_images,
    pullback,
    sigma,
    slice_iso,
)
from .groups import FiniteGroup
from .record import FrozenRecord
from .report import Check, Report
from .semirings import CommSemiring
from .spans import Span


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial(FrozenRecord):
    """r : A -> X (restriction), n : A -> B (product leg), t : B -> Y (sum leg)."""

    __slots__ = ("r", "n", "t")

    def __init__(self, r: GMap, n: GMap, t: GMap):
        self._init(r, n, t)

    @property
    def src(self) -> GSet:
        return self.r.cod

    @property
    def tgt(self) -> GSet:
        return self.t.cod

    @property
    def group(self) -> FiniteGroup:
        return self.r.group


def polynomial(r: GMap, n: GMap, t: GMap) -> Polynomial:
    if r.dom != n.dom:
        raise BoundaryMismatch("polynomial: r and n must share their domain")
    if n.cod != t.dom:
        raise BoundaryMismatch("polynomial: cod(n) must be dom(t)")
    return Polynomial(r, n, t)


# ---------------------------------------------------------------------------
# the span-of-spans presentation
# ---------------------------------------------------------------------------

class SpanOfSpans(FrozenRecord):
    """Outer span with inner-span legs: left = (n, A, r) : B -> X, right = (1, B, t) : B -> Y."""

    __slots__ = ("apex", "left", "right")

    def __init__(self, apex: GSet, left: Span, right: Span):
        self._init(apex, left, right)


def poly_to_spanspan(p: Polynomial) -> SpanOfSpans:
    b = p.n.cod
    return SpanOfSpans(b, Span(p.n, p.r), Span(identity_gmap(b), p.t))


def spanspan_to_poly(s: SpanOfSpans) -> Polynomial:
    if s.left.left.cod != s.apex:
        raise InvalidStructure("left inner span does not hang off the outer apex")
    if not s.right.left.is_identity() or s.right.left.cod != s.apex:
        raise InvalidStructure("right outer leg must be an identity-legged span")
    return polynomial(s.left.right, s.left.left, s.right.right)


class PolyMorphism(FrozenRecord):
    """A morphism of parallel polynomials: g on sum legs, ell off the pullback.

    P is the canonical pullback of tgt.n against g, with projections
    P -> A' and P -> B; the data must satisfy t'.g = t, n.ell = (P -> B),
    r.ell = r'.(P -> A').
    """

    __slots__ = ("src", "tgt", "g", "ell")

    def __init__(self, src: Polynomial, tgt: Polynomial, g: GMap, ell: GMap):
        self._init(src, tgt, g, ell)


def poly_morphism(src: Polynomial, tgt: Polynomial, g: GMap, ell: GMap) -> PolyMorphism:
    if src.src != tgt.src or src.tgt != tgt.tgt:
        raise BoundaryMismatch("poly_morphism needs parallel polynomials")
    if g.dom != src.n.cod or g.cod != tgt.n.cod:
        raise BoundaryMismatch("g must map the sum legs' domains")
    pb = pullback(tgt.n, g)
    if ell.dom != pb.gset or ell.cod != src.n.dom:
        raise BoundaryMismatch("ell must map the canonical pullback into the source")
    if compose_gmaps(tgt.t, g).table != src.t.table:
        raise InvalidStructure("poly_morphism: sum-leg triangle does not commute")
    if compose_gmaps(src.n, ell).table != pb.proj2.table:
        raise InvalidStructure("poly_morphism: product-leg square does not commute")
    if compose_gmaps(src.r, ell).table != compose_gmaps(tgt.r, pb.proj1).table:
        raise InvalidStructure("poly_morphism: restriction triangle does not commute")
    return PolyMorphism(src, tgt, g, ell)


def enumerate_poly_morphisms(src: Polynomial, tgt: Polynomial) -> Iterator[PolyMorphism]:
    """All morphisms between two parallel polynomials (small inputs only)."""
    for g in equivariant_maps(src.n.cod, tgt.n.cod, ((src.t, tgt.t),)):
        pb = pullback(tgt.n, g)
        legs = ((pb.proj2, src.n), (compose_gmaps(tgt.r, pb.proj1), src.r))
        for ell in equivariant_maps(pb.gset, src.n.dom, legs):
            yield PolyMorphism(src, tgt, g, ell)


def count_poly_morphisms(src: Polynomial, tgt: Polynomial) -> int:
    """The number of morphisms src -> tgt, by a product formula in stabilizers.

    The independent count of `enumerate_poly_morphisms`: it reads stabilizers
    and orbits off `point_images` only.  It multiplies, over the orbits of B
    at their least points b with H = G_b, the sum over the b' with
    t'(b') = t(b) and H <= G_b' of the product over the H-orbits of
    n'^-1(b'), at a point a' with K = H & G_a', of the number of a over b with
    K <= G_a and r(a) = r'(a'): the choices of g(b), and of ell on each orbit
    of the pullback over b.
    """
    if src.src != tgt.src or src.tgt != tgt.tgt:
        raise BoundaryMismatch("count_poly_morphisms needs parallel polynomials")
    b_imgs, a_imgs, b2_imgs, a2_imgs = ([point_images(x, p) for p in x.points()]
                                        for x in (src.n.cod, src.n.dom, tgt.n.cod, tgt.n.dom))
    stab_b, stab_a, stab_b2, stab_a2 = (
        [frozenset(g for g, q in enumerate(i) if q == p) for p, i in enumerate(imgs)]
        for imgs in (b_imgs, a_imgs, b2_imgs, a2_imgs))
    total = 1
    for b, h in enumerate(stab_b):
        if b != min(b_imgs[b]):
            continue  # one factor per orbit of B, taken at its least point
        over = [a for a, nb in enumerate(src.n.table) if nb == b]
        ways = 0
        for b2, h2 in enumerate(stab_b2):
            if tgt.t.table[b2] != src.t.table[b] or not h <= h2:
                continue
            term = 1
            for a2, k2 in enumerate(stab_a2):
                # one factor per H-orbit of the fiber over b2, at its least point
                if tgt.n.table[a2] == b2 and a2 == min(a2_imgs[a2][g] for g in h):
                    k = h & k2
                    term *= sum(1 for a in over
                                if k <= stab_a[a] and src.r.table[a] == tgt.r.table[a2])
            ways += term
        total *= ways
    return total


class SpanSpan2Cell(FrozenRecord):
    """Two-cell data in the span-of-spans picture.

    apex_map is the plain map between outer apexes (presented through an
    identity-legged span), composite is the composed inner span it induces,
    and lam is the reversed-direction comparison off the canonical pullback.
    """

    __slots__ = ("src", "tgt", "apex_map", "composite", "lam")

    def __init__(self, src: SpanOfSpans, tgt: SpanOfSpans, apex_map: GMap,
                 composite: Span, lam: GMap):
        self._init(src, tgt, apex_map, composite, lam)


def translate_2cell(m: PolyMorphism) -> SpanSpan2Cell:
    """Repack a polynomial morphism as span-of-spans two-cell data."""
    pb = pullback(m.tgt.n, m.g)
    comp = Span(pb.proj2, compose_gmaps(m.tgt.r, pb.proj1))
    return SpanSpan2Cell(poly_to_spanspan(m.src), poly_to_spanspan(m.tgt),
                         m.g, comp, m.ell)


def translate_2cell_inverse(c: SpanSpan2Cell) -> PolyMorphism:
    src = spanspan_to_poly(c.src)
    tgt = spanspan_to_poly(c.tgt)
    return poly_morphism(src, tgt, c.apex_map, c.lam)


# ---------------------------------------------------------------------------
# the distributive-law step
# ---------------------------------------------------------------------------

def distribute(u: GMap, a: GMap,
               probes: Sequence[SliceObject] = ()) -> tuple[tuple[GMap, GMap, GMap], Report]:
    """Exchange a dependent product past a dependent sum, with certificates.

    For u : S -> U and a : A -> S the exchanged word is read off the
    dependent product of a along u and its counit (`PiData.evaluation`):
    returns the maps (pia, ubar, e), where pia : B -> U is the dependent
    product, ubar : P -> B its pullback back over S, and e : P -> A
    evaluates sections.  The returned report certifies that on each probe
    slice m over A the two routes  product(u) . sum(a)  and
    sum(pia) . product(ubar) . restrict(e)  agree up to an explicit slice
    iso.
    """
    if a.cod != u.dom:
        raise BoundaryMismatch("distribute: a must land in dom(u)")
    pd = pi(u, SliceObject(a))
    pull, e = pd.evaluation()
    pia, ubar = pd.slice.arrow, pull.proj1
    checks = []
    for k, m in enumerate(probes):
        lhs = pi_slice(u, sigma(a, m))
        rhs = sigma(pia, pi_slice(ubar, delta(e, m)))
        w = slice_iso(lhs, rhs)
        checks.append(Check(f"slice-iso[{k}]", w is not None,
                            "" if w else "exchange routes disagree on probe"))
    return (pia, ubar, e), Report("distribute", tuple(checks))


# ---------------------------------------------------------------------------
# generator words and normalization
# ---------------------------------------------------------------------------

DELTA, PI, SIGMA = "Delta", "Pi", "Sigma"
_RANK = {SIGMA: 0, PI: 1, DELTA: 2}


class Gen(FrozenRecord):
    __slots__ = ("kind", "f")

    def __init__(self, kind: str, f: GMap):
        self._init(kind, f)

    @property
    def in_obj(self) -> GSet:
        return self.f.cod if self.kind == DELTA else self.f.dom

    @property
    def out_obj(self) -> GSet:
        return self.f.dom if self.kind == DELTA else self.f.cod

    def describe(self) -> str:
        return f"{self.kind}({self.f.dom.size}->{self.f.cod.size})"


Word = tuple[Gen, ...]


def validate_word(word: Word) -> None:
    for i in range(len(word) - 1):
        if word[i].in_obj != word[i + 1].out_obj:
            raise BoundaryMismatch(f"word boundaries break between {i} and {i + 1}")


def poly_word(p: Polynomial) -> Word:
    return (Gen(SIGMA, p.t), Gen(PI, p.n), Gen(DELTA, p.r))


def _rewrite_pair(a: Gen, b: Gen) -> Optional[tuple[str, tuple[Gen, ...]]]:
    """One step on the adjacent pair (a, b), b applied first; None if in order."""
    if b.f.is_identity():
        return ("drop-identity", (a,))
    if a.f.is_identity():
        return ("drop-identity", (b,))
    if a.kind == b.kind:
        if a.kind == DELTA:
            return ("fuse-restrictions", (Gen(DELTA, compose_gmaps(b.f, a.f)),))
        return (f"fuse-{'sums' if a.kind == SIGMA else 'products'}",
                (Gen(a.kind, compose_gmaps(a.f, b.f)),))
    if _RANK[a.kind] <= _RANK[b.kind]:
        return None
    if a.kind == DELTA:
        pb = pullback(b.f, a.f)
        rule = "exchange-restriction-sum" if b.kind == SIGMA else "exchange-restriction-product"
        return (rule, (Gen(b.kind, pb.proj2), Gen(DELTA, pb.proj1)))
    # a is a product, b a sum: the distributive-law step
    (pia, ubar, e), _ = distribute(a.f, b.f)
    return ("distribute-product-past-sum", (Gen(SIGMA, pia), Gen(PI, ubar), Gen(DELTA, e)))


def normalize_word(word: Word) -> tuple[Word, list[dict]]:
    """Rewrite to the sorted normal form, logging each applied rule."""
    validate_word(word)
    cur = list(word)
    transcript: list[dict] = []
    while True:
        for i in range(len(cur) - 2, -1, -1):  # innermost (rightmost) pair first
            step = _rewrite_pair(cur[i], cur[i + 1])
            if step is not None:
                break
        else:
            break
        rule, repl = step
        before = [g.describe() for g in cur]
        cur = cur[:i] + list(repl) + cur[i + 2:]
        transcript.append({"rule": rule, "pos": i,
                           "before": before,
                           "after": [g.describe() for g in cur]})
        validate_word(tuple(cur))
    return tuple(cur), transcript


def word_to_polynomial(word: Word, src: GSet, tgt: GSet) -> Polynomial:
    """Read a normalized word off as a polynomial, padding missing generators."""
    kinds = [g.kind for g in word]
    if kinds != sorted(kinds, key=_RANK.get):
        raise InvalidStructure("word is not in normal form")
    if len(set(kinds)) != len(kinds):
        raise InvalidStructure("word has unfused repeats")
    gens = {g.kind: g for g in word}
    r = gens[DELTA].f if DELTA in gens else None
    n = gens[PI].f if PI in gens else None
    t = gens[SIGMA].f if SIGMA in gens else None
    if r is None:
        a_obj = n.dom if n is not None else (t.dom if t is not None else src)
        r = identity_gmap(a_obj)
        if a_obj != src:
            raise InvalidStructure("cannot pad restriction: boundary mismatch")
    if n is None:
        n = identity_gmap(r.dom)
    if t is None:
        t = identity_gmap(n.cod)
    out = polynomial(r, n, t)
    if out.src != src or out.tgt != tgt:
        raise InvalidStructure("normalized polynomial has wrong boundary")
    return out


def compose_poly(p: Polynomial, q: Polynomial) -> tuple[Polynomial, list[dict]]:
    """p : X -/-> Y followed by q : Y -/-> Z, with the rewrite transcript."""
    if p.tgt != q.src:
        raise BoundaryMismatch("compose_poly: boundaries do not match")
    word = poly_word(q) + poly_word(p)
    normal, transcript = normalize_word(word)
    return word_to_polynomial(normal, p.src, q.tgt), transcript


# ---------------------------------------------------------------------------
# the independent evaluation oracle
# ---------------------------------------------------------------------------

def eval_semiring(p: Polynomial, q: Sequence, sr: CommSemiring) -> tuple:
    """Sum-of-products value of a polynomial on the points of its underlying sets.

    val(y) = sum over t-fiber of y of the product over n-fibers of q at r.
    It reads only map tables, so it works over any group: forgetting the
    action preserves pullbacks, sums and dependent products.  Completely
    independent of the slice machinery; serves as ground truth for
    composition.
    """
    if len(q) != p.src.size:
        raise InvalidStructure("input family has wrong length")
    a_of_b = [[] for _ in range(p.n.cod.size)]
    for a in range(p.n.dom.size):
        a_of_b[p.n.table[a]].append(a)
    out = []
    for y in range(p.tgt.size):
        terms = []
        for b in range(p.t.dom.size):
            if p.t.table[b] == y:
                terms.append(sr.prod(q[p.r.table[a]] for a in a_of_b[b]))
        out.append(sr.sum(terms))
    return tuple(out)


def _test_families(size: int, sr: CommSemiring) -> list[tuple]:
    families = [tuple(sr.zero for _ in range(size)),
                tuple(sr.one for _ in range(size))]
    for i in range(size):
        families.append(tuple(sr.one if j == i else sr.zero for j in range(size)))
    pool = sr.sample_elements
    if len(pool) ** size <= 64:
        families.extend(itertools.product(pool, repeat=size))
    else:
        for shift in range(6):
            families.append(tuple(pool[(j + shift) % len(pool)] for j in range(size)))
    seen, out = set(), []
    for fam in families:
        if fam not in seen:
            seen.add(fam)
            out.append(fam)
    return out


def check_poly_oracle(p: Polynomial, q: Polynomial,
                      semirings: Sequence[CommSemiring]) -> Report:
    """Composite evaluation must match composed evaluations, pointwise."""
    comp, _ = compose_poly(p, q)
    checks = []
    for sr in semirings:
        ok = True
        witness = ""
        for fam in _test_families(p.src.size, sr):
            via_comp = eval_semiring(comp, fam, sr)
            via_steps = eval_semiring(q, eval_semiring(p, fam, sr), sr)
            if via_comp != via_steps:
                ok = False
                witness = f"family {fam}: {via_comp} vs {via_steps}"
                break
        checks.append(Check(f"oracle[{sr.name}]", ok, witness))
    return Report("poly-oracle", tuple(checks))
