"""Spans of finite G-sets, composed by pullback, at desk scale.

A span U <- S -> V is a pair of maps out of its apex S; any map may be a
leg (a workspace entry may restrict its left leg to a named class, checked
on load).  Over a plain category the two-cell content degenerates: span
morphisms are strictly commuting apex maps, and isomorphism classes of
spans are decided by an orbit-label canonical form, and an iso between
two spans is read off their labels.  Hom-categories are never
materialized; spans are concrete values.

The bicategory structure is the unitors, the associator and whiskering.
The associator, whiskering and the unit of r_* -| r^* map into a
composite's pullback through `Pullback.mediator`, and the adjunction's
triangle identities are composites of these cells.
"""
from __future__ import annotations

from functools import reduce
from typing import Optional

from .errors import BoundaryMismatch
from .finact import (
    GMap,
    GSet,
    compose_gmaps,
    coproduct,
    equivariant_iso,
    identity_gmap,
    invert_gmap,
    orbit_labels,
    pullback,
    render_labels,
)
from .groups import FiniteGroup
from .record import FrozenRecord
from .report import Check, Report


class Span(FrozenRecord):
    """left : S -> U, right : S -> V."""

    __slots__ = ("left", "right")

    def __init__(self, left: GMap, right: GMap):
        set_left, set_right = self._setters
        set_left(self, left)
        set_right(self, right)

    @property
    def apex(self) -> GSet:
        return self.left.dom

    @property
    def src(self) -> GSet:
        return self.left.cod

    @property
    def tgt(self) -> GSet:
        return self.right.cod

    @property
    def group(self) -> FiniteGroup:
        return self.left.group


def span(left: GMap, right: GMap) -> Span:
    if left.dom != right.dom:
        raise BoundaryMismatch("span legs must share their domain")
    return Span(left, right)


def identity_span(u: GSet) -> Span:
    i = identity_gmap(u)
    return Span(i, i)


def lower_star(f: GMap) -> Span:
    """The span presentation (U <-1- U -f-> V) of a plain map."""
    return Span(identity_gmap(f.dom), f)


def upper_star(r: GMap) -> Span:
    """The right-adjoint presentation (V <-r- U -1-> U)."""
    return Span(r, identity_gmap(r.dom))


class SpanComposite:
    """A composed span remembering the pullback its apex came from."""

    __slots__ = ("span", "pb")

    def __init__(self, p: Span, q: Span):
        if p.tgt != q.src:
            raise BoundaryMismatch("span composition: boundaries do not match")
        pb = pullback(p.right, q.left)
        self.span = Span(compose_gmaps(p.left, pb.proj1), compose_gmaps(q.right, pb.proj2))
        self.pb = pb


def compose_spans(p: Span, q: Span) -> Span:
    """p : U -/-> V followed by q : V -/-> W."""
    return SpanComposite(p, q).span


# ---------------------------------------------------------------------------
# span morphisms and isomorphism
# ---------------------------------------------------------------------------

def is_span_morphism(p: Span, q: Span, f: GMap) -> bool:
    """Whether f : apex(p) -> apex(q) commutes with all four legs."""
    if p.src != q.src or p.tgt != q.tgt:
        return False
    if f.dom != p.apex or f.cod != q.apex:
        return False
    return (compose_gmaps(q.left, f).table == p.left.table
            and compose_gmaps(q.right, f).table == p.right.table)


def span_labels(p: Span) -> tuple:
    return orbit_labels(p.apex, (p.left, p.right))


def span_iso(p: Span, q: Span) -> Optional[GMap]:
    """An apex iso commuting with both legs, or None."""
    if p.src != q.src or p.tgt != q.tgt:
        raise BoundaryMismatch("span_iso needs parallel spans")
    return equivariant_iso(p.apex, q.apex, ((p.left, q.left), (p.right, q.right)))


def span_canonical_form(p: Span) -> str:
    labs = render_labels(span_labels(p))
    return f"{p.group.name}[{p.src.size}<-{p.apex.size}->{p.tgt.size}]{{{labs}}}"


# ---------------------------------------------------------------------------
# canonical coherence cells
# ---------------------------------------------------------------------------

def lunitor(p: Span) -> tuple[SpanComposite, GMap]:
    """The composite 1 ; p and its canonical iso onto p."""
    comp = SpanComposite(identity_span(p.src), p)
    return comp, GMap(comp.span.apex, p.apex, comp.pb.proj2.table)


def runitor(p: Span) -> tuple[SpanComposite, GMap]:
    comp = SpanComposite(p, identity_span(p.tgt))
    return comp, GMap(comp.span.apex, p.apex, comp.pb.proj1.table)


def associator(p: Span, q: Span, r: Span) -> tuple[SpanComposite, SpanComposite, GMap]:
    """Canonical iso apex((p;q);r) -> apex(p;(q;r)) by reassociating pairs."""
    pq = SpanComposite(p, q)
    left = SpanComposite(pq.span, r)
    qr = SpanComposite(q, r)
    right = SpanComposite(p, qr.span)
    first = left.pb.proj1
    inner = qr.pb.mediator(compose_gmaps(pq.pb.proj2, first), left.pb.proj2)
    return left, right, right.pb.mediator(compose_gmaps(pq.pb.proj1, first), inner)


def _whisker(src: SpanComposite, tgt: SpanComposite, alpha: GMap, beta: GMap) -> GMap:
    """The horizontal composite of two-cells alpha : p => p' and beta : q => q',
    apex(p;q) -> apex(p';q') for src = p;q and tgt = p';q', pairwise.

    Whiskering is the case where alpha or beta is an identity map.
    """
    return tgt.pb.mediator(compose_gmaps(alpha, src.pb.proj1), compose_gmaps(beta, src.pb.proj2))


# ---------------------------------------------------------------------------
# the adjunction r_* -| r^*
# ---------------------------------------------------------------------------

def adjunction_unit(r: GMap) -> tuple[SpanComposite, GMap]:
    """unit : identity span of U => r_* ; r^*  (the kernel-pair diagonal)."""
    comp = SpanComposite(lower_star(r), upper_star(r))
    one = identity_gmap(r.dom)
    return comp, comp.pb.mediator(one, one)


def adjunction_counit(r: GMap) -> tuple[SpanComposite, GMap]:
    """counit : r^* ; r_* => identity span of V."""
    comp = SpanComposite(upper_star(r), lower_star(r))
    return comp, compose_gmaps(r, comp.pb.proj1)


def check_adjunction(r: GMap) -> Report:
    """Exact triangle identities for the adjunction of the two presentations of r.

    Each triangle is a composite of coherence cells and must be the identity
    on the nose.  On f = r_* it is the inverted left unitor, the unit
    whiskered by f, the associator, f whiskered by the counit, and the right
    unitor; on g = r^* it is the inverted right unitor, g whiskered by the
    unit, the inverted associator, the counit whiskered by g, and the left
    unitor.  So the triangles also certify the cells that `span-laws` uses.
    """
    f, g = lower_star(r), upper_star(r)
    one = identity_gmap(r.dom)  # the identity two-cell of f and of g
    k, eta = adjunction_unit(r)
    c, eps = adjunction_counit(r)
    checks = [Check("unit-is-2cell", is_span_morphism(identity_span(r.dom), k.span, eta)),
              Check("counit-is-2cell", is_span_morphism(c.span, identity_span(r.cod), eps))]
    (lu, lu_iso), (ru, ru_iso), (left, right, assoc) = lunitor(f), runitor(f), associator(f, g, f)
    lower = (invert_gmap(lu_iso), _whisker(lu, left, eta, one), assoc,
             _whisker(right, ru, one, eps), ru_iso)
    (lu, lu_iso), (ru, ru_iso), (left, right, assoc) = lunitor(g), runitor(g), associator(g, f, g)
    upper = (invert_gmap(ru_iso), _whisker(ru, right, one, eta), invert_gmap(assoc),
             _whisker(left, lu, eps, one), lu_iso)
    for name, cells in (("triangle-lower", lower), ("triangle-upper", upper)):
        checks.append(Check(name, reduce(lambda a, b: compose_gmaps(b, a), cells).is_identity()))
    return Report(f"adjunction r_*-|r^* on {r.dom.size}->{r.cod.size}", tuple(checks))


# ---------------------------------------------------------------------------
# local coproducts
# ---------------------------------------------------------------------------

def local_coproduct(p: Span, q: Span) -> tuple[Span, GMap, GMap]:
    """Coproduct of parallel spans in the hom-category, with its injections."""
    if p.src != q.src or p.tgt != q.tgt:
        raise BoundaryMismatch("local_coproduct needs parallel spans")
    apexes = coproduct(p.apex, q.apex)
    left = apexes.cotuple(p.left, q.left)
    right = apexes.cotuple(p.right, q.right)
    return Span(left, right), apexes.inj1, apexes.inj2
