"""Spans of finite G-sets, composed by pullback, at desk scale.

A span U <- S -> V is a pair of maps out of its apex S; any map may be a
leg (a workspace entry may restrict its left leg to a named class, checked
on load).  Over a plain category the two-cell content degenerates: span
morphisms are strictly commuting apex maps, and isomorphism classes of
spans are decided by an orbit-label canonical form, and an iso between
two spans is read off their labels.  Hom-categories are never
materialized; spans are concrete values.
"""
from __future__ import annotations

from typing import Optional

from .errors import BoundaryMismatch
from .finact import (
    GMap,
    GSet,
    compose_gmaps,
    coproduct,
    equivariant_iso,
    identity_gmap,
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


def compose_data(p: Span, q: Span) -> SpanComposite:
    return SpanComposite(p, q)


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
    comp = compose_data(identity_span(p.src), p)
    return comp, GMap(comp.span.apex, p.apex, comp.pb.proj2.table)


def runitor(p: Span) -> tuple[SpanComposite, GMap]:
    comp = compose_data(p, identity_span(p.tgt))
    return comp, GMap(comp.span.apex, p.apex, comp.pb.proj1.table)


def associator(p: Span, q: Span, r: Span) -> tuple[SpanComposite, SpanComposite, GMap]:
    """Canonical iso apex((p;q);r) -> apex(p;(q;r)) by reassociating pairs."""
    pq = compose_data(p, q)
    left = compose_data(pq.span, r)
    qr = compose_data(q, r)
    right = compose_data(p, qr.span)
    ps, qt = pq.pb.proj1.table, pq.pb.proj2.table
    table = tuple(right.pb.index_of(ps[i], qr.pb.index_of(qt[i], w))
                  for i, w in zip(left.pb.proj1.table, left.pb.proj2.table))
    return left, right, GMap(left.span.apex, right.span.apex, table)


# ---------------------------------------------------------------------------
# the adjunction r_* -| r^*
# ---------------------------------------------------------------------------

def adjunction_unit(r: GMap) -> tuple[SpanComposite, GMap]:
    """unit : identity span of U => r_* ; r^*  (the kernel-pair diagonal)."""
    comp = compose_data(lower_star(r), upper_star(r))
    table = tuple(comp.pb.index_of(x, x) for x in r.dom.points())
    return comp, GMap(r.dom, comp.span.apex, table)


def adjunction_counit(r: GMap) -> tuple[SpanComposite, GMap]:
    """counit : r^* ; r_* => identity span of V."""
    comp = compose_data(upper_star(r), lower_star(r))
    table = tuple(map(r.table.__getitem__, comp.pb.proj1.table))
    return comp, GMap(comp.span.apex, r.cod, table)


def check_adjunction(r: GMap) -> Report:
    """Exact triangle identities for the adjunction of the two presentations of r.

    Both composites are chased elementwise through the canonical unitors and
    associator and must come back to the identity on the nose.
    """
    f = lower_star(r)
    g = upper_star(r)
    k = compose_data(f, g)          # r_* ; r^*, kernel pair
    r2 = compose_data(g, f)         # r^* ; r_*
    ka, kb = k.pb.proj1.table, k.pb.proj2.table
    _, eta = adjunction_unit(r)
    _, eps = adjunction_counit(r)

    checks = []
    ok_unit = is_span_morphism(identity_span(r.dom), k.span, eta)
    checks.append(Check("unit-is-2cell", ok_unit))
    ok_counit = is_span_morphism(r2.span, identity_span(r.cod), eps)
    checks.append(Check("counit-is-2cell", ok_counit))

    # triangle on r_*: whisker the unit, reassociate, whisker the counit
    c1 = compose_data(identity_span(r.dom), f)
    c2 = compose_data(k.span, f)
    c3 = compose_data(f, r2.span)
    c4 = compose_data(f, identity_span(r.cod))
    (x1, s1), (k2, s2), (a3, p3), (c4s, _) = (
        (c.pb.proj1.table, c.pb.proj2.table) for c in (c1, c2, c3, c4))
    ok = True
    for s in r.dom.points():
        i1 = c1.pb.index_of(s, s)
        i2 = c2.pb.index_of(eta.table[x1[i1]], s1[i1])
        i3 = c3.pb.index_of(ka[k2[i2]], r2.pb.index_of(kb[k2[i2]], s2[i2]))
        i4 = c4.pb.index_of(a3[i3], eps.table[p3[i3]])
        if c4s[i4] != s:
            ok = False
            break
    checks.append(Check("triangle-lower", ok))

    # triangle on r^*
    d1 = compose_data(g, identity_span(r.dom))
    d2 = compose_data(g, k.span)
    d3 = compose_data(r2.span, g)
    d4 = compose_data(identity_span(r.cod), g)
    (t1, x1), (t2, k2), (p3, b3), (_, d4t) = (
        (d.pb.proj1.table, d.pb.proj2.table) for d in (d1, d2, d3, d4))
    ok = True
    for t in r.dom.points():
        i1 = d1.pb.index_of(t, t)
        i2 = d2.pb.index_of(t1[i1], eta.table[x1[i1]])
        i3 = d3.pb.index_of(r2.pb.index_of(t2[i2], ka[k2[i2]]), kb[k2[i2]])
        i4 = d4.pb.index_of(eps.table[p3[i3]], b3[i3])
        if d4t[i4] != t:
            ok = False
            break
    checks.append(Check("triangle-upper", ok))
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
