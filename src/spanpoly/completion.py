"""Lazily presented indexed categories and their coproduct/product completions.

An indexed category assigns to every G-set U a category fragment whose
objects and finite hom-sets are produced on demand, and to every map a
reindexing functor.  Values are never materialized: every check below takes
explicit probe objects and reports exactly what it examined.

There is one indexed category, `SliceIndexed`: `SliceIndexed()` is the
self-indexing by slices, and `SliceIndexed(k)` for a G-set K the slices over
(- x K), which present the hom into K in a form that admits both adjoints to
reindexing.  The terminal instance, `terminal_indexed`, is the case K = 0:
slices over (- x 0) are slices over the empty G-set, one object and one
morphism in every fiber.  Its fibers are slice categories, so their homs,
composites and isos are `slice_homs`, `compose_gmaps` and `slice_iso`,
called directly.  A span acts on the fibers through `span_action`.

Objects of the coproduct completion over U are pairs (u : S -> U, x in
X(S)), any map serving as the leg; the product completion uses the
same objects with morphisms reversed, so one representation serves both and
only the adjoints differ (pushforward is a left adjoint to reindexing on
one side, a right adjoint on the other).
Each hom-set has one search and one count that shares no code with it:
`completion_homs` and `count_completion_homs`, which with identity legs
also counts fiber hom-sets.  For slices the product completion is the
category of polynomials 1 <- X -> S -> U and its morphisms, reversed, are
polynomial morphisms, searched and counted by `poly`.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from . import finact, poly
from .errors import BoundaryMismatch, InvalidStructure, ProbeFailure, ResourceLimit
from .finact import (
    CoproductDiagram,
    GMap,
    GSet,
    SliceObject,
    codiagonal,
    compose_gmaps,
    coproduct,
    delta,
    equivariant_maps,
    identity_gmap,
    initial_gset,
    invert_gmap,
    pi_slice,
    point_images,
    product,
    product_gmap,
    pullback,
    sigma,
    slice_homs,
    slice_iso,
    unique_to_terminal,
)
from .groups import FiniteGroup
from .record import FrozenRecord
from .report import Check, Report
from .spans import Span, compose_spans


# ---------------------------------------------------------------------------
# indexed categories
# ---------------------------------------------------------------------------

class SliceIndexed:
    """Slices over carrier(U); with at = K the carrier is the product U x K.

    The fiber over U has the slice objects over the carrier as objects and
    the maps over it as morphisms.  act_obj/act_mor reindex along
    f : V -> U by pulling back along the lifted map; push_obj (dependent
    sum) and norm_obj (dependent product) are its left and right adjoints.
    compose_witness is the coherence iso X(g)(X(f)(a)) -> X(fg)(a) and
    sum_obj glues a pair over U and V into one object over U+V.  With
    K = 0 every fiber is one object and one morphism: the terminal instance.
    """

    def __init__(self, at: Optional[GSet] = None):
        self.at = at
        self.name = ("slices" if at is None else "terminal" if at.size == 0
                     else f"hom-into-K[{at.size}]")

    def carrier(self, u: GSet) -> GSet:
        if self.at is None:
            return u
        return product(u, self.at).gset

    def lift(self, f: GMap) -> GMap:
        if self.at is None:
            return f
        return product_gmap(product(f.dom, self.at), product(f.cod, self.at),
                            f, identity_gmap(self.at))

    def act_obj(self, f: GMap, x: SliceObject) -> SliceObject:
        return delta(self.lift(f), x)

    def act_mor(self, f: GMap, a: SliceObject, b: SliceObject, m: GMap) -> GMap:
        lf = self.lift(f)
        da = pullback(a.arrow, lf)
        return pullback(b.arrow, lf).mediator(compose_gmaps(m, da.proj1), da.proj2)

    def push_obj(self, f: GMap, x: SliceObject) -> SliceObject:
        return sigma(self.lift(f), x)

    def norm_obj(self, f: GMap, x: SliceObject) -> SliceObject:
        return pi_slice(self.lift(f), x)

    def compose_witness(self, f: GMap, g: GMap, a: SliceObject) -> GMap:
        """Iso  X(g)(X(f)(a)) -> X(fg)(a)  by flattening nested pullback pairs."""
        lf, lg = self.lift(f), self.lift(g)
        d1 = pullback(a.arrow, lf)
        d2 = pullback(d1.proj2, lg)
        d12 = pullback(a.arrow, compose_gmaps(lf, lg))
        return d12.mediator(compose_gmaps(d1.proj1, d2.proj1), d2.proj2)

    def sum_obj(self, cop: CoproductDiagram, a: SliceObject, b: SliceObject) -> SliceObject:
        return SliceObject(coproduct(a.total, b.total).cotuple(
            compose_gmaps(self.lift(cop.inj1), a.arrow),
            compose_gmaps(self.lift(cop.inj2), b.arrow)))


def terminal_indexed(group: FiniteGroup) -> SliceIndexed:
    """The terminal indexed category: slices over - x 0, one object per fiber."""
    return SliceIndexed(at=initial_gset(group))


# ---------------------------------------------------------------------------
# completion objects
# ---------------------------------------------------------------------------

class CompletionObject(FrozenRecord):
    """A leg u : S -> U together with x in X(S)."""

    __slots__ = ("u", "x")

    def __init__(self, u: GMap, x: object):
        self._init(u, x)

    @property
    def base(self) -> GSet:
        return self.u.cod

    @property
    def stage(self) -> GSet:
        return self.u.dom


class CompletionMorphism(NamedTuple):
    """A morphism (u, x) -> (u', x'): a leg map w with u'.w = u and a fiber
    part xi : x -> X(w)(x').  Plain tuples are accepted interchangeably."""

    w: GMap
    xi: GMap


def completion_obj(xcat: SliceIndexed, u: GMap, x) -> CompletionObject:
    if not (isinstance(x, SliceObject) and x.base == xcat.carrier(u.dom)):
        raise InvalidStructure(f"object invalid in fiber over {u.dom.size}-point stage")
    return CompletionObject(u, x)


def reindex(xcat: SliceIndexed, r: GMap, o: CompletionObject) -> CompletionObject:
    """Pull a completion object over U back along r : V -> U."""
    if r.cod != o.base:
        raise BoundaryMismatch("reindex: map does not land in the object's base")
    pb = pullback(o.u, r)
    return CompletionObject(pb.proj2, xcat.act_obj(pb.proj1, o.x))


def pushforward(xcat: SliceIndexed, r: GMap, o: CompletionObject) -> CompletionObject:
    """Left adjoint to reindex: compose the leg."""
    if r.dom != o.base:
        raise BoundaryMismatch("pushforward: object is not over dom(r)")
    return CompletionObject(compose_gmaps(r, o.u), o.x)


# ---------------------------------------------------------------------------
# morphisms of the completion
# ---------------------------------------------------------------------------

def _hom_total_over_limit(construction: str, o: CompletionObject,
                          o2: CompletionObject) -> ResourceLimit:
    """The guard on a hom-set total o -> o2, tripped at the first morphism over MAX_MAPS."""
    limit = finact.MAX_MAPS
    return ResourceLimit(f"{construction} exceeds limit {limit}", construction,
                         {"dom": o.stage.size, "cod": o2.stage.size}, limit + 1, limit)


def completion_homs(xcat: SliceIndexed, o: CompletionObject,
                    o2: CompletionObject) -> list[CompletionMorphism]:
    """All morphisms (w, xi) from o to o2 in the coproduct completion."""
    if o.base != o2.base:
        raise BoundaryMismatch("completion_homs: different bases")
    out = []
    for w in equivariant_maps(o.stage, o2.stage, ((o.u, o2.u),)):
        xw = xcat.act_obj(w, o2.x)
        for xi in slice_homs(o.x, xw):
            out.append(CompletionMorphism(w, xi))
            if len(out) > finact.MAX_MAPS:
                raise _hom_total_over_limit("completion hom-set", o, o2)
    return out


def count_completion_homs(o: CompletionObject, o2: CompletionObject) -> int:
    """The number of morphisms o -> o2 of the coproduct completion of slices.

    The independent count of `completion_homs` for `SliceIndexed()`, none
    built and no guard.  By the pullback's universal property a morphism
    (w, xi : x -> X(w)(x')) is a pair (w, phi : X -> X') with u'.w = u and
    x'.phi = w.x.  Reading stabilizers and orbits off `point_images` only,
    as `poly.count_poly_morphisms` does, it multiplies, over the orbits of S
    at their least points s with H = G_s, the sum over the s' with
    u'(s') = u(s) and H <= G_s' of the product over the H-orbits of
    x^-1(s), at a point a, of #{a' over s' : G_a <= G_a'}: the choices of
    w(s), and of phi on each orbit of X over the orbit of s.  With identity
    legs it counts the slice maps x -> x'.
    """
    if o.base != o2.base:
        raise BoundaryMismatch("count_completion_homs: different bases")
    s_imgs, a_imgs, s2_imgs, a2_imgs = ([point_images(y, p) for p in y.points()]
                                        for y in (o.stage, o.x.total, o2.stage, o2.x.total))
    stab_s, stab_a, stab_s2, stab_a2 = (
        [frozenset(g for g, q in enumerate(i) if q == p) for p, i in enumerate(imgs)]
        for imgs in (s_imgs, a_imgs, s2_imgs, a2_imgs))
    total = 1
    for s, h in enumerate(stab_s):
        if s != min(s_imgs[s]):
            continue  # one factor per orbit of S, taken at its least point
        # one point per H-orbit of the fiber over s, its least
        reps = [a for a, xa in enumerate(o.x.arrow.table)
                if xa == s and a == min(a_imgs[a][g] for g in h)]
        ways = 0
        for s2, h2 in enumerate(stab_s2):
            if o2.u.table[s2] == o.u.table[s] and h <= h2:
                over = [stab_a2[a2] for a2, xa2 in enumerate(o2.x.arrow.table) if xa2 == s2]
                term = 1
                for a in reps:
                    term *= sum(1 for k2 in over if stab_a[a] <= k2)
                ways += term
        total *= ways
    return total


def _polynomial(o: CompletionObject) -> poly.Polynomial:
    """The polynomial 1 <- X -> S -> U of o = (u : S -> U, x : X -> S)."""
    return poly.polynomial(unique_to_terminal(o.x.total), o.x.arrow, o.u)


def hom_bijection_dual(o: CompletionObject, o2: CompletionObject, r: GMap) -> Report:
    """Mirror adjunction: pushing the leg is right adjoint to reindexing.

    o lives over V = dom(r), o2 over U = cod(r).  Dual morphisms from the
    reindexed o2 to o downstairs correspond to dual morphisms from o2 to
    the pushed o upstairs.  A dual morphism a -> b, (w, zeta), is the
    polynomial morphism P(b) -> P(a) with g = w and ell = zeta.
    """
    xcat = SliceIndexed()
    pushed, back = pushforward(xcat, r, o), reindex(xcat, r, o2)
    pb = pullback(o2.u, r)
    images = []
    for m in poly.enumerate_poly_morphisms(_polynomial(o), _polynomial(back)):
        coh = xcat.compose_witness(pb.proj1, m.g, o2.x)
        images.append(CompletionMorphism(compose_gmaps(pb.proj1, m.g),
                                          compose_gmaps(m.ell, invert_gmap(coh))))
        if len(images) > finact.MAX_MAPS:
            raise _hom_total_over_limit("dual hom-set", back, o)
    src, tgt = _polynomial(pushed), _polynomial(o2)
    try:
        for im in images:
            poly.poly_morphism(src, tgt, *im)
        lands = True
    except (BoundaryMismatch, InvalidStructure):
        lands = False
    return Report("hom-bijection-dual", _bijection_checks(
        poly.count_poly_morphisms(src, tgt), lands, images))


def hom_bijection_map(o: CompletionObject, o2: CompletionObject, r: GMap):
    """The adjunction correspondence on hom-sets, elementwise.

    o lives over V = dom(r), o2 over U = cod(r).  Returns (lhs, rhs, images)
    where lhs are the morphisms pushed-o -> o2 upstairs, rhs the morphisms
    o -> reindexed-o2 downstairs, and images the transport of each lhs
    element: the leg pairs into the pullback, the fiber part rides the
    coherence witness.
    """
    xcat = SliceIndexed()
    lhs = completion_homs(xcat, pushforward(xcat, r, o), o2)
    rhs = completion_homs(xcat, o, reindex(xcat, r, o2))
    pb = pullback(o2.u, r)
    images = []
    for (w, xi) in lhs:
        wt = pb.mediator(w, o.u)
        coh = xcat.compose_witness(pb.proj1, wt, o2.x)
        xi2 = compose_gmaps(invert_gmap(coh), xi)
        images.append(CompletionMorphism(wt, xi2))
    return lhs, rhs, images


def hom_bijection(o: CompletionObject, o2: CompletionObject, r: GMap) -> Report:
    """The adjunction bijection between hom-sets, exhibited and verified."""
    _, rhs, images = hom_bijection_map(o, o2, r)
    n, m = len(images), count_completion_homs(o, reindex(SliceIndexed(), r, o2))
    return Report("hom-bijection", _bijection_checks(m, set(images) <= set(rhs), images),
                  (f"hom sizes {n}={m}" if n == m else "size mismatch",))


def _bijection_checks(m: int, lands: bool, images: list) -> tuple[Check, ...]:
    """The transported images form a bijection onto the m morphisms of the
    target side: equal sizes, into the target, injective."""
    keys = {(im[0].table, im[1].table) for im in images}
    return (
        Check("counts", len(images) == m, f"{len(images)} vs {m}"),
        Check("lands-in-target", lands),
        Check("injective", len(keys) == len(images)),
    )


# ---------------------------------------------------------------------------
# Chevalley-Beck checks
# ---------------------------------------------------------------------------

def check_CB(xcat: SliceIndexed, f: GMap, g: GMap,
             samples: Sequence[CompletionObject]) -> Report:
    """Exchange of pushforward and reindexing across a pullback square.

    For the square of f : U -> W against g : V -> W, with apex the pairs
    (y, v), both composite routes from the completion over U to the
    completion over V are computed on each sample o = (u : S -> U, x).
    reindex . pushforward lives over the pairs (s, v) with f(u(s)) = g(v),
    pushforward . reindex over the pairs (s, (y, v)) with u(s) = y.  The
    check is that the canonical mate (w, xi) is an iso between them:
    w : (s, v) -> (s, (u(s), v)) is a bijection commuting with the legs,
    and xi, the inverse of the coherence iso of reindexing along w and then
    the projection to S, is a bijection from the first side's fiber object
    onto X(w) of the second's, commuting with their arrows.  A failing
    check's detail names the first of these conditions that fails.
    """
    if f.cod != g.cod:
        raise BoundaryMismatch("check_CB needs a cospan")
    pb = pullback(f, g)
    g_f, f_g = pb.proj1, pb.proj2
    checks = []
    for k, o in enumerate(samples):
        side1 = reindex(xcat, g, pushforward(xcat, f, o))
        side2 = pushforward(xcat, f_g, reindex(xcat, g_f, o))
        pb1, pb2 = pullback(compose_gmaps(f, o.u), g), pullback(o.u, g_f)
        w = pb2.mediator(pb1.proj1, pb.mediator(compose_gmaps(o.u, pb1.proj1), pb1.proj2))
        coh = xcat.compose_witness(pb2.proj1, w, o.x)
        xw = xcat.act_obj(w, side2.x)
        if not w.is_bijective():
            failed = "w is not bijective"
        elif compose_gmaps(side2.u, w).table != side1.u.table:
            failed = "w does not commute with the legs"
        elif not coh.is_bijective():
            failed = "the coherence iso is not bijective"
        elif (coh.cod, coh.dom) != (side1.x.total, xw.total):
            failed = "the coherence iso does not join the two fiber objects"
        elif compose_gmaps(xw.arrow, invert_gmap(coh)).table != side1.x.arrow.table:
            failed = "xi does not commute with the arrows"
        else:
            failed = ""
        checks.append(Check(f"mate[{k}]", not failed, failed))
    return Report(f"CB:{xcat.name}", tuple(checks),
                  (f"square {f.dom.size}->{f.cod.size}<-{g.dom.size}, apex {pb.gset.size}",))


def check_CB_fiber(xcat: SliceIndexed, f: GMap, g: GMap, samples: Sequence,
                   mode: str = "push") -> Report:
    """Fiber-level exchange isos across a pullback square.

    mode 'push': X(g) . push(f)  ~  push(f_g) . X(g_f)   on X(U)-samples;
    mode 'norm': X(g) . norm(f)  ~  norm(f_g) . X(g_f)   (the dual mates).
    """
    pb = pullback(f, g)
    g_f, f_g = pb.proj1, pb.proj2
    one = xcat.push_obj if mode == "push" else xcat.norm_obj
    checks = []
    for k, x in enumerate(samples):
        side1 = xcat.act_obj(g, one(f, x))
        side2 = one(f_g, xcat.act_obj(g_f, x))
        ok = slice_iso(side1, side2) is not None
        checks.append(Check(f"{mode}-mate[{k}]", ok, "" if ok else "fiber iso missing"))
    return Report(f"CB-fiber-{mode}:{xcat.name}", tuple(checks))


# ---------------------------------------------------------------------------
# finite coproducts inside a fiber, via codiagonals
# ---------------------------------------------------------------------------

def _count_homs(a: SliceObject, b: SliceObject) -> int:
    """The number of fiber maps a -> b, none of them built: the completion
    hom-set of (1_V, a) and (1_V, b) over their common base V."""
    return count_completion_homs(CompletionObject(identity_gmap(a.base), a),
                                 CompletionObject(identity_gmap(b.base), b))


def fiber_coproduct(xcat: SliceIndexed, u: GSet, x, y):
    """Binary coproduct of two fiber objects, pushed along the codiagonal."""
    cop, nabla = codiagonal(u)
    return xcat.push_obj(nabla, xcat.sum_obj(cop, x, y))


def check_fiber_coproduct(xcat: SliceIndexed, u: GSet, x, y,
                          targets: Sequence) -> Report:
    """Probe the coproduct universality of fiber_coproduct against targets.

    Morphisms out of the glued object must correspond bijectively to pairs
    of morphisms out of the two pieces; injections must exist.  Each count
    is read off `count_completion_homs`; no map is built.
    """
    z = fiber_coproduct(xcat, u, x, y)
    checks = []
    for k, w in enumerate(targets):
        out = _count_homs(z, w)
        target = _count_homs(x, w) * _count_homs(y, w)
        checks.append(Check(f"universality[{k}]", out == target,
                            "" if out == target else f"{out} maps out vs {target} pairs"))
    inj = _count_homs(x, z) >= 1 and _count_homs(y, z) >= 1
    checks.append(Check("injections-exist", inj))
    return Report(f"fiber-coproduct:{xcat.name}", tuple(checks))


# ---------------------------------------------------------------------------
# extension to spans
# ---------------------------------------------------------------------------

def span_action(xcat: SliceIndexed, p: Span, x: SliceObject) -> SliceObject:
    """The span U <- S -> V acting on x over V: reindex along the right leg,
    then push along the left one."""
    return xcat.push_obj(p.left, xcat.act_obj(p.right, x))


def extend_to_spans(xcat: SliceIndexed, p: Span,
                    probe_squares: Sequence[tuple[GMap, GMap]] = (),
                    probe_objects: Sequence = ()) -> Callable[[SliceObject], SliceObject]:
    """Span action of an indexed category, gated on sampled cocompleteness probes.

    The first failed probe raises ProbeFailure naming it.
    """
    for (f, g) in probe_squares:
        rep = check_CB_fiber(xcat, f, g, probe_objects, mode="push")
        if not rep.passed:
            failed = rep.failures()[0]
            probe = f"{rep.title}/{failed.name}"
            raise ProbeFailure(f"cocompleteness probe {probe} failed ({failed.detail}); "
                               f"cannot extend to spans", probe)
    return partial(span_action, xcat, p)


def check_extension_composition(xcat: SliceIndexed, p: Span, q: Span,
                                probes: Sequence) -> Report:
    """Composition preservation of the span action on probe objects."""
    pq = compose_spans(p, q)
    checks = []
    for k, x in enumerate(probes):
        a = span_action(xcat, pq, x)
        b = span_action(xcat, p, span_action(xcat, q, x))
        ok = slice_iso(a, b) is not None
        checks.append(Check(f"probe[{k}]", ok, "" if ok else "composite action differs"))
    return Report(f"span-extension:{xcat.name}", tuple(checks))


# ---------------------------------------------------------------------------
# biproduct preservation
# ---------------------------------------------------------------------------

def check_biproduct_preservation(xcat: SliceIndexed, u: GSet, v: GSet,
                                 sample_pairs: Sequence[tuple]) -> Report:
    """Probe the comparison X(U+V) -> X(U) x X(V) on sample object pairs.

    Essential surjectivity: each pair is hit, up to fiber iso, by the glued
    object.  Fullness and faithfulness: homs out of glued objects biject
    with pairs of homs between the restrictions, counted by
    `count_completion_homs`.
    """
    cop = coproduct(u, v)
    checks = []
    glued = []
    for k, (a, b) in enumerate(sample_pairs):
        z = xcat.sum_obj(cop, a, b)
        za = xcat.act_obj(cop.inj1, z)
        zb = xcat.act_obj(cop.inj2, z)
        glued.append((z, za, zb))
        ok = (slice_iso(za, a) is not None and slice_iso(zb, b) is not None)
        checks.append(Check(f"ess-surj[{k}]", ok,
                            "" if ok else "restrictions do not recover the pair"))
    for i, (z, za, zb) in enumerate(glued):
        for j, (z2, za2, zb2) in enumerate(glued):
            homs = list(slice_homs(z, z2))
            target = _count_homs(za, za2) * _count_homs(zb, zb2)
            imgs = {(xcat.act_mor(cop.inj1, z, z2, h).table,
                     xcat.act_mor(cop.inj2, z, z2, h).table) for h in homs}
            ok = len(homs) == target and len(imgs) == len(homs)
            checks.append(Check(f"full-faithful[{i},{j}]", ok,
                                "" if ok else f"{len(homs)} homs vs {target} pairs"))
    return Report(f"biproducts:{xcat.name}", tuple(checks))
