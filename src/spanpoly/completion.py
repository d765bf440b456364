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
"""
from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from . import finact
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
    product,
    product_gmap,
    pullback,
    sigma,
    slice_homs,
    slice_iso,
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


def completion_homs_dual(xcat: SliceIndexed, o: CompletionObject,
                         o2: CompletionObject) -> list[CompletionMorphism]:
    """Morphisms o -> o2 of the product completion: legs point backwards.

    A morphism is (w : S2 -> S1 with u1.w = u2, zeta : X(w)(x1) -> x2).
    """
    if o.base != o2.base:
        raise BoundaryMismatch("completion_homs_dual: different bases")
    out = []
    for w in equivariant_maps(o2.stage, o.stage, ((o2.u, o.u),)):
        xw = xcat.act_obj(w, o.x)
        for zeta in slice_homs(xw, o2.x):
            out.append(CompletionMorphism(w, zeta))
            if len(out) > finact.MAX_MAPS:
                raise _hom_total_over_limit("dual hom-set", o, o2)
    return out


def hom_bijection_dual(xcat: SliceIndexed, o: CompletionObject,
                       o2: CompletionObject, r: GMap) -> Report:
    """Mirror adjunction: pushing the leg is right adjoint to reindexing.

    o lives over V = dom(r), o2 over U = cod(r).  Dual morphisms from the
    reindexed o2 to o downstairs correspond to dual morphisms from o2 to
    the pushed o upstairs.
    """
    pushed = pushforward(xcat, r, o)
    back = reindex(xcat, r, o2)
    lhs = completion_homs_dual(xcat, back, o)
    rhs = completion_homs_dual(xcat, o2, pushed)
    pb = pullback(o2.u, r)
    images = []
    for (wt, zeta) in lhs:
        w = compose_gmaps(pb.proj1, wt)
        coh = xcat.compose_witness(pb.proj1, wt, o2.x)
        coh_inv = invert_gmap(coh)
        zeta2 = compose_gmaps(zeta, coh_inv)
        images.append(CompletionMorphism(w, zeta2))
    return Report("hom-bijection-dual", _bijection_checks(lhs, rhs, images))


def hom_bijection_map(xcat: SliceIndexed, o: CompletionObject,
                      o2: CompletionObject, r: GMap):
    """The adjunction correspondence on hom-sets, elementwise.

    o lives over V = dom(r), o2 over U = cod(r).  Returns (lhs, rhs, images)
    where lhs are the morphisms pushed-o -> o2 upstairs, rhs the morphisms
    o -> reindexed-o2 downstairs, and images the transport of each lhs
    element: the leg pairs into the pullback, the fiber part rides the
    coherence witness.
    """
    pushed = pushforward(xcat, r, o)
    lhs = completion_homs(xcat, pushed, o2)
    back = reindex(xcat, r, o2)
    rhs = completion_homs(xcat, o, back)
    pb = pullback(o2.u, r)
    images = []
    for (w, xi) in lhs:
        wt = pb.mediator(w, o.u)
        coh = xcat.compose_witness(pb.proj1, wt, o2.x)
        xi2 = compose_gmaps(invert_gmap(coh), xi)
        images.append(CompletionMorphism(wt, xi2))
    return lhs, rhs, images


def hom_bijection(xcat: SliceIndexed, o: CompletionObject,
                  o2: CompletionObject, r: GMap) -> Report:
    """The adjunction bijection between hom-sets, exhibited and verified."""
    lhs, rhs, images = hom_bijection_map(xcat, o, o2, r)
    return Report("hom-bijection", _bijection_checks(lhs, rhs, images),
                  (f"hom sizes {len(lhs)}={len(rhs)}" if len(lhs) == len(rhs)
                   else "size mismatch",))


def _bijection_checks(lhs: list, rhs: list, images: list) -> tuple[Check, ...]:
    """The transported images form a bijection lhs -> rhs: equal sizes, into rhs, injective."""
    keys = {(im[0].table, im[1].table) for im in images}
    return (
        Check("counts", len(lhs) == len(rhs), f"{len(lhs)} vs {len(rhs)}"),
        Check("lands-in-target", all(any(im == rh for rh in rhs) for im in images)),
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

def fiber_coproduct(xcat: SliceIndexed, u: GSet, x, y):
    """Binary coproduct of two fiber objects, pushed along the codiagonal."""
    cop, nabla = codiagonal(u)
    return xcat.push_obj(nabla, xcat.sum_obj(cop, x, y))


def check_fiber_coproduct(xcat: SliceIndexed, u: GSet, x, y,
                          targets: Sequence) -> Report:
    """Probe the coproduct universality of fiber_coproduct against targets.

    Morphisms out of the glued object must correspond bijectively to pairs
    of morphisms out of the two pieces; injections must exist.
    """
    z = fiber_coproduct(xcat, u, x, y)
    checks = []
    for k, w in enumerate(targets):
        homs = list(slice_homs(z, w))
        target = len(list(slice_homs(x, w))) * len(list(slice_homs(y, w)))
        checks.append(Check(f"universality[{k}]", len(homs) == target,
                            "" if len(homs) == target
                            else f"{len(homs)} maps out vs {target} pairs"))
    inj = len(list(slice_homs(x, z))) >= 1 and len(list(slice_homs(y, z))) >= 1
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
    with pairs of homs between the restrictions.
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
            target = len(list(slice_homs(za, za2))) * len(list(slice_homs(zb, zb2)))
            imgs = {(xcat.act_mor(cop.inj1, z, z2, h).table,
                     xcat.act_mor(cop.inj2, z, z2, h).table) for h in homs}
            ok = len(homs) == target and len(imgs) == len(homs)
            checks.append(Check(f"full-faithful[{i},{j}]", ok,
                                "" if ok else f"{len(homs)} homs vs {target} pairs"))
    return Report(f"biproducts:{xcat.name}", tuple(checks))
