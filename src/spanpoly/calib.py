"""Morphism classes as checkable predicates, plus finite-category fibration tests.

A morphism class is certified on finite sample families only; the axioms
quantify over the whole category, so a report records the samples it
inspected and never claims more.  The groupoid-(op)fibration condition is
vacuous over a plain category of G-sets (every morphism qualifies), so the
structural checker for it operates on explicitly presented finite
categories instead.
"""
from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .errors import BoundaryMismatch, ClassViolation, InvalidStructure
from .finact import (
    GMap,
    GSet,
    SliceObject,
    compose_gmaps,
    coproduct,
    delta,
    identity_gmap,
    pi_slice,
    product,
    product_gmap,
    pullback,
    relabel_gset,
    slice_iso,
    sum_gmap,
)
from .record import FrozenRecord, Record
from .report import Check, Report


# ---------------------------------------------------------------------------
# morphism classes
# ---------------------------------------------------------------------------

class MorphismClass(FrozenRecord, uncompared=("predicate",)):
    """A named, deterministic predicate on equivariant maps.

    closed_under_coproducts declares the strong closure the coproduct
    machinery needs: sums f+g of members, codiagonals, and initial maps
    0 -> U all belong to the class.
    """

    __slots__ = ("name", "predicate", "closed_under_coproducts")

    def __init__(self, name: str, predicate: Callable[[GMap], bool],
                 closed_under_coproducts: bool = False):
        self._init(name, predicate, closed_under_coproducts)

    def __call__(self, f: GMap) -> bool:
        return bool(self.predicate(f))

    def require(self, f: GMap, what: str = "map") -> None:
        if not self(f):
            raise ClassViolation(f"{what} fails class {self.name!r}")


ALL_MAPS = MorphismClass("all", lambda f: True, closed_under_coproducts=True)
INJECTIVE_MAPS = MorphismClass("injective", lambda f: f.is_injective())
SURJECTIVE_MAPS = MorphismClass("surjective", lambda f: f.is_surjective())
ISO_MAPS = MorphismClass("iso", lambda f: f.is_bijective())

BUILTIN_CLASSES = {c.name: c for c in (ALL_MAPS, INJECTIVE_MAPS, SURJECTIVE_MAPS, ISO_MAPS)}


def whitelist_class(name: str, maps: Sequence[GMap],
                    closed_under_coproducts: bool = False) -> MorphismClass:
    """A class given by a finite whitelist of map descriptors."""
    frozen = tuple(maps)
    return MorphismClass(name, lambda f: any(f == m for m in frozen),
                         closed_under_coproducts=closed_under_coproducts)


# ---------------------------------------------------------------------------
# protocalibration / compatibility checkers
# ---------------------------------------------------------------------------

def _sample_isos(samples: Sequence[GMap]) -> list[GMap]:
    out = []
    seen: set[GMap] = set()
    for f in samples:
        for x in (f.dom, f.cod):
            if x.size and x not in seen:
                seen.add(x)
                out.append(identity_gmap(x))
                perm = tuple(range(1, x.size)) + (0,)
                # a cyclic relabel need not be equivariant; the relabel helper
                # builds an isomorphic copy so the shift map always is
                _, iso = relabel_gset(x, perm)
                out.append(iso)
    return out


def check_protocalibration(rclass: MorphismClass, samples: Sequence[GMap]) -> Report:
    """Sample-level verification of the class axioms.

    (I) sampled isomorphisms belong to the class and the class is stable
        under pre/post-composition with them;
    (C) composable sampled members compose into the class;
    (P) pulling a member back along any sampled map stays in the class.
    The opfibration condition holds for every map over a plain category of
    finite group actions and is recorded as automatic.
    """
    checks: list[Check] = []
    isos = _sample_isos(samples)
    for k, j in enumerate(isos):
        checks.append(Check(f"I/iso[{k}]", rclass(j),
                            "" if rclass(j) else f"iso on {j.dom.size} points rejected"))
    members = [f for f in samples if rclass(f)]
    for k, f in enumerate(members):
        for m, j in enumerate(isos):
            if j.cod == f.dom:
                g = compose_gmaps(f, j)
                checks.append(Check(f"I/closure[{k}.{m}]", rclass(g),
                                    "" if rclass(g) else "precomposition with iso leaves class"))
    for k, (f, g) in enumerate(itertools.product(members, members)):
        if f.cod == g.dom:
            h = compose_gmaps(g, f)
            checks.append(Check(
                f"C/compose[{k}]", rclass(h),
                "" if rclass(h)
                else f"composite of members ({f.dom.size}->{f.cod.size}->{g.cod.size}) rejected"))
    for k, f in enumerate(members):
        for m, g in enumerate(samples):
            if g.cod == f.cod:
                pb = pullback(f, g)
                checks.append(Check(
                    f"P/pullback[{k}.{m}]", rclass(pb.proj2),
                    "" if rclass(pb.proj2)
                    else f"pullback of member along sample map ({pb.apex.size} points) rejected"))
    notes = (f"samples: {len(samples)} maps, {len(isos)} isos",
             "G: automatic, every map over a one-dimensional base qualifies")
    return Report(f"protocalibration:{rclass.name}", tuple(checks), notes)


def check_compatible_pair(lclass: MorphismClass, rclass: MorphismClass,
                          samples: Sequence[GMap],
                          pi_samples: Sequence[tuple[GMap, GMap]]) -> Report:
    """Check the compatibility of a prospective (left, right) class pair.

    Inclusion of the left class in the right class is tested on the plain
    samples; every finite equivariant map is exponentiable, so membership in
    the powerful maps is automatic.  Each pi_sample (r, v) with r a left-class
    map and v a map into dom(r) probes that the dependent product of a
    right-class map along a left-class map lands back in the right class.
    """
    checks: list[Check] = []
    for k, f in enumerate(samples):
        if lclass(f):
            ok = rclass(f)
            checks.append(Check(f"subset[{k}]", ok,
                                "" if ok else
                                f"map ({f.dom.size}->{f.cod.size}) in {lclass.name} "
                                f"but not in {rclass.name}"))
    for k, (r, v) in enumerate(pi_samples):
        if not lclass(r) or not rclass(v):
            continue
        if v.cod != r.dom:
            raise BoundaryMismatch("pi_sample map does not land in dom(r)")
        p = pi_slice(r, SliceObject(v))
        ok = rclass(p.arrow)
        checks.append(Check(f"pi[{k}]", ok,
                            "" if ok else
                            f"dependent product along left-class map leaves {rclass.name} "
                            f"({p.size} sections over {p.base.size})"))
    notes = ("left class inside powerful maps: automatic, all finite maps are exponentiable",)
    return Report(f"compatible:{lclass.name},{rclass.name}", tuple(checks), notes)


def check_product_closure(rclass: MorphismClass, f: GMap, f2: GMap) -> bool:
    """Whether f x f' stays in the class (a consistency alarm if not)."""
    rclass.require(f, "first factor")
    rclass.require(f2, "second factor")
    pd = product(f.dom, f2.dom)
    pc = product(f.cod, f2.cod)
    return rclass(product_gmap(pd, pc, f, f2))


def check_coproduct_closure(rclass: MorphismClass, f: GMap, f2: GMap) -> bool:
    cd = coproduct(f.dom, f2.dom)
    cc = coproduct(f.cod, f2.cod)
    return rclass(sum_gmap(cd, cc, f, f2))


# ---------------------------------------------------------------------------
# extensivity comparison
# ---------------------------------------------------------------------------

def extensivity_comparison(rclass: MorphismClass, u: GSet, v: GSet,
                           w: SliceObject) -> tuple[SliceObject, SliceObject]:
    """Split a slice over U+V into its restrictions over U and over V."""
    cop = coproduct(u, v)
    if w.base != cop.sum:
        raise BoundaryMismatch("slice is not over the constructed coproduct U+V")
    return delta(cop.inj1, w), delta(cop.inj2, w)


def inverse_sum(rclass: MorphismClass, a: SliceObject, b: SliceObject) -> SliceObject:
    """Reassemble slices over U and V into the slice a+b over U+V."""
    cd = coproduct(a.total, b.total)
    cc = coproduct(a.base, b.base)
    arrow = sum_gmap(cd, cc, a.arrow, b.arrow)
    if rclass.closed_under_coproducts and rclass(a.arrow) and rclass(b.arrow):
        if not rclass(arrow):
            raise ClassViolation(
                f"class {rclass.name} declared coproduct-closed but rejects a sum")
    return SliceObject(arrow)


def check_extensivity_roundtrip(rclass: MorphismClass, u: GSet, v: GSet,
                                w: SliceObject) -> Report:
    a, b = extensivity_comparison(rclass, u, v, w)
    back = inverse_sum(rclass, a, b)
    iso1 = slice_iso(back, w)
    checks = [Check("roundtrip/sum-of-parts", iso1 is not None,
                    "" if iso1 else "no slice iso back to the original")]
    a2, b2 = extensivity_comparison(rclass, u, v, back)
    iso2 = slice_iso(a2, a)
    iso3 = slice_iso(b2, b)
    checks.append(Check("roundtrip/parts-of-sum", iso2 is not None and iso3 is not None,
                        "" if (iso2 and iso3) else "components drift under the round trip"))
    return Report("extensivity", tuple(checks))


# ---------------------------------------------------------------------------
# finite categories and groupoid fibrations
# ---------------------------------------------------------------------------

class FiniteCategory(Record):
    """A small category with explicitly tabulated composition.

    Arrows are global names; hom(a, b) lists the arrow names from a to b and
    comp[(g, f)] names the composite g after f.
    """

    __slots__ = ("name", "objects", "arrows", "comp", "ids")

    def __init__(self, name: str, objects: tuple[str, ...],
                 arrows: dict[str, tuple[str, str]],   # arrow -> (dom, cod)
                 comp: dict[tuple[str, str], str],     # (g, f) -> g.f
                 ids: dict[str, str]):                 # object -> identity arrow
        self.name, self.objects, self.arrows, self.comp, self.ids = (
            name, objects, arrows, comp, ids)

    def hom(self, a: str, b: str) -> list[str]:
        return sorted(n for n, (d, c) in self.arrows.items() if d == a and c == b)

    def dom(self, f: str) -> str:
        return self.arrows[f][0]

    def cod(self, f: str) -> str:
        return self.arrows[f][1]

    def compose(self, g: str, f: str) -> str:
        return self.comp[(g, f)]

    def is_iso(self, f: str) -> bool:
        a, b = self.arrows[f]
        return any(self.compose(g, f) == self.ids[a] and self.compose(f, g) == self.ids[b]
                   for g in self.hom(b, a))

    def validate(self) -> None:
        for obj, i in self.ids.items():
            if self.arrows[i] != (obj, obj):
                raise InvalidStructure(f"identity of {obj} has wrong boundary")
        for f, (a, b) in self.arrows.items():
            if self.compose(f, self.ids[a]) != f or self.compose(self.ids[b], f) != f:
                raise InvalidStructure(f"identity law fails at {f}")
        for f, (a, b) in self.arrows.items():
            for g, (b2, c) in self.arrows.items():
                if b2 != b:
                    continue
                gf = self.compose(g, f)
                if self.arrows[gf] != (a, c):
                    raise InvalidStructure(f"composite {g}.{f} has wrong boundary")
                for h, (c2, _) in self.arrows.items():
                    if c2 != c:
                        continue
                    if self.compose(h, gf) != self.compose(self.compose(h, g), f):
                        raise InvalidStructure(f"associativity fails at {h}.{g}.{f}")

    def op(self) -> "FiniteCategory":
        arrows = {n: (c, d) for n, (d, c) in self.arrows.items()}
        comp = {(f, g): h for (g, f), h in self.comp.items()}
        return FiniteCategory(self.name + "^op", self.objects, arrows, comp, dict(self.ids))


class FunctorData(Record):
    """A functor between explicitly tabulated finite categories."""

    __slots__ = ("dom", "cod", "obj_map", "arr_map")

    def __init__(self, dom: FiniteCategory, cod: FiniteCategory,
                 obj_map: dict[str, str], arr_map: dict[str, str]):
        self.dom, self.cod, self.obj_map, self.arr_map = dom, cod, obj_map, arr_map

    def validate(self) -> None:
        for obj, i in self.dom.ids.items():
            if self.arr_map[i] != self.cod.ids[self.obj_map[obj]]:
                raise InvalidStructure(f"functor breaks identity of {obj}")
        for f, (a, b) in self.dom.arrows.items():
            fa, fb = self.cod.arrows[self.arr_map[f]]
            if (fa, fb) != (self.obj_map[a], self.obj_map[b]):
                raise InvalidStructure(f"functor breaks boundary of {f}")
            for g, (b2, _) in self.dom.arrows.items():
                if b2 != b:
                    continue
                if self.arr_map[self.dom.compose(g, f)] != \
                        self.cod.compose(self.arr_map[g], self.arr_map[f]):
                    raise InvalidStructure(f"functor breaks composite {g}.{f}")

    def op(self) -> "FunctorData":
        return FunctorData(self.dom.op(), self.cod.op(), dict(self.obj_map), dict(self.arr_map))


def is_cartesian(p: FunctorData, kappa: str) -> bool:
    """Whether the hom-set square of kappa is a pullback for every test object."""
    e, b = p.dom, p.cod
    z, x = e.arrows[kappa]
    for k in e.objects:
        pairs = {}
        for alpha in e.hom(k, x):
            for beta in b.hom(p.obj_map[k], p.obj_map[z]):
                if b.compose(p.arr_map[kappa], beta) == p.arr_map[alpha]:
                    pairs.setdefault((alpha, beta), 0)
        hits: dict[tuple[str, str], int] = {key: 0 for key in pairs}
        for gamma in e.hom(k, z):
            key = (e.compose(kappa, gamma), p.arr_map[gamma])
            if key not in hits:
                return False
            hits[key] += 1
        if any(n != 1 for n in hits.values()):
            return False
    return True


def is_groupoid_fibration(p: FunctorData) -> bool:
    """Every morphism cartesian, and every map into a p-image lifts up to iso."""
    e, b = p.dom, p.cod
    if not all(is_cartesian(p, kappa) for kappa in e.arrows):
        return False
    for x in e.objects:
        px = p.obj_map[x]
        for bb in b.objects:
            for phi in b.hom(bb, px):
                found = False
                for kappa, (z, x2) in e.arrows.items():
                    if x2 != x:
                        continue
                    for j in b.hom(bb, p.obj_map[z]):
                        if b.is_iso(j) and b.compose(p.arr_map[kappa], j) == phi:
                            found = True
                            break
                    if found:
                        break
                if not found:
                    return False
    return True


def is_groupoid_opfibration(p: FunctorData) -> bool:
    return is_groupoid_fibration(p.op())


# small builtin categories for tests and demos

def terminal_category() -> FiniteCategory:
    c = FiniteCategory("1", ("*",), {"id*": ("*", "*")}, {("id*", "id*"): "id*"},
                       {"*": "id*"})
    c.validate()
    return c


def interval_category() -> FiniteCategory:
    arrows = {"id0": ("0", "0"), "id1": ("1", "1"), "a": ("0", "1")}
    comp = {("id0", "id0"): "id0", ("id1", "id1"): "id1",
            ("a", "id0"): "a", ("id1", "a"): "a"}
    c = FiniteCategory("2", ("0", "1"), arrows, comp, {"0": "id0", "1": "id1"})
    c.validate()
    return c


def discrete_category(n: int) -> FiniteCategory:
    objs = tuple(str(i) for i in range(n))
    arrows = {f"id{i}": (str(i), str(i)) for i in range(n)}
    comp = {(f"id{i}", f"id{i}"): f"id{i}" for i in range(n)}
    c = FiniteCategory(f"disc{n}", objs, arrows, comp,
                       {str(i): f"id{i}" for i in range(n)})
    c.validate()
    return c


def constant_functor(dom: FiniteCategory, cod: FiniteCategory, obj: str) -> FunctorData:
    f = FunctorData(dom, cod,
                    {a: obj for a in dom.objects},
                    {n: cod.ids[obj] for n in dom.arrows})
    f.validate()
    return f


def identity_functor(c: FiniteCategory) -> FunctorData:
    f = FunctorData(c, c, {a: a for a in c.objects}, {n: n for n in c.arrows})
    f.validate()
    return f
