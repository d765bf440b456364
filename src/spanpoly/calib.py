"""Morphism classes as checkable predicates, and their closure checks.

A morphism class is certified on finite sample families only; the axioms
quantify over the whole category, so a report records the samples it
inspected and never claims more.  The groupoid-(op)fibration condition is
vacuous over a plain category of G-sets (every morphism qualifies), so a
protocalibration report records it as automatic.
"""
from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .errors import BoundaryMismatch, ClassViolation
from .finact import (
    GMap,
    SliceObject,
    compose_gmaps,
    identity_gmap,
    pi_slice,
    product,
    product_gmap,
    pullback,
    relabel_gset,
)
from .record import FrozenRecord
from .report import Check, Report


# ---------------------------------------------------------------------------
# morphism classes
# ---------------------------------------------------------------------------

class MorphismClass(FrozenRecord, uncompared=("predicate",)):
    """A named, deterministic predicate on equivariant maps."""

    __slots__ = ("name", "predicate")

    def __init__(self, name: str, predicate: Callable[[GMap], bool]):
        self._init(name, predicate)

    def __call__(self, f: GMap) -> bool:
        return bool(self.predicate(f))

    def require(self, f: GMap, what: str = "map") -> None:
        if not self(f):
            raise ClassViolation(f"{what} fails class {self.name!r}")


ALL_MAPS = MorphismClass("all", lambda f: True)
INJECTIVE_MAPS = MorphismClass("injective", lambda f: f.is_injective())
SURJECTIVE_MAPS = MorphismClass("surjective", lambda f: f.is_surjective())
ISO_MAPS = MorphismClass("iso", lambda f: f.is_bijective())

BUILTIN_CLASSES = {c.name: c for c in (ALL_MAPS, INJECTIVE_MAPS, SURJECTIVE_MAPS, ISO_MAPS)}


def whitelist_class(name: str, maps: Sequence[GMap]) -> MorphismClass:
    """A class given by a finite whitelist of map descriptors."""
    frozen = tuple(maps)
    return MorphismClass(name, lambda f: any(f == m for m in frozen))


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
                    else f"pullback of member along sample map ({pb.gset.size} points) rejected"))
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
