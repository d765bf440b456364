"""Commutative-semiring-style evaluation of polynomials.

A functor here carries three generator families, each along any map:
restriction, additive transfer, and multiplicative norm.  A polynomial
X <-r- A -n-> B -t-> Y evaluates elementwise as restriction, then norm,
then transfer; that order is fixed by the polynomial's shape, and
alternative factorizations must be normalized by polynomial composition
first.

The slice-class instance manipulates canonical slice representatives rather
than vectors because the norm is not additive; equality of values is
equality of canonical forms.  Its restriction and transfer act orbit by
orbit, each orbit an atom, by the double-coset formula of
`mackey.restrict_atom` and by moving the atom's point, and rebuild the
canonical slice from the resulting labels once; restriction keeps the size
guard of the pullback it replaces.  The norm is still the dependent product
`pi_slice`.  The semiring instance reads only map tables, so it works on
the points of a G-set over any group, and it must agree exactly with the
independent sum-of-products oracle.
"""
from __future__ import annotations

from typing import Sequence

from .errors import BoundaryMismatch
from .finact import (
    CoproductDiagram,
    GMap,
    GSet,
    check_points,
    coproduct,
    orbit_cosets,
    pi_slice,
    point_images,
    slice_canonical_form,
    slice_sum,
)
from .groups import FiniteGroup
from .mackey import atom_label, canonical_slice, restrict_atom, slice_of_atoms
from .poly import Polynomial, compose_poly, distribute, eval_semiring
from .report import Check, Report
from .semirings import CommSemiring


class TambaraFunctor:
    """Interface: elementwise res / tr / norm; values compare with ==."""

    name: str = "abstract"

    def res(self, f: GMap, v):
        """value(cod f) -> value(dom f)."""
        raise NotImplementedError

    def tr(self, u: GMap, v):
        """value(dom u) -> value(cod u), additive."""
        raise NotImplementedError

    def norm(self, n: GMap, v):
        """value(dom n) -> value(cod n), multiplicative."""
        raise NotImplementedError

    def describe(self, v) -> str:
        return repr(v)

    def glue(self, cop: CoproductDiagram, vx, vy):
        """The element over X+Y restricting to the given pair."""
        raise NotImplementedError


class BurnsideTambara(TambaraFunctor):
    """Slice iso-classes with transfer, restriction, and norm from the three adjoints."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.name = f"burnside-tambara[{group.name}]"

    def res(self, f, v):
        """Restrict each orbit of v as an atom, by `restrict_atom`."""
        if v.base != f.cod:
            raise BoundaryMismatch("res: slice is not over the codomain of f")
        group, arrow = f.group, v.arrow.table
        labels = [lab for o in orbit_cosets(v.total)
                  for lab in restrict_atom(f, (o.stab, arrow[o.rep]))]
        check_points(sum(group.order // len(k) for k, _ in labels))
        return slice_of_atoms(f.dom, labels)

    def tr(self, u, v):
        """Move each orbit's atom along u: G/H -> x becomes G/H -> u(x)."""
        if v.base != u.dom:
            raise BoundaryMismatch("tr: slice is not over the domain of u")
        group, arrow = u.group, v.arrow.table
        return slice_of_atoms(u.cod, [
            atom_label(group, o.stab, point_images(u.cod, u.table[arrow[o.rep]]))
            for o in orbit_cosets(v.total)])

    def norm(self, n, v):
        return canonical_slice(pi_slice(n, v))

    def describe(self, v):
        return slice_canonical_form(v)

    def glue(self, cop, vx, vy):
        return canonical_slice(slice_sum(cop, vx, vy))


class SemiringTambara(TambaraFunctor):
    """A value at each point, with sums and products over fibers, over any group.

    Forgetting the action preserves pullbacks, sums and dependent products,
    so the laws hold pointwise; on values constant on orbits this is the
    fixed-point functor of the semiring.
    """

    def __init__(self, sr: CommSemiring):
        self.sr = sr
        self.name = f"semiring:{sr.name}"

    def res(self, f, v):
        return tuple(v[f.table[a]] for a in range(f.dom.size))

    def tr(self, u, v):
        return tuple(self.sr.sum(v[a] for a in range(u.dom.size) if u.table[a] == b)
                     for b in range(u.cod.size))

    def norm(self, n, v):
        return tuple(self.sr.prod(v[a] for a in range(n.dom.size) if n.table[a] == b)
                     for b in range(n.cod.size))

    def glue(self, cop, vx, vy):
        return tuple(vx) + tuple(vy)


def eval_poly(t: TambaraFunctor, p: Polynomial, v):
    """tr(t) . norm(n) . res(r) applied to one element."""
    return t.tr(p.t, t.norm(p.n, t.res(p.r, v)))


def check_tambara_functoriality(t: TambaraFunctor, p: Polynomial, q: Polynomial,
                                probes: Sequence) -> Report:
    """Evaluation of the composed polynomial must match composed evaluations."""
    comp, _ = compose_poly(p, q)
    checks = []
    for k, v in enumerate(probes):
        lhs = eval_poly(t, comp, v)
        rhs = eval_poly(t, q, eval_poly(t, p, v))
        ok = lhs == rhs
        checks.append(Check(f"probe[{k}]", ok,
                            "" if ok else f"{t.describe(lhs)} != {t.describe(rhs)}"))
    return Report(f"tambara-functoriality:{t.name}", tuple(checks))


def check_norm_of_sum(t: TambaraFunctor, u: GMap, a: GMap, probes: Sequence) -> Report:
    """The distributive law, elementwise.

    norm(u) . tr(a) must agree with tr(pia) . norm(ubar) . res(e), with the
    exchange data produced by the dependent-product construction; over the
    naturals this is the expansion of a product of sums into a sum of
    products of choices.
    """
    (pia, ubar, e), _ = distribute(u, a)
    checks = []
    for k, v in enumerate(probes):
        lhs = t.norm(u, t.tr(a, v))
        rhs = t.tr(pia, t.norm(ubar, t.res(e, v)))
        ok = lhs == rhs
        checks.append(Check(f"probe[{k}]", ok,
                            "" if ok else f"{t.describe(lhs)} != {t.describe(rhs)}"))
    return Report(f"norm-of-sum:{t.name}", tuple(checks))


def check_fp_preservation(t: TambaraFunctor, x: GSet, y: GSet,
                          probe_pairs: Sequence[tuple]) -> Report:
    """value(X+Y) matches value(X) x value(Y) through restriction along injections."""
    cop = coproduct(x, y)
    checks = []
    for k, (vx, vy) in enumerate(probe_pairs):
        v = t.glue(cop, vx, vy)
        ok = t.res(cop.inj1, v) == vx and t.res(cop.inj2, v) == vy
        checks.append(Check(f"glue-split[{k}]", ok,
                            "" if ok else "restrictions do not recover the pair"))
    for k, (vx, vy) in enumerate(probe_pairs):
        v = t.glue(cop, vx, vy)
        w = t.glue(cop, t.res(cop.inj1, v), t.res(cop.inj2, v))
        checks.append(Check(f"split-glue[{k}]", v == w))
    return Report(f"fp-preservation:{t.name}", tuple(checks))


def check_semiring_matches_oracle(sr: CommSemiring, p: Polynomial,
                                  families: Sequence[tuple]) -> Report:
    """Interface consistency: the generic evaluator equals the direct formula."""
    t = SemiringTambara(sr)
    checks = []
    for k, fam in enumerate(families):
        lhs = eval_poly(t, p, tuple(fam))
        rhs = eval_semiring(p, tuple(fam), sr)
        checks.append(Check(f"family[{k}]", lhs == rhs,
                            "" if lhs == rhs else f"{lhs} != {rhs}"))
    return Report(f"oracle-consistency:{sr.name}", tuple(checks))
