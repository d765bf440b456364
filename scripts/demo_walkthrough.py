#!/usr/bin/env python3
"""End-to-end tour on the two-element group: limits, sections, spans,
polynomials, Burnside arithmetic, and functor evaluation.

Every number printed here is recomputed from scratch each run; nothing is
hard-coded.
"""
from spanpoly import (
    BOOLEANS,
    NATURALS,
    BurnsideMackey,
    BurnsideTambara,
    FixedPointMackey,
    SemiringTambara,
    Span,
    burnside_table,
    canonical_form,
    canonical_slice,
    compose_poly,
    compose_spans,
    coproduct,
    cyclic_group,
    distribute,
    eval_poly,
    eval_semiring,
    eval_span,
    identity_gmap,
    polynomial,
    pullback,
    regular_gset,
    span_canonical_form,
    terminal_gset,
    trivial_group,
)
from spanpoly.finact import SliceObject, slice_identity, unique_to_terminal
from spanpoly.groups import symmetric_group
from spanpoly.mackey import atoms


def main() -> None:
    c2 = cyclic_group(2)
    free = regular_gset(c2)
    pt = terminal_gset(c2)
    u = unique_to_terminal(free)

    print("== pullback of the free projection against itself")
    pb = pullback(u, u)
    print(f"   apex has {pb.gset.size} points: {canonical_form(pb.gset)}")

    print("== sections of the doubled free orbit (the exchange data)")
    cop = coproduct(free, free)
    fold = cop.cotuple(identity_gmap(free), identity_gmap(free))
    (pia, _, _), report = distribute(u, fold, probes=[slice_identity(cop.sum)])
    print(f"   dependent product has {pia.dom.size} sections:"
          f" {canonical_form(pia.dom)}")
    print(f"   exchange certificates: {'ok' if report.passed else 'FAILED'}")

    print("== span composition")
    loop = Span(u, u)
    squared = compose_spans(loop, loop)
    print(f"   loop ; loop = {span_canonical_form(squared)}")

    print("== Burnside tables")
    for group in (c2, symmetric_group(3)):
        print(burnside_table(group).render_text())

    print("== Mackey evaluation")
    fp = FixedPointMackey(c2)
    mat = eval_span(fp, loop)
    mat2 = eval_span(fp, squared)
    print(f"   fixed-point functor: c -> {mat((1,))[0]}c on the loop, "
          f"c -> {mat2((1,))[0]}c on its square")
    bm = BurnsideMackey(c2)
    gens = atoms(pt)
    basis = tuple(1 if g == (tuple(c2.elements()), 0) else 0 for g in gens)
    print(f"   burnside functor sends the point class to {eval_span(bm, loop)(basis)}")

    print("== polynomial composition with a rewrite transcript")
    p = polynomial(u, identity_gmap(free), u)       # transfer-style
    q = polynomial(u, u, identity_gmap(pt))         # norm-style
    comp, transcript = compose_poly(p, q)
    for step in transcript:
        print(f"   {step['rule']:<32} {' '.join(step['after'])}")
    print(f"   composite shape: {comp.src.size} <- {comp.r.dom.size}"
          f" -> {comp.n.cod.size} -> {comp.tgt.size}")

    print("== the same composite through the semiring oracle (trivial group)")
    triv = trivial_group()
    from spanpoly.sampling import random_trivial_polynomial
    import random
    rng = random.Random(6)
    p0 = random_trivial_polynomial(rng, 2, 2, 3, triv)
    q0 = random_trivial_polynomial(rng, 2, 2, 3, triv)
    c0, _ = compose_poly(p0, q0)
    fam = (2, 3)
    print(f"   family {fam}: composite gives {eval_semiring(c0, fam, NATURALS)},"
          f" two steps give {eval_semiring(q0, eval_semiring(p0, fam, NATURALS), NATURALS)}")

    print("== Tambara evaluation on slice classes")
    t = BurnsideTambara(c2)
    out = eval_poly(t, p, canonical_slice(slice_identity(pt)))
    print(f"   point class evaluates to a {out.size}-point class over the point")
    ts = SemiringTambara(NATURALS)
    unit_leg = identity_gmap(terminal_gset(triv))
    unit_poly = polynomial(unit_leg, unit_leg, unit_leg)
    print(f"   generic evaluator on the unit polynomial: {eval_poly(ts, unit_poly, (7,))}")


if __name__ == "__main__":
    main()
