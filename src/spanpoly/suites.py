"""Named law-check suites behind the command-line `check` subcommand.

Each suite draws a deterministic sample family from a seeded generator,
runs the relevant harnesses, and merges their reports under its `SUITES`
name.  `run_suite` runs each suite in its own `finact.sharing` scope; for
a size bound of zero it runs none and returns an empty (vacuously passing)
report.

`objective` checks that the indexed categories of `completion` (slices,
slices over - x K, and the terminal one, slices over - x 0) behave as
objective Mackey functors: the span action composes and its cocompleteness
gate passes, restriction to a coproduct U+V is an equivalence onto pairs
(local biproducts), fiber coproducts are universal, and pushforward is
adjoint to reindexing on both completions.  It also runs the
Sigma -| Delta -| Pi triangles and the semiring laws of the evaluation
oracles.
"""
from __future__ import annotations

import random
from typing import Callable

from . import calib, completion, mackey, poly, spans, tambara
from .calib import ALL_MAPS, INJECTIVE_MAPS, ISO_MAPS, SURJECTIVE_MAPS, MorphismClass
from .errors import ProbeFailure
from .finact import (
    check_adjunction_triangles,
    compose_gmaps,
    coproduct,
    identity_gmap,
    lextensive_factor,
    pullback,
    regular_gset,
    sharing,
    slice_identity,
    sum_gmap,
    unique_to_terminal,
)
from .groups import FiniteGroup
from .report import Check, Report, merge_reports
from .sampling import (
    Rng,
    random_cospan,
    random_gmap,
    random_gset,
    random_gset_with_fixed_point,
    random_map_into,
    random_polynomial,
    random_slice,
    random_span,
    random_trivial_polynomial,
    shuffle_span,
)
from .semirings import BOOLEANS, NATURALS, check_semiring_laws


def suite_protocalib(group: FiniteGroup, rng: Rng, size_bound: int,
                     extra_class: MorphismClass | None = None) -> Report:
    samples = []
    for _ in range(6):
        w = random_gset(rng, group, size_bound)
        samples.append(random_map_into(rng, w, size_bound))
    for _ in range(3):
        f = rng.choice(samples)
        g = random_gmap(rng, f.cod, rng.choice(samples).cod)
        if g is not None:
            samples.append(g)
    classes = [ALL_MAPS, INJECTIVE_MAPS, SURJECTIVE_MAPS, ISO_MAPS]
    # by identity: a workspace class may share a builtin's name, and a
    # predicate is outside a class's equality
    if extra_class is not None and not any(extra_class is c for c in classes):
        classes.append(extra_class)
    reports = [calib.check_protocalibration(c, samples) for c in classes]
    broken = MorphismClass("image-size-1", lambda f: len(set(f.table)) == 1)
    broken_rep = calib.check_protocalibration(broken, samples)
    reports.append(Report("broken-class-detected",
                          (Check("witness-found", not broken_rep.passed,
                                 "" if not broken_rep.passed
                                 else "deliberately broken class slipped through"),)))
    return merge_reports("protocalib", reports)


def suite_compat(group: FiniteGroup, rng: Rng, size_bound: int) -> Report:
    samples = [random_map_into(rng, random_gset(rng, group, size_bound), size_bound)
               for _ in range(6)]
    pi_samples = []
    for _ in range(6):
        r = random_map_into(rng, random_gset(rng, group, size_bound), size_bound)
        v = random_map_into(rng, r.dom, size_bound)
        pi_samples.append((r, v))
    rep_max = calib.check_compatible_pair(ALL_MAPS, ALL_MAPS, samples, pi_samples)
    rep_inj = calib.check_compatible_pair(INJECTIVE_MAPS, ALL_MAPS, samples, pi_samples)
    rej = calib.check_compatible_pair(ALL_MAPS, INJECTIVE_MAPS,
                                      samples + [unique_to_terminal(regular_gset(group))],
                                      pi_samples)
    reports = [rep_max, rep_inj,
               Report("reject-all-injective",
                      (Check("witness-found", not rej.passed,
                             "" if not rej.passed else "expected subset failure missing"),))]
    closure = []
    members = [f for f in samples if f.dom.size]
    for k in range(min(3, len(members))):
        f, f2 = members[k], members[(k + 1) % len(members)]
        closure.append(Check(f"product-closure[{k}]",
                             calib.check_product_closure(ALL_MAPS, f, f2)))
    reports.append(Report("product-closure", tuple(closure)))
    return merge_reports("compat", reports)


def suite_span_laws(group: FiniteGroup, rng: Rng, size_bound: int) -> Report:
    checks = []
    for k in range(8):
        u = random_gset(rng, group, size_bound)
        v = random_gset(rng, group, size_bound)
        w = random_gset(rng, group, size_bound)
        z = random_gset(rng, group, size_bound)
        p = random_span(rng, u, v, size_bound)
        q = random_span(rng, v, w, size_bound)
        r = random_span(rng, w, z, size_bound)
        left, right, cell = spans.associator(p, q, r)
        ok = spans.is_span_morphism(left.span, right.span, cell) and cell.is_bijective()
        checks.append(Check(f"assoc[{k}]", ok))
        _, lu = spans.lunitor(p)
        _, ru = spans.runitor(p)
        checks.append(Check(f"units[{k}]", lu.is_bijective() and ru.is_bijective()))
        shuffled = shuffle_span(rng, p)
        checks.append(Check(f"iso-search[{k}]", spans.span_iso(p, shuffled) is not None))
    for k in range(4):
        u = random_gset(rng, group, size_bound)
        r = random_map_into(rng, u, size_bound)
        checks.append(Check(f"adjunction[{k}]", spans.check_adjunction(r).passed))
    for k in range(3):
        x = random_gset(rng, group, size_bound)
        y = random_gset(rng, group, size_bound)
        z = random_gset(rng, group, size_bound)
        p = random_span(rng, x, y, size_bound)
        q = random_span(rng, x, y, size_bound)
        r = random_span(rng, y, z, size_bound)
        total, _, _ = spans.local_coproduct(p, q)
        lhs = spans.compose_spans(total, r)
        sub, _, _ = spans.local_coproduct(spans.compose_spans(p, r),
                                          spans.compose_spans(q, r))
        checks.append(Check(f"right-distribution[{k}]",
                            spans.span_iso(lhs, sub) is not None))
    return Report("span-laws", tuple(checks))


def suite_cb(group: FiniteGroup, rng: Rng, size_bound: int) -> Report:
    e = completion.SliceIndexed()
    k = random_gset(rng, group, max(1, size_bound // 2))
    rk = completion.SliceIndexed(k)
    one = completion.terminal_indexed(group)
    reports = []
    for i in range(5):
        f, g = random_cospan(rng, group, size_bound)
        samples_e = []
        for _ in range(2):
            leg = random_map_into(rng, f.dom, size_bound)
            samples_e.append(completion.completion_obj(
                e, leg, random_slice(rng, leg.dom, size_bound)))
        reports.append(completion.check_CB(e, f, g, samples_e))
        leg = random_map_into(rng, f.dom, size_bound)
        xr = random_slice(rng, rk.carrier(leg.dom), size_bound)
        reports.append(completion.check_CB(rk, f, g,
                                           [completion.completion_obj(rk, leg, xr)]))
        reports.append(completion.check_CB(one, f, g, [completion.completion_obj(
            one, leg, slice_identity(one.carrier(leg.dom)))]))
    for i in range(3):
        f, g = random_cospan(rng, group, size_bound)
        xs = [random_slice(rng, f.dom, size_bound) for _ in range(2)]
        reports.append(completion.check_CB_fiber(e, f, g, xs, mode="push"))
        reports.append(completion.check_CB_fiber(e, f, g, xs, mode="norm"))
    return merge_reports("cb", reports)


def suite_distlaw(group: FiniteGroup, rng: Rng, size_bound: int) -> Report:
    checks = []
    for k in range(6):
        s = random_gset(rng, group, size_bound)
        u = random_map_into(rng, s, size_bound)
        a = random_map_into(rng, u.dom, size_bound)
        probes = [random_slice(rng, a.dom, size_bound) for _ in range(2)]
        _, rep = poly.distribute(u, a, probes=probes)
        checks.append(Check(f"distribute[{k}]", rep.passed,
                            "" if rep.passed else rep.render_text()))
    u = unique_to_terminal(regular_gset(group))
    cop = coproduct(regular_gset(group), regular_gset(group))
    a = cop.cotuple(identity_gmap(regular_gset(group)),
                    identity_gmap(regular_gset(group)))
    (pia, _, _), rep = poly.distribute(u, a, probes=[slice_identity(cop.sum)])
    checks.append(Check("anchored-free-instance", rep.passed
                        and pia.dom.size == 2 ** regular_gset(group).size))
    return Report("distlaw", tuple(checks))


def suite_mackey(group: FiniteGroup, rng: Rng, size_bound: int) -> Report:
    b = mackey.BurnsideMackey(group)
    fp = mackey.FixedPointMackey(group)
    reports = []
    for k in range(4):
        u = random_gset(rng, group, size_bound)
        v = random_gset(rng, group, size_bound)
        w = random_gset(rng, group, size_bound)
        p = random_span(rng, u, v, size_bound)
        q = random_span(rng, v, w, size_bound)
        reports.append(mackey.check_functoriality(b, p, q))
        reports.append(mackey.check_functoriality(fp, p, q))
    for k in range(3):
        f, g = random_cospan(rng, group, size_bound)
        reports.append(mackey.check_double_coset(b, f, g))
        reports.append(mackey.check_double_coset(fp, f, g))
    reports.append(mackey.check_additivity(b, random_gset(rng, group, size_bound),
                                           random_gset(rng, group, size_bound)))
    t1 = mackey.burnside_table(group)
    t2 = mackey.burnside_table_bruteforce(group)
    t3 = mackey.burnside_table_double_cosets(group)
    # historical check names, kept so that reports stay byte-identical
    reports.append(Report("burnside-routes",
                          (Check("product-vs-unionfind", t1.entries == t2.entries),
                           Check("product-vs-double-cosets", t1.entries == t3.entries))))
    return merge_reports("mackey", reports)


def suite_tambara(group: FiniteGroup, rng: Rng, size_bound: int) -> Report:
    reports = []
    t = tambara.BurnsideTambara(group)
    polys, exchanges = [], []
    for k in range(4):
        x = random_gset_with_fixed_point(rng, group, size_bound)
        y = random_gset_with_fixed_point(rng, group, size_bound)
        z = random_gset_with_fixed_point(rng, group, size_bound)
        p = random_polynomial(rng, x, y, size_bound)
        q = random_polynomial(rng, y, z, size_bound)
        probes = [random_slice(rng, x, size_bound) for _ in range(2)]
        reports.append(tambara.check_tambara_functoriality(t, p, q, probes))
        polys.append(p)
    for k in range(3):
        s = random_gset(rng, group, size_bound)
        u = random_map_into(rng, s, size_bound)
        a = random_map_into(rng, u.dom, size_bound)
        probes = [random_slice(rng, a.dom, size_bound) for _ in range(2)]
        reports.append(tambara.check_norm_of_sum(t, u, a, probes))
        exchanges.append((u, a))
    x = random_gset(rng, group, size_bound)
    y = random_gset(rng, group, size_bound)
    pairs = [(random_slice(rng, x, size_bound), random_slice(rng, y, size_bound))
             for _ in range(3)]
    reports.append(tambara.check_fp_preservation(t, x, y, pairs))
    # the semiring functor on the points of the same draws: arithmetic, with
    # no pi_slice, so it sees exchange data that iso classes cannot tell apart
    for p in polys:
        fams = [tuple(rng.randint(0, 3) for _ in range(p.src.size)) for _ in range(3)]
        reports.append(tambara.check_semiring_matches_oracle(NATURALS, p, fams))
    st = tambara.SemiringTambara(NATURALS)
    for u, a in exchanges:
        fams = [tuple(rng.randint(0, 3) for _ in range(a.dom.size)) for _ in range(2)]
        reports.append(tambara.check_norm_of_sum(st, u, a, fams))
    return merge_reports("tambara", reports)


def suite_lextensive(group: FiniteGroup, rng: Rng, size_bound: int) -> Report:
    checks = []
    for k in range(6):
        u = random_gset(rng, group, size_bound)
        v = random_gset(rng, group, size_bound)
        h = random_map_into(rng, u, size_bound)
        kk = random_map_into(rng, v, size_bound)
        h2 = random_map_into(rng, u, size_bound)
        k2 = random_map_into(rng, v, size_bound)
        r = random_gmap(rng, h.dom, h2.dom)
        s = random_gmap(rng, kk.dom, k2.dom)
        if r is None or s is None:
            continue
        if compose_gmaps(h2, r).table != h.table or compose_gmaps(k2, s).table != kk.table:
            # random components need not commute; force the triangle
            h, kk = compose_gmaps(h2, r), compose_gmaps(k2, s)
        dom_cop = coproduct(h.dom, kk.dom)
        cod_cop = coproduct(h2.dom, k2.dom)
        base_cop = coproduct(u, v)
        f = sum_gmap(dom_cop, cod_cop, r, s)
        left = sum_gmap(dom_cop, base_cop, h, kk)
        right = sum_gmap(cod_cop, base_cop, h2, k2)
        r2, s2 = lextensive_factor(f, dom_cop, cod_cop, left, right)
        checks.append(Check(f"factor[{k}]", r2.table == r.table and s2.table == s.table))
    for k in range(6):
        u = random_gset(rng, group, size_bound)
        v = random_gset(rng, group, size_bound)
        cop = coproduct(u, v)
        f = random_map_into(rng, cop.sum, size_bound)
        part1, part2 = pullback(f, cop.inj1), pullback(f, cop.inj2)
        together = coproduct(part1.gset, part2.gset).cotuple(part1.proj1, part2.proj1)
        checks.append(Check(f"decompose[{k}]", together.is_bijective()))
    return Report("lextensive", tuple(checks))


def _adjunction_triangles(group: FiniteGroup, rng: Rng, size_bound: int) -> Report:
    """The Sigma -| Delta -| Pi triangles on two maps u and two slices at each end."""
    triangles = []
    for k in range(2):
        w = random_gset(rng, group, size_bound)
        u = random_map_into(rng, w, size_bound)
        doms = [random_slice(rng, u.dom, size_bound) for _ in range(2)]
        cods = [random_slice(rng, w, size_bound) for _ in range(2)]
        triangles += [Check(f"u[{k}]/{name}", ok)
                      for name, ok in check_adjunction_triangles(u, doms, cods)]
    return Report("adjunction-triangles", tuple(triangles))


def suite_objective(group: FiniteGroup, rng: Rng, size_bound: int) -> Report:
    small = max(1, size_bound // 2)
    e = completion.SliceIndexed()
    rk = completion.SliceIndexed(random_gset(rng, group, small))
    reports = []
    for _ in range(3):
        u, v, w = (random_gset(rng, group, size_bound) for _ in range(3))
        p = random_span(rng, u, v, size_bound)
        q = random_span(rng, v, w, size_bound)
        probes = [random_slice(rng, w, size_bound) for _ in range(2)]
        reports.append(completion.check_extension_composition(e, p, q, probes))
    # the gate probes the exchange square of f and g before it extends the span
    f, g = random_cospan(rng, group, size_bound)
    try:
        completion.extend_to_spans(e, spans.Span(f, f), probe_squares=[(f, g)],
                                   probe_objects=[random_slice(rng, f.dom, size_bound)])
        gate = Check("extend-to-spans", True)
    except ProbeFailure as exc:
        gate = Check("extend-to-spans", False, str(exc))
    reports.append(Report("cocompleteness-gate", (gate,)))
    u = random_gset(rng, group, size_bound)
    v = random_gset(rng, group, size_bound)
    for xcat in (e, rk):
        pairs = [(random_slice(rng, xcat.carrier(u), size_bound),
                  random_slice(rng, xcat.carrier(v), size_bound)) for _ in range(2)]
        reports.append(completion.check_biproduct_preservation(xcat, u, v, pairs))
    one = completion.terminal_indexed(group)
    reports.append(completion.check_biproduct_preservation(
        one, u, v, [(slice_identity(one.carrier(u)), slice_identity(one.carrier(v)))]))
    x, y = (random_slice(rng, u, size_bound) for _ in range(2))
    targets = [random_slice(rng, u, size_bound) for _ in range(2)]
    reports.append(completion.check_fiber_coproduct(e, u, x, y, targets))
    for _ in range(2):
        r = random_map_into(rng, random_gset(rng, group, size_bound), size_bound)
        leg = random_map_into(rng, r.dom, size_bound)
        o = completion.completion_obj(e, leg, random_slice(rng, leg.dom, size_bound))
        leg2 = random_map_into(rng, r.cod, size_bound)
        o2 = completion.completion_obj(e, leg2, random_slice(rng, leg2.dom, size_bound))
        reports.append(completion.hom_bijection(o, o2, r))
        reports.append(completion.hom_bijection_dual(o, o2, r))
    # half size, as pinned: at full size, S3 seed 2's Pi_u Delta_u b passes MAX_POINTS
    reports.append(_adjunction_triangles(group, rng, small))
    reports += [check_semiring_laws(sr) for sr in (NATURALS, BOOLEANS)]
    return merge_reports("objective", reports)


def suite_plycorrespondence(group: FiniteGroup, rng: Rng, size_bound: int) -> Report:
    checks = []
    for k in range(10):
        x = random_gset_with_fixed_point(rng, group, size_bound)
        y = random_gset_with_fixed_point(rng, group, size_bound)
        p = random_polynomial(rng, x, y, size_bound)
        s = poly.poly_to_spanspan(p)
        checks.append(Check(f"roundtrip[{k}]", poly.spanspan_to_poly(s) == p))
    for k in range(2):
        x = random_gset_with_fixed_point(rng, group, 2)
        y = random_gset_with_fixed_point(rng, group, 2)
        p = random_polynomial(rng, x, y, 3)
        q = random_polynomial(rng, x, y, 3)
        cells = list(poly.enumerate_poly_morphisms(p, q))
        count = poly.count_poly_morphisms(p, q)
        ok = len(cells) == count and all(
            poly.translate_2cell_inverse(poly.translate_2cell(m)) == m for m in cells)
        checks.append(Check(f"2cells[{k}]", ok, "" if ok else f"{len(cells)} vs {count}"))
    for k in range(3):
        xs, ys, zs = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        p0 = random_trivial_polynomial(rng, xs, ys, 4)
        q0 = random_trivial_polynomial(rng, ys, zs, 4)
        rep = poly.check_poly_oracle(p0, q0, [NATURALS, BOOLEANS])
        checks.append(Check(f"compose-oracle[{k}]", rep.passed))
    return Report("plycorrespondence", tuple(checks))


SUITES: dict[str, Callable[[FiniteGroup, Rng, int], Report]] = {
    "protocalib": suite_protocalib,
    "compat": suite_compat,
    "span-laws": suite_span_laws,
    "cb": suite_cb,
    "distlaw": suite_distlaw,
    "mackey": suite_mackey,
    "tambara": suite_tambara,
    "lextensive": suite_lextensive,
    "objective": suite_objective,
    "plycorrespondence": suite_plycorrespondence,
}


def run_suite(name: str, group: FiniteGroup, seed: int, size_bound: int,
              rclass: MorphismClass | None = None) -> Report:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    rng = random.Random(seed)
    if size_bound <= 0:
        rep = Report(name, (), ("size bound 0: empty sample family",))
    else:
        with sharing():
            if name == "protocalib" and rclass is not None:
                rep = suite_protocalib(group, rng, size_bound, extra_class=rclass)
            else:
                rep = SUITES[name](group, rng, size_bound)
    return Report(rep.title, rep.checks,
                  rep.notes + (f"group={group.name} seed={seed} size_bound={size_bound}",))
