"""Acceptance criteria, one test per criterion, one printed line each.

Run with  pytest -s tests/test_acceptance.py  to see the PASS/FAIL lines.
Sample counts and time bounds are pinned here; every numeric anchor is
either computed by an independent oracle inside the test or frozen from
one.
"""
import itertools
import random
import time


from spanpoly.calib import (
    ALL_MAPS,
    INJECTIVE_MAPS,
    ISO_MAPS,
    SURJECTIVE_MAPS,
    MorphismClass,
    check_compatible_pair,
    check_protocalibration,
)
from spanpoly.cli import main
from spanpoly.completion import SliceIndexed, check_CB, completion_obj
from spanpoly.finact import (
    canonical_form,
    compose_gmaps,
    coproduct,
    equivariant_maps,
    identity_gmap,
    lextensive_factor,
    pullback,
    regular_gset,
    slice_identity,
    sum_gmap,
    terminal_gset,
    unique_to_terminal,
)
from spanpoly.groups import cyclic_group, symmetric_group
from spanpoly.mackey import (
    BurnsideMackey,
    FixedPointMackey,
    atoms,
    burnside_table,
    burnside_table_bruteforce,
    canonical_slice,
    check_functoriality,
    eval_span,
)
from spanpoly.poly import (
    check_poly_oracle,
    count_poly_morphisms,
    distribute,
    enumerate_poly_morphisms,
    poly_to_spanspan,
    spanspan_to_poly,
    translate_2cell,
    translate_2cell_inverse,
)
from spanpoly.sampling import (
    random_cospan,
    random_gset,
    random_gset_with_fixed_point,
    random_map_into,
    random_polynomial,
    random_slice,
    random_span,
    random_trivial_polynomial,
)
from spanpoly.semirings import BOOLEANS, NATURALS
from spanpoly.spans import (
    Span,
    check_adjunction,
    compose_spans,
    identity_span,
    span_iso,
)
from spanpoly.tambara import check_tambara_functoriality, check_semiring_matches_oracle

from helpers import is_pullback_square

C2 = cyclic_group(2)
S3 = symmetric_group(3)


def _report(num: int, desc: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {desc} ({time.monotonic() - started:.2f}s)")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_burnside_c2():
    started = time.monotonic()
    table = burnside_table(C2)
    oracle = burnside_table_bruteforce(C2)  # explicit product-set orbit enumeration
    gens = atoms(terminal_gset(C2))
    free = gens.index(((0,), 0))
    pt = gens.index((tuple(C2.elements()), 0))
    ok = table.entries == oracle.entries
    want = {(pt, pt): {pt: 1}, (pt, free): {free: 1}, (free, free): {free: 2}}
    for (i, j), coeffs in want.items():
        vec = table.entries[i][j]
        ok = ok and all(vec[k] == coeffs.get(k, 0) for k in range(len(gens)))
    elapsed = time.monotonic() - started
    _report(1, f"Burnside ring of C2 exact in {elapsed:.3f}s", ok and elapsed < 1.0,
            started)


def test_criterion_02_burnside_s3_two_ways():
    started = time.monotonic()
    a = burnside_table(S3)
    b = burnside_table_bruteforce(S3)
    ok = (a.entries == b.entries and len(a.atom_names) == 4
          and sorted(a.atom_sizes) == [1, 2, 3, 6])
    elapsed = time.monotonic() - started
    _report(2, "S3 Burnside table agrees across independent routes",
            ok and elapsed < 5.0, started)


def test_criterion_03_span_bicategory_laws():
    started = time.monotonic()
    rng = random.Random(303)
    total, witnessed = 0, 0
    for group in (C2, S3):
        for _ in range(110):
            u = random_gset(rng, group, 4)
            v = random_gset(rng, group, 4)
            w = random_gset(rng, group, 4)
            z = random_gset(rng, group, 4)
            p = random_span(rng, u, v, 6)
            q = random_span(rng, v, w, 6)
            r = random_span(rng, w, z, 6)
            total += 1
            left = compose_spans(compose_spans(p, q), r)
            right = compose_spans(p, compose_spans(q, r))
            ok = span_iso(left, right) is not None
            ok = ok and span_iso(compose_spans(identity_span(u), p), p) is not None
            ok = ok and span_iso(compose_spans(p, identity_span(v)), p) is not None
            if ok:
                witnessed += 1
    elapsed = time.monotonic() - started
    _report(3, f"span laws on {total} triples, {witnessed} witnessed, {elapsed:.1f}s",
            total >= 200 and witnessed == total and elapsed < 30.0, started)


def test_criterion_04_adjunction_triangles():
    started = time.monotonic()
    rng = random.Random(404)
    count, passed = 0, 0
    for group in (C2, S3):
        for _ in range(27):
            w = random_gset(rng, group, 5)
            r = random_map_into(rng, w, 5)
            count += 1
            if check_adjunction(r).passed:
                passed += 1
    _report(4, f"adjunction triangles exact on {count} maps",
            count >= 50 and passed == count, started)


def test_criterion_05_chevalley_beck():
    started = time.monotonic()
    rng = random.Random(505)
    e_cat = SliceIndexed()
    squares, ok_all = 0, True
    for group in (C2, S3):
        k = random_gset(rng, group, 2)
        rk = SliceIndexed(k)
        for _ in range(51):
            f, g = random_cospan(rng, group, 4)
            squares += 1
            leg = random_map_into(rng, f.dom, 3)
            o = completion_obj(e_cat, leg, random_slice(rng, leg.dom, 3))
            ok_all = ok_all and check_CB(e_cat, f, g, [o]).passed
            leg2 = random_map_into(rng, f.dom, 3)
            o2 = completion_obj(rk, leg2, random_slice(rng, rk.carrier(leg2.dom), 3))
            ok_all = ok_all and check_CB(rk, f, g, [o2]).passed
    _report(5, f"invertible mates on {squares} pullback squares, two indexed categories",
            squares >= 100 and ok_all, started)


def test_criterion_06_distributive_law():
    started = time.monotonic()
    rng = random.Random(606)
    count, ok_all = 0, True
    for _ in range(52):
        s = random_gset(rng, C2, 4)
        u = random_map_into(rng, s, 4)
        a = random_map_into(rng, u.dom, 4)
        probes = [random_slice(rng, a.dom, 3) for _ in range(2)]
        count += 1
        _, rep = distribute(u, a, probes=probes)
        ok_all = ok_all and rep.passed
    # anchored instance: sections of the doubled free orbit
    f2 = regular_gset(C2)
    u2 = unique_to_terminal(f2)
    cop = coproduct(f2, f2)
    a2 = cop.cotuple(identity_gmap(f2), identity_gmap(f2))
    (pia, _, _), rep = distribute(u2, a2, probes=[slice_identity(cop.sum)])
    pt2 = terminal_gset(C2)
    expected = coproduct(coproduct(pt2, pt2).sum, f2).sum
    anchored = (rep.passed and pia.dom.size == 4
                and canonical_form(pia.dom) == canonical_form(expected))
    _report(6, f"product-past-sum exchange witnessed on {count} probes + anchor",
            count >= 50 and ok_all and anchored, started)


def test_criterion_07_poly_spanspan_correspondence():
    started = time.monotonic()
    rng = random.Random(707)
    count, ok_all = 0, True
    for group in (C2, S3):
        for _ in range(51):
            x = random_gset_with_fixed_point(rng, group, 4)
            y = random_gset_with_fixed_point(rng, group, 4)
            p = random_polynomial(rng, x, y, 4)
            count += 1
            ok_all = ok_all and spanspan_to_poly(poly_to_spanspan(p)) == p
    cells_ok = True
    for _ in range(3):
        x = random_gset_with_fixed_point(rng, C2, 2)
        y = random_gset_with_fixed_point(rng, C2, 2)
        p = random_polynomial(rng, x, y, 3)
        q = random_polynomial(rng, x, y, 3)
        ms = list(enumerate_poly_morphisms(p, q))
        cells = [translate_2cell(m) for m in ms]
        cells_ok = cells_ok and all(
            translate_2cell_inverse(c) == m for m, c in zip(ms, cells))
        # injective on the morphisms, and as many as the closed form counts
        cells_ok = cells_ok and len(set(cells)) == len(ms) == count_poly_morphisms(p, q)
    _report(7, f"exact round-trips on {count} polynomials; 2-cell translation bijective",
            count >= 100 and ok_all and cells_ok, started)


def test_criterion_08_poly_composition_oracle():
    started = time.monotonic()
    rng = random.Random(808)
    count, ok_all = 0, True
    for _ in range(102):
        xs, ys, zs = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        p = random_trivial_polynomial(rng, xs, ys, 4)
        q = random_trivial_polynomial(rng, ys, zs, 4)
        count += 1
        ok_all = ok_all and check_poly_oracle(p, q, [NATURALS, BOOLEANS]).passed
    elapsed = time.monotonic() - started
    _report(8, f"semiring oracle on {count} composable pairs, {elapsed:.1f}s",
            count >= 100 and ok_all and elapsed < 60.0, started)


def test_criterion_09_mackey_functoriality():
    started = time.monotonic()
    fp = FixedPointMackey(C2)
    f2 = regular_gset(C2)
    u2 = unique_to_terminal(f2)
    p = Span(u2, u2)
    anchored = (eval_span(fp, p)((1,)) == (2,)
                and eval_span(fp, compose_spans(p, p))((1,)) == (4,))
    rng = random.Random(909)
    count, ok_all = 0, True
    for group in (C2, S3):
        b = BurnsideMackey(group)
        for _ in range(51):
            u = random_gset(rng, group, 4)
            v = random_gset(rng, group, 4)
            w = random_gset(rng, group, 4)
            pp = random_span(rng, u, v, 4)
            qq = random_span(rng, v, w, 4)
            count += 1
            ok_all = ok_all and check_functoriality(b, pp, qq).passed
    _report(9, f"anchored 2c/4c values; functoriality on {count} span pairs",
            anchored and count >= 100 and ok_all, started)


def test_criterion_10_tambara_functoriality():
    started = time.monotonic()
    rng = random.Random(1010)
    from spanpoly.tambara import BurnsideTambara
    t = BurnsideTambara(C2)
    count, ok_all = 0, True
    for _ in range(32):
        x = random_gset_with_fixed_point(rng, C2, 4)
        y = random_gset_with_fixed_point(rng, C2, 4)
        z = random_gset_with_fixed_point(rng, C2, 4)
        p = random_polynomial(rng, x, y, 4)
        q = random_polynomial(rng, y, z, 4)
        probes = [canonical_slice(random_slice(rng, x, 4)) for _ in range(2)]
        count += 1
        ok_all = ok_all and check_tambara_functoriality(t, p, q, probes).passed
    oracle_ok = True
    for _ in range(20):
        xs, ys = rng.randint(1, 4), rng.randint(1, 4)
        p0 = random_trivial_polynomial(rng, xs, ys, 4)
        for sr in (NATURALS, BOOLEANS):
            fams = list(itertools.product(sr.sample_elements[:2], repeat=xs))
            oracle_ok = oracle_ok and check_semiring_matches_oracle(
                sr, p0, fams).passed
    _report(10, f"slice-class functoriality on {count} poly pairs; semiring matches oracle",
            count >= 30 and ok_all and oracle_ok, started)


def test_criterion_11_lextensivity():
    started = time.monotonic()
    rng = random.Random(1111)
    count, ok_all = 0, True
    for _ in range(60):  # unique factorization instances
        u = random_gset(rng, C2, 4)
        v = random_gset(rng, C2, 4)
        base_cop = coproduct(u, v)
        h2 = random_map_into(rng, u, 4)
        k2 = random_map_into(rng, v, 4)
        a = random_slice(rng, h2.dom, 4)
        b = random_slice(rng, k2.dom, 4)
        r, s = a.arrow, b.arrow
        dom_cop = coproduct(r.dom, s.dom)
        cod_cop = coproduct(h2.dom, k2.dom)
        f = sum_gmap(dom_cop, cod_cop, r, s)
        left = sum_gmap(dom_cop, base_cop, compose_gmaps(h2, r), compose_gmaps(k2, s))
        right = sum_gmap(cod_cop, base_cop, h2, k2)
        r2, s2 = lextensive_factor(f, dom_cop, cod_cop, left, right)
        count += 1
        ok_all = ok_all and (r2.table, s2.table) == (r.table, s.table)
        solutions = sum(
            1 for rr in equivariant_maps(r.dom, h2.dom)
            for ss in equivariant_maps(s.dom, k2.dom)
            if sum_gmap(dom_cop, cod_cop, rr, ss).table == f.table)
        ok_all = ok_all and solutions == 1
    for _ in range(60):  # coproduct-of-pullbacks instances
        u = random_gset(rng, C2, 4)
        v = random_gset(rng, C2, 4)
        cop = coproduct(u, v)
        f = random_map_into(rng, cop.sum, 5)
        part1, part2 = pullback(f, cop.inj1), pullback(f, cop.inj2)
        count += 1
        ok_all = ok_all and is_pullback_square(f, cop.inj1, part1.proj1, part1.proj2)
        ok_all = ok_all and is_pullback_square(f, cop.inj2, part2.proj1, part2.proj2)
        glue = coproduct(part1.gset, part2.gset)
        ok_all = ok_all and glue.cotuple(part1.proj1, part2.proj1).is_bijective()
    _report(11, f"lextensivity factorizations and decompositions on {count} instances",
            count >= 100 and ok_all, started)


def test_criterion_12_protocalibration_checker():
    started = time.monotonic()
    rng = random.Random(1212)
    samples = []
    for _ in range(6):
        w = random_gset(rng, C2, 4)
        samples.append(random_map_into(rng, w, 4))
    builtin_ok = all(check_protocalibration(c, samples).passed
                     for c in (ALL_MAPS, INJECTIVE_MAPS, SURJECTIVE_MAPS, ISO_MAPS))
    broken = MorphismClass("image-size-1", lambda f: len(set(f.table)) == 1)
    broken_rep = check_protocalibration(broken, samples)
    witness_found = (not broken_rep.passed
                     and any(c.detail for c in broken_rep.failures()))
    pi_samples = []
    for _ in range(5):
        r = random_map_into(rng, random_gset(rng, C2, 4), 4)
        v = random_map_into(rng, r.dom, 4)
        pi_samples.append((r, v))
    accept = check_compatible_pair(INJECTIVE_MAPS, ALL_MAPS, samples, pi_samples).passed
    f2 = regular_gset(C2)
    reject_rep = check_compatible_pair(
        ALL_MAPS, INJECTIVE_MAPS, samples + [unique_to_terminal(f2)], pi_samples)
    reject = (not reject_rep.passed
              and any(c.detail for c in reject_rep.failures()))
    _report(12, "protocalibration and compatibility checkers with witnesses",
            builtin_ok and witness_found and accept and reject, started)


def test_criterion_13_determinism(capsys):
    started = time.monotonic()
    args = ["check", "--suite", "distlaw", "--group", "C2", "--seed", "7",
            "--max-size", "4", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out.encode()
    assert main(args) == 0
    second = capsys.readouterr().out.encode()
    args_text = ["check", "--suite", "span-laws", "--group", "S3", "--seed", "21",
                 "--max-size", "4"]
    assert main(args_text) == 0
    third = capsys.readouterr().out.encode()
    assert main(args_text) == 0
    fourth = capsys.readouterr().out.encode()
    with capsys.disabled():
        _report(13, "byte-identical reports under a fixed seed",
                first == second and third == fourth and len(first) > 0, started)
