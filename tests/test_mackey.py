"""Mackey instances: evaluation, exchange laws, Burnside tables."""

import random

import pytest

from spanpoly.finact import (
    GMap,
    SliceObject,
    coproduct,
    from_labels,
    initial_gset,
    orbit_labels,
    product,
    terminal_gset,
)
from spanpoly.groups import (
    BUILTIN_GROUPS,
    builtin_group,
    cyclic_group,
    group_from_permutations,
    group_from_table,
    subgroup_class_key,
    subgroup_class_reps,
    subgroups,
    symmetric_group,
)
from spanpoly.mackey import (
    BurnsideMackey,
    FixedPointMackey,
    atom_slice,
    atoms,
    burnside_table,
    burnside_table_bruteforce,
    burnside_table_double_cosets,
    canonical_slice,
    check_additivity,
    check_double_coset,
    check_functoriality,
    eval_span,
    table_of_marks,
)
from spanpoly.sampling import (
    random_cospan,
    random_gset,
    random_slice,
    random_span,
    shuffle_span,
)
from spanpoly.spans import Span, compose_spans, identity_span
from spanpoly.util_linear import mat_identity

from helpers import (
    burnside_pair_codes,
    orbits,
    relabelled_group,
    shuffle_slice,
    stabilizer,
    vectorize_slice,
)


def test_atoms_of_point(c2, s3):
    assert len(atoms(terminal_gset(c2))) == 2
    assert len(atoms(terminal_gset(s3))) == 4


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS) + ["A4", "D8", "C2^4", "A5", "S4xC2"])
def test_atoms_of_point_are_the_subgroup_classes(name):
    """The atoms of the point are (class key, 0), one per subgroup class."""
    group = builtin_group(name) if name in BUILTIN_GROUPS else ORACLE_GROUPS[name]()
    expected = [(k, 0) for k in sorted(subgroup_class_reps(group))]
    assert list(atoms(terminal_gset(group))) == expected
    assert len(burnside_table(group).atom_names) == len(expected)


def test_atoms_rebuild_and_vectorize(c2, rng):
    base = random_gset(rng, c2, 5)
    for lab in atoms(base):
        rep = atom_slice(base, lab)
        vec = vectorize_slice(rep)
        assert sum(vec) == 1 and vec[atoms(base).index(lab)] == 1


@pytest.mark.parametrize("group", [cyclic_group(4), symmetric_group(3), symmetric_group(4)],
                         ids=["C4", "S3", "S4"])
def test_atoms_match_labels_of_rebuilt_pieces(group):
    """atoms labels each piece directly; the reference builds every piece and labels it."""
    rng = random.Random(f"atoms/{group.name}")
    for _ in range(6):
        base = random_gset(rng, group, 12)
        pieces = []
        for orb in orbits(base):
            stab = frozenset(stabilizer(base, orb[0]))
            pieces.extend((h, (orb[0],)) for h in subgroups(group) if h <= stab)
        _, (arrow,) = from_labels(group, (base,), pieces)
        want = sorted({(s, v) for s, (v,) in orbit_labels(arrow.dom, (arrow,))})
        assert atoms(base) == tuple(want)


@pytest.mark.parametrize("seed", range(21))
def test_random_slice_is_canonical(seed):
    rng = random.Random(seed)
    group = (cyclic_group(4), symmetric_group(3), symmetric_group(4))[seed % 3]
    base = random_gset(rng, group, 8)
    for _ in range(4):
        a = random_slice(rng, base, 24, allow_empty=False)
        assert canonical_slice(a) == a


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
def test_random_slice_is_canonical_on_every_builtin_group(name):
    """Seeds 0-39 at size bounds 3, 6 and 12: 120 draws per group, 720 in all."""
    group = builtin_group(name)
    for seed in range(40):
        for size in (3, 6, 12):
            rng = random.Random(seed)
            a = random_slice(rng, random_gset(rng, group, size), size)
            assert canonical_slice(a) == a, (seed, size)


def test_canonical_slice_idempotent(c2, rng):
    base = random_gset(rng, c2, 5)
    s = random_slice(rng, base, 5)
    cs = canonical_slice(s)
    assert canonical_slice(cs) == cs
    assert canonical_slice(shuffle_slice(rng, s)) == cs


def test_eval_identity_span(c2, f2):
    b = BurnsideMackey(c2)
    mat = eval_span(b, identity_span(f2))
    assert mat == mat_identity(len(atoms(f2)))


def test_fixed_point_anchored_values(c2, f2, pt2, u2):
    m = FixedPointMackey(c2)
    p = Span(u2, u2)
    mat = eval_span(m, p)
    assert mat((1,)) == (2,)
    assert mat((5,)) == (10,)
    mat2 = eval_span(m, compose_spans(p, p))
    assert mat2((1,)) == (4,)


def test_burnside_point_to_free(c2, f2, pt2, u2):
    b = BurnsideMackey(c2)
    p = Span(u2, u2)
    gens = atoms(pt2)
    mat = eval_span(b, p)
    pt_atom = gens.index((tuple(c2.elements()), 0))
    free_atom = gens.index(((0,), 0))
    basis = tuple(1 if j == pt_atom else 0 for j in range(len(gens)))
    image = mat(basis)
    assert image[free_atom] == 1 and sum(image) == 1


def test_functoriality_identity(c2, f2, rng):
    b = BurnsideMackey(c2)
    p = random_span(rng, f2, f2, 4)
    assert check_functoriality(b, p, identity_span(f2)).passed


def test_functoriality_random(c2, s3, rng):
    for group in (c2, s3):
        b = BurnsideMackey(group)
        fp = FixedPointMackey(group)
        for _ in range(5):
            u = random_gset(rng, group, 4)
            v = random_gset(rng, group, 4)
            w = random_gset(rng, group, 4)
            p = random_span(rng, u, v, 4)
            q = random_span(rng, v, w, 4)
            assert check_functoriality(b, p, q).passed
            assert check_functoriality(fp, p, q).passed


def test_eval_constant_on_iso_classes(c2, rng):
    b = BurnsideMackey(c2)
    u = random_gset(rng, c2, 4)
    v = random_gset(rng, c2, 4)
    p = random_span(rng, u, v, 5)
    q = shuffle_span(rng, p)
    assert eval_span(b, p) == eval_span(b, q)


def test_double_coset_random(c2, s3, rng):
    for group in (c2, s3):
        b = BurnsideMackey(group)
        fp = FixedPointMackey(group)
        for _ in range(4):
            f, g = random_cospan(rng, group, 4)
            assert check_double_coset(b, f, g).passed
            assert check_double_coset(fp, f, g).passed


def test_additivity(c2, f2, pt2, rng):
    b = BurnsideMackey(c2)
    fp = FixedPointMackey(c2)
    assert check_additivity(b, f2, initial_gset(c2)).passed
    assert check_additivity(b, f2, pt2).passed
    assert check_additivity(fp, f2, pt2).passed
    # Burnside atoms of a coproduct split as the disjoint union of atom sets
    cop = coproduct(f2, pt2)
    assert len(atoms(cop.sum)) == len(atoms(f2)) + len(atoms(pt2))


def test_fixed_point_module_parameter(c2, f2, pt2, u2):
    m = FixedPointMackey(c2, f2)  # coordinates form a free orbit
    # value(pt) = equivariant functions pt -> N^2 with swap action: one orbit
    assert len(m.value_gens(pt2)) == 1
    mat = eval_span(m, Span(u2, u2))
    assert mat((1,)) == (2,)


# ---------------------------------------------------------------------------
# Burnside tables
# ---------------------------------------------------------------------------

def test_burnside_trivial(triv):
    t = burnside_table(triv)
    assert t.entries == (((1,),),)


def test_burnside_c2_exact(c2):
    t = burnside_table(c2)
    gens = atoms(terminal_gset(c2))
    free = gens.index(((0,), 0))
    pt = gens.index((tuple(c2.elements()), 0))
    assert t.entries[pt][pt][pt] == 1 and sum(t.entries[pt][pt]) == 1
    assert t.entries[pt][free][free] == 1 and sum(t.entries[pt][free]) == 1
    assert t.entries[free][free][free] == 2 and sum(t.entries[free][free]) == 2


def test_burnside_routes_agree(triv, c2, c3, s3):
    c4 = cyclic_group(4)
    for group in (triv, c2, c3, c4, s3, symmetric_group(5)):
        a = burnside_table(group)
        b = burnside_table_bruteforce(group)
        c = burnside_table_double_cosets(group)
        assert a == b == c, group.name


def test_burnside_routes_agree_without_designated_generators(s3):
    """The oracle's orbit search needs generators; a table group has none given."""
    g = group_from_table("S3t", s3.mult)
    assert g.generators == ()
    a = burnside_table(g)
    assert a == burnside_table_bruteforce(g) == burnside_table_double_cosets(g)


def test_burnside_routes_agree_on_a5():
    a5 = group_from_permutations("A5", [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])
    a = burnside_table(a5)
    assert len(a.atom_names) == 9
    assert a == burnside_table_bruteforce(a5) == burnside_table_double_cosets(a5)


def _naive_burnside_entries(group):
    """Entry (i, j) counts the orbits of G/H_i x G/H_j, found as a set of
    frozensets of pairs of left cosets, each under the conjugacy class of
    the stabilizer of one of its pairs; H_i runs over the table's atoms."""
    labs = atoms(terminal_gset(group))
    index = {tuple(sorted(l[0])): i for i, l in enumerate(labs)}
    elements = list(group.elements())

    def act(g, coset):
        return frozenset(group.op(g, x) for x in coset)

    moves = []  # per atom, per element g: coset -> g.coset
    for l in labs:
        cosets = {frozenset(group.op(x, h) for h in l[0]) for x in elements}
        moves.append([{c: act(g, c) for c in cosets} for g in elements])
    entries = []
    for mi in moves:
        row = []
        for mj in moves:
            orbits = {frozenset((gi[c], gj[d]) for gi, gj in zip(mi, mj))
                      for c in mi[0] for d in mj[0]}
            vec = [0] * len(labs)
            for orbit in orbits:
                c, d = next(iter(orbit))
                stab = frozenset(g for g, gi, gj in zip(elements, mi, mj)
                                 if gi[c] == c and gj[d] == d)
                vec[index[subgroup_class_key(group, stab)]] += 1
            row.append(tuple(vec))
        entries.append(tuple(row))
    return tuple(entries)


ORACLE_GROUPS = {
    "D8": lambda: group_from_permutations("D8", [[1, 2, 3, 0], [2, 1, 0, 3]]),
    "A4": lambda: group_from_permutations("A4", [[1, 2, 0, 3], [1, 0, 3, 2]]),
    "A5": lambda: group_from_permutations("A5", [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]),
    "C2^4": lambda: group_from_permutations("C2^4", [
        [1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7],
        [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]]),
    "S4xC2": lambda: group_from_permutations("S4xC2", [
        [1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]]),
}

NAIVE_ORACLE_GROUPS = {
    "D8": ORACLE_GROUPS["D8"],
    "A4": ORACLE_GROUPS["A4"],
    "C2^4": ORACLE_GROUPS["C2^4"],
    "S3-identity-at-3": lambda: relabelled_group("S3r", symmetric_group(3), [3, 0, 1, 2, 4, 5]),
}


@pytest.mark.parametrize("name", ["S4", "A4", "D8", "C2^4", "S4xC2"])
def test_orbit_oracle_matches_the_pair_code_scan(name):
    """The stabilizer-orbit oracle against the raw pair enumeration it
    replaced, and against the double-coset route."""
    group = symmetric_group(4) if name == "S4" else ORACLE_GROUPS[name]()
    entries = burnside_table_bruteforce(group).entries
    assert entries == burnside_pair_codes(group)
    assert entries == burnside_table_double_cosets(group).entries


@pytest.mark.parametrize("name", list(NAIVE_ORACLE_GROUPS))
def test_bruteforce_oracle_matches_naive_orbit_count(name):
    """Each orbit is classified by its pair stabilizer stab(a) & stab(b): on
    these groups a classification by stab(a) alone gives other entries."""
    group = NAIVE_ORACLE_GROUPS[name]()
    assert burnside_table_bruteforce(group).entries == _naive_burnside_entries(group)


def test_burnside_s3_known_values(s3):
    t = burnside_table(s3)
    sizes = t.atom_sizes
    by_size = {s: i for i, s in enumerate(sizes)}
    i1, i2, i3, i6 = by_size[1], by_size[2], by_size[3], by_size[6]
    def entry(i, j):
        return t.entries[i][j]
    # unit row
    assert entry(i1, i2)[i2] == 1 and sum(entry(i1, i2)) == 1
    # [G/C3]^2 = 2 [G/C3]
    assert entry(i2, i2)[i2] == 2 and sum(entry(i2, i2)) == 2
    # [G/C2]^2 = [G/C2] + [G/1]
    assert entry(i3, i3)[i3] == 1 and entry(i3, i3)[i6] == 1
    # [G/C3].[G/C2] = [G/1]
    assert entry(i2, i3)[i6] == 1 and sum(entry(i2, i3)) == 1
    # [G/1].[G/1] = 6 [G/1]
    assert entry(i6, i6)[i6] == 6 and sum(entry(i6, i6)) == 6


def test_burnside_table_ring_laws(c2, s3):
    for group in (c2, s3):
        t = burnside_table(group)
        n = len(t.atom_names)
        def mul_vec(v, w):
            out = [0] * n
            for i, a in enumerate(v):
                for j, b in enumerate(w):
                    if a and b:
                        for k2, c in enumerate(t.entries[i][j]):
                            out[k2] += a * b * c
            return tuple(out)
        unit = tuple(1 if t.atom_sizes[i] == 1 else 0 for i in range(n))
        basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        for i in range(n):
            assert mul_vec(unit, basis[i]) == basis[i]
            for j in range(n):
                assert t.entries[i][j] == t.entries[j][i]
                for k2 in range(n):
                    assert mul_vec(mul_vec(basis[i], basis[j]), basis[k2]) == \
                        mul_vec(basis[i], mul_vec(basis[j], basis[k2]))


def test_product_of_atoms_matches_burnside_table(s3):
    """The engine builds no products; certify `finact.product` against its table."""
    d8 = group_from_permutations("D8", [[1, 2, 3, 0], [2, 1, 0, 3]])
    for group in (s3, symmetric_group(4), d8):
        pt = terminal_gset(group)
        labs = atoms(pt)
        reps = [atom_slice(pt, l) for l in labs]
        t = burnside_table(group)
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                pr = product(a.total, b.total)
                over_pt = SliceObject(GMap(pr.gset, pt, (0,) * pr.gset.size))
                assert vectorize_slice(over_pt, labs) == t.entries[i][j], (group.name, i, j)


def _atom_subgroups(group):
    return [frozenset(l[0]) for l in atoms(terminal_gset(group))]


def test_marks_s3_textbook(s3):
    hs = _atom_subgroups(s3)
    marks = table_of_marks(s3, hs)
    by_order = sorted(range(len(hs)), key=lambda i: len(hs[i]))
    # rows G/1, G/C2, G/C3, G/S3; columns the subgroups 1, C2, C3, S3
    assert [len(hs[i]) for i in by_order] == [1, 2, 3, 6]
    assert [[marks[i][j] for j in by_order] for i in by_order] == [
        [6, 0, 0, 0],
        [3, 1, 0, 0],
        [2, 0, 2, 0],
        [1, 1, 1, 1],
    ]


def test_marks_invariants():
    s4xc2 = group_from_permutations(
        "S4xC2", [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]])
    a5 = group_from_permutations("A5", [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])
    for group in (symmetric_group(4), a5, s4xc2):
        hs = _atom_subgroups(group)
        marks = table_of_marks(group, hs)
        trivial = hs.index(frozenset({group.identity}))

        def conj(h, x):
            return frozenset(group.op(group.op(x, a), group.inv(x)) for a in h)

        for i, hi in enumerate(hs):
            normalizer = [x for x in group.elements() if conj(hi, x) == hi]
            assert marks[i][i] == len(normalizer) // len(hi), (group.name, i)
            assert marks[i][trivial] == group.order // len(hi), (group.name, i)
            for j, hj in enumerate(hs):
                subconjugate = any(conj(hj, x) <= hi for x in group.elements())
                assert (marks[i][j] != 0) == subconjugate, (group.name, i, j)


def test_table_render_deterministic(s3):
    a = burnside_table(s3).render_text()
    b = burnside_table(s3).render_text()
    assert a == b and "Burnside ring of S3" in a
