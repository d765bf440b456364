import re

import pytest
from hypothesis import given, strategies as st

from spanpoly.errors import InvalidStructure
from spanpoly.finact import coset_gset
from spanpoly.groups import (
    BUILTIN_GROUPS,
    cyclic_group,
    double_cosets,
    generating_set,
    group_from_permutations,
    group_from_table,
    subgroup_class_key,
    subgroup_class_reps,
    subgroups,
    symmetric_group,
    trivial_group,
)
from spanpoly.groups import _table_to_group


def test_builtin_orders():
    assert trivial_group().order == 1
    assert cyclic_group(2).order == 2
    assert cyclic_group(4).order == 4
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24


@pytest.mark.parametrize("g", [trivial_group(), cyclic_group(3), symmetric_group(3)])
def test_validate(g):
    g.validate()


def test_bad_table_rejected():
    with pytest.raises(InvalidStructure):
        group_from_table("bad", [[0, 1], [1, 1]])


# A loop of order 5: identity 0, every element its own two-sided inverse,
# each row and column a permutation, yet (1*1)*2 = 2 while 1*(1*2) = 4.
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_non_associative_loop_rejected():
    with pytest.raises(InvalidStructure, match="associativity"):
        group_from_table("loop5", LOOP5)


def test_associativity_failure_off_the_first_generator_rejected():
    """C2 x LOOP5, element i + 2l for (i, l): the first generator (1, 0) is
    associative with everything, so only a later generator exposes the loop."""
    m = [[(i ^ j) + 2 * LOOP5[l][k] for k in range(5) for j in range(2)]
         for l in range(5) for i in range(2)]
    a = generating_set(_table_to_group("c2xloop5", m))[0]
    assert a == 1
    assert all(m[m[x][a]][y] == m[x][m[a][y]] for x in range(10) for y in range(10))
    with pytest.raises(InvalidStructure, match="associativity"):
        group_from_table("c2xloop5", m)


NOT_2X2 = "multiplication table is not 2 x 2 with entries in 0..1"


# (table, message of `_table_to_group` or None, message of `group_from_table`);
# a table with several faults reports the first of shape, identity, inverses
@pytest.mark.parametrize("mult, raw, checked", [
    ([[0, 1], [1]], NOT_2X2, NOT_2X2),
    ([[0, 1], [1, 0], [0, 1]], "multiplication table is not 3 x 3 with entries in 0..2", None),
    ([[0, 1], [1, 2]], NOT_2X2, NOT_2X2),
    ([[0, 1], [-1, 0]], NOT_2X2, NOT_2X2),
    ([[0, 2], [2, 2]], NOT_2X2, NOT_2X2),
    ([], "table has no identity element", None),
    ([[0, 0], [0, 0]], "table has no identity element", None),
    ([[1, 1], [1, 1]], "table has no identity element", None),
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "element 1 has no unique inverse", None),
    ([[0, 1, 2], [1, 1, 1], [2, 2, 2]], "element 1 has no unique inverse", None),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], None, "inverse law fails at element 1"),
    (LOOP5, None, "associativity fails at (1,1,2)"),
], ids=["ragged-row", "extra-row", "entry-too-large", "entry-negative", "shape-before-identity",
        "empty", "no-identity", "identity-before-inverses", "two-inverses", "no-inverse",
        "left-inverse-only", "not-associative"])
def test_table_errors(mult, raw, checked):
    if raw is None:
        _table_to_group("t", mult)
    else:
        with pytest.raises(InvalidStructure) as err:
            _table_to_group("t", mult)
        assert str(err.value) == raw
    with pytest.raises(InvalidStructure) as err:
        group_from_table("t", mult)
    assert str(err.value) == (checked or raw)


def test_from_permutations_matches_cyclic():
    c3 = group_from_permutations("Z3", [[1, 2, 0]])
    assert c3.order == 3
    # relabelled cyclic structure: every non-identity element generates
    for a in range(1, 3):
        seen = {a}
        cur = a
        for _ in range(3):
            cur = c3.op(cur, a)
            seen.add(cur)
        assert c3.identity in seen


def test_subgroup_counts():
    assert len(subgroups(cyclic_group(2))) == 2
    assert len(subgroups(cyclic_group(4))) == 3
    assert len(subgroups(symmetric_group(3))) == 6
    assert len(subgroup_class_reps(symmetric_group(3))) == 4


# Permutation generators (image lists on 0..n-1): those of the builtin S4 and
# the standard ones of the benchmark's workspace groups.
PERM_GENERATORS = {
    "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
    "D8": [[1, 2, 3, 0], [2, 1, 0, 3]],
    "C2^4": [[1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7],
             [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]],
    "A5": [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]],
    "S4xC2": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]],
    "A6": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]],
    "S6": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]],
}


def _perm_group(name):
    return group_from_permutations(name, PERM_GENERATORS[name])


def _naive_permutation_table(gens):
    """The elements generated by gens, the identity first and the rest sorted,
    and the table whose entry (a, b) is the index of a after b."""
    ident = tuple(range(len(gens[0])))
    found = {ident}
    frontier = [ident]
    while frontier:
        new = {tuple(p[i] for i in a) for a in frontier for p in gens} - found
        found |= new
        frontier = list(new)
    elems = [ident] + sorted(found - {ident})
    index = {e: i for i, e in enumerate(elems)}
    return elems, [[index[tuple(a[i] for i in b)] for b in elems] for a in elems]


@pytest.mark.parametrize("name", ["D8", "A4", "C2^4", "A5", "S4xC2", "A6"])
def test_from_permutations_matches_naive_table(name):
    gens = PERM_GENERATORS[name]
    elems, mult = _naive_permutation_table(gens)
    g = _perm_group(name)
    assert g.mult == tuple(map(tuple, mult))
    assert g.identity == 0
    assert all(mult[a][g.inverse[a]] == 0 for a in range(len(elems)))
    assert g.generators == tuple(elems.index(tuple(p)) for p in gens)


@pytest.mark.parametrize("gens", [[[1, 0], [0, 1, 2]], [[1.0, 0]], [[True, False]], [[0, 0]]],
                         ids=["mixed-degrees", "float", "bool", "repeated-point"])
def test_from_permutations_rejects_non_permutations(gens):
    with pytest.raises(InvalidStructure, match="is not a permutation of 0..1"):
        group_from_permutations("bad", gens)


def _naive_closure(g, seed):
    """The subgroup generated by seed, closing under all pairwise products."""
    cur = set(seed) | {g.identity}
    while True:
        new = {g.op(a, b) for a in cur for b in cur} - cur
        if not new:
            return frozenset(cur)
        cur |= new


@pytest.mark.parametrize("name, count", [
    ("S4", 30), ("A4", 10), ("D8", 10), ("C2^4", 67), ("A5", 59), ("S5", 156),
    ("S4xC2", 98), ("A6", 501), ("S6", 1455),
])
def test_textbook_subgroup_counts(name, count):
    g = symmetric_group(int(name[1])) if name in ("S4", "S5") else _perm_group(name)
    assert len(subgroups(g)) == count


@pytest.mark.parametrize("name, count", [
    ("S4", 11), ("A4", 5), ("D8", 8), ("C2^4", 67), ("A5", 9), ("S5", 19),
    ("S4xC2", 33), ("A6", 22), ("S6", 56),
])
def test_textbook_subgroup_class_counts(name, count):
    g = symmetric_group(int(name[1])) if name in ("S4", "S5") else _perm_group(name)
    assert len(subgroup_class_reps(g)) == count


def _naive_class_key(g, h):
    """The least sorted conjugate x h x^-1 over every element x."""
    return min(tuple(sorted(g.op(g.op(x, a), g.inv(x)) for a in h)) for x in g.elements())


@pytest.mark.parametrize("name", ["S4", "A5", "S4xC2"])
def test_class_reps_are_the_naive_least_conjugates(name):
    g = _perm_group(name)
    keys = {h: _naive_class_key(g, h) for h in subgroups(g)}
    assert subgroup_class_reps(g) == tuple(sorted(set(keys.values()),
                                                  key=lambda t: (len(t), t)))
    assert all(subgroup_class_key(g, h) == k for h, k in keys.items())


def test_class_reps_build_no_coset_table():
    """Classes come out of the lattice search itself: a coset table per
    subgroup, kept by the memo, took S6's peak RSS to 1 GB."""
    g = _perm_group("A5")
    assert len(subgroup_class_reps(g)) == 9
    assert g.data._cosets == {}


@pytest.mark.parametrize("h", [(0, 3), frozenset({0, 1, 2}), (1,)])
def test_subgroup_class_key_rejects_a_non_subgroup(h):
    s3 = symmetric_group(3)
    assert frozenset(h) not in subgroups(s3)
    with pytest.raises(InvalidStructure, match=re.escape(f"{sorted(h)} is not a subgroup of S3")):
        subgroup_class_key(s3, h)


@pytest.mark.parametrize("name", ["S4", "A5", "S4xC2"])
def test_permutation_groups_are_associative(name):
    """Compiled tables skip the associativity recheck; check it here on all triples."""
    g = _perm_group(name)
    m, n = g.mult, g.order
    assert all(m[m[a][b]][c] == m[a][m[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def test_subgroups_match_naive_closure():
    for name in ("S4xC2", "A5"):
        g = _perm_group(name)
        found = {_naive_closure(g, ())}
        frontier = list(found)
        while frontier:
            h = frontier.pop()
            for x in g.elements():
                k = _naive_closure(g, h | {x})
                if k not in found:
                    found.add(k)
                    frontier.append(k)
        assert subgroups(g) == tuple(sorted(found, key=lambda s: (len(s), sorted(s)))), name


@pytest.mark.parametrize("g", [ctor() for ctor in BUILTIN_GROUPS.values()]
                         + [group_from_table("S3t", symmetric_group(3).mult)],
                         ids=list(BUILTIN_GROUPS) + ["S3-table"])
def test_generating_set_generates(g):
    gens = generating_set(g)
    assert _naive_closure(g, gens) == frozenset(g.elements())
    if g.generators:
        assert gens == g.generators


def test_generating_set_leaves_table_groups_without_generators():
    g = group_from_table("S3t", symmetric_group(3).mult)
    assert len(generating_set(g)) == 2
    assert g.generators == ()


def test_subgroup_class_key_conjugation_invariant():
    s3 = symmetric_group(3)
    two_elt = [h for h in subgroups(s3) if len(h) == 2]
    assert len(two_elt) == 3
    keys = {subgroup_class_key(s3, h) for h in two_elt}
    assert len(keys) == 1


def test_double_cosets_partition():
    s3 = symmetric_group(3)
    hs = subgroups(s3)
    for h in hs:
        for k in hs:
            cosets = double_cosets(s3, h, k)
            pts = sorted(p for c in cosets for p in c)
            assert pts == list(range(6))


@given(st.integers(min_value=1, max_value=8), st.data())
def test_cyclic_group_laws(n, data):
    g = cyclic_group(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert g.op(g.op(a, b), c) == g.op(a, g.op(b, c))
    assert g.op(a, g.inv(a)) == g.identity
    assert g.op(g.identity, a) == a


@pytest.mark.parametrize("name", ["S3", "S4", "D8", "A5", "S3-table"])
def test_coset_tables_match_naive(name):
    if name == "S3-table":
        g = group_from_table("S3t", symmetric_group(3).mult)
    elif name == "S3":
        g = symmetric_group(3)
    else:
        g = _perm_group(name)
    gens = generating_set(g)
    for h in subgroups(g):
        c = g.data.cosets(h)
        left = {x: frozenset(g.op(x, a) for a in h) for x in g.elements()}
        assert list(c.reps) == sorted({min(k) for k in left.values()})
        assert len(c.rows) == len(gens)
        for s, row in zip(gens, c.rows):
            for i, r in enumerate(c.reps):
                assert left[c.reps[row[i]]] == left[g.op(s, r)]
        # the whole action, derived from the generator rows
        action = coset_gset(g, h).action
        for x in g.elements():
            assert left[c.reps[c.coset[x]]] == left[x]
            for i, r in enumerate(c.reps):
                assert left[c.reps[action[x][i]]] == left[g.op(x, r)]
        for r, conj in zip(c.reps, c.conj):
            assert conj == tuple(sorted(g.op(g.op(r, a), g.inv(r)) for a in h))
        assert subgroup_class_key(g, h) == _naive_class_key(g, h)
        # one entry serves every spelling of the subgroup
        assert g.data.cosets(tuple(sorted(h))) is c


def test_equal_groups_compare_and_hash_equal():
    a, b = symmetric_group(4), symmetric_group(4)
    assert a is not b
    subgroups(a)
    a.data.cosets(frozenset({a.identity}))
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
