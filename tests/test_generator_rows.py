"""G-sets stored by generator rows, checked against full tables built naively.

A G-set keeps one action row per element of `generating_set(group)`; its
full table `action` is derived on demand.  Each builder is checked to store
exactly those rows, and the derived table is checked against the images of
every group element computed straight from the multiplication table or
from the factors' actions.  The readers `point_images`, `stabilizer`,
`orbits` and `orbit_cosets` are checked against full-table scans.
"""
import random
import re

import pytest

from spanpoly import finact
from spanpoly.errors import InvalidStructure, ResourceLimit, WorkspaceError
from spanpoly.finact import (
    GSet,
    SliceObject,
    build_gset,
    coproduct,
    coset_gset,
    equivariant_maps,
    from_labels,
    gset,
    identity_gmap,
    initial_gset,
    orbit_cosets,
    pi,
    point_images,
    product,
    pullback,
    relabel_gset,
    terminal_gset,
    unique_to_terminal,
)
from spanpoly.groups import (
    generating_set,
    group_from_permutations,
    group_from_table,
    subgroup_class_reps,
    subgroups,
    symmetric_group,
    trivial_group,
)
from spanpoly.sampling import random_gset
from spanpoly.workspace import builtin_workspace, gset_to_obj, load_entries

from helpers import coset_sum, orbits, pairs, relabelled_group, sections, seeded_map, stabilizer

GROUPS = {
    "triv": trivial_group(),
    "S3": symmetric_group(3),
    "S4": symmetric_group(4),
    "D8": group_from_permutations("D8", [[1, 2, 3, 0], [2, 1, 0, 3]]),
    "S3-table": group_from_table("S3t", symmetric_group(3).mult),
    "S3-identity-at-3": relabelled_group("S3r", symmetric_group(3), [3, 0, 1, 2, 4, 5]),
}


@pytest.fixture(params=list(GROUPS), ids=list(GROUPS))
def group(request):
    return GROUPS[request.param]


def _coset_table(group, h):
    """g acting on the left cosets of h, numbered by least element, from mult alone."""
    mult = group.mult
    cosets = []
    for g in group.elements():
        if not any(g in c for c in cosets):
            cosets.append(frozenset(mult[g][a] for a in h))
    index = {g: i for i, c in enumerate(cosets) for g in c}
    reps = [min(c) for c in cosets]
    return [tuple(index[mult[g][r]] for r in reps) for g in group.elements()]


def _sum_tables(*tables):
    """The full table of a coproduct, from the full tables of its summands."""
    out = [[] for _ in tables[0]]
    size = 0
    for table in tables:
        for row, trow in zip(out, table):
            row.extend(size + q for q in trow)
        size += len(table[0])
    return [tuple(row) for row in out]


def _assert_generator_rows(x, naive):
    """x stores one row per generator, and its derived table is the naive one."""
    gens = generating_set(x.group)
    assert len(x.rows) == len(gens)
    assert x.rows == tuple(tuple(naive[s]) for s in gens)
    assert list(x.action) == [tuple(row) for row in naive]
    assert all(x.act(g, p) == naive[g][p] for g in x.group.elements() for p in x.points())
    x.validate()


def _samples(group, seed):
    rng = random.Random(seed)
    reps = subgroup_class_reps(group)

    def sum_of(k):
        return coset_sum(group, reps, [rng.randrange(len(reps)) for _ in range(k)])
    return rng, sum_of


@pytest.mark.parametrize("seed", range(2))
def test_builders_store_generator_rows(group, seed):
    rng, sum_of = _samples(group, seed)
    hs = [rng.choice(subgroups(group)) for _ in range(3)]
    for h in hs:
        _assert_generator_rows(coset_gset(group, h), _coset_table(group, h))
    labelled, _ = from_labels(group, (), [(h, ()) for h in hs])
    naive = _sum_tables(*(_coset_table(group, h) for h in hs))
    _assert_generator_rows(labelled, naive)
    _assert_generator_rows(terminal_gset(group), [(0,)] * group.order)
    _assert_generator_rows(initial_gset(group), [()] * group.order)

    x, y = sum_of(2), sum_of(1)
    _assert_generator_rows(coproduct(x, y).sum, _sum_tables(x.action, y.action))
    perm = list(range(x.size))
    rng.shuffle(perm)
    copy, iso = relabel_gset(x, perm)
    inv = sorted(x.points(), key=perm.__getitem__)
    _assert_generator_rows(copy, [tuple(perm[x.act(g, inv[q])] for q in x.points())
                                  for g in group.elements()])
    iso.validate()

    f, g = seeded_map(rng, sum_of(2), y), seeded_map(rng, sum_of(2), y)
    for con, (a, b) in ((pullback(f, g), (f.dom, g.dom)), (product(x, y), (x, y))):
        descs = pairs(con)
        index = {e: i for i, e in enumerate(descs)}
        _assert_generator_rows(con.gset, [[index[(a.act(h, e[0]), b.act(h, e[1]))]
                                           for e in descs] for h in group.elements()])

    cop = coproduct(f.dom, sum_of(1))
    s = SliceObject(cop.cotuple(identity_gmap(f.dom), seeded_map(rng, cop.right, f.dom)))
    pd = pi(f, s)
    fib = [[p for p in f.dom.points() if f.table[p] == u] for u in f.cod.points()]

    def act(h, e):
        u, sec = e
        hu = f.cod.act(h, u)
        return hu, tuple(s.total.act(h, sec[fib[u].index(f.dom.act(group.inv(h), q))])
                         for q in fib[hu])
    descs = sections(pd)
    index = {e: i for i, e in enumerate(descs)}
    _assert_generator_rows(pd.con.gset, [[index[act(h, e)] for e in descs]
                                         for h in group.elements()])


def test_loaded_gsets_store_generator_rows(group):
    """A G-set loaded from a full `action` table, and from `action_by_generator`."""
    regular = [list(row) for row in group.mult]  # g acting on h is g.h
    ws = builtin_workspace()
    ws.groups["G"] = group
    entries = [{"kind": "gset", "name": "R", "group": "G", "size": group.order,
                "action": regular}]
    if group.generators:
        entries.append({"kind": "gset", "name": "Q", "group": "G", "size": group.order,
                        "action_by_generator": [regular[s] for s in group.generators]})
    ws = load_entries(entries, ws)
    x = ws.gset("R")
    _assert_generator_rows(x, regular)
    assert x == coset_gset(group, (group.identity,))
    assert gset_to_obj(x)["action_by_generator"] == [list(row) for row in x.rows]
    if group.generators:
        y = ws.gset("Q")
        _assert_generator_rows(y, regular)
        assert y == x and hash(y) == hash(x)


def test_generator_rows_must_satisfy_the_relations():
    """Permutation rows that break a relation of the group are rejected."""
    d8 = GROUPS["D8"]
    bad = GSet(d8, 3, ((1, 2, 0), (0, 1, 2)))  # a 3-cycle cannot have order 4
    with pytest.raises(InvalidStructure, match="action not compatible"):
        bad.validate()
    with pytest.raises(InvalidStructure, match="one permutation row per generator"):
        GSet(d8, 2, ((1, 0),)).validate()
    ws = builtin_workspace()
    ws.groups["D8"] = d8
    with pytest.raises(WorkspaceError, match="gset 'X': action not compatible"):
        load_entries([{"kind": "gset", "name": "X", "group": "D8", "size": 3,
                       "action_by_generator": [[1, 2, 0], [0, 1, 2]]}], ws)


@pytest.mark.parametrize("rows, detail", [
    ([[1, 0, 2]], "1 rows, expected 2"),
    ([[1, 2, 3, 0], [0, 1, 2, 2]], "row 1 is not a permutation of 0..3"),
], ids=["row-count", "not-a-permutation"])
def test_workspace_generator_row_refusals_name_the_row(rows, detail):
    """A loaded G-set's rows are checked by `GSet.validate` alone, whose
    refusal names the row count or the offending row."""
    ws = builtin_workspace()
    ws.groups["D8"] = GROUPS["D8"]
    message = f"gset 'Y': action needs one permutation row per generator: {detail}"
    with pytest.raises(WorkspaceError, match=f"^{re.escape(message)}$"):
        load_entries([{"kind": "gset", "name": "Y", "group": "D8", "size": len(rows[0]),
                       "action_by_generator": rows}], ws)


@pytest.mark.parametrize("seed", range(3))
def test_readers_match_full_table_scans(group, seed):
    rng = random.Random(seed)
    hs = [rng.choice(subgroups(group)) for _ in range(3)]
    x, _ = from_labels(group, (), [(h, ()) for h in hs])
    table = _sum_tables(*(_coset_table(group, h) for h in hs))
    for p in x.points():
        assert point_images(x, p) == [row[p] for row in table]
        assert stabilizer(x, p) == tuple(g for g, row in enumerate(table) if row[p] == p)
    naive_orbits = sorted({tuple(sorted({row[p] for row in table})) for p in x.points()})
    assert orbits(x) == tuple(naive_orbits)
    records = orbit_cosets(x)
    assert [(o.rep, sorted(o.points)) for o in records] == [(o[0], list(o)) for o in naive_orbits]
    for o in records:
        least = {}  # the least element moving rep to each point
        for g, row in enumerate(table):
            least.setdefault(row[o.rep], g)
        assert o.stab == tuple(g for g, row in enumerate(table) if row[o.rep] == o.rep)
        for q, r, conj in zip(o.points, o.cosets.reps, o.cosets.conj):
            assert table[r][o.rep] == q and least[q] == r
            assert conj == tuple(g for g, row in enumerate(table) if row[q] == q)


def test_equal_gsets_built_apart_compare_and_hash_equal(group):
    hs = subgroups(group)
    h = hs[len(hs) // 2]
    a = coset_gset(group, h)
    b = coset_gset(type(group)(*(getattr(group, f) for f in
                                  ("name", "mult", "identity", "inverse", "generators"))), h)
    assert a is not b and a == b and hash(a) == hash(b)
    _ = a.action  # deriving the table changes neither equality nor hash
    assert a == b and hash(a) == hash(b)
    c, _ = relabel_gset(a, list(range(a.size)))
    assert c == a and hash(c) == hash(a)
    x = coproduct(a, terminal_gset(group)).sum
    y = from_labels(group, (), [(h, ()), (tuple(group.elements()), ())])[0]
    assert x == y and hash(x) == hash(y)


# ---------------------------------------------------------------------------
# sampling: one from_labels call in draw order
# ---------------------------------------------------------------------------

def _random_gset_by_coproducts(rng, group, max_size):
    """The former route: one coset G-set per drawn orbit, joined by coproducts."""
    if max_size <= 0:
        return initial_gset(group)
    out = None
    for _ in range(rng.randint(1, 3)):
        orb = coset_gset(group, rng.choice(subgroups(group)))
        if (0 if out is None else out.size) + orb.size > max_size:
            continue
        out = orb if out is None else coproduct(out, orb).sum
    return terminal_gset(group) if out is None else out


@pytest.mark.parametrize("name", ["triv", "C2", "C3", "C4", "S3", "S4"])
def test_random_gset_matches_coproduct_route(name):
    group = builtin_workspace().group(name)
    for seed in range(60):
        for max_size in (0, 1, 3, 6, 12):
            r1, r2 = random.Random(seed), random.Random(seed)
            x = random_gset(r1, group, max_size)
            assert x == _random_gset_by_coproducts(r2, group, max_size)
            assert r1.getstate() == r2.getstate()


# ---------------------------------------------------------------------------
# structured guard errors
# ---------------------------------------------------------------------------

def _fold(x):
    """The codiagonal x + x -> x."""
    return coproduct(x, x).cotuple(identity_gmap(x), identity_gmap(x))


def test_guard_errors_carry_their_fields(monkeypatch):
    s3 = symmetric_group(3)
    reg = coset_gset(s3, (s3.identity,))
    # one fiber, all 6 points of reg, each with 2 preimages: 2**6 sections
    fold = SliceObject(_fold(reg))
    monkeypatch.setattr(finact, "MAX_POINTS", 10)
    with pytest.raises(ResourceLimit) as err:
        pi(unique_to_terminal(reg), fold)
    e = err.value
    assert (e.construction, e.sizes, e.projected, e.limit) == \
        ("dependent product", {"dom": 6, "cod": 1, "slice": 12}, 64, 10)
    assert str(e) == ("dependent product (dom=6, cod=1, slice=12) would have 64 sections, "
                      "over the limit 10")

    monkeypatch.setattr(finact, "MAX_POINTS", 6)
    with pytest.raises(ResourceLimit) as err:
        build_gset(s3, 7, [list(range(7))] * len(generating_set(s3)))
    e = err.value
    assert (e.construction, e.sizes, e.projected, e.limit) == \
        ("G-set construction", {"descriptors": 7}, 7, 6)
    assert "descriptors=7" in str(e) and "7 points" in str(e) and "limit 6" in str(e)

    monkeypatch.setattr(finact, "MAX_MAPS", 5)
    with pytest.raises(ResourceLimit) as err:
        next(equivariant_maps(reg, reg))
    e = err.value
    assert (e.construction, e.sizes, e.projected, e.limit) == \
        ("equivariant maps", {"dom": 6, "cod": 6}, 6, 5)
    assert "dom=6, cod=6" in str(e) and "6 maps" in str(e) and "limit 5" in str(e)


def test_pullback_and_product_guards_trip_before_the_pairs(monkeypatch):
    """The pair count comes from the fiber sizes; the guard trips before any pair is built."""
    s3 = symmetric_group(3)
    reg = coset_gset(s3, (s3.identity,))
    cop, fold = coproduct(reg, reg), _fold(reg)
    # fold pulled back along itself: 6 fibers of 2 points, 24 pairs; reg x reg: 36 pairs
    assert pullback(fold, fold).gset.size == 24 and product(reg, reg).gset.size == 36

    def no_build(*args):
        raise AssertionError("build_gset reached past the guard")

    monkeypatch.setattr(finact, "build_gset", no_build)
    monkeypatch.setattr(finact, "MAX_POINTS", 20)
    for build, n in ((lambda: pullback(fold, fold), 24), (lambda: product(reg, reg), 36),
                     (lambda: product(cop.sum, reg), 72)):
        with pytest.raises(ResourceLimit) as err:
            build()
        e = err.value
        assert (e.construction, e.sizes, e.projected, e.limit) == \
            ("G-set construction", {"descriptors": n}, n, 20)
        assert str(e) == (f"G-set construction (descriptors={n}) would have {n} points, "
                          "over the limit 20")


def test_pi_guard_projects_the_whole_count(monkeypatch):
    """The projected count is the full section count, not the first partial sum over the limit."""
    s3 = symmetric_group(3)
    reg = coset_gset(s3, (s3.identity,))
    u = _fold(reg)  # 6 fibers of 2 points each
    a = SliceObject(_fold(u.dom))  # 2 preimages per point: 4 sections per fiber
    assert pi(u, a).con.gset.size == 24
    monkeypatch.setattr(finact, "MAX_POINTS", 5)
    with pytest.raises(ResourceLimit) as err:
        pi(u, a)
    assert (err.value.projected, err.value.limit) == (24, 5)
