"""The JSON written by `compose`: G-sets by generator, everything else pinned.

Each G-set of a composite is written as its size and one action row per
element of `generator_elements`, which the group object lists.  The test
expands those rows to the full action by a breadth-first search of its
own and compares them with the composite computed in-process.  Leg tables,
sizes, the group table, the rewrite transcript and the canonical form are
pinned by sha256 digests; these depend on how constructions number their
points.  Beside them, each composite's iso class is pinned by an invariant
that no numbering enters (`GOLDEN_CLASSES`: a span's orbit labels, a
polynomial's `helpers.poly_key`), and the seeded composites must be
isomorphic to the composites of relabelled inputs (by `span_iso`, and by
equal ends and keys), so a change of numbering re-pins only `GOLDEN_COMPOSE`.
"""
import contextlib
import hashlib
import io
import json
import random
from collections import deque

import pytest

from spanpoly.cli import main
from spanpoly.finact import GMap, orbit_labels, relabel_gset, render_labels
from spanpoly.groups import subgroup_class_reps, symmetric_group
from spanpoly.poly import Polynomial, compose_poly
from spanpoly.spans import Span, compose_spans, span_iso
from spanpoly.workspace import builtin_workspace, load_dir

from helpers import coset_sum, isomorphic_polys, poly_key, seeded_map

LEGS = {"span": ("left", "right"), "poly": ("r", "n", "t")}


def _seeded_s4_entries(seed):
    """Two composable spans and two composable polynomials over S4, as workspace entries."""
    g = symmetric_group(4)
    reps = subgroup_class_reps(g)
    rng = random.Random(seed)
    sets = {name: coset_sum(g, reps, picks) for name, picks in
            (("X", (8,)), ("Y", (5,)), ("Z", ()), ("A", (4, 6)), ("B", (3, 7)),
             ("R", (6, 9)), ("N", (9,)), ("R2", (8, 9)), ("N2", (9,)))}
    maps = {name: (dom, cod, seeded_map(rng, sets[dom], sets[cod])) for name, dom, cod in
            (("pl", "A", "X"), ("pr", "A", "Y"), ("ql", "B", "Y"), ("qr", "B", "Z"),
             ("r", "R", "X"), ("n", "R", "N"), ("t", "N", "Y"),
             ("r2", "R2", "Y"), ("n2", "R2", "N2"), ("t2", "N2", "Z"))}
    return ([{"kind": "gset", "name": name, "group": "S4", "size": x.size,
              "action": [list(row) for row in x.action]} for name, x in sets.items()]
            + [{"kind": "gmap", "name": name, "dom": dom, "cod": cod, "table": list(f.table)}
               for name, (dom, cod, f) in maps.items()]
            + [{"kind": "span", "name": "p", "left": "pl", "right": "pr"},
               {"kind": "span", "name": "q", "left": "ql", "right": "qr"},
               {"kind": "poly", "name": "P", "r": "r", "n": "n", "t": "t"},
               {"kind": "poly", "name": "Q", "r": "r2", "n": "n2", "t": "t2"}])


def _digest(kind, obj):
    """sha256 of everything but the G-set actions."""
    pinned = {"kind": obj["kind"],
              "group": {k: obj["group"][k] for k in ("name", "order", "mult")},
              "legs": {leg: [obj[leg]["dom"]["size"], obj[leg]["cod"]["size"],
                             obj[leg]["table"]] for leg in LEGS[kind]},
              "transcript": obj.get("transcript"),
              "canonical_form": obj.get("canonical_form")}
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()


def _class_digest(kind, out):
    """sha256 of an iso invariant of a composite that no point numbering enters.

    A span's orbit labels are its iso class; a polynomial's is its `poly_key`.
    """
    if kind == "span":
        text = render_labels(orbit_labels(out.apex, (out.left, out.right)))
    else:
        text = repr(poly_key(out))
    return hashlib.sha256(text.encode()).hexdigest()


def _shuffled(rng, f, perm=None):
    """f read on a seeded relabelling of its domain; returns (map, perm)."""
    if perm is None:
        perm = list(range(f.dom.size))
        rng.shuffle(perm)
    dom, _ = relabel_gset(f.dom, perm)
    inv = [0] * dom.size
    for p, q in enumerate(perm):
        inv[q] = p
    return GMap(dom, f.cod, tuple(f.table[inv[q]] for q in range(dom.size))), perm


def _relabelled(kind, ws, name, rng):
    """The workspace span or polynomial name with its inner G-sets relabelled."""
    if kind == "span":
        p = ws.span(name)
        left, perm = _shuffled(rng, p.left)
        return Span(left, _shuffled(rng, p.right, perm)[0])
    p = ws.poly(name)
    t, perm_b = _shuffled(rng, p.t)
    r, perm_a = _shuffled(rng, p.r)
    n = GMap(r.dom, t.dom, tuple(perm_b[b] for b in _shuffled(rng, p.n, perm_a)[0].table))
    return Polynomial(r, n, t)


def _expand(group_obj, gset_obj):
    """The full action table from the generator rows, by breadth-first search."""
    mult = group_obj["mult"]
    order, size = len(mult), gset_obj["size"]
    identity = next(e for e in range(order) if all(mult[e][a] == a for a in range(order)))
    rows = dict(zip(group_obj["generator_elements"], gset_obj["action_by_generator"],
                    strict=True))
    known = {identity: list(range(size))}
    queue = deque([identity])
    while queue:
        h = queue.popleft()
        for s, row in rows.items():
            sh = mult[s][h]
            if sh not in known:
                known[sh] = [row[v] for v in known[h]]
                queue.append(sh)
    assert len(known) == order
    return [known[g] for g in range(order)]


def _compose(kind, lhs, rhs, workspace=None):
    argv = ["compose", "--kind", kind, lhs, rhs, "--format", "json"]
    if workspace is not None:
        argv += ["--workspace", workspace]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return json.loads(buf.getvalue())


# (kind, lhs, rhs, workspace) -> sha256 of `_digest`
GOLDEN_COMPOSE = {
    ('span', 'triv.free-span', 'triv.free-span', None):
        '8ae9410c39dda26ebb11df2671eaa399e81b67cf1dce2816da478022ed252a95',
    ('poly', 'triv.free-poly', 'triv.free-poly', None):
        '677dba6be5f2e427e07c2d8d837b7d16d87083ed8973fab3d5db9ab8f8dc84a1',
    ('span', 'C2.free-span', 'C2.free-span', None):
        '676a7ef11184f546be658f1caa2776752bcbca68affe183517fd34fb1627dd5b',
    ('poly', 'C2.free-poly', 'C2.free-poly', None):
        'b062f9ebdfb6ad32cd58291cfc61b03628e9bd398824084e107b59b99894e597',
    ('span', 'C3.free-span', 'C3.free-span', None):
        '30ec5e13bcb57e2bc435293f388b352d0f7f1c59c6b4efa4f47e8dcddd21c23f',
    ('poly', 'C3.free-poly', 'C3.free-poly', None):
        'e6c55ed553d87af3f89690fa98af8061eea4c255b88a029760548c52804e203f',
    ('span', 'C4.free-span', 'C4.free-span', None):
        'ae108832ef7cf707eb7beb848abd315cb480c8c663e9c6a56154a4de98f7a816',
    ('poly', 'C4.free-poly', 'C4.free-poly', None):
        'bc19910b2848caff1d8cc126c2e968fc2a0b4bb40f88f97d22183b778ac92306',
    ('span', 'S3.free-span', 'S3.free-span', None):
        'c6662e17bc0f1f791454bfab9f9930cb3d47835b33ce232d27e31538838adccd',
    ('poly', 'S3.free-poly', 'S3.free-poly', None):
        'd229e229f9947536a21ec9823e342c2ad86c5af3393fa21e6b17432d6f1f11fc',
    ('span', 'S4.free-span', 'S4.free-span', None):
        'f37f1b33e6dcc9d9fc9d2bcfd1e41a0c3500c1a82ef29e4c561b16dd7030a6a5',
    ('poly', 'S4.free-poly', 'S4.free-poly', None):
        '15043ddba0c6f2a850775c0b68d94c455eb1e0cd9bfa23e9f4112c0c04ecae08',
    ('span', 'p', 'q', 'seeded-S4'):
        '194ece6c922ab81c56ad5ffd078592380de7b053e489b2fcf38dbe2c3ebb6b90',
    ('poly', 'P', 'Q', 'seeded-S4'):
        '5c03469654d7b33fc96a6c24a8035c3f9a8e98eeae97b227873d5b3631c40d24',
}

# (kind, lhs, rhs, workspace) -> sha256 of `_class_digest`
GOLDEN_CLASSES = {
    ('span', 'triv.free-span', 'triv.free-span', None):
        'a1333fb1d9d232a73baf1c87554f26999d134b9c0ebe994b128bf8cbbfc582b6',
    ('poly', 'triv.free-poly', 'triv.free-poly', None):
        '6ca565036f972758d73a4d076aeeb6b0064cab9ac5624a5bad0337264af414fa',
    ('span', 'C2.free-span', 'C2.free-span', None):
        'c9523603282a054650ef43549c5cb5281c0d1f0bfc40440969942cd777045f16',
    ('poly', 'C2.free-poly', 'C2.free-poly', None):
        '1a2529ced3ef74aa9d42175aff9595ee62649a2a319d0656b6fff4b7b7af1d92',
    ('span', 'C3.free-span', 'C3.free-span', None):
        'a3de8b4ba73f4d0dc9da8e855881f7551d89d0a94d2dde96c5393df1574c82b8',
    ('poly', 'C3.free-poly', 'C3.free-poly', None):
        '0f8895075d81ff5cfb35e75b86bbc2c09fe46f76431eb074cc497d1b172a6945',
    ('span', 'C4.free-span', 'C4.free-span', None):
        '6f6ccd5f14a850c747b38dd1216fb81b9d78a76bc8f3eb784781ef1c4e7d7e16',
    ('poly', 'C4.free-poly', 'C4.free-poly', None):
        '1ab89a602e82ae4a3c949d21ca3f7752e6d99408b6cd32f6ce4aefd4743b4cab',
    ('span', 'S3.free-span', 'S3.free-span', None):
        '44bf9180328d492bf8bc53486cc87fcbdc4bfe196555f936e90766d30cd385a3',
    ('poly', 'S3.free-poly', 'S3.free-poly', None):
        'd4f478da16713e72a9818900a5060f7d2e91a3ba2b441610ca7386e5b75f09d6',
    ('span', 'S4.free-span', 'S4.free-span', None):
        '737ae5821359cfa869074aa5f2e6523db73ac119974b1e278733c45ee7d4ce10',
    ('poly', 'S4.free-poly', 'S4.free-poly', None):
        '2a1da143341a8899d152fc3c5832679d93a652962ea8cef06908445f42b9fd02',
    ('span', 'p', 'q', 'seeded-S4'):
        'a31333b8f440b09ff7045d8ba42419785281d622aa3a6dc620eed96227e9b8f0',
    ('poly', 'P', 'Q', 'seeded-S4'):
        '1661a67ea582d78d9ab1e4796681c0d937c7dd76c26a3df5f8402fea31294de3',
}

SEEDED = {"span": ("p", "q"), "poly": ("P", "Q")}
CASES = ([(kind, f"{g}.free-{kind}", f"{g}.free-{kind}", None)
          for g in ("triv", "C2", "C3", "C4", "S3", "S4") for kind in LEGS]
         + [(kind, lhs, rhs, "seeded-S4") for kind, (lhs, rhs) in SEEDED.items()])


@pytest.fixture(scope="module")
def seeded_ws(tmp_path_factory):
    path = tmp_path_factory.mktemp("seeded-s4")
    (path / "s4.json").write_text(json.dumps(_seeded_s4_entries(7)))
    return str(path)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[3] or 'builtin'}")
def test_compose_output_by_generator(case, seeded_ws):
    kind, lhs, rhs, ws_name = case
    ws_path = seeded_ws if ws_name else None
    obj = _compose(kind, lhs, rhs, ws_path)
    ws = load_dir(ws_path) if ws_path else builtin_workspace()
    if kind == "span":
        out = compose_spans(ws.span(lhs), ws.span(rhs))
    else:
        out = compose_poly(ws.poly(lhs), ws.poly(rhs))[0]
    assert _digest(kind, obj) == GOLDEN_COMPOSE[case]
    assert _class_digest(kind, out) == GOLDEN_CLASSES[case]
    if ws_name:
        rng = random.Random(11)
        lhs2, rhs2 = (_relabelled(kind, ws, name, rng) for name in (lhs, rhs))
        if kind == "span":
            assert span_iso(out, compose_spans(lhs2, rhs2)) is not None
        else:
            assert isomorphic_polys(out, compose_poly(lhs2, rhs2)[0])
    for leg in LEGS[kind]:
        for end in ("dom", "cod"):
            x = getattr(getattr(out, leg), end)
            assert set(obj[leg][end]) == {"group", "size", "action_by_generator"}
            assert _expand(obj["group"], obj[leg][end]) == [list(row) for row in x.action]
