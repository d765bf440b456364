"""The JSON written by `compose`: G-sets by generator, everything else pinned.

Each G-set of a composite is written as its size and one action row per
element of `generator_elements`, which the group object lists.  The test
expands those rows to the full action by a breadth-first search of its
own and compares them with the composite computed in-process.  Leg tables,
sizes, the group table, the rewrite transcript and the canonical form are
pinned by sha256 digests captured before the format change.
"""
import contextlib
import hashlib
import io
import json
import random
from collections import deque

import pytest

from spanpoly.cli import main
from spanpoly.groups import subgroup_class_reps, symmetric_group
from spanpoly.poly import compose_poly
from spanpoly.spans import compose_spans
from spanpoly.workspace import builtin_workspace, load_dir

from helpers import coset_sum, seeded_map

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
        '890ca4085ffeb36f4c7d5a451c3d3c4ce91c716fc6290ea45292060c5ef1c3d5',
    ('poly', 'P', 'Q', 'seeded-S4'):
        'a08d7cbc3b742c2db2d678ef6ee5b0aa5ee4e83a5622cc8874570e8c60504221',
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
    for leg in LEGS[kind]:
        for end in ("dom", "cod"):
            x = getattr(getattr(out, leg), end)
            assert set(obj[leg][end]) == {"group", "size", "action_by_generator"}
            assert _expand(obj["group"], obj[leg][end]) == [list(row) for row in x.action]
