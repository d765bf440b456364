"""Workspace loading and the command-line driver."""
import argparse
import ast
import inspect
import json
import os
import re
import subprocess
import sys
import types

import pytest
from hypothesis import given, strategies as st

from spanpoly import cli, workspace
from spanpoly.cli import main
from spanpoly.errors import WorkspaceError
from spanpoly.groups import builtin_group
from spanpoly.suites import SUITES, run_suite
from spanpoly.workspace import (
    builtin_workspace,
    dump_json,
    load_dir,
    load_entries,
    poly_to_obj,
    span_to_obj,
)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_builtin_workspace_contents():
    ws = builtin_workspace()
    assert "C2" in ws.groups and "S3" in ws.groups
    assert ws.gset("C2.regular").size == 2
    assert ws.span("C2.free-span").apex.size == 2
    assert ws.poly("S3.free-poly").n.dom.size == 6


def test_builtin_workspace_is_fresh_each_time():
    """Entries loaded into one builtin workspace do not reach the next one."""
    first = builtin_workspace()
    load_entries([{"kind": "group", "name": "Z2", "generators": [[1, 0]]},
                  {"kind": "gset", "name": "Z2.pt", "group": "Z2", "size": 1,
                   "action": [[0], [0]]}], first)
    assert first.gset("Z2.pt").group.name == "Z2"
    load_entries([{"kind": "group", "name": "Z3", "generators": [[1, 2, 0]]}])
    second = builtin_workspace()
    assert "Z2" not in second.groups and "Z3" not in second.groups
    assert "Z2.pt" not in second.gsets and second.gsets.keys() == first.gsets.keys() - {"Z2.pt"}
    assert second.gset("C2.pt") is builtin_workspace().gset("C2.pt")


def test_load_custom_workspace(tmp_path):
    _write(tmp_path, "group.json", {
        "kind": "group", "name": "Z2", "generators": [[1, 0]]})
    _write(tmp_path, "objects.json", [
        {"kind": "gset", "name": "X", "group": "Z2", "size": 2,
         "action_by_generator": [[1, 0]]},
        {"kind": "gset", "name": "P", "group": "Z2", "size": 1,
         "action": [[0], [0]]},
        {"kind": "gmap", "name": "u", "dom": "X", "cod": "P", "table": [0, 0]},
        {"kind": "gmap", "name": "idX", "dom": "X", "cod": "X", "table": [0, 1]},
        {"kind": "span", "name": "loop", "left": "u", "right": "u"},
        {"kind": "poly", "name": "sq", "r": "u", "n": "idX", "t": "u"},
        {"kind": "class", "name": "just-u", "maps": ["u"]},
    ])
    ws = load_dir(str(tmp_path))
    assert ws.gset("X").size == 2
    assert ws.span("loop").apex.size == 2
    assert ws.poly("sq").tgt.size == 1
    assert ws.morphism_class("just-u")(ws.gmap("u"))


def test_load_rejects_bad_table(tmp_path):
    _write(tmp_path, "bad.json", {
        "kind": "gset", "name": "X", "group": "C2", "size": 2,
        "action": [[0, 1], [0, 1], [0, 1]]})
    with pytest.raises(WorkspaceError):
        load_dir(str(tmp_path))


def test_load_rejects_nonequivariant_map(tmp_path):
    _write(tmp_path, "bad.json", {
        "kind": "gmap", "name": "f", "dom": "C2.regular", "cod": "C2.regular",
        "table": [0, 0]})
    with pytest.raises(WorkspaceError):
        load_dir(str(tmp_path))


def test_unknown_reference_message():
    with pytest.raises(WorkspaceError) as err:
        load_entries([{"kind": "gmap", "name": "f", "dom": "nope", "cod": "C2.pt",
                       "table": []}])
    assert "unknown gset" in str(err.value)


def test_serialization_roundtrip():
    ws = builtin_workspace()
    obj = span_to_obj(ws.span("C2.free-span"))
    assert obj["left"]["table"] == [0, 0]
    pobj = poly_to_obj(ws.poly("C2.free-poly"))
    assert pobj["n"]["table"] == [0, 1]
    json.loads(dump_json(obj))


def _stdlib_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_json_leaves = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=8))
_json_trees = st.recursive(
    _json_leaves,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=5)),
    max_leaves=40)


@given(_json_trees)
def test_dump_json_matches_stdlib(obj):
    assert dump_json(obj) == _stdlib_dump(obj)


# objects that dump_json meets more than once at one depth; (1, 0) and
# (True, False) are equal, and so hash alike, but encode differently
_SHARED, _INTS, _BOOLS = (3, "x", None), (1, 0), (True, False)
# a G-set object as `poly_to_obj` passes it, shared by several legs
_GSET = {"group": "C2", "size": 2, "action_by_generator": [[1, 0]]}
# a container of containers
_NESTED = [[1, 2], ("y", [False]), {"k": [None]}]

_EDGE_CASES = {
    "empty-dict": {}, "empty-list": [], "empty-tuple": (),
    "nested-empties": {"a": {}, "b": [], "c": [[]], "d": [{}]},
    "mixed-list": [1, [2], {}],
    "mixed-scalars-and-containers": [[1, 2], 3, "x", None, True, {"k": [False]}],
    "non-ascii": {"\u00e9t\u00e9": "caf\u00e9 \u2603 \U0001d11e", "z": ["\u00fc", "\u4e2d"]},
    "escapes": {"q\"uote": "back\\slash\n\ttab\x00\x1f\x7f", "\n": ["\r", "/"]},
    "deep": {"deep": {"er": {"est": [[[0, -1]], [[2 ** 70]]]}}},
    "one-tuple-at-several-depths":
        {"a": _SHARED, "b": [_SHARED, [_SHARED, {"c": _SHARED}], _SHARED, _SHARED]},
    "equal-ints-and-booleans": [_INTS, _BOOLS, _INTS, [1, 0], _BOOLS, _INTS, _BOOLS, [True, False]],
    "dict-shared-by-two-keys": {"r": {"cod": {"size": 0}, "dom": _GSET},
                                "n": {"dom": _GSET, "cod": _GSET}, "t": {"dom": _GSET}},
    "shared-container-of-containers": [_NESTED, {"a": _NESTED, "b": _NESTED}, _NESTED],
    "container-at-two-depths": {"a": _NESTED, "b": [_NESTED, [_NESTED]], "c": _GSET,
                                "d": [_GSET, _GSET]},
    "top-level-scalar": 5,
    "top-level-string": "caf\u00e9 \"x\"",
    "ints-and-booleans-twice": [_INTS, _BOOLS, [_INTS, _BOOLS], _INTS, _BOOLS],
}


@pytest.mark.parametrize("obj", list(_EDGE_CASES.values()), ids=list(_EDGE_CASES))
def test_dump_json_matches_stdlib_on_edge_cases(obj):
    assert dump_json(obj) == _stdlib_dump(obj)


@pytest.fixture
def without_the_c_encoder():
    """json as without its C module: `dump_json` falls back to `JSONEncoder.encode`."""
    saved = json.encoder.c_make_encoder
    json.encoder.c_make_encoder = None
    workspace._flat_encoder.cache_clear()
    yield
    json.encoder.c_make_encoder = saved
    workspace._flat_encoder.cache_clear()


@pytest.mark.parametrize("obj", list(_EDGE_CASES.values()), ids=list(_EDGE_CASES))
def test_dump_json_matches_stdlib_without_the_c_encoder(without_the_c_encoder, obj):
    assert isinstance(workspace._flat_encoder(1), types.FunctionType)
    assert dump_json(obj) == _stdlib_dump(obj)


def test_dump_json_encodes_each_row_of_a_composites_shared_gset_once(monkeypatch):
    """A composite's A is r.dom and n.dom, one object, so each of its rows is encoded once."""
    from spanpoly.poly import compose_poly
    ws = builtin_workspace()
    comp, _ = compose_poly(ws.poly("S3.free-poly"), ws.poly("S3.free-poly"))
    obj = poly_to_obj(comp)
    assert obj["r"]["dom"] is obj["n"]["dom"] and obj["n"]["cod"] is obj["t"]["dom"]
    encoded: list[int] = []

    def counting(depth):
        encode = flat(depth)
        return lambda o, level: (encoded.append(id(o)), encode(o, level))[1]
    flat = workspace._flat_encoder
    monkeypatch.setattr(workspace, "_flat_encoder", counting)
    assert dump_json(obj) == _stdlib_dump(obj)
    rows = obj["r"]["dom"]["action_by_generator"] + obj["n"]["cod"]["action_by_generator"]
    assert len(rows) >= 2
    assert [encoded.count(id(row)) for row in rows] == [1] * len(rows)


def test_burnside_table_passes_equal_vectors_as_one_object():
    from spanpoly.groups import symmetric_group
    from spanpoly.mackey import burnside_table
    table = burnside_table(symmetric_group(4))
    rows = table.to_dict()["table"]
    assert rows == [list(map(tuple, row)) for row in table.entries]
    vectors = [v for row in rows for v in row]
    assert len({id(v) for v in vectors}) == len(set(vectors)) < len(vectors)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["burnside", "--group", "S4", "--cross-check"],
    ["compose", "--kind", "poly", "S3.free-poly", "S3.free-poly"],
    ["check", "--suite", "cb", "--group", "S3"],
], ids=["burnside", "compose", "check"])
def test_cli_json_output_is_stdlib_rendering(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == _stdlib_dump(json.loads(out))


def test_cli_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    """Each main() call answers as a fresh process would, whatever ran before it."""
    _write(tmp_path, "extra.json", [
        {"kind": "group", "name": "Z2", "generators": [[1, 0]]},
        {"kind": "gset", "name": "Z2.pt", "group": "Z2", "size": 1,
         "action": [[0], [0]]}])
    runs = [["validate", "--workspace", str(tmp_path), "--format", "json"],
            ["validate", "--format", "json"],
            ["compose", "--kind", "poly", "C2.free-poly", "C2.free-poly", "--format", "json"],
            ["burnside", "--group", "S3"],
            ["check", "--suite", "cb", "--group", "C3", "--format", "json"],
            ["compose", "--kind", "span", "C2.free-span", "C2.free-span"]]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "spanpoly.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv

def test_cli_validate(capsys):
    assert main(["validate"]) == 0
    assert "workspace ok" in capsys.readouterr().out


def test_cli_burnside_json(capsys):
    assert main(["burnside", "--group", "S3", "--format", "json",
                 "--cross-check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"] == "S3" and len(doc["atoms"]) == 4


def test_cli_compose_span(capsys, tmp_path):
    out = str(tmp_path / "composite.json")
    assert main(["compose", "--kind", "span", "C2.free-span", "C2.free-span",
                 "--out", out]) == 0
    text = capsys.readouterr().out
    assert "composed span: 1 <- 4 -> 1" in text
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "span"


def test_cli_compose_poly_transcript(capsys):
    assert main(["compose", "--kind", "poly", "C2.free-poly", "C2.free-poly",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "poly"
    assert any(step["rule"] for step in doc["transcript"])


def test_cli_eval_fixed_point(capsys):
    assert main(["eval", "--functor", "fixed-point", "--group", "C2",
                 "--span", "C2.free-span", "--input", "[3]",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == [6]


def test_cli_eval_burnside(capsys):
    assert main(["eval", "--functor", "burnside", "--group", "C2",
                 "--span", "C2.free-span", "--input", "[0, 1]",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sum(doc["value"]) == 1


def test_cli_eval_semiring_poly(capsys):
    assert main(["eval", "--functor", "semiring:naturals", "--group", "triv",
                 "--poly", "triv.free-poly", "--input", "[5]",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == [5]


def test_cli_eval_semiring_over_a_nontrivial_group(capsys):
    """One value per point of the source; C2.free-poly sums over the two points of C2."""
    assert main(["eval", "--functor", "semiring:naturals", "--group", "C2",
                 "--poly", "C2.free-poly", "--input", "[3]"]) == 0
    assert capsys.readouterr().out == "value: [6]\n"


def test_cli_eval_tambara_burnside(capsys):
    assert main(["eval", "--functor", "tambara-burnside", "--group", "C2",
                 "--poly", "C2.free-poly", "--slice-input", "C2.id_pt",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"value_class": "C2[2/1]{stab[0]@0}", "total_size": 2}


def _eval_functor_names():
    """The string literals cmd_eval compares args.functor against."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli.cmd_eval))):
        if isinstance(node, ast.Compare) and ast.unparse(node.left) == "args.functor":
            for c in node.comparators:
                names |= {n.value for n in ast.walk(c) if isinstance(n, ast.Constant)}
    return names


def test_cli_eval_help_names_every_functor():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    choices = next(a.choices for a in sub.choices["eval"]._actions if a.dest == "functor")
    names = _eval_functor_names()
    assert names >= {"burnside", "fixed-point", "tambara-burnside"}
    assert names == set(choices)


def test_cli_eval_refuses_an_unknown_functor_before_reading_input(capsys):
    """The parser names the bad functor; --input, here not even JSON, is never read."""
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "--functor", "bogus", "--input", "[1"])
    assert exit_.value.code == 2
    assert "argument --functor: invalid choice: 'bogus'" in capsys.readouterr().err


def test_readme_suites_list_names_every_suite():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        listed = fh.read().split("\nSuites: ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == sorted(SUITES) + ["all"]


def test_cli_structured_error_on_unknown_name(capsys):
    code = main(["compose", "--kind", "span", "nope", "C2.free-span",
                 "--format", "json"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "WorkspaceError"


def test_cli_structured_error_on_malformed_file(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{not json")
    code = main(["validate", "--workspace", str(tmp_path), "--format", "json"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "WorkspaceError"
    assert "invalid JSON" in doc["error"]["message"]


@pytest.mark.parametrize("entry, named", [
    ({"kind": "group", "name": "Ragged", "mult": [[0, 1], [1]]}, "group 'Ragged'"),
    ({"kind": "gset", "name": "X", "group": "C2", "size": "two",
      "action": [[0, 1], [1, 0]]}, "gset 'X'"),
    ({"kind": "gset", "name": "Y", "group": "C2", "size": 2,
      "action_by_generator": [[0]]}, "gset 'Y'"),
    ({"kind": "class", "name": "K", "maps": 5}, "class 'K'"),
    ({"kind": "gmap", "name": "F", "dom": ["C2.pt"], "cod": "C2.pt",
      "table": [0]}, "gmap 'F'"),
    ({"kind": ["gset"], "name": "Z"}, "entry without a 'kind'"),
], ids=["ragged-mult", "non-integer-size", "generator-row-not-a-permutation",
        "class-maps-not-a-list", "reference-not-a-name", "kind-not-a-name"])
def test_cli_structured_error_on_malformed_entry(tmp_path, capsys, entry, named):
    _write(tmp_path, "bad.json", entry)
    code = main(["validate", "--workspace", str(tmp_path), "--format", "json"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "WorkspaceError"
    assert doc["error"]["message"].startswith(named)


def test_cli_span_names_a_workspace_class(tmp_path, capsys):
    """Classes resolve before spans, so a span may name a class of its own
    workspace; a span naming no class is unchecked, even when the workspace
    defines a class whose whitelist leaves its legs out."""
    _write(tmp_path, "ws.json", [
        {"kind": "span", "name": "loop", "left": "C2.regular_to_pt",
         "right": "C2.regular_to_pt", "class": "mine"},
        {"kind": "span", "name": "plain", "left": "C2.regular_to_pt",
         "right": "C2.regular_to_pt"},
        {"kind": "class", "name": "mine", "maps": ["C2.regular_to_pt"]},
        {"kind": "class", "name": "none", "maps": []},
    ])
    assert main(["validate", "--workspace", str(tmp_path), "--format", "json"]) == 0
    capsys.readouterr()
    ws = load_dir(str(tmp_path))
    assert ws.span("loop").apex.size == ws.span("plain").apex.size == 2


_C3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
_NEW_GSET = {"kind": "gset", "name": "pt", "group": "C2", "size": 1, "action": [[0], [0]]}
_NEW_GMAP = {"kind": "gmap", "name": "to-pt", "dom": "C2.regular", "cod": "C2.pt",
           "table": [0, 0]}
_NEW_SPAN = {"kind": "span", "name": "loop", "left": "C2.regular_to_pt",
            "right": "C2.regular_to_pt"}
_NEW_POLY = {"kind": "poly", "name": "free", "r": "C2.regular_to_pt", "n": "C2.regular_to_pt",
            "t": "C2.id_pt"}
_NEW_CLASS = {"kind": "class", "name": "mine", "maps": ["C2.regular_to_pt"]}


@pytest.mark.parametrize("kind, name, entries", [
    ("group", "C2", [{"kind": "group", "name": "C2", "mult": _C3_TABLE}]),
    ("group", "G", [{"kind": "group", "name": "G", "generators": [[1, 0]]},
                    {"kind": "group", "name": "G", "mult": _C3_TABLE}]),
    ("gset", "C2.pt", [{**_NEW_GSET, "name": "C2.pt"}]),
    ("gset", "pt", [_NEW_GSET, _NEW_GSET]),
    ("gmap", "C2.regular_to_pt", [{**_NEW_GMAP, "name": "C2.regular_to_pt"}]),
    ("gmap", "to-pt", [_NEW_GMAP, _NEW_GMAP]),
    ("span", "C2.free-span", [{**_NEW_SPAN, "name": "C2.free-span"}]),
    ("span", "loop", [_NEW_SPAN, _NEW_SPAN]),
    ("poly", "C2.free-poly", [{**_NEW_POLY, "name": "C2.free-poly"}]),
    ("poly", "free", [_NEW_POLY, _NEW_POLY]),
    ("class", "mine", [_NEW_CLASS, _NEW_CLASS]),
], ids=lambda v: v if isinstance(v, str) else str(len(v)))
def test_cli_workspace_names_are_taken_once(tmp_path, capsys, kind, name, entries):
    """An entry may not reuse a name its kind already holds, whether a builtin
    or an earlier entry gave it: the last entry no longer silently wins."""
    _write(tmp_path, "ws.json", entries)
    code = main(["validate", "--workspace", str(tmp_path), "--format", "json"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "WorkspaceError"
    assert doc["error"]["message"].startswith(f"{kind} {name!r}: the name is already taken")
    # each entry alone, under a fresh name, loads
    for e in entries:
        load_entries([{**e, "name": "fresh"}])


@pytest.mark.parametrize("builtin", ["all", "injective", "surjective", "iso"])
def test_cli_workspace_class_cannot_shadow_a_builtin(tmp_path, capsys, builtin):
    """A class entry named like a builtin is refused, so a span whose left leg
    is not injective cannot pass under a whitelist called 'injective'."""
    _write(tmp_path, "ws.json", [
        {"kind": "class", "name": builtin, "maps": ["C2.regular_to_pt"]},
        {"kind": "span", "name": "loop", "left": "C2.regular_to_pt",
         "right": "C2.regular_to_pt", "class": builtin},
    ])
    code = main(["validate", "--workspace", str(tmp_path), "--format", "json"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "WorkspaceError"
    assert doc["error"]["message"].startswith(f"class {builtin!r}: the name of a builtin class")


def test_cli_span_left_leg_outside_its_class(tmp_path, capsys):
    _write(tmp_path, "ws.json", {"kind": "span", "name": "loop", "left": "C2.regular_to_pt",
                                 "right": "C2.regular_to_pt", "class": "injective"})
    code = main(["validate", "--workspace", str(tmp_path), "--format", "json"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "WorkspaceError"
    assert doc["error"]["message"] == "span 'loop': left leg fails class 'injective'"


# (entry name, field, shape, entry with the value v in that field, a valid v)
INTEGER_FIELDS = [
    ("gset 'X'", "size", "an integer",
     lambda v: {"kind": "gset", "name": "X", "group": "C2", "size": v,
                "action": [[0, 1], [1, 0]]}, 2),
    ("gset 'X'", "action", "a list of lists of integers",
     lambda v: {"kind": "gset", "name": "X", "group": "C2", "size": 2,
                "action": [[0, 1], [v, 0]]}, 1),
    ("gset 'X'", "action_by_generator", "a list of lists of integers",
     lambda v: {"kind": "gset", "name": "X", "group": "C2", "size": 2,
                "action_by_generator": [[v, 0]]}, 1),
    ("gmap 'F'", "table", "a list of integers",
     lambda v: {"kind": "gmap", "name": "F", "dom": "C2.regular", "cod": "C2.pt",
                "table": [0, v]}, 0),
    ("group 'G'", "generators", "a list of lists of integers",
     lambda v: {"kind": "group", "name": "G", "generators": [[v, 0]]}, 1),
    ("group 'G'", "mult", "a list of lists of integers",
     lambda v: {"kind": "group", "name": "G", "mult": [[0, 1], [1, v]]}, 0),
]
INTEGER_FIELD_IDS = [f"{case[0].split()[0]}-{case[1]}" for case in INTEGER_FIELDS]


@pytest.mark.parametrize("bad", [2.5, 1.0, "1", True, None, [1]],
                         ids=["float", "integral-float", "string", "bool", "null", "list"])
@pytest.mark.parametrize("named, field, shape, entry, good", INTEGER_FIELDS,
                         ids=INTEGER_FIELD_IDS)
def test_cli_structured_error_on_non_integer_field(tmp_path, capsys, named, field, shape,
                                                   entry, good, bad):
    load_entries([entry(good)])
    _write(tmp_path, "bad.json", entry(bad))
    code = main(["validate", "--workspace", str(tmp_path), "--format", "json"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "WorkspaceError"
    assert doc["error"]["message"] == f"{named}: field {field!r} must be {shape}; found {bad!r}"


def test_mixed_generator_list_is_a_workspace_error():
    with pytest.raises(WorkspaceError) as err:
        load_entries([{"kind": "group", "name": "G", "generators": [[0, "a"]]}])
    assert str(err.value) == ("group 'G': field 'generators' must be a list of lists "
                              "of integers; found 'a'")


def test_cli_structured_error_on_bad_input_json(capsys):
    code = main(["eval", "--functor", "burnside", "--group", "C2",
                 "--span", "C2.free-span", "--input", "[1, 2",
                 "--format", "json"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "JSONDecodeError"


EVAL_BURNSIDE = ["eval", "--functor", "burnside", "--group", "C2", "--span", "C2.free-span"]


@pytest.mark.parametrize("argv, message", [
    (EVAL_BURNSIDE + ["--input", "5"], "--input must be a JSON list of integers"),
    (EVAL_BURNSIDE + ["--input", "[1, 2, 3]"], "--input has 3 values, expected 2"),
    (EVAL_BURNSIDE + ["--input", "[0, -1]"], "--input must be a JSON list of integers >= 0"),
    (["eval", "--functor", "semiring:naturals", "--group", "triv", "--poly", "triv.free-poly",
      "--input", "[-2]"], "--input must be a JSON list of integers >= 0"),
    (["eval", "--functor", "semiring:booleans", "--group", "triv", "--poly", "triv.free-poly",
      "--input", "[5]"], "--input must be a JSON list of true/false values"),
    (["check", "--suite", "span-laws", "--group", "C2", "--max-size", "-4"],
     "--max-size must be >= 0, not -4"),
    (["compose", "--kind", "poly", "C2.free-poly", "C2.free-poly", "--out", "{missing}"],
     "cannot write --out"),
    (["check", "--suite", "mackey", "--group", "C2", "--class", "surjective"],
     "--class applies only to --suite protocalib or all, not mackey"),
    (["eval", "--functor", "semiring:naturals", "--group", "triv", "--input", "[5]"],
     "semiring evaluation needs --poly"),
], ids=["input-not-a-list", "input-wrong-length", "burnside-input-negative",
        "naturals-input-negative", "booleans-input-not-a-boolean", "max-size-negative",
        "out-in-missing-directory", "class-outside-protocalib", "semiring-without-poly"])
def test_cli_structured_error_on_bad_argument(tmp_path, capsys, argv, message):
    argv = [a.format(missing=tmp_path / "missing" / "x.json") for a in argv]
    assert main(argv + ["--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "SpanPolyError"
    assert doc["error"]["message"].startswith(message)


@pytest.mark.parametrize("argv, message", [
    (["--functor", "burnside", "--group", "C3", "--span", "C2.free-span", "--input", "[0, 1]"],
     "span 'C2.free-span' is over C2, not over --group C3"),
    (["--functor", "fixed-point", "--group", "C2", "--module", "S3.pt",
      "--span", "C2.free-span", "--input", "[3]"],
     "G-set 'S3.pt' is over S3, not over --group C2"),
    (["--functor", "semiring:naturals", "--group", "C2", "--poly", "triv.free-poly",
      "--input", "[5]"], "polynomial 'triv.free-poly' is over triv, not over --group C2"),
    (["--functor", "tambara-burnside", "--group", "S4", "--poly", "C2.free-poly",
      "--slice-input", "C2.id_pt"], "polynomial 'C2.free-poly' is over C2, not over --group S4"),
], ids=["mackey", "fixed-point-module", "semiring", "tambara-burnside"])
def test_cli_eval_refuses_a_value_over_another_group(capsys, argv, message):
    assert main(["eval"] + argv + ["--format", "json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["message"]) == ("SpanPolyError", message)


def test_cli_resource_limit_error_carries_the_guard_fields(capsys):
    """A tripped size guard names its construction, sizes, count and limit in JSON."""
    argv = ["check", "--suite", "distlaw", "--group", "S4"]
    assert main(argv + ["--format", "json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ResourceLimit"
    assert (err["construction"], err["sizes"], err["projected"], err["limit"]) == (
        "dependent product", {"dom": 24, "cod": 1, "slice": 48}, 16777216, 1000000)
    assert err["message"].endswith("16777216 sections, over the limit 1000000")
    assert main(argv) == 2
    assert capsys.readouterr().out == f"error [ResourceLimit]: {err['message']}\n"


def _loaded_in_fresh_process(code: str, modules) -> list[str]:
    """Which of modules are loaded after a fresh interpreter runs code."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code += f"\nimport sys; print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src), check=True)
    return ast.literal_eval(fresh.stdout)


# the modules only `check` and `eval` run; the other commands never load them
_DEFERRED = tuple(f"spanpoly.{m}" for m in ("suites", "sampling", "completion", "tambara"))
# the modules perfbench's tracer wraps after `import spanpoly.cli`
_AT_START = tuple(f"spanpoly.{m}" for m in ("finact", "spans", "mackey", "poly"))


def test_cli_import_loads_no_dataclass_machinery():
    """A fresh `import spanpoly.cli` loads the engines burnside runs, but not
    `dataclasses`, `inspect` or the modules only check and eval run."""
    assert _loaded_in_fresh_process("import spanpoly.cli", (
        "dataclasses", "inspect") + _AT_START + _DEFERRED) == sorted(_AT_START)


def test_burnside_cross_check_loads_no_suite_module():
    code = ("import contextlib, io, spanpoly.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert spanpoly.cli.main(['burnside', '--group', 'S4', '--cross-check']) == 0")
    assert _loaded_in_fresh_process(code, _DEFERRED) == []


def test_cli_suite_names_are_the_sorted_suites():
    assert cli.SUITE_NAMES == tuple(sorted(SUITES))


def test_cli_compose_with_identity_span(capsys):
    assert main(["compose", "--kind", "span", "C2.free-span", "C2.id-span-pt",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["compose", "--kind", "span", "C2.free-span", "C2.free-span",
                 "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)
    # composing with an identity leaves the canonical form of the original
    from spanpoly.spans import span_canonical_form
    from spanpoly.workspace import builtin_workspace
    ws = builtin_workspace()
    assert doc["canonical_form"] == span_canonical_form(ws.span("C2.free-span"))


def test_cli_burnside_c2_text(capsys):
    assert main(["burnside", "--group", "C2"]) == 0
    out = capsys.readouterr().out
    assert "Burnside ring of C2" in out and "2[2]" in out


def test_cli_class_flag_with_whitelist(tmp_path, capsys):
    """A finite whitelist is not iso-closed, so certifying it must fail
    with a concrete witness and a nonzero exit."""
    _write(tmp_path, "cls.json", [
        {"kind": "class", "name": "mine", "maps": ["C2.regular_to_pt"]},
    ])
    code = main(["check", "--suite", "protocalib", "--group", "C2",
                 "--workspace", str(tmp_path), "--class", "mine",
                 "--seed", "2", "--max-size", "4", "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    failing = [c for c in doc["checks"] if not c["passed"]]
    assert failing and all("mine" in c["name"] for c in failing)


def test_cli_class_flag_names_each_check_once(capsys):
    """A builtin class given to --class is certified once, with the other builtins."""
    assert main(["check", "--suite", "protocalib", "--group", "C2", "--class", "surjective",
                 "--seed", "0", "--format", "json"]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert any(n.startswith("protocalibration:surjective/") for n in names)
    assert len(names) == len(set(names))


def test_cli_class_flag_with_all_suites(capsys):
    assert main(["check", "--suite", "all", "--group", "C2", "--class", "surjective",
                 "--max-size", "3", "--format", "json"]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert any(n.startswith("protocalib/protocalibration:surjective/") for n in names)


def test_run_checks_script_reports_a_suite_error_and_goes_on():
    """A tripped guard in one suite is an [ERR ] line; the suites after it still run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run = subprocess.run([sys.executable, os.path.join(root, "scripts", "run_checks.py"),
                          "--groups", "S4"], capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    errors = [line for line in lines if line.startswith("[ERR ]")]
    assert len(errors) == 1 and "S4 distlaw" in errors[0]
    assert "ResourceLimit: dependent product" in errors[0]
    assert sum(line.startswith("[ok  ]") for line in lines) == len(SUITES) - 1
    assert lines[-2] == "1 failing suites"
    assert re.fullmatch(r"peak RSS \d+\.\d MB", lines[-1])


def test_cli_custom_group_everywhere(tmp_path, capsys):
    """Workspace-defined groups work in burnside and check, not just eval."""
    _write(tmp_path, "group.json", {
        "kind": "group", "name": "K4", "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]})
    assert main(["burnside", "--group", "K4", "--workspace", str(tmp_path),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # Klein four group: five subgroups, all normal: five atom classes
    assert len(doc["atoms"]) == 5
    assert main(["check", "--suite", "lextensive", "--group", "K4",
                 "--workspace", str(tmp_path), "--max-size", "4"]) == 0
    capsys.readouterr()


def test_cli_check_deterministic(capsys):
    args = ["check", "--suite", "lextensive", "--group", "C2", "--seed", "11",
            "--max-size", "4", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_check_zero_size_is_empty_pass(capsys):
    assert main(["check", "--suite", "mackey", "--group", "C2", "--seed", "0",
                 "--max-size", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] and doc["checks"] == []


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_report_is_titled_by_its_name_and_size_zero_runs_no_suite(name, monkeypatch):
    c2 = builtin_group("C2")
    assert run_suite(name, c2, 0, 1).title == name
    monkeypatch.setitem(SUITES, name, None)
    empty = run_suite(name, c2, 0, 0)
    assert (empty.title, empty.checks, empty.notes) == (
        name, (), ("size bound 0: empty sample family", "group=C2 seed=0 size_bound=0"))


def test_cli_check_failure_exit_code(capsys, monkeypatch):
    import spanpoly.suites as suites_mod
    from spanpoly.report import Check, Report

    def fake(group, rng, size_bound):
        return Report("fake", (Check("always-fails", False, "synthetic"),))

    monkeypatch.setitem(suites_mod.SUITES, "lextensive", fake)
    code = main(["check", "--suite", "lextensive", "--group", "C2"])
    assert code == 1


def test_cli_burnside_cross_check_failure_exit_code(capsys, monkeypatch):
    """Routes that disagree on valid input fail the check (1), not the input (2)."""
    import spanpoly.cli as cli_mod
    from spanpoly.groups import symmetric_group
    from spanpoly.mackey import BurnsideTable, burnside_table, burnside_table_bruteforce

    def perturbed(group):
        t = burnside_table_bruteforce(group)
        rows = [list(row) for row in t.entries]
        v = rows[1][2]
        rows[1][2] = (v[0] + 1,) + v[1:]
        return BurnsideTable(t.group_name, t.atom_names, t.atom_sizes,
                             tuple(tuple(row) for row in rows))

    monkeypatch.setattr(cli_mod, "burnside_table_bruteforce", perturbed)
    names = burnside_table(symmetric_group(3)).atom_names
    assert main(["burnside", "--group", "S3", "--cross-check", "--format", "json"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "CrossCheckFailed"
    assert f"{names[1]} x {names[2]}" in err["message"]
    assert main(["burnside", "--group", "S3", "--cross-check"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error [CrossCheckFailed]: ") and f"{names[1]} x {names[2]}" in out
