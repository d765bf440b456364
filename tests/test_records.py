"""Value semantics of the record classes: equality, hash, repr and immutability.

Each case builds a record from a factory, so two calls give distinct but
equal field values.  The expected field lists are written out here, in
declaration order, rather than read off the classes.
"""
import copy
import operator
import pickle

import pytest

from spanpoly.calib import MorphismClass
from spanpoly.completion import CompletionObject
from spanpoly.finact import GMap, GSet, SliceObject, identity_gmap, regular_gset
from spanpoly.groups import FiniteGroup, cyclic_group
from spanpoly.mackey import BurnsideTable
from spanpoly.poly import (
    Gen,
    PolyMorphism,
    Polynomial,
    SpanOfSpans,
    SpanSpan2Cell,
)
from spanpoly.report import Check, Report
from spanpoly.semirings import CommSemiring
from spanpoly.spans import Span
from spanpoly.util_linear import LinMap
from spanpoly.workspace import Workspace


def _group():
    return cyclic_group(2)


def _gset():
    return regular_gset(_group())


def _gmap():
    return identity_gmap(_gset())


def _span():
    return Span(_gmap(), _gmap())


def _poly():
    return Polynomial(_gmap(), _gmap(), _gmap())


def _spanspan():
    return SpanOfSpans(_gset(), _span(), _span())


# class, factory of its field values, every field in order, the compared fields
FROZEN = [
    (FiniteGroup, lambda: ("C2", ((0, 1), (1, 0)), 0, (0, 1), (1,)),
     ("name", "mult", "identity", "inverse", "generators"),
     ("name", "mult", "identity", "inverse", "generators")),
    (GSet, lambda: (_group(), 2, ((1, 0),)), ("group", "size", "rows"),
     ("group", "size", "rows")),
    (GMap, lambda: (_gset(), _gset(), (0, 1)), ("dom", "cod", "table"),
     ("dom", "cod", "table")),
    (SliceObject, lambda: (_gmap(),), ("arrow",), ("arrow",)),
    (MorphismClass, lambda: ("all", bool), ("name", "predicate"), ("name",)),
    (CommSemiring, lambda: ("naturals", operator.add, operator.mul, 0, 1, (0, 1, 2)),
     ("name", "add", "mul", "zero", "one", "sample_elements"),
     ("name", "zero", "one", "sample_elements")),
    (Check, lambda: ("law", True, "witness"), ("name", "passed", "detail"),
     ("name", "passed", "detail")),
    (Report, lambda: ("title", (Check("law", True),), ("note",)),
     ("title", "checks", "notes"), ("title", "checks", "notes")),
    (LinMap, lambda: (2, 1, ((1,), (3,))), ("src", "tgt", "rows"), ("src", "tgt", "rows")),
    (Span, lambda: (_gmap(), _gmap()), ("left", "right"), ("left", "right")),
    (Polynomial, lambda: (_gmap(), _gmap(), _gmap()), ("r", "n", "t"), ("r", "n", "t")),
    (SpanOfSpans, lambda: (_gset(), _span(), _span()), ("apex", "left", "right"),
     ("apex", "left", "right")),
    (PolyMorphism, lambda: (_poly(), _poly(), _gmap(), _gmap()), ("src", "tgt", "g", "ell"),
     ("src", "tgt", "g", "ell")),
    (SpanSpan2Cell, lambda: (_spanspan(), _spanspan(), _gmap(), _span(), _gmap()),
     ("src", "tgt", "apex_map", "composite", "lam"),
     ("src", "tgt", "apex_map", "composite", "lam")),
    (Gen, lambda: ("Sigma", _gmap()), ("kind", "f"), ("kind", "f")),
    (CompletionObject, lambda: (_gmap(), (0, 1)), ("u", "x"), ("u", "x")),
    (BurnsideTable, lambda: ("C2", ("C2/C2", "C2/1"), (1, 2), (((1, 0),), ((0, 1),))),
     ("group_name", "atom_names", "atom_sizes", "entries"),
     ("group_name", "atom_names", "atom_sizes", "entries")),
]

MUTABLE = [
    (Workspace, lambda: ({"C2": _group()}, {"x": _gset()}, {"f": _gmap()}, {}, {}, {}),
     ("groups", "gsets", "gmaps", "spans", "polys", "classes")),
]

ALL = [(cls, make, fields) for cls, make, fields, _ in FROZEN] + MUTABLE


def _ids(cases):
    return [case[0].__name__ for case in cases]


@pytest.mark.parametrize("cls, make, fields, compared", FROZEN, ids=_ids(FROZEN))
def test_frozen_equality_and_hash(cls, make, fields, compared):
    a, b = cls(*make()), cls(*make())
    assert a is not b and a == b and not a != b
    key = tuple(getattr(a, name) for name in compared)
    assert hash(a) == hash(b) == hash(key)
    assert len({a, b}) == 1
    assert a != key and a != tuple(getattr(a, name) for name in fields)


@pytest.mark.parametrize("cls, make, fields, compared", FROZEN, ids=_ids(FROZEN))
def test_only_compared_fields_decide_equality(cls, make, fields, compared):
    a = cls(*make())
    if cls is LinMap:  # the shape is checked when built, so vary an entry only
        assert LinMap(2, 1, ((1,), (4,))) != a
        return
    for i, name in enumerate(fields):
        values = list(make())
        values[i] = object()
        changed = cls(*values)
        if name in compared:
            assert changed != a and a != changed
        else:
            assert changed == a and hash(changed) == hash(a)


@pytest.mark.parametrize("cls, make, fields, compared", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_refuse_assignment(cls, make, fields, compared):
    a = cls(*make())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, name) for name in fields) == make()


@pytest.mark.parametrize("cls, make, fields", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_compare_and_are_unhashable(cls, make, fields):
    a, b = cls(*make()), cls(*make())
    assert a == b and a != tuple(getattr(a, name) for name in fields)
    with pytest.raises(TypeError):
        hash(a)
    setattr(a, fields[-1], None)
    assert getattr(a, fields[-1]) is None and a != b


@pytest.mark.parametrize("cls, make, fields", ALL, ids=_ids(ALL))
def test_repr_matches_the_dataclass_format(cls, make, fields):
    a = cls(*make())
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, make, fields", ALL, ids=_ids(ALL))
def test_copy_and_pickle_round_trip(cls, make, fields):
    a = cls(*make())
    assert type(copy.copy(a)) is cls and copy.copy(a) == a
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_records_of_different_classes_never_compare_equal():
    g = _gmap()
    assert Span(g, g) != Gen(g, g) and Gen(g, g) != Span(g, g)
    assert SpanOfSpans(g, g, g) != Polynomial(g, g, g)
    assert Check("x", True) != ("x", True, "")


def test_keyword_arguments_and_defaults():
    assert Check("law", True) == Check(name="law", passed=True, detail="")
    assert Report("t", ()).notes == ()
    assert CommSemiring("s", max, min).sample_elements == (0, 1)
    assert FiniteGroup("C2", ((0, 1), (1, 0)), 0, (0, 1)).generators == ()
    assert Workspace().groups == {} and Workspace().groups is not Workspace().groups


def test_caches_stay_outside_equality_and_hash():
    x, y = _gset(), _gset()
    assert "action" not in vars(x)
    assert x.action == ((0, 1), (1, 0)) and "action" in vars(x)
    assert x == y and hash(x) == hash(y)
    g, h = _group(), cyclic_group(2)
    g.data.subgroups
    assert "data" in vars(g) and g == h and hash(g) == hash(h)
    # the group's hash is computed once and stored beside its data
    g = cyclic_group(3)
    fields = hash((g.name, g.mult, g.identity, g.inverse, g.generators))
    assert "_hash" not in vars(g)
    assert hash(g) == fields and vars(g)["_hash"] == fields
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == fields
    stale = cyclic_group(3)
    vars(stale)["_hash"] = fields + 1
    assert stale == g and "_hash" not in repr(stale)


def test_linear_map_shape_is_checked():
    with pytest.raises(ValueError, match="declared shape"):
        LinMap(2, 1, ((1,),))
