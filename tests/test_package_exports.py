"""The package's re-exports resolve on first use, each to its defining module's object."""
from importlib import import_module

import pytest

import spanpoly

# every name `spanpoly` re-exports, by the module that defines it
EXPORTS = {
    "calib": ("ALL_MAPS", "INJECTIVE_MAPS", "ISO_MAPS", "SURJECTIVE_MAPS", "MorphismClass",
              "check_compatible_pair", "check_protocalibration"),
    "errors": ("BoundaryMismatch", "ClassViolation", "GroupMismatch", "InvalidStructure",
               "ProbeFailure", "ResourceLimit", "SpanPolyError", "WorkspaceError"),
    "finact": ("GMap", "GSet", "SliceObject", "canonical_form", "coproduct", "delta", "gmap",
               "gset", "identity_gmap", "iso_gsets", "pi", "pi_slice", "product", "pullback",
               "regular_gset", "sigma", "slice_iso", "terminal_gset"),
    "groups": ("FiniteGroup", "cyclic_group", "group_from_permutations", "group_from_table",
               "symmetric_group", "trivial_group"),
    "mackey": ("BurnsideMackey", "FixedPointMackey", "atoms", "burnside_table",
               "canonical_slice", "eval_span"),
    "poly": ("Polynomial", "compose_poly", "distribute", "eval_semiring", "poly_to_spanspan",
             "polynomial", "spanspan_to_poly"),
    "completion": ("CompletionMorphism", "CompletionObject", "SliceIndexed", "check_CB",
                   "check_CB_fiber", "completion_homs", "completion_obj", "extend_to_spans",
                   "fiber_coproduct", "hom_bijection", "hom_bijection_dual", "pushforward",
                   "reindex", "terminal_indexed"),
    "semirings": ("BOOLEANS", "NATURALS", "CommSemiring"),
    "spans": ("Span", "compose_spans", "identity_span", "lower_star", "span",
              "span_canonical_form", "span_iso", "upper_star"),
    "tambara": ("BurnsideTambara", "SemiringTambara", "eval_poly"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_export_resolves_to_its_module_object(module, name):
    scope: dict = {}
    exec(f"from spanpoly import {name}", scope)
    assert scope[name] is getattr(import_module(f"spanpoly.{module}"), name)
    assert getattr(spanpoly, name) is scope[name]


def test_dir_and_all_list_every_export():
    names = {name for _, name in NAMES}
    assert names <= set(dir(spanpoly))
    assert set(spanpoly.__all__) == names


def test_submodules_import_from_the_package():
    from spanpoly import completion, suites
    assert completion.__name__ == "spanpoly.completion"
    assert suites.__name__ == "spanpoly.suites"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        spanpoly.nope
    with pytest.raises(ImportError):
        exec("from spanpoly import nope", {})
