"""Spans, polynomials, and Mackey/Tambara-style evaluation over finite G-sets.

The names below are re-exported from the submodules that define them and
resolve on first use (a module `__getattr__`, PEP 562), so importing the
package, or one submodule such as `spanpoly.cli`, loads only the modules
that are actually used.
"""

__version__ = "0.1.0"

_EXPORTS = {
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
                   "check_CB_fiber", "completion_homs", "completion_homs_dual", "completion_obj",
                   "extend_to_spans", "fiber_coproduct", "hom_bijection", "hom_bijection_dual",
                   "pushforward", "reindex", "terminal_indexed"),
    "semirings": ("BOOLEANS", "NATURALS", "CommSemiring"),
    "spans": ("Span", "compose_spans", "identity_span", "lower_star", "span",
              "span_canonical_form", "span_iso", "upper_star"),
    "tambara": ("BurnsideTambara", "SemiringTambara", "eval_poly"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
