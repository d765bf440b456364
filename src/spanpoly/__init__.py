"""Spans, polynomials, and Mackey/Tambara-style evaluation over finite G-sets."""

__version__ = "0.1.0"

from .calib import (
    ALL_MAPS,
    INJECTIVE_MAPS,
    ISO_MAPS,
    SURJECTIVE_MAPS,
    MorphismClass,
    check_compatible_pair,
    check_protocalibration,
)
from .errors import (
    BoundaryMismatch,
    ClassViolation,
    GroupMismatch,
    InvalidStructure,
    ResourceLimit,
    SpanPolyError,
    WorkspaceError,
)
from .finact import (
    GMap,
    GSet,
    SliceObject,
    canonical_form,
    coproduct,
    delta,
    gmap,
    gset,
    identity_gmap,
    iso_gsets,
    pi,
    pi_slice,
    product,
    pullback,
    regular_gset,
    sigma,
    slice_iso,
    terminal_gset,
)
from .groups import (
    FiniteGroup,
    cyclic_group,
    group_from_permutations,
    group_from_table,
    symmetric_group,
    trivial_group,
)
from .mackey import (
    BurnsideMackey,
    FixedPointMackey,
    atoms,
    burnside_table,
    canonical_slice,
    eval_span,
)
from .poly import (
    Polynomial,
    compose_poly,
    distribute,
    eval_semiring,
    poly_to_spanspan,
    polynomial,
    spanspan_to_poly,
)
from .completion import (
    CompletionMorphism,
    CompletionObject,
    check_CB,
    check_CB_fiber,
    completion_homs,
    completion_homs_dual,
    completion_iso,
    completion_obj,
    extend_to_spans,
    fiber_coproduct,
    hom_bijection,
    hom_bijection_dual,
    mu_flatten,
    pushforward,
    reindex,
    representable_indexed,
    slice_indexed,
    terminal_indexed,
    unit_eta,
)
from .semirings import BOOLEANS, NATURALS, CommSemiring
from .spans import (
    Span,
    compose_spans,
    identity_span,
    lower_star,
    span,
    span_canonical_form,
    span_iso,
    upper_star,
)
from .tambara import BurnsideTambara, SemiringTambara, eval_poly
