"""Exception hierarchy shared by all modules."""


class SpanPolyError(Exception):
    """Base class for all library errors."""


class GroupMismatch(SpanPolyError):
    """Two inputs live over different groups."""


class BoundaryMismatch(SpanPolyError):
    """Domains/codomains do not line up for the requested operation."""


class ClassViolation(SpanPolyError):
    """A map falls outside a required morphism class."""


class ProbeFailure(SpanPolyError):
    """A sampled probe that gates a construction fails; `probe` names the failed check."""

    def __init__(self, message: str, probe: str | None = None):
        super().__init__(message)
        self.probe = probe


class ResourceLimit(SpanPolyError):
    """A construction would exceed a size guard, `finact.MAX_POINTS` or `finact.MAX_MAPS`.

    Every guard fills `construction`, `sizes` (its input sizes by name),
    `projected` (the count it would reach) and `limit` (the guard value).
    The guards of `build_gset`, the dependent product and equivariant-map
    enumeration name all four in the message.  The completion hom-set
    totals stop counting at the first morphism over the limit, so their
    `projected` is limit + 1 and their message names the limit only.
    """

    def __init__(self, message: str, construction: str | None = None,
                 sizes: dict[str, int] | None = None, projected: int | None = None,
                 limit: int | None = None):
        super().__init__(message)
        self.construction, self.sizes = construction, sizes
        self.projected, self.limit = projected, limit


class InvalidStructure(SpanPolyError):
    """Input data violates a structural invariant (bad table, non-equivariant map, ...)."""


class WorkspaceError(SpanPolyError):
    """Problem loading or resolving workspace files."""
