"""Exception taxonomy shared across the package."""


class PetzGapError(Exception):
    """Base class for all package errors."""


class InvalidInput(PetzGapError):
    """Caller handed in something structurally wrong (shape, range, symmetry)."""


class NotPSD(InvalidInput):
    """Matrix has an eigenvalue below minus its zero threshold."""


class NotNormalized(InvalidInput):
    """Trace too far from 1 to renormalize silently."""


class SpecInconsistent(InvalidInput):
    """Subalgebra description fails a structural check; message names the property."""


class DomainError(PetzGapError):
    """Mathematically undefined request (function evaluated off its domain, etc.)."""


class NumericalFailure(PetzGapError):
    """Computation ran but the result cannot be trusted to tolerance."""
