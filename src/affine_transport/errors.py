"""Exception types raised across the package.

Every error is a subclass of :class:`AffineTransportError`, so callers can
catch the whole family with one clause. The command line front end maps these
onto its exit codes.
"""

__all__ = [
    "AffineTransportError",
    "NotSymmetric",
    "IndefiniteMatrix",
    "SingularMatrix",
    "NonFinite",
    "TooFewSamples",
    "DimensionMismatch",
    "DegenerateInput",
    "TooLarge",
    "PairingMismatch",
    "MalformedModel",
    "MalformedCsv",
    "MissingManifest",
    "BadSpec",
    "BadFraction",
]


class AffineTransportError(Exception):
    """Base class for all errors raised by this package."""


class NotSymmetric(AffineTransportError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class IndefiniteMatrix(AffineTransportError):
    """A matrix expected to be positive semi-definite has a clearly negative eigenvalue."""


class SingularMatrix(AffineTransportError):
    """A matrix that must be inverted is singular or numerically rank deficient."""


class NonFinite(AffineTransportError):
    """An input contains NaN or infinite entries."""


class TooFewSamples(AffineTransportError):
    """A moment estimate was requested from fewer than two samples."""


class DimensionMismatch(AffineTransportError):
    """Two objects that must share a dimension do not."""


class DegenerateInput(AffineTransportError):
    """An input is degenerate in a way that makes the requested quantity undefined."""


class TooLarge(AffineTransportError):
    """A problem instance exceeds the size cap of an exact solver."""


class PairingMismatch(AffineTransportError):
    """Two sample sets that must have equal row counts do not."""


class MalformedModel(AffineTransportError):
    """A serialized model file is unreadable, inconsistent, or fails invariants."""


class MalformedCsv(AffineTransportError):
    """A dataset CSV file has a bad header, row, or cell."""


class MissingManifest(AffineTransportError):
    """A dataset CSV has no accompanying manifest file."""


class BadSpec(AffineTransportError):
    """A domain specification is invalid or inconsistent."""


class BadFraction(AffineTransportError):
    """Split fractions are negative or do not sum to one."""
