"""Exception types shared across the toolkit, and the rule for raising a row's error.

Every error raised by the library derives from ``DcalError`` so callers can
catch toolkit failures without swallowing unrelated bugs.
"""


class DcalError(Exception):
    """Base class for all toolkit errors."""


class DegenerateVarianceError(DcalError):
    """A sample (or training subset) has zero variance where a fit needs spread."""


class DegenerateGeometryError(DcalError):
    """Projection-based outlier detection found no usable spread in any direction."""


class InsufficientDataError(DcalError):
    """Too few samples remain for the requested statistic."""


class ResampleCoverageError(DcalError):
    """A bootstrap scheme failed to leave some sample out-of-bag in any replicate."""


class UndefinedSignError(DcalError):
    """An operation needs a nonzero correlation sign and got exactly zero."""


class ConvergenceError(DcalError):
    """An iterative numeric routine exhausted its iteration budget."""


class NumericRangeError(DcalError):
    """Sums of squares or products of a sample leave the float64 range."""


class ParseError(DcalError):
    """A data or configuration file could not be parsed; message carries location."""


class TargetError(DcalError):
    """The screening target is missing from the matrix or unusable."""


def raise_first(errors) -> None:
    """Raise the first error of per-row ``errors`` (None marks a row without one)."""
    for error in errors:
        if error is not None:
            raise error
