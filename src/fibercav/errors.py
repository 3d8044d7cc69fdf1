"""Exception hierarchy shared by every fibercav module.

Each exception class carries the process exit status used by the command
line front end, so library errors map onto shell semantics in one place:

* 2 -- the inputs were rejected before any computation ran,
* 3 -- a fit or numerical solve was attempted and did not succeed,
* 4 -- the inputs are individually valid but mutually inconsistent.
"""

from __future__ import annotations


class FibercavError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = dict(details)

    def as_dict(self) -> dict:
        """Structured form emitted on the diagnostic stream by the CLI."""
        return {
            "error": type(self).__name__,
            "message": self.message,
            "details": self.details,
        }


class ValidationError(FibercavError, ValueError):
    """An input violated a documented precondition or format contract."""

    exit_code = 2


class ParseError(ValidationError):
    """A file could not be parsed; ``details`` holds ``path`` (and ``line``, ``rows``)."""


class DomainError(ValidationError):
    """A numeric argument lies outside the operation's valid domain."""


class SingularCavityError(DomainError):
    """Round-trip loss is zero, so loss-normalized quantities diverge."""


class InsufficientPeaksError(ValidationError):
    """Fewer resonances were found than the requested analysis needs."""


class TamperedRecordError(ValidationError):
    """A stored run record fails its integrity hash on reload."""


class FitFailureError(FibercavError):
    """An iterative fit did not converge; ``details`` holds the last iterate."""

    exit_code = 3


class WindowTooNarrowError(FitFailureError):
    """The fitted line extends past the fit window, so the result is unreliable."""


class NumericalFailureError(FibercavError):
    """A root bracketing, eigensolve, or quadrature failed to converge."""

    exit_code = 3


class MeasurementInconsistencyError(FibercavError):
    """Measured quantities contradict each other beyond their uncertainties."""

    exit_code = 4
