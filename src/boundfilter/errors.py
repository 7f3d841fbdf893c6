"""Exception hierarchy.

Everything raised on purpose derives from BoundFilterError so callers (and
the CLI, which prints any of them as one `error:` line and exits 2) can
distinguish "bad input" from a genuine bug.  Invariant failures on physical
objects (Hermiticity, positivity, trace) share a base class of their own, so
a caller can catch "this matrix is not a state" apart from bad parameters
or malformed text.
"""


class BoundFilterError(Exception):
    """Base class for all errors raised by this package."""


class NonSquareError(BoundFilterError):
    """A matrix that must be square is not."""


class DimensionMismatchError(BoundFilterError):
    """Operand shapes are incompatible for the requested operation."""


class InvariantViolationError(BoundFilterError):
    """A physical-state invariant failed; the message names the invariant."""


class NotHermitianError(InvariantViolationError):
    """Hermiticity defect above tolerance."""


class NotPSDError(InvariantViolationError):
    """An eigenvalue sits below the negativity tolerance."""


class ZeroTraceError(InvariantViolationError):
    """Trace (or norm) not positive, so there is nothing to normalize by."""


class SingularFilterError(BoundFilterError):
    """A local filter factor is singular: its smallest singular value is at
    most TOL_RANK times its largest, so the rule ignores the filter's scale."""


class BadParamError(BoundFilterError):
    """A catalog or protocol parameter is outside its admissible range."""


class BadDiagonalError(BoundFilterError):
    """A measurement diagonal entry is outside (0, 1]."""


class ParseError(BoundFilterError):
    """Malformed textual input (JSON payloads, CLI argument grammar)."""
