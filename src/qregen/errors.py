"""Exception types shared across the package.

A ``UsageError`` is input the caller can fix (CLI exit 2); any other
``QregenError`` is a failed check (CLI exit 1).
"""


class QregenError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(QregenError):
    """Malformed or unsupported input: flags, files or parameters."""


# field / matrix ------------------------------------------------------------

class DivisionByZero(QregenError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(QregenError):
    """Operands have incompatible shapes."""


class Singular(QregenError):
    """Matrix has no inverse (rank deficient)."""


# code parameters / packing / retrieval --------------------------------------

class InvalidParams(UsageError):
    """Parameter set violates the admissible regime."""


class NoValidPoints(UsageError):
    """No evaluation-point assignment exists for this prime; raise p."""


class WrongLength(UsageError):
    """Symbol sequence has the wrong length."""


class BadShareSet(UsageError):
    """Share set or storage has duplicate ids, the wrong count or shape."""


# repair-time code construction ----------------------------------------------

class RepeatedPoint(UsageError):
    """Evaluation points must be pairwise distinct."""


class InvalidHelperSet(UsageError):
    """Helper set is not usable for the requested repair."""


class ZeroU(UsageError):
    """Free precoding vector must have no zero entries."""


class DualContainmentViolated(QregenError):
    """X and Z parity checks do not commute; internal consistency failure."""


# repair protocol -------------------------------------------------------------

class ModeUnavailable(UsageError):
    """Requested syndrome backend cannot run for these parameters."""


class RegenerationMismatch(QregenError):
    """Regenerated content differs from the failed node's storage (bug)."""


# state-vector simulation ------------------------------------------------------

class TooLarge(ModeUnavailable):
    """State-vector simulation over the size limit: p^r support entries for
    r X generators, or p itself, above 2^20."""


class ResidualOutOfTolerance(QregenError):
    """A measured eigenvalue is off its p-th root of unity; numerical failure."""


# tradeoff evaluation -----------------------------------------------------------

class InvalidRegime(UsageError):
    """Bound evaluated outside 1 <= k <= d."""


class RegimeViolation(UsageError):
    """Requested point needs d >= 2k-2."""


class Indivisible(UsageError):
    """File size not divisible as the requested point demands."""


class BoundNotMet(QregenError):
    """The simultaneous optimum misses the bound; internal consistency failure."""
