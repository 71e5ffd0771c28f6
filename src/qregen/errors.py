"""Exception types shared across the package."""


class QregenError(Exception):
    """Base class for all errors raised by this package."""


# field / matrix ------------------------------------------------------------

class DivisionByZero(QregenError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(QregenError):
    """Operands have incompatible shapes."""


class Singular(QregenError):
    """Matrix has no inverse (rank deficient)."""


# code parameters / packing / retrieval --------------------------------------

class InvalidParams(QregenError):
    """Parameter set violates the admissible regime."""


class NoValidPoints(QregenError):
    """No evaluation-point assignment exists for this prime; raise p."""


class WrongLength(QregenError):
    """Symbol sequence has the wrong length."""


class BadShareSet(QregenError):
    """Share set has duplicate ids or the wrong cardinality."""


# repair-time code construction ----------------------------------------------

class RepeatedPoint(QregenError):
    """Evaluation points must be pairwise distinct."""


class InvalidHelperSet(QregenError):
    """Helper set is not usable for the requested repair."""


class ZeroU(QregenError):
    """Free precoding vector must have no zero entries."""


class DualContainmentViolated(QregenError):
    """X and Z parity checks do not commute; internal consistency failure."""


# repair protocol -------------------------------------------------------------

class NotAHelper(QregenError):
    """Storage node is not part of the helper set."""


class ModeUnavailable(QregenError):
    """Requested syndrome backend cannot run for these parameters."""


class RegenerationMismatch(QregenError):
    """Regenerated content differs from the failed node's storage (bug)."""


# state-vector simulation ------------------------------------------------------

class TooLarge(QregenError):
    """State-vector simulation would exceed the size limit."""


class ZeroProjection(QregenError):
    """No basis state has a nonzero codespace projection."""


class ResidualOutOfTolerance(QregenError):
    """A measured eigenvalue is off its p-th root of unity; numerical failure."""


# tradeoff evaluation -----------------------------------------------------------

class InvalidRegime(QregenError):
    """Bound evaluated outside 1 <= k <= d."""


class RegimeViolation(QregenError):
    """Requested point needs d >= 2k-2."""


class Indivisible(QregenError):
    """File size not divisible as the requested point demands."""


class BoundNotMet(QregenError):
    """The simultaneous optimum misses the bound; internal consistency failure."""
