"""Exception types raised by the library.

Every error condition that callers are expected to branch on gets its own
class; everything derives from :class:`LinhyperError`.
"""


class LinhyperError(Exception):
    """Base class for all library errors."""


class InvalidArgument(LinhyperError, ValueError):
    """A library call's argument is outside its domain (a worker count below
    1, an instance with no conforming graph where one is needed); also a
    ValueError."""


class InputError(LinhyperError):
    """A command-line argument or input file is malformed or inconsistent."""


class NegativeDegree(LinhyperError):
    """A degree sequence entry is negative."""


class InvalidR(LinhyperError):
    """Edge size r is below 2."""


class NotDivisible(LinhyperError):
    """r does not divide the degree sum M, so no conforming object exists."""


class DegenerateM(LinhyperError):
    """Degree sum too small for the threshold quantities (M < 2)."""


class WrongRightDegree(LinhyperError):
    """A right vertex does not have the required uniform degree r."""


class LoopPresent(LinhyperError):
    """A hypergraph edge repeats a vertex, so it has no 0-1 incidence column."""


class NonConforming(LinhyperError):
    """Graph degrees do not match the given degree sequence."""


class TooLarge(LinhyperError):
    """Instance exceeds the exhaustive-search resource guard."""


class InvariantViolation(LinhyperError):
    """An internal consistency identity failed; this signals a bug, never user error."""


class NotASwitching(LinhyperError):
    """The 8-tuple does not describe a valid rewiring on this graph."""


class NoFourCycle(LinhyperError):
    """Forward rewiring requested on a graph with no 4-cycle."""


class PreconditionFailed(LinhyperError):
    """A stated hypothesis of a bounding or summation routine does not hold."""


class RetryLimitExceeded(LinhyperError):
    """Rejection sampling exhausted its retry budget."""


class StepLimit(LinhyperError):
    """Iterative rewiring exceeded its step budget."""
