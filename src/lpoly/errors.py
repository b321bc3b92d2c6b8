"""Exception hierarchy shared by all lpoly modules.

Three families matter to callers: parameter errors (the request itself is
malformed), resource bounds (the request is legal but refused at this size),
and internal errors (an exactness or consistency check failed, which means a
bug rather than bad input).  The command line maps these to exit codes 2, 3
and 4 respectively.
"""


class LPolyError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(LPolyError):
    """The arguments violate a documented precondition."""


class NotPrime(ParameterError):
    pass


class NotSubfield(ParameterError):
    pass


class ZeroArgument(ParameterError):
    pass


class NotCoprime(ParameterError):
    pass


class BadParameters(ParameterError):
    pass


class OrderMismatch(ParameterError):
    """A character order does not divide the relevant group order."""


class EmptyInput(ParameterError):
    pass


class LengthMismatch(ParameterError):
    pass


class ResourceBound(LPolyError):
    """The computation was refused because it exceeds a configured bound."""


class EnumerationBound(ResourceBound):
    """A field enumeration would exceed the allowed size."""


class CapExceeded(ResourceBound):
    """A combinatorial enumeration would exceed its cap."""


class InternalError(LPolyError):
    """An exactness invariant failed; indicates a defect, not bad input."""


class InternalInconsistency(InternalError):
    pass


class RingMismatch(InternalError):
    """Mixed operands from different coefficient rings."""


class NotDivisible(InternalError):
    """An exact integer division left a remainder."""


class NonVanishingTail(InternalError):
    """A series that must terminate has a nonzero coefficient past its degree."""


class BrokenFunctionalEquation(InternalError):
    """The coefficients of an L-polynomial break the functional equation
    of its degree and weight."""


class NonConvex(InternalError):
    """A polygon that is provably convex in the tested regime came out nonconvex."""
