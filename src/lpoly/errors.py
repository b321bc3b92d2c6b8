"""Exception families shared by all lpoly modules.

Every error this package raises is one of three families, told apart by
their messages: parameter errors (the request itself is malformed),
resource bounds (the request is legal but refused at this size), and
internal errors (an exactness or consistency check failed, which means a
bug rather than bad input).  The command line maps these to exit codes 2, 3
and 4 respectively.
"""


class LPolyError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(LPolyError):
    """The arguments violate a documented precondition."""


class ResourceBound(LPolyError):
    """The computation was refused because it exceeds a configured bound."""


class InternalError(LPolyError):
    """An exactness invariant failed; indicates a defect, not bad input."""
