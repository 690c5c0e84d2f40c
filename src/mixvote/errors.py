"""Exception hierarchy shared by all mixvote modules."""


class MixvoteError(Exception):
    """Base class for all library errors."""


class MalformedIntervalError(MixvoteError, ValueError):
    """An interval pair is reversed, out of order, not rational or outside the cake."""


class InvalidGroupError(MixvoteError, ValueError):
    """An agent group argument is empty or out of range."""


class InvalidAllocationError(MixvoteError, ValueError):
    """An allocation violates the instance constraints (e.g. oversize)."""


class UnsupportedInstanceError(MixvoteError, ValueError):
    """The operation does not apply to this instance shape."""


class CapacityError(MixvoteError):
    """An exhaustive search would exceed the configured capacity."""


class DomainError(MixvoteError, ValueError):
    """A numeric argument is outside the operation's domain."""


class ConstructionParameterError(MixvoteError, ValueError):
    """Instance-construction parameters violate a required inequality."""


class ScriptError(MixvoteError, ValueError):
    """A scripted tie-break step is invalid for the current round."""


class InvariantError(MixvoteError):
    """An internal invariant failed: a library fault, not a usage error."""
