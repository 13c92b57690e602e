"""Exception types shared across the library."""


class EnrichfanError(Exception):
    """Base class for all errors raised by this library."""


class FormatError(EnrichfanError, ValueError):
    """Malformed textual or JSON input."""


class _LookupFailure(EnrichfanError, KeyError):
    """A failed lookup that prints its message, not the quoted repr a KeyError prints."""

    def __str__(self):
        return Exception.__str__(self)


class UnknownVertexError(_LookupFailure):
    pass


class UnknownEdgeError(_LookupFailure):
    pass


class UnknownLabelError(_LookupFailure):
    pass


class DisconnectedGraphError(EnrichfanError, ValueError):
    pass


class NotBiconnectedError(EnrichfanError, ValueError):
    pass


class NotABondError(EnrichfanError, ValueError):
    """The requested vertex bipartition does not induce a minimal cut."""


class GroundSetMismatchError(EnrichfanError, ValueError):
    """A preorder's ground set does not match the edge set it is paired with."""


class GuardExceededError(EnrichfanError, ValueError):
    """Input is larger than the configured enumeration guard."""


class NotStronglyConvexError(EnrichfanError, ValueError):
    """A projected cone contains a line and is not a cone of a fan."""
