"""Exception types shared across the package."""


class InvalidSpecError(ValueError):
    """Family parameters are malformed (empty sizes, factor < 2, ...)."""


class InvalidPairingError(InvalidSpecError):
    """A per-part pairing is overlapping, out of range, or incomplete."""


class OutOfRangeError(ValueError):
    """A vertex index or coordinate lies outside the host graph."""


class FormatError(ValueError):
    """A graph or cover text file does not follow the documented format."""


class UnknownCoverKeyError(KeyError):
    """No base cover is stored under the requested family/key."""


class DisconnectedGraphError(ValueError):
    """The operation requires a connected input graph."""


class PoolBudgetError(RuntimeError):
    """Isometric path enumeration exceeded the configured pool cap."""


class ConstructionError(RuntimeError):
    """Internal consistency check failed; indicates a bug, not bad input."""
