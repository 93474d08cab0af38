"""Base of the immutable record types (specs, covers, results)."""


class Record:
    """Immutable value record whose fields are the names in ``__slots__``.

    A subclass lists its fields in ``__slots__`` in constructor order, and
    its ``__init__`` passes their values in that order to ``Record.__init__``.
    Two records are equal iff they have the same type and equal fields;
    assigning or deleting an attribute raises AttributeError; pickle and
    copy rebuild a record by calling its constructor with its fields.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
