"""Light value records for ground rules.

The grounder, the translator and the ground-format reader each build one
record per ground rule, so construction cost counts. A frozen dataclass
sets every field through object.__setattr__; a Record subclass lists its
fields in __slots__ and assigns them in a plain __init__, which builds
several times faster. Fields are never reassigned after construction.
"""

from operator import attrgetter


class Record:
    """Equality, hashing and repr over the fields in __slots__, like a frozen
    dataclass: a record equals only a record of the same type with equal
    fields, never a tuple or a record of another type."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"
