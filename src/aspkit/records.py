"""Light value records.

Every value class in aspkit is a Record: the AST nodes, tokens,
diagnostics, rule records, ground programs, statistics and options. The
grounder, the translator and the ground-format reader each build one
record per ground rule, so construction cost counts. A frozen dataclass
sets every field through object.__setattr__; a Record subclass lists its
fields in __slots__ and assigns them in a plain __init__, which builds
several times faster, and no module needs to import `dataclasses`.

A subclass may name fields in `_uncompared`: they are kept and shown by
repr but left out of == and hash, as source locations are. A subclass
whose fields change after construction sets `__hash__ = None`. The others
never reassign a field after construction.
"""

from operator import attrgetter


class Record:
    """Equality, hashing and repr over the fields in __slots__, like a frozen
    dataclass: a record equals only a record of the same type with equal
    fields, never a tuple or a record of another type."""

    __slots__ = ()
    _uncompared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        compared = [f for f in cls.__slots__ if f not in cls._uncompared]
        cls._values = property(attrgetter(*compared))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"
