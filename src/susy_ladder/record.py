"""Record, the base of the package's immutable value types.

A record names its fields in __slots__, in order, so it keeps no instance
dict, and its own __init__ checks its arguments and sets each field with
set_field. After that a field cannot be set or deleted (AttributeError).
Records compare equal when they are of one class and their field tuples
are equal, hash as their field tuple, show every field in their repr, and
pickle and copy field by field, without running __init__ again.

A record class is a plain class statement: declaring one generates and
execs no code and imports nothing more. The standard library's generated
classes would load inspect, ast, dis and tokenize and exec each class's
methods, a cost that every cold CLI run would pay.
"""

from __future__ import annotations

from operator import attrgetter

# Sets a field past the frozen __setattr__: for a record's __init__ alone.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls.__slots__
        get = attrgetter(*fields)
        if len(fields) == 1:
            one = get

            def get(record):
                # attrgetter of one name returns the value, not a 1-tuple
                return (one(record),)
        cls._values = staticmethod(get)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (type(self), self._values(self))


def _rebuild(cls, values):
    record = object.__new__(cls)
    for name, value in zip(cls._fields, values, strict=True):
        set_field(record, name, value)
    return record
