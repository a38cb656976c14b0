"""The base of the library's value types: immutable, compared and hashed by their fields.

A subclass's fields are its ``__slots__`` (what derives from them is a
property), and it writes its own ``__init__``, which sets each slot once
through ``object.__setattr__``.
Two values are equal when they have the same class and equal fields, the
hash is the hash of the field tuple, the ``repr`` reads
``Name(field=value, ...)``, and pickling and copying rebuild a value from
its fields.  Setting or deleting an attribute raises ``AttributeError``.
"""

from __future__ import annotations

from operator import attrgetter

# how a subclass's __init__ sets a slot past the refusing __setattr__
_set = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # every subclass has two or more fields, so the key is a tuple
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key(self)
