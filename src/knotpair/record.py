"""``Record``, the base of the package's frozen value classes.

A record lists its fields in ``__slots__`` and sets them in its own
``__init__`` with ``object.__setattr__`` (bound once as ``set_field``),
because its ``__setattr__`` and ``__delattr__`` refuse.  ``_key`` returns
the compared fields as a tuple, in slot order.  Two records are equal when
they are of one class with equal keys, and a record hashes as its key
does.  ``repr`` pairs the slots with the key, so a trailing slot outside
the key is neither compared nor shown.  The classes built thousands of
times per command define ``__eq__`` and ``__hash__`` over the same tuple
themselves, without the ``_key`` call.
"""

from __future__ import annotations

# what a record's ``__init__`` stores its fields with, bound once
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._key())
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
