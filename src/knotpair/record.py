"""``Record``, the base of the package's frozen value classes.

A record lists its fields in ``__slots__``.  The base's one constructor
takes the fields in slot order and stores them with ``object.__setattr__``
(bound once as ``set_field``), because a record's ``__setattr__`` and
``__delattr__`` refuse; a wrong count raises ``TypeError`` naming the
class.  Four classes write their own ``__init__``, each because it does
more than store its fields: ``LaurentPoly`` is built by every polynomial
operation and stores its two fields directly, faster than the generic
loop; ``PDCode`` defaults ``free_loops`` and sets its two derived slots
to None; ``Verdict`` refuses a distinctness verdict without evidence;
``cli.Argument`` has defaults and derives ``required``.

``_key`` returns the slot values as a tuple, in slot order.  Two records
are equal when they are of one class with equal keys, and a record hashes
as its key does.  ``repr`` pairs the slots with the key.  Only ``PDCode``
overrides ``_key``: it leaves out its two trailing slots, ``orientation``
and ``corner_cycles``, which are then neither compared, hashed nor shown.
"""

from __future__ import annotations

# what a record's constructor stores its fields with, bound once
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *fields) -> None:
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(names)} fields, "
                f"{len(fields)} given"
            )
        for name, value in zip(names, fields):
            set_field(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

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
