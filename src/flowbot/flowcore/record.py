"""Value classes built without code generation.

A record names its fields once, as ``__slots__ = _fields = (...)``, and
writes its own ``__init__``, which converts and validates as it likes and
stores the fields with :meth:`Record._init`. :class:`Record` compares and
prints field by field, like a dataclass; :class:`FrozenRecord` also hashes
field by field, once, and refuses assignment, like a frozen dataclass. A record
with no validation and no mutable default is a ``typing.NamedTuple``
instead.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """Field-wise ``==`` and ``repr`` over ``_fields``; instances are mutable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        """Store ``values`` in ``_fields`` order, the only way to write a frozen record."""
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other is self:  # as tuple equality finds identical fields equal, NaN included
            return True
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A :class:`Record` that hashes field-wise and refuses assignment; the
    hash is computed once, on first use, and kept."""

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._values()))
            return self._hash
