"""Records: the base of the library's value types.

The value types (groups, G-sets, maps, spans, polynomials, reports) are
small records compared by their fields.  They were dataclasses, but making a
dataclass imports `dataclasses` (and with it `inspect`, `ast`, `dis` and
`tokenize`) and `exec`s generated methods for every class, which cost
each fresh process tens of milliseconds before it computed anything.  These
two plain bases give the same equality, hash, repr and immutability.

A record's fields are its `__slots__`, in order.  A `"__dict__"` slot is
not a field: it holds caches derived on first use (`functools.cached_property`),
outside equality and hash.  Fields named in the class keyword `uncompared`
are shown by `repr` but kept out of equality and hash.  Each class writes
its own `__init__`.  A frozen one sets its fields through `_init`, or, where
a pass builds tens of thousands (G-sets, maps, slices, spans, checks), by
calling the slot setters in `_setters` one by one, which takes about half
the time.  The classes compared most often (`FiniteGroup`, `GSet`, `GMap`,
`SliceObject`) also write out `__eq__` and `__hash__` over their fields,
with the same results as the generic ones here, which read the fields
through an `attrgetter` and cost up to half as much again.
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    """A mutable record: field-wise equality within one class, repr, no hash."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls._fields)
        compared = [name for name in cls._fields if name not in uncompared]
        if not compared:  # a base such as FrozenRecord
            return
        get = attrgetter(*compared)
        # _key(record) is the tuple of compared fields; attrgetter of one name gives a bare value
        cls._key = staticmethod(get if len(compared) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the fields in order
        return type(self), tuple(getattr(self, name) for name in self._fields)


class FrozenRecord(Record):
    """An immutable record, hashed as the tuple of its compared fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _init(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)
