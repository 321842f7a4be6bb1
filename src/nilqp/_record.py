"""`Record`, the base of the few immutable records that a `typing.NamedTuple` cannot express.

nilqp's records are NamedTuples, except where a tuple would get something
wrong: `LieAlgebra` keeps a memo out of equality in its instance
dictionary, `BigradingComponent` leaves a field out of equality, and
`SearchBounds` and `NilmanifoldSpec` check their arguments, which a
NamedTuple's ``_replace`` would skip.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable record, shown and compared by its fields.

    A subclass names its fields in constructor order in ``_fields``, and
    its ``__init__`` sets them with `_store`.  `repr` shows them as
    ``Name(field=value, ...)``.  ``==`` and the hash read `_key`, which is
    all of them unless a subclass says otherwise, and only a record of the
    same class is equal.  Assigning or deleting an attribute raises
    AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def _store(self, *values) -> None:
        """Set the fields, in the order of ``_fields``.

        Attribute by attribute, so that instances share their dictionaries'
        keys: a dictionary filled at once would take about twice the memory.
        """
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def _key(self) -> tuple:
        return attrgetter(*self._fields)(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())
