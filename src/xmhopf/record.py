"""Record, the base of the package's value classes: the dataclass features the package
uses, without importing `dataclasses`, which loads `inspect`, `ast` and `dis`."""

from operator import attrgetter


class Record:
    """Fields named by `__slots__`, given positionally in that order; a slot whose name
    starts with `_` is not a field but a cache, which a method fills on first use.

    An omitted trailing field gets `_defaults[name]()`, from a zero-argument
    factory such as `list`; then `__post_init__` runs, where a class checks its
    shapes.  Fields cannot be assigned after construction unless the class is
    declared with `frozen=False`.  A class declared with `eq=True` compares by
    class and fields, and hashes by fields when frozen; others compare by identity.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, eq=False, frozen=True):
        cls._field_names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._fields = attrgetter(*cls._field_names)  # a plain callable, not bound to instances
        if eq:
            cls.__eq__ = Record._same
            cls.__hash__ = Record._hash if frozen else None
        if not frozen:
            cls.__setattr__ = object.__setattr__

    def __init__(self, *values):
        if len(values) != len(self._field_names):
            values = self._completed(values)
        for name, value in zip(self._field_names, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _completed(self, values):
        """values followed by the defaults of the trailing fields they omit."""
        omitted = self._field_names[len(values):]
        if not omitted or any(name not in self._defaults for name in omitted):
            names = ", ".join(self._field_names)
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        return values + tuple(self._defaults[name]() for name in omitted)

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{type(self).__name__}({fields})"

    def _same(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._fields(self) == other._fields(other)

    def _hash(self):
        return hash(self._fields(self))
