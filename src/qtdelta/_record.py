"""Frozen value records: the one base class of the library's data types,
``polyhedral.Cone`` apart, which is frozen too but compares by its point
set, not by its fields, and keeps slots only.

A subclass lists its fields as class annotations, in order; a subclass of
a record adds its own after the inherited ones.  Each record class gets,
as plain closures over its field names (no generated source, so importing
the library does not load ``dataclasses`` or ``inspect``):

* ``__init__`` taking the fields by position or keyword, then calling the
  class's ``_post_init`` hook, if any, which may check the values and
  replace them through ``object.__setattr__``;
* ``__eq__``, true for an object of the same class with equal fields, and
  ``NotImplemented`` for any other class, subclasses included;
* ``__hash__``, the hash of the tuple of the fields;

each unless the class body defines it.

Assigning or deleting an attribute raises AttributeError.  Instances keep
a ``__dict__``, where ``functools.cached_property`` stores its values, and
``_fields`` lists the field names in order.  The private classmethod
``_trusted(*values)`` sets the fields in that order and skips ``_post_init``
(or a class's own ``__init__``), for values the library has just built in
the form the checked constructor keeps; it is the library's one unchecked
constructor.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = names
        count = len(names)
        check = getattr(cls, "_post_init", None)
        if count == 1:
            get = attrgetter(*names)

            def values(self):
                return (get(self),)
        else:
            values = attrgetter(*names)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != count:
                args = _bind(cls, args, kwargs)
            # _set per field keeps the values inline, where attribute
            # loads are fastest; an index loop is quicker than zip here
            i = 0
            for name in names:
                _set(self, name, args[i])
                i += 1
            if check is not None:
                check(self)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        for method in (__init__, __eq__, __hash__):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)

    @classmethod
    def _trusted(cls, *values):
        """The record of these field values, with no ``_post_init``."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values, strict=True):
            _set(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _bind(cls, args, kwargs):
    """The field values of a call by keyword or with a wrong count."""
    names = cls._fields
    given = dict(zip(names, args), **kwargs)
    if (len(args) > len(names) or set(given) != set(names)
            or len(given) != len(args) + len(kwargs)):
        raise TypeError(f"{cls.__name__}() takes the fields "
                        f"{', '.join(names)}, by position or keyword")
    return [given[name] for name in names]
