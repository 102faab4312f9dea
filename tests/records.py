"""The value semantics every library record keeps, checked on one instance.

A record (a subclass of ``qtdelta._record.Record``) is a frozen value:
objects built from equal arguments are equal and hash alike, the hash is
that of the tuple of its fields in declaration order, a changed field makes
it unequal, and no field can be set or deleted.
"""

import pytest


def field_values(record):
    return tuple(getattr(record, name) for name in type(record)._fields)


def one_changed(args):
    """``args`` with each position in turn replaced by a fresh object, for
    a record whose fields are not checked on construction."""
    return [args[:i] + (object(),) + args[i + 1:] for i in range(len(args))]


def assert_record(make, args, changes=()):
    """``make(*args)`` is a record with the semantics above; ``make(*c)``
    differs from it for every ``c`` in ``changes``."""
    first, second = make(*args), make(*args)
    assert first is not second
    assert first == second and not first != second
    values = field_values(first)
    try:
        expected = hash(values)
    except TypeError:  # a field holds a dict: no hash, as for the tuple
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == expected
    for change in changes:
        other = make(*change)
        assert other != first and not other == first
        assert first != other
    for name, value in zip(type(first)._fields, values):
        with pytest.raises(AttributeError):
            setattr(first, name, value)
        with pytest.raises(AttributeError):
            delattr(first, name)
        assert getattr(first, name) is value
    return first


def assert_distinct_classes(sub, base):
    """A subclass record is never equal to a base record with the same
    field values, in either order."""
    assert type(sub) is not type(base)
    assert isinstance(sub, type(base))
    assert all(getattr(sub, name) == getattr(base, name)
               for name in type(base)._fields)
    assert sub != base and base != sub
    assert not sub == base and not base == sub
