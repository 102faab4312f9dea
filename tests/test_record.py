"""The record base class itself, on records planted here."""

import pickle
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from qtdelta._record import Record

from records import assert_distinct_classes, assert_record, one_changed


class Pair(Record):
    left: int
    right: tuple

    def _post_init(self):
        if self.left < 0:
            raise ValueError("negative left")
        object.__setattr__(self, "right", tuple(self.right))

    @cached_property
    def total(self):
        return self.left + sum(self.right)


class Triple(Pair):
    extra: str


class Swapped(Pair):
    def __init__(self, right, left):
        super().__init__(left, right)


class Single(Record):
    value: object


def test_fields_in_declaration_order_subclass_after_base():
    assert Pair._fields == ("left", "right")
    assert Triple._fields == ("left", "right", "extra")
    assert Swapped._fields == Pair._fields
    assert Single._fields == ("value",)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 5), st.lists(st.integers(-3, 3), max_size=3),
       st.text(max_size=3))
def test_value_semantics(left, right, extra):
    right = tuple(right)
    assert_record(Pair, (left, right), [(left + 1, right),
                                        (left, right + (0,))])
    triple = assert_record(Triple, (left, right, extra),
                           [(left, right, extra + "x")])
    assert_distinct_classes(triple, Pair(left, right))
    swapped = assert_record(Swapped, (right, left), [(right, left + 1)])
    assert_distinct_classes(swapped, Pair(left, right))
    assert_record(Single, (right,), one_changed((right,)))


def test_one_field_hash_is_that_of_a_one_tuple():
    assert hash(Single(7)) == hash((7,)) != hash(7)


def test_keywords_and_positions_bind_alike():
    want = Triple(1, [2], "a")
    assert Triple(left=1, right=[2], extra="a") == want
    assert Triple(1, extra="a", right=(2,)) == want
    assert Swapped(left=1, right=[2]) == Swapped([2], 1)


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),
    ((1, (), "a"), {}),
    ((), {"left": 1}),
    ((1,), {"left": 1, "right": ()}),
    ((1, ()), {"right": ()}),
    ((1, ()), {"other": 0}),
])
def test_bad_calls_raise_type_error(args, kwargs):
    with pytest.raises(TypeError, match=r"Pair\(\) takes the fields "
                                        r"left, right"):
        Pair(*args, **kwargs)


def test_hook_runs_after_the_fields_are_set_subclasses_too():
    assert Pair(1, [2, 3]).right == (2, 3)
    assert Triple(1, [2], "a").right == (2,)
    for make in (lambda: Pair(-1, ()), lambda: Triple(-1, (), ""),
                 lambda: Swapped((), -1)):
        with pytest.raises(ValueError, match="negative left"):
            make()


def test_immutable_but_caches_per_object():
    pair = Pair(1, (2, 3))
    with pytest.raises(AttributeError):
        pair.left = 2
    with pytest.raises(AttributeError):
        pair.other = 2
    with pytest.raises(AttributeError):
        del pair.right
    assert pair.total == 6
    assert vars(pair) == {"left": 1, "right": (2, 3), "total": 6}
    assert "total" not in vars(Pair(1, (2, 3)))


def test_repr_and_pickle():
    triple = Triple(1, [2], "a")
    assert repr(triple) == "Triple(left=1, right=(2,), extra='a')"
    copy = pickle.loads(pickle.dumps(triple))
    assert copy == triple and copy is not triple


def test_trusted_sets_the_fields_in_order_and_skips_the_hook():
    assert Pair._trusted(1, (2, 3)) == Pair(1, [2, 3])
    assert Triple._trusted(1, (2,), "a") == Triple(1, (2,), "a")
    # a custom __init__ is bypassed too: the values go in _fields order
    assert Swapped._trusted(1, (2,)) == Swapped((2,), 1)
    assert Single._trusted(None) == Single(None)
    # no hook: the value is kept as given, checked or not
    unchecked = Pair._trusted(-1, [2])
    assert (unchecked.left, unchecked.right) == (-1, [2])
    assert type(Triple._trusted(0, (), "")) is Triple
    with pytest.raises(AttributeError):
        unchecked.left = 0
    for values in [(1,), (1, (), "a")]:
        with pytest.raises(ValueError):
            Pair._trusted(*values)
