"""Frozen records behave as the frozen dataclasses they replaced."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from rankcert import acceptance, normal_form, presentations, semigroup, states
from rankcert.semigroup import Cancel, Drop, ExponentIncrease, NegativeRank, Positive, PowerSwap

from helpers import replace

RECORDS = [
    cls
    for module in (acceptance, normal_form, presentations, semigroup, states)
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__
    and cls.__setattr__ is not object.__setattr__
]


def test_every_record_class_is_found():
    assert len(RECORDS) == 19


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_match_frozen_dataclasses(cls):
    fields = list(cls.__annotations__)
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    values = [Fraction(i, 2) for i in range(len(fields))]
    rec, old = cls(*values), twin(*values)
    assert repr(rec) == repr(old)
    assert hash(rec) == hash(old)
    assert rec == cls(**dict(zip(fields, values))) == replace(rec)
    assert rec != old and rec != tuple(values)
    assert vars(rec) == dataclasses.asdict(old)
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], 1)
    with pytest.raises(AttributeError):
        delattr(rec, fields[0])
    with pytest.raises(TypeError):
        cls(*values, None)


def test_equality_is_type_strict_across_moves():
    moves = [Drop(1), Cancel(1), ExponentIncrease(1), PowerSwap(1, 1)]
    for a, b in itertools.combinations(moves, 2):
        assert a != b and not a == b
    assert len({*moves, Drop(1), Cancel(i=1)}) == 4
    assert Positive((Drop(1),)) != Positive((Cancel(1),))


def test_repr_text_in_messages():
    assert repr(PowerSwap(0, 2)) == "PowerSwap(j1=0, j2=2)"
    assert repr(Positive((Drop(i=3),))) == "Positive(moves=(Drop(i=3),))"
    rank = NegativeRank(k=1, lhs=Fraction(1, 2), rhs=Fraction(0))
    assert repr(rank) == "NegativeRank(k=1, lhs=Fraction(1, 2), rhs=Fraction(0, 1))"


def test_replace_changes_only_the_named_fields():
    swap = PowerSwap(0, 2)
    assert replace(swap, j2=3) == PowerSwap(0, 3) and swap == PowerSwap(0, 2)
