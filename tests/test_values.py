"""The package's value objects: immutable records that compare, hash and
pickle by their fields."""

import pickle
from fractions import Fraction

import pytest

from regcount import Bipartition, Cleared, CountPolynomial, GenSpec, Graph
from regcount.verify import Verdict

# Each value beside one that differs from it in a single field.
PAIRS = [
    (Graph((0b010, 0b101, 0b010)), Graph((0b010, 0b001, 0b000))),
    (Bipartition(frozenset({0, 2}), frozenset({1})), Bipartition(frozenset({0}), frozenset({1}))),
    (CountPolynomial((1, 3, 1), "matching"), CountPolynomial((1, 3, 1), "independent-set")),
    (GenSpec(8, 3), GenSpec(8, 3, bipartite_only=True)),
    (Cleared(2, Fraction(9, 2), pow_e=Fraction(-1, 3)), Cleared(2, Fraction(9, 2))),
    (
        Verdict("match-pf-upper", "6:1f", {"n": 6}, Fraction(3), Fraction(4), True, 0.4),
        Verdict("match-pf-upper", "6:1f", {"n": 6}, Fraction(3), Fraction(4), True, 0.5),
    ),
]


@pytest.mark.parametrize("value,other", PAIRS, ids=[type(v).__name__ for v, _ in PAIRS])
def test_value_objects_are_frozen_records(value, other):
    cls = type(value)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
    with pytest.raises(AttributeError):
        value.extra = 1

    copy = cls(*value)
    assert copy == value and copy is not value
    assert other != value
    try:
        hash(tuple(value))
    except TypeError:
        # A Verdict holds its params in a dict, so it has no hash.
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(copy) == hash(value)
        assert len({value, copy, other}) == 2

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value
