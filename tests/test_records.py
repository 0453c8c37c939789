import dataclasses

import pytest

from aspkit.grounding import GAgg, GRule
from aspkit.primitives import BasicRule, ChoiceRule, ConstraintRule, WeightRule

RECORDS = [
    BasicRule(2, (3,), (4,)),
    ConstraintRule(2, 1, (3,), (4,)),
    ChoiceRule((2, 3), (4,), ()),
    WeightRule(2, 3, (3,), (4,), (1,), (2,)),
    GAgg(True, 1, None, ((2, 1), (-3, 2))),
    GRule(2, None, (3, -4)),
]


def test_a_record_equals_only_its_own_type():
    # A NamedTuple would equal a plain tuple, and a rule of another type
    # with equal fields; parse(emit(gp)) == gp relies on neither happening.
    basic = BasicRule(2, (), ())
    assert basic == BasicRule(2, (), ())
    assert basic != ChoiceRule(2, (), ())
    assert basic != GRule(2, (), ())
    assert basic != (2, (), ())
    assert (2, (), ()) != basic
    assert basic != BasicRule(2, (), (3,))
    assert ConstraintRule(2, 1, (), ()) != ConstraintRule(2, 2, (), ())


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_records_hash_equal(record):
    fields = {f: getattr(record, f) for f in type(record).__slots__}
    twin = type(record)(**fields)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1


def test_keyword_construction_and_repr():
    rule = WeightRule(head=2, bound=5, pos=(3,), neg=(4,), pos_weights=(2,), neg_weights=(3,))
    assert rule == WeightRule(2, 5, (3,), (4,), (2,), (3,))
    assert (rule.head, rule.bound, rule.pos, rule.neg) == (2, 5, (3,), (4,))
    assert repr(rule) == ("WeightRule(head=2, bound=5, pos=(3,), neg=(4,), "
                          "pos_weights=(2,), neg_weights=(3,))")
    assert repr(GRule(None, GAgg(False, None, 1, ((2, 1),)), ())) == (
        "GRule(head=None, head_agg=GAgg(weighted=False, lower=None, upper=1, "
        "elements=((2, 1),)), body=())")


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_slotted_not_dataclasses(record):
    # No dataclasses helper can be called on a rule record, and a record
    # holds no per-instance dict.
    assert not dataclasses.is_dataclass(record)
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        dataclasses.replace(record)
