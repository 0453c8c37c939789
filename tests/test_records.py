import dataclasses
import importlib
import pkgutil

import pytest

import aspkit
from aspkit.analysis import Diagnostic, DomainAnalysis
from aspkit.ground_format import GroundProgram
from aspkit.grounding import GAgg, GroundResult, GRule
from aspkit.lexer import Token
from aspkit.oracle import ComputeSpec
from aspkit.pipeline import Grounded, GroundOptions, SolveOptions
from aspkit.records import Record
from aspkit.shared import BasicRule, ChoiceRule, ConstraintRule, WeightRule
from aspkit.solver import Conflict, SolveStats
from aspkit.syntax import (Aggregate, AggregateElem, Atom, Comparison, FuncApp, Integer,
                           Literal, Loc, Pool, Program, Range, Rule, SymbolicConst, Variable)

HERE, THERE = Loc("a.lp", 1, 1), Loc("b.lp", 2, 5)
P = Atom("p", (Variable("X"), Integer(1)), HERE)

RECORDS = [
    BasicRule(2, (3,), (4,)),
    ConstraintRule(2, 1, (3,), (4,)),
    ChoiceRule((2, 3), (4,), ()),
    WeightRule(2, 3, (3,), (4,), (1,), (2,)),
    GAgg(True, 1, None, ((2, 1), (-3, 2))),
    GRule(2, None, (3, -4)),
    HERE,
    Variable("X"),
    SymbolicConst("a"),
    Integer(3),
    Range(Integer(1), Integer(3)),
    Pool((SymbolicConst("a"), Integer(2))),
    FuncApp("+", (Variable("X"), Integer(1))),
    P,
    Comparison(Variable("X"), "<", Integer(2), HERE),
    Literal(False, P),
    AggregateElem(Literal(True, P), Integer(2)),
    Aggregate(False, Integer(1), (AggregateElem(Literal(True, P)),), None, HERE),
    Rule(None, (Literal(True, P),), HERE),
    Token("INTEGER", "7", 1, 3, 7),
    Diagnostic(HERE, "error", "unsafe"),
    Conflict(4),
    ComputeSpec({2}, {3}),
]

# Mutable records: equal by fields, but unhashable, like a plain dataclass.
MUTABLE = [
    GroundProgram([BasicRule(2, (), ())], {2: "a"}, (), (1,), 1, 2),
    SolveStats(decisions=3),
    DomainAnalysis(frozenset({("p", 1)}), (("p", 1),)),
    GroundResult([], None, (), ()),
    GroundOptions(constants={"n": 2}),
    SolveOptions(model_count=0),
    Grounded(None, None, [], []),
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
    # positional arguments are the fields in __slots__ order
    assert type(record)(*fields.values()) == record


def test_keyword_construction_and_repr():
    rule = WeightRule(head=2, bound=5, pos=(3,), neg=(4,), pos_weights=(2,), neg_weights=(3,))
    assert rule == WeightRule(2, 5, (3,), (4,), (2,), (3,))
    assert (rule.head, rule.bound, rule.pos, rule.neg) == (2, 5, (3,), (4,))
    assert repr(rule) == ("WeightRule(head=2, bound=5, pos=(3,), neg=(4,), "
                          "pos_weights=(2,), neg_weights=(3,))")
    assert repr(GRule(None, GAgg(False, None, 1, ((2, 1),)), ())) == (
        "GRule(head=None, head_agg=GAgg(weighted=False, lower=None, upper=1, "
        "elements=((2, 1),)), body=())")


def test_equality_and_hashing_ignore_locations_and_atom_counts():
    nodes = [r for r in RECORDS if isinstance(r, (Atom, Comparison, Aggregate, Rule))]
    assert len(nodes) == 4
    for node in nodes:
        fields = {f: getattr(node, f) for f in type(node).__slots__}
        moved = type(node)(**{**fields, "loc": THERE})
        assert moved == node and hash(moved) == hash(node)
        assert moved.loc == THERE and "loc=Loc(file='b.lp'" in repr(moved)
    assert Atom("p", (), HERE) != Atom("q", (), HERE)
    assert Diagnostic(HERE, "error", "unsafe") != Diagnostic(THERE, "error", "unsafe")
    gp = MUTABLE[0]
    assert gp == GroundProgram(gp.rules, gp.symbols, (), (1,), 1)
    assert gp != GroundProgram(gp.rules, gp.symbols, (), (1,), 2, 2)


@pytest.mark.parametrize("record", MUTABLE, ids=lambda r: type(r).__name__)
def test_mutable_records_are_unhashable(record):
    fields = {f: getattr(record, f) for f in type(record).__slots__}
    assert type(record)(**fields) == record
    assert type(record)(*fields.values()) == record
    assert type(record).__hash__ is None
    with pytest.raises(TypeError):
        hash(record)


def test_dict_defaults_are_fresh_per_instance():
    first, second = GroundOptions(), GroundOptions()
    first.constants["n"] = 1
    assert second.constants == {} and GroundOptions().constants == {}
    first, second = Program(), Program()
    first.const_decls["n"] = 1
    assert second.const_decls == {} and Program().const_decls == {}


def test_generated_init_takes_the_fields_in_slot_order():
    class Edge(Record):
        __slots__ = ("src", "dst", "label", "weight")
        _defaults = (None, 1)

    assert repr(Edge(1, 2)) == "Edge(src=1, dst=2, label=None, weight=1)"
    assert Edge(1, 2, "a") == Edge(dst=2, src=1, label="a", weight=1)
    assert Edge(1, 2, weight=3).weight == 3
    with pytest.raises(TypeError, match=r"^BasicRule\.__init__\(\) missing 1 required positional "
                                        r"argument: 'neg'$"):
        BasicRule(1, 2)
    with pytest.raises(TypeError, match=r"Edge\.__init__\(\) missing 1 required positional "
                                        r"argument: 'dst'$"):
        Edge(1)
    with pytest.raises(TypeError, match=r"^Atom\.__init__\(\) takes from 2 to 4 positional "
                                        r"arguments but 5 were given$"):
        Atom("p", (), None, None)
    with pytest.raises(TypeError, match=r"^Loc\.__init__\(\) got an unexpected keyword "
                                        r"argument 'row'$"):
        Loc("a.lp", 1, row=2)

    # the same bytecode as the plain __init__ written out
    class Written:
        def __init__(self, head, pos, neg):
            self.head = head
            self.pos = pos
            self.neg = neg

    assert BasicRule.__init__.__code__.co_code == Written.__init__.__code__.co_code
    assert BasicRule.__init__.__code__.co_filename == "<record BasicRule>"
    assert BasicRule.__init__.__module__ == "aspkit.shared"


def test_only_converting_records_write_their_own_init():
    for info in pkgutil.iter_modules(aspkit.__path__):
        importlib.import_module(f"aspkit.{info.name}")
    records = [cls for cls in Record.__subclasses__() if cls.__module__.startswith("aspkit.")]
    assert len(records) == 31
    assert {cls for cls in records if not cls.__init__.__code__.co_filename.startswith(
        "<record ")} == {ComputeSpec, GroundOptions, Program}

    class Pair(Record):
        __slots__ = ("left", "right")

        def __init__(self, left, right=None):
            self.left = left
            self.right = left if right is None else right

    assert Pair(2) == Pair(2, 2)


def test_compute_spec_freezes_its_sets():
    spec = ComputeSpec(required_true=[2, 2], required_false={3})
    assert spec.required_true == frozenset({2}) and type(spec.required_true) is frozenset
    assert type(spec.required_false) is frozenset
    assert ComputeSpec() == ComputeSpec(frozenset(), ())
    with pytest.raises(ValueError):
        ComputeSpec({2}, [2])


@pytest.mark.parametrize("record", RECORDS + MUTABLE, ids=lambda r: type(r).__name__)
def test_records_are_slotted_not_dataclasses(record):
    # No dataclasses helper can be called on a record, and a record holds
    # no per-instance dict.
    assert not dataclasses.is_dataclass(record)
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        dataclasses.replace(record)
