import pathlib
import random

import gen
import pytest

from aspkit import syntax
from aspkit.parser import (
    MAX_TERM_DEPTH,
    MissingDotError,
    ParseError,
    parse_text,
    substitute_constants,
)
from aspkit.pipeline import GroundOptions, ground_text_input, solve_ground
from aspkit.records import Record
from aspkit.syntax import Aggregate, Atom, Comparison, Integer, Range, Rule, SymbolicConst, Variable

PROGRAMS = sorted((pathlib.Path(__file__).resolve().parent.parent / "programs").glob("*.lp"))


def rt(text):
    """Parse, print, reparse; the second print must reproduce the first."""
    once = parse_text(text, "<t>").to_source()
    twice = parse_text(once, "<t>").to_source()
    assert once == twice
    return once


def test_fact_and_basic_rule():
    p = parse_text("edge(a, 2). path(X,Y) :- edge(X,Y).", "<t>")
    assert len(p.rules) == 2
    fact = p.rules[0]
    assert fact.body == ()
    assert fact.head.pred == "edge"
    assert [a.name if isinstance(a, Variable) else a for a in p.rules[1].head.args] == \
        [Variable("X").name, Variable("Y").name]


def test_integrity_constraint_has_no_head():
    p = parse_text(":- p, not q.", "<t>")
    assert p.rules[0].head is None
    lits = p.rules[0].body
    assert [l.positive for l in lits] == [True, False]


def test_cardinality_rule_shape():
    p = parse_text("1 { q(X,Y) : d(X) } 1 :- d(Y).", "<t>")
    agg = p.rules[0].head
    assert isinstance(agg, Aggregate)
    assert not agg.weighted
    assert agg.lower == Integer(1) and agg.upper == Integer(1)
    elem = agg.elements[0]
    assert elem.literal.atom.pred == "q"
    assert elem.literal.conditions[0].pred == "d"


def test_weight_rule_shape():
    p = parse_text("carry :- 10 [ item(X) : sack(X) = 2, not lazy = 3 ].", "<t>")
    agg = p.rules[0].body[0]
    assert agg.weighted
    assert agg.upper is None
    weights = [e.weight for e in agg.elements]
    assert weights == [Integer(2), Integer(3)]
    assert not agg.elements[1].literal.positive


def test_range_and_pool():
    p = parse_text("d(1..4). q(a; b).", "<t>")
    assert isinstance(p.rules[0].head.args[0], Range)
    assert len(p.rules[1].head.args) == 1


def test_comparison_literals():
    p = parse_text("p(X) :- d(X), X < 3, X != 2.", "<t>")
    comps = [b.atom for b in p.rules[0].body if isinstance(b.atom, Comparison)]
    assert [c.op for c in comps] == ["<", "!="]


def test_negated_comparison_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_text("p :- not X < Y.", "<t>")
    assert "dual operator" in str(err.value)


def test_missing_dot():
    with pytest.raises(MissingDotError):
        parse_text("p :- q", "<t>")


def test_const_decl_and_substitution():
    p = parse_text("#const n = 3. d(1..n).", "<t>")
    q = substitute_constants(p)
    rng = q.rules[0].head.args[0]
    assert rng.hi == Integer(3)
    q2 = substitute_constants(p, {"n": 5})
    assert q2.rules[0].head.args[0].hi == Integer(5)

    # Every term position: head arguments, body atoms, comparisons,
    # conditions, aggregate bounds and weights, ranges, pools and compute
    # literals. `m` is bound only by the bindings, which override #const n.
    text = ("#const n = 3.\n"
            "p(n, X) :- q(m + 1), X < n * 2, r(X).\n"
            "n { s(X, n) : d(X, m) } m :- t.\n"
            "u :- n [ s(X, 1) : d(X) = n, v(m) = -m ] m.\n"
            "d(1..n). w(n; a; m).\n"
            "keep(X) :- d(X), X != a, not w(a).\n"
            "compute { p(n, 1), not q(m) }.\n")
    p = parse_text(text, "<t>")
    q = substitute_constants(p, {"m": 7, "n": 4})
    assert q.to_source() == parse_text(
        "#const n = 3.\n"
        "p(4, X) :- q(7 + 1), X < 4 * 2, r(X).\n"
        "4 { s(X, 4) : d(X, 7) } 7 :- t.\n"
        "u :- 4 [ s(X, 1) : d(X) = 4, v(7) = -7 ] 7.\n"
        "d(1..4). w(4; a; 7).\n"
        "keep(X) :- d(X), X != a, not w(a).\n"
        "compute { p(4, 1), not q(7) }.\n", "<t>").to_source()
    assert "SymbolicConst(name='n')" not in repr(q) and "'m'" not in repr(q)
    # A rule that holds no bound constant is not rebuilt.
    assert [a is b for a, b in zip(q.rules, p.rules)] == [False] * 5 + [True]
    assert substitute_constants(p).rules[0].head.args[0] == Integer(3)


def _records(node):
    """Every record in `node`, walked over fields and tuples, parents first."""
    if isinstance(node, tuple):
        for item in node:
            yield from _records(item)
    elif isinstance(node, Record):
        yield node
        for field in node.__slots__:
            yield from _records(getattr(node, field))


def test_syntax_records_rebuild_from_their_slot_values():
    # syntax.rewrite rebuilds a changed record as type(node)(*values), its
    # field values in __slots__ order; each class must take them back so.
    rng = random.Random(28)
    texts = [path.read_text(encoding="utf-8") for path in PROGRAMS]
    for _ in range(10):
        texts += [gen.aggregate_source(rng), gen.comparison_program(rng)[0],
                  gen.conditional_program(rng), gen.arithmetic_program(rng)]
    seen = set()
    for text in texts:
        for node in _records(parse_text(text, "<t>")):
            values = [getattr(node, f) for f in node.__slots__]
            rebuilt = type(node)(*values)
            assert rebuilt == node
            assert all(getattr(rebuilt, f) is v for f, v in zip(node.__slots__, values)), node
            seen.add(type(node))
    classes = {c for c in vars(syntax).values()
               if isinstance(c, type) and issubclass(c, Record) and c.__module__ == syntax.__name__}
    assert seen == classes


def test_rewrite_keeps_untouched_subtrees_and_rebuilds_children_first():
    p = parse_text("p(a, X) :- q(b), X < a. r(c).", "<t>")
    order = []

    def fn(node):
        order.append(type(node).__name__)
        return Integer(1) if node == SymbolicConst("a") else node

    q = syntax.rewrite(p, fn)
    assert q.to_source() == "p(1,X) :- q(b), X < 1.\nr(c).\n"
    assert q.rules[1] is p.rules[1] and q.rules[0].body[0] is p.rules[0].body[0]
    assert q.rules[0].loc is p.rules[0].loc and q.const_decls is p.const_decls
    assert order[-1] == "Program" and order.index("SymbolicConst") < order.index("Atom")
    assert syntax.rewrite(p, lambda node: node) is p


def test_empty_integrity_constraint_prints_as_a_parsable_rule():
    assert Rule(None, ()).to_source() == ":- 1 == 1."
    assert parse_text(":- 1 == 1.", "<t>").rules[0].head is None


def test_compute_statement():
    p = parse_text("compute { p, not q }.", "<t>")
    assert p.compute is not None
    assert [l.positive for l in p.compute] == [True, False]
    assert [l.atom.pred for l in p.compute] == ["p", "q"]


def test_hide_show_passthrough():
    # Directives we do not model still parse without derailing the rules.
    p = parse_text("p. q :- p.", "<t>")
    assert len(p.rules) == 2


ROUND_TRIP_SAMPLES = [
    "p.",
    "p(a, 1).",
    ":- p, not q.",
    "p(X) :- q(X), not r(X).",
    "d(1..4).",
    "q(a; b; c).",
    "1 { q(X,Y):d(X) } 1 :- d(Y).",
    "{ pick(X):item(X) }.",
    "ok :- 2 { a, b, not c }.",
    "big :- 10 [ load(X):item(X)=4, not tired=3 ].",
    "p(X) :- d(X), X < 3.",
    "p(X + 1) :- d(X), X mod 2 == 0.",
    "p(abs(X - 5)) :- d(X).",
    "compute { p, not q }.",
    "#const n = 3. d(1..n).",
]


def test_round_trip_samples():
    for text in ROUND_TRIP_SAMPLES:
        rt(text)


def test_round_trip_random_programs():
    rng = random.Random(11)
    atoms = ["p", "q", "r", "s"]
    for _ in range(60):
        lines = []
        for _ in range(rng.randint(1, 6)):
            head = rng.choice(atoms)
            if rng.random() < 0.3:
                lines.append(f"{head}.")
                continue
            body = ", ".join(
                ("not " if rng.random() < 0.4 else "") + rng.choice(atoms)
                for _ in range(rng.randint(1, 3)))
            lines.append(f"{head} :- {body}.")
        rt("\n".join(lines))


def test_locations_point_into_source():
    p = parse_text("p.\n  q :- p.", "<t>")
    atom = p.rules[1].head
    assert isinstance(atom, Atom)
    assert (atom.loc.line, atom.loc.col) == (2, 3)


def _nested_terms(levels):
    """Three shapes of a term `levels` deep: parentheses, unary minus, and a
    left-deep sum."""
    return {
        "parens": "(" * (levels - 1) + "X" + ")" * (levels - 1),
        "minus": "-" * (levels - 1) + "X",
        "sum": "+".join(["X"] * levels),
    }


@pytest.mark.parametrize("shape", ["parens", "minus", "sum"])
def test_deeply_nested_term_is_a_parse_error(shape):
    # Far past the limit: these used to end in a RecursionError, in the
    # parser for the first two and in the domain analysis for the sum.
    deep = _nested_terms(5000)[shape]
    with pytest.raises(ParseError, match="nested deeper than 100 levels"):
        parse_text(f"p({deep}) :- d(X). d(1).", "<t>")
    just_over = _nested_terms(MAX_TERM_DEPTH + 1)[shape]
    with pytest.raises(ParseError, match="nested deeper"):
        parse_text(f"p({just_over}) :- d(X). d(1).", "<t>")
    # At the limit the term goes through every later stage.
    limit = _nested_terms(MAX_TERM_DEPTH)[shape]
    g = ground_text_input(f"p({limit}) :- d(X). d(1).",
                          GroundOptions(lint=True))
    assert list(solve_ground(g.interchange))
