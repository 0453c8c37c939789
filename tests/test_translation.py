import random

from aspkit.ground_format import BasicRule, ChoiceRule, ConstraintRule, WeightRule
from aspkit.pipeline import ground_text_input
from aspkit.shared import normalize_weight_elements


def rules_of(text):
    gp = ground_text_input(text).interchange
    return gp.rules, {v: k for k, v in gp.symbols.items()}


def test_choice_with_bounds_expands_to_frozen_form():
    rules, ids = rules_of("1 { q(1,1), q(2,1) } 1.")
    q11, q21 = ids["q(1,1)"], ids["q(2,1)"]
    choice = rules[0]
    assert choice == ChoiceRule(heads=(q11, q21), pos=(), neg=())
    # Two counting auxiliaries: "at least one holds" and "at least two hold".
    lo = rules[1]
    assert isinstance(lo, ConstraintRule)
    assert (lo.bound, lo.pos, lo.neg) == (1, (q11, q21), ())
    hi = rules[3]
    assert isinstance(hi, ConstraintRule)
    assert (hi.bound, hi.pos, hi.neg) == (2, (q11, q21), ())
    # Falsity fires when the count leaves [1, 1].
    assert rules[2] == BasicRule(head=1, pos=(), neg=(lo.head,))
    assert rules[4] == BasicRule(head=1, pos=(hi.head,), neg=())
    assert len(rules) == 5


def test_negative_weights_move_to_complement():
    elems, bound = normalize_weight_elements([(2, -3), (3, 4)], 5)
    assert elems == ((-2, 3), (3, 4))
    assert bound == 8


def test_negative_weight_on_negative_literal():
    elems, bound = normalize_weight_elements([(-2, -2)], 0)
    assert elems == ((2, 2),)
    assert bound == 2


def test_duplicate_literals_merge_and_zero_weights_vanish():
    elems, bound = normalize_weight_elements([(2, 1), (2, 2), (3, 0)], 1)
    assert elems == ((2, 3),)
    assert bound == 1


def test_bound_never_negative():
    elems, bound = normalize_weight_elements([(2, 2)], -4)
    assert bound == 0
    assert elems == ((2, 2),)


def test_normalised_weights_reach_the_bound_where_the_input_does():
    # Seeded property: the normalised elements are positive, name each
    # literal once, and with the bound (never below 0) reach it under
    # exactly the assignments under which the input reaches its own.
    rng = random.Random(29)
    for _ in range(20000):
        atoms = range(2, rng.randint(3, 6))
        elements = [(rng.choice(atoms) * rng.choice((1, -1)), rng.randint(-4, 4))
                    for _ in range(rng.randint(0, 6))]
        bound = rng.randint(-6, 10)
        normal, normal_bound = normalize_weight_elements(elements, bound)
        assert normal_bound >= 0 and all(w > 0 for _, w in normal)
        assert len({lit for lit, _ in normal}) == len(normal)
        for mask in range(1 << len(atoms)):
            true = {a for i, a in enumerate(atoms) if mask >> i & 1}

            def weight(elems):
                return sum(w for lit, w in elems if (lit > 0) == (abs(lit) in true))

            assert (weight(normal) >= normal_bound) == (weight(elements) >= bound), (
                elements, bound, true)


def test_weight_body_becomes_single_weight_rule():
    rules, ids = rules_of("{ a, b, c }. big :- 3 [ a=2, b=2, c=1 ].")
    wr = [r for r in rules if isinstance(r, WeightRule)]
    assert len(wr) == 1
    (w,) = wr
    assert w.bound == 3
    assert sorted(zip(w.pos, w.pos_weights)) == \
        sorted([(ids["a"], 2), (ids["b"], 2), (ids["c"], 1)])


def test_cardinality_body_becomes_constraint_rule():
    rules, ids = rules_of("{ a, b }. ok :- 1 { a, not b }.")
    cr = [r for r in rules if isinstance(r, ConstraintRule)]
    assert len(cr) == 1
    (c,) = cr
    assert c.bound == 1
    assert c.pos == (ids["a"],)
    assert c.neg == (ids["b"],)
    # The counting atom is auxiliary; a basic rule carries it to ok.
    links = [r for r in rules
             if isinstance(r, BasicRule) and r.head == ids["ok"]]
    assert links == [BasicRule(head=ids["ok"], pos=(c.head,), neg=())]


def test_upper_bound_in_body_uses_aux_negation():
    # ok wants count(a, b) <= 1: an aux "two or more" atom is negated.
    rules, ids = rules_of("{ a, b }. ok :- { a, b } 1.")
    constraints = [r for r in rules if isinstance(r, ConstraintRule)]
    assert len(constraints) == 1
    aux = constraints[0]
    assert aux.bound == 2 and aux.pos == (ids["a"], ids["b"])
    basics = [r for r in rules if isinstance(r, BasicRule) and r.head == ids["ok"]]
    assert len(basics) == 1
    assert basics[0].neg == (aux.head,)
    assert basics[0].pos == ()


def test_plain_parts_stay_basic():
    rules, ids = rules_of("a. b :- a. c :- b, not d. { d }.")
    kinds = [type(r).__name__ for r in rules]
    assert kinds.count("BasicRule") == 3
    assert kinds.count("ChoiceRule") == 1


def test_translation_is_linear_in_source_size():
    # Each source construct may expand to at most a small constant number
    # of primitive rules.
    lines = ["{ %s }." % ", ".join(f"p({i},{j})" for j in range(1, 6))
             for i in range(1, 11)]
    lines += [f":- 3 {{ p({i},1), p({i},2), p({i},3) }}." for i in range(1, 11)]
    lines += [f"w({i}) :- 4 [ p({i},1)=2, p({i},2)=3 ]." for i in range(1, 11)]
    text = "\n".join(lines)
    rules, _ = rules_of(text)
    constructs = 30
    assert len(rules) <= 5 * constructs + 5
