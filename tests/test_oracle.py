import random

import pytest

from aspkit.ground_format import (
    BasicRule,
    ChoiceRule,
    ConstraintRule,
    GroundProgram,
    WeightRule,
)
from aspkit.grounding import GAgg, GRule, SymbolTable
from aspkit.oracle import (
    CapExceededError,
    ComputeSpec,
    brute_force_models,
    is_stable,
    least_model,
    naive_least_model,
    reduct,
    source_is_stable,
    source_models,
)
from aspkit.parser import parse_text
from aspkit.pipeline import (
    GroundOptions,
    SolveOptions,
    ground_text_input,
    solve_ground,
    verify_model,
)
from aspkit.shared import FALSITY

import gen


# -- reduct -------------------------------------------------------------------

def test_reduct_drops_basic_rule_blocked_by_model():
    assert reduct([BasicRule(2, (3,), (4,))], {4}) == []


def test_reduct_keeps_basic_rule_with_positive_body():
    assert reduct([BasicRule(2, (3,), (4,))], {2, 3}) == \
        [BasicRule(2, (3,), ())]


def test_reduct_lowers_constraint_bound_by_false_negatives():
    # h :- 1 { a, not b } with b outside the model: "not b" already
    # contributes one, so the positive remainder needs none.
    got = reduct([ConstraintRule(head=2, bound=1, pos=(3,), neg=(4,))], {2})
    assert got == [ConstraintRule(head=2, bound=0, pos=(3,), neg=())]


def test_reduct_constraint_bound_stays_when_negative_is_in_model():
    got = reduct([ConstraintRule(head=2, bound=1, pos=(3,), neg=(4,))], {2, 4})
    assert got == [ConstraintRule(head=2, bound=1, pos=(3,), neg=())]


def test_reduct_lowers_weight_bound_by_false_negative_weight():
    rule = WeightRule(head=2, bound=5, pos=(3,), neg=(4,),
                      pos_weights=(2,), neg_weights=(3,))
    assert reduct([rule], set()) == \
        [WeightRule(head=2, bound=2, pos=(3,), neg=(), pos_weights=(2,),
                    neg_weights=())]


def test_reduct_weight_bound_clamps_at_zero():
    rule = WeightRule(head=2, bound=2, pos=(3,), neg=(4,),
                      pos_weights=(1,), neg_weights=(9,))
    got = reduct([rule], set())
    assert got[0].bound == 0


def test_reduct_choice_becomes_basic_rules_for_chosen_heads():
    got = reduct([ChoiceRule(heads=(2, 3), pos=(4,), neg=(5,))], {2, 4})
    assert got == [BasicRule(2, (4,), ())]


def test_reduct_choice_blocked_by_negative_literal():
    assert reduct([ChoiceRule(heads=(2, 3), pos=(4,), neg=(5,))], {2, 4, 5}) == []


# -- least model and stability ------------------------------------------------

def test_least_model_of_definite_rules():
    rules = [BasicRule(2, (), ()), BasicRule(3, (2,), ()), BasicRule(4, (5,), ())]
    assert least_model(rules) == {2, 3}


def test_least_model_rejects_negation():
    with pytest.raises(ValueError):
        least_model([BasicRule(2, (), (3,))])


def test_least_model_with_bounds():
    rules = [BasicRule(2, (), ()), BasicRule(3, (), ()),
             ConstraintRule(head=4, bound=2, pos=(2, 3), neg=())]
    assert least_model(rules) == {2, 3, 4}


def test_two_cycle_stability():
    rules = [BasicRule(2, (), (3,)), BasicRule(3, (), (2,))]
    assert is_stable(rules, {2})
    assert is_stable(rules, {3})
    assert not is_stable(rules, set())
    assert not is_stable(rules, {2, 3})


def test_odd_loop_has_no_stable_model():
    rules = [BasicRule(2, (), (2,))]
    assert brute_force_models(rules) == []


def test_two_cycle_brute_force():
    rules = [BasicRule(2, (), (3,)), BasicRule(3, (), (2,))]
    assert brute_force_models(rules) == [frozenset({2}), frozenset({3})]


def test_model_containing_falsity_is_rejected():
    rules = [BasicRule(1, (2,), ()), ChoiceRule(heads=(2,), pos=(), neg=())]
    assert not is_stable(rules, {1, 2})
    assert brute_force_models(rules) == [frozenset()]


def test_compute_spec_filters_brute_force():
    rules = [ChoiceRule(heads=(2, 3), pos=(), neg=())]
    spec = ComputeSpec(required_true=(2,), required_false=(3,))
    assert brute_force_models(rules, spec) == [frozenset({2})]
    assert not is_stable(rules, {3}, spec)
    assert is_stable(rules, {2}, spec)


def test_brute_force_cap():
    rules = [ChoiceRule(heads=tuple(range(2, 24)), pos=(), neg=())]
    with pytest.raises(CapExceededError):
        brute_force_models(rules)


def test_brute_force_agrees_with_reduct_definition():
    rng = random.Random(3)
    for _ in range(100):
        gp = gen.random_normal_ground(rng, max_atoms=6, max_rules=8)
        models = brute_force_models(gp.rules)
        for m in models:
            assert least_model(reduct(gp.rules, m)) == set(m)


# -- source-level route -------------------------------------------------------

def cycle_rules():
    t = SymbolTable()
    a, b = t.intern("a"), t.intern("b")
    return [GRule(a, None, (-b,)), GRule(b, None, (-a,))], (a, b)


def test_source_stability_on_two_cycle():
    rules, (a, b) = cycle_rules()
    assert source_is_stable(rules, {a})
    assert source_is_stable(rules, {b})
    assert not source_is_stable(rules, {a, b})
    assert not source_is_stable(rules, set())


def test_source_models_enumerates():
    rules, (a, b) = cycle_rules()
    assert source_models(rules) == [frozenset({a}), frozenset({b})]


def test_source_cardinality_bounds():
    t = SymbolTable()
    a, b = t.intern("a"), t.intern("b")
    choice = GRule(None, GAgg(False, None, None, ((a, 1), (b, 1))), ())
    need = GRule(None, GAgg(False, 1, 1, ((a, 1), (b, 1))), ())
    models = source_models([choice, need])
    assert models == [frozenset({a}), frozenset({b})]


def test_source_weight_with_negative_weights():
    # carry :- -1 [ a = -2 ] 0.   Holding a drops the sum to -2, below the
    # lower bound, so carry fires exactly when a is out.
    t = SymbolTable()
    a, c = t.intern("a"), t.intern("carry")
    rules = [GRule(None, GAgg(False, None, None, ((a, 1),)), ()),
             GRule(c, None, (GAgg(True, -1, 0, ((a, -2),)),))]
    models = source_models(rules)
    assert models == [frozenset({a}), frozenset({c})]


def test_naive_least_model_on_source_text():
    text = """
    edge(a, b). edge(b, c).
    node(a). node(b). node(c).
    reach(a).
    reach(Y) :- reach(X), edge(X, Y), node(Y).
    """
    m = naive_least_model(parse_text(text, "<t>"))
    assert {"reach(a)", "reach(b)", "reach(c)"} <= m
    assert "reach(d)" not in m


def test_naive_least_model_arithmetic():
    text = "d(1). d(2). d(3). s(X + X) :- d(X)."
    m = naive_least_model(parse_text(text, "<t>"))
    assert {"s(2)", "s(4)", "s(6)"} <= m


# -- verify_model against brute force ---------------------------------------------

def _with_compute(gp, rng):
    """gp with a random atom in B+ and one in B-, hidden ones and the
    falsity atom too."""
    atoms = range(1, gp.n_atoms + 1)
    return GroundProgram(gp.rules, gp.symbols, (rng.choice(atoms),),
                         (FALSITY, rng.choice(atoms)), gp.models, gp.n_atoms)


def test_verify_model_agrees_with_brute_force():
    # verify_model fixes the named atoms and lets the solver search the
    # hidden ones, the translation's auxiliary atoms. In keep and none mode,
    # each listing solve_ground yields verifies, and a seeded set of visible
    # names verifies exactly when some brute-force stable model with those
    # true visible atoms meets B+ and B-.
    rng = random.Random(7)
    compared = 0
    for make in (gen.aggregate_source, gen.conditional_program):
        for i in range(40):
            text = make(rng)
            gp = ground_text_input(text, GroundOptions(domain_mode=("keep", "none")[i % 2]))
            for program in (gp.interchange, _with_compute(gp.interchange, rng)):
                listings = [frozenset(names) for _, names in
                            solve_ground(program, SolveOptions(model_count=0))]
                assert all(verify_model(program, names) for names in listings)
                try:
                    models = brute_force_models(program.rules, cap=10)
                except CapExceededError:
                    continue
                b_plus, b_minus = set(program.compute_true), set(program.compute_false)
                parts = {frozenset(program.symbols[a] for a in m if a in program.symbols)
                         for m in models if b_plus <= m and not m & b_minus}
                assert set(listings) == parts
                visible = sorted(program.symbols.values())
                for _ in range(6):
                    names = rng.sample(visible, rng.randint(0, len(visible)))
                    assert verify_model(program, names) == (frozenset(names) in parts)
                    compared += 1
    assert compared > 300
