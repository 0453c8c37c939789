import pathlib
import random
import time

import pytest

from aspkit.ground_format import BasicRule, ChoiceRule
from aspkit.oracle import brute_force_models
from aspkit.pipeline import GroundOptions, ground_files
from aspkit.shared import UnsupportedRuleTypeError
from aspkit.wellfounded import well_founded

import gen
from solver_checks import alternating_fixpoint

ROOT = pathlib.Path(__file__).resolve().parent.parent


def wf(rules, atoms):
    return well_founded(rules, extra_atoms=atoms)


def test_unfounded_loop_is_false_and_consequence_true():
    # a :- b.  b :- a.  c :- not a.
    rules = [BasicRule(2, (3,), ()), BasicRule(3, (2,), ()),
             BasicRule(4, (), (2,))]
    true, false, unknown = wf(rules, (2, 3, 4))
    assert true == {4}
    assert false == {2, 3}
    assert unknown == set()


def test_even_loop_stays_unknown():
    # a :- not b.  b :- not a.
    rules = [BasicRule(2, (), (3,)), BasicRule(3, (), (2,))]
    true, false, unknown = wf(rules, (2, 3))
    assert true == set()
    assert false == set()
    assert unknown == {2, 3}


def test_definite_program_yields_least_model():
    # facts and a chain; everything is decided
    rules = [BasicRule(2, (), ()), BasicRule(3, (2,), ()),
             BasicRule(4, (3,), ()), BasicRule(5, (6,), ())]
    true, false, unknown = wf(rules, (2, 3, 4, 5, 6))
    assert true == {2, 3, 4}
    assert false == {5, 6}
    assert unknown == set()


def test_odd_loop_is_partially_unknown():
    # a :- not a.  The well-founded model leaves a open.
    rules = [BasicRule(2, (), (2,))]
    true, false, unknown = wf(rules, (2,))
    assert unknown == {2}


def test_extended_rules_are_rejected():
    with pytest.raises(UnsupportedRuleTypeError):
        well_founded([ChoiceRule(heads=(2,), pos=(), neg=())])


def test_wf_truths_hold_in_every_stable_model():
    rng = random.Random(41)
    checked = 0
    for _ in range(200):
        gp = gen.random_normal_ground(rng)
        atoms = sorted(gp.symbols)
        true, false, _ = well_founded(gp.rules, extra_atoms=atoms)
        models = brute_force_models(gp.rules, cap=22)
        if not models:
            continue
        checked += 1
        for m in models:
            assert true <= set(m)
            assert not (false & set(m))
    assert checked > 50


def test_wf_is_deterministic():
    rng = random.Random(43)
    for _ in range(50):
        gp = gen.random_normal_ground(rng)
        atoms = sorted(gp.symbols)
        assert well_founded(gp.rules, extra_atoms=atoms) == \
            well_founded(gp.rules, extra_atoms=atoms)


def test_matches_the_alternating_fixpoint_reference():
    rng = random.Random(2024)
    with_unknown = 0
    for _ in range(3000):
        gp = gen.random_normal_ground(rng)
        atoms = sorted(gp.symbols)
        got = well_founded(gp.rules, extra_atoms=atoms)
        assert got == alternating_fixpoint(gp.rules, extra_atoms=atoms), gp.rules
        with_unknown += bool(got[2])
    # Negative loops must really occur: about a fifth of these programs
    # leave atoms unknown.
    assert with_unknown >= 500


@pytest.mark.parametrize("mode", ["keep", "none"])
def test_ancestor_matches_the_reference(mode):
    gp = ground_files([str(ROOT / "programs" / "ancestor.lp")],
                      GroundOptions(domain_mode=mode)).interchange
    atoms = set(gp.symbols) | set(gp.compute_true) | set(gp.compute_false)
    got = well_founded(gp.rules, extra_atoms=atoms)
    assert got == alternating_fixpoint(gp.rules, extra_atoms=atoms)
    names = {gp.symbols[a] for a in got[0] if a in gp.symbols}
    assert {"ancestor(joan,jill)", "ancestor(jack,jill)"} <= names
    assert not got[2]


@pytest.mark.parametrize("negated", [False, True])
def test_long_chain_in_reverse_order_takes_linear_time(negated):
    # p(i+1) :- p(i) [, not q(i)], written from i = n down to 1, then the
    # fact p(1). Each round of a rescanning least model derives one atom, so
    # it needs n rounds over the rules; a counting one derives all in one
    # pass. Atom p(i) is i + 1 and q(i) is n + 2 + i.
    n = 50_000
    rules = [BasicRule(i + 2, (i + 1,), (n + 2 + i,) if negated else ())
             for i in range(n, 0, -1)]
    rules.append(BasicRule(2, (), ()))
    t0 = time.perf_counter()
    true, false, unknown = well_founded(rules)
    elapsed = time.perf_counter() - t0
    assert true == set(range(2, n + 3))
    assert false == (set(range(n + 3, 2 * n + 3)) if negated else set())
    assert not unknown
    assert elapsed < 5.0, f"{n}-rule chain took {elapsed:.2f}s"
