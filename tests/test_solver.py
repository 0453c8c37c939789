import random
import tracemalloc
from pathlib import Path

import pytest

from aspkit.ground_format import (
    BasicRule,
    ChoiceRule,
    ConstraintRule,
    GroundProgram,
    WeightRule,
)
from aspkit.ground_format import parse_ground_program
from aspkit.oracle import CapExceededError, ComputeSpec, brute_force_models, is_stable
from aspkit import pipeline
from aspkit.pipeline import GroundOptions, ground_files, ground_text_input, verify_model
from aspkit import solver as solver_module
from aspkit.shared import FALSITY
from aspkit.solver import (
    _LIVE,
    FALSE,
    TRUE,
    UNKNOWN,
    Conflict,
    SolveStats,
    Solver,
)

import gen
from solver_checks import (
    BoundCheckedSolver,
    CheckedSolver,
    FullProbeSolver,
    ShuffledFullProbeSolver,
    ShuffledSolver,
    binary_constraints,
    built_structure,
    state_fingerprint,
    static_structure,
)


def program(rules, n_atoms, compute_true=(), compute_false=(), models=0):
    symbols = {a: f"x{a}" for a in range(2, n_atoms + 2)}
    return GroundProgram(rules=list(rules), symbols=symbols,
                         compute_true=tuple(compute_true),
                         compute_false=(1,) + tuple(compute_false),
                         models=models)


def solve_all(gp):
    return list(Solver(gp).models())


def queens(n):
    path = Path(__file__).resolve().parent.parent / "programs" / "queens.lp"
    return ground_files([str(path)], GroundOptions(constants={"n": n},
                                                   domain_mode="none")).interchange


# -- ComputeSpec --------------------------------------------------------------

def test_compute_spec_rejects_overlap():
    with pytest.raises(ValueError):
        ComputeSpec(required_true=(2,), required_false=(2,))


# -- expand -------------------------------------------------------------------

def test_expand_forces_head_of_satisfied_count_body():
    # h :- 1 { a, not b }.   With b false the bound is met, so h follows.
    gp = program([ConstraintRule(head=2, bound=1, pos=(3,), neg=(4,)),
                  ChoiceRule(heads=(3, 4), pos=(), neg=())],
                 3, compute_false=(4,))
    s = Solver(gp)
    assert s.expand() is None
    assert s.values[2] == TRUE
    assert s.values[3] == UNKNOWN


def test_expand_backchains_required_atom():
    # h must hold and only one rule can derive it, so its body is forced.
    gp = program([BasicRule(head=2, pos=(3,), neg=(4,)),
                  ChoiceRule(heads=(3, 4), pos=(), neg=())],
                 3, compute_true=(2,))
    s = Solver(gp)
    assert s.expand() is None
    assert s.values[3] == TRUE
    assert s.values[4] == FALSE


def test_expand_contraposes_falsified_head():
    # h is required false and the rule body would fire on a true, so a is
    # forced false (the negative literal b stays open but cannot save h).
    gp = program([BasicRule(head=2, pos=(3,), neg=()),
                  ChoiceRule(heads=(3, 4), pos=(), neg=())],
                 3, compute_false=(2,))
    s = Solver(gp)
    assert s.expand() is None
    assert s.values[3] == FALSE


def test_expand_falsifies_unfounded_loop():
    # a :- b.  b :- a.  No external support, so both are false.
    gp = program([BasicRule(head=2, pos=(3,), neg=()),
                  BasicRule(head=3, pos=(2,), neg=())], 2)
    s = Solver(gp)
    assert s.expand() is None
    assert s.values[2] == FALSE
    assert s.values[3] == FALSE


def test_expand_keeps_supported_loop_open():
    # The same loop with an external door stays undetermined.
    gp = program([BasicRule(head=2, pos=(3,), neg=()),
                  BasicRule(head=3, pos=(2,), neg=()),
                  BasicRule(head=2, pos=(), neg=(4,)),
                  ChoiceRule(heads=(4,), pos=(), neg=())], 3)
    s = Solver(gp)
    assert s.expand() is None
    assert s.values[2] == UNKNOWN


def test_expand_reports_conflict_atom():
    gp = program([BasicRule(head=2, pos=(), neg=())], 1, compute_false=(2,))
    s = Solver(gp)
    c = s.expand()
    assert isinstance(c, Conflict)
    assert c.atom == 2


def test_expand_is_idempotent():
    gp = program([BasicRule(head=2, pos=(3,), neg=(4,)),
                  ChoiceRule(heads=(3, 4), pos=(), neg=()),
                  ConstraintRule(head=5, bound=1, pos=(2, 3), neg=())], 4)
    s = Solver(gp)
    assert s.expand() is None
    snap = state_fingerprint(s)
    assert s.expand() is None
    assert state_fingerprint(s) == snap


def test_expand_monotone_under_extra_assumptions():
    rng = random.Random(5)
    for _ in range(200):
        gp = gen.random_normal_ground(rng)
        atoms = sorted(gp.symbols)
        s = Solver(gp)
        if s.expand() is not None:
            continue
        fixed = {a for a in atoms if s.values[a] != UNKNOWN}
        unknown = [a for a in atoms if s.values[a] == UNKNOWN]
        if not unknown:
            continue
        pick = unknown[0]
        mark = len(s.trail)
        s._set(pick, TRUE)
        if s.expand() is None:
            grown = {a for a in atoms if s.values[a] != UNKNOWN}
            assert fixed <= grown
        s._undo_to(mark)


# -- search -------------------------------------------------------------------

def test_two_cycle_has_both_models():
    gp = program([BasicRule(head=2, pos=(), neg=(3,)),
                  BasicRule(head=3, pos=(), neg=(2,))], 2)
    assert solve_all(gp) == [(2,), (3,)]


def test_odd_loop_has_no_model():
    gp = program([BasicRule(head=2, pos=(), neg=(2,))], 1)
    assert solve_all(gp) == []


def test_choice_enumerates_all_subsets():
    gp = program([ChoiceRule(heads=(2, 3), pos=(), neg=())], 2)
    assert set(solve_all(gp)) == {(), (2,), (3,), (2, 3)}


def test_constraint_rule_counts():
    # pair :- 2 { a, b, c }.  require pair, forbid full set
    gp = program([ChoiceRule(heads=(3, 4, 5), pos=(), neg=()),
                  ConstraintRule(head=2, bound=2, pos=(3, 4, 5), neg=()),
                  BasicRule(head=1, pos=(3, 4, 5), neg=())],
                 4, compute_true=(2,))
    got = sorted(solve_all(gp))
    assert got == [(2, 3, 4), (2, 3, 5), (2, 4, 5)]


def test_weight_rule_threshold():
    gp = program([ChoiceRule(heads=(3, 4), pos=(), neg=()),
                  WeightRule(head=2, bound=5, pos=(3, 4), neg=(),
                             pos_weights=(3, 4), neg_weights=())], 3)
    models = solve_all(gp)
    with_both = [m for m in models if 3 in m and 4 in m]
    assert all(2 in m for m in with_both)
    assert all(2 not in m or (3 in m and 4 in m) for m in models)


def test_negative_weights_count_on_the_complement():
    # A ground file may carry negative weights. Over atoms that a choice
    # rule leaves free, the head 2 of the weight rule holds exactly in the
    # subsets whose satisfied weights, negative ones included, sum to at
    # least the bound.
    rng = random.Random(67)
    negative = 0
    for _ in range(300):
        free = list(range(3, rng.randint(4, 7)))
        pos = tuple(rng.sample(free, rng.randint(0, len(free))))
        neg = tuple(rng.sample(free, rng.randint(0, len(free))))
        pw = tuple(rng.randint(-3, 3) for _ in pos)
        nw = tuple(rng.randint(-3, 3) for _ in neg)
        bound = rng.randint(-3, 5)
        gp = program([ChoiceRule(heads=tuple(free), pos=(), neg=()),
                      WeightRule(head=2, bound=bound, pos=pos, neg=neg,
                                 pos_weights=pw, neg_weights=nw)], len(free) + 1)
        want = []
        for mask in range(1 << len(free)):
            chosen = {a for i, a in enumerate(free) if mask >> i & 1}
            weight = (sum(w for a, w in zip(pos, pw) if a in chosen)
                      + sum(w for a, w in zip(neg, nw) if a not in chosen))
            want.append(tuple(sorted(chosen | ({2} if weight >= bound else set()))))
        assert sorted(solve_all(gp)) == sorted(want), (pos, neg, pw, nw, bound)
        negative += min(pw + nw, default=0) < 0
    assert negative > 150


@pytest.mark.parametrize("negative", [False, True])
@pytest.mark.parametrize("bound", [3, 4, 5, 6, 7])
def test_weight_rule_backchains_exactly_below_its_largest_weight(bound, negative):
    # Atom 2 is required true and its only rule is 2 :- bound [x=3, y1=1,
    # ..., y5=1], or with "not x=3". With y1 required false the rule keeps
    # weight 7, so its slack is 7 - bound: 4, 3, 2, 1 and 0 here. The
    # weight-3 literal is forced exactly when the slack is below 3, and the
    # weight-1 ones when it is below 1. At bound 5 only y1's loss brings the
    # slack from 3 down to 2, so that is where the rule backchains.
    x, ys = 3, (4, 5, 6, 7, 8)
    if negative:
        body = dict(pos=ys, neg=(x,), pos_weights=(1,) * 5, neg_weights=(3,))
    else:
        body = dict(pos=(x,) + ys, neg=(), pos_weights=(3,) + (1,) * 5, neg_weights=())
    gp = program([ChoiceRule(heads=(x,) + ys, pos=(), neg=()),
                  WeightRule(head=2, bound=bound, **body)],
                 7, compute_true=(2,), compute_false=(4,))
    s = CheckedSolver(gp)
    assert s.expand() is None
    slack = 7 - bound
    assert s.values[x] == ((FALSE if negative else TRUE) if slack < 3 else UNKNOWN)
    assert [s.values[y] for y in ys[1:]] == [TRUE if slack < 1 else UNKNOWN] * 4
    spec = ComputeSpec(required_true=(2,), required_false=(4,))
    want = sorted(tuple(sorted(m)) for m in brute_force_models(gp.rules, spec))
    assert want
    assert sorted(CheckedSolver(gp).models()) == want


def test_model_count_limit_is_enforced_by_the_pipeline():
    from aspkit.pipeline import solve_ground
    gp = program([ChoiceRule(heads=(2, 3, 4), pos=(), neg=())], 3, models=2)
    assert len(list(solve_ground(gp))) == 2


def test_compute_sets_filter_models():
    gp = program([ChoiceRule(heads=(2, 3), pos=(), neg=())],
                 2, compute_true=(2,), compute_false=(3,))
    assert solve_all(gp) == [(2,)]


def test_enumeration_is_deterministic():
    rng = random.Random(99)
    for _ in range(50):
        gp = gen.random_normal_ground(rng)
        assert solve_all(gp) == solve_all(gp)


def test_seeded_lookahead_sampling_keeps_model_set():
    rng = random.Random(31)
    for _ in range(60):
        gp = gen.random_normal_ground(rng)
        base = sorted(solve_all(gp))
        for seed in (1, 7):
            assert sorted(ShuffledSolver(gp, seed).models()) == base


def test_incremental_unfounded_sets_match_global_recompute():
    # Every fixpoint of a full enumeration, lookahead probes included, must
    # leave open no atom that the global recompute would falsify, and every
    # probe result read off a record must be the one probing gives.
    rng = random.Random(13)
    programs = [queens(6)]
    for i in range(800):
        if i % 2:
            programs.append(gen.to_interchange(*gen.random_extended_source(rng)))
        else:
            programs.append(gen.random_normal_ground(rng))
    fixpoints = recalls = 0
    for gp in programs:
        s = CheckedSolver(gp)
        list(s.models())
        fixpoints += s.fixpoints
        recalls += s.recalls
    assert fixpoints > 1000 and recalls > 100


def test_aggregate_programs_beyond_the_brute_force_cap():
    # Too many atoms for brute force: every model the checked solver finds
    # must be stable, and a shuffled candidate order must find the same set.
    rng = random.Random(71)
    with_models = 0
    for seed in range(12):
        gp = gen.to_interchange(*gen.random_aggregate_program(rng))
        with pytest.raises(CapExceededError):
            brute_force_models(gp.rules)
        models = sorted(CheckedSolver(gp).models())
        assert all(is_stable(gp.rules, m) for m in models)
        assert sorted(ShuffledSolver(gp, seed).models()) == models
        with_models += bool(models)
    assert with_models >= 8


def test_two_literal_constraints_match_brute_force():
    # Two-literal integrity constraints become implication lists, not
    # counted rules; all four sign patterns, and one atom on both sides,
    # must keep the oracle's model set under any candidate order, with the
    # implications closed at every fixpoint and after every backtrack.
    rng = random.Random(61)
    constraints = fixpoints = 0
    for _ in range(500):
        gp = gen.random_binary_constraint_ground(rng)
        want = sorted(tuple(sorted(m)) for m in brute_force_models(gp.rules))
        checked = CheckedSolver(gp)
        assert sorted(checked.models()) == want
        for seed in (1, 7):
            assert sorted(ShuffledSolver(gp, seed).models()) == want
        constraints += len(checked.constraints)
        fixpoints += checked.fixpoints
        assert len(checked.bound) + len(checked.constraints) == len(gp.rules)
    assert constraints > 2000 and fixpoints > 2000


@pytest.mark.parametrize("constraint, want", [
    ("1 1 2 0 2 2", [()]),          # :- a, a.
    ("1 1 2 1 2 2", [(), (2,)]),    # :- a, not a.
    ("1 1 2 2 2 2", [(2,)]),        # :- not a, not a.
])
def test_two_literal_constraint_on_one_atom(constraint, want):
    gp = parse_ground_program(f"3 1 2 0 0\n{constraint}\n0\n2 a\n0\nB+\n0\nB-\n1\n0\n0\n")
    assert sorted(tuple(sorted(m)) for m in brute_force_models(gp.rules)) == want
    assert sorted(CheckedSolver(gp).models()) == want
    for seed in (1, 7):
        assert sorted(ShuffledSolver(gp, seed).models()) == want


def test_choice_rule_listing_a_head_twice_matches_brute_force():
    # A ground file may list a choice head twice. The solver counts such a
    # head once, so the rule gives it one support and withdraws it once as
    # it dies: backchaining never runs with no live rule left for the head,
    # and the model set is the oracle's.
    class Counting(CheckedSolver):
        unsupported = 0

        def _backchain_atom(self, h, pend):
            self.unsupported += all(self.dead[r] != _LIVE for r in self.defs[h])
            super()._backchain_atom(h, pend)

    rng = random.Random(5)
    unsupported = 0
    for _ in range(300):
        atoms = list(range(2, rng.randint(2, 6) + 2))
        rules = []
        for _ in range(rng.randint(1, 8)):
            pos = tuple(rng.sample(atoms, rng.randint(0, 2)))
            neg = tuple(rng.sample(atoms, rng.randint(0, 2)))
            h = rng.choice(atoms)
            if rng.random() < 0.5:
                rules.append(ChoiceRule((h, h, *rng.sample(atoms, rng.randint(0, 1))), pos, neg))
            else:
                rules.append(BasicRule(rng.choice((h, FALSITY)), pos, neg))
        gp = program(rules, len(atoms))
        want = sorted(tuple(sorted(m)) for m in brute_force_models(gp.rules))
        s = Counting(gp)
        assert sorted(s.models()) == want
        unsupported += s.unsupported
    assert unsupported == 0


def _lookahead_corpus():
    rng = random.Random(53)
    yield queens(6)
    for i in range(2000):
        if i % 2:
            yield gen.to_interchange(*gen.random_extended_source(rng))
        else:
            yield gen.random_normal_ground(rng)


def test_lookahead_skips_probes_but_not_choices():
    # Skipping the probes an earlier probe of the round implied must leave
    # every choice as probing all of them makes it: the same models in the
    # same order after the same decisions, conflicts and failed literals.
    # The shuffled pairs see unsorted candidates, where ties are not
    # settled by candidate order.
    probes = full_probes = 0
    for gp in _lookahead_corpus():
        pairs = [(Solver(gp), FullProbeSolver(gp))]
        pairs += [(ShuffledSolver(gp, seed), ShuffledFullProbeSolver(gp, seed))
                  for seed in (1, 7)]
        for s, full in pairs:
            assert list(s.models()) == list(full.models())
            for stat in ("decisions", "conflicts", "failed_literals"):
                assert getattr(s.stats, stat) == getattr(full.stats, stat), stat
            assert s.stats.probes <= full.stats.probes
            assert s.stats.propagations <= full.stats.propagations
            probes += s.stats.probes
            full_probes += full.stats.probes
    assert probes < full_probes


def _smodels_score(self, fixed_t, fixed_f, atom):
    # the smaller probe count first, ties to the larger (Simons, Niemelä
    # and Soininen, AIJ 2002), then to the lowest id
    return min(fixed_t, fixed_f), max(fixed_t, fixed_f), -atom


def test_a_new_score_reaches_the_reference_lookahead():
    # A policy lives in one method: overriding only _score changes the
    # choices of the solver and of the reference that probes every side
    # alike, so skipping probes still keeps every choice.
    class Smodels(Solver):
        _score = _smodels_score

    class FullSmodels(FullProbeSolver):
        _score = _smodels_score

    for gp in _lookahead_corpus():
        s, full = Smodels(gp), FullSmodels(gp)
        assert list(s.models()) == list(full.models())
        for stat in ("decisions", "conflicts", "failed_literals"):
            assert getattr(s.stats, stat) == getattr(full.stats, stat), stat
    text, clauses = gen.planted_3sat(random.Random(3), 150)
    gp = ground_text_input(text, GroundOptions(domain_mode="none")).interchange
    decisions = []
    for cls in (Solver, Smodels, FullSmodels):
        s = cls(gp)
        assert _satisfies(gp, next(s.models()), clauses)
        decisions.append(s.stats.decisions)
    assert decisions == [28, 35, 35]


def test_skipped_probes_stay_within_their_bounds():
    rng = random.Random(59)
    programs = [queens(5)]
    for i in range(600):
        if i % 2:
            programs.append(gen.to_interchange(*gen.random_extended_source(rng)))
        else:
            programs.append(gen.random_normal_ground(rng))
    reprobes = 0
    for gp in programs:
        s = BoundCheckedSolver(gp)
        assert list(s.models()) == solve_all(gp)
        reprobes += s.reprobes
    assert reprobes > 300


def test_queens_8_lookahead_probe_budget():
    # Probing every candidate both ways takes 10,732 probes here.
    s = Solver(queens(8))
    assert len(list(s.models())) == 92
    assert s.stats.probes <= 7000
    assert s.stats.failed_literals > 0


def _queens_placed(n, queens):
    """n queens, no two on one row, column or diagonal."""
    return (len(queens) == n and len({x for x, _ in queens}) == n
            and len({y for _, y in queens}) == n
            and len({x - y for x, y in queens}) == n and len({x + y for x, y in queens}) == n)


def _satisfies(gp, model, clauses):
    true = {int(gp.symbols[a][2:-1]) for a in model if gp.symbols.get(a, "").startswith("t(")}
    return all(any((l > 0) == (abs(l) in true) for l in clause) for clause in clauses)


def _first_model_instances():
    """(name, ground program, check of its first model or of None when it
    has none) of the first-model searches no benchmark workload runs."""
    none = GroundOptions(domain_mode="none")
    gp = queens(20)
    yield "queens-20", gp, lambda m: m is not None and _queens_placed(20, _pairs(gp, m, "q"))
    yield "pigeonhole-7-6", ground_text_input(gen.pigeonhole(7, 6), none).interchange, \
        lambda m: m is None
    for seed in (1, 2):
        text, clauses = gen.planted_3sat(random.Random(seed), 150)
        sat = ground_text_input(text, none).interchange
        yield f"3sat-150-{seed}", sat, \
            lambda m, sat=sat, clauses=clauses: m is not None and _satisfies(sat, m, clauses)


# name -> (decisions, conflicts, failed_literals, probes, propagations) of the
# first model when every candidate was probed, not read off a record
FIRST_MODEL_COUNTS = {
    "queens-20": (14, 29, 23, 809, 14091),
    "pigeonhole-7-6": (434, 753, 317, 10201, 48496),
    "3sat-150-1": (20, 78, 70, 1725, 9161),
    "3sat-150-2": (96, 305, 235, 6068, 27750),
}


def test_first_models_keep_their_choices():
    # Lookahead pays on first-model searches, where perfbench runs none.
    # Reusing probe results must leave their choices alone and may only
    # save probes and propagations.
    for name, gp, check in _first_model_instances():
        s = Solver(gp)
        assert check(next(s.models(), None)), name
        decisions, conflicts, failed, probes, propagations = FIRST_MODEL_COUNTS[name]
        assert (s.stats.decisions, s.stats.conflicts, s.stats.failed_literals) == (
            decisions, conflicts, failed), name
        assert s.stats.probes <= probes and s.stats.propagations <= propagations, name


def test_probe_records_are_dropped_below_their_trail_length():
    # A probe record holds for the trail it was taken at. Every record
    # kept must still sit on that trail prefix, after every undo and
    # whenever a probe may read it, and each literal has one record.
    # The undo that ends a probe sees the record that probe has just
    # taken, whose prefix is noted only once the probe returns.
    class Recorded(Solver):
        def __init__(self, gp):
            super().__init__(gp)
            self.prefix = {}
            self.dropped = 0
            self.probing = None

        def _probe(self, lit, bounds=None):
            self.check()
            self.probing = lit
            fixed = super()._probe(lit, bounds)
            self.probing = None
            if fixed:
                self.prefix[lit] = self.trail[:self._probed[lit][0]]
            return fixed

        def _undo_to(self, mark):
            before = set(self._probed)
            super()._undo_to(mark)
            self.dropped += len(before - set(self._probed))
            self.check()

        def check(self):
            assert len(self._probed) <= 2 * self.n_atoms
            for lit, (base, _, _) in self._probed.items():
                if lit != self.probing:
                    assert self.trail[:base] == self.prefix[lit], (
                        f"record of {lit} outlived its trail")

    rng = random.Random(67)
    programs = [queens(6)]
    for i in range(400):
        if i % 2:
            programs.append(gen.to_interchange(*gen.random_extended_source(rng)))
        else:
            programs.append(gen.random_normal_ground(rng))
    dropped = 0
    for gp in programs:
        s = Recorded(gp)
        assert list(s.models()) == list(BoundCheckedSolver(gp).models())
        dropped += s.dropped
    assert dropped > 100


HAMCYCLE_ENCODING = """\
{ in(X,Y) } :- edge(X,Y).
:- 2 { in(X,Y) : node(Y) }, node(X).
:- 2 { in(X,Y) : node(X) }, node(Y).
reached(Y) :- in(1,Y), edge(1,Y).
reached(Y) :- reached(X), in(X,Y), edge(X,Y).
:- node(Y), not reached(Y).
"""

HAMCYCLE_10 = """\
node(1..10).
edge(1,3). edge(1,5). edge(1,6). edge(1,10). edge(2,3). edge(2,6). edge(2,7).
edge(2,10). edge(3,4). edge(3,5). edge(3,7). edge(3,10). edge(4,1). edge(4,3).
edge(4,6). edge(4,7). edge(5,3). edge(5,4). edge(5,7). edge(5,8). edge(6,1).
edge(6,7). edge(6,8). edge(6,10). edge(7,2). edge(7,3). edge(7,4). edge(7,6).
edge(8,4). edge(8,5). edge(8,7). edge(8,10). edge(9,1). edge(9,3). edge(9,4).
edge(9,10). edge(10,2). edge(10,3). edge(10,6). edge(10,9).
""" + HAMCYCLE_ENCODING

# The 92 boards in search order, each the column of the queen in rows 1..8.
QUEENS_8_MODELS = """
    42751863 42857136 36258174 64158273 46152837 31758246 48157263 74258136
    57142863 57248136 51842736 35841726 68241753 25741863 63741825 53847162
    63175824 63185247 73825164 36275184 37285146 47185263 36815724 64285713
    74286135 36271485 35281746 35286471 37286415 57263148 57263184 52617483
    72631485 24683175 28613574 17582463 71386425 16837425 27581463 63571428
    63581427 26831475 57413862 58413627 62713584 64713528 52473861 25713864
    15863724 51863724 17468253 47531682 57138642 27368514 47382516 47526138
    72418536 82417536 36418572 36428571 63728514 73168524 83162574 38471625
    52468317 51468273 58417263 42861357 53168247 36824175 41586372 61528374
    63184275 48136275 84136275 41582736 53172864 35714286 36814752 42586137
    62714853 64718253 42736851 75316824 52814736 42736815 82531746 46827135
    48531726 26174835 46831752 63724815
""".split()

# The 39 cycles in search order, each the successor of nodes 1..10 (0 is 10).
HAMCYCLE_10_MODELS = """
    6047382519 6071382549 5046382719 5647382019 5671382049 3651802749
    3657802419 5641802739 5673802419 5346802719 5673482019 6073482519
    0671482539 5306482719 3056482719 6307482519 6051482739 3657482019
    5673812049 3056812749 3046782519 3056872419 3651782049 3657812049
    5647812039 0657812439 5046812739 5306812749 0653812749 6351872049
    6301782549 5306872419 5603782419 5346782019 5641782039 6041782539
    6051872439 6053782419 0651782439
""".split()


def _pairs(gp, model, pred):
    """The (x, y) of every true atom pred(x,y) of a model."""
    out = []
    for a in model:
        name = gp.symbols.get(a, "")
        if name.startswith(pred + "("):
            x, y = name[len(pred) + 1:-1].split(",")
            out.append((int(x), int(y)))
    return out


def test_flat_core_keeps_every_count():
    # Pinned counts and model order. A faster propagation core, dead-rule
    # skip included, may save work, but it must not change a single choice.
    gp = queens(8)
    s = Solver(gp)
    boards = ["".join(str(x) for x, _ in sorted(_pairs(gp, m, "q"), key=lambda p: p[1]))
              for m in s.models()]
    assert boards == QUEENS_8_MODELS
    # Two-literal constraints as implication lists find some conflicts one
    # literal earlier: when both body literals turn true in the same flush,
    # the first one's implication meets the second already true, where the
    # rule counters noticed only on processing the second. The counter
    # core took 67,793 propagations here. Reading probe results off their
    # records after forced literals and backtracks saves probes, and the
    # propagations they would make: probing each took 6,319 probes and
    # 67,442 propagations.
    assert s.stats == SolveStats(decisions=214, conflicts=379, propagations=44688,
                                 probes=4825, failed_literals=347, unfounded_runs=0)

    gp = ground_text_input(HAMCYCLE_10, GroundOptions(domain_mode="none")).interchange
    s = Solver(gp)
    cycles = ["".join(str(dict(_pairs(gp, m, "in"))[v] % 10) for v in range(1, 11))
              for m in s.models()]
    assert cycles == HAMCYCLE_10_MODELS
    # Source pointers skip the unfounded-set runs in which every atom
    # keeps its source; rerunning the SCC on every loss of weight took 1,316.
    # Probing every time, not reusing records, took 1,194 probes, 6,259
    # propagations and 990 runs.
    assert s.stats == SolveStats(decisions=78, conflicts=82, propagations=5281,
                                 probes=1027, failed_literals=80, unfounded_runs=847)


def _planted_digraph(rng, n, degree):
    """A random digraph on nodes 1..n with out-degree `degree` around a
    planted Hamiltonian cycle."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    succ = {order[i]: {order[(i + 1) % n]} for i in range(n)}
    for v in range(1, n + 1):
        others = [w for w in range(1, n + 1) if w != v and w not in succ[v]]
        succ[v].update(rng.sample(others, degree - 1))
    return sorted((v, w) for v in succ for w in succ[v])


def _hamiltonian_cycles(n, edges):
    """Every directed Hamiltonian cycle, as its sorted edges, by depth-first
    search from node 1."""
    succ = {v: sorted(w for u, w in edges if u == v) for v in range(1, n + 1)}
    cycles = []
    path = [1]

    def walk(v):
        for w in succ[v]:
            if w == 1 and len(path) == n:
                cycles.append(tuple(sorted(zip(path, path[1:] + [1]))))
            elif w not in path:
                path.append(w)
                walk(w)
                path.pop()
    walk(1)
    return sorted(cycles)


def test_hamcycle_on_larger_planted_graphs():
    # reached/1 is one SCC whose rules chain up to n - 1 steps from node 1,
    # so the unfounded-set check meets deep derivations, and losing one
    # edge can cut off a long tail of them. The models must be exactly the
    # cycles a depth-first search finds, under any candidate order.
    rng = random.Random(83)
    total = 0
    for seed in range(4):
        n = rng.randint(12, 14)
        edges = _planted_digraph(rng, n, 3)
        want = _hamiltonian_cycles(n, edges)
        text = (f"node(1..{n}).\n" + "".join(f"edge({a},{b}).\n" for a, b in edges)
                + HAMCYCLE_ENCODING)
        gp = ground_text_input(text, GroundOptions(domain_mode="none")).interchange
        models = sorted(CheckedSolver(gp).models())
        assert sorted(tuple(sorted(_pairs(gp, m, "in"))) for m in models) == want
        assert sorted(ShuffledSolver(gp, seed).models()) == models
        total += len(want)
    assert total >= 40


def test_losing_weight_off_the_source_runs_nothing():
    # a :- b.  b :- a.  a :- c.  a :- d.  { c, d }.  The first run finds a
    # from a :- c (rule 2) and b from b :- a. d false takes weight from
    # a :- d, which is no atom's source, so the SCC is not run again (a
    # rerun on every loss of weight would run it); c false takes a's
    # source, and then a and b are unfounded.
    gp = program([BasicRule(head=2, pos=(3,), neg=()),
                  BasicRule(head=3, pos=(2,), neg=()),
                  BasicRule(head=2, pos=(4,), neg=()),
                  BasicRule(head=2, pos=(5,), neg=()),
                  ChoiceRule(heads=(4, 5), pos=(), neg=())], 4)
    s = CheckedSolver(gp)
    assert s.expand() is None
    rules = s.scc_tables[0][0]
    assert (rules[s.src[2]], rules[s.src[3]]) == (2, 1)
    runs = s.stats.unfounded_runs
    s._set(5, FALSE)
    assert s.expand() is None
    assert s.stats.unfounded_runs == runs
    assert (s.values[2], s.values[3]) == (UNKNOWN, UNKNOWN)
    s._set(4, FALSE)
    assert s.expand() is None
    assert s.stats.unfounded_runs == runs + 1
    assert (s.values[2], s.values[3]) == (FALSE, FALSE)
    assert sorted(CheckedSolver(gp).models()) == [(), (2, 3, 4), (2, 3, 4, 5), (2, 3, 5)]


def test_weight_rule_and_two_head_choice_rule_share_an_scc():
    # { a, b } :- c.  c :- 2 [a = 1, b = 1, x = 2].  { x }.  c :- y.  { y }.
    # a, b and c are one SCC. The weight rule founds c on x alone, and the
    # choice rule is the source of both a and b. x false takes c's source
    # and, through c, a's and b's; c :- y founds c again, and the choice
    # rule a and b. y false leaves the weight rule 2 on a and b, which
    # found nothing, so all three are unfounded.
    gp = program([ChoiceRule(heads=(2, 3), pos=(4,), neg=()),
                  WeightRule(head=4, bound=2, pos=(2, 3, 5), neg=(),
                             pos_weights=(1, 1, 2), neg_weights=()),
                  ChoiceRule(heads=(5,), pos=(), neg=()),
                  BasicRule(head=4, pos=(6,), neg=()),
                  ChoiceRule(heads=(6,), pos=(), neg=())], 5)
    s = CheckedSolver(gp)
    assert s.expand() is None
    assert s.scc_atoms == [[2, 3, 4]]
    rules = s.scc_tables[0][0]
    assert [rules[s.src[a]] for a in (2, 3, 4)] == [0, 0, 1]
    s._set(5, FALSE)
    assert s.expand() is None
    assert [rules[s.src[a]] for a in (2, 3, 4)] == [0, 0, 3]
    assert [s.values[a] for a in (2, 3, 4)] == [UNKNOWN] * 3
    s._set(6, FALSE)
    assert s.expand() is None
    assert [s.values[a] for a in (2, 3, 4)] == [FALSE] * 3
    want = sorted(tuple(sorted(m)) for m in brute_force_models(gp.rules))
    assert sorted(CheckedSolver(gp).models()) == want
    for seed in (1, 7):
        assert sorted(ShuffledSolver(gp, seed).models()) == want


def test_sources_come_back_after_probes_and_backtracks():
    # CheckedSolver holds the state after every undo, sources included, to
    # the fixpoint its mark was taken at. Count the undos that had sources
    # to restore: in the lookahead, which probes and where CheckedSolver
    # probes a recalled literal again, and in the backtracks models() makes.
    class Counting(CheckedSolver):
        def __init__(self, gp):
            super().__init__(gp)
            self.restored = {"lookahead": 0, "backtrack": 0}
            self._undoing = "backtrack"

        def _choose(self):
            self._undoing = "lookahead"
            try:
                return super()._choose()
            finally:
                self._undoing = "backtrack"

        def _undo_to(self, mark):
            before = list(self.src)
            super()._undo_to(mark)
            self.restored[self._undoing] += self.src != before

    # HAMCYCLE_10 alone backtracks 40 times with sources to restore, so a
    # second graph with a planted cycle joins it
    edges = _planted_digraph(random.Random(3), 10, 3)
    planted = ("node(1..10).\n" + "".join(f"edge({a},{b}).\n" for a, b in edges)
               + HAMCYCLE_ENCODING)
    restored = {"lookahead": 0, "backtrack": 0}
    for text, cycles in ((HAMCYCLE_10, len(HAMCYCLE_10_MODELS)),
                         (planted, len(_hamiltonian_cycles(10, edges)))):
        s = Counting(ground_text_input(text, GroundOptions(domain_mode="none")).interchange)
        assert len(list(s.models())) == cycles
        for kind, n in s.restored.items():
            restored[kind] += n
    assert min(restored.values()) >= 50, restored


def test_backchaining_skips_rules_that_cannot_force():
    # A live rule that loses weight while its true head has no other
    # support backchains only if its slack is below its largest body weight
    # and its body is not yet satisfied; otherwise nothing in its body can
    # be forced. Without these guards the core made 114,070 backchaining
    # calls on 8-queens, with the slack guard alone 21,063; 6,812 of them
    # forced a literal. With both guards it made 8,392 while the lookahead
    # probed every time; probe results reused from their records save the
    # rest. test_flat_core_keeps_every_count holds the choices.
    class Counting(Solver):
        calls = 0

        def _backchain_atom(self, h, pend):
            self.calls += 1
            super()._backchain_atom(h, pend)

    s = Counting(queens(8))
    assert len(list(s.models())) == 92
    assert s.calls == 4609


def test_contraposition_skips_rules_that_cannot_refute(monkeypatch):
    # A false head refutes a body literal of a live rule only when that
    # literal alone weighs the rule's gap, bound - wsat, so a rule whose gap
    # is above its largest body weight is not visited. Verifying the 92
    # listings of 8-queens fixes every named atom: unguarded, contraposition
    # ran 243,540 times there, 228,160 of them on such a gap and 1,472 on
    # dead rules, and queued nothing.
    class Counting(Solver):
        calls = 0

        def _contrapose(self, r, pend):
            Counting.calls += 1
            super()._contrapose(r, pend)

    path = Path(__file__).resolve().parent.parent / "programs" / "queens.lp"
    gp = ground_files([str(path)], GroundOptions(constants={"n": 8})).interchange
    listings = [[gp.symbols[a] for a in m if a in gp.symbols] for m in Solver(gp).models()]
    monkeypatch.setattr(pipeline, "Solver", Counting)
    assert len(listings) == 92 and all(verify_model(gp, names) for names in listings)
    assert Counting.calls == 13908


def test_static_structure_matches_reference(monkeypatch):
    # The rule arrays, the implication lists, the occurrence lists, the
    # SCCs with their rules and unfounded-set tables, the dirty maps and the
    # branch order agree with a recomputation from the primitive rules and
    # reachability; a wrong branch order would only reorder the search, so
    # no model-level test sees it. Setup runs Tarjan on the full dependency
    # graph exactly when the atom ids do not certify that it is acyclic,
    # and both kinds of program are reached.
    firsts = []  # `first` of each _cyclic_sccs call; the full pass starts at 2
    cyclic_sccs = solver_module._cyclic_sccs

    def recorded(adj, first=0):
        firsts.append(first)
        return cyclic_sccs(adj, first)

    monkeypatch.setattr(solver_module, "_cyclic_sccs", recorded)
    rng = random.Random(41)
    shared_choice_sccs = 0
    paths = {True: 0, False: 0}  # ids certify acyclicity -> programs
    for i in range(2400):
        if i % 2:
            gp = gen.to_interchange(*gen.random_extended_source(rng))
        else:
            gp = gen.random_normal_ground(rng)
        del firsts[:]
        s = Solver(gp)
        assert built_structure(s) == static_structure(s, gp)
        certified = _ids_order_every_rule(s)
        assert firsts.count(2) == (0 if certified else 1)
        paths[certified] += 1
        shared_choice_sccs += any(_heads_share_an_scc(s, r)
                                  for r, h in enumerate(s.head) if h is None)
    assert shared_choice_sccs >= 50
    assert min(paths.values()) >= 50, paths
    rng = random.Random(43)
    repeats = 0
    for _ in range(300):
        gp = gen.random_binary_constraint_ground(rng)
        s = Solver(gp)
        assert built_structure(s) == static_structure(s, gp)
        repeats += sum(map(len, s.imp_true + s.imp_false)) < 2 * len(binary_constraints(gp))
    assert repeats >= 50


def _ids_order_every_rule(s):
    """Whether every body atom of every rule not defining atom 1 has a
    lower id than each of the rule's heads, so that no dependency cycle
    can exist."""
    return all(a < h for r, hs in enumerate(s.heads) if s.head[r] != FALSITY
               for h in hs for a in s.pos[r] + s.neg[r])


def test_two_atom_loops_keep_their_sccs_and_branch_order():
    # Both loops break the id order, so setup finds their cycles by Tarjan.
    # a :- b. b :- a.: one positive SCC, nothing to branch on.
    s = Solver(program([BasicRule(head=2, pos=(3,), neg=()),
                        BasicRule(head=3, pos=(2,), neg=())], 2))
    assert (s.scc_atoms, s.branch_order) == ([[2, 3]], [])
    assert list(s.models()) == [()]
    # a :- not b. b :- not a.: no positive SCC; both atoms occur negatively
    # on a cycle of the full graph, so both are branched on.
    s = Solver(program([BasicRule(head=2, pos=(), neg=(3,)),
                        BasicRule(head=3, pos=(), neg=(2,))], 2))
    assert (s.scc_atoms, s.branch_order) == ([], [2, 3])
    assert list(s.models()) == [(2,), (3,)]


def test_choice_rule_without_heads_keeps_the_id_order():
    # A ground file may hold a choice rule with no heads and a body
    # (`3 0 1 0 2`). It defines no atom, so it adds no dependency edge.
    s = Solver(program([ChoiceRule(heads=(), pos=(2,), neg=()),
                        ChoiceRule(heads=(2,), pos=(), neg=())], 1))
    assert (s.scc_atoms, s.branch_order) == ([], [2])
    assert sorted(s.models()) == [(), (2,)]


def test_setup_memory_grows_with_the_rules_not_the_atom_ids():
    # One choice rule over 200,000 atoms. Rows that the rules leave empty
    # share one (), so setup's peak stays under 400 bytes per atom; five
    # lists per atom would take about 660.
    n = 200_000
    gp = GroundProgram(rules=[ChoiceRule(heads=tuple(range(2, n + 2)), pos=(), neg=())],
                       symbols={}, compute_true=(), compute_false=(1,), models=0,
                       n_atoms=n + 1)
    tracemalloc.start()
    try:
        Solver(gp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * n, peak / n


def test_solver_renumbers_sparse_atom_ids():
    # A program without its atom count is numbered 1..k at setup, so one
    # fact of atom 200,000 builds rows for two atoms, and its model comes
    # back under the program's own id.
    gp = GroundProgram([BasicRule(200_000, (), ())], {200_000: "a"}, (), (1,), 1)
    tracemalloc.start()
    try:
        models = list(Solver(gp).models())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert models == [(200_000,)]
    assert peak < 1 << 20, peak


def _heads_share_an_scc(s, r):
    sccs = [s.scc_of[h] for h in s.heads[r] if s.scc_of[h] >= 0]
    return len(set(sccs)) < len(sccs)


def test_stats_are_populated():
    gp = program([ChoiceRule(heads=(2, 3, 4), pos=(), neg=())], 3)
    s = Solver(gp)
    models = list(s.models())
    assert len(models) == 8
    assert s.stats.decisions >= 3
    assert s.stats.propagations > 0
    assert s.stats.probes > 0
    assert s.stats.unfounded_runs == 0  # no positive loop, no SCC to check

    # a :- b.  b :- a.  a :- not c.  { c }.  The loop's SCC is checked.
    gp = program([BasicRule(head=2, pos=(3,), neg=()),
                  BasicRule(head=3, pos=(2,), neg=()),
                  BasicRule(head=2, pos=(), neg=(4,)),
                  ChoiceRule(heads=(4,), pos=(), neg=())], 3)
    s = Solver(gp)
    assert sorted(s.models()) == [(2, 3), (4,)]
    assert s.stats.unfounded_runs > 0


def test_decision_bound():
    # Decisions (including backtrack flips) stay within 2**k where k counts
    # the atoms eligible for branching.
    rng = random.Random(17)
    for _ in range(300):
        gp = gen.random_normal_ground(rng)
        s = Solver(gp)
        list(s.models())
        k = len(s.branch_order)
        assert s.stats.decisions <= 2 ** k


def test_probe_restores_state_exactly():
    rng = random.Random(23)
    for _ in range(100):
        gp = gen.random_normal_ground(rng)
        s = Solver(gp)
        if s.expand() is not None:
            continue
        snap = state_fingerprint(s)
        unknown = [a for a in sorted(gp.symbols) if s.values[a] == UNKNOWN]
        for a in unknown[:4]:
            s._probe(a)
            s._probe(-a)
            assert state_fingerprint(s) == snap


def test_lookahead_failed_literal_is_forced():
    # Probing c true wipes out both rules for h, which is required, so the
    # lookahead must settle c false without a decision.
    gp = program([BasicRule(head=2, pos=(), neg=(3,)),
                  ChoiceRule(heads=(3,), pos=(), neg=()),
                  BasicRule(head=1, pos=(2, 3), neg=())],
                 2, compute_true=(2,))
    assert solve_all(gp) == [(2,)]
    s = Solver(gp)
    list(s.models())
    assert s.stats.decisions == 0
