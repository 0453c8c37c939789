import pathlib
import random

import pytest

from aspkit.ground_format import (
    BasicRule,
    ChoiceRule,
    ConstraintRule,
    FormatError,
    GroundProgram,
    UnknownRuleTypeError,
    WeightRule,
    emit_ground_program,
    parse_ground_program,
)
from aspkit.pipeline import GroundOptions, ground_files, solve_ground, verify_model

import gen

SMALL = """1 2 2 1 4 3
3 2 2 3 1 0 4
0
2 a
3 b
4 c
0
B+
0
B-
1
0
1
"""


def test_basic_rule_line():
    gp = parse_ground_program(SMALL)
    assert gp.rules[0] == BasicRule(head=2, pos=(3,), neg=(4,))


def test_choice_rule_line():
    gp = parse_ground_program(SMALL)
    assert gp.rules[1] == ChoiceRule(heads=(2, 3), pos=(4,), neg=())


def test_symbol_table_and_compute_sections():
    gp = parse_ground_program(SMALL)
    assert gp.symbols == {2: "a", 3: "b", 4: "c"}
    assert gp.compute_true == ()
    assert gp.compute_false == (1,)
    assert gp.models == 1


def test_emit_parse_emit_is_identity():
    once = emit_ground_program(parse_ground_program(SMALL))
    assert once == SMALL
    assert emit_ground_program(parse_ground_program(once)) == once


def test_constraint_rule_round_trip():
    gp = GroundProgram(
        rules=[ConstraintRule(head=2, bound=2, pos=(3, 4), neg=(5,))],
        symbols={2: "h", 3: "p", 4: "q", 5: "r"},
        compute_true=(2,),
        compute_false=(1,),
        models=0)
    text = emit_ground_program(gp)
    back = parse_ground_program(text)
    assert back == gp
    line = text.splitlines()[0].split()
    # type, head, #lits, #neg, bound, negatives, positives
    assert line == ["2", "2", "3", "1", "2", "5", "3", "4"]


def test_weight_rule_round_trip():
    gp = GroundProgram(
        rules=[WeightRule(head=2, bound=7, pos=(3,), neg=(4,),
                          pos_weights=(5,), neg_weights=(3,))],
        symbols={2: "h", 3: "p", 4: "q"},
        compute_true=(),
        compute_false=(1,),
        models=1)
    text = emit_ground_program(gp)
    back = parse_ground_program(text)
    assert back == gp
    line = text.splitlines()[0].split()
    # type, head, bound, #lits, #neg, negatives, positives, weights
    assert line == ["5", "2", "7", "2", "1", "4", "3", "3", "5"]


def test_unknown_rule_types_are_rejected():
    for t in (4, 6, 8):
        bad = f"{t} 2 0 0\n" + SMALL
        with pytest.raises(UnknownRuleTypeError):
            parse_ground_program(bad)


def test_truncated_input():
    with pytest.raises(FormatError):
        parse_ground_program("1 2 2 1 4\n0\n0\nB+\n0\nB-\n0\n1\n")


def test_missing_model_count():
    with pytest.raises(FormatError):
        parse_ground_program("0\n0\nB+\n0\nB-\n0\n")


def test_garbage_token():
    with pytest.raises(FormatError):
        parse_ground_program("1 two 0 0\n0\n0\nB+\n0\nB-\n0\n1\n")


def test_atom_ids_start_above_falsity():
    gp = parse_ground_program(SMALL)
    assert all(r.head != 0 for r in gp.rules if isinstance(r, BasicRule))
    assert 1 not in gp.symbols  # atom 1 is reserved, never named


@pytest.mark.parametrize("line, bad", [
    ("1 0 0 0", 0),            # basic head
    ("1 -3 0 0", -3),          # basic head, would alias an atom from the end
    ("1 2 1 1 0", 0),          # negative body literal
    ("1 2 2 0 3 -4", -4),      # positive body literal
    ("2 2 1 0 1 -3", -3),      # cardinality body
    ("3 2 2 0 0 0", 0),        # choice head
    ("3 1 -2 0 0", -2),        # choice head
    ("5 -2 1 1 0 3 1", -2),    # weight head
    ("5 2 1 1 0 0 1", 0),      # weight body
])
def test_rule_atom_ids_must_be_positive(line, bad):
    with pytest.raises(FormatError) as err:
        parse_ground_program(line + "\n" + SMALL)
    assert err.value.lineno == 1
    assert f"atom id {bad}" in str(err.value)


@pytest.mark.parametrize("line, message", [
    ("² a", "malformed symbol line '² a'"),  # str.isdigit, but int() rejects it
    ("٣ a", "malformed symbol line '٣ a'"),  # int() would read it as 3
    ("0 a", "atom id 0 in symbol line is not positive"),
])
def test_symbol_ids_are_positive_ascii_integers(line, message):
    text = SMALL.replace("2 a\n", line + "\n")
    with pytest.raises(FormatError) as err:
        parse_ground_program(text)
    assert (err.value.lineno, err.value.message) == (4, message)


@pytest.mark.parametrize("text, lineno, got", [
    (SMALL.replace("1 2 2 1 4 3", "1 \u0662 0 0"), 1, "1 \u0662 0 0"),  # int() reads 2
    (SMALL.replace("1 2 2 1 4 3", "1 1_0 0 0"), 1, "1 1_0 0 0"),        # int() reads 10
    (SMALL.replace("1 2 2 1 4 3", "1 +2 0 0"), 1, "1 +2 0 0"),          # int() reads 2
    (SMALL.replace("B-\n1\n", "B-\n\u00b9\n"), 11, "\u00b9"),          # superscript one
    (SMALL.replace("B+\n", "B+\n2\uff10\n"), 9, "2\uff10"),             # fullwidth zero
    (SMALL[:-2] + "1_0\n", 13, "1_0"),                                   # model count
], ids=["other-digit", "underscore", "plus", "superscript", "fullwidth", "count"])
def test_numbers_are_ascii_integers(text, lineno, got):
    # Rule lines, compute sections and the model count hold integers
    # written -?[0-9]+; int() alone would also accept other scripts'
    # digits, underscores and a plus sign.
    with pytest.raises(FormatError) as err:
        parse_ground_program(text)
    assert err.value.lineno == lineno
    assert err.value.message.endswith(f", got {got!r}")


def test_solving_scans_the_atom_ids_once(monkeypatch):
    # compact_atom_ids collects the ids in use, and the program it returns
    # carries their count, so the solver and verify_model scan no rule for
    # it again; with atom 4 renumbered to 40 the answers stay the same.
    scans = []
    atom_ids = GroundProgram.atom_ids
    monkeypatch.setattr(GroundProgram, "atom_ids", lambda gp: scans.append(gp) or atom_ids(gp))
    answers = []
    for text in (SMALL, SMALL.replace(" 4", " 40").replace("4 c", "40 c")):
        gp = parse_ground_program(text)
        del scans[:]
        names = [names for _, names in solve_ground(gp)]
        assert len(scans) == 1
        answers.append(names)
        del scans[:]
        assert verify_model(gp, names[0])
        assert len(scans) == 1
    assert answers[0] == answers[1] and answers[0]


def _structural_corpus():
    """Ground programs as the grounder hands them to the solver: every file
    under programs/ (queens at n=6, ncolor with graph, as in C8) in both
    domain modes, and seeded random programs."""
    programs = pathlib.Path(__file__).resolve().parent.parent / "programs"
    inputs = [(["ancestor.lp"], {}), (["graph.lp"], {}), (["knapsack.lp"], {}),
              (["ncolor.lp", "graph.lp"], {}), (["queens.lp"], {"n": 6})]
    for mode in ("keep", "none"):
        for names, consts in inputs:
            opts = GroundOptions(constants=consts, domain_mode=mode)
            yield ground_files([str(programs / n) for n in names], opts).interchange
    rng = random.Random(2024)
    for _ in range(300):
        yield gen.to_interchange(*gen.random_extended_source(rng))
        yield gen.random_normal_ground(rng)


def test_parse_of_emit_gives_back_the_program():
    # `aspkit run` hands the grounder's program straight to the solver, so
    # reading the emitted bytes must rebuild exactly that program.
    count = 0
    for gp in _structural_corpus():
        assert parse_ground_program(emit_ground_program(gp)) == gp
        count += 1
    assert count == 610
