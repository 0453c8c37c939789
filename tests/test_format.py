import itertools
import pathlib
import random

import pytest

from aspkit import ground_format
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
from aspkit.pipeline import (
    GroundOptions,
    ground_files,
    solve_ground,
    verify_model,
    well_founded_ground,
)
from aspkit.shared import UnsupportedRuleTypeError

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
    kind = {"1": "basic", "2": "cardinality", "3": "choice", "5": "weight"}[line[0]]
    assert err.value.message == f"atom id {bad} in {kind} rule is not positive"


@pytest.mark.parametrize("line, error, message", [
    ("1", FormatError, "truncated basic rule"),
    ("1 2 1", FormatError, "truncated basic rule"),
    ("1 2 1 2 3 4", FormatError, "bad literal counts in basic rule"),
    ("1 2 1 -1 3", FormatError, "bad literal counts in basic rule"),
    ("1 2 2 0 3", FormatError, "truncated basic rule"),
    ("1 2 1 0 3 4", FormatError, "trailing numbers on type-1 rule line"),
    ("2 2 1 0", FormatError, "truncated cardinality rule"),
    ("2 2 1 2 1 3", FormatError, "bad literal counts in cardinality rule"),
    ("2 2 2 0 1 3", FormatError, "truncated cardinality rule"),
    ("2 2 1 0 1 3 4", FormatError, "trailing numbers on type-2 rule line"),
    ("3", FormatError, "truncated choice rule"),
    ("3 2 2", FormatError, "truncated choice rule"),
    ("3 1 2 0", FormatError, "truncated choice rule"),
    ("3 -2 2 3 0 0", FormatError, "bad head count in choice rule"),
    ("3 1 2 1 2 3", FormatError, "bad literal counts in choice rule"),
    ("3 1 2 2 0 3", FormatError, "truncated choice rule"),
    ("3 1 2 0 0 4", FormatError, "trailing numbers on type-3 rule line"),
    ("5 2 1 1", FormatError, "truncated weight rule"),
    ("5 2 1 -1 -2", FormatError, "bad literal counts in weight rule"),
    ("5 2 1 1 2 3 1", FormatError, "bad literal counts in weight rule"),
    ("5 2 1 1 0 3", FormatError, "truncated weight rule"),
    ("5 2 1 1 0 3 1 1", FormatError, "trailing numbers on type-5 rule line"),
    ("4 2 0 0", UnknownRuleTypeError, "unsupported rule type 4"),
    ("6 2 0 0", UnknownRuleTypeError, "unsupported rule type 6"),
    ("8 2 0 0", UnknownRuleTypeError, "unsupported rule type 8"),
    ("0 2", FormatError, "unknown rule type 0"),
    ("7 2 0 0", FormatError, "unknown rule type 7"),
    ("-1 2 0 0", FormatError, "unknown rule type -1"),
])
def test_rule_line_errors(line, error, message):
    # One check of each kind per rule line, in this order: type, counts and
    # truncation, atom ids (above), trailing numbers. A negative head count
    # once sliced the heads from the end of the line.
    with pytest.raises(FormatError) as err:
        parse_ground_program(SMALL.replace("\n", f"\n{line}\n", 1))
    assert type(err.value) is error
    assert (err.value.lineno, err.value.message) == (2, message)


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


def _got(what, line):
    return f"expected {what}, got {line!r}"


@pytest.mark.parametrize("text, lineno, message", [
    (SMALL.replace("1 2 2 1 4 3", "1\x1f2 0 0"), 1, _got("a rule line or 0", "1\x1f2 0 0")),
    (SMALL.replace("1 2 2 1 4 3", "1 2 0 0\x0b"), 1, _got("a rule line or 0", "1 2 0 0\x0b")),
    (SMALL.replace("4 3\n3", "4 3\x0c3"), 1,
     _got("a rule line or 0", "1 2 2 1 4 3\x0c3 2 2 3 1 0 4")),
    (SMALL.replace("4 3\n3", "4 3\u20283"), 1,
     _got("a rule line or 0", "1 2 2 1 4 3\u20283 2 2 3 1 0 4")),
    (SMALL.replace("3 b", "3\x1cb"), 5, _got("a symbol line or 0", "3\x1cb")),
    (SMALL.replace("4 c\n0", "4 c\n0\x1e"), 7, _got("a symbol line or 0", "0\x1e")),
    (SMALL.replace("B+", "B+\x0c"), 8, _got("'B+'", "B+\x0c")),
    (SMALL.replace("B-\n1", "B-\n1\x1d"), 11, _got("an atom id or 0 in B-", "1\x1d")),
    (SMALL[:-2] + "1\x85\n", 13, _got("the model count", "1\x85")),
    (SMALL + "\x0c\n", 14, "unexpected content after model count"),
], ids=["unit-separator", "vertical-tab", "form-feed", "line-separator", "symbol",
        "symbol-end", "header", "compute", "count", "after-count"])
def test_control_characters_are_errors(text, lineno, message):
    # Lines end only at \n, \r\n and \r, and spaces and tabs separate
    # numbers. str.split() and str.splitlines() would take some of these
    # characters for whitespace or line ends, and read `1\x1f2 0 0` as `a.`.
    with pytest.raises(FormatError) as err:
        parse_ground_program(text)
    assert (err.value.lineno, err.value.message) == (lineno, message)


def test_spaces_tabs_and_line_ends_read_as_before():
    gp = parse_ground_program(SMALL)
    for text in (SMALL.replace(" ", " \t  "), SMALL.replace("\n", "\r\n"),
                 SMALL.replace("\n", "\r"), SMALL + " \t\r\n\n"):
        assert parse_ground_program(text) == gp


@pytest.mark.parametrize("old, new, lineno, message", [
    ("2 a", "2\u3000a", 4, "malformed symbol line '2\\u3000a'"),
    ("2 a", "2\xa0a", 4, "malformed symbol line '2\\xa0a'"),
    ("2 a", "2 \u3000a", 4, "malformed symbol line '2 \\u3000a'"),
    ("2 a", "\xa02 a", 4, "malformed symbol line '\\xa02 a'"),
    ("4 c\n0", "4 c\n\xa00", 7, "malformed symbol line '\\xa00'"),
    ("4 c\n0", "4 c\n0\u3000", 7, "malformed symbol line '0\\u3000'"),
    ("B+", "\xa0B+", 8, "expected 'B+', got '\\xa0B+'"),
    ("B-", "B-\u3000", 10, "expected 'B-', got 'B-\\u3000'"),
    ("B-\n1\n0\n1\n", "B-\n1\n0\n1\n\u3000\n", 14, "unexpected content after model count"),
], ids=["ideographic-space", "no-break-space", "name-start", "before-id", "before-end",
        "after-end", "before-header", "after-header", "after-count"])
def test_symbol_lines_and_headers_separate_by_spaces_and_tabs(old, new, lineno, message):
    # Symbol lines, headers and the closing 0s once split and stripped at
    # any Unicode whitespace: `2\u3000a` read as atom 2 named `a`.
    with pytest.raises(FormatError) as err:
        parse_ground_program(SMALL.replace(old, new, 1))
    assert (err.value.lineno, err.value.message) == (lineno, message)


def test_spaces_and_tabs_around_symbols_and_headers_read_as_before():
    text = (SMALL.replace("2 a", "\t2 \t a").replace("4 c\n0", "4 c\n 0\t")
            .replace("B+", " B+\t").replace("B-", "\tB- "))
    assert parse_ground_program(text) == parse_ground_program(SMALL)
    # A name keeps what follows its first character, other whitespace too.
    gp = parse_ground_program(SMALL.replace("2 a", "2 a\u3000b\t"))
    assert gp.symbols[2] == "a\u3000b\t"


def test_solving_scans_the_atom_ids_once(monkeypatch):
    # The Solver that solve_ground and verify_model build collects the ids
    # in use once (compact_atom_ids), and the program it renumbers them in
    # carries their count, so no rule is scanned for it again; with atom 4
    # renumbered to 40 the answers stay the same.
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


def test_mutants_of_emitted_files_read_or_fail_in_one_line():
    # Seeded edits of emitted files (gen.mutate_ground): each mutant reads,
    # or fails with a one-line FormatError, and a mutant that reads goes
    # through the solver and the well-founded model with no other exception.
    rng = random.Random(10)
    makers = (lambda: gen.to_interchange(*gen.random_extended_source(rng)),
              lambda: gen.random_normal_ground(rng),
              lambda: gen.random_binary_constraint_ground(rng))
    read = 0
    for i in range(2000):
        text = gen.mutate_ground(rng, emit_ground_program(makers[i % 3]()))
        try:
            gp = parse_ground_program(text)
        except FormatError as e:
            assert "\n" not in str(e)
            continue
        read += 1
        list(itertools.islice(solve_ground(gp), 20))
        try:
            well_founded_ground(gp)
        except UnsupportedRuleTypeError:
            assert not all(isinstance(r, BasicRule) for r in gp.rules)
    assert read == 421  # 13 more name the falsity atom, which is an error


def _outcome(text):
    try:
        return parse_ground_program(text)
    except FormatError as e:
        return type(e), e.lineno, e.message


# A run of 1,500 basic rules `h :- b, c, not a.`, written `1 h 3 1 a b c`:
# it crosses the reader's 1,024-line block.
_RUN = [BasicRule(2 + i % 7, (3 + i % 5, 2 + i % 3), (4 + i % 6,)) for i in range(1500)]


def _run_program(lineno=None, rule=None):
    """A program of the rules of _RUN, with rule `lineno` (from 1) replaced
    by `rule`."""
    rules = list(_RUN)
    if lineno is not None:
        rules[lineno - 1] = rule
    return GroundProgram(rules, {2: "a"}, (), (1,), 0)


def _run_text(lineno, edit):
    """The emitted _run_program() with rule line `lineno` rewritten by `edit`."""
    lines = emit_ground_program(_run_program()).split("\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    return "\n".join(lines)


# Inputs that take the bulk path part of the way, or the checked path, by
# name: the outcome of each is pinned below, and bulk and checked agree on
# every one.
_READER_CASES = {
    "canonical": SMALL,
    "tabs-and-runs-of-spaces": SMALL.replace(" ", " \t  "),
    "crlf": SMALL.replace("\n", "\r\n"),
    "cr": SMALL.replace("\n", "\r"),
    "space-zero-after-rules": SMALL.replace("\n0\n2 a", "\n 0\n2 a"),
    "space-zero-ends-rules": SMALL.replace("\n3 2 2", "\n 0\n3 2 2"),
    "double-zero-ends-rules": SMALL.replace("\n3 2 2", "\n00\n3 2 2"),
    "truncated-basic": SMALL.replace("1 2 2 1 4 3", "1 2 2 1 4"),
    "trailing-basic": SMALL.replace("1 2 2 1 4 3", "1 2 2 1 4 3 5"),
    "zero-head": SMALL.replace("1 2 2 1 4 3", "1 0 2 1 4 3"),
    "zero-literal": SMALL.replace("1 2 2 1 4 3", "1 2 2 1 4 0"),
    "negative-head": SMALL.replace("1 2 2 1 4 3", "1 -2 2 1 4 3"),
    "negative-literal": SMALL.replace("1 2 2 1 4 3", "1 2 2 1 -4 3"),
    "duplicate-symbol": SMALL.replace("3 b", "2 b"),
    "leading-zero-id": SMALL.replace("3 b", "03 b"),
    "zero-id": SMALL.replace("3 b", "0 b"),
    "falsity-id": SMALL.replace("3 b", "1 b"),
    "no-rules-end": "1 2 0 0\n",
    # more digits than int() reads by default
    "long-number": SMALL.replace("1 2 2 1 4 3", "1 2 2 1 4 " + "3" * 5000),
    "long-symbol-id": SMALL.replace("3 b", "3" * 5000 + " b"),
    "zero-literal-in-second-block": _run_text(1025, lambda line: line[:line.rindex(" ")] + " 0"),
    "leading-zero-neg-in-run": _run_text(10, lambda line: line.replace(" 3 1 ", " 3 01 ")),
    "type-2-line-in-run": _run_text(500, lambda line: "2 5 2 1 1 4 3"),
    "other-neg-in-run": _run_text(700, lambda line: "1 5 3 2 4 6 3"),
    "zero-head-in-run": _run_text(1200, lambda line: "1 0" + line[line.index(" ", 2):]),
    "run-with-more-neg-than-lits": "1 2 1 2 3\n" * 10 + "0\n0\nB+\n0\nB-\n1\n0\n1\n",
}


def test_reader_cases():
    gp = parse_ground_program(SMALL)
    want = {
        "canonical": gp,
        "tabs-and-runs-of-spaces": gp,
        "crlf": gp,
        "cr": gp,
        "space-zero-after-rules": gp,
        # the next rule line reads as atom 3 named "2 2 3 1 0 4"
        "space-zero-ends-rules": (FormatError, 5, "expected 'B+', got '2 a'"),
        "double-zero-ends-rules": (FormatError, 5, "expected 'B+', got '2 a'"),
        "truncated-basic": (FormatError, 1, "truncated basic rule"),
        "trailing-basic": (FormatError, 1, "trailing numbers on type-1 rule line"),
        "zero-head": (FormatError, 1, "atom id 0 in basic rule is not positive"),
        "zero-literal": (FormatError, 1, "atom id 0 in basic rule is not positive"),
        "negative-head": (FormatError, 1, "atom id -2 in basic rule is not positive"),
        "negative-literal": (FormatError, 1, "atom id -4 in basic rule is not positive"),
        "duplicate-symbol": (FormatError, 5, "duplicate symbol entry for atom 2"),
        "leading-zero-id": gp,
        "zero-id": (FormatError, 5, "atom id 0 in symbol line is not positive"),
        "falsity-id": (FormatError, 5, "atom id 1 in symbol line is the falsity atom"),
        "no-rules-end": (FormatError, 2, "unexpected end of input, expected a rule line or 0"),
        "long-number": (FormatError, 1, "expected a rule line or 0, got "
                        + repr("1 2 2 1 4 " + "3" * 5000)),
        "long-symbol-id": (FormatError, 5, f"malformed symbol line {'3' * 5000 + ' b'!r}"),
        "zero-literal-in-second-block": (FormatError, 1025,
                                         "atom id 0 in basic rule is not positive"),
        "leading-zero-neg-in-run": _run_program(),
        "type-2-line-in-run": _run_program(500, ConstraintRule(5, 1, (3,), (4,))),
        "other-neg-in-run": _run_program(700, BasicRule(5, (3,), (4, 6))),
        "zero-head-in-run": (FormatError, 1200, "atom id 0 in basic rule is not positive"),
        "run-with-more-neg-than-lits": (FormatError, 1, "bad literal counts in basic rule"),
    }
    assert {name: _outcome(text) for name, text in _READER_CASES.items()} == want


def test_bulk_and_checked_reads_agree(monkeypatch):
    # The bulk readers must give what the line-by-line readers give: the same
    # program, or the same FormatError class, line and message. Compared on
    # the named cases and on seeded mutants of emitted files, of which about
    # half take the bulk path for the rules, and more than a third for the
    # symbols.
    rng = random.Random(11)
    makers = (lambda: gen.to_interchange(*gen.random_extended_source(rng)),
              lambda: gen.random_normal_ground(rng),
              lambda: gen.random_binary_constraint_ground(rng))
    mutants = [gen.mutate_ground(rng, emit_ground_program(makers[i % 3]()))
               for i in range(2000)]
    texts = list(_READER_CASES.values()) + mutants
    bulk = [_outcome(text) for text in texts]
    bulk_reads = {"rules": 0, "symbols": 0}

    def counted(name, reader):
        def read(*args):
            got = reader(*args)
            bulk_reads[name] += got is not None
            return got
        return read

    monkeypatch.setattr(ground_format, "_read_rules_bulk",
                        counted("rules", ground_format._read_rules_bulk))
    monkeypatch.setattr(ground_format, "_read_symbols_bulk",
                        counted("symbols", ground_format._read_symbols_bulk))
    for text in mutants:
        _outcome(text)
    # a table that names the falsity atom goes to the checked path, which rejects it
    assert bulk_reads == {"rules": 1046, "symbols": 771}
    monkeypatch.setattr(ground_format, "_read_rules_bulk", lambda text, lines: None)
    monkeypatch.setattr(ground_format, "_read_symbols_bulk", lambda lines, lineno: None)
    checked = [_outcome(text) for text in texts]
    for text, b, c in zip(texts, bulk, checked):
        assert b == c, text


def test_runs_of_basic_rules_read_as_checked(monkeypatch):
    # Writer-form files of long runs of same-shaped basic rules
    # (gen.basic_rule_runs), most with negative literals, and seeded
    # mutants of them: the bulk reader gives what the checked reader
    # gives, and reads the runs of the unmutated files by columns.
    rng = random.Random(12)
    gps = [gen.basic_rule_runs(rng) for _ in range(24)]
    texts = [emit_ground_program(gp) for gp in gps]
    mutants = [gen.mutate_ground(rng, texts[i % len(texts)]) for i in range(240)]
    by_columns = []
    read = ground_format._read_run

    def read_run(strings, at, end, n, rules):
        done = read(strings, at, end, n, rules)
        by_columns.append((end - at) // n if done else 0)
        return done

    monkeypatch.setattr(ground_format, "_read_run", read_run)
    for gp, text in zip(gps, texts):
        assert parse_ground_program(text) == gp
    assert (len(by_columns), sum(by_columns), sum(map(len, (gp.rules for gp in gps)))) \
        == (104, 29_171, 36_376)
    bulk = [_outcome(text) for text in mutants]
    monkeypatch.setattr(ground_format, "_read_rules_bulk", lambda text, lines: None)
    checked = [_outcome(text) for text in mutants]
    assert bulk == checked
    assert sum(isinstance(b, GroundProgram) for b in bulk) == 55


def test_ancestor_grounding_is_read_by_columns(monkeypatch):
    # Every rule line the grounder writes for programs/ancestor.lp is a
    # basic rule, so _parse_rule reads none of them. In the default mode
    # its 18 lines come in 3 runs, long enough to be read by columns; in
    # mode none, 8 lines in 2 runs are read line by line.
    calls = []

    def counted(name, reader):
        def read(*args):
            calls.append((mode, name))
            return reader(*args)
        return read

    for name in ("_parse_rule", "_read_lines", "_read_run"):
        monkeypatch.setattr(ground_format, name, counted(name, getattr(ground_format, name)))
    programs = pathlib.Path(__file__).resolve().parent.parent / "programs"
    for mode in ("keep", "none"):
        gp = ground_files([str(programs / "ancestor.lp")],
                          GroundOptions(domain_mode=mode)).interchange
        assert parse_ground_program(emit_ground_program(gp)) == gp
    assert calls == [("keep", "_read_run")] * 3 + [("none", "_read_lines")]
