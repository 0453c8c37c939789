import collections
import hashlib
import io
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

import aspkit
import gen
from aspkit.cli import main
from test_ground_bytes import INPUTS, ROOT

# Subprocesses import the same aspkit as the suite, installed or not.
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(pathlib.Path(aspkit.__file__).parent.parent),
                os.environ.get("PYTHONPATH")) if p)}

COLORING = """\
d(1..3).
col(red; green; blue).
1 { color(X,C):col(C) } 1 :- d(X).
:- color(X,C), color(Y,C), d(X), d(Y), col(C), X < Y.
"""

TWO_CYCLE = "a :- not b. b :- not a."


@pytest.fixture
def run(capsys, monkeypatch):
    def invoke(argv, stdin=""):
        # Bytes-backed, and lenient on bad bytes like the interpreter's own
        # stdin, so that only a strict decode of stdin.buffer rejects them.
        data = stdin.encode("utf-8") if isinstance(stdin, str) else stdin
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- ground -------------------------------------------------------------------

def test_ground_emits_interchange_format(run, tmp_path):
    src = write(tmp_path, "p.lp", TWO_CYCLE)
    code, out, err = run(["ground", src])
    assert code == 0
    lines = out.splitlines()
    assert lines.count("0") >= 2
    assert "B+" in lines and "B-" in lines
    assert lines[-1] == "1"


def test_ground_text_mode(run, tmp_path):
    src = write(tmp_path, "p.lp", "d(1..2). q(X) :- d(X).")
    code, out, err = run(["ground", "--text", src])
    assert code == 0
    assert "q(1)." in out and "q(2)." in out


# The shipped programs with their options, without the generated instance.
SHIPPED = [(files, extra) for files, extra in INPUTS.values() if files]


def model_sets(out):
    return sorted(sorted(line.split()[2:]) for line in out.splitlines()
                  if line.startswith("Stable Model:"))


def assert_text_runs_as_source(run, tmp_path, paths, extra, mode):
    # `ground --text` output is source aspkit reads back: run on it gives
    # the models and the exit code of run on the source. The text is
    # ground, so it runs in keep mode; in none mode it already lacks the
    # domain atoms that run on the source leaves out.
    code, text, err = run(["ground", "--text", *extra, "-d", mode, *paths])
    assert (code, err) == (0, "")
    ground = write(tmp_path, "text.lp", text)
    src_code, src_out, _ = run(["run", *extra, "-d", mode, *paths, "0"])
    text_code, text_out, text_err = run(["run", ground, "0"])
    assert text_err == ""
    assert (text_code, model_sets(text_out)) == (src_code, model_sets(src_out))


@pytest.mark.parametrize("mode", ["keep", "none"])
@pytest.mark.parametrize("files, extra", SHIPPED, ids=lambda v: " ".join(v) or "-")
def test_ground_text_of_shipped_programs_runs_as_source(run, tmp_path, files, extra, mode):
    # graph.lp in none mode grounds a constraint whose body evaluated away.
    assert_text_runs_as_source(run, tmp_path, [str(ROOT / f) for f in files], extra, mode)


def test_ground_text_of_aggregate_sources_runs_as_source(run, tmp_path):
    # gen.aggregate_source prints its rules with grule_source, as --text
    # does, so each text must parse; empty-body constraints are common.
    rng = random.Random(17)
    for i in range(150):
        src = write(tmp_path, "p.lp", gen.aggregate_source(rng))
        assert_text_runs_as_source(run, tmp_path, [src], [], ("keep", "none")[i % 2])


def test_ground_missing_file(run):
    code, out, err = run(["ground", "no/such/file.lp"])
    assert code == 1
    assert err


def test_ground_parse_error(run, tmp_path):
    src = write(tmp_path, "p.lp", "p :- q")
    code, out, err = run(["ground", src])
    assert code == 2
    assert "not terminated" in err


@pytest.mark.parametrize("text, ch", [("p(²).", "²"), ("p(٣).", "٣")])
def test_integer_of_other_digits_exits_two(run, tmp_path, text, ch):
    src = write(tmp_path, "p.lp", text)
    for argv in (["ground", src], ["run", src]):
        code, out, err = run(argv)
        assert (code, out, err) == (2, "", f"{src}:1:3: illegal character {ch!r}\n")


@pytest.mark.parametrize("text, col, ch", [
    ("p\u00e9. q.", 2, "\u00e9"),   # a Latin letter outside ASCII
    ("q\u0663.", 2, "\u0663"),       # an Arabic-Indic digit inside a name
    ("\u00c4 :- p.", 1, "\u00c4"),   # an uppercase letter outside ASCII
])
def test_name_of_other_letters_exits_two(run, tmp_path, text, col, ch):
    src = write(tmp_path, "p.lp", text)
    for argv in (["ground", src], ["run", src]):
        code, out, err = run(argv)
        assert (code, out, err) == (2, "", f"{src}:1:{col}: illegal character {ch!r}\n")


def test_ground_semantic_error(run, tmp_path):
    src = write(tmp_path, "p.lp", "p(X) :- not q(X). q(a).")
    code, out, err = run(["ground", src])
    assert code == 3
    assert "not bound" in err


def test_ground_arithmetic_error(run, tmp_path):
    src = write(tmp_path, "p.lp", "d(1..3). p(X / 0) :- d(X).")
    code, out, err = run(["ground", src])
    assert code == 4
    assert "division by zero" in err


# ASP names that are Python keywords, builtins or dunder-like, and the
# 64-bit limits; the grounder compiles each rule to Python, so none of
# these may reach the generated source as anything but a value.
HYGIENE = """\
d(1). d(lambda). e(2).
p(None,True) :- d(None), e(True), None != True.
q(X__,_Y) :- d(X__), e(_Y).
class(False) :- p(False,B), not r(False).
r(X) :- d(X), not class(X).
big(9223372036854775807). big(lo).
pair(X,Y) :- big(X), big(Y), X > Y, Y == lo, X == 9223372036854775807.
low(X - 1) :- big(X), X > lo.
top(lo + 0, 9223372036854775807 - 0) :- e(2), not class(2).
"""

HYGIENE_DOMAIN = ("d(1).\nd(lambda).\ne(2).\np(1,2).\np(lambda,2).\nq(1,2).\nq(lambda,2).\n"
                  "big(9223372036854775807).\nbig(-9223372036854775808).\n"
                  "pair(9223372036854775807,-9223372036854775808).\nlow(9223372036854775806).\n")
HYGIENE_RULES = ("class(1) :- {p}not r(1).\nclass(lambda) :- {pl}not r(lambda).\n"
                 "r(1) :- {d}not class(1).\nr(lambda) :- {dl}not class(lambda).\n"
                 "top(-9223372036854775808,9223372036854775807) :- {e}not class(2).\n")
HYGIENE_MODELS = [("class(1)", "class(lambda)"), ("class(1)", "r(lambda)"),
                  ("r(1)", "class(lambda)"), ("r(1)", "r(lambda)")]


@pytest.mark.parametrize("mode", ["keep", "none"])
def test_generated_code_keeps_asp_names_apart_from_python_names(run, tmp_path, mode):
    src = write(tmp_path, "h.lp", HYGIENE)
    lo = ["-c", "lo=-9223372036854775808", "-d", mode]
    keep = mode == "keep"
    code, out, err = run(["ground", "--text", *lo, src])
    rules = HYGIENE_RULES.format(**({"p": "p(1,2), ", "pl": "p(lambda,2), ", "d": "d(1), ",
                                     "dl": "d(lambda), ", "e": "e(2), "} if keep else
                                    {k: "" for k in ("p", "pl", "d", "dl", "e")}))
    assert (code, out, err) == (0, (HYGIENE_DOMAIN if keep else "") + rules, "")
    code, out, err = run(["ground", *lo, src])
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, err) == (0, "")
    assert digest == ("88d218d7896c6190f12fafa3951b07fc1c64087324b56018d6152032482110c5" if keep
                      else "04b3898f79854da4a7c86e9b3df1b8c08327b67f66f0aac3db187fc2dacb917e")
    code, out, err = run(["run", *lo, src, "0"])
    facts = " ".join(HYGIENE_DOMAIN.replace(".", "").split()) + " " if keep else ""
    top = "top(-9223372036854775808,9223372036854775807)"
    want = "".join(f"Answer: {i}\nStable Model: {facts}{a} {b} {top}\n"
                   for i, (a, b) in enumerate(HYGIENE_MODELS, 1)) + "True\n"
    assert (code, out, err) == (0, want, "")


# (program, a rule that makes its head recursive, exit code): each
# program's conditional literal would raise on a binding that a later
# comparison or join rejects.
CONDITIONAL_AFTER_JOIN = [
    ("d(0..2). q(1).\np :- d(Y), q(Z/Y) : d(Z), Y != 0.\n", "p :- p.\n", 0),
    ("d(1). d(a). e(1). f(1,1).\np(X) :- d(X), f(X,Y) : e(Y), X < 2.\n",
     "p(X) :- d(X), p(X).\n", 3),
]


@pytest.mark.parametrize("text, recursion, code", CONDITIONAL_AFTER_JOIN)
def test_conditional_literals_wait_for_the_join_in_every_rule(run, tmp_path, text,
                                                              recursion, code):
    # A conditional literal is evaluated after the rule's join and
    # comparisons, whether its head is a domain predicate or, made
    # recursive by one more rule that derives nothing, not.
    for mode in ("keep", "none"):
        domain = run(["run", "-d", mode, write(tmp_path, "p.lp", text)])
        other = run(["run", "-d", mode, write(tmp_path, "p.lp", text + recursion)])
        assert domain[0] == code
        assert domain == other


def test_ground_constant_override(run, tmp_path):
    src = write(tmp_path, "p.lp", "#const n = 2. d(1..n).")
    code, out, _ = run(["ground", "--text", "-c", "n=3", src])
    assert code == 0
    assert "d(3)." in out
    code, out, _ = run(["ground", "--text", src])
    assert "d(3)." not in out


def test_ground_bad_constant_syntax(run, tmp_path):
    src = write(tmp_path, "p.lp", "d(1..2).")
    code, out, err = run(["ground", "-c", "nonsense", src])
    assert code == 1


@pytest.mark.parametrize("value, message", [
    ("9223372036854775808", "constant n out of 64-bit range"),
    ("-9223372036854775809", "constant n out of 64-bit range"),
    ("1" + "0" * 40, "constant n out of 64-bit range"),
    ("9" * 5000, "constant n has too many digits"),
])
def test_constant_outside_64_bits_is_a_usage_error(run, tmp_path, value, message):
    src = write(tmp_path, "p.lp", "p(n).")
    for command in ("ground", "run"):
        assert run([command, "-c", f"n={value}", src]) == (1, "", f"aspkit: error: {message}\n")


@pytest.mark.parametrize("value", ["9223372036854775807", "-9223372036854775808"])
def test_constant_at_the_64_bit_limits_is_accepted(run, tmp_path, value):
    src = write(tmp_path, "p.lp", "p(n).")
    code, out, err = run(["run", "-c", f"n={value}", src])
    assert (code, err) == (0, "")
    assert f"Stable Model: p({value})\n" in out


def test_model_count_of_too_many_digits_is_a_usage_error(run, tmp_path):
    src = write(tmp_path, "p.lp", "p.")
    ground = write(tmp_path, "p.sm", run(["ground", src])[1])
    count = "9" * 5000
    want = (1, "", "aspkit: error: model count has too many digits\n")
    assert run(["run", src, count]) == want
    assert run(["solve", ground, count]) == want
    assert run(["solve", count], stdin=pathlib.Path(ground).read_text()) == want
    # a count beyond 64 bits but within int()'s digits still means "all"
    assert run(["run", src, "9" * 100])[0] == 0


# -- solve --------------------------------------------------------------------

def test_solve_reads_ground_file(run, tmp_path):
    src = write(tmp_path, "p.lp", TWO_CYCLE)
    code, ground_out, _ = run(["ground", src])
    assert code == 0
    gfile = write(tmp_path, "p.sm", ground_out)
    code, out, _ = run(["solve", gfile])
    assert code == 0
    assert "Answer: 1" in out
    assert "Stable Model: a" in out
    assert out.rstrip().endswith("True")


def test_solve_reads_stdin(run, tmp_path):
    src = write(tmp_path, "p.lp", TWO_CYCLE)
    _, ground_out, _ = run(["ground", src])
    code, out, _ = run(["solve"], stdin=ground_out)
    assert code == 0
    assert "Answer: 1" in out


def test_solve_count_overrides_embedded_count(run, tmp_path):
    src = write(tmp_path, "p.lp", TWO_CYCLE)
    _, ground_out, _ = run(["ground", src])
    gfile = write(tmp_path, "p.sm", ground_out)
    code, out, _ = run(["solve", gfile, "0"])
    assert out.count("Answer:") == 2


def test_solve_no_model_exits_one(run, tmp_path):
    src = write(tmp_path, "p.lp", "a :- not a.")
    _, ground_out, _ = run(["ground", src])
    gfile = write(tmp_path, "p.sm", ground_out)
    code, out, _ = run(["solve", gfile])
    assert code == 1
    assert out.rstrip().endswith("False")
    assert "Answer:" not in out


def test_solve_malformed_input(run, tmp_path):
    # Each message names its input, as verify's and the UTF-8 errors do.
    for text, message in (
            ("1 2 oops\n", "line 1: expected a rule line or 0, got '1 2 oops'"),
            ("", "line 1: unexpected end of input, expected a rule line or 0")):
        gfile = write(tmp_path, "bad.sm", text)
        assert run(["solve"], stdin=text) == (2, "", f"<stdin>: {message}\n")
        for argv in (["solve", gfile], ["solve", "--wfs", gfile],
                     ["verify", gfile, gfile]):
            assert run(argv) == (2, "", f"{gfile}: {message}\n")


@pytest.mark.parametrize("rule", ["1 -3 0 0", "1 0 0 0"])
def test_solve_rejects_nonpositive_atom_id(run, rule):
    code, out, err = run(["solve"], stdin=f"{rule}\n0\n2 a\n0\nB+\n0\nB-\n1\n0\n1\n")
    assert code == 2
    assert err.startswith("<stdin>: line 1: atom id ")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("symbol, message", [
    ("² a", "malformed symbol line '² a'"),
    ("0 a", "atom id 0 in symbol line is not positive"),
])
def test_solve_rejects_bad_symbol_id(run, symbol, message):
    ground = f"1 2 0 0\n0\n{symbol}\n0\nB+\n0\nB-\n1\n0\n1\n"
    for argv in (["solve"], ["solve", "--wfs"]):
        code, out, err = run(argv, stdin=ground)
        assert (code, out, err) == (2, "", f"<stdin>: line 3: {message}\n")


@pytest.mark.parametrize("rule", ["1 \u0662 0 0", "1 1_0 0 0", "1\x1f2 0 0"])
def test_solve_rejects_numbers_int_would_misread(run, rule):
    # int() reads the first two as head 2 and head 10; str.split() takes
    # the unit separator in the third for a space, which makes it `a.`.
    ground = f"{rule}\n0\n2 a\n0\nB+\n0\nB-\n1\n0\n1\n"
    for argv in (["solve"], ["solve", "--wfs"]):
        code, out, err = run(argv, stdin=ground)
        assert (code, out, err) == (2, "", f"<stdin>: line 1: expected a rule line or 0, got {rule!r}\n")


def test_solve_rejects_negative_choice_head_count(run):
    # Once read as the choice of heads 2 and 3: four models, exit 0.
    ground = "3 -2 2 3 0 0\n0\n2 a\n3 b\n0\nB+\n0\nB-\n1\n0\n0\n"
    for argv in (["solve"], ["solve", "--wfs"]):
        code, out, err = run(argv, stdin=ground)
        assert (code, out, err) == (2, "", "<stdin>: line 1: bad head count in choice rule\n")


@pytest.mark.parametrize("line, lineno, message", [
    ("2\u3000a", 3, "malformed symbol line '2\\u3000a'"),
    ("2 \xa0a", 3, "malformed symbol line '2 \\xa0a'"),
    ("\xa00", 4, "malformed symbol line '\\xa00'"),
    ("\xa0B+", 5, "expected 'B+', got '\\xa0B+'"),
])
def test_solve_rejects_whitespace_other_than_spaces_and_tabs(run, line, lineno, message):
    # Once `2\u3000a` read as atom 2 named `a`, and `\xa0B+` as the header.
    lines = ["1 2 0 0", "0", "2 a", "0", "B+", "0", "B-", "1", "0", "1"]
    lines[lineno - 1] = line
    ground = "\n".join(lines) + "\n"
    for argv in (["solve"], ["solve", "--wfs"]):
        code, out, err = run(argv, stdin=ground)
        assert (code, out, err) == (2, "", f"<stdin>: line {lineno}: {message}\n")


def sparse_ground(ids):
    """{ c, b }.  h :- c.  a :- h.  with c, h, b numbered ids[0..2]; h is
    hidden."""
    c, h, b = ids
    return (f"3 2 {c} {b} 0 0\n1 {h} 1 0 {c}\n1 2 1 0 {h}\n0\n"
            f"2 a\n{b} b\n{c} c\n0\nB+\n0\nB-\n1\n0\n0\n")


def sparse_basic_ground(ids):
    """c :- not b.  b :- not c.  h :- c.  a :- h.  with c, h, b numbered
    ids[0..2]; h is hidden."""
    c, h, b = ids
    return (f"1 {c} 1 1 {b}\n1 {b} 1 1 {c}\n1 {h} 1 0 {c}\n1 2 1 0 {h}\n0\n"
            f"2 a\n{b} b\n{c} c\n0\nB+\n0\nB-\n1\n0\n0\n")


def test_sparse_atom_ids_cost_no_memory(run, tmp_path):
    # Atom ids are renumbered onto the ids in use, so a large id costs no
    # more than a small one and the answers are the same. The well-founded
    # model keys its tables by the ids in use, without renumbering.
    dense = write(tmp_path, "dense.sm", sparse_ground((3, 4, 5)))
    sparse = write(tmp_path, "sparse.sm", sparse_ground((7, 50, 100000)))
    _, want, _ = run(["solve", dense])
    assert want.count("Answer:") == 4
    models = write(tmp_path, "models.txt", want)
    basic = write(tmp_path, "basic.sm", sparse_basic_ground((7, 50, 100000)))
    for argv, expected in ((["solve", sparse], want),
                           (["verify", sparse, models], "Model 1: stable\n"
                            "Model 2: stable\nModel 3: stable\nModel 4: stable\n"),
                           (["solve", "--wfs", basic],
                            "Well-founded model\nTrue:\nUnknown: a c b\nFalse:\n")):
        tracemalloc.start()
        try:
            code, out, err = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, expected, "")
        assert peak < 5 * 2**20, f"{argv[0]} peaked at {peak} bytes"


# -- run ----------------------------------------------------------------------

def test_run_matches_ground_then_solve(run, tmp_path):
    src = write(tmp_path, "p.lp", COLORING)
    _, ground_out, _ = run(["ground", "-d", "none", src])
    gfile = write(tmp_path, "p.sm", ground_out)
    _, solve_out, _ = run(["solve", gfile, "0"])
    code, run_out, _ = run(["run", "-d", "none", src, "0"])
    assert code == 0
    assert run_out == solve_out


def test_run_coloring_has_six_models(run, tmp_path):
    src = write(tmp_path, "p.lp", COLORING)
    code, out, _ = run(["run", "-d", "none", src, "0"])
    assert out.count("Answer:") == 6
    assert "color(" in out
    assert "d(1)" not in out  # domain atoms are hidden with -d none


def test_run_model_count_positional(run, tmp_path):
    src = write(tmp_path, "p.lp", COLORING)
    code, out, _ = run(["run", "-d", "none", src, "2"])
    assert out.count("Answer:") == 2


def test_run_text_flag_prints_ground_text(run, tmp_path):
    src = write(tmp_path, "p.lp", "d(1..2). {q(X):d(X)}.")
    code, out, _ = run(["run", "--text", src])
    assert code == 0
    assert "Answer:" not in out
    assert "{" in out


def test_run_wfs_output(run, tmp_path):
    src = write(tmp_path, "p.lp", "a :- b. b :- a. c :- not a.")
    code, out, _ = run(["run", "--wfs", src])
    assert code == 0
    assert "Well-founded model" in out
    assert any(line.startswith("True:") and "c" in line
               for line in out.splitlines())
    assert any(line.startswith("False:") and "a" in line and "b" in line
               for line in out.splitlines())


def test_run_wfs_unknowns(run, tmp_path):
    src = write(tmp_path, "p.lp", TWO_CYCLE)
    code, out, _ = run(["run", "--wfs", src])
    assert code == 0
    unknown = [l for l in out.splitlines() if l.startswith("Unknown:")]
    assert unknown and "a" in unknown[0] and "b" in unknown[0]


@pytest.mark.parametrize("text, reason", [
    ("a. :- a.", "an integrity constraint's body is true in the well-founded model"),
    ("a. compute { not a }.", "a is true in the well-founded model but required false"),
    ("a :- not b. b :- c. c :- b. compute { b }.",
     "b is false in the well-founded model but required true"),
])
def test_run_wfs_exits_1_when_no_stable_model_can_exist(run, tmp_path, text, reason):
    # Atoms true in the well-founded model are true in every stable model,
    # and atoms false in it are false in every one.
    src = write(tmp_path, "p.lp", text)
    assert run(["run", src])[:2] == (1, "False\n")
    code, out, err = run(["run", "--wfs", src])
    assert (code, err) == (1, f"aspkit: no stable model: {reason}\n")
    assert out.startswith("Well-founded model\nTrue:")


@pytest.mark.parametrize("text", ["b :- not c. c :- not b.",
                                  "b :- not c. c :- not b. :- b."])
def test_run_wfs_exits_0_while_a_stable_model_can_exist(run, tmp_path, text):
    src = write(tmp_path, "p.lp", text)
    assert run(["run", src])[0] == 0
    code, out, err = run(["run", "--wfs", src])
    assert (code, err) == (0, "")
    assert "Unknown: b c\n" in out


def test_run_wfs_rejects_extended_rules(run, tmp_path):
    src = write(tmp_path, "p.lp", "{ a }.")
    code, out, err = run(["run", "--wfs", src])
    assert code == 2


def test_run_lint_warnings_go_to_stderr(run, tmp_path):
    src = write(tmp_path, "p.lp", "d(1..2). p(X) :- d(X), ghost(X).")
    code, out, err = run(["run", "-W", src])
    assert "ghost" in err


# -- verify -------------------------------------------------------------------

def ground_to_file(run, tmp_path, text, name="g.sm", extra=()):
    src = write(tmp_path, name + ".lp", text)
    code, out, _ = run(["ground", *extra, src])
    assert code == 0
    return write(tmp_path, name, out)


def test_verify_accepts_real_models(run, tmp_path):
    src = write(tmp_path, "p.lp", COLORING)
    _, models_out, _ = run(["run", "-d", "none", src, "0"])
    mfile = write(tmp_path, "models.txt", models_out)
    gfile = ground_to_file(run, tmp_path, COLORING, extra=("-d", "none"))
    code, out, _ = run(["verify", gfile, mfile])
    assert code == 0
    assert out.count(": stable") == 6


def test_verify_rejects_fake_model(run, tmp_path):
    gfile = ground_to_file(run, tmp_path, TWO_CYCLE)
    mfile = write(tmp_path, "models.txt", "Stable Model: a b\n")
    code, out, _ = run(["verify", gfile, mfile])
    assert code == 1
    assert "not stable" in out


def test_verify_atom_soup_format(run, tmp_path):
    gfile = ground_to_file(run, tmp_path, TWO_CYCLE)
    mfile = write(tmp_path, "models.txt", "a\n")
    code, out, _ = run(["verify", gfile, mfile])
    assert code == 0
    assert "Model 1: stable" in out


def test_verify_unknown_atom_is_an_error(run, tmp_path):
    gfile = ground_to_file(run, tmp_path, TWO_CYCLE)
    mfile = write(tmp_path, "models.txt", "Stable Model: zzz\n")
    code, out, err = run(["verify", gfile, mfile])
    assert code == 2


# A choice over the 13 unnamed atoms 2..14, `{ b }`, `a :- 2` and `:- 2, b`.
HIDDEN_CHOICE = ("3 13 2 3 4 5 6 7 8 9 10 11 12 13 14 0 0\n"
                 "3 1 16 0 0\n"
                 "1 15 1 0 2\n"
                 "1 1 2 0 2 16\n"
                 "0\n15 a\n16 b\n0\nB+\n0\nB-\n1\n0\n1\n")


@pytest.mark.parametrize("listing, code, out", [
    ("Stable Model:\nStable Model: a\n", 0, "Model 1: stable\nModel 2: stable\n"),
    # a needs atom 2, and the constraint forbids atom 2 beside b
    ("Stable Model: a b\n", 1, "Model 1: not stable\n"),
    ("Stable Model: b\n", 0, "Model 1: stable\n"),
])
def test_verify_searches_any_number_of_hidden_atoms(run, tmp_path, listing, code, out):
    gfile = write(tmp_path, "g.sm", HIDDEN_CHOICE)
    mfile = write(tmp_path, "models.txt", listing)
    assert run(["verify", gfile, mfile]) == (code, out, "")


# -- source mutants -----------------------------------------------------------

def test_source_mutants_end_in_a_documented_exit_code(run, tmp_path):
    # Seeded token edits (gen.mutate_source) of the generators' programs:
    # `run` ends each in one of the exit codes the cli docstring lists, and
    # a failure prints only messages of one line that name the file.
    rng = random.Random(6)
    path = str(tmp_path / "m.lp")
    codes = collections.Counter()
    for i in range(400):
        source = gen.comparison_program(rng)[0] if i % 2 else gen.aggregate_source(rng)
        write(tmp_path, "m.lp", gen.mutate_source(rng, source))
        code, out, err = run(["run", path, "3"])
        codes[code] += 1
        lines = err.splitlines()
        assert all(line.startswith(f"{path}:") for line in lines)
        if code in (0, 1):
            assert out.endswith("True\n" if code == 0 else "False\n")
        else:
            # 2 input, 3 semantic and 4 arithmetic errors; a semantic check
            # may report several rules, one line each.
            assert code in (2, 3, 4) and out == "" and lines
            assert len(lines) == 1 or code == 3
    assert codes == {0: 61, 1: 22, 2: 286, 3: 30, 4: 1}


# -- input that is not UTF-8 ----------------------------------------------------

@pytest.mark.parametrize("command, bad", [
    ("ground", "source"), ("run", "source"), ("solve", "ground"),
    ("verify", "ground"), ("verify", "models"),
])
def test_input_that_is_not_utf8_exits_two(run, tmp_path, command, bad):
    contents = {"source": b"a.\nb :- a.\n",
                "ground": b"1 2 0 0\n0\n2 a\n0\nB+\n0\nB-\n1\n0\n1\n",
                "models": b"Stable Model: a\n"}
    paths = {}
    for kind, name in (("source", "p.lp"), ("ground", "p.sm"), ("models", "m.txt")):
        paths[kind] = str(tmp_path / name)
        data = contents[kind]
        if kind == bad:
            data = data.replace(b"\n", b"\n\xff", 1)
        (tmp_path / name).write_bytes(data)
    argv = {"ground": ["ground", paths["source"]], "run": ["run", paths["source"]],
            "solve": ["solve", paths["ground"]],
            "verify": ["verify", paths["ground"], paths["models"]]}[command]
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err == f"{paths[bad]}:2:1: invalid UTF-8 byte 0xff\n"


def test_stdin_that_is_not_utf8_exits_two(run):
    ground = b"1 2 0 0\n0\n2 a\xff\n0\nB+\n0\nB-\n1\n0\n1\n"
    code, out, err = run(["solve"], stdin=ground)
    assert (code, out, err) == (2, "", "<stdin>:3:4: invalid UTF-8 byte 0xff\n")
    proc = subprocess.run([sys.executable, "-m", "aspkit.cli", "solve"], input=ground,
                          capture_output=True, env={**SUBPROCESS_ENV, "LC_ALL": "C.UTF-8"})
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"<stdin>:3:4: invalid UTF-8 byte 0xff\n"


# -- entry point --------------------------------------------------------------

def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # 8192 models print about 500 KB, far more than a pipe buffers, so the
    # program is still writing when the reader closes after one line.
    src = write(tmp_path, "p.lp", "d(1..13). { p(X) : d(X) }.")
    proc = subprocess.Popen([sys.executable, "-m", "aspkit.cli", "run", src, "0"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=SUBPROCESS_ENV)
    assert proc.stdout.readline() == b"Answer: 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_installed_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "aspkit.cli", "--help"],
        capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 0
    assert "ground" in proc.stdout and "solve" in proc.stdout


FRONT_END = ("aspkit.lexer", "aspkit.syntax", "aspkit.parser", "aspkit.analysis",
             "aspkit.grounding", "aspkit.rulegen", "aspkit.primitives")


def test_cli_imports_neither_dataclasses_nor_the_oracle(run, tmp_path):
    # Every process pays for what `import aspkit.cli` loads: value classes
    # are records, not dataclasses, only verify loads the oracle, and only
    # ground and run load the front end. The package's names resolve on
    # first use, each to the object its module defines.
    src = write(tmp_path, "p.lp", TWO_CYCLE + " c :- a.")
    _, ground_out, _ = run(["ground", src])
    gfile = write(tmp_path, "p.sm", ground_out)
    mfile = write(tmp_path, "m.txt", "Stable Model: a c\n")
    unwanted = ("dataclasses", "inspect", "aspkit.oracle") + FRONT_END
    script = ("import contextlib, io, sys, aspkit.cli\n"
              f"unwanted = {unwanted!r}\n"
              "print(*[m for m in unwanted if m in sys.modules])\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [aspkit.cli.main(['solve', {gfile!r}]),\n"
              f"             aspkit.cli.main(['solve', '--wfs', {gfile!r}])]\n"
              "print(codes, *[m for m in unwanted if m in sys.modules])\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = aspkit.cli.main(['verify', {gfile!r}, {mfile!r}])\n"
              "print(code, *[m for m in unwanted if m in sys.modules])\n"
              "import aspkit\n"
              "print(aspkit.is_stable.__module__, aspkit.ComputeSpec.__module__)\n"
              "names = {}\n"
              "exec('from aspkit import *', names)\n"
              "print(*[n for n in aspkit.__all__ if n not in names])\n"
              "print(*[n for n in aspkit.__all__ if n not in dir(aspkit)])\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "\n[0, 0]\n0 aspkit.oracle\naspkit.oracle aspkit.oracle\n\n\n"
    for name in aspkit.__all__:
        value = getattr(aspkit, name)
        assert value.__module__.startswith("aspkit.")
        assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        aspkit.no_such_name
