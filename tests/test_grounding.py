import ast
import contextlib
import cProfile
import linecache
import pstats
import random
import re
import sys
import traceback
from collections import Counter

import pytest

import gen
from aspkit import grounding, pipeline, rulegen
from aspkit.cli import main
from aspkit.analysis import classify_domain_predicates
from aspkit.grounding import ArithmeticEvalError, GroundingError, desugar_program, eval_term
from aspkit.ground_format import BasicRule
from aspkit.oracle import naive_least_model
from aspkit.parser import ParseError, parse_text
from aspkit.pipeline import (
    GroundOptions,
    SemanticError,
    SolveOptions,
    ground_files,
    ground_text_input,
    solve_ground,
)
from aspkit.shared import FALSITY
from aspkit.syntax import Loc


def ground(text, **kw):
    return ground_text_input(text, GroundOptions(**kw) if kw else None)


def domain_extensions(text):
    program, _ = desugar_program(parse_text(text, "<t>"))
    return grounding.evaluate_domain_predicates(program, classify_domain_predicates(program))


def names(gp, model):
    return sorted(gp.interchange.symbols[a] for a in model if a in gp.interchange.symbols)


def fact_names(gp):
    """Names of atoms derived by ground facts (empty-body basic rules)."""
    out = set()
    for r in gp.interchange.rules:
        if isinstance(r, BasicRule) and not r.pos and not r.neg:
            out.add(gp.interchange.symbols[r.head])
    return out


def ev(expr):
    p = parse_text(f"p({expr}).", "<t>")
    return eval_term(p.rules[0].head.args[0], Loc("<t>", 1, 1))


# -- instantiation ------------------------------------------------------------

def test_acyclic_definite_program_is_fully_evaluated():
    text = """
    parent(a, b). parent(b, c). parent(c, d).
    gp(X, Z) :- parent(X, Y), parent(Y, Z).
    top(X) :- parent(X, Y).
    """
    program = parse_text(text, "<t>")
    want = naive_least_model(program)
    gp = ground(text)
    # Nothing here is recursive, so the grounder evaluates the whole
    # program to facts; the naive fixpoint must agree exactly.
    assert all(isinstance(r, BasicRule) and not r.pos and not r.neg
               for r in gp.interchange.rules)
    assert fact_names(gp) == want


def test_recursive_definite_program_matches_naive_evaluation():
    text = """
    parent(a, b). parent(b, c). parent(c, d).
    node(a). node(b). node(c). node(d).
    anc(X, Y) :- parent(X, Y).
    anc(X, Z) :- anc(X, Y), parent(Y, Z), node(X).
    """
    program = parse_text(text, "<t>")
    want = naive_least_model(program)
    gp = ground(text)
    models = list(solve_ground(gp.interchange, SolveOptions(model_count=0)))
    assert len(models) == 1
    _, visible = models[0]
    assert set(visible) == want


def test_ancestor_program_derives_three_facts():
    with open("programs/ancestor.lp", encoding="utf-8") as fh:
        text = fh.read()
    gp = ground(text, domain_mode="none")
    models = list(solve_ground(gp.interchange, SolveOptions(model_count=0)))
    assert len(models) == 1
    _, visible = models[0]
    anc = sorted(n for n in visible if n.startswith("ancestor("))
    assert anc == ["ancestor(jack,jill)", "ancestor(joan,jack)", "ancestor(joan,jill)"]


def test_domain_mode_none_hides_domain_facts():
    gp = ground("d(1..3). { p(X):d(X) }.", domain_mode="none")
    visible = set(gp.interchange.symbols.values())
    assert visible == {"p(1)", "p(2)", "p(3)"}
    kept = ground("d(1..3). { p(X):d(X) }.")
    assert {"d(1)", "d(2)", "d(3)"} <= set(kept.interchange.symbols.values())


def test_keep_and_none_agree_on_models_without_domain_atoms():
    # Conditional literals and aggregate elements over domain predicates
    # stay in the rule in keep mode and are evaluated away in none mode;
    # either way the stable models are the same once the domain atoms go.
    rng = random.Random(23)
    with_models = 0
    for _ in range(200):
        text = gen.conditional_program(rng)
        program, _ = desugar_program(parse_text(text, "<t>"))
        domain = {pred for pred, _ in classify_domain_predicates(program).domain}
        found = []
        for mode in ("keep", "none"):
            gp = ground(text, domain_mode=mode)
            found.append(sorted(
                sorted(n for n in visible if n.split("(")[0] not in domain)
                for _, visible in solve_ground(gp.interchange, SolveOptions(model_count=0))))
        assert found[0] == found[1], text
        with_models += bool(found[0])
    assert with_models >= 120


def test_range_instantiation():
    gp = ground("d(2..5).")
    assert fact_names(gp) == {"d(2)", "d(3)", "d(4)", "d(5)"}


def test_pool_instantiation():
    gp = ground("c(red; green; blue).")
    assert fact_names(gp) == {"c(red)", "c(green)", "c(blue)"}


def test_empty_range_warns_and_grounds_nothing():
    gp = ground("d(1..0). p(X) :- d(X).")
    assert any("empty range" in w.message for w in gp.warnings)
    assert fact_names(gp) == set()


def test_comparison_filters_instances():
    gp = ground("d(1..4). p(X) :- d(X), X < 3.")
    assert {"p(1)", "p(2)"} <= fact_names(gp)
    assert "p(3)" not in fact_names(gp)


def test_arithmetic_in_head():
    gp = ground("d(1..3). q(X * 10) :- d(X).")
    assert {"q(10)", "q(20)", "q(30)"} <= fact_names(gp)


def test_constant_substitution_through_options():
    gp = ground("d(1..k). p(X) :- d(X).", constants={"k": 2})
    assert {"p(1)", "p(2)"} <= fact_names(gp)
    assert "p(3)" not in fact_names(gp)


def test_semantic_error_for_unrestricted_variable():
    with pytest.raises(SemanticError) as err:
        ground("p(X) :- not q(X). q(a).")
    assert any("not bound" in d.message for d in err.value.diagnostics)


# -- integer semantics --------------------------------------------------------

def test_division_truncates_toward_zero():
    assert ev("7 / 2") == 3
    assert ev("0 - 7 / 2") == -3
    assert ev("(0 - 7) / 2") == -3


def test_mod_matches_truncating_division():
    # sign of the remainder follows the dividend
    assert ev("7 mod 2") == 1
    assert ev("(0 - 7) mod 2") == -1
    assert ev("7 mod (0 - 2)") == 1


def test_abs_and_precedence():
    assert ev("abs(2 - 10)") == 8
    assert ev("2 + 3 * 4") == 14


def test_division_by_zero_is_reported():
    with pytest.raises(ArithmeticEvalError):
        ev("1 / 0")
    with pytest.raises(ArithmeticEvalError):
        ev("1 mod 0")


def test_int64_overflow_is_reported():
    assert ev("9223372036854775806 + 1") == 2 ** 63 - 1
    with pytest.raises(ArithmeticEvalError):
        ev("9223372036854775807 + 1")
    with pytest.raises(ArithmeticEvalError):
        ev("0 - 9223372036854775807 - 2")


def test_range_bound_must_be_ground():
    with pytest.raises((GroundingError, SemanticError)):
        ground("d(1..n).")


def test_arithmetic_matches_naive_least_model():
    # Rules compile to Python; the oracle evaluates the source terms. Every
    # program is definite, so its one stable model is its least model.
    rng = random.Random(29)
    derived = Counter()
    for _ in range(60):
        text = gen.arithmetic_program(rng)
        program, _ = desugar_program(parse_text(text, "<t>"))
        want = naive_least_model(program)
        domain = {pred for pred, _ in classify_domain_predicates(program).domain}
        assert {"t", "u"}.isdisjoint(domain) and {"p0", "q"} <= domain
        for mode in ("keep", "none"):
            (_, visible), = solve_ground(ground(text, domain_mode=mode).interchange,
                                         SolveOptions(model_count=0))
            shown = want if mode == "keep" else {a for a in want if a.split("(")[0] not in domain}
            assert set(visible) == shown, text
        derived.update(a.split("(")[0] for a in want)
    assert all(derived[pred] >= 30 for pred in ("p0", "p1", "p2", "q", "t", "u"))


def test_computed_join_arguments_wait_for_their_variables(monkeypatch):
    # A join argument computed from a variable no earlier literal binds
    # becomes a deferred match check: `Y+1` waits for `e` to bind Y, and
    # `X*2` for its own literal to bind X. Keep mode shows the domain
    # atoms in the one model.
    text = """
    d(1,3). d(2,3). d(2,4). e(2,2). e(3,3). e(3,2).
    p(X,Y) :- d(X,Y+1), e(Y,X+1).
    q(X) :- d(X,X*2), e(X+1,X).
    """
    matched = set()
    check = rulegen.RuleFunction.check

    def spy(self, depth, step_check, skip):
        if step_check[0] == "match":
            matched.add(step_check[2].to_source())
        return check(self, depth, step_check, skip)

    monkeypatch.setattr(rulegen.RuleFunction, "check", spy)
    want = naive_least_model(parse_text(text, "<t>"))
    assert {a for a in want if a[0] in "pq"} == {"p(1,2)", "p(2,3)", "q(2)"}
    (_, visible), = solve_ground(ground(text, domain_mode="keep").interchange,
                                 SolveOptions(model_count=0))
    assert set(visible) == want
    assert matched == {"Y + 1", "X * 2"}


# (facts, body of p, the predicates of p's join loops, outermost first):
# the join takes the smallest extension left, ties in body order, but a
# literal waits while a variable of a computed argument is unbound, unless
# every literal left waits. The join predicates a/1, b/2 and c/3 differ in
# arity, which is how a loop's target in the generated text names them.
JOIN_ORDERS = [
    ("a(1..2). b(1..2,0).", "b(Y,Z), a(X)", "ba"),  # a tie keeps body order
    ("a(1..2). b(1..2,0).", "a(X), b(Y,Z)", "ab"),
    ("a(1..3). b(1..2,0).", "a(X), b(Y,Z)", "ba"),
    # a(W+1), the smallest, waits for b, and c, ready and smaller, goes first
    ("a(1). b(1..3,0). c(1..2,0,0).", "a(W+1), b(W,V), c(X,Y,Z)", "cba"),
    # neither is ready: c, the smaller, goes first, and binds Y for b
    ("b(1..3,0). c(1..2,0,0).", "b(X,Y+1), c(Y,X+1,Z)", "cb"),
    ("a(1..2). b(1..2,0).", "a(X), b(X,Y), a(X)", "aba"),  # one literal twice
]


@pytest.mark.parametrize("facts, body, want", JOIN_ORDERS)
def test_join_order(monkeypatch, facts, body, want):
    sources = []
    monkeypatch.setattr(linecache, "cache", _RecordedSources(sources))
    ground(f"{facts}\np :- {body}.\n", domain_mode="keep")
    source, = [s for s in sources if s.splitlines()[1].startswith("    # p :- ")]
    targets = re.findall(r"^ *for \((.*?)\) in ", source, re.M)
    assert "".join(" abc"[len(t.rstrip(",").split(", "))] for t in targets) == want


# (facts, rule, location, message, exit code): each error that evaluating a
# term or a comparison raises. The rule is a domain rule as it stands, and
# not one with `c` added to its body.
ARITHMETIC_ERRORS = [
    ("d(1).", "p(X / 0) :- d(X)", "3:1", "division by zero", 4),
    ("d(9223372036854775807).", "p(X + 1) :- d(X)", "3:1", "integer overflow in arithmetic", 4),
    ("d(a).", "p(X + 1) :- d(X)", "3:1", "arithmetic on non-integer value 'a'", 3),
    ("d(a).", "p(X) :- d(X), X < 1", "3:15", "ordering comparison on non-integer value 'a'", 3),
    ("d(1).", "p(X + n) :- d(X)", "3:1", "unbound symbolic constant 'n' used as an integer", 3),
]


@pytest.mark.parametrize("facts, rule, where, message, code", ARITHMETIC_ERRORS)
def test_arithmetic_errors_in_domain_and_other_rules(capsys, tmp_path, facts, rule, where,
                                                     message, code):
    for body in ("", ", c"):
        for mode in ((), ("-d", "none")):
            got = ground_cli(capsys, tmp_path, f"{facts}\n{{ c }}.\n{rule}{body}.\n", *mode)
            assert got == (code, "", f"{tmp_path / 'p.lp'}:{where}: {message}\n")


# -- compute statements -------------------------------------------------------

def test_compute_literals_become_constraints():
    gp = ground("a :- not b. b :- not a. compute { a }.")
    by_name = {v: k for k, v in gp.interchange.symbols.items()}
    assert by_name["a"] in gp.interchange.compute_true
    gp2 = ground("a :- not b. b :- not a. compute { not a }.")
    by_name = {v: k for k, v in gp2.interchange.symbols.items()}
    assert by_name["a"] in gp2.interchange.compute_false
    # no rule derives a, so `not a` holds in every model and adds nothing
    gp3 = ground("b. c :- b. compute { not a, c }.", domain_mode="keep").interchange
    by_name = {v: k for k, v in gp3.symbols.items()}
    assert gp3.compute_false == (FALSITY,) and gp3.compute_true == (by_name["c"],)
    assert [names for _, names in solve_ground(gp3, SolveOptions(model_count=0))] == [["b", "c"]]


# -- comparison-driven joins --------------------------------------------------

def ground_cli(capsys, tmp_path, text, *args):
    path = tmp_path / "p.lp"
    path.write_text(text, encoding="utf-8")
    code = main(["ground", *args, str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def generated_lines():
    """Counts the runs of generated rule code's marked lines by their mark:
    `compare` is a comparison checked on one row, and `lookup` and `range`
    a join step whose rows a driving comparison selected by index lookup or
    by bisection. Each rule runs as soon as it is compiled, under the file
    name `<rule FILE:LINE:COL>`, whose source linecache then holds."""
    counts = Counter()

    def line(frame, event, arg):
        if event == "line":
            text = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
            counts[text.partition("  # ")[2].partition(":")[0]] += 1
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith("<rule ") else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        yield counts
    finally:
        sys.settrace(previous)


def test_driven_joins_match_filtered_joins(capsys, tmp_path):
    grounded = 0
    with generated_lines() as lines:
        for seed in range(300):
            text, filtered = gen.comparison_program(random.Random(seed))
            mode = ("-d", "none") if seed % 2 else ()
            want = ground_cli(capsys, tmp_path, filtered, *mode)
            got = ground_cli(capsys, tmp_path, text, *mode)
            assert got == want, f"seed {seed}:\n{text}"
            grounded += want[0] == 0
    assert grounded >= 250
    assert lines["range"] > 100 and lines["lookup"] > 100


# (program, the same program with its driving comparisons turned into plain
# filters, exit code). `not never(..)` ahead of a comparison is a check that
# always holds and never raises; it keeps a symbolic column's error an
# ordering error, where V + 0 would make it an arithmetic one.
EDGE_CASES = [
    # the bound overflows int64
    ("d(1..3). big(9223372036854775806).\n"
     "p(X,Y) :- big(X), d(Y), Y <= X + 2.\n",
     "d(1..3). big(9223372036854775806).\n"
     "p(X,Y) :- big(X), d(Y), Y + 0 <= X + 2.\n", 4),
    # ... in a comparison that no row reaches
    ("d(2..4). p(X,Y) :- d(X), d(Y), Y < 2, Y > X + 9223372036854775807.\n",
     "d(2..4). p(X,Y) :- d(X), d(Y), Y + 0 < 2, Y + 0 > X + 9223372036854775807.\n", 0),
    # a check ahead of the comparison raises on a row the comparison rejects
    ("d(1..3). q(X) :- d(X), X > 5.\n"
     "p(X,Y) :- d(X), d(Y), not q(Y * 4611686018427387904), Y < 2.\n",
     "d(1..3). q(X) :- d(X), X > 5.\n"
     "p(X,Y) :- d(X), d(Y), not q(Y * 4611686018427387904), Y + 0 < 2.\n", 4),
    # the bound is symbolic
    ("d(1). e(a). p(X,Y) :- e(X), d(Y), Y > X.\n",
     "d(1). e(a). p(X,Y) :- e(X), d(Y), Y + 0 > X.\n", 3),
    # an ordering comparison meets a symbolic column; the comparison starts
    # a line so that its source position is the same in both programs
    ("d(1). d(a). d(3). never(X) :- d(X), X != X.\n"
     "p(X,Y) :- d(X), d(Y),\nY > X.\n",
     "d(1). d(a). d(3). never(X) :- d(X), X != X.\n"
     "p(X,Y) :- d(X), d(Y), not never(Y),\nY > X.\n", 3),
    ("d(3). d(1). d(a). d(2). never(X) :- d(X), X != X.\n"
     "p(X,Y) :- d(X), d(Y), Y != X, X < 3.\n"
     "q(X,Y) :- d(X), d(Y),\nY == X.\n",
     "d(3). d(1). d(a). d(2). never(X) :- d(X), X != X.\n"
     "p(X,Y) :- d(X), d(Y), Y != X, X < 3.\n"
     "q(X,Y) :- d(X), d(Y), not never(Y),\nY == X.\n", 3),
    # an equality lookup over a symbolic column
    ("d(b). d(1). d(a). d(2). never(X) :- d(X), X != X.\n"
     "p(X,Y) :- d(X), d(Y), Y == X.\n",
     "d(b). d(1). d(a). d(2). never(X) :- d(X), X != X.\n"
     "p(X,Y) :- d(X), d(Y), not never(Y), Y == X.\n", 0),
]


@pytest.mark.parametrize("text, filtered, code", EDGE_CASES)
def test_driven_join_edge_cases_match_filtered_joins(capsys, tmp_path, text, filtered, code):
    for mode in ((), ("-d", "none")):
        want = ground_cli(capsys, tmp_path, filtered, *mode)
        assert want[0] == code
        assert ground_cli(capsys, tmp_path, text, *mode) == want


CHAIN = "node(1..2000). edge(X,Y) :- node(X), node(Y), Y == X + 1.\n"


@pytest.mark.parametrize("text, preds", [
    (gen.scale_instance(n=300, fanout=50), ("near", "link")),
    (CHAIN, ("edge",)),
])
def test_comparison_checks_stay_proportional_to_rows(text, preds):
    # A join that filters a cross product makes n * n checks. Here every
    # comparison drives its join, so none is run as a check at all: a
    # driving comparison holds on every row it selected.
    with generated_lines() as lines:
        exts = domain_extensions(text)
    rows = sum(len(exts[(p, 2)]) for p in preds)
    assert rows >= 1999
    assert lines["compare"] == 0
    assert lines["range" if "<" in text else "lookup"] >= 300


def test_comparison_that_falls_back_checks_every_row():
    # Column Y of d holds the symbol b, so `Y > X` cannot select by bisection:
    # the step scans the rows of d(X, _) and checks each of its 3 * 3.
    with generated_lines() as lines:
        exts = domain_extensions(
            "e(1..3). d(X,Y) :- e(X), e(Y). d(a,b). p(X,Y) :- e(X), d(X,Y), Y > X.\n")
    assert sorted(exts[("p", 2)]) == [(1, 2), (1, 3), (2, 3)]
    assert lines["compare"] == 9
    assert lines["range"] == 0


# -- dense atom ids -----------------------------------------------------------

def test_grounder_numbers_atoms_densely():
    # The grounder sets n_atoms without a scan, so that compact_atom_ids
    # need not scan either: it must be both the number of ids the program
    # uses and the largest one.
    programs = [("programs/ancestor.lp",), ("programs/graph.lp",), ("programs/knapsack.lp",),
                ("programs/ncolor.lp", "programs/graph.lp"), ("programs/queens.lp",)]
    grounded = [ground_files(files, GroundOptions(constants={"n": 5}, domain_mode=mode))
                for files in programs for mode in ("keep", "none")]
    rng = random.Random(17)
    sources = [gen.comparison_program(rng)[0] for _ in range(150)]
    sources += [gen.aggregate_source(rng) for _ in range(150)]
    for i, text in enumerate(sources):
        try:
            grounded.append(ground(text, domain_mode=("keep", "none")[i % 2]))
        except (GroundingError, ParseError, SemanticError):
            pass
    assert len(grounded) >= 210
    for g in grounded:
        ids = g.interchange.atom_ids()
        assert g.interchange.n_atoms == len(ids) == max(ids)
        # the writer's symbol section keeps this order
        assert list(g.interchange.symbols) == sorted(g.interchange.symbols)


# -- generated code -----------------------------------------------------------

class _RecordedSources(dict):
    """A linecache that also keeps every generated rule's source."""

    def __init__(self, sources):
        super().__init__(linecache.cache)
        self.sources = sources

    def __setitem__(self, name, entry):
        if name.startswith("<rule "):
            self.sources.append("".join(entry[2]))
        super().__setitem__(name, entry)


def test_generated_code_parses_as_python_3_10(monkeypatch):
    # CI runs Python 3.10, whose f-strings cannot nest quotes (PEP 701).
    sources = []
    monkeypatch.setattr(linecache, "cache", _RecordedSources(sources))
    for files in (["ancestor.lp"], ["graph.lp"], ["knapsack.lp"], ["ncolor.lp", "graph.lp"],
                  ["queens.lp"]):
        for mode in ("keep", "none"):
            ground_files([f"programs/{f}" for f in files],
                         GroundOptions(constants={"n": 5}, domain_mode=mode))
    rng = random.Random(31)
    texts = [gen.aggregate_source(rng) for _ in range(20)]
    texts += [t for _ in range(20) for t in gen.comparison_program(rng)]
    texts += [gen.conditional_program(rng) for _ in range(20)]
    texts += [gen.arithmetic_program(rng) for _ in range(20)]
    texts.append(gen.scale_instance(n=20, fanout=5))
    for i, text in enumerate(texts):
        try:
            ground(text, domain_mode=("keep", "none")[i % 2])
        except (GroundingError, SemanticError):
            pass
    assert len(sources) >= 500
    for source in sources:
        ast.parse(source, feature_version=(3, 10))


def test_generated_functions_are_named_after_their_rule(tmp_path):
    path = tmp_path / "p.lp"
    path.write_text("d(0..2).\np(X) :- d(X), 1 / X > 0.\n{ q(X) : d(X) }.\n", encoding="utf-8")
    profile = cProfile.Profile()
    with pytest.raises(ArithmeticEvalError) as raised:
        profile.runcall(ground_files, [str(path)], GroundOptions())
    # a fact compiles nothing
    assert {f for f, _, _ in pstats.Stats(profile).stats if f.startswith("<rule ")} == {
        f"<rule {path}:2:1>"}
    frame = [f for f in traceback.extract_tb(raised.value.__traceback__)
             if f.filename.startswith("<rule ")][-1]
    assert frame.filename == f"<rule {path}:2:1>"
    assert frame.line.endswith("# compare: 1 / X > 0")
    assert linecache.getlines(frame.filename)[1] == "    # p(X) :- d(X), 1 / X > 0.\n"

    path.write_text("d(1..2).\n{ q(X) : d(X) }.\n", encoding="utf-8")
    profile = cProfile.Profile()
    profile.runcall(ground_files, [str(path)], GroundOptions())
    assert {f for f, _, _ in pstats.Stats(profile).stats if f.startswith("<rule ")} == {
        f"<rule {path}:2:1>"}

    # two rules on one line are two functions, each with its own text
    path.write_text("d(1..2).\np(X) :- d(X), not q(X).  q(X) :- d(X), not p(X).\n",
                    encoding="utf-8")
    profile = cProfile.Profile()
    profile.runcall(ground_files, [str(path)], GroundOptions())
    assert sorted((f, calls) for (f, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
                  if f.startswith("<rule ")) == [(f"<rule {path}:2:1>", 1), (f"<rule {path}:2:26>", 1)]
    assert linecache.getlines(f"<rule {path}:2:1>")[1] == "    # p(X) :- d(X), not q(X).\n"
    assert linecache.getlines(f"<rule {path}:2:26>")[1] == "    # q(X) :- d(X), not p(X).\n"


@pytest.fixture
def compiled(monkeypatch):
    """The file names of rulegen's compile() calls, from an empty code cache."""
    rulegen._shape_code.cache_clear()
    calls = []

    def counting(source, filename, mode):
        calls.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(rulegen, "compile", counting, raising=False)
    yield calls
    rulegen._shape_code.cache_clear()


def test_rules_of_one_shape_share_their_code(tmp_path, compiled):
    # p and q differ only in names and constants: one compile serves both,
    # and each still runs, and fails, under its own name and text.
    path = tmp_path / "p.lp"
    path.write_text("d(1..2). e(0..1). { c }.\np(X) :- d(X), 3 / X > 0, c.\n"
                    "q(Y) :- e(Y), 1 / Y > 0, c.\n", encoding="utf-8")
    profile = cProfile.Profile()
    with pytest.raises(ArithmeticEvalError) as raised:
        profile.runcall(ground_files, [str(path)], GroundOptions())
    assert len(compiled) == 2  # `{ c }.`, and the shape of p and q
    assert {f for f, _, _ in pstats.Stats(profile).stats if f.startswith("<rule ")} == {
        f"<rule {path}:1:19>", f"<rule {path}:2:1>", f"<rule {path}:3:1>"}
    assert str(raised.value) == f"{path}:3:15: division by zero"
    frame = [f for f in traceback.extract_tb(raised.value.__traceback__)
             if f.filename.startswith("<rule ")][-1]
    assert frame.filename == f"<rule {path}:3:1>"
    assert frame.line.endswith("# compare: 1 / Y > 0")
    p, q = (linecache.getlines(f"<rule {path}:{line}:1>") for line in (2, 3))
    assert p[1] == "    # p(X) :- d(X), 3 / X > 0, c.\n"
    assert q[1] == "    # q(Y) :- e(Y), 1 / Y > 0, c.\n"
    assert [line.partition("  # ")[0] for line in p[2:]] == [
        line.partition("  # ")[0] for line in q[2:]]
    assert sum(line.endswith("  # compare: 3 / X > 0\n") for line in p) == 1
    # a deep join goes on in functions defined in the rule's, renamed too
    body = ", ".join(f"d(X{i})" for i in range(rulegen._DEEPEST + 2))
    path.write_text(f"d(1). {{ c }}.\np :- {body}, c.\nq :- {body.replace('X', 'Y')}, c.\n",
                    encoding="utf-8")
    del compiled[:]
    profile = cProfile.Profile()
    profile.runcall(ground_files, [str(path)], GroundOptions())
    assert len(compiled) == 1  # p and q; `{ c }.` is in the cache
    assert {f for f, _, name in pstats.Stats(profile).stats if name.startswith("part")} == {
        f"<rule {path}:2:1>", f"<rule {path}:3:1>"}


def test_a_process_compiles_each_rule_shape_once(compiled):
    text = "".join(f"{{ q{i} }}.\np{i} :- q{i}, not r{i}.\n" for i in range(2000))
    first = ground(text)
    assert len(compiled) == 2  # one per shape, not one per rule
    again = ground(text)
    assert len(compiled) == 2
    assert again.interchange == first.interchange
    # 2 ** 9 sign patterns of nine literals make as many shapes
    shapes = rulegen._SHAPES + 1
    assert shapes < 2 ** 9
    ground("{ a1, a2, a3, a4, a5, a6, a7, a8, a9 }.\n" + "".join(
        f"p{i} :- {', '.join(('' if i >> j & 1 else 'not ') + f'a{j + 1}' for j in range(9))}.\n"
        for i in range(shapes)))
    assert len(compiled) == 2 + 1 + shapes
    assert rulegen._shape_code.cache_info().currsize == rulegen._SHAPES


def test_linecache_keeps_the_last_rule_texts(monkeypatch):
    # a fresh cache: texts evicted while another test swapped in its own stay in the old one
    monkeypatch.setattr(linecache, "cache", {})
    last = 2 * rulegen._SHAPES  # the line of the last of twice as many rules
    ground("".join(f"{{ q{i} }}.\np{i} :- q{i}, not r{i}.\n" for i in range(rulegen._SHAPES)))
    assert len([name for name in linecache.cache if name.startswith("<rule ")]) <= rulegen._SHAPES
    assert linecache.getlines(f"<rule <string>:{last}:1>")[1] == (
        f"    # p{rulegen._SHAPES - 1} :- q{rulegen._SHAPES - 1}, not r{rulegen._SHAPES - 1}.\n")
    assert linecache.getlines("<rule <string>:1:1>") == []
    # a rule grounded again is the newest, not the oldest it was
    ground("\n" * 299 + "a :- not b.\n")
    ground("".join(f"c{i} :- not d{i}.\n" for i in range(100)))
    assert linecache.getlines("<rule <string>:300:1>")[1] == "    # a :- not b.\n"


def test_ground_arithmetic_terms_compile_once_per_shape(compiled):
    text = "".join(f"p({i} + 1).\n" for i in range(4000))
    first = ground(text)
    assert len(compiled) == 1  # one shape for 4,000 terms
    assert "p(4000)" in first.interchange.symbols.values()
    assert ground(text).interchange == first.interchange
    assert len(compiled) == 1
    # a term's code is not named `<rule>`, the name of a rule without a location
    with pytest.raises(ArithmeticEvalError) as raised:
        ground("p(1 / 0).")
    assert [f.filename for f in traceback.extract_tb(raised.value.__traceback__)
            if f.name == "term"] == ["<shape>"]


def test_join_deeper_than_python_nests_blocks(capsys, tmp_path):
    # Python compiles at most 20 nested blocks into one function; a longer
    # join goes on in a function of its own.
    body = ", ".join(f"d(X{i})" for i in range(22))
    text = (f"d(1). e(1..2). {{ c }}. {{ q(Y) : e(Y) }}.\n"
            f"p(X0,Z) :- {body}, e(Z), e(W), Z < W, c, q(Y) : e(Y).\n"
            f"r :- {body}, e(Z), e(W), Z < W, 1 {{ c : e(Y) }}.\n"
            f"s(X0,W) :- {body}, e(Z), e(W), Z < W.\n"
            f"t(W) :- s(X0,W), {body}, c.\n")
    assert ground_cli(capsys, tmp_path, text, "--text", "-d", "none") == (
        0, "{ c }.\n{ q(1), q(2) }.\np(1,1) :- c, q(1), q(2).\nr :- 1 { c }.\nt(2) :- c.\n", "")


# -- primitive records ----------------------------------------------------------

def test_ancestor_reaches_translation_as_primitive_records_only(monkeypatch):
    translate = pipeline.translate_program
    seen = Counter()

    def counted(rules, table):
        seen.update(type(r).__name__ for r in rules)
        return translate(rules, table)

    monkeypatch.setattr(pipeline, "translate_program", counted)
    for mode in ("keep", "none"):
        ground_files(["programs/ancestor.lp"], GroundOptions(domain_mode=mode))
    assert set(seen) == {"BasicRule"}


def test_literals_of_one_predicate_are_compared_per_instance():
    # Two plain literals of one predicate can be equal, so each instance
    # compares their names. Where they differ, as in every instance of
    # 8-queens' constraint, it is a BasicRule; where two are equal, it is
    # assembled as before: a repeated literal is kept once, and a literal
    # beside its negation drops the instance.
    g = ground_files(["programs/queens.lp"], GroundOptions(constants={"n": 8}, domain_mode="none"))
    assert Counter(type(r).__name__ for r in g.source.rules) == {"GRule": 16, "BasicRule": 560}
    assert all(type(r) is BasicRule for r in g.source.rules if r.head == 1)
    text = ("d(1..2). { q(X) : d(X) }.\n"
            "p(X,Y) :- q(X), q(Y), d(X), d(Y).\n"
            "r(X,Y) :- q(X), not q(Y), d(X), d(Y).\n")
    g = ground(text, domain_mode="none")
    assert [type(r).__name__ for r in g.source.rules] == [
        "GRule", "GRule", "BasicRule", "BasicRule", "GRule", "BasicRule", "BasicRule"]
    assert grounding.ground_text(g.source) == (
        "{ q(1), q(2) }.\n"
        "p(1,1) :- q(1).\np(1,2) :- q(1), q(2).\np(2,1) :- q(2), q(1).\np(2,2) :- q(2).\n"
        "r(1,2) :- q(1), not q(2).\nr(2,1) :- q(2), not q(1).\n")


def test_literals_of_one_predicate_take_one_test(monkeypatch):
    # An instance tests the names of each predicate's plain literals at
    # once, and ground literals with different names not at all; it takes
    # the same form as when every pair is compared.
    sources = []
    monkeypatch.setattr(linecache, "cache", _RecordedSources(sources))
    text = ("d(1..3). { q(X) : d(X) }.\n"
            "p(X,Y) :- q(X), q(Y), q(3), d(X), d(Y), X < Y.\n"
            "s :- q(1), q(2), not q(3).\n"
            "t :- q(1), q(1).\n")
    g = ground(text, domain_mode="none")
    assert [type(r).__name__ for r in g.source.rules] == [
        "GRule", "BasicRule", "GRule", "GRule", "BasicRule", "GRule"]
    assert grounding.ground_text(g.source) == (
        "{ q(1), q(2), q(3) }.\n"
        "p(1,2) :- q(1), q(2), q(3).\np(1,3) :- q(1), q(3).\np(2,3) :- q(2), q(3).\n"
        "s :- q(1), q(2), not q(3).\nt :- q(1).\n")
    p, s = sources[-3:-1]
    assert p.count("len({") == 1 and "==" not in p
    assert "len({" not in s and "==" not in s
    # 400 literals: comparing every pair took 3,311 bytes of source per literal
    n = 400
    lits = ", ".join(f"not a({i})" for i in range(1, n + 1))
    ground(f"d(1..{n}). {{ a(X) : d(X) }}.\np :- {lits}.\n", domain_mode="none")
    assert len(sources[-1]) < 300 * n
    lits = ", ".join(f"not a(X+{i})" for i in range(n))
    ground(f"d(1..3). {{ a(X) : d(X) }}.\np(X) :- d(X), {lits}.\n", domain_mode="none")
    assert len(sources[-1]) < 600 * n


def test_text_keeps_the_source_order_of_a_body(capsys, tmp_path):
    text = "{ q }.\n{ r }.\np :- not q, r.\n"
    for mode in ("keep", "none"):
        assert ground_cli(capsys, tmp_path, text, "--text", "-d", mode) == (0, text, "")
    # the library prints the grounding that ground --text prints
    assert grounding.ground_text(ground(text).source).endswith("p :- not q, r.\n")
