import random
from collections import Counter

import pytest

import gen
from aspkit import grounding
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
    return eval_term(p.rules[0].head.args[0], {}, Loc("<t>", 1, 1))


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


# -- compute statements -------------------------------------------------------

def test_compute_literals_become_constraints():
    gp = ground("a :- not b. b :- not a. compute { a }.")
    by_name = {v: k for k, v in gp.interchange.symbols.items()}
    assert by_name["a"] in gp.interchange.compute_true
    gp2 = ground("a :- not b. b :- not a. compute { not a }.")
    by_name = {v: k for k, v in gp2.interchange.symbols.items()}
    assert by_name["a"] in gp2.interchange.compute_false


# -- comparison-driven joins --------------------------------------------------

def ground_cli(capsys, tmp_path, text, *args):
    path = tmp_path / "p.lp"
    path.write_text(text, encoding="utf-8")
    code = main(["ground", *args, str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_driven_joins_match_filtered_joins(capsys, tmp_path, monkeypatch):
    driven = Counter()
    real = grounding._Step._driven

    def counting(self, binding, key):
        rows = real(self, binding, key)
        if rows is not None:
            driven["range" if self.ranges else "lookup"] += 1
        return rows
    monkeypatch.setattr(grounding._Step, "_driven", counting)
    grounded = 0
    for seed in range(300):
        text, filtered = gen.comparison_program(random.Random(seed))
        mode = ("-d", "none") if seed % 2 else ()
        want = ground_cli(capsys, tmp_path, filtered, *mode)
        got = ground_cli(capsys, tmp_path, text, *mode)
        assert got == want, f"seed {seed}:\n{text}"
        grounded += want[0] == 0
    assert grounded >= 250
    assert driven["range"] > 100 and driven["lookup"] > 100


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
def test_comparison_checks_stay_proportional_to_rows(monkeypatch, text, preds):
    # A join that filters a cross product makes n * n checks. Here every
    # comparison drives its join, so none is run as a check at all: a
    # driving comparison holds on every row it selected.
    calls = count_comparison_checks(monkeypatch)
    exts = domain_extensions(text)
    rows = sum(len(exts[(p, 2)]) for p in preds)
    assert rows >= 1999
    assert calls["checks"] == 0


def test_comparison_that_falls_back_checks_every_row(monkeypatch):
    # Column Y of d holds the symbol b, so `Y > X` cannot select by bisection:
    # the step scans the rows of d(X, _) and checks each of its 3 * 3.
    calls = count_comparison_checks(monkeypatch)
    exts = domain_extensions(
        "e(1..3). d(X,Y) :- e(X), e(Y). d(a,b). p(X,Y) :- e(X), d(X,Y), Y > X.\n")
    assert sorted(exts[("p", 2)]) == [(1, 2), (1, 3), (2, 3)]
    assert calls["checks"] == 9


def count_comparison_checks(monkeypatch):
    calls = Counter()
    real = grounding._comparison_check

    def counted(comp):
        check = real(comp)

        def wrapper(binding):
            calls["checks"] += 1
            return check(binding)
        return wrapper
    monkeypatch.setattr(grounding, "_comparison_check", counted)
    return calls


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
