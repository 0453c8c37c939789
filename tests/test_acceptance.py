"""End-to-end acceptance checks.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to get one
[PASS]/[FAIL] line per criterion. Each check states its time budget and
fails loudly when the budget or the expected result is missed.
"""

import pathlib
import random
import time

from aspkit.ground_format import emit_ground_program, parse_ground_program
from aspkit.oracle import brute_force_models, is_stable, naive_least_model, source_models
from aspkit.parser import parse_files, parse_text, substitute_constants
from aspkit.pipeline import (
    GroundOptions,
    SolveOptions,
    ground_files,
    ground_text_input,
    solve_ground,
)
from aspkit.solver import Solver, UNKNOWN, TRUE, FALSE
from aspkit.wellfounded import well_founded

import gen
from solver_checks import ShuffledSolver, state_fingerprint

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"


def report(num, text, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    line = f"[{status}] criterion {num}: {text}{suffix}"
    print(line)
    assert ok, line


def model_names(gp, model):
    return [gp.symbols[a] for a in model if a in gp.symbols]


def test_c1_coloring_two_models():
    t0 = time.perf_counter()
    g = ground_files([str(PROGRAMS / "ncolor.lp"), str(PROGRAMS / "graph.lp")],
                     GroundOptions(domain_mode="none"))
    got = [set(visible) for _, visible in
           solve_ground(g.interchange, SolveOptions(model_count=0))]
    elapsed = time.perf_counter() - t0
    want = [{"col(a,red)", "col(b,green)", "col(c,blue)"},
            {"col(a,red)", "col(b,blue)", "col(c,green)"}]
    ok = (sorted(map(sorted, got)) == sorted(map(sorted, want))
          and len(got) == 2 and elapsed < 1.0)
    report(1, "triangle coloring has exactly the two expected models, under 1s",
           ok, elapsed)


def test_c2_queens_8_matches_permutation_count():
    t0 = time.perf_counter()
    g = ground_files([str(PROGRAMS / "queens.lp")],
                     GroundOptions(constants={"n": 8}, domain_mode="none"))
    lines = []
    boards = set()
    for _, visible in solve_ground(g.interchange, SolveOptions(model_count=0)):
        lines.append(" ".join(["Stable Model:"] + visible))
        board = frozenset(
            tuple(int(v) for v in name[2:-1].split(",")) for name in visible)
        boards.add(board)
    elapsed = time.perf_counter() - t0

    independent = gen.queens_solutions(8)
    paper_line = ("Stable Model: q(4,1) q(2,2) q(7,3) q(5,4) "
                  "q(1,5) q(8,6) q(6,7) q(3,8)")
    ok = (len(lines) == 92 and boards == independent
          and paper_line in lines and elapsed < 10.0)
    report(2, "8-queens yields exactly the 92 permutation solutions, under 10s",
           ok, elapsed)


def test_c3_ancestor_grounds_to_three_facts():
    t0 = time.perf_counter()
    with open(PROGRAMS / "ancestor.lp", encoding="utf-8") as fh:
        text = fh.read()

    from aspkit.analysis import classify_domain_predicates
    from aspkit.grounding import desugar_program
    program, _ = desugar_program(substitute_constants(parse_text(text, "ancestor.lp")))
    an = classify_domain_predicates(program)
    only_ancestor = sorted(an.defined - an.domain) == [("ancestor", 2)]

    g = ground_text_input(text, GroundOptions(domain_mode="none"))
    models = list(solve_ground(g.interchange, SolveOptions(model_count=0)))
    anc = sorted(n for _, visible in models for n in visible
                 if n.startswith("ancestor("))
    want = ["ancestor(jack,jill)", "ancestor(joan,jack)", "ancestor(joan,jill)"]

    # the program is definite, so the naive instantiation oracle must agree
    naive = naive_least_model(parse_text(text, "ancestor.lp"))
    naive_anc = sorted(n for n in naive if n.startswith("ancestor("))
    elapsed = time.perf_counter() - t0

    ok = (only_ancestor and len(models) == 1 and anc == want
          and naive_anc == want and elapsed < 1.0)
    report(3, "ancestor: one non-domain predicate, three derived facts, under 1s",
           ok, elapsed)


def test_c4_solver_matches_brute_force_on_1000_programs():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        gp = gen.random_normal_ground(rng, max_atoms=10, max_rules=15)
        got = sorted(frozenset(m) for m in Solver(gp).models())
        want = sorted(brute_force_models(gp.rules))
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    report(4, "1000 random normal programs agree with brute force, under 2min",
           ok, elapsed)


def test_c5_translated_aggregates_match_source_oracle_on_500_programs():
    t0 = time.perf_counter()
    mismatches = 0
    unverified = 0
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        grules, table = gen.random_extended_source(rng, max_atoms=8)
        gp = gen.to_interchange(grules, table)
        named = set(gp.symbols)
        got = set()
        for m in Solver(gp).models():
            if not is_stable(gp.rules, m):
                unverified += 1
            got.add(frozenset(set(m) & named))
        want = set(frozenset(m) for m in source_models(grules))
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and unverified == 0 and elapsed < 120.0
    report(5, "500 random aggregate programs: translation agrees with the "
              "source-level oracle, under 2min", ok, elapsed)


def test_c6_well_founded_model_bounds_stable_models():
    t0 = time.perf_counter()
    rng = random.Random(77)
    violations = 0
    for _ in range(200):
        gp = gen.random_normal_ground(rng, max_atoms=10, max_rules=15)
        true, false, _ = well_founded(gp.rules, extra_atoms=sorted(gp.symbols))
        for m in brute_force_models(gp.rules):
            if not true <= set(m) or (false & set(m)):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    report(6, "200 random programs: well-founded truths hold in every stable "
              "model, falsities in none", ok, elapsed)


def test_c7_large_instance_grounds_and_solves_under_a_minute():
    t0 = time.perf_counter()
    g = ground_text_input(gen.scale_instance())
    n_rules = len(g.interchange.rules)
    first = next(iter(solve_ground(g.interchange, SolveOptions(model_count=1))), None)
    elapsed = time.perf_counter() - t0
    ok = n_rules >= 100_000 and first is not None and elapsed < 60.0
    report(7, f"large instance ({n_rules} primitive rules) grounds and solves, "
              "under 60s", ok, elapsed)


def test_c8_format_round_trip_is_byte_identical():
    t0 = time.perf_counter()
    corpus = []
    for name, consts in [("ancestor.lp", None), ("knapsack.lp", None),
                         ("queens.lp", {"n": 6})]:
        g = ground_files([str(PROGRAMS / name)], GroundOptions(constants=consts or {}))
        corpus.append(emit_ground_program(g.interchange))
    g = ground_files([str(PROGRAMS / "ncolor.lp"), str(PROGRAMS / "graph.lp")])
    corpus.append(emit_ground_program(g.interchange))
    # handcrafted text covering every rule type and both compute sections
    corpus.append("""1 2 2 1 4 3
3 2 2 3 1 0 4
2 5 3 1 2 4 2 3
5 6 7 2 1 4 3 3 5
0
2 a
3 b
4 c
0
B+
2
0
B-
1
3
0
4
""")
    bad = 0
    for text in corpus:
        again = emit_ground_program(parse_ground_program(text))
        if again != text or emit_ground_program(parse_ground_program(again)) != again:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0
    report(8, f"emit/parse/emit is byte-identical across {len(corpus)} ground "
              "programs", ok, elapsed)


def test_c9_expand_idempotent_and_search_state_restores():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    failures = 0
    for _ in range(150):
        gp = gen.random_normal_ground(rng, max_atoms=10, max_rules=15)

        s = Solver(gp)
        if s.expand() is None:
            snap = state_fingerprint(s)
            if s.expand() is not None or state_fingerprint(s) != snap:
                failures += 1
            unknown = [a for a in sorted(gp.symbols) if s.values[a] == UNKNOWN]
            for atom in unknown[:3]:
                s._probe(atom, TRUE)
                s._probe(atom, FALSE)
            if state_fingerprint(s) != snap:
                failures += 1

        # perturbing the lookahead candidate order must not change the models
        base = sorted(Solver(gp).models())
        for seed in (1, 7):
            shaken = sorted(ShuffledSolver(gp, seed).models())
            if shaken != base:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    report(9, "expand is idempotent and search state survives probes and "
              "reordered lookahead", ok, elapsed)
