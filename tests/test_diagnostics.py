"""Diagnostics gate: what `ground -W --text` prints and the code it exits
with, in keep and none mode, must match the sha256 digests in
diagnostic_digests.json.

The corpus is every program under programs/ and seeded generator texts
with their mutants, so it reaches the lexer's, parser's, domain
restriction's, grounder's and lint's messages and exit codes 0, 2, 3
and 4. The messages the corpus never prints are pinned verbatim below.
To rewrite the file after a deliberate change of diagnostics, run
`PYTHONPATH=src python tests/test_diagnostics.py --write` and say in the
change why they moved.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import gen
from aspkit.cli import main
from test_cli import SUBPROCESS_ENV
from test_ground_bytes import ROOT

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "diagnostic_digests.json"

GENERATORS = (
    ("aggregate", gen.aggregate_source),
    ("comparison", lambda rng: gen.comparison_program(rng)[0]),
    ("conditional", gen.conditional_program),
    ("arithmetic", gen.arithmetic_program),
)


def corpus(count=80, mutants=3):
    """name -> (files, extra options); a file is a (name, text) pair.
    Each program under programs/ alone, the two that need a partner or a
    constant also with it, then `count` texts of each generator and
    `mutants` mutants of each text, all from one seeded generator."""
    programs = {p.name: p.read_text(encoding="utf-8")
                for p in sorted((ROOT / "programs").glob("*.lp"))}
    out = {name: ([(name, text)], []) for name, text in programs.items()}
    out["ncolor.lp graph.lp"] = ([(n, programs[n]) for n in ("ncolor.lp", "graph.lp")], [])
    out["queens.lp n=6"] = ([("queens.lp", programs["queens.lp"])], ["-c", "n=6"])
    rng = random.Random(5)
    texts = {f"{family}-{i}": make(rng)
             for family, make in GENERATORS for i in range(count)}
    for name, text in texts.items():
        out[name] = ([(f"{name}.lp", text)], [])
    for name, text in texts.items():
        for j in range(mutants):
            out[f"{name}~{j}"] = ([(f"{name}~{j}.lp", gen.mutate_source(rng, text))], [])
    return out


def outcomes(items, work_dir):
    """name -> [mode, exit code, stdout, stderr] for keep and none mode,
    each file written to `work_dir` and named relative to it."""
    out = {}
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        for name, (files, extra) in items.items():
            for file_name, text in files:
                pathlib.Path(file_name).write_text(text, encoding="utf-8")
            out[name] = []
            for mode in ("keep", "none"):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(["ground", "-W", "--text", "-d", mode, *extra,
                                 *[f for f, _ in files]])
                out[name].append([mode, code, stdout.getvalue(), stderr.getvalue()])
    finally:
        os.chdir(cwd)
    return out


def digests(results):
    return {name: hashlib.sha256(json.dumps(result).encode()).hexdigest()
            for name, result in results.items()}


def test_diagnostics_match_the_committed_digests(tmp_path):
    results = outcomes(corpus(), tmp_path)
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests(results)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
    # what the corpus reaches
    assert {code for result in results.values() for _, code, _, _ in result} == {0, 2, 3, 4}
    stderr = "".join(err for result in results.values() for _, _, _, err in result)
    for kind in ("is used but never defined", "occurs only once; possible typo",
                 "occurs only once in this rule", "is not bound by a positive domain literal",
                 "is local to a condition but also used elsewhere",
                 "condition uses non-domain predicate"):
        assert kind in stderr


# -- messages the corpus does not reach, verbatim ------------------------------

PINNED = {
    "unbound-local.lp": ("d(1..3).\n{ q(X) : d(X+1) }.\n", 3,
                         "unbound-local.lp:2:3: error: variable 'X' in a conditional element"
                         " is not bound by its conditions\n"),
    "compute.lp": ("d(1..2).\ncompute { p(X) }.\np(X) :- d(X).\n", 3,
                   "compute.lp:2:11: error: compute statement literals must be ground\n"),
    "empty.lp": ("d(1..0).\np(X) :- d(X).\n", 0,
                 "empty.lp:1:1: warning: empty range (1..0)\n"),
    # lint reads the rule before its range is copied out
    "copies.lp": ("d(1..2).\nq(1..3) :- d(Y).\n", 0,
                  "copies.lp:2:12: warning: variable 'Y' occurs only once in this rule\n"),
    # warnings and lint notes come before the error that stops grounding
    "lost.lp": ("d(1..0).\np(X) :- not q(X), r(a).\n", 3,
                "lost.lp:1:1: warning: empty range (1..0)\n"
                "lost.lp:2:13: warning: predicate 'q/1' is used but never defined\n"
                "lost.lp:2:19: warning: predicate 'r/1' is used but never defined\n"
                "lost.lp:2:19: warning: symbolic constant 'a' occurs only once; possible typo\n"
                "lost.lp:2:1: error: variable 'X' is not bound by a positive domain literal\n"),
    "bound.lp": ("d(1..0).\ne(1..X) :- d(X), f(a).\n", 3,
                 "bound.lp:1:1: warning: empty range (1..0)\n"
                 "bound.lp:2:18: warning: predicate 'f/1' is used but never defined\n"
                 "bound.lp:2:18: warning: symbolic constant 'a' occurs only once; possible typo\n"
                 "bound.lp:2:1: range bounds must not contain variables\n"),
    "lint.lp": ("p(X) :- d(X), ghost(Y), q(a).\nr(Z) :- d(b), other(Z), e(W).\nd(1).\n", 0,
                "lint.lp:1:15: warning: predicate 'ghost/1' is used but never defined\n"
                "lint.lp:1:25: warning: predicate 'q/1' is used but never defined\n"
                "lint.lp:2:15: warning: predicate 'other/1' is used but never defined\n"
                "lint.lp:2:25: warning: predicate 'e/1' is used but never defined\n"
                "lint.lp:1:25: warning: symbolic constant 'a' occurs only once; possible typo\n"
                "lint.lp:2:9: warning: symbolic constant 'b' occurs only once; possible typo\n"
                "lint.lp:1:15: warning: variable 'Y' occurs only once in this rule\n"
                "lint.lp:2:25: warning: variable 'W' occurs only once in this rule\n"),
    "global-local.lp": ("1 { q(X,Y) : e(X,Y) } 1 :- d(X).\nd(1). e(1,2).\n", 3,
                        "global-local.lp:1:5: error: variable 'X' is local to a condition"
                        " but also used elsewhere\n"),
}


def test_pinned_diagnostics(tmp_path):
    results = outcomes({name: ([(name, text)], []) for name, (text, _, _) in PINNED.items()},
                       tmp_path)
    for name, (_, code, stderr) in PINNED.items():
        for _, got_code, _, got_stderr in results[name]:
            assert (name, got_code, got_stderr) == (name, code, stderr)


# Rules with many variables, constants and predicates each, so that an
# order taken from a set of names would show.
SPREAD = {
    "spread-errors.lp": "p(X,Y,Z,W) :- q(A,B,C), r(a,b,c,d).\n"
                        "1 { s(K,L,M) : t(K,L,M,N,O) } :- q(K,L,M), not u(P,Q,R).\n"
                        "v(A) :- w(A,B,C,D,E), 1 [ x(F,G) : y(F,G,H) = F ] 2.\n"
                        "q(1,2,3). w(1,2,3,4,5).\n{ y(I,J,K) : q(I,J,K) }.\n",
    "spread-lint.lp": "p(X) :- d(X), e(X,Y,Z,W), f(a,b,c,k), g(Q,R,S).\n"
                      "q(1..5). r(X,Y) :- q(X), q(Y), X < Y.\n"
                      "{ s(X) : q(X) }. t :- 2 { s(X) : q(X) }, not u(m,n).\n",
}


def hash_seed_corpus():
    texts = {**SPREAD, **{name: text for name, (text, _, _) in PINNED.items()}}
    return {**corpus(count=10, mutants=1), **{n: ([(n, t)], []) for n, t in texts.items()}}


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # Sets and dicts of strings iterate in an order that PYTHONHASHSEED
    # decides; no diagnostic or ground rule may follow it.
    script = ("import json, sys\n"
              f"sys.path.insert(0, {str(HERE)!r})\n"
              "import test_diagnostics as t\n"
              "print(json.dumps(t.outcomes(t.hash_seed_corpus(), '.')))\n")
    runs = []
    for seed in ("1", "2"):
        work_dir = tmp_path / seed
        work_dir.mkdir()
        proc = subprocess.run([sys.executable, "-c", script], cwd=work_dir,
                              capture_output=True, text=True,
                              env={**SUBPROCESS_ENV, "PYTHONHASHSEED": seed})
        assert (proc.returncode, proc.stderr) == (0, "")
        runs.append(proc.stdout)
    assert len(runs[0]) > 50_000
    assert runs[0] == runs[1]


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_diagnostics.py --write")
    with tempfile.TemporaryDirectory() as d:
        DIGESTS.write_text(json.dumps(digests(outcomes(corpus(), d)), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
