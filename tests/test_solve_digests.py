"""Search gate: the models `Solver(gp).models()` yields, in their order, and
the six SolveStats counters after the enumeration must match the sha256
digests in solve_digests.json.

The inputs are every program under programs/ (queens at n=6 and n=8,
ncolor with graph) and the texts of test_seeded_ground (160 generator
texts and the deep join), each grounded in keep and none mode. Enumeration stops after 200 models. A
change to solver setup must leave both digests of every input alone; a
change to the search that moves the order or a counter on purpose
rewrites the file with `PYTHONPATH=src python tests/test_solve_digests.py
--write` and says in the change why they moved.
"""

import hashlib
import itertools
import json
import pathlib
import sys

from aspkit.pipeline import GroundOptions, ground_files, ground_text_input
from aspkit.solver import SolveStats, Solver
from test_ground_bytes import ROOT
from test_seeded_ground import seeded_texts

DIGESTS = pathlib.Path(__file__).resolve().parent / "solve_digests.json"
MODEL_CAP = 200

# name -> (files under programs/, constants)
PROGRAMS = {
    "ancestor": (["ancestor.lp"], {}),
    "graph": (["graph.lp"], {}),
    "knapsack": (["knapsack.lp"], {}),
    "ncolor": (["ncolor.lp", "graph.lp"], {}),
    "queens-6": (["queens.lp"], {"n": 6}),
    "queens-8": (["queens.lp"], {"n": 8}),
}


def ground_inputs():
    """name -> ground program, per input and domain mode."""
    texts = seeded_texts()
    for mode in ("keep", "none"):
        for name, (files, constants) in PROGRAMS.items():
            opts = GroundOptions(constants=constants, domain_mode=mode)
            yield f"{name} {mode}", ground_files([str(ROOT / "programs" / f) for f in files],
                                                 opts).interchange
        for name, text in texts.items():
            opts = GroundOptions(domain_mode=mode)
            yield f"{name} {mode}", ground_text_input(text, opts).interchange


def solve_digests():
    """name -> [digest of the model list, digest of the counters]."""
    out = {}
    for name, gp in ground_inputs():
        s = Solver(gp)
        models = [list(m) for m in itertools.islice(s.models(), MODEL_CAP)]
        counters = [getattr(s.stats, field) for field in SolveStats.__slots__]
        out[name] = [hashlib.sha256(json.dumps(part).encode()).hexdigest()
                     for part in (models, counters)]
    return out


def test_search_matches_the_committed_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = solve_digests()
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_solve_digests.py --write")
    DIGESTS.write_text(json.dumps(solve_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
