"""Search gate: the models `Solver(gp).models()` yields, in their order, and
the SolveStats counters after the enumeration must match the sha256 digests
in solve_digests.json. Each input has three: the model list, the five
counters of the choices (`decisions`, `conflicts`, `propagations`, `probes`,
`failed_literals`) and `unfounded_runs`.

The inputs are every program under programs/ (queens at n=6 and n=8,
ncolor with graph) and the texts of test_seeded_ground (160 generator
texts and the deep join), each grounded in keep and none mode. Enumeration
stops after 200 models. A change to solver setup must leave every digest
alone. A change to the unfounded-set check may save runs, so it may move
the third digest only: the trail, and with it the models and the choice
counters, must not move. A change that saves lookahead probes without
changing a choice lowers `probes` and `propagations`, and may lower
`unfounded_runs`, so it moves the second digest and may move the third.
A failure names, per input, the digests that moved. A change to the
search that moves a digest on purpose rewrites the file with
`PYTHONPATH=src python tests/test_solve_digests.py --write` and says in
the change why they moved.
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


CHOICE_COUNTERS = ("decisions", "conflicts", "propagations", "probes", "failed_literals")
DIGEST_NAMES = ("model list", "choice counters", "unfounded_runs")


def solve_digests():
    """name -> [digest of the model list, of the choice counters, of
    unfounded_runs]."""
    out = {}
    for name, gp in ground_inputs():
        s = Solver(gp)
        models = [list(m) for m in itertools.islice(s.models(), MODEL_CAP)]
        counters = [getattr(s.stats, field) for field in CHOICE_COUNTERS]
        out[name] = [hashlib.sha256(json.dumps(part).encode()).hexdigest()
                     for part in (models, counters, [s.stats.unfounded_runs])]
    return out


def test_search_matches_the_committed_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = solve_digests()
    assert sorted(got) == sorted(want)
    assert SolveStats.__slots__ == CHOICE_COUNTERS + ("unfounded_runs",)
    moved = {name: [part for part, old, new in zip(DIGEST_NAMES, want[name], got[name])
                    if old != new]
             for name in want if got[name] != want[name]}
    assert moved == {}, "digests moved, per input: " + "; ".join(
        f"{name}: {', '.join(parts)}" for name, parts in sorted(moved.items()))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_solve_digests.py --write")
    DIGESTS.write_text(json.dumps(solve_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
