"""Seeded-text gate: what `ground` prints to stdout and stderr, and the code
it exits with, in keep and none mode, must match the sha256 digests in
seeded_ground_digests.json.

The corpus is 160 generator texts of one seeded generator, which reach
comparisons, conditional literals, aggregates and arithmetic, and a join
deep enough to be split over two functions. Every one of them grounds in
both modes; a change that made one fail would show here as well. To
rewrite the file after a deliberate change of output, run
`PYTHONPATH=src python tests/test_seeded_ground.py --write` and say in the
change why the bytes moved.
"""

import json
import pathlib
import random
import sys

import gen
from aspkit.grounding import ground_text
from aspkit.pipeline import GroundOptions, ground_text_input
from test_diagnostics import digests, outcomes
from test_ground_bytes import GENERATED, INPUTS, ROOT

DIGESTS = pathlib.Path(__file__).resolve().parent / "seeded_ground_digests.json"

_DEEP = ", ".join(f"d(X{i})" for i in range(22))

# Plain bodies with a negative literal first or in between, under atom,
# choice and constraint heads.
MIXED_ORDER = ("d(1..3). { q(X) : d(X) }. { r(X) } :- d(X).\n"
               "p(X) :- not q(X), r(X), d(X).\n"
               "1 { t(X) : d(X) } 2 :- not r(1), q(2).\n"
               "{ u(X) } :- d(X), not q(X).\n"
               ":- not u(1), r(1), q(1).\n"
               "v(X) :- r(X), not q(X), not u(X), d(X).\n")


def seeded_texts():
    """name -> source text: the deep join, then 40 texts of each generator."""
    rng = random.Random(23)
    texts = {"deep-join": f"d(1). e(1..2). {{ c }}. s(1,2). t(W) :- s(X0,W), {_DEEP}, c, "
                          "not f(W).\nf(1..2) :- not g. g :- not f(1). compute { not g }."}
    for i in range(40):
        texts[f"comparison-{i}"] = gen.comparison_program(rng)[0]
        texts[f"conditional-{i}"] = gen.conditional_program(rng)
        texts[f"aggregate-{i}"] = gen.aggregate_source(rng)
        texts[f"arithmetic-{i}"] = gen.arithmetic_program(rng)
    return texts


def seeded_outcomes(work_dir):
    return outcomes({name: ([(f"{name}.lp", text)], []) for name, text in seeded_texts().items()},
                    work_dir, options=())


def test_seeded_ground_output_matches_the_committed_digests(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests(seeded_outcomes(tmp_path))
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


def test_library_ground_text_equals_the_text_command(tmp_path):
    # One grounding behind both outputs: the library's ground_text of
    # Grounded.source is what `ground --text` prints.
    inputs = {name: (GENERATED[name]() if files is None else
                     "".join((ROOT / f).read_text(encoding="utf-8") for f in files), extra)
              for name, (files, extra) in INPUTS.items()}
    inputs.update((name, (text, [])) for name, text in seeded_texts().items())
    inputs["mixed-order"] = (MIXED_ORDER, [])
    printed = outcomes({name: ([(f"{name}.lp", text)], extra)
                        for name, (text, extra) in inputs.items()}, tmp_path, options=("--text",))
    for name, (text, extra) in inputs.items():
        constants = {k: int(v) for k, v in (c.split("=") for c in extra[1::2])}
        for mode, code, stdout, _ in printed[name]:
            grounded = ground_text_input(text, GroundOptions(constants, mode))
            assert (code, ground_text(grounded.source)) == (0, stdout), (name, mode)


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_seeded_ground.py --write")
    with tempfile.TemporaryDirectory() as d:
        DIGESTS.write_text(json.dumps(digests(seeded_outcomes(d)), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
