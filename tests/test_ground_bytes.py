"""Byte-identity gate: `ground` and `ground --text` output, in keep and
none mode, must match the sha256 digests in ground_digests.json.

Changes to the grounder, the translator or the writer must not change a
byte of their output. To rewrite the file after a deliberate change of
output, run `PYTHONPATH=src python tests/test_ground_bytes.py --write`
and say in the change why the bytes moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import re
import sys

import gen
from aspkit.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = pathlib.Path(__file__).resolve().parent / "ground_digests.json"


def conditional_instance(n=20):
    """`n` seeded gen.conditional_program texts in one program, the
    predicates of each renamed apart."""
    return "".join(re.sub(r"\b([a-z]\w*)\(", rf"\1_{i}(",
                          gen.conditional_program(random.Random(i)))
                   for i in range(n))


# Generated inputs: name -> source text
GENERATED = {
    "scale-300": lambda: gen.scale_instance(n=300),
    "conditional": conditional_instance,
}

# name -> (source files, extra options); None stands for a generated input
INPUTS = {
    "ancestor": (["programs/ancestor.lp"], []),
    "graph": (["programs/graph.lp"], []),
    "knapsack": (["programs/knapsack.lp"], []),
    "ncolor": (["programs/ncolor.lp", "programs/graph.lp"], []),
    "queens-6": (["programs/queens.lp"], ["-c", "n=6"]),
    "scale-300": (None, []),
    "conditional": (None, []),
}


def ground_digests(tmp_dir):
    out = {}
    for name, (files, extra) in INPUTS.items():
        if files is None:
            path = pathlib.Path(tmp_dir) / f"{name}.lp"
            path.write_text(GENERATED[name](), encoding="utf-8")
            paths = [str(path)]
        else:
            paths = [str(ROOT / f) for f in files]
        for mode in ("keep", "none"):
            for text in ((), ("--text",)):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(["ground", *extra, "-d", mode, *text, *paths])
                assert code == 0, (name, mode, text)
                key = " ".join([name, mode, *text])
                out[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def test_ground_output_bytes_match_the_committed_digests(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert ground_digests(tmp_path) == want


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_ground_bytes.py --write")
    with tempfile.TemporaryDirectory() as d:
        DIGESTS.write_text(json.dumps(ground_digests(d), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
