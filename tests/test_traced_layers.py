"""perfbench's tracer still sees every layer of the pipeline.

perfbench/layers.py wraps aspkit functions where their callers look them
up, by module attribute. `aspkit.pipeline` binds the front end's names on
first use; a name bound past the tracer's wrapper there would not fail the
harness's selftest, which checks only that every target exists and that
the layers add up, but would silently charge its layer to cli.self.s. So
this runs the command line under the tracer in a fresh process, as the
benchmark's worker does, and requires a span for every layer each command
passes through.
"""

import json
import pathlib
import subprocess
import sys

from test_cli import SUBPROCESS_ENV

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

PROGRAM = "d(1..3). p(X) :- d(X), not q(X). q(X) :- d(X), not p(X). r :- p(1).\n"

SCRIPT = """\
import contextlib, io, json, sys
sys.path.insert(0, {perfbench!r})
from layers import Tracer
from aspkit import cli
tracer = Tracer()
tracer.install()
layers = []
for argv in {runs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if argv[0] == "ground":
        with open({ground!r}, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    layers.append([code, sorted({{span[0] for span in tracer.spans}})])
    tracer.take(0.0)
print(json.dumps({{"absent": tracer.absent, "layers": layers}}))
"""


def test_traced_commands_record_every_layer(tmp_path):
    src = tmp_path / "p.lp"
    src.write_text(PROGRAM, encoding="utf-8")
    ground = str(tmp_path / "p.sm")
    runs = [["run", "-d", "none", str(src)], ["ground", str(src)], ["solve", "--wfs", ground]]
    script = SCRIPT.format(perfbench=str(PERFBENCH), runs=runs, ground=ground)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, encoding="utf-8",
                          env=SUBPROCESS_ENV)
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)
    assert result["absent"] == []
    front = {"parser", "analysis", "grounding.desugar", "grounding.domain_eval",
             "grounding.instantiate", "primitives.translate"}
    (run_code, run_layers), (ground_code, ground_layers), (wfs_code, wfs_layers) = result["layers"]
    assert (run_code, ground_code, wfs_code) == (0, 0, 0)
    assert set(run_layers) >= front | {"solver.setup", "solver.search"}
    assert set(ground_layers) >= front | {"ground_format.emit"}
    assert set(wfs_layers) == {"ground_format.read", "solver.wfs"}
