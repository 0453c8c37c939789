"""One measurement pass over a workload, in a process of its own.

    python3 perfbench/worker.py MANIFEST SECONDS MODE SPANS_OUT

Runs the manifest's inputs through `aspkit.cli.main(argv)` in a closed loop,
one invocation after the other, until SECONDS have passed, with stdout and
stderr captured. Every invocation is checked against its problem (checks.py)
after its clock stops. MODE is `time`, `trace` or `memory`. With `trace` the
pipeline is wrapped by layers.Tracer, input 0 runs twice first so its
counters can be compared, and the spans are written to SPANS_OUT as JSON
lines. `memory` runs one invocation without calibration. Prints one JSON
object: the samples, the process's peak resident memory and the trace
targets that were absent.

Host speed drifts by tens of percent over seconds on shared machines, so a
calibration runs between invocations; `scale` turns a sample's time into
time on a reference host where `Calibrator.measure()` takes
REF_CALIBRATION_S (using the geometric mean of the calibrations before and
after the sample). Peak memory comes from a separate pass of one invocation
without calibration, so the calibration's data does not count.
"""

import difflib
import io
import itertools
import json
import math
import os
import pprint
import random
import resource
import sys
import time
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REF_CALIBRATION_S = 0.007


class _Node:
    __slots__ = ("succ", "mark")


def _mix(x, i):
    return (x * 31 + i) & 0xFFFF


class Calibrator:
    """Times a fixed basket of interpreter work that is independent of aspkit.

    How much a busy host slows a Python program depends on the kind of work,
    so the basket mixes kinds, a few milliseconds each: arithmetic with
    small dict and list updates, a walk over a graph of 20,000 objects
    (memory bound), parsing TOML (a recursive-descent parser), sequence
    matching with difflib (dicts of lists) and pretty-printing nested data
    (many small calls). `measure()` returns the geometric mean of the five
    times.
    """

    def __init__(self):
        rng = random.Random(0)
        self.nodes = [_Node() for _ in range(20000)]
        for node in self.nodes:
            node.succ = [self.nodes[rng.randrange(20000)] for _ in range(3)]
            node.mark = 0
        self.round = 0
        self.toml = "\n".join(
            f'[section{i}]\nname = "item {i}"\nflag = {str(i % 2 == 0).lower()}\n'
            f'values = [{", ".join(str(rng.randrange(1000)) for _ in range(8))}]\n'
            for i in range(100))
        self.words = [f"w{rng.randrange(300)}" for _ in range(1200)]
        self.edited = list(self.words)
        for _ in range(160):
            self.edited[rng.randrange(1200)] = f"w{rng.randrange(300)}"
        self.nested = [{"k": i, "v": [(j, str(j), {"z": j / 2}) for j in range(8)]}
                       for i in range(30)]

    def _arithmetic(self):
        table = {}
        cells = [0] * 512
        for i in range(12000):
            key = (i & 255, i & 7)
            table[key] = table.get(key, 0) + 1
            cells[i & 511] = _mix(cells[(i * 7) & 511], i)

    def _walk(self):
        self.round += 1
        mark = self.round
        stack = [self.nodes[self.round % len(self.nodes)]]
        seen = 0
        while stack and seen < 10000:
            node = stack.pop()
            if node.mark != mark:
                node.mark = mark
                seen += 1
                stack.extend(node.succ)

    def _toml(self):
        tomllib.loads(self.toml)

    def _difflib(self):
        difflib.SequenceMatcher(None, self.words, self.edited,
                                autojunk=False).get_matching_blocks()

    def _pprint(self):
        pprint.pformat(self.nested, width=60)

    def measure(self):
        logs = 0.0
        kernels = (self._arithmetic, self._walk, self._toml, self._difflib,
                   self._pprint)
        for kernel in kernels:
            start = time.perf_counter()
            kernel()
            logs += math.log(time.perf_counter() - start)
        return math.exp(logs / len(kernels))


class _Stdout(io.TextIOBase):
    """Stdout stand-in that notes when `marker` is first written."""

    def __init__(self, marker, sink):
        self.marker = marker
        self.first = None
        self._sink = sink

    def write(self, s):
        if self.first is None and self.marker is not None and self.marker in s:
            self.first = time.perf_counter()
        self._sink(s)
        return len(s)


def invoke(main, stages):
    """Runs one input's CLI stages back to back.

    Returns (wall seconds, seconds to the first marked output or None,
    exit codes, captured stdouts, captured stderrs).
    """
    codes, outs, errs = [], [], []
    first = None
    saved = sys.stdout, sys.stderr
    start = time.perf_counter()
    for stage in stages:
        chunks = []
        fh = open(stage["stdout"], "w", encoding="utf-8") if stage["stdout"] else None
        out = _Stdout(stage["marker"], fh.write if fh else chunks.append)
        err = io.StringIO()
        sys.stdout, sys.stderr = out, err
        try:
            code = main(stage["argv"])
        except SystemExit as e:
            code = e.code
        finally:
            sys.stdout, sys.stderr = saved
            if fh:
                fh.close()
        if first is None and out.first is not None:
            first = out.first - start
        codes.append(code)
        outs.append("".join(chunks))
        errs.append(err.getvalue())
    return time.perf_counter() - start, first, codes, outs, errs


def run_pass(manifest, seconds, traced, spans_out=None, calibrated=True):
    """Invocations until `seconds` have passed (at least one; two when
    traced). Without calibration every `scale` is 1."""
    from aspkit import cli

    import checks
    from layers import Tracer

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    inputs = manifest["inputs"]
    order = itertools.chain([0] if traced else [],
                            itertools.cycle(range(len(inputs))))
    samples = []
    least = 2 if traced else 1
    calibrator = Calibrator() if calibrated else None
    before = calibrator.measure() if calibrator else None
    deadline = time.perf_counter() + seconds
    try:
        for i in order:
            if len(samples) >= least and time.perf_counter() >= deadline:
                break
            stages = inputs[i]["stages"]
            wall, first, codes, outs, errs = invoke(cli.main, stages)
            scale = 1.0
            if calibrator:
                after = calibrator.measure()
                scale = REF_CALIBRATION_S / math.sqrt(before * after)
                before = after
            sample = {"input": i, "wall": wall, "first": first, "scale": scale}
            if tracer:
                sample["layers"] = tracer.take(wall)
            if codes != [0] * len(stages):
                detail = "; ".join(e.strip().splitlines()[0] for e in errs if e.strip())
                sample["error"] = f"exit codes {codes}: {detail}"
            else:
                sample["error"] = checks.check(inputs[i]["check"], outs)
            samples.append(sample)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer and spans_out:
        with open(spans_out, "w", encoding="utf-8") as fh:
            for sample, spans in zip(samples, tracer.done):
                fh.write(json.dumps({"input": sample["input"], "spans": spans}) + "\n")
    return {
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "absent": tracer.absent if tracer else [],
    }


def main(argv):
    manifest_path, seconds, mode, spans_out = argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    result = run_pass(manifest, float(seconds), mode == "trace",
                      spans_out or None, calibrated=mode != "memory")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
