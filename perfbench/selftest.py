"""Self-test of the benchmark harness at tiny sizes; runs in seconds.

    python3 perfbench/selftest.py

For every workload it runs the real CLI on a tiny input, untraced and
traced, and requires the checker to accept the answer and the layer spans
plus cli.self.s to add up to the traced wall time. It then corrupts each
answer (a missing queen, a clashing colour, a broken cycle, an extra
ancestor, ...) and requires the checker to reject every corruption. Exits
non-zero on the first failure.
"""

import os
import re
import shutil
import sys
import tempfile

import checks
import layers
import worker
import workloads

ROOT = worker.ROOT

TINY = {
    "queens": {"n": 4},
    "strip": {"n": 20, "fanout": 5},
    "hamcycle": {"nodes": 6, "degree": 3, "cycles": (1, 10**6), "pool": 1},
    "ancestor-wfs": {"generations": 5, "width": 2},
}

# Layer times that partition an invocation's traced wall time together with
# cli.self.s; solver.expand.s lies inside solver.search.s.
PARTS = ("parser.s", "analysis.s", "grounding.desugar.s",
         "grounding.domain_eval.s", "grounding.instantiate.s",
         "primitives.translate.s", "ground_format.emit.s",
         "ground_format.read.s", "solver.setup.s", "solver.search.s",
         "solver.wfs.s", "cli.self.s")


def _drop_first_queen(outs):
    return [re.sub(r"(Stable Model:) q\(\d+,\d+\)", r"\1", outs[0], count=1)]


def _attack(outs):
    return [re.sub(r"q\((\d+),(\d+)\)", r"q(\1,\1)", outs[0], count=2)]


def _repeat_model(outs):
    lines = outs[0].splitlines()          # Answer/model pairs, then True
    again = [f"Answer: {len(lines) // 2 + 1}", lines[-2]]
    return ["\n".join(lines[:-1] + again + lines[-1:]) + "\n"]


def _clash(outs):
    colour = re.search(r"col\(1,(\w)\)", outs[0]).group(1)
    return [re.sub(r"col\(2,\w\)", f"col(2,{colour})", outs[0])]


def _drop_done(outs):
    return [outs[0].replace(" done", "")]


def _drop_edge(outs):
    return [re.sub(r" in\(\d+,\d+\)", "", outs[0], count=1)]


def _drop_last_model(outs):
    lines = outs[0].splitlines()
    return ["\n".join(lines[:-3] + lines[-1:]) + "\n"]


def _extra_ancestor(outs):
    true = re.search(r"^True:.*$", outs[1], re.M).group(0)
    pair = re.search(r"ancestor\((\w+),(\w+)\)", true)
    return [outs[0], outs[1].replace(true, true + f" ancestor({pair.group(2)},{pair.group(1)})")]


def _unknown_ancestor(outs):
    true = re.search(r"^True:.*$", outs[1], re.M).group(0)
    atom = true.split()[1]
    return [outs[0], outs[1].replace(" " + atom, "", 1).replace("Unknown:", "Unknown: " + atom)]


CORRUPTIONS = {
    "queens": (_drop_first_queen, _attack, _repeat_model, _drop_last_model),
    "strip": (_clash, _drop_done),
    "hamcycle": (_drop_edge, _drop_last_model, _repeat_model),
    "ancestor-wfs": (_extra_ancestor, _unknown_ancestor),
}


def check_workload(name, work_dir):
    manifest = workloads.build(name, 1, work_dir, TINY)
    for traced in (False, True):
        result = worker.run_pass(manifest, 0, traced)
        for s in result["samples"]:
            if s["error"]:
                raise AssertionError(f"{name}: correct answer rejected: {s['error']}")
            if traced:
                total = sum(s["layers"].get(p, 0.0) for p in PARTS)
                if abs(total - s["wall"]) > 1e-6:
                    raise AssertionError(f"{name}: layers add to {total}, wall {s['wall']}")
        if traced and len(result["samples"]) < 2:
            raise AssertionError(f"{name}: traced pass did not repeat input 0")
    from aspkit import cli
    inp = manifest["inputs"][0]
    _, _, codes, outs, _ = worker.invoke(cli.main, inp["stages"])
    if codes != [0] * len(codes) or checks.check(inp["check"], outs):
        raise AssertionError(f"{name}: reference invocation failed")
    for corrupt in CORRUPTIONS[name]:
        bad = corrupt(outs)
        if bad == outs:
            raise AssertionError(f"{name}: {corrupt.__name__} changed nothing")
        if checks.check(inp["check"], bad) is None:
            raise AssertionError(f"{name}: {corrupt.__name__} was accepted")
    print(f"{name}: ok ({len(CORRUPTIONS[name])} corruptions rejected)")


def check_absent_target():
    saved = layers.TARGETS
    layers.TARGETS = saved + (("solver.gone", "aspkit.solver", "Solver.no_such_method"),)
    try:
        tracer = layers.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        layers.TARGETS = saved
    if tracer.absent != ["aspkit.solver.Solver.no_such_method"]:
        raise AssertionError(f"absent targets reported as {tracer.absent}")
    print("tracer: ok (a missing target is reported absent)")


def main():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.join("perfbench", "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join("perfbench", "_work"))
    try:
        for name in workloads.SIZES:
            check_workload(name, work)
        check_absent_target()
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
