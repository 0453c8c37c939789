"""aspkit benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works in the repository root it lives in. NAME is one
of queens, strip, hamcycle, ancestor-wfs, or `all` for the four in turn.
The workload's inputs come from the seed (workloads.py). A worker process
runs them through `aspkit.cli.main` in a closed loop for S seconds and
checks every answer (checks.py). With --trace 0 the result holds the
end-to-end metrics; with --trace 1 an untraced pass and a traced pass of
S/2 seconds each give the per-layer metrics (layers.py) and the tracing
overhead. The last line of stdout is the result as JSON; a fuller record,
with the environment, goes to perfbench/results/.
"""

import argparse
import glob
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from layers import METRICS as LAYER_METRICS
from worker import REF_CALIBRATION_S, Calibrator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("queens", "strip", "hamcycle", "ancestor-wfs")

END_TO_END = (
    ("wall_s", "s"), ("first_answer_s", "s"), ("peak_rss_mb", "MiB"),
    ("ground_bytes", "bytes"), ("setup_s", "s"),
)
PER_LAYER = LAYER_METRICS + (("trace.overhead", "ratio"),)

# Counts that must not change between runs of the same code and seed.
DETERMINISTIC = ("ground_bytes", "grounding.ground_rules", "primitives.rules",
                 "solver.expand.calls", "solver.decisions", "solver.propagations")

SETUP_REPEATS = 15


def source_digest():
    """sha256 of the code and programs under test, to key result files
    where no git metadata exists."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "aspkit", "*.py"))
                   + glob.glob(os.path.join(ROOT, "programs", "*.lp")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup():
    """Wall time for fresh interpreters to import aspkit.cli, scaled like
    every other time (worker.py); one unmeasured start compiles bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import aspkit.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
    times = []
    calibrator = Calibrator()
    before = calibrator.measure()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        took = time.perf_counter() - start
        after = calibrator.measure()
        times.append(took * REF_CALIBRATION_S / math.sqrt(before * after))
        before = after
    return times


def ground_bytes(manifest):
    """Size of the numeric ground program of the workload's input 0."""
    from aspkit import cli

    out, saved = io.StringIO(), sys.stdout
    sys.stdout = out
    try:
        code = cli.main(manifest["ground_argv"])
    finally:
        sys.stdout = saved
    if code != 0:
        raise RuntimeError(f"grounding input 0 exited with {code}")
    return len(out.getvalue().encode("utf-8"))


def run_worker(manifest_path, seconds, mode, spans_out=""):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), manifest_path,
         repr(seconds), mode, spans_out],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=seconds + 120)
    return json.loads(proc.stdout.splitlines()[-1])


def scaled(sample, value):
    return value * sample["scale"]


def end_to_end(base, memory, setup, gbytes):
    samples = base["samples"]
    return {
        "wall_s": (statistics.median(scaled(s, s["wall"]) for s in samples),
                   len(samples)),
        # An invocation that printed no answer counts its whole time.
        "first_answer_s": (statistics.median(
            scaled(s, s["wall"] if s["first"] is None else s["first"])
            for s in samples), len(samples)),
        "peak_rss_mb": (memory["peak_rss_mb"], 1),
        "ground_bytes": (gbytes, 1),
        "setup_s": (statistics.median(setup), len(setup)),
    }


def per_layer(base, traced):
    """Means over the traced invocations (means keep the layer times adding
    up to the traced wall time), and the tracing overhead on the inputs
    both passes ran."""
    samples = traced["samples"]
    out = {}
    for name, unit in LAYER_METRICS:
        values = [s["layers"].get(name, 0) for s in samples]
        if unit == "s":
            values = [scaled(s, v) for s, v in zip(samples, values)]
        out[name] = (statistics.fmean(values), len(samples))
    common = {s["input"] for s in samples} & {s["input"] for s in base["samples"]}

    def mean_wall(ss):
        return statistics.fmean(scaled(s, s["wall"]) for s in ss if s["input"] in common)
    out["trace.overhead"] = (mean_wall(samples) / mean_wall(base["samples"]) - 1,
                             len(samples))
    return out


def counts_by_input(traced, gbytes):
    """The deterministic counts of each traced input, and a note for each
    invocation whose counts differ from the input's first invocation."""
    seen = {}
    clashes = []
    for s in traced["samples"]:
        got = {k: s["layers"][k] for k in DETERMINISTIC if k in s["layers"]}
        prior = seen.setdefault(s["input"], got)
        if prior != got:
            clashes.append(f"input {s['input']}: {prior} then {got}")
    seen.setdefault(0, {})["ground_bytes"] = gbytes
    return {str(k): v for k, v in seen.items()}, clashes


def earlier_counts(record):
    """Clashes with result files of the same code, workload and seed."""
    clashes = []
    mine = record["determinism"]["counts"]
    for path in sorted(glob.glob(os.path.join(RESULTS, f"{record['workload']}-*.json"))):
        try:
            with open(path, encoding="utf-8") as fh:
                old = json.load(fh)
        except (OSError, ValueError):
            continue
        if (old.get("source_sha256") != record["source_sha256"]
                or old.get("seed") != record["seed"]):
            continue
        for key, counts in old.get("determinism", {}).get("counts", {}).items():
            for name, value in counts.items():
                if name in mine.get(key, {}) and mine[key][name] != value:
                    clashes.append(f"input {key} {name}: {value} in "
                                   f"{os.path.basename(path)}, {mine[key][name]} now")
    return clashes


def run_workload(name, seed, seconds, traced):
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(HERE, "_work"))
    stem = f"{name}-seed{seed}-trace{int(traced)}-{time.time_ns()}"
    os.makedirs(RESULTS, exist_ok=True)
    spans_out = os.path.join(RESULTS, stem + ".spans.jsonl") if traced else ""
    try:
        manifest = workloads.build(name, seed, os.path.relpath(work, ROOT))
        manifest_path = os.path.join(work, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        setup = measure_setup()
        gbytes = ground_bytes(manifest)
        memory = run_worker(manifest_path, 0, "memory")
        base = run_worker(manifest_path, seconds / 2 if traced else seconds, "time")
        passes = [memory, base]
        if traced:
            passes.append(run_worker(manifest_path, seconds / 2, "trace", spans_out))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = [s for p in passes for s in p["samples"]]
    errors = [f"input {s['input']}: {s['error']}" for s in samples if s["error"]]
    if traced:
        metrics = per_layer(base, passes[-1])
        units = dict(PER_LAYER)
        counts, clashes = counts_by_input(passes[-1], gbytes)
    else:
        metrics = end_to_end(base, memory, setup, gbytes)
        units = dict(END_TO_END)
        counts, clashes = {"0": {"ground_bytes": gbytes}}, []
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "ref_calibration_s": REF_CALIBRATION_S,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "attempted": len(samples), "failed": len(errors), "errors": errors[:20],
        "absent": passes[-1]["absent"],
        "setup_samples": setup,
        "passes": [{"mode": mode, "peak_rss_mb": p["peak_rss_mb"],
                    "samples": [{k: v for k, v in s.items() if k != "layers"}
                                for s in p["samples"]]}
                   for mode, p in zip(("memory", "time", "trace"), passes)],
        "spans_file": os.path.relpath(spans_out, ROOT) if spans_out else None,
        "determinism": {"counts": counts},
    }
    clashes += earlier_counts(record)
    record["determinism"]["clashes"] = clashes
    path = os.path.join(RESULTS, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["path"] = path
    return record


def report(record):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print(f"python {record['python']}  nproc {record['nproc']}  "
          f"commit {record['git_commit'] or 'none (not a git checkout)'}  "
          f"source {record['source_sha256'][:12]}")
    print(f"  {'metric':30} {'value':>14}  {'unit':6} samples")
    rows = list(record["metrics"].items())
    if not record["trace"]:
        rows.append(("error_rate", {"value": record["failed"] / record["attempted"],
                                    "unit": "ratio", "samples": record["attempted"]}))
    for name, m in rows:
        print(f"  {name:30} {m['value']:>14.6g}  {m['unit']:6} {m['samples']}")
    for e in record["errors"]:
        print(f"  FAILED {e}")
    for target in record["absent"]:
        print(f"  absent trace target {target}: its layer reads 0")
    clashes = record["determinism"]["clashes"]
    print(f"  determinism: {'FLAG ' + '; '.join(clashes) if clashes else 'ok'}")
    print(f"  record: {os.path.relpath(record['path'], ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (os.path.join("src", "aspkit", "cli.py"),
                 os.path.join("programs", "queens.lp"),
                 os.path.join("programs", "ancestor.lp")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found; run inside an aspkit checkout",
                  file=sys.stderr)
            return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for r in records:
        report(r)
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for r in records for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
