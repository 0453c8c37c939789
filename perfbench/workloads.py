"""Inputs of the four benchmark workloads.

`build(name, seed, work_dir, sizes)` writes a workload's input files under
`work_dir` and returns its manifest: the CLI stages of every input, the
parameters its checker needs, and the argv that grounds input 0 (for
`ground_bytes`). Paths in the manifest are relative to the repository root,
where the CLI runs. The same seed always gives the same files.
"""

import os
import random

from checks import hamiltonian_cycles, queens_count

# Sizes the benchmark runs at; selftest.py shrinks them.
SIZES = {
    "queens": {"n": 8},
    "strip": {"n": 300, "fanout": 50},
    "hamcycle": {"nodes": 10, "degree": 4, "cycles": (60, 90), "pool": 64},
    "ancestor-wfs": {"generations": 12, "width": 15},
}

HAMCYCLE_ENCODING = """\
{ in(X,Y) } :- edge(X,Y).
:- 2 { in(X,Y) : node(Y) }, node(X).
:- 2 { in(X,Y) : node(X) }, node(Y).
reached(Y) :- in(1,Y), edge(1,Y).
reached(Y) :- reached(X), in(X,Y), edge(X,Y).
:- node(Y), not reached(Y).
"""


def _stage(argv, marker=None, stdout=None):
    return {"argv": argv, "marker": marker, "stdout": stdout}


def _write(work_dir, name, text):
    path = os.path.join(work_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def queens(seed, work_dir, n):
    prog = os.path.join("programs", "queens.lp")
    return {
        "inputs": [{
            "stages": [_stage(["run", "-c", f"n={n}", "-d", "none", prog, "0"],
                              marker="Answer:")],
            "check": {"kind": "queens", "n": n, "count": queens_count(n)},
        }],
        "ground_argv": ["ground", "-c", f"n={n}", "-d", "none", prog],
    }


def strip(seed, work_dir, n, fanout):
    """The C7 scale-instance shape: a 3-colourable strip under a
    high-fanout reachability closure."""
    path = _write(work_dir, "strip.lp", "\n".join([
        f"node(1..{n}).",
        "color(r ; g ; b).",
        "1 { col(X,C) : color(C) } 1 :- node(X).",
        "near(X,Y) :- node(X), node(Y), Y > X, Y <= X + 2.",
        f"link(X,Y) :- node(X), node(Y), Y > X, Y <= X + {fanout}.",
        ":- col(X,C), col(Y,C), near(X,Y), color(C).",
        "reach(1).",
        "reach(Y) :- reach(X), link(X,Y).",
        f"done :- reach({n}).",
        ":- not done.",
    ]) + "\n")
    return {
        "inputs": [{
            "stages": [_stage(["run", "-d", "none", path, "1"], marker="Answer:")],
            "check": {"kind": "strip", "n": n},
        }],
        "ground_argv": ["ground", "-d", "none", path],
    }


def _planted_digraph(rng, n, degree):
    """A random digraph with out-degree `degree` around a planted cycle."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    succ = {order[i]: {order[(i + 1) % n]} for i in range(n)}
    for v in range(1, n + 1):
        others = [w for w in range(1, n + 1) if w != v and w not in succ[v]]
        succ[v].update(rng.sample(others, degree - 1))
    return sorted((v, w) for v in succ for w in succ[v])


def hamcycle(seed, work_dir, nodes, degree, cycles, pool):
    """A pool of graphs whose Hamiltonian cycle count lies within `cycles`.

    The solver's cost grows with the number of cycles, which is heavy-tailed
    over random graphs; the band keeps one graph's cost near the median, so
    a run's median does not hinge on which graphs the seed drew.
    """
    rng = random.Random(seed)
    inputs = []
    paths = []
    while len(inputs) < pool:
        edges = _planted_digraph(rng, nodes, degree)
        count = hamiltonian_cycles(nodes, edges)
        if not cycles[0] <= count <= cycles[1]:
            continue
        facts = [f"node(1..{nodes})."] + [f"edge({a},{b})." for a, b in edges]
        path = _write(work_dir, f"graph{len(inputs)}.lp",
                      "\n".join(facts) + "\n" + HAMCYCLE_ENCODING)
        paths.append(path)
        inputs.append({
            "stages": [_stage(["run", "-d", "none", path, "0"], marker="Answer:")],
            "check": {"kind": "hamcycle", "n": nodes, "edges": edges,
                      "count": count},
        })
    return {"inputs": inputs, "ground_argv": ["ground", "-d", "none", paths[0]]}


def _ancestor_rules():
    """The rules (not the facts) of programs/ancestor.lp."""
    with open(os.path.join("programs", "ancestor.lp"), encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if ":-" in line]


def ancestor_wfs(seed, work_dir, generations, width):
    """programs/ancestor.lp's rules over a random forest of `generations`
    layers of `width` persons; everyone below the top layer has one parent
    in the layer above, so the closure size is fixed and only its shape
    depends on the seed."""
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(generations * width)]
    rng.shuffle(names)
    layers = [names[g * width:(g + 1) * width] for g in range(generations)]
    parents = [(rng.choice(layers[g - 1]), child)
               for g in range(1, generations) for child in layers[g]]
    facts = [f"parent({a},{b})." for a, b in parents]
    facts += [f"{rng.choice(('male', 'female'))}({p})." for p in names]
    path = _write(work_dir, "family.lp",
                  "\n".join(_ancestor_rules() + facts) + "\n")
    ground = os.path.join(work_dir, "family.sm")
    return {
        "inputs": [{
            "stages": [_stage(["ground", "-d", "none", path], stdout=ground),
                       _stage(["solve", "--wfs", ground], marker="")],
            "check": {"kind": "ancestor", "parents": parents},
        }],
        "ground_argv": ["ground", "-d", "none", path],
    }


BUILDERS = {
    "queens": queens,
    "strip": strip,
    "hamcycle": hamcycle,
    "ancestor-wfs": ancestor_wfs,
}


def build(name, seed, work_dir, sizes=None):
    params = (sizes or SIZES)[name]
    manifest = BUILDERS[name](seed, work_dir, **params)
    manifest["workload"] = name
    return manifest
