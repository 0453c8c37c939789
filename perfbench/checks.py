"""Problem-level output checks for the benchmark workloads.

Each checker reads the text the CLI printed and decides, from the problem
alone, whether the answer is right. None of them uses aspkit: counts and
closures are recomputed here, so a solver or grounder bug cannot agree
with itself.
"""

import re

_ATOM_RE = re.compile(r"^([a-z][A-Za-z0-9_]*)(?:\((.*)\))?$")


class CheckError(Exception):
    pass


def parse_atom(text):
    m = _ATOM_RE.match(text)
    if not m:
        raise CheckError(f"malformed atom {text!r}")
    args = tuple(m.group(2).split(",")) if m.group(2) is not None else ()
    return m.group(1), args


def parse_models(out):
    """Models of an enumeration listing, as lists of atom strings."""
    lines = out.splitlines()
    if not lines or lines[-1] not in ("True", "False"):
        raise CheckError("listing does not end in True/False")
    models = []
    for line in lines[:-1]:
        if line.startswith("Answer: "):
            if line != f"Answer: {len(models) + 1}":
                raise CheckError(f"answer numbering broken at {line!r}")
            models.append(None)
        elif line.startswith("Stable Model:"):
            if not models or models[-1] is not None:
                raise CheckError("model line without its Answer line")
            models[-1] = line[len("Stable Model:"):].split()
        else:
            raise CheckError(f"unexpected line {line!r}")
    if None in models:
        raise CheckError("Answer line without a model")
    if (lines[-1] == "True") != bool(models):
        raise CheckError(f"{lines[-1]} after {len(models)} models")
    return models


def _ints(args, pred, arity):
    if len(args) != arity:
        raise CheckError(f"{pred}/{len(args)} where {pred}/{arity} expected")
    try:
        return tuple(int(a) for a in args)
    except ValueError:
        raise CheckError(f"non-integer argument in {pred}{args}") from None


def _distinct(models):
    if len({frozenset(m) for m in models}) != len(models):
        raise CheckError("a model is listed twice")


# -- queens --------------------------------------------------------------------

def queens_count(n):
    """Number of non-attacking placements of n queens, by backtracking."""
    def place(row, cols, up, down):
        if row == n:
            return 1
        total = 0
        for c in range(n):
            if c not in cols and row + c not in up and row - c not in down:
                total += place(row + 1, cols | {c}, up | {row + c},
                               down | {row - c})
        return total
    return place(0, frozenset(), frozenset(), frozenset())


def check_queens(spec, outputs):
    n = spec["n"]
    models = parse_models(outputs[0])
    for m in models:
        queens = []
        for text in m:
            pred, args = parse_atom(text)
            if pred != "q":
                raise CheckError(f"unexpected atom {text}")
            queens.append(_ints(args, "q", 2))
        if len(queens) != n:
            raise CheckError(f"{len(queens)} queens in a model, expected {n}")
        if any(not (1 <= x <= n and 1 <= y <= n) for x, y in queens):
            raise CheckError("queen off the board")
        for key in (lambda q: q[0], lambda q: q[1],
                    lambda q: q[0] + q[1], lambda q: q[0] - q[1]):
            if len({key(q) for q in queens}) != n:
                raise CheckError("two queens attack each other")
    _distinct(models)
    if len(models) != spec["count"]:
        raise CheckError(f"{len(models)} models, expected {spec['count']}")


# -- strip ---------------------------------------------------------------------

def check_strip(spec, outputs):
    n = spec["n"]
    models = parse_models(outputs[0])
    if len(models) != 1:
        raise CheckError(f"{len(models)} models, expected 1")
    colour = {}
    done = False
    for text in models[0]:
        pred, args = parse_atom(text)
        if pred == "col":
            if len(args) != 2 or args[1] not in ("r", "g", "b"):
                raise CheckError(f"bad colouring atom {text}")
            (x,) = _ints(args[:1], "col", 1)
            if x in colour:
                raise CheckError(f"node {x} has two colours")
            colour[x] = args[1]
        elif pred == "done" and not args:
            done = True
    if sorted(colour) != list(range(1, n + 1)):
        raise CheckError("colouring does not cover exactly nodes 1..n")
    for x in range(1, n + 1):
        for y in (x + 1, x + 2):
            if y <= n and colour[x] == colour[y]:
                raise CheckError(f"near nodes {x} and {y} share a colour")
    if not done:
        raise CheckError("done missing from the answer")


# -- hamcycle ------------------------------------------------------------------

def hamiltonian_cycles(n, edges):
    """Number of directed Hamiltonian cycles, by depth-first search from 1."""
    succ = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        succ[a].append(b)
    seen = {1}

    def walk(v, depth):
        total = 0
        for w in succ[v]:
            if w == 1:
                total += depth == n
            elif w not in seen:
                seen.add(w)
                total += walk(w, depth + 1)
                seen.discard(w)
        return total
    return walk(1, 1)


def check_hamcycle(spec, outputs):
    n = spec["n"]
    edges = {tuple(e) for e in spec["edges"]}
    models = parse_models(outputs[0])
    for m in models:
        succ = {}
        for text in m:
            pred, args = parse_atom(text)
            if pred != "in":
                continue
            a, b = _ints(args, "in", 2)
            if (a, b) not in edges:
                raise CheckError(f"in({a},{b}) is not an edge")
            if a in succ:
                raise CheckError(f"node {a} leaves twice")
            succ[a] = b
        if sorted(succ) != list(range(1, n + 1)):
            raise CheckError("cycle does not leave every node once")
        v, steps = 1, 0
        while True:
            v = succ[v]
            steps += 1
            if v == 1 or steps > n:
                break
        if steps != n:
            raise CheckError("in/2 atoms do not form one Hamiltonian cycle")
    _distinct(models)
    if len(models) != spec["count"]:
        raise CheckError(f"{len(models)} cycles, expected {spec['count']}")


# -- ancestor-wfs ----------------------------------------------------------------

def ancestor_closure(parents):
    """All ancestor(X,Y) pairs: the transitive closure of parent/2."""
    children = {}
    for a, b in parents:
        children.setdefault(a, []).append(b)
    pairs = set()
    for root in children:
        stack = list(children[root])
        while stack:
            d = stack.pop()
            if (root, d) not in pairs:
                pairs.add((root, d))
                stack.extend(children.get(d, ()))
    return pairs


def check_ancestor(spec, outputs):
    lines = outputs[1].splitlines()
    if len(lines) != 4 or lines[0] != "Well-founded model":
        raise CheckError("not a well-founded model listing")
    sections = {}
    for line, label in zip(lines[1:], ("True", "Unknown", "False")):
        head, _, rest = line.partition(":")
        if head != label:
            raise CheckError(f"expected a {label}: line, got {line!r}")
        sections[label] = rest.split()
    if sections["Unknown"]:
        raise CheckError(f"{len(sections['Unknown'])} atoms left unknown")
    got = set()
    for text in sections["True"]:
        pred, args = parse_atom(text)
        if pred != "ancestor" or len(args) != 2:
            raise CheckError(f"unexpected true atom {text}")
        got.add(args)
    want = ancestor_closure(tuple(p) for p in spec["parents"])
    if got != want:
        raise CheckError(f"true ancestors differ from the closure: "
                         f"{len(got - want)} extra, {len(want - got)} missing")


CHECKERS = {
    "queens": check_queens,
    "strip": check_strip,
    "hamcycle": check_hamcycle,
    "ancestor": check_ancestor,
}


def check(spec, outputs):
    """None when the outputs answer the problem in `spec`, else the reason."""
    try:
        CHECKERS[spec["kind"]](spec, outputs)
    except CheckError as e:
        return str(e)
    return None
