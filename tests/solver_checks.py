"""Test-side views of the solver's internals.

`state_fingerprint` digests the search state that propagation must leave
unchanged at a fixpoint and that backtracking must restore. `CheckedSolver`
holds the incremental, per-SCC unfounded-set propagation to the global
recompute of the optimistically derivable set at every fixpoint it reaches,
every unfounded-set run to the atoms of its own SCC, the source of every
SCC atom not false to the invariant that lets a run be skipped
(`source_faults`), and the rule counters, dead-rule marks and
supports to a recompute from the values there and after every backtrack
(`counter_faults`), where no two-literal integrity constraint may have one
body literal true and the other not false (`implication_faults`), and the
whole state must be the one its mark was taken at, and it re-probes every
probe result the lookahead reuses. `ShuffledSolver` perturbs the lookahead
candidate order. `FullProbeSolver` is the reference lookahead that probes
every candidate both ways, and `BoundCheckedSolver` re-probes every literal
a lookahead probe implied, to hold the solver to the bounds it skips
probes by; both run a real probe wherever they probe.
`alternating_fixpoint` is the reference well-founded model, built from
the oracle's reduct and least model. `static_structure` recomputes the
solver's rule arrays, implication lists, SCCs, in-SCC feeds, dirty maps
and branch order the slow way. Rules are named by their number
throughout, as the solver names them.
"""

import random

from aspkit.oracle import least_model, reduct
from aspkit.shared import (
    FALSITY,
    BasicRule,
    ChoiceRule,
    ConstraintRule,
    WeightRule,
    normalize_weight_elements,
)
from aspkit.solver import _LIVE, FALSE, TRUE, UNKNOWN, Conflict, Solver


def state_fingerprint(solver):
    return (tuple(solver.values), tuple(solver.wsat), tuple(solver.wmax),
            tuple(solver.dead), tuple(solver.supports), tuple(solver.src))


def _items(atoms, weights):
    return zip(atoms, weights if weights is not None else [1] * len(atoms))


def rule_counters(solver, r):
    """wsat and wmax of rule r recomputed from the current values."""
    values = solver.values
    wsat = wmax = 0
    for atoms, weights, true, false in ((solver.pos[r], solver.pw[r], TRUE, FALSE),
                                        (solver.neg[r], solver.nw[r], FALSE, TRUE)):
        for a, w in _items(atoms, weights):
            wsat += w if values[a] == true else 0
            wmax += w if values[a] != false else 0
    return wsat, wmax


def unfounded_atoms(solver):
    """Atoms not yet false that the global recompute would falsify: those
    outside the greatest set derivable from atoms not false and negative
    literals not true."""
    values = solver.values
    derivable = [False] * (solver.n_atoms + 1)
    changed = True
    while changed:
        changed = False
        for r, bound in enumerate(solver.bound):
            credit = 0
            for a, w in _items(solver.pos[r], solver.pw[r]):
                if derivable[a]:
                    credit += w
            for a, w in _items(solver.neg[r], solver.nw[r]):
                if values[a] != TRUE:
                    credit += w
            if credit >= bound:
                for h in solver.heads[r]:
                    if not derivable[h] and values[h] != FALSE:
                        derivable[h] = True
                        changed = True
    return [a for a in range(2, solver.n_atoms + 1)
            if values[a] != FALSE and not derivable[a]]


def counter_faults(solver):
    """Where the rule counters disagree with a recompute from the values,
    with every literal on the trail propagated: a live rule's wsat and wmax
    must equal the recompute, a dead rule must recompute to wmax < bound
    and have died at a trail index, and supports[h] must count the live
    rules with h among their heads."""
    faults = []
    supports = [0] * (solver.n_atoms + 1)
    for r, bound in enumerate(solver.bound):
        wsat, wmax = rule_counters(solver, r)
        dead = solver.dead[r]
        if -1 <= dead < len(solver.trail):
            if wmax >= bound or solver.wmax[r] >= bound:
                faults.append(f"rule {r} dead at {dead} has wmax {solver.wmax[r]}, "
                              f"recompute {wmax}, bound {bound}")
        elif dead != _LIVE:
            faults.append(f"rule {r} marked dead at {dead}, past the trail")
        elif (solver.wsat[r], solver.wmax[r]) != (wsat, wmax):
            faults.append(f"live rule {r}: counters {solver.wsat[r]}, {solver.wmax[r]}"
                          f" != recompute {wsat}, {wmax}")
        else:
            for h in solver.heads[r]:
                supports[h] += 1
    if supports != solver.supports:
        faults.append(f"supports {solver.supports} != recompute {supports}")
    return faults


def source_faults(solver):
    """Where the sources of the SCC atoms break the invariant that lets an
    unfounded-set run be skipped. The source of every atom not false must
    be the number of a rule with the atom among its heads and, by a
    recompute from the values, live. The sources must found every such
    atom: starting from none, an atom is founded once its source's credit,
    the weight of its literals outside the SCC that are not false plus that
    of the founded atoms of its positive body, reaches the rule's bound.
    An atom whose sources lead round a cycle is never founded."""
    values, src, faults = solver.values, solver.src, []
    for ci, comp in enumerate(solver.scc_atoms):
        atoms = [a for a in comp if values[a] != FALSE]
        outside = {}
        for a in atoms:
            r = src[a]
            if r not in solver.defs[a]:
                faults.append(f"atom {a} of SCC {ci} has source {r}, not a rule defining it")
                continue
            if rule_counters(solver, r)[1] < solver.bound[r]:
                faults.append(f"atom {a} of SCC {ci} has the dead rule {r} as its source")
            outside[a] = (r, sum(w for b, w in _items(solver.pos[r], solver.pw[r])
                                 if solver.scc_of[b] != ci and values[b] != FALSE)
                          + sum(w for b, w in _items(solver.neg[r], solver.nw[r])
                                if values[b] != TRUE))
        founded = set()
        changed = True
        while changed:
            changed = False
            for a, (r, credit) in outside.items():
                if a not in founded and credit + sum(
                        w for b, w in _items(solver.pos[r], solver.pw[r])
                        if b in founded) >= solver.bound[r]:
                    founded.add(a)
                    changed = True
        faults += [f"atom {a} of SCC {ci} is not founded by the sources"
                   for a in outside if a not in founded]
    return faults


class CheckedSolver(Solver):
    """A Solver that asserts that every unfounded-set run falsifies or
    gives a new source to atoms of its own SCC only, and, after every
    successful expand() (lookahead probes included), that the global
    recompute falsifies nothing new, that the sources found every SCC atom
    not false, that the rule counters agree with the values and that no
    two-literal constraint has a true literal beside one not false, and
    after every _undo_to() that no SCC is left to
    recompute, that the counters, sources and two-literal constraints pass
    the same checks and that the state, sources included, is the fixpoint
    the mark was taken at. Every probe result read off a record is probed
    again for real, inside the probe that reads it: the probe must not
    conflict and must fix the literals the record gives. `recalls` counts
    them. Only a probe's expand may conflict after the root one: the
    lookahead probed every value that a decision, a flip or a forced
    failed literal sets (see `Solver.models`)."""

    def __init__(self, gp):
        super().__init__(gp)
        self.fixpoints = 0
        self.recalls = 0
        self.constraints = binary_constraints(gp)
        self._at_length = {}  # trail length -> fingerprint of the last fixpoint of it
        self._rooted = False  # the root expand has run
        self._probing = False

    def _probe(self, lit, bounds=None):
        self._probing = True
        fixed = super()._probe(lit, bounds)
        self._probing = False
        return fixed

    def expand(self):
        conflict = super().expand()
        assert conflict is None or self._probing or not self._rooted, (
            f"a value set outside a probe conflicts on atom {conflict.atom}")
        self._rooted = True
        if conflict is None:
            missed = unfounded_atoms(self)
            assert not missed, f"unfounded atoms left open at a fixpoint: {missed}"
            faults = (counter_faults(self) + source_faults(self)
                      + implication_faults(self, self.constraints))
            assert not faults, f"counters, sources or implications wrong at a fixpoint: {faults}"
            self.fixpoints += 1
            self._at_length[len(self.trail)] = state_fingerprint(self)
        return conflict

    def _atmost_scc(self, ci, lost):
        mark, logged = len(self.trail), len(self._src_log)
        try:
            super()._atmost_scc(ci, lost)
        finally:
            # a conflict ends the run early; what it changed so far is checked
            changed = self.trail[mark:] + [a for _, a, _ in self._src_log[logged:]]
            strays = [a for a in changed if self.scc_of[a] != ci]
            assert not strays, f"the run of SCC {ci} changed atoms outside it: {strays}"

    def _undo_to(self, mark):
        super()._undo_to(mark)
        assert not self._dirty, f"SCCs {self._dirty} left dirty at mark {mark}"
        faults = (counter_faults(self) + source_faults(self)
                  + implication_faults(self, self.constraints))
        assert not faults, (f"counters, sources or implications wrong after undoing to "
                            f"{mark}: {faults}")
        assert state_fingerprint(self) == self._at_length[mark], f"state not restored at {mark}"

    def _recall(self, lit):
        opened = super()._recall(lit)
        if opened is not None:
            self.recalls += 1
            conflict, lits = fixed_literals(self, lit)
            assert conflict is None, f"reused probe of {lit} conflicts when probed again"
            assert sorted(opened) == sorted(lits), (
                f"reused probe of {lit} fixes {opened}, probed again {lits}")
        return opened


class ShuffledSolver(Solver):
    """A Solver that probes two lookahead candidates per round, the first
    two of its candidate sample after a seeded shuffle."""

    def __init__(self, gp, seed):
        self._rng = random.Random(seed)
        super().__init__(gp)

    def _candidates(self):
        cands = super()._candidates()
        self._rng.shuffle(cands)
        return cands[:2]


class FullProbeSolver(Solver):
    """A Solver whose lookahead probes every candidate of `_candidates`
    both ways, reusing no probe result, and keeps the one of highest
    `_score`: the choices `Solver._choose` must reproduce while skipping
    probes."""

    def _recall(self, lit):
        return None

    def _choose(self):
        while True:
            cands = self._candidates()
            if not cands:
                return None
            best_atom = best = None
            for a in cands:
                fixed_t, fixed_f = self._probe(a), self._probe(-a)
                if not (fixed_t or fixed_f):
                    return Conflict(a)
                if not (fixed_t and fixed_f):
                    self.stats.failed_literals += 1
                    self._set(a, TRUE if fixed_t else FALSE)
                    c = self.expand()
                    if c:
                        return c
                    break
                key = self._score(fixed_t, fixed_f, a)
                if best is None or key > best:
                    best_atom, best = a, key
            else:
                return best_atom


class ShuffledFullProbeSolver(ShuffledSolver, FullProbeSolver):
    """FullProbeSolver with ShuffledSolver's candidate order."""


def alternating_fixpoint(rules, extra_atoms=()):
    """Van Gelder's alternating fixpoint as defined: with G(S) the least
    model of the reduct by S, the true atoms are the least fixpoint of
    G(G(.)) and the atoms not false are G of them. The same triple as
    `aspkit.wellfounded.well_founded`, over the atoms of the rules and
    extra_atoms less the falsity atom."""
    def gamma(assumed):
        return frozenset(least_model(reduct(rules, assumed)))

    true = frozenset()
    while True:
        upper = gamma(true)
        again = gamma(upper)
        if again == true:
            break
        true = again
    universe = set(extra_atoms)
    for r in rules:
        universe.update((r.head, *r.pos, *r.neg))
    universe.discard(FALSITY)
    true = true - {FALSITY}
    false = frozenset(universe - upper)
    return true, false, frozenset(universe - true - false)


def fixed_literals(solver, lit):
    """(conflict, literals fixed) of setting the signed literal `lit` and
    expanding, undone again, without recording a probe."""
    mark = len(solver.trail)
    solver._set(abs(lit), TRUE if lit > 0 else FALSE)
    conflict = solver.expand()
    lits = [b if solver.values[b] == TRUE else -b for b in solver.trail[mark:]]
    solver._undo_to(mark)
    return conflict, lits


class BoundCheckedSolver(Solver):
    """A Solver that checks each lookahead probe's bookkeeping: after a
    successful probe, every literal it fixed has as its bound the least count
    of the probes of the round that fixed it, and probing that literal
    itself at the same assignment neither conflicts nor fixes more atoms
    than its bound. It reuses no probe result, so every bound comes from a
    real probe. `reprobes` counts the literals probed for the check."""

    def __init__(self, gp):
        super().__init__(gp)
        self.reprobes = 0

    def _recall(self, lit):
        return None

    def _probe(self, lit, bounds=None):
        if bounds is None:
            return super()._probe(lit)
        before = dict(bounds)
        fixed = super()._probe(lit, bounds)
        if not fixed:
            assert bounds == before, "a failed probe changed the bounds"
            return fixed
        again, lits = fixed_literals(self, lit)
        assert again is None and len(lits) == fixed
        want = dict(before)
        for b in lits:
            want[b] = min(before.get(b, fixed), fixed)
        assert bounds == want, f"bounds {bounds} after probing {lit}, expected {want}"
        for b in lits:
            if b == lit or before.get(b) == bounds[b]:
                continue
            self.reprobes += 1
            n = super()._probe(b)
            assert n, f"literal {b} implied by probing {lit} conflicts"
            assert n <= bounds[b], f"literal {b} fixes {n} > bound {bounds[b]}"
        return fixed


def _reach(adj, atoms):
    """reach[a]: atoms reachable from a by one or more edges."""
    reach = {}
    for a in atoms:
        seen = set()
        todo = [a]
        while todo:
            for b in adj.get(todo.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        reach[a] = seen
    return reach


def _cyclic_components(adj, atoms):
    """Sorted SCCs that contain a cycle, from the reachability closure."""
    reach = _reach(adj, atoms)
    comps = {tuple(sorted(b for b in reach[a] if a in reach[b]))
             for a in atoms if a in reach[a]}
    return sorted(list(c) for c in comps)


def _reference_row(rule):
    """(heads, head, pos, neg, pw, nw, bound, wmax, dead) of a primitive
    rule before search: head is None for a choice rule, whose heads are
    listed once each, weights None for unit weights, and dead -1 when the
    body weight cannot reach the bound."""
    pw = nw = None
    if isinstance(rule, ChoiceRule):
        heads, head = tuple(dict.fromkeys(rule.heads)), None
        bound = len(rule.pos) + len(rule.neg)
    else:
        heads, head = (rule.head,), rule.head
        bound = rule.bound if hasattr(rule, "bound") else len(rule.pos) + len(rule.neg)
    pos, neg = rule.pos, rule.neg
    if isinstance(rule, WeightRule):
        pw, nw = rule.pos_weights, rule.neg_weights
        if min(pw + nw, default=0) < 0:
            elems = [(a, w) for a, w in zip(pos, pw)] + [(-a, w) for a, w in zip(neg, nw)]
            elems, bound = normalize_weight_elements(elems, bound)
            pos = tuple(a for a, _ in elems if a > 0)
            pw = tuple(w for a, w in elems if a > 0)
            neg = tuple(-a for a, _ in elems if a < 0)
            nw = tuple(w for a, w in elems if a < 0)
    wmax = sum(w for _, w in _items(pos, pw)) + sum(w for _, w in _items(neg, nw))
    return heads, head, pos, neg, pw, nw, bound, wmax, _LIVE if wmax >= bound else -1


def _is_binary_constraint(rule):
    return (isinstance(rule, BasicRule) and rule.head == FALSITY
            and len(rule.pos) + len(rule.neg) == 2)


def binary_constraints(gp):
    """The body literals (atom, value making the literal true) of every
    two-literal integrity constraint `:- l1, l2` of gp, in rule order."""
    return [tuple([(a, TRUE) for a in r.pos] + [(a, FALSE) for a in r.neg])
            for r in gp.rules if _is_binary_constraint(r)]


def implication_faults(solver, constraints):
    """The two-literal constraints whose body is true, or that have one
    literal true and the other not false, under the current values."""
    values = solver.values
    faults = []
    for (x, sx), (y, sy) in constraints:
        if values[x] == sx and values[y] == sy:
            faults.append(f"both literals of :- {(x, sx)}, {(y, sy)} true")
        elif ((values[x] == sx and values[y] == UNKNOWN)
              or (values[y] == sy and values[x] == UNKNOWN)):
            faults.append(f"one literal of :- {(x, sx)}, {(y, sy)} true, the other open")
    return faults


def static_structure(solver, gp):
    """What `solver` should have built from `gp`, taken straight from the
    rule definitions: the rule arrays (`rows`, with weight rules normalised
    and rules dead from the start marked, and `wtop`, each rule's largest
    body weight) of every rule but the two-literal integrity constraints,
    the implication lists those constraints give (per atom and value, the
    literals falsifying the other body literal, without repeats, in rule
    order), the occurrence, definition and support lists they give, the
    nontrivial SCCs (atoms >= 2, size > 1 or a self-loop) of the positive
    dependency graph, per SCC the in-SCC positive (atom, weight) pairs of
    each rule defining one of its atoms, per atom the (rule, head) pairs of
    the rules with the atom in their positive (dirty_on_false) or negative
    (dirty_on_true) body and a head in an SCC, and the branch order: heads
    of non-basic rules, plus atoms that occur negatively and sit on a cycle
    of the full dependency graph."""
    constraints = binary_constraints(gp)
    rows = [_reference_row(rule) for rule in gp.rules if not _is_binary_constraint(rule)]
    n = solver.n_atoms
    implications = {TRUE: [[] for _ in range(n + 1)], FALSE: [[] for _ in range(n + 1)]}
    for lits in constraints:
        for i, (a, value) in enumerate(lits):
            b, other = lits[1 - i]
            entry = (b, FALSE if other == TRUE else TRUE)
            if entry not in implications[value][a]:
                implications[value][a].append(entry)
    occ_pos, occ_neg, defs = ([[] for _ in range(n + 1)] for _ in range(3))
    supports = [0] * (n + 1)
    pos_adj, full_adj = {}, {}
    for r, (heads, _, pos, neg, pw, nw, _, _, dead) in enumerate(rows):
        for a, w in _items(pos, pw):
            occ_pos[a].append((r, w))
        for a, w in _items(neg, nw):
            occ_neg[a].append((r, w))
        for h in heads:
            defs[h].append(r)
            if dead != -1:
                supports[h] += 1
            pos_adj.setdefault(h, set()).update(b for b in pos if b >= 2)
            full_adj.setdefault(h, set()).update(b for b in pos + neg if b >= 2)
    atoms = range(2, n + 1)
    sccs = _cyclic_components(pos_adj, atoms)
    scc_of = [-1] * (n + 1)
    for ci, comp in enumerate(sccs):
        for a in comp:
            scc_of[a] = ci
    dirty_on_false, dirty_on_true = ([sorted((r, h) for r, row in enumerate(rows)
                                             if a in row[body]
                                             for h in row[0] if scc_of[h] >= 0)
                                     for a in range(n + 1)] for body in (2, 3))
    feeds = [{r: sorted((a, w) for a, w in _items(row[2], row[4]) if scc_of[a] == ci)
              for r, row in enumerate(rows) if any(scc_of[h] == ci for h in row[0])}
             for ci in range(len(sccs))]
    cyclic = {a for comp in _cyclic_components(full_adj, atoms) for a in comp}
    negative = {a for row in rows for a in row[3]}
    negative.update(a for lits in constraints for a, value in lits if value == FALSE)
    nonbasic = set()
    for src in gp.rules:
        if isinstance(src, BasicRule) or (
                isinstance(src, ConstraintRule) and src.bound == len(src.pos) + len(src.neg)):
            continue
        nonbasic.update(src.heads if isinstance(src, ChoiceRule) else (src.head,))
    branch_order = sorted(a for a in atoms if a in nonbasic or (a in cyclic and a in negative))
    wtop = [1 if pw is None else max(pw + nw, default=0)
            for _, _, _, _, pw, nw, _, _, _ in rows]
    return {"rows": rows, "wtop": wtop,
            "occurrences": (occ_pos, occ_neg, defs, supports),
            "implications": (implications[TRUE], implications[FALSE]),
            "scc_atoms": sccs, "scc_of": scc_of, "scc_feeds": feeds,
            "dirty_on_false": dirty_on_false, "dirty_on_true": dirty_on_true,
            "branch_order": branch_order}


def built_structure(solver):
    """The same views, read off a constructed Solver. The per-atom rows
    are read as lists: setup shares one () among the atoms a row leaves
    empty, which differs from [] in type only. The dirty rows and the feeds
    are read sorted."""
    dirty = [[sorted(row) for row in rows]
             for rows in (solver.dirty_on_false, solver.dirty_on_true)]
    rows = list(zip(solver.heads, solver.head, solver.pos, solver.neg, solver.pw,
                    solver.nw, solver.bound, solver.wmax, solver.dead))
    return {"rows": rows, "wtop": solver.wtop,
            "occurrences": (*map(_as_lists, (solver.occ_pos, solver.occ_neg, solver.defs)),
                            solver.supports),
            "implications": (_as_lists(solver.imp_true), _as_lists(solver.imp_false)),
            "scc_atoms": solver.scc_atoms, "scc_of": solver.scc_of,
            "scc_feeds": [{r: sorted(fed) for r, fed in feeds.items()}
                          for feeds in solver.scc_feeds],
            "dirty_on_false": dirty[0], "dirty_on_true": dirty[1],
            "branch_order": list(solver.branch_order)}


def _as_lists(rows):
    return [list(row) for row in rows]
