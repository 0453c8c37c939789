"""Test-side views of the solver's internals.

`state_fingerprint` digests the search state that propagation must leave
unchanged at a fixpoint and that backtracking must restore. `CheckedSolver`
holds the incremental, per-SCC unfounded-set propagation to the global
recompute of the optimistically derivable set at every fixpoint it reaches.
`ShuffledSolver` perturbs the lookahead candidate order. `FullProbeSolver`
is the reference lookahead that probes every candidate both ways, and
`BoundCheckedSolver` re-probes every literal a lookahead probe implied, to
hold the solver to the bounds it skips probes by. `static_structure`
recomputes the solver's SCCs, dirty maps and branch order the slow way.
"""

import random

from aspkit.primitives import BasicRule, ChoiceRule, ConstraintRule
from aspkit.solver import FALSE, TRUE, Conflict, Solver


def state_fingerprint(solver):
    return (tuple(solver.values),
            tuple((r.wsat, r.wmax, r.active) for r in solver.rules),
            tuple(solver.supports))


def unfounded_atoms(solver):
    """Atoms not yet false that the global recompute would falsify: those
    outside the greatest set derivable from atoms not false and negative
    literals not true."""
    values = solver.values
    derivable = [False] * (solver.n_atoms + 1)
    changed = True
    while changed:
        changed = False
        for r in solver.rules:
            credit = 0
            for a, w in r.pos_items():
                if derivable[a]:
                    credit += w
            for a, w in r.neg_items():
                if values[a] != TRUE:
                    credit += w
            if credit >= r.bound:
                for h in r.heads:
                    if not derivable[h] and values[h] != FALSE:
                        derivable[h] = True
                        changed = True
    return [a for a in range(2, solver.n_atoms + 1)
            if values[a] != FALSE and not derivable[a]]


class CheckedSolver(Solver):
    """A Solver that, after every successful expand() (lookahead probes
    included), asserts that the global recompute falsifies nothing new."""

    def __init__(self, gp):
        super().__init__(gp)
        self.fixpoints = 0

    def expand(self):
        conflict = super().expand()
        if conflict is None:
            missed = unfounded_atoms(self)
            assert not missed, f"unfounded atoms left open at a fixpoint: {missed}"
            self.fixpoints += 1
        return conflict


class ShuffledSolver(Solver):
    """A Solver that probes two lookahead candidates per round, sampled
    from the candidate list after a seeded shuffle."""

    lookahead_limit = 2

    def __init__(self, gp, seed):
        self._rng = random.Random(seed)
        super().__init__(gp)

    def _candidates(self):
        cands = super()._candidates()
        self._rng.shuffle(cands)
        return cands


class FullProbeSolver(Solver):
    """A Solver whose lookahead probes every candidate both ways and scores
    each by the atoms both probes fix: the choices `Solver._choose` must
    reproduce while skipping probes."""

    def _choose(self):
        while True:
            cands = self._candidates()
            if not cands:
                return None
            limit = self.lookahead_limit
            if len(cands) > limit:
                step = len(cands) / limit
                cands = [cands[int(i * step)] for i in range(limit)]
            best_atom = None
            best_score = -1
            forced = False
            for a in cands:
                conflict_t, fixed_t = self._probe(a, TRUE)
                conflict_f, fixed_f = self._probe(a, FALSE)
                if conflict_t and conflict_f:
                    return Conflict(a)
                if conflict_t or conflict_f:
                    self.stats.failed_literals += 1
                    self._set(a, FALSE if conflict_t else TRUE)
                    c = self.expand()
                    if c:
                        return c
                    forced = True
                    break
                score = fixed_t + fixed_f
                if score > best_score or (score == best_score and a < best_atom):
                    best_score = score
                    best_atom = a
            if not forced:
                return best_atom


class ShuffledFullProbeSolver(ShuffledSolver, FullProbeSolver):
    """FullProbeSolver with ShuffledSolver's candidate order."""


class BoundCheckedSolver(Solver):
    """A Solver that checks each lookahead probe's bookkeeping: after a
    successful probe, every literal it fixed has as its bound the least count
    of the probes of the round that fixed it, and probing that literal
    itself at the same assignment neither conflicts nor fixes more atoms
    than its bound. `reprobes` counts the literals probed for the check."""

    def __init__(self, gp):
        super().__init__(gp)
        self.reprobes = 0

    def _fixed_literals(self, atom, value):
        mark = len(self.trail)
        self._set(atom, value)
        conflict = self.expand()
        lits = [b if self.values[b] == TRUE else -b for b in self.trail[mark:]]
        self._undo_to(mark)
        return conflict, lits

    def _probe(self, atom, value, bounds=None):
        if bounds is None:
            return super()._probe(atom, value)
        before = dict(bounds)
        conflict, fixed = super()._probe(atom, value, bounds)
        if conflict:
            assert bounds == before, "a failed probe changed the bounds"
            return conflict, fixed
        again, lits = self._fixed_literals(atom, value)
        assert again is None and len(lits) == fixed
        want = dict(before)
        for lit in lits:
            want[lit] = min(before.get(lit, fixed), fixed)
        assert bounds == want, f"bounds {bounds} after probing {atom}, expected {want}"
        own = atom if value == TRUE else -atom
        for lit in lits:
            if lit == own or before.get(lit) == bounds[lit]:
                continue
            self.reprobes += 1
            c, n = super()._probe(abs(lit), TRUE if lit > 0 else FALSE)
            assert c is None, f"literal {lit} implied by probing {own} conflicts"
            assert n <= bounds[lit], f"literal {lit} fixes {n} > bound {bounds[lit]}"
        return conflict, fixed


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


def static_structure(solver, gp):
    """What `solver` should have built from `gp`, taken straight from the
    rule definitions: the nontrivial SCCs (atoms >= 2, size > 1 or a
    self-loop) of the positive dependency graph, the indexes of the rules
    defining an atom of each, the SCCs a rule of which has the atom in its
    positive (dirty_on_false) or negative (dirty_on_true) body, and the
    branch order: heads of non-basic rules, plus atoms that occur negatively
    and sit on a cycle of the full dependency graph."""
    rules = solver.rules
    atoms = range(2, solver.n_atoms + 1)
    pos_adj, full_adj = {}, {}
    for r in rules:
        for h in r.heads:
            pos_adj.setdefault(h, set()).update(b for b in r.pos if b >= 2)
            full_adj.setdefault(h, set()).update(b for b in r.pos + r.neg if b >= 2)
    sccs = _cyclic_components(pos_adj, atoms)
    scc_of = [-1] * (solver.n_atoms + 1)
    for ci, comp in enumerate(sccs):
        for a in comp:
            scc_of[a] = ci
    scc_rules = [[i for i, r in enumerate(rules) if any(scc_of[h] == ci for h in r.heads)]
                 for ci in range(len(sccs))]
    dirty_on_false = [tuple(ci for ci in range(len(sccs))
                            if any(a in rules[i].pos for i in scc_rules[ci]))
                      for a in range(solver.n_atoms + 1)]
    dirty_on_true = [tuple(ci for ci in range(len(sccs))
                           if any(a in rules[i].neg for i in scc_rules[ci]))
                     for a in range(solver.n_atoms + 1)]
    cyclic = {a for comp in _cyclic_components(full_adj, atoms) for a in comp}
    negative = {a for r in rules for a in r.neg}
    nonbasic = set()
    for src in gp.rules:
        if isinstance(src, BasicRule) or (
                isinstance(src, ConstraintRule) and src.bound == len(src.pos) + len(src.neg)):
            continue
        nonbasic.update(src.heads if isinstance(src, ChoiceRule) else (src.head,))
    branch_order = sorted(a for a in atoms if a in nonbasic or (a in cyclic and a in negative))
    return {"scc_atoms": sccs, "scc_of": scc_of, "scc_rules": scc_rules,
            "dirty_on_false": dirty_on_false, "dirty_on_true": dirty_on_true,
            "branch_order": branch_order}


def built_structure(solver):
    """The same views, read off a constructed Solver."""
    index = {id(r): i for i, r in enumerate(solver.rules)}
    return {"scc_atoms": solver.scc_atoms, "scc_of": solver.scc_of,
            "scc_rules": [sorted(index[id(r)] for r in rs) for rs in solver.scc_rules],
            "dirty_on_false": solver.dirty_on_false,
            "dirty_on_true": solver.dirty_on_true,
            "branch_order": list(solver.branch_order)}
