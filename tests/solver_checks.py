"""Test-side views of the solver's internals.

`state_fingerprint` digests the search state that propagation must leave
unchanged at a fixpoint and that backtracking must restore. `CheckedSolver`
holds the incremental, per-SCC unfounded-set propagation to the global
recompute of the optimistically derivable set at every fixpoint it reaches.
"""

from aspkit.solver import FALSE, TRUE, Solver


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
