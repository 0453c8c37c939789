"""Backtracking stable-model search over primitive rules.

Propagation combines two closures run to a joint fixpoint:

  * forward/backward inference on rule counters (body satisfied => head
    true; head false => literals that would satisfy the body are refuted;
    an atom whose last possible supporting rule remains must be derived by
    it, so that rule's body literals get forced);
  * unfounded-set falsification: atoms outside the maximal optimistically
    derivable set are false. Recomputation is incremental per strongly
    connected component of the positive dependency graph.

Branching uses lookahead with failed-literal forcing: candidates are
probed both ways, a probe that conflicts forces the opposite value, and
otherwise the candidate fixing the most atoms (ties to the lowest id) is
chosen, positive branch first. A literal that an earlier successful probe
of the same round fixed is not probed in the failed-literal scan: by
monotonicity it cannot fail, and it fixes at most what that probe fixed,
which bounds its score. It is probed only if that bound could still win,
so the choices are those of probing every candidate both ways (Simons,
Niemelä and Soininen, AIJ 2002). Enumeration is chronological backtracking
with a decision flip, which visits each model exactly once. Atom ids are
dense: `pipeline` renumbers a program's atoms before it builds a Solver.
"""

from dataclasses import dataclass

from .analysis import strongly_connected_components
from .primitives import (
    BasicRule,
    ChoiceRule,
    ConstraintRule,
    WeightRule,
    normalize_weight_elements,
)

FALSITY = 1
UNKNOWN, TRUE, FALSE = 0, 1, 2


class UnsupportedRuleTypeError(Exception):
    pass


@dataclass(frozen=True)
class Conflict:
    atom: int


@dataclass
class SolveStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    probes: int = 0           # every lookahead probe, one literal each
    failed_literals: int = 0  # literals forced because a probe failed


class _ConflictSignal(Exception):
    def __init__(self, atom):
        self.atom = atom
        super().__init__(f"conflict on atom {atom}")


class _Rule:
    __slots__ = ("heads", "pos", "neg", "pw", "nw", "bound", "choice",
                 "wsat", "wmax", "active")

    def __init__(self, heads, pos, neg, pw, nw, bound, choice):
        self.heads = heads
        self.pos = pos
        self.neg = neg
        self.pw = pw  # None means unit weights
        self.nw = nw
        self.bound = bound
        self.choice = choice
        total = (len(pos) + len(neg)) if pw is None else (sum(pw) + sum(nw))
        self.wsat = 0
        self.wmax = total
        self.active = total >= bound

    def pos_items(self):
        return zip(self.pos, self.pw) if self.pw is not None else ((a, 1) for a in self.pos)

    def neg_items(self):
        return zip(self.neg, self.nw) if self.nw is not None else ((a, 1) for a in self.neg)


def _nontrivial_sccs(defs, with_neg):
    """Strongly connected components of size > 1 (or with a self-loop)
    among atoms 2..n, sorted, of the graph in which an atom depends on the
    positive (and, with_neg, the negative) body atoms of the rules in its
    `defs` entry. Integrity constraints, the rules defining atom 1, never
    enter the graph."""
    if with_neg:
        deps = [[a for r in rs for atoms in (r.pos, r.neg) for a in atoms] for rs in defs[2:]]
    else:
        deps = [[a for r in rs for a in r.pos] for rs in defs[2:]]
    adj = [(), ()] + deps
    return sorted(sorted(comp) for comp in strongly_connected_components(adj, first=2)
                  if len(comp) > 1 or comp[0] in adj[comp[0]])


def _unify(rule):
    """Internal form: (heads, pos, neg, pw, nw, bound, choice)."""
    if isinstance(rule, BasicRule):
        return _Rule((rule.head,), rule.pos, rule.neg, None, None,
                     len(rule.pos) + len(rule.neg), False)
    if isinstance(rule, ConstraintRule):
        return _Rule((rule.head,), rule.pos, rule.neg, None, None, rule.bound, False)
    if isinstance(rule, ChoiceRule):
        return _Rule(rule.heads, rule.pos, rule.neg, None, None,
                     len(rule.pos) + len(rule.neg), True)
    if isinstance(rule, WeightRule):
        pos, neg = rule.pos, rule.neg
        pw, nw = rule.pos_weights, rule.neg_weights
        bound = rule.bound
        if any(w < 0 for w in pw) or any(w < 0 for w in nw):
            elems = [(a, w) for a, w in zip(pos, pw)]
            elems += [(-a, w) for a, w in zip(neg, nw)]
            elems, bound = normalize_weight_elements(elems, bound)
            pos = tuple(l for l, _ in elems if l > 0)
            pw = tuple(w for l, w in elems if l > 0)
            neg = tuple(-l for l, _ in elems if l < 0)
            nw = tuple(w for l, w in elems if l < 0)
        return _Rule((rule.head,), pos, neg, pw, nw, bound, False)
    raise UnsupportedRuleTypeError(f"unsupported rule {rule!r}")


class Solver:
    """Enumerates the stable models of a ground primitive program."""

    lookahead_limit = 32  # candidates probed per lookahead round

    def __init__(self, gp):
        self.stats = SolveStats()

        n = max(gp.atom_count(), FALSITY)
        self.n_atoms = n
        self.values = [UNKNOWN] * (n + 1)
        self.trail = []
        self.qhead = 0
        self._started = False

        self.rules = [_unify(r) for r in gp.rules]
        self.occ_pos = [[] for _ in range(n + 1)]
        self.occ_neg = [[] for _ in range(n + 1)]
        self.defs = [[] for _ in range(n + 1)]
        self.supports = [0] * (n + 1)
        nonbasic = set()  # heads of choice, cardinality and weight rules
        for r in self.rules:
            for a, w in r.pos_items():
                self.occ_pos[a].append((r, w))
            for a, w in r.neg_items():
                self.occ_neg[a].append((r, w))
            for h in r.heads:
                self.defs[h].append(r)
                if r.active:
                    self.supports[h] += 1
            if r.choice or r.pw is not None or r.bound != len(r.pos) + len(r.neg):
                nonbasic.update(r.heads)

        self.compute_true = gp.compute_true
        self.compute_false = gp.compute_false
        self._setup_sccs()
        self._setup_branch_order(nonbasic)

    # -- static structure -------------------------------------------------------

    def _setup_sccs(self):
        """Nontrivial SCCs of the positive dependency graph, for ATMOST, with
        the rules defining each and the SCCs each atom's value can shrink."""
        n = self.n_atoms
        sccs = _nontrivial_sccs(self.defs, with_neg=False)
        self.scc_atoms = sccs
        self.scc_of = [-1] * (n + 1)
        self.scc_rules = []
        self.dirty_on_false = [()] * (n + 1)
        self.dirty_on_true = [()] * (n + 1)
        for ci, comp in enumerate(sccs):
            for a in comp:
                self.scc_of[a] = ci
            rules = list({id(r): r for a in comp for r in self.defs[a]}.values())
            self.scc_rules.append(rules)
            for r in rules:
                for dirty, atoms in ((self.dirty_on_false, r.pos),
                                     (self.dirty_on_true, r.neg)):
                    for a in atoms:
                        if not dirty[a] or dirty[a][-1] != ci:
                            dirty[a] += (ci,)
        self._dirty = set(range(len(sccs)))

    def _setup_branch_order(self, nonbasic):
        """Branch on the heads of choice, cardinality and weight rules and
        on negative literals that sit on a dependency cycle; everything else
        follows by propagation. With no negative literal there is no cycle
        to look for."""
        order = set(nonbasic)
        occ_neg = self.occ_neg
        if any(occ_neg[2:]):
            order.update(a for comp in _nontrivial_sccs(self.defs, with_neg=True)
                         for a in comp if occ_neg[a])
        order.discard(FALSITY)
        self.branch_order = sorted(order)

    # -- assignment primitives ----------------------------------------------------

    def _set(self, atom, value):
        cur = self.values[atom]
        if cur == value:
            return
        if cur != UNKNOWN:
            raise _ConflictSignal(atom)
        self.values[atom] = value
        self.trail.append(atom)

    def _undo_to(self, mark):
        values = self.values
        trail = self.trail
        for i in range(len(trail) - 1, mark - 1, -1):
            a = trail[i]
            if i < self.qhead:
                if values[a] == TRUE:
                    for r, w in self.occ_pos[a]:
                        r.wsat -= w
                    for r, w in self.occ_neg[a]:
                        self._unshrink(r, w)
                else:
                    for r, w in self.occ_pos[a]:
                        self._unshrink(r, w)
                    for r, w in self.occ_neg[a]:
                        r.wsat -= w
            values[a] = UNKNOWN
        del trail[mark:]
        if self.qhead > mark:
            self.qhead = mark

    def _unshrink(self, r, w):
        r.wmax += w
        if not r.active and r.wmax >= r.bound:
            r.active = True
            for h in r.heads:
                self.supports[h] += 1

    # -- ATLEAST propagation -----------------------------------------------------

    def _body_sat(self, r, w, pend):
        r.wsat += w
        if r.wsat >= r.bound and not r.choice:
            pend.append((r.heads[0], TRUE))
        elif not r.choice and self.values[r.heads[0]] == FALSE:
            self._contrapose(r, pend)

    def _body_shrink(self, r, w, pend):
        r.wmax -= w
        if r.active and r.wmax < r.bound:
            r.active = False
            for h in r.heads:
                self.supports[h] -= 1
                if self.supports[h] == 0:
                    pend.append((h, FALSE))
                elif self.supports[h] == 1 and self.values[h] == TRUE:
                    self._backchain_atom(h, pend)
        elif r.active and not r.choice and self.values[r.heads[0]] == TRUE:
            if self.supports[r.heads[0]] == 1:
                self._backchain_atom(r.heads[0], pend)

    def _contrapose(self, r, pend):
        """Head is false: refute any literal that alone satisfies the body."""
        if r.wsat >= r.bound:
            # body already satisfied; the flush below reports the conflict
            pend.append((r.heads[0], TRUE))
            return
        if not r.active:
            return
        gap = r.bound - r.wsat
        for a, w in r.pos_items():
            if self.values[a] == UNKNOWN and w >= gap:
                pend.append((a, FALSE))
        for a, w in r.neg_items():
            if self.values[a] == UNKNOWN and w >= gap:
                pend.append((a, TRUE))

    def _backchain_atom(self, h, pend):
        """h is true with one potential supporter left: its body must fire."""
        last = None
        for r in self.defs[h]:
            if r.active:
                if last is not None:
                    return  # supports[] counts rule occurrences, recheck
                last = r
        if last is None:
            pend.append((h, FALSE))
            return
        r = last
        slack = r.wmax - r.bound
        for a, w in r.pos_items():
            if self.values[a] == UNKNOWN and w > slack:
                pend.append((a, TRUE))
        for a, w in r.neg_items():
            if self.values[a] == UNKNOWN and w > slack:
                pend.append((a, FALSE))

    def _propagate(self):
        while self.qhead < len(self.trail):
            a = self.trail[self.qhead]
            self.qhead += 1
            self.stats.propagations += 1
            v = self.values[a]
            pend = []
            if v == TRUE:
                for r, w in self.occ_pos[a]:
                    self._body_sat(r, w, pend)
                for r, w in self.occ_neg[a]:
                    self._body_shrink(r, w, pend)
                if self.supports[a] == 0:
                    pend.append((a, FALSE))
                elif self.supports[a] == 1:
                    self._backchain_atom(a, pend)
                self._dirty.update(self.dirty_on_true[a])
            else:
                for r, w in self.occ_pos[a]:
                    self._body_shrink(r, w, pend)
                for r, w in self.occ_neg[a]:
                    self._body_sat(r, w, pend)
                for r in self.defs[a]:
                    if not r.choice:
                        self._contrapose(r, pend)
                self._dirty.update(self.dirty_on_false[a])
            for atom, value in pend:
                self._set(atom, value)

    # -- ATMOST (unfounded sets) ---------------------------------------------------

    def _atmost_scc(self, ci):
        values = self.values
        scc_of = self.scc_of
        derivable = set()
        queue = []
        avail = {}
        watch = {}
        for r in self.scc_rules[ci]:
            credit = 0
            for a, w in r.pos_items():
                if scc_of[a] == ci:
                    watch.setdefault(a, []).append((r, w))
                elif values[a] != FALSE:
                    credit += w
            for a, w in r.neg_items():
                if values[a] != TRUE:
                    credit += w
            avail[id(r)] = credit
            if credit >= r.bound:
                for h in r.heads:
                    if scc_of[h] == ci and values[h] != FALSE and h not in derivable:
                        derivable.add(h)
                        queue.append(h)
        qi = 0
        while qi < len(queue):
            a = queue[qi]
            qi += 1
            for r, w in watch.get(a, ()):
                before = avail[id(r)]
                avail[id(r)] = before + w
                if before < r.bound <= before + w:
                    for h in r.heads:
                        if scc_of[h] == ci and values[h] != FALSE and h not in derivable:
                            derivable.add(h)
                            queue.append(h)
        for a in self.scc_atoms[ci]:
            if values[a] != FALSE and a not in derivable:
                self._set(a, FALSE)

    # -- expand ---------------------------------------------------------------------

    def _start(self):
        self._started = True
        self._set(FALSITY, FALSE)
        for a in self.compute_true:
            self._set(a, TRUE)
        for a in self.compute_false:
            self._set(a, FALSE)
        for a in range(2, self.n_atoms + 1):
            if self.supports[a] == 0:
                self._set(a, FALSE)
        pend = []
        for r in self.rules:
            if r.wsat >= r.bound and not r.choice:
                pend.append((r.heads[0], TRUE))
        for atom, value in pend:
            self._set(atom, value)

    def expand(self):
        """Run propagation to fixpoint; None on success, else Conflict."""
        try:
            if not self._started:
                self._start()
            while True:
                self._propagate()
                if self._dirty:
                    ci = min(self._dirty)
                    self._dirty.discard(ci)
                    self._atmost_scc(ci)
                    continue
                return None
        except _ConflictSignal as c:
            self.stats.conflicts += 1
            return Conflict(c.atom)

    # -- lookahead and enumeration -----------------------------------------------

    def _probe(self, atom, value, bounds=None):
        """Set atom to value, expand, undo; returns (conflict, atoms fixed).

        With `bounds`, a successful probe lowers bounds[lit] to its count
        for every literal it fixed (lit is the atom if true, its negation if
        false). Propagation is monotone, so probing such a literal at the
        same assignment cannot conflict and fixes at most that many atoms.
        """
        self.stats.probes += 1
        mark = len(self.trail)
        self._set(atom, value)
        conflict = self.expand()
        fixed = len(self.trail) - mark
        if bounds is not None and conflict is None:
            values = self.values
            for b in self.trail[mark:]:
                lit = b if values[b] == TRUE else -b
                if bounds.get(lit, fixed) >= fixed:
                    bounds[lit] = fixed
        self._undo_to(mark)
        return conflict, fixed

    def _candidates(self):
        """Unassigned atoms of the branch order, else every unassigned atom."""
        values = self.values
        cands = [a for a in self.branch_order if values[a] == UNKNOWN]
        return cands or [a for a in range(2, self.n_atoms + 1) if values[a] == UNKNOWN]

    def _choose(self):
        """Next branching atom, or None when assignment is total.

        Each round probes the candidates in order, both ways, except a side
        that an earlier successful probe of the round already fixed: that
        side cannot fail, and `bounds` holds an upper bound on what it
        fixes. The first candidate with a failed side is forced the other
        way and the round restarts on the new fixpoint. Otherwise the
        candidate fixing the most atoms over both probes wins, ties to the
        lowest id. Candidates are visited by their score, or by its bound
        when a side was skipped, highest first; a skipped side is probed
        only while that bound could still beat the best score so far, so
        the choice is the one probing every side would make.
        """
        while True:
            cands = self._candidates()
            if not cands:
                return None
            limit = self.lookahead_limit
            if len(cands) > limit:
                step = len(cands) / limit
                cands = [cands[int(i * step)] for i in range(limit)]
            bounds = {}
            probed = []
            for a in cands:
                conflict_t = conflict_f = fixed_t = fixed_f = None
                if a not in bounds:
                    conflict_t, fixed_t = self._probe(a, TRUE, bounds)
                if -a not in bounds:
                    conflict_f, fixed_f = self._probe(a, FALSE, bounds)
                if conflict_t and conflict_f:
                    return Conflict(a)
                if conflict_t or conflict_f:
                    self.stats.failed_literals += 1
                    self._set(a, FALSE if conflict_t else TRUE)
                    c = self.expand()
                    if c:
                        return c
                    break
                probed.append((a, fixed_t, fixed_f))
            else:
                ranked = [((bounds[a] if t is None else t) + (bounds[-a] if f is None else f),
                           a, t, f) for a, t, f in probed]
                ranked.sort(key=lambda p: (-p[0], p[1]))
                best_atom = None
                best_score = -1
                for bound, a, fixed_t, fixed_f in ranked:
                    if not (bound > best_score or (bound == best_score and a < best_atom)):
                        break
                    if fixed_t is None:
                        fixed_t = self._probe(a, TRUE)[1]
                    if fixed_f is None:
                        fixed_f = self._probe(a, FALSE)[1]
                    score = fixed_t + fixed_f
                    if score > best_score or (score == best_score and a < best_atom):
                        best_score = score
                        best_atom = a
                return best_atom

    def _model(self):
        return tuple(a for a in range(2, self.n_atoms + 1)
                     if self.values[a] == TRUE)

    def models(self):
        """Yields stable models as sorted tuples of true atom ids."""
        if self.expand() is not None:
            return
        stack = []
        while True:
            chosen = self._choose()
            if isinstance(chosen, Conflict):
                if not self._backtrack(stack):
                    return
                continue
            if chosen is None:
                yield self._model()
                if not self._backtrack(stack):
                    return
                continue
            self.stats.decisions += 1
            stack.append([chosen, len(self.trail), False])
            self._set(chosen, TRUE)
            if self.expand() is not None:
                if not self._backtrack(stack):
                    return

    def _backtrack(self, stack):
        """Flip the deepest untried decision; False when tree is exhausted."""
        while stack:
            atom, mark, flipped = stack.pop()
            self._undo_to(mark)
            if flipped:
                continue
            stack.append([atom, mark, True])
            self.stats.decisions += 1
            self._set(atom, FALSE)
            if self.expand() is None:
                return True
            stack.pop()
            self._undo_to(mark)
        return False


# -- well-founded model --------------------------------------------------------------

def _least_model_basic(rules, assumed_true):
    """Least model of the basic-rule reduct w.r.t. the given negation set."""
    derived = set()
    remaining = []
    for r in rules:
        if any(b in assumed_true for b in r.neg):
            continue
        remaining.append([r.head, set(r.pos)])
    changed = True
    while changed:
        changed = False
        rest = []
        for item in remaining:
            item[1] -= derived
            if item[1]:
                rest.append(item)
            elif item[0] not in derived:
                derived.add(item[0])
                changed = True
        remaining = rest
    return derived


def well_founded(rules, extra_atoms=()):
    """Alternating-fixpoint well-founded model of a basic-rule program.

    Returns (true_set, false_set, unknown_set) over the atoms mentioned in
    the rules (plus extra_atoms), excluding the reserved falsity atom.
    """
    for r in rules:
        if not isinstance(r, BasicRule):
            raise UnsupportedRuleTypeError(
                f"well-founded mode handles basic rules only, got {type(r).__name__}")
    universe = set(extra_atoms)
    for r in rules:
        universe.add(r.head)
        universe.update(r.pos)
        universe.update(r.neg)
    universe.discard(FALSITY)

    known_true = set()
    while True:
        upper = _least_model_basic(rules, known_true)
        next_true = _least_model_basic(rules, upper)
        if next_true == known_true:
            break
        known_true = next_true
    known_true.discard(FALSITY)
    upper.discard(FALSITY)
    false = frozenset(universe - upper)
    return frozenset(known_true), false, frozenset(universe - known_true - false)
