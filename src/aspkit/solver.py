"""Backtracking stable-model search over primitive rules.

Propagation combines two closures run to a joint fixpoint:

  * forward/backward inference on rule counters (body satisfied => head
    true; head false => literals that would satisfy the body are refuted;
    an atom whose last possible supporting rule remains must be derived by
    it, so that rule's body literals get forced);
  * unfounded-set falsification (ATMOST): atoms outside the maximal
    optimistically derivable set are false. It runs per strongly connected
    component of the positive dependency graph, and only on the atoms
    whose source was lost.

Rules are parallel lists indexed by rule number: `bound`, the counters
`wsat` (weight of the body literals true so far) and `wmax` (weight of
those not yet false), `heads`, `head` (the single head, None for a choice
rule), and `pos`/`neg` with their weights `pw`/`nw` (None for unit
weights; negative weights are moved onto the complement at setup).
`occ_pos[a]` and `occ_neg[a]` hold the (rule, weight) pairs in which atom
a occurs, and `defs[a]` the rules with a among their heads. Setup builds
what the rules hold: `occ_pos` and `defs` have a list per atom, while
the atoms without entries in `occ_neg`, `imp_true` or `imp_false` share
one () there. The counted basic rules of a head share one `(h,)`.

A rule is dead once `wmax < bound`. `dead[r]` is the trail index of the
literal that made it so, -1 for a rule dead from the start, and `_LIVE`
while the rule can still fire; the live rules are the ones counted in
`supports`. Since wsat <= wmax < bound, a dead rule can neither fire nor
support its heads, and contraposition and backchaining ignore it, so the
literals after index dead[r] on the trail skip r. Backtracking skips r
for the same literals, so its counters come back exactly, and undoing the
literal at dead[r] revives it.

Backchaining from a true head into the last live rule supporting it forces
the open body literals whose weight exceeds the rule's slack, `wmax -
bound`. When a live rule loses weight while its head is true and has no
other support, `_propagate` backchains only if the slack has fallen below
`wtop[r]`, the rule's largest body weight (1 for unit weights), and the
body is not yet satisfied, `wsat < bound`. Otherwise no open literal
weighs more than the slack, since together they weigh at most `wmax -
wsat`, and nothing would be forced.

An integrity constraint with two body literals, `:- l1, l2` (a basic rule
with head 1), takes no rule number: its one inference is that a literal
true makes the other false. Each of its literals adds to the list of its
atom and the value that makes it true, `imp_true[a]` or `imp_false[a]`,
the pair (other atom, value falsifying the other literal), once per list.
`_propagate` queues the list of every literal it takes off the trail, and
the flush sets an open atom, skips one that has the value already and
reports a conflict on the opposite value. Nothing of it is counted, so
`_undo_to` has nothing to restore. A conflict is found as soon as the
first literal's list meets the second literal true, which can be before
the second literal is taken off the trail (Een and Sorensson, SAT 2003,
keep binary clauses the same way).

Setup finds the dependency cycles with Tarjan's algorithm only if the
atom ids allow one: when every body atom of every rule but an integrity
constraint has a lower id than each of the rule's heads, every edge of
the dependency graph leads to a lower id, and there is no cycle. Each
nontrivial SCC has a table built at setup: the rules defining its
atoms, their bounds, their positive literals inside the SCC, their heads
inside the SCC, and per SCC atom the (rule, weight) pairs it feeds and
the rules defining it. Rules are named there by their index k in the
table.

ATMOST keeps, for every atom not false of a nontrivial SCC, `src[a]`,
the rule that derived it in the SCC's last unfounded-set run, as
smodels keeps one source rule per atom (Simons, Niemelä and Soininen,
AIJ 2002). The sources found every such atom: each source is live, and
its credit from outside the SCC plus that of atoms derived before it
reaches its bound. They stay so until a source rule loses weight, so
`dirty_on_false[a]` (`dirty_on_true[a]`) holds an entry (scc, k, h) for
every rule k of an SCC with a in its positive (negative) body and every
head h of k in the SCC, and `_propagate` marks h lost only if `src[h] ==
k`. An SCC with no lost atom is not run: its atoms not false are all
founded, so a run could falsify none, and the trail, the model order and
every counter but `unfounded_runs` are those of running it on every loss
of weight. The first run of an SCC has every atom lost. A run logs each
source it changes with the trail length, and `_undo_to` restores the
sources changed after its mark, so a mark's sources come back with its
values.

Branching uses lookahead with failed-literal forcing. Each round probes
`_candidates()`, at most `LOOKAHEAD` evenly spaced open candidates, both
ways; a probe that conflicts forces the opposite value, and otherwise
the candidate with the highest `_score` of its two probe counts is
chosen, positive branch first. A literal that an earlier successful
probe of the same round fixed is not probed in the failed-literal scan:
by monotonicity it cannot fail, and it fixes at most what that probe
fixed, which bounds its score. It is probed only if that bound could
still win, so the choices are those of probing every candidate both ways
(Simons, Niemelä and Soininen, AIJ 2002).

The same monotonicity lets a probe's result outlive its round. `expand`
reaches the least fixpoint that contains the assignment, so each
successful probe is kept as the record of its literal: the trail length
it was taken at and the literals it fixed. While the trail below that
length stands and every literal assigned since is one the probe fixed
(every decision, flip and forced failed literal since, and so what they
implied), probing the literal again would reach the same fixpoint: it
cannot conflict, and it fixes the recorded literals still open. `_probe`
reads such a result off the record (`_recall`) instead of probing, as
march shares lookahead work between implied literals (Heule, Dufour, van
Zwieten and van Maaren, SAT 2004); it counts and bounds as the probe
would, so every choice stays. A literal keeps one record, its latest.

Enumeration is chronological backtracking over a stack holding, per
decision whose flip is untried, the atom and the trail length before it;
it visits each model exactly once. A decision sets the chosen atom true,
and a backtrack pops the newest entry, undoes to its trail length and
sets the atom false; a flip is its decision's last branch and keeps no
entry. Outside the probes only the expand at the root can conflict. The
lookahead probed both values of the atom it returns at the current
assignment, and it forces a failed literal's other value only when that
value's probe succeeded or an earlier successful probe of the round fixed
it. By monotonicity, setting a value that a successful probe at the same
assignment set or fixed reaches a fixpoint inside that probe's, which is
consistent. So neither a decision nor a forced value conflicts, and
neither does a flip, since undoing to its decision's mark restores the
assignment its probes saw. `_undo_to` is the one place that restores the
state above a mark: the values, the rule counters, the sources, and the
probe records, which it drops newest first from a log kept in the order
they were taken. The arrays indexed by atom id grow with the program,
not with its largest id: `Solver(gp)` numbers 1..k the atoms of a
program that does not carry its atom count (`compact_atom_ids`), and
reports its models under the program's own ids.
"""

import sys

from .ground_format import compact_atom_ids
from .records import Record
from .shared import (
    FALSITY,
    BasicRule,
    ChoiceRule,
    ConstraintRule,
    UnsupportedRuleTypeError,
    WeightRule,
    normalize_weight_elements,
    strongly_connected_components,
)

UNKNOWN, TRUE, FALSE = 0, 1, 2
_LIVE = sys.maxsize  # dead[r] of a rule that can still fire: above every trail index
LOOKAHEAD = 32  # candidates probed per lookahead round


class Conflict(Record):
    __slots__ = ("atom",)


class SolveStats(Record):
    __slots__ = ("decisions", "conflicts", "propagations",
                 "probes",           # lookahead probes run, one literal each; a result
                                     # read off a probe record is not one
                 "failed_literals",  # literals forced because a probe failed
                 "unfounded_runs")   # unfounded-set runs a lost source triggered
    _defaults = (0,) * len(__slots__)  # every counter starts at 0
    __hash__ = None


class _ConflictSignal(Exception):
    def __init__(self, atom):
        self.atom = atom
        super().__init__(f"conflict on atom {atom}")


def _cyclic_sccs(adj, first=0):
    """The strongly connected components of `adj` (see
    `strongly_connected_components`) of more than one node or with a
    self-loop."""
    return [comp for comp in strongly_connected_components(adj, first)
            if len(comp) > 1 or comp[0] in adj[comp[0]]]


def _append(rows, a, entry):
    """Append `entry` to row a of a table whose empty rows are one shared
    (), giving the atom a list of its own; return the row's new length."""
    row = rows[a]
    if row:
        row.append(entry)
        return len(row)
    rows[a] = [entry]
    return 1


class Solver:
    """Enumerates the stable models of a ground primitive program."""

    def __init__(self, gp):
        self.stats = SolveStats()
        gp, ids = compact_atom_ids(gp)
        self.n_atoms = n = max(gp.n_atoms, FALSITY)
        self._ids = ids or range(n + 1)  # _ids[a]: gp's own id of atom a
        self.values = [UNKNOWN] * (n + 1)
        self.trail = []
        self.qhead = 0
        self._started = False
        self._probed = {}  # literal -> record of its last successful probe, see _probe
        self._probed_log = []  # (trail length, literal) per record, in the order taken

        self.heads, self.head = heads, head = [], []
        self.pos, self.neg, self.pw, self.nw = pos, neg, pw, nw = [], [], [], []
        self.bound, self.wmax, self.dead = bound, wmax, dead = [], [], []
        self.wtop = wtop = []
        self.occ_pos = occ_pos = [[] for _ in range(n + 1)]
        self.defs = defs = [[] for _ in range(n + 1)]
        self.supports = supports = [0] * (n + 1)
        self.occ_neg = occ_neg = [()] * (n + 1)
        self.imp_true = imp_true = [()] * (n + 1)
        self.imp_false = imp_false = [()] * (n + 1)
        add_heads, add_head, add_pos, add_neg = heads.append, head.append, pos.append, neg.append
        add_pw, add_nw, add_bound, add_wmax = pw.append, nw.append, bound.append, wmax.append
        add_dead, add_wtop = dead.append, wtop.append
        single = {}  # head atom -> the one (h,) of its counted basic rules
        repeated = []  # (implication table, atom) of rows with a second entry
        acyclic = True  # every body atom below every head of its rule: no cycle
        nonbasic = set()  # heads of choice, cardinality and weight rules
        for rule in gp.rules:
            kind = type(rule)
            if kind is BasicRule:
                h, p, q = rule.head, rule.pos, rule.neg
                b = len(p) + len(q)
                if h == FALSITY and b == 2:
                    # per literal: the table read when it is true, its atom,
                    # and the value that falsifies it
                    (xs, x, fx), (ys, y, fy) = ([(imp_true, a, FALSE) for a in p]
                                                + [(imp_false, a, TRUE) for a in q])
                    for imp, a, entry in ((xs, x, (y, fy)), (ys, y, (x, fx))):
                        if _append(imp, a, entry) == 2:
                            repeated.append((imp, a))
                    continue
                r = len(bound)
                unit = (r, 1)
                for a in p:
                    occ_pos[a].append(unit)
                for a in q:
                    _append(occ_neg, a, unit)
                defs[h].append(r)
                supports[h] += 1
                hs = single.setdefault(h, (h,))
                if acyclic and h != FALSITY and (p and max(p) >= h or q and max(q) >= h):
                    acyclic = False
                add_pw(None)
                add_nw(None)
                add_wmax(b)
                add_dead(_LIVE)
                add_wtop(1)
            else:
                p_w = n_w = None
                if kind is ConstraintRule:
                    h, p, q, b = rule.head, rule.pos, rule.neg, rule.bound
                    total = len(p) + len(q)
                elif kind is ChoiceRule:
                    h, p, q = None, rule.pos, rule.neg
                    b = total = len(p) + len(q)
                elif kind is WeightRule:
                    h, p, q, b = rule.head, rule.pos, rule.neg, rule.bound
                    p_w, n_w = rule.pos_weights, rule.neg_weights
                    if any(w < 0 for w in p_w) or any(w < 0 for w in n_w):
                        elems = list(zip(p, p_w)) + [(-a, w) for a, w in zip(q, n_w)]
                        elems, b = normalize_weight_elements(elems, b)
                        p = tuple(l for l, _ in elems if l > 0)
                        p_w = tuple(w for l, w in elems if l > 0)
                        q = tuple(-l for l, _ in elems if l < 0)
                        n_w = tuple(w for l, w in elems if l < 0)
                    total = sum(p_w) + sum(n_w)
                else:
                    raise UnsupportedRuleTypeError(f"unsupported rule {rule!r}")
                r = len(bound)
                # a choice head listed twice is one head: it counts one support
                hs = tuple(dict.fromkeys(rule.heads)) if h is None else (h,)
                unit = (r, 1)
                pe = [unit] * len(p) if p_w is None else [(r, w) for w in p_w]
                ne = [unit] * len(q) if n_w is None else [(r, w) for w in n_w]
                add_wtop(1 if p_w is None else max((*p_w, *n_w), default=0))
                for a, entry in zip(p, pe):
                    occ_pos[a].append(entry)
                for a, entry in zip(q, ne):
                    _append(occ_neg, a, entry)
                live = total >= b
                for x in hs:
                    defs[x].append(r)
                    if live:
                        supports[x] += 1
                if acyclic and h != FALSITY and hs and (p or q) and max((*p, *q)) >= min(hs):
                    acyclic = False
                if h is None or p_w is not None or b != len(p) + len(q):
                    nonbasic.update(hs)
                add_pw(p_w)
                add_nw(n_w)
                add_wmax(total)
                add_dead(_LIVE if live else -1)
            add_heads(hs)
            add_head(h)
            add_pos(p)
            add_neg(q)
            add_bound(b)
        self.wsat = [0] * len(bound)
        for imp, a in repeated:
            imp[a] = list(dict.fromkeys(imp[a]))

        self.compute_true = gp.compute_true
        self.compute_false = gp.compute_false
        # The one pass over the full dependency graph, in which an atom
        # depends on the atoms of the bodies of its defining rules. Integrity
        # constraints, the rules defining atom 1, never enter it. No pass
        # when the ids certify that there is no cycle.
        full = [] if acyclic else _cyclic_sccs(
            [(), ()] + [[a for r in rs for body in (pos, neg) for a in body[r]]
                        for rs in defs[2:]], first=2)
        self._setup_sccs(full)
        self._setup_branch_order(nonbasic, full)

    # -- static structure -------------------------------------------------------

    def _setup_sccs(self, full):
        """Nontrivial SCCs of the positive dependency graph, for ATMOST: the
        table an unfounded-set run reads, the sources, and per atom the
        (scc, k, head) entries of the SCC rules its value can shrink. Each lies inside one of `full`, the
        nontrivial SCCs of the full graph, which setup finds in its one full
        pass; so only their atoms and the positive edges among them are
        searched, and nothing when `full` is empty."""
        n = self.n_atoms
        atoms = sorted(a for comp in full for a in comp)
        local = {a: i for i, a in enumerate(atoms)}
        adj = [[local[b] for r in self.defs[a] for b in self.pos[r] if b in local]
               for a in atoms]
        sccs = sorted(sorted(atoms[i] for i in comp) for comp in _cyclic_sccs(adj))
        self.scc_atoms = sccs
        self.scc_of = scc_of = [-1] * (n + 1)
        self.scc_tables = []
        self.src = [-1] * (n + 1)
        self._src_log = []
        self.dirty_on_false = dirty_on_false = [()] * (n + 1)
        self.dirty_on_true = dirty_on_true = [()] * (n + 1)
        for ci, comp in enumerate(sccs):
            for a in comp:
                scc_of[a] = ci
            rules = list(dict.fromkeys(r for a in comp for r in self.defs[a]))
            bounds, inside, inheads = [], [], []
            watch = {a: [] for a in comp}
            tdefs = {a: [] for a in comp}
            for k, r in enumerate(rules):
                bounds.append(self.bound[r])
                p = self.pos[r]
                feeds = [(a, w) for a, w in zip(p, self.pw[r] or (1,) * len(p))
                         if scc_of[a] == ci]
                for a, w in feeds:
                    watch[a].append((k, w))
                inside.append(feeds)
                hs = [h for h in self.heads[r] if scc_of[h] == ci]
                inheads.append(hs)
                for h in hs:
                    tdefs[h].append(k)
                for dirty, atoms in ((dirty_on_false, p), (dirty_on_true, self.neg[r])):
                    for a in dict.fromkeys(atoms):
                        for h in hs:
                            _append(dirty, a, (ci, k, h))
            self.scc_tables.append((rules, bounds, inside, inheads, watch, tdefs))
        # SCC -> its lost atoms; before its first run every atom is lost
        self._dirty = {ci: list(comp) for ci, comp in enumerate(sccs)}

    def _setup_branch_order(self, nonbasic, full):
        """Branch on the heads of choice, cardinality and weight rules and
        on negative literals, of counted rules or two-literal constraints,
        that sit on a dependency cycle, one of `full`, the nontrivial SCCs
        that setup's one full pass found; everything else follows by
        propagation."""
        order = set(nonbasic)
        occ_neg, imp_false = self.occ_neg, self.imp_false
        order.update(a for comp in full for a in comp if occ_neg[a] or imp_false[a])
        order.discard(FALSITY)
        self.branch_order = sorted(order)

    # -- assignment and backtracking ------------------------------------------------

    def _set(self, atom, value):
        cur = self.values[atom]
        if cur == value:
            return
        if cur != UNKNOWN:
            raise _ConflictSignal(atom)
        self.values[atom] = value
        self.trail.append(atom)

    def _undo_to(self, mark):
        """Unassign the trail from `mark` on, restoring the counters of the
        literals already propagated and the sources that unfounded-set runs
        changed after the mark, and drop the probe records taken above it.
        A mark is always a fixpoint, so no SCC is left to recompute."""
        values, trail, dead = self.values, self.trail, self.dead
        wsat, wmax, bound = self.wsat, self.wmax, self.bound
        heads, supports = self.heads, self.supports
        occ_pos, occ_neg = self.occ_pos, self.occ_neg
        qhead = self.qhead
        for i in range(len(trail) - 1, mark - 1, -1):
            a = trail[i]
            if i < qhead:
                if values[a] == TRUE:
                    sat, lost = occ_pos[a], occ_neg[a]
                else:
                    sat, lost = occ_neg[a], occ_pos[a]
                for r, w in sat:
                    if dead[r] >= i:
                        wsat[r] -= w
                for r, w in lost:
                    d = dead[r]
                    if d >= i:
                        m = wmax[r] + w
                        wmax[r] = m
                        if d == i and m >= bound[r]:
                            dead[r] = _LIVE
                            for h in heads[r]:
                                supports[h] += 1
            values[a] = UNKNOWN
        del trail[mark:]
        if qhead > mark:
            self.qhead = mark
        self._dirty.clear()
        log, src = self._src_log, self.src
        while log and log[-1][0] > mark:
            _, a, k = log.pop()
            src[a] = k
        log, probed = self._probed_log, self._probed
        while log and log[-1][0] > mark:
            # records are logged at non-decreasing trail lengths; a newer
            # record of the literal may have replaced this one and been
            # dropped before it
            probed.pop(log.pop()[1], None)

    # -- ATLEAST propagation -----------------------------------------------------

    def _contrapose(self, r, pend):
        """Head is false: refute any literal that alone satisfies the body.
        Called only for a live rule whose gap, bound - wsat, is at most
        wtop[r]: a larger gap leaves no literal heavy enough."""
        gap = self.bound[r] - self.wsat[r]
        if gap <= 0:
            # body already satisfied; the flush below reports the conflict
            pend.append((self.head[r], TRUE))
            return
        values = self.values
        for atoms, weights, value in ((self.pos[r], self.pw[r], FALSE),
                                      (self.neg[r], self.nw[r], TRUE)):
            if weights is None:
                # unit weights: wtop is 1, so the gap is 1
                for a in atoms:
                    if values[a] == UNKNOWN:
                        pend.append((a, value))
            else:
                for a, w in zip(atoms, weights):
                    if values[a] == UNKNOWN and w >= gap:
                        pend.append((a, value))

    def _backchain_atom(self, h, pend):
        """h is true and supports[h] is 1, so exactly one live rule of
        defs[h] is left: its body must fire."""
        dead = self.dead
        for r in self.defs[h]:
            if dead[r] == _LIVE:
                break
        if self.wsat[r] >= self.bound[r]:
            # the body holds: open literals weigh at most wmax - wsat <= slack
            return
        slack = self.wmax[r] - self.bound[r]
        values = self.values
        for atoms, weights, value in ((self.pos[r], self.pw[r], TRUE),
                                      (self.neg[r], self.nw[r], FALSE)):
            if weights is None:
                if slack < 1:
                    for a in atoms:
                        if values[a] == UNKNOWN:
                            pend.append((a, value))
            else:
                for a, w in zip(atoms, weights):
                    if values[a] == UNKNOWN and w > slack:
                        pend.append((a, value))

    def _propagate(self):
        """Propagate the trail from qhead on. The literal at index i visits
        the rules it occurs in, except those dead before i; a rule whose
        wmax falls below its bound dies at i and withdraws its support."""
        values, trail, dead = self.values, self.trail, self.dead
        wsat, wmax, bound, wtop = self.wsat, self.wmax, self.bound, self.wtop
        head, heads, supports, defs = self.head, self.heads, self.supports, self.defs
        occ_pos, occ_neg = self.occ_pos, self.occ_neg
        imp_true, imp_false = self.imp_true, self.imp_false
        dirty_on_true, dirty_on_false, dirty = self.dirty_on_true, self.dirty_on_false, self._dirty
        src = self.src
        contrapose, backchain = self._contrapose, self._backchain_atom
        start = i = self.qhead
        while i < len(trail):
            a = trail[i]
            v = values[a]
            # gains collects what the satisfied occurrences give. Those of a
            # false atom are its negative ones, and they queue after its
            # positive ones: the propagation count at a conflict depends on
            # the trail order.
            if v == TRUE:
                pend = gains = [*imp_true[a]]
                sat, lost = occ_pos[a], occ_neg[a]
            else:
                pend, gains = [*imp_false[a]], []
                sat, lost = occ_neg[a], occ_pos[a]
            for r, w in sat:
                if dead[r] < i:
                    continue
                s = wsat[r] + w
                wsat[r] = s
                h = head[r]
                if h is None:
                    continue
                if s >= bound[r]:
                    gains.append((h, TRUE))
                elif values[h] == FALSE and bound[r] - s <= wtop[r]:
                    contrapose(r, gains)
            for r, w in lost:
                d = dead[r]
                if d < i:
                    continue
                m = wmax[r] - w
                wmax[r] = m
                if d == i:
                    continue  # died earlier at this same literal
                b = bound[r]
                if m < b:
                    dead[r] = i
                    for x in heads[r]:
                        s = supports[x] - 1
                        supports[x] = s
                        if s == 0:
                            pend.append((x, FALSE))
                        elif s == 1 and values[x] == TRUE:
                            backchain(x, pend)
                elif m - b < wtop[r] and wsat[r] < b:
                    # r can still force: its slack is below its largest body
                    # weight and its body is not yet satisfied
                    h = head[r]
                    if h is not None and values[h] == TRUE and supports[h] == 1:
                        backchain(h, pend)
            if gains is not pend:
                pend += gains
            if v == TRUE:
                s = supports[a]
                if s == 0:
                    pend.append((a, FALSE))
                elif s == 1:
                    backchain(a, pend)
                d = dirty_on_true[a]
            else:
                # a rule with a satisfied body is live, and its gap is <= 0
                for r in defs[a]:
                    if head[r] is not None and dead[r] == _LIVE and bound[r] - wsat[r] <= wtop[r]:
                        contrapose(r, pend)
                d = dirty_on_false[a]
            if d:
                # rules of SCCs lost weight: the heads they are the source of are lost
                for ci, k, h in d:
                    if src[h] == k:
                        row = dirty.get(ci)
                        if row is None:
                            dirty[ci] = [h]
                        else:
                            row.append(h)
            i += 1
            for atom, value in pend:
                cur = values[atom]
                if cur != value:
                    if cur != UNKNOWN:
                        self.qhead = i
                        self.stats.propagations += i - start
                        raise _ConflictSignal(atom)
                    values[atom] = value
                    trail.append(atom)
        self.qhead = i
        self.stats.propagations += i - start

    # -- ATMOST (unfounded sets) ---------------------------------------------------

    def _atmost_scc(self, ci, lost):
        """Falsify the atoms of SCC ci that no rule can derive from atoms
        outside it that are not false, negative literals not true, and atoms
        inside it derived that way, given `lost`, the atoms whose source
        rule lost weight since the last run.

        Lost are the atoms of `lost` not false and, closed over the sources,
        every atom not false whose source has a lost atom in its positive
        body. Every other atom not false keeps its source, which founds it
        without a lost atom, so only the lost ones are derived again. Each
        rule defining a lost atom gets its credit before any is derived: a
        dead rule none, a live one its wmax less the weight of its lost
        in-SCC atoms. Runs with the trail fully propagated, so wmax counts
        exactly the literals not false. A rule whose credit reaches its
        bound becomes the source of its lost heads, which add their weight
        to the credits of the rules they feed. The kept and the derived
        atoms are then those a run with every atom lost derives, so the
        lost atoms left, falsified by id, are exactly those it falsifies.
        A run with no lost atom not false is not counted. Each source
        changed is logged with the trail length, for `_undo_to`."""
        values, src = self.values, self.src
        lost = [a for a in dict.fromkeys(lost) if values[a] != FALSE]
        if not lost:
            return
        self.stats.unfounded_runs += 1
        wmax, dead = self.wmax, self.dead
        rules, bounds, inside, inheads, watch, tdefs = self.scc_tables[ci]
        left = set(lost)  # lost atoms not derived again yet
        for a in lost:
            for k, _ in watch[a]:
                for h in inheads[k]:
                    if src[h] == k and h not in left and values[h] != FALSE:
                        left.add(h)
                        lost.append(h)
        avail = {}
        for a in lost:
            for k in tdefs[a]:
                if k not in avail:
                    r = rules[k]
                    if dead[r] != _LIVE:
                        avail[k] = -_LIVE
                        continue
                    credit = wmax[r]
                    for b, w in inside[k]:
                        if b in left:
                            credit -= w
                    avail[k] = credit
        log, mark = self._src_log, len(self.trail)
        ready = [k for k, credit in avail.items() if credit >= bounds[k]]
        for k in ready:
            for h in inheads[k]:
                if h not in left:
                    continue
                left.discard(h)
                if src[h] != k:
                    log.append((mark, h, src[h]))
                    src[h] = k
                for j, w in watch[h]:
                    before = avail.get(j)  # None: j defines no lost atom
                    if before is not None:
                        avail[j] = before + w
                        if before < bounds[j] <= before + w:
                            ready.append(j)
        for a in sorted(left):
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
        pend = [h for h, s, b in zip(self.head, self.wsat, self.bound)
                if h is not None and s >= b]
        for atom in pend:
            self._set(atom, TRUE)

    def expand(self):
        """Run propagation to fixpoint; None on success, else Conflict."""
        try:
            if not self._started:
                self._start()
            while True:
                self._propagate()
                if self._dirty:
                    ci = min(self._dirty)
                    self._atmost_scc(ci, self._dirty.pop(ci))
                    continue
                return None
        except _ConflictSignal as c:
            self.stats.conflicts += 1
            return Conflict(c.atom)

    # -- lookahead and enumeration -----------------------------------------------

    def _probe(self, lit, bounds=None):
        """Atoms fixed by setting the signed literal `lit` and expanding,
        undone again; 0 on a conflict, since a successful probe fixes at
        least its own atom. The count comes off `lit`'s record when
        `_recall` gives it, and no probe runs.

        A successful probe becomes the record of its literal, replacing an
        earlier one: the trail length it was taken at, the atoms it fixed,
        its own first, and their values. With `bounds`, it lowers
        bounds[l] to its count for every literal l it fixed. Propagation is
        monotone, so probing such a literal at the same assignment cannot
        conflict and fixes at most that many atoms.
        """
        opened = self._recall(lit)
        if opened is None:
            self.stats.probes += 1
            trail, values = self.trail, self.values
            mark = len(trail)
            self._set(abs(lit), TRUE if lit > 0 else FALSE)
            if self.expand() is not None:
                self._undo_to(mark)
                return 0
            atoms = trail[mark:]
            self._probed[lit] = (mark, atoms, bytes(map(values.__getitem__, atoms)))
            self._probed_log.append((mark, lit))
            if bounds is not None:
                opened = [b if values[b] == TRUE else -b for b in atoms]
            self._undo_to(mark)
            fixed = len(atoms)
        else:
            fixed = len(opened)
        if bounds is not None:
            for l in opened:
                if bounds.get(l, fixed) >= fixed:
                    bounds[l] = fixed
        return fixed

    def _recall(self, lit):
        """The literals probing `lit` now would fix, read off its record, or
        None when the record does not give them.

        The record holds the fixpoint of the assignment it was taken at
        plus lit, and `_undo_to` drops a record once the trail is undone
        below its length, so the trail up to that length is unchanged. If
        every literal assigned since is one the probe fixed, the current
        assignment lies between that assignment and the fixpoint, so
        expanding it with lit reaches the same fixpoint: no conflict, and
        the record's literals still open are the ones it fixes.
        """
        entry = self._probed.get(lit)
        if entry is None:
            return None
        base, atoms, fixpoint = entry
        trail = self.trail
        since = len(trail) - base
        if since >= len(atoms):
            return None
        values = self.values
        if since:
            # the first atom assigned since is a decision, a flip or a forced
            # failed literal, which most records do not hold
            b = trail[base]
            if b not in atoms or fixpoint[atoms.index(b)] != values[b]:
                return None
        opened = []
        for b, v in zip(atoms, fixpoint):
            cur = values[b]
            if cur == UNKNOWN:
                opened.append(b if v == TRUE else -b)
            elif cur != v:
                return None
        return opened if len(atoms) - len(opened) == since else None

    def _candidates(self):
        """The round's sample: at most `LOOKAHEAD` evenly spaced unassigned
        atoms of the branch order, else of every unassigned atom."""
        values = self.values
        cands = ([a for a in self.branch_order if values[a] == UNKNOWN]
                 or [a for a in range(2, self.n_atoms + 1) if values[a] == UNKNOWN])
        if len(cands) > LOOKAHEAD:
            step = len(cands) / LOOKAHEAD
            cands = [cands[int(i * step)] for i in range(LOOKAHEAD)]
        return cands

    def _score(self, fixed_t, fixed_f, atom):
        """The key a lookahead round maximises over its candidates, given
        the atoms each of the candidate's probes fixes: the sum, ties to
        the lowest id. `_choose` ranks the candidates by this key of their
        bounds, so the key must never fall when a count grows; and it holds
        the atom, so no two candidates tie."""
        return fixed_t + fixed_f, -atom

    def _choose(self):
        """Next branching atom, None when the assignment is total, or a
        Conflict when a candidate fails both ways.

        Each round probes `_candidates()` in order, both ways, except a side
        that an earlier successful probe of the round already fixed: that
        side cannot fail, and `bounds` holds an upper bound on what it
        fixes. The first candidate with a failed side is forced the other
        way and the round restarts on the new fixpoint. Otherwise the
        candidate with the highest `_score` wins. Candidates are visited by
        their score, or by its value on the bounds when a side was skipped,
        highest first; a skipped side is probed only while that value could
        still beat the best score so far, so the choice is the one probing
        every side would make. `_probe` reads a side off its probe record
        when it can (`_recall`), with the count and bounds the probe would
        give, so no choice moves.
        """
        probe, score = self._probe, self._score
        while True:
            cands = self._candidates()
            if not cands:
                return None
            bounds = {}
            probed = []
            for a in cands:
                fixed_t = probe(a, bounds) if a not in bounds else None
                fixed_f = probe(-a, bounds) if -a not in bounds else None
                if fixed_t == 0 and fixed_f == 0:
                    return Conflict(a)
                if fixed_t == 0 or fixed_f == 0:
                    self.stats.failed_literals += 1
                    self._set(a, FALSE if fixed_t == 0 else TRUE)
                    self.expand()  # cannot conflict, see the module docstring
                    break
                probed.append((a, fixed_t, fixed_f))
            else:
                ranked = [(score(bounds[a] if t is None else t,
                                 bounds[-a] if f is None else f, a), a, t, f)
                          for a, t, f in probed]
                ranked.sort(key=lambda p: p[0], reverse=True)
                best_atom = best = None
                for bound, a, fixed_t, fixed_f in ranked:
                    if best is not None and bound <= best:
                        break
                    key = score(probe(a) if fixed_t is None else fixed_t,
                                probe(-a) if fixed_f is None else fixed_f, a)
                    if best is None or key > best:
                        best_atom, best = a, key
                return best_atom

    def _model(self):
        ids, values = self._ids, self.values
        return tuple(ids[a] for a in range(2, self.n_atoms + 1) if values[a] == TRUE)

    def models(self):
        """Yields stable models as sorted tuples of true atom ids.

        `stack` holds (atom, trail length) for every decision whose flip
        is untried; a branch ends at a model or at a candidate that fails
        both ways, and then the newest entry is flipped. Outside the
        lookahead's probes only the root expand can conflict (see the
        module docstring), so no other expand is checked.
        """
        if self.expand() is not None:
            return
        stack = []
        trail = self.trail
        root = len(trail)
        while True:
            atom = self._choose()
            if atom is None:
                yield self._model()
            if atom is None or isinstance(atom, Conflict):
                if not stack:
                    self._undo_to(root)  # the tree is done: back to the root fixpoint
                    return
                # a flip is its decision's last branch, so it keeps no entry
                atom, mark = stack.pop()
                self._undo_to(mark)
                value = FALSE
            else:
                stack.append((atom, len(trail)))
                value = TRUE
            self.stats.decisions += 1
            self._set(atom, value)
            self.expand()
