"""Translation of ground rules into the primitive rule types.

The solver and the numeric interchange format know four rule shapes: basic,
choice, cardinality constraint, and weight. Aggregates in rule bodies turn
into auxiliary "at least" atoms (positive for the lower bound, negated for
the upper); an aggregate head becomes a choice rule plus two integrity
constraints over the same auxiliaries. Each source construct expands into a
bounded number of primitive rules, so the translation is linear.

Auxiliary atoms are allocated after all user atoms, in rule order, which
keeps the output deterministic.
"""

from .grounding import FALSITY, GAgg
from .records import Record


class UnsupportedRuleTypeError(Exception):
    """A rule of a type the consumer of a primitive program cannot handle."""


class BasicRule(Record):
    __slots__ = ("head", "pos", "neg")

    def __init__(self, head, pos, neg):
        self.head = head
        self.pos = pos
        self.neg = neg


class ConstraintRule(Record):
    """head derivable when at least `bound` body literals hold."""
    __slots__ = ("head", "bound", "pos", "neg")

    def __init__(self, head, bound, pos, neg):
        self.head = head
        self.bound = bound
        self.pos = pos
        self.neg = neg


class ChoiceRule(Record):
    __slots__ = ("heads", "pos", "neg")

    def __init__(self, heads, pos, neg):
        self.heads = heads
        self.pos = pos
        self.neg = neg


class WeightRule(Record):
    """head derivable when the satisfied weights sum to at least `bound`."""
    __slots__ = ("head", "bound", "pos", "neg", "pos_weights", "neg_weights")

    def __init__(self, head, bound, pos, neg, pos_weights, neg_weights):
        self.head = head
        self.bound = bound
        self.pos = pos
        self.neg = neg
        self.pos_weights = pos_weights
        self.neg_weights = neg_weights


def normalize_weight_elements(elements, bound):
    """Merge duplicates and rewrite negative weights on the complement.

    (lit, w) with w < 0 becomes (not lit, -w) with the bound raised by -w,
    since w*[lit] = -w*[not lit] + w. Zero-weight elements vanish. The
    resulting bound is clamped at 0; a bound above the weight total is left
    alone (such a rule can never fire, which is a legal way to encode an
    unsatisfiable condition).
    """
    merged = {}
    order = []
    for lit, w in elements:
        if lit in merged:
            merged[lit] += w
        else:
            merged[lit] = w
            order.append(lit)
    out = {}
    order2 = []

    def add(lit, w):
        if lit in out:
            out[lit] += w
        else:
            out[lit] = w
            order2.append(lit)

    for lit in order:
        w = merged[lit]
        if w < 0:
            bound += -w
            add(-lit, -w)
        elif w > 0:
            add(lit, w)
    final = tuple((lit, out[lit]) for lit in order2 if out[lit] != 0)
    return final, max(bound, 0)


def _split_signed(lits):
    pos = tuple(l for l in lits if l > 0)
    neg = tuple(-l for l in lits if l < 0)
    return pos, neg


def _normalized_halves(agg):
    """((elements, bound) or None) for the lower and upper 'at least' tests."""
    halves = []
    for raw in (agg.lower, None if agg.upper is None else agg.upper + 1):
        if raw is None:
            halves.append(None)
        elif agg.weighted:
            halves.append(normalize_weight_elements(agg.elements, raw))
        else:
            halves.append((agg.elements, max(raw, 0)))
    return halves


def _emit_atleast(out, table, agg, elements, bound):
    """Defines and returns an aux atom true iff the bound is reached.

    Returns None for a trivially satisfied bound (no atom needed). A bound
    above the total is clamped to total+1, leaving an aux that never fires.
    """
    if bound <= 0:
        return None
    aux = table.new_aux()
    if agg.weighted:
        total = sum(w for _, w in elements)
        bound = min(bound, total + 1)
        neg = tuple(-l for l, _ in elements if l < 0)
        pos = tuple(l for l, _ in elements if l > 0)
        neg_w = tuple(w for l, w in elements if l < 0)
        pos_w = tuple(w for l, w in elements if l > 0)
        out.append(WeightRule(aux, bound, pos, neg, pos_w, neg_w))
    else:
        bound = min(bound, len(elements) + 1)
        pos, neg = _split_signed([l for l, _ in elements])
        out.append(ConstraintRule(aux, bound, pos, neg))
    return aux


def translate_rule(grule, table, out):
    """Appends the primitive rules for one ground rule to `out`."""
    # Pre-compute aggregate bounds so a dead rule allocates no aux atoms.
    body_halves = []
    for b in grule.body:
        if isinstance(b, GAgg):
            lower, upper = _normalized_halves(b)
            if upper is not None and upper[1] <= 0:
                return  # the "at most" part can never hold; rule never fires
            body_halves.append((b, lower, upper))

    body_pos = []
    body_neg = []
    agg_iter = iter(body_halves)
    for b in grule.body:
        if isinstance(b, int):
            (body_pos if b > 0 else body_neg).append(abs(b))
            continue
        agg, lower, upper = next(agg_iter)
        if lower is not None:
            g = _emit_atleast(out, table, agg, *lower)
            if g is not None:
                body_pos.append(g)
        if upper is not None:
            g = _emit_atleast(out, table, agg, *upper)
            body_neg.append(g)  # never None: bound > 0 was checked above
    body_pos = tuple(body_pos)
    body_neg = tuple(body_neg)

    if grule.head_agg is None:
        head = FALSITY if grule.head is None else grule.head
        out.append(BasicRule(head, body_pos, body_neg))
        return

    agg = grule.head_agg
    heads = tuple(l for l, _ in agg.elements)
    if heads:
        out.append(ChoiceRule(heads, body_pos, body_neg))
    lower, upper = _normalized_halves(agg)
    if lower is not None:
        g = _emit_atleast(out, table, agg, *lower)
        if g is not None:
            out.append(BasicRule(FALSITY, body_pos, body_neg + (g,)))
    if upper is not None:
        if upper[1] <= 0:
            # more than the upper bound is unavoidable: plain constraint
            out.append(BasicRule(FALSITY, body_pos, body_neg))
        else:
            g = _emit_atleast(out, table, agg, *upper)
            out.append(BasicRule(FALSITY, body_pos + (g,), body_neg))


def translate_program(grules, table):
    """Translates ground rules, allocating aux atom ids in `table`."""
    out = []
    for grule in grules:
        translate_rule(grule, table, out)
    return out
