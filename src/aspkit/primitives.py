"""Translation of ground rules into the primitive rule types.

The solver and the numeric interchange format know four rule shapes: basic,
choice, cardinality constraint, and weight. Their records live in `shared`,
which both halves import; this module is the last stage of the front end,
since it reads the grounder's aggregates (`GAgg`). Aggregates in rule bodies turn
into auxiliary "at least" atoms (positive for the lower bound, negated for
the upper); an aggregate head becomes a choice rule plus two integrity
constraints over the same auxiliaries. Each source construct expands into a
bounded number of primitive rules, so the translation is linear.

The grounder already builds the `BasicRule` of each instance whose body is
plain literals, positive ones first, under an atom head or none, and
`translate_program` passes such records through; `translate_rule`
translates every `GRule`, a plain one with a negative literal first among
them. Auxiliary atoms are allocated after all user atoms, in rule order,
which keeps the output deterministic.
"""

from .grounding import GAgg, GRule
from .shared import (
    FALSITY,
    BasicRule,
    ChoiceRule,
    ConstraintRule,
    WeightRule,
    normalize_weight_elements,
)


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
    """Translates ground rules in order, allocating aux atom ids in
    `table`; a primitive record, which the grounder makes where
    `translate_rule` would, passes through."""
    out = []
    for grule in grules:
        if type(grule) is GRule:
            translate_rule(grule, table, out)
        else:
            out.append(grule)
    return out
