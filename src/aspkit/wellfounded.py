"""Well-founded model of a basic-rule program.

Van Gelder's alternating fixpoint (1989/1993): with G(S) the least model of
the reduct by S (drop every rule whose negative body meets S, then drop the
negative bodies), the atoms true in the well-founded model are the least
fixpoint of G(G(.)), and the atoms not false are G of that set. Starting
from nothing assumed true, the sets G(G(...G(0))) grow and their images
shrink, so the iteration stops at the first image that equals the one
before it.

Each least model is computed by counting (Dowling and Gallier, J. Logic
Programming 1984), in time linear in the size of the program: every rule
keeps the number of its positive body atoms not yet derived, a derived atom
decrements the rules it occurs in, and a rule whose count reaches zero
derives its head; a rule blocked by the assumed set never does. The heads,
the counts, the rules with a negative body and the positive occurrences
(two flat lists linked per atom) are shared by every least model.

A program without negative literals has one reduct, whose least model is
its well-founded model. The false atoms, often most of them, are collected
once the counts and occurrence lists are dropped.
"""

from itertools import chain, filterfalse

from .shared import FALSITY, BasicRule, UnsupportedRuleTypeError


def well_founded(rules, extra_atoms=()):
    """Alternating-fixpoint well-founded model of a basic-rule program.

    Returns the sets (true, false, unknown) over the atoms mentioned in the
    rules (plus extra_atoms, an iterable read once), excluding the reserved
    falsity atom.
    """
    # Occurrence o of an atom in a positive body is in rule rule_of[o], after
    # occurrence previous[o] of the same atom (-1: none); last[a] is a's last.
    heads, counts, negative, last, rule_of, previous = [], [], [], {}, [], []
    for r, rule in enumerate(rules):
        if not isinstance(rule, BasicRule):
            raise UnsupportedRuleTypeError(
                f"well-founded mode handles basic rules only, got {type(rule).__name__}")
        p = rule.pos
        heads.append(rule.head)
        counts.append(len(p))
        for a in p:
            previous.append(last.get(a, -1))
            last[a] = len(rule_of)
            rule_of.append(r)
        if rule.neg:
            negative.append((r, rule.neg))

    def least_model(assumed):
        """Least model of the reduct by `assumed`: one queue pass."""
        left = counts[:]
        for r, q in negative:
            if not assumed.isdisjoint(q):
                left[r] = -1  # blocked: only decremented, never zero
        derived = set()
        queue = [heads[r] for r, c in enumerate(left) if c == 0]
        for a in queue:
            if a in derived:
                continue
            derived.add(a)
            o = last.get(a, -1)
            while o >= 0:
                r = rule_of[o]
                c = left[r] - 1
                left[r] = c
                if c == 0:
                    queue.append(heads[r])
                o = previous[o]
        return derived

    upper = true = least_model(set())
    while negative:  # else the one reduct's least model is the model
        true = least_model(upper)
        shrunk = least_model(true)
        if shrunk == upper:
            break
        upper = shrunk
    del counts, rule_of, previous  # not held while the set of false atoms grows
    false = set(filterfalse(upper.__contains__, chain(
        extra_atoms, heads, last, chain.from_iterable(q for _, q in negative))))
    unknown = upper - true
    for atoms in (true, false, unknown):
        atoms.discard(FALSITY)
    return true, false, unknown
