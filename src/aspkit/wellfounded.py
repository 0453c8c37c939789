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
decrements the rules it occurs in through its watch list, and a rule whose
count reaches zero derives its head. A rule blocked by the assumed set never
reaches zero. The heads, the counts, the watch lists and the rules with a
negative body are built once and shared by every least model.

A program without negative literals has one reduct, so its well-founded
model is its least model, computed once.
"""

from .grounding import FALSITY
from .primitives import BasicRule, UnsupportedRuleTypeError


def well_founded(rules, extra_atoms=()):
    """Alternating-fixpoint well-founded model of a basic-rule program.

    Returns (true_set, false_set, unknown_set) over the atoms mentioned in
    the rules (plus extra_atoms), excluding the reserved falsity atom.
    """
    heads, counts, negative = [], [], []
    watch = {}
    for r, rule in enumerate(rules):
        if not isinstance(rule, BasicRule):
            raise UnsupportedRuleTypeError(
                f"well-founded mode handles basic rules only, got {type(rule).__name__}")
        p = rule.pos
        heads.append(rule.head)
        counts.append(len(p))
        for a in p:
            watch.setdefault(a, []).append(r)
        if rule.neg:
            negative.append((r, rule.neg))
    universe = set(extra_atoms)
    universe.update(heads)
    universe.update(watch)
    for _, q in negative:
        universe.update(q)
    universe.discard(FALSITY)

    def least_model(assumed):
        """Least model of the reduct by `assumed`: one queue pass."""
        left = counts[:]
        for r, q in negative:
            for b in q:
                if b in assumed:
                    left[r] = -1  # blocked: only decremented, never zero
                    break
        derived = set()
        queue = [heads[r] for r, c in enumerate(left) if c == 0]
        for a in queue:
            if a in derived:
                continue
            derived.add(a)
            for r in watch.get(a, ()):
                c = left[r] - 1
                left[r] = c
                if c == 0:
                    queue.append(heads[r])
        return derived

    upper = least_model(())
    if negative:
        while True:
            true = least_model(upper)
            shrunk = least_model(true)
            if shrunk == upper:
                break
            upper = shrunk
    else:
        true = upper
    true.discard(FALSITY)
    false = frozenset(universe.difference(upper))
    return frozenset(true), false, frozenset(universe - true - false)
