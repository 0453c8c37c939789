"""Reference semantics used to cross-check the search engine.

Two deliberately separate routes are kept here:

  * reduct / least_model / is_stable / brute_force_models work on primitive
    rules, mirroring the textbook definition of a stable model;
  * the source_* functions evaluate ground pre-translation rules (GRule with
    embedded aggregates) directly, without going through the primitive
    translation at all, so translation bugs cannot hide.

There is also a tiny self-contained evaluator for definite source programs,
used to double-check the grounder's bottom-up evaluation.

Everything in this module favours obviousness over speed, and it imports
nothing of the front end at load time, so that `verify` loads none of it.
"""

import itertools

from .records import Record
from .shared import FALSITY, BasicRule, ChoiceRule, ConstraintRule, WeightRule


class CapExceededError(Exception):
    pass


class ComputeSpec(Record):
    """Search control: atoms forced true or false."""
    __slots__ = ("required_true", "required_false")

    def __init__(self, required_true=frozenset(), required_false=frozenset()):
        self.required_true = frozenset(required_true)
        self.required_false = frozenset(required_false)
        if self.required_true & self.required_false:
            raise ValueError("an atom is required both true and false")


# -- primitive-rule route ----------------------------------------------------------

def reduct(rules, model):
    """Negation-free program whose least model tests stability of `model`."""
    m = frozenset(model)
    out = []
    for r in rules:
        if isinstance(r, BasicRule):
            if any(b in m for b in r.neg):
                continue
            out.append(BasicRule(r.head, r.pos, ()))
        elif isinstance(r, ConstraintRule):
            met = sum(1 for b in r.neg if b not in m)
            out.append(ConstraintRule(r.head, max(0, r.bound - met), r.pos, ()))
        elif isinstance(r, WeightRule):
            met = sum(w for b, w in zip(r.neg, r.neg_weights) if b not in m)
            out.append(WeightRule(r.head, max(0, r.bound - met),
                                  r.pos, (), r.pos_weights, ()))
        elif isinstance(r, ChoiceRule):
            if all(b not in m for b in r.neg):
                for h in r.heads:
                    if h in m:
                        out.append(BasicRule(h, r.pos, ()))
        else:
            raise TypeError(f"unknown rule type {type(r).__name__}")
    return out


def least_model(rules):
    """Least model of a negation-free program, by naive iteration."""
    derived = set()
    changed = True
    while changed:
        changed = False
        for r in rules:
            if r.neg:
                raise ValueError("least_model expects a negation-free program")
            if isinstance(r, BasicRule):
                fire = all(a in derived for a in r.pos)
            elif isinstance(r, ConstraintRule):
                fire = sum(1 for a in r.pos if a in derived) >= r.bound
            elif isinstance(r, WeightRule):
                fire = sum(w for a, w in zip(r.pos, r.pos_weights)
                           if a in derived) >= r.bound
            else:
                raise TypeError(f"unexpected rule type {type(r).__name__}")
            if fire and r.head not in derived:
                derived.add(r.head)
                changed = True
    return derived


def is_stable(rules, model, spec=None):
    m = frozenset(model)
    if FALSITY in m:
        return False
    if spec is not None:
        if not m.issuperset(spec.required_true):
            return False
        if m & spec.required_false:
            return False
    return m == frozenset(least_model(reduct(rules, m)))


def _rule_atoms(rules):
    atoms = set()
    for r in rules:
        atoms.update(r.heads if isinstance(r, ChoiceRule) else (r.head,))
        atoms.update(r.pos)
        atoms.update(r.neg)
    atoms.discard(FALSITY)
    return atoms


def brute_force_models(rules, spec=None, cap=20):
    """All stable models by trying every subset of the mentioned atoms."""
    universe = sorted(_rule_atoms(rules))
    if spec is not None:
        universe = sorted(set(universe) | spec.required_true | spec.required_false)
    if len(universe) > cap:
        raise CapExceededError(
            f"{len(universe)} atoms exceed the brute-force cap of {cap}")
    models = []
    for mask in range(1 << len(universe)):
        m = frozenset(a for i, a in enumerate(universe) if mask >> i & 1)
        if is_stable(rules, m, spec):
            models.append(m)
    return models


# -- ground source-level route -------------------------------------------------------

def _agg_value(elements, holds):
    """Sum of weights of the aggregate elements satisfied under `holds`."""
    total = 0
    for lit, w in elements:
        if holds(lit):
            total += w
    return total


def _agg_nonneg(agg):
    """(lower, upper, elements) of `agg` with negative weights flipped onto
    the complementary literal.

    `w < 0` on a literal counts exactly when the literal fails, so it is
    the same constraint as weight -w on the opposite literal with both
    bounds shifted. Satisfaction is unchanged; the derivability fixpoint
    needs the nonnegative form to stay monotone.
    """
    shift = 0
    elements = []
    for lit, w in agg.elements:
        if w < 0:
            elements.append((-lit, -w))
            shift -= w
        else:
            elements.append((lit, w))
    lower = None if agg.lower is None else agg.lower + shift
    upper = None if agg.upper is None else agg.upper + shift
    return lower, upper, elements


def _agg_within(agg, holds):
    v = _agg_value(agg.elements, holds)
    if agg.lower is not None and v < agg.lower:
        return False
    if agg.upper is not None and v > agg.upper:
        return False
    return True


def _holds_in(model):
    def holds(lit):
        return (lit in model) if lit > 0 else (-lit not in model)
    return holds


def _source_body_sat(body, model):
    holds = _holds_in(model)
    for part in body:
        if isinstance(part, int):
            if not holds(part):
                return False
        elif not _agg_within(part, holds):
            return False
    return True


def source_satisfies(grules, model):
    """Classical satisfaction of ground source rules by a set of atom ids."""
    m = frozenset(model)
    holds = _holds_in(m)
    for r in grules:
        if not _source_body_sat(r.body, m):
            continue
        if r.head_agg is not None:
            if not _agg_within(r.head_agg, holds):
                return False
        elif r.head is None or r.head == FALSITY:
            return False
        elif r.head not in m:
            return False
    return True


def source_is_stable(grules, model, required_true=(), required_false=()):
    """Stability checked directly on ground source rules.

    A model must satisfy every rule, and every atom in it must be derivable
    by a fixpoint in which positive conditions are read from the derived set
    while negative conditions and upper bounds are read from the model.
    """
    m = frozenset(model)
    if FALSITY in m:
        return False
    if not m.issuperset(required_true) or m & frozenset(required_false):
        return False
    if not source_satisfies(grules, m):
        return False

    holds_m = _holds_in(m)

    def agg_fires(agg, justified):
        lower, upper, elements = _agg_nonneg(agg)
        if upper is not None and _agg_value(elements, holds_m) > upper:
            return False
        if lower is None:
            return True
        lo = 0
        for lit, w in elements:
            if lit > 0:
                if lit in justified:
                    lo += w
            elif -lit not in m:
                lo += w
        return lo >= lower

    justified = set()
    changed = True
    while changed:
        changed = False
        for r in grules:
            if r.head_agg is None and (r.head is None or r.head == FALSITY):
                continue
            fires = True
            for part in r.body:
                if not isinstance(part, int):
                    if not agg_fires(part, justified):
                        fires = False
                        break
                elif part > 0:
                    if part not in justified:
                        fires = False
                        break
                elif -part in m:
                    fires = False
                    break
            if not fires:
                continue
            if r.head_agg is not None:
                for lit, _ in r.head_agg.elements:
                    if lit > 0 and lit in m and lit not in justified:
                        justified.add(lit)
                        changed = True
            elif r.head in m and r.head not in justified:
                justified.add(r.head)
                changed = True
    return justified == set(m)


def _grule_atoms(grules):
    atoms = set()
    for r in grules:
        if r.head is not None:
            atoms.add(r.head)
        aggs = [p for p in r.body if not isinstance(p, int)]
        if r.head_agg is not None:
            aggs.append(r.head_agg)
        for part in r.body:
            if isinstance(part, int):
                atoms.add(abs(part))
        for agg in aggs:
            for lit, _ in agg.elements:
                atoms.add(abs(lit))
    atoms.discard(FALSITY)
    return atoms


def source_models(grules, required_true=(), required_false=(), cap=20):
    """All stable models of ground source rules, by exhaustive search."""
    universe = sorted(_grule_atoms(grules) | set(required_true) | set(required_false))
    if len(universe) > cap:
        raise CapExceededError(
            f"{len(universe)} atoms exceed the brute-force cap of {cap}")
    models = []
    for mask in range(1 << len(universe)):
        m = frozenset(a for i, a in enumerate(universe) if mask >> i & 1)
        if source_is_stable(grules, m, required_true, required_false):
            models.append(m)
    return models


# -- definite source programs -------------------------------------------------------

def _naive_eval(term, binding):
    from . import syntax

    if isinstance(term, syntax.Integer):
        return term.value
    if isinstance(term, syntax.SymbolicConst):
        return term.name
    if isinstance(term, syntax.Variable):
        return binding[term.name]
    if isinstance(term, syntax.FuncApp):
        vals = [_naive_eval(a, binding) for a in term.args]
        if not all(isinstance(v, int) for v in vals):
            raise ValueError("arithmetic on a symbolic value")
        if term.op == "abs":
            return abs(vals[0])
        if term.op == "-" and len(vals) == 1:
            return -vals[0]
        a, b = vals
        if term.op == "+":
            return a + b
        if term.op == "-":
            return a - b
        if term.op == "*":
            return a * b
        if b == 0:
            raise ZeroDivisionError
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        if term.op == "/":
            return q
        return a - q * b  # mod
    raise ValueError(f"cannot evaluate {term!r}")


_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _render(pred, args):
    if not args:
        return pred
    return f"{pred}({','.join(str(a) for a in args)})"


def naive_least_model(program):
    """Least model of a definite source program by brute instantiation.

    Only plain positive literals and comparisons are allowed in bodies.
    Variables range over every constant mentioned anywhere in the program,
    so this is hopeless on anything but small inputs; that is the point.
    """
    from . import syntax

    consts = set()

    def scan(term):
        if isinstance(term, syntax.Integer):
            consts.add(term.value)
        elif isinstance(term, syntax.SymbolicConst):
            consts.add(term.name)
        elif isinstance(term, syntax.FuncApp):
            for a in term.args:
                scan(a)
        elif isinstance(term, (syntax.Range, syntax.Pool)):
            raise ValueError("naive evaluation expects desugared rules")

    for rule in program.rules:
        if rule.head is None or isinstance(rule.head, syntax.Aggregate):
            raise ValueError("naive evaluation handles definite programs only")
        for a in rule.head.args:
            scan(a)
        for part in rule.body:
            if isinstance(part, syntax.Comparison):
                scan(part.lhs)
                scan(part.rhs)
                continue
            if not isinstance(part, syntax.Literal) or not part.positive \
                    or part.conditions:
                raise ValueError("naive evaluation handles definite programs only")
            for a in part.atom.args:
                scan(a)

    order = sorted(consts, key=lambda v: (isinstance(v, str), v))
    derived = set()
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            vars_ = sorted(_rule_vars(rule))
            for combo in itertools.product(order, repeat=len(vars_)):
                binding = dict(zip(vars_, combo))
                try:
                    ok = True
                    for part in rule.body:
                        if isinstance(part, syntax.Comparison):
                            lhs = _naive_eval(part.lhs, binding)
                            rhs = _naive_eval(part.rhs, binding)
                            if not _CMP[part.op](lhs, rhs):
                                ok = False
                                break
                        else:
                            args = [_naive_eval(a, binding)
                                    for a in part.atom.args]
                            if _render(part.atom.pred, args) not in derived:
                                ok = False
                                break
                    if not ok:
                        continue
                    head = _render(rule.head.pred,
                                   [_naive_eval(a, binding)
                                    for a in rule.head.args])
                except (ValueError, ZeroDivisionError, KeyError):
                    continue
                if head not in derived:
                    derived.add(head)
                    changed = True
    return derived


def _rule_vars(rule):
    from . import syntax

    seen = set()

    def walk(term):
        if isinstance(term, syntax.Variable):
            seen.add(term.name)
        elif isinstance(term, syntax.FuncApp):
            for a in term.args:
                walk(a)

    for a in rule.head.args:
        walk(a)
    for part in rule.body:
        if isinstance(part, syntax.Comparison):
            walk(part.lhs)
            walk(part.rhs)
        else:
            for a in part.atom.args:
                walk(a)
    return seen
