"""Domain predicates, the domain-restriction check, and lint.

Smodels accepts only domain-restricted programs, so the front end has one
job before instantiation. It first classifies the domain predicates from
the predicate dependency graph: a predicate is a domain predicate when its
definition is non-recursive, it never occurs in the head of a choice or
weight rule, none of its defining rules carries a body aggregate, and
everything it depends on is itself a domain predicate. Then it checks that
every variable is bound by a positive domain literal. Domain predicates
are exactly what the grounder can evaluate bottom-up before instantiating
the remaining rules. The dependency pass, the check and the optional lint
all read a rule through `_rule_parts`, and every term through
`_term_symbols`.
"""

from .syntax import (
    Aggregate,
    Atom,
    Comparison,
    FuncApp,
    Integer,
    Literal,
    Pool,
    Range,
    SymbolicConst,
    Variable,
)
from .records import Record
from .shared import strongly_connected_components


class Diagnostic(Record):
    __slots__ = ("loc", "severity", "message")

    def __str__(self):
        return f"{self.loc}: {self.severity}: {self.message}"


def pred_name(key):
    return f"{key[0]}/{key[1]}"


# -- walking a rule --------------------------------------------------------------

def _term_symbols(t, out):
    """Appends the variables and symbolic constants of term `t` to the list
    `out`, left to right, and returns it."""
    if isinstance(t, (Variable, SymbolicConst)):
        out.append(t)
    elif isinstance(t, (FuncApp, Range, Pool)):
        for sub in (t.args if isinstance(t, FuncApp) else (t.lo, t.hi) if isinstance(t, Range)
                    else t.members):
            _term_symbols(sub, out)
    return out


def term_vars(t, out=None):
    if out is None:
        out = set()
    for s in _term_symbols(t, []):
        if isinstance(s, Variable):
            out.add(s.name)
    return out


def atom_vars(a, out=None):
    if out is None:
        out = set()
    for t in a.args:
        term_vars(t, out)
    return out


def top_level_vars(a):
    return {t.name for t in a.args if isinstance(t, Variable)}


_ONE = Integer(1)


def _rule_parts(rule):
    """Yield (in_head, part, weight, loc) for each part of `rule` in source
    order: the head atom; each aggregate's bounds (terms, located at the
    aggregate), then its elements, each as a Literal with its weight (1 in
    a cardinality aggregate); each Comparison; each other body literal, a
    Literal with weight None."""
    head = rule.head
    for part in (head, *rule.body):
        in_head = part is head
        if isinstance(part, Atom):
            yield True, part, None, part.loc
        elif isinstance(part, Aggregate):
            for bound in (part.lower, part.upper):
                if bound is not None:
                    yield in_head, bound, None, part.loc
            for e in part.elements:
                yield in_head, e.literal, e.weight or _ONE, e.literal.atom.loc
        elif isinstance(part, Literal):
            atom = part.atom
            yield False, atom if isinstance(atom, Comparison) else part, None, atom.loc


# -- domain predicates --------------------------------------------------------------

class DomainAnalysis(Record):
    __slots__ = ("domain",  # frozenset of (name, arity) keys
                 "order")   # the same keys, dependencies before dependents
    __hash__ = None


def classify_domain_predicates(program):
    """Builds the predicate dependency graph and finds the domain predicates
    with one pass of Tarjan's algorithm. An edge p -> q means a rule
    defining p uses q in its body, a condition or an aggregate; predicates
    and their dependencies keep first-seen order, so the order is
    deterministic."""
    graph, demoted = {}, set()
    for rule in program.rules:
        heads, deps, head_conditions = [], [], []
        for in_head, part, _, _ in _rule_parts(rule):
            if isinstance(part, Atom):
                heads.append(part.key())
            elif isinstance(part, Literal) and in_head:
                heads.append(part.atom.key())
                head_conditions += [c.key() for c in part.conditions]
            elif isinstance(part, Literal):
                deps += [part.atom.key(), *(c.key() for c in part.conditions)]
        # A head's conditions come after the body: the order of the edges
        # fixes the evaluation order, and so which of two failing domain
        # rules is reported.
        deps += head_conditions
        if isinstance(rule.head, Aggregate) or any(isinstance(b, Aggregate) for b in rule.body):
            demoted.update(heads)
        for key in heads + deps:
            graph.setdefault(key, {})
        for key in heads:
            graph[key].update(dict.fromkeys(deps))
    for lit in program.compute or ():
        graph.setdefault(lit.atom.key(), {})

    keys = list(graph)
    index = {key: i for i, key in enumerate(keys)}
    domain = {}  # in evaluation order
    for comp in strongly_connected_components([[index[d] for d in graph[key]] for key in keys]):
        key = keys[comp[0]]
        # a self-loop is a dependency not yet in the domain
        if len(comp) == 1 and key not in demoted and all(d in domain for d in graph[key]):
            domain[key] = None
    return DomainAnalysis(frozenset(domain), tuple(domain))


# -- domain restriction ----------------------------------------------------------

def check_domain_restriction(program, domain):
    """Every variable must be bound by a positive domain literal.

    Global variables need a top-level occurrence in an unconditional positive
    body literal over a domain predicate. Variables appearing in the
    conditions of an element are local to it and must be bound by those
    conditions, which in turn must be domain predicates. Comparisons never
    bind anything.
    """
    diags = []
    for rule in program.rules:
        cover, global_vars, elements = set(), {}, []
        for _, part, weight, loc in _rule_parts(rule):
            if isinstance(part, Literal):
                names = atom_vars(part.atom, term_vars(weight))
                if part.conditions:
                    local = set()
                    for c in part.conditions:
                        atom_vars(c, local)
                    elements.append((local, part.conditions, loc))
                    names -= local
                elif weight is None and part.positive and part.atom.key() in domain:
                    cover |= top_level_vars(part.atom)
            elif isinstance(part, Atom):
                names = atom_vars(part)
            elif isinstance(part, Comparison):
                names = term_vars(part.lhs, term_vars(part.rhs))
            else:
                names = term_vars(part)
            for v in sorted(names):
                global_vars.setdefault(v, loc)

        for local, conds, loc in elements:
            bound_here = set()
            for c in conds:
                if c.key() not in domain:
                    diags.append(Diagnostic(
                        c.loc, "error",
                        f"condition uses non-domain predicate '{pred_name(c.key())}'"))
                bound_here |= top_level_vars(c)
            for v in sorted(local):
                if v in global_vars:
                    diags.append(Diagnostic(
                        loc, "error",
                        f"variable '{v}' is local to a condition but also used elsewhere"))
                elif v not in bound_here:
                    diags.append(Diagnostic(
                        loc, "error",
                        f"variable '{v}' in a conditional element is not bound by its conditions"))

        for v, loc in global_vars.items():
            if v not in cover:
                diags.append(Diagnostic(
                    loc, "error",
                    f"variable '{v}' is not bound by a positive domain literal"))

    for lit in program.compute or ():
        if atom_vars(lit.atom):
            diags.append(Diagnostic(lit.atom.loc, "error",
                                    "compute statement literals must be ground"))
    return diags


# -- optional lint ------------------------------------------------------------

def lint(program):
    """Heuristic warnings; enabled with -W, off by default."""
    defined, used, consts = set(), {}, {}

    def count(terms, loc, variables):
        """Notes where each variable and symbolic constant of `terms` occurs."""
        for t in terms:
            for s in _term_symbols(t, []):
                table = variables if isinstance(s, Variable) else consts
                table.setdefault(s.name, []).append(loc)

    singletons = []
    for rule in program.rules:
        variables = {}
        for in_head, part, weight, loc in _rule_parts(rule):
            if isinstance(part, Atom):
                defined.add(part.key())
                count(part.args, loc, variables)
            elif isinstance(part, Literal):
                if in_head:
                    defined.add(part.atom.key())
                for a in (part.atom, *part.conditions):
                    used.setdefault(a.key(), a.loc)
                    count(a.args, a.loc, variables)
                count((weight,), loc, variables)
            elif isinstance(part, Comparison):
                count((part.lhs, part.rhs), loc, variables)
            else:
                count((part,), loc, variables)
        singletons += [Diagnostic(locs[0], "warning",
                                  f"variable '{name}' occurs only once in this rule")
                       for name, locs in variables.items()
                       if len(locs) == 1 and not name.startswith("_")]
    for lit in program.compute or ():
        used.setdefault(lit.atom.key(), lit.atom.loc)
        count(lit.atom.args, lit.atom.loc, {})

    return ([Diagnostic(loc, "warning", f"predicate '{pred_name(key)}' is used but never defined")
             for key, loc in used.items() if key not in defined]
            + [Diagnostic(locs[0], "warning",
                          f"symbolic constant '{name}' occurs only once; possible typo")
               for name, locs in consts.items() if len(locs) == 1]
            + singletons)
