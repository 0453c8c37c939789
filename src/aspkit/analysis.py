"""Predicate dependency analysis and domain-restriction checking.

A predicate is a domain predicate when its definition is non-recursive,
it never occurs in the head of a choice or weight rule, none of its
defining rules carries a body aggregate, and everything it depends on is
itself a domain predicate. Domain predicates are exactly what the grounder
can evaluate bottom-up before instantiating the remaining rules.
"""

from .syntax import (
    Aggregate,
    Atom,
    Comparison,
    FuncApp,
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

    def __init__(self, loc, severity, message):
        self.loc = loc
        self.severity = severity
        self.message = message

    def __str__(self):
        return f"{self.loc}: {self.severity}: {self.message}"


def pred_name(key):
    return f"{key[0]}/{key[1]}"


class DependencyGraph:
    """Predicate-level dependency graph with edge polarity.

    An edge p -> q means some rule defining p uses q in its body (or in a
    condition, or inside an aggregate). Nodes and adjacency keep first-seen
    order so traversals are deterministic.
    """

    def __init__(self):
        self.nodes = []
        self._index = {}
        self._deps = {}  # key -> {dep_key: set of polarities}

    def add_node(self, key):
        if key not in self._index:
            self._index[key] = len(self.nodes)
            self.nodes.append(key)
            self._deps[key] = {}

    def add_edge(self, src, dep, positive):
        self.add_node(src)
        self.add_node(dep)
        self._deps[src].setdefault(dep, set()).add(positive)

    def deps(self, key):
        for dep, pols in self._deps.get(key, {}).items():
            for pol in sorted(pols, reverse=True):
                yield dep, pol

    def has_self_loop(self, key):
        return key in self._deps.get(key, {})

    def sccs(self):
        """Strongly connected components, dependencies before dependents."""
        adj = [[self._index[dep] for dep in self._deps[key]] for key in self.nodes]
        return [tuple(self.nodes[i] for i in comp)
                for comp in strongly_connected_components(adj)]


def _literal_deps(lit, deps):
    if isinstance(lit.atom, Atom):
        deps.append((lit.atom.key(), lit.positive))
    for c in lit.conditions:
        deps.append((c.key(), True))


def build_dependency_graph(program):
    """Returns (graph, demoted) where demoted preds can never be domain."""
    g = DependencyGraph()
    demoted = set()
    for rule in program.rules:
        heads = []
        if isinstance(rule.head, Atom):
            heads = [rule.head.key()]
        elif isinstance(rule.head, Aggregate):
            heads = [e.literal.atom.key() for e in rule.head.elements]
            demoted.update(heads)
        deps = []
        for b in rule.body:
            if isinstance(b, Aggregate):
                for e in b.elements:
                    _literal_deps(e.literal, deps)
            else:
                _literal_deps(b, deps)
        if any(isinstance(b, Aggregate) for b in rule.body):
            demoted.update(heads)
        if isinstance(rule.head, Aggregate):
            for e in rule.head.elements:
                for c in e.literal.conditions:
                    deps.append((c.key(), True))
        for h in heads:
            g.add_node(h)
            for d, pos in deps:
                g.add_edge(h, d, pos)
        for d, _ in deps:
            g.add_node(d)
    for lit in program.compute or ():
        if isinstance(lit.atom, Atom):
            g.add_node(lit.atom.key())
    return g, demoted


class DomainAnalysis(Record):
    __slots__ = ("graph", "domain", "defined", "demoted")
    __hash__ = None

    def __init__(self, graph, domain, defined, demoted):
        self.graph = graph
        self.domain = domain
        self.defined = defined
        self.demoted = demoted


def defined_keys(program):
    out = set()
    for rule in program.rules:
        if isinstance(rule.head, Atom):
            out.add(rule.head.key())
        elif isinstance(rule.head, Aggregate):
            out.update(e.literal.atom.key() for e in rule.head.elements)
    return out


def classify_domain_predicates(program):
    g, demoted = build_dependency_graph(program)
    domain = set()
    for scc in g.sccs():
        if len(scc) > 1 or g.has_self_loop(scc[0]):
            continue
        key = scc[0]
        if key in demoted:
            continue
        if all(dep in domain for dep, _ in g.deps(key)):
            domain.add(key)
    return DomainAnalysis(g, frozenset(domain), frozenset(defined_keys(program)),
                          frozenset(demoted))


# -- variable collection -----------------------------------------------------

def term_vars(t, out=None):
    if out is None:
        out = set()
    if isinstance(t, Variable):
        out.add(t.name)
    elif isinstance(t, FuncApp):
        for a in t.args:
            term_vars(a, out)
    elif isinstance(t, Range):
        term_vars(t.lo, out)
        term_vars(t.hi, out)
    elif isinstance(t, Pool):
        for m in t.members:
            term_vars(m, out)
    return out


def atom_vars(a, out=None):
    if out is None:
        out = set()
    for t in a.args:
        term_vars(t, out)
    return out


def top_level_vars(a):
    return {t.name for t in a.args if isinstance(t, Variable)}


def _element_vars(lit, weight):
    """(local, other): condition variables are local to the element."""
    local = set()
    for c in lit.conditions:
        atom_vars(c, local)
    rest = set()
    if isinstance(lit.atom, Comparison):
        term_vars(lit.atom.lhs, rest)
        term_vars(lit.atom.rhs, rest)
    else:
        atom_vars(lit.atom, rest)
    if weight is not None:
        term_vars(weight, rest)
    return local, rest - local


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
        cover = set()
        for b in rule.body:
            if (isinstance(b, Literal) and b.positive and not b.conditions
                    and isinstance(b.atom, Atom) and b.atom.key() in domain):
                cover |= top_level_vars(b.atom)

        global_vars = {}   # name -> loc of first occurrence
        elements = []      # (local, cond_atoms, loc)

        def note_global(names, loc):
            for v in sorted(names):
                global_vars.setdefault(v, loc)

        def note_element(lit, weight, loc):
            local, rest = _element_vars(lit, weight)
            if lit.conditions:
                elements.append((local, lit.conditions, loc))
            note_global(rest, loc)

        if isinstance(rule.head, Atom):
            note_global(atom_vars(rule.head), rule.head.loc)
        elif isinstance(rule.head, Aggregate):
            agg = rule.head
            for bound in (agg.lower, agg.upper):
                if bound is not None:
                    note_global(term_vars(bound), agg.loc)
            for e in agg.elements:
                note_element(e.literal, e.weight, e.literal.atom.loc)

        for b in rule.body:
            if isinstance(b, Aggregate):
                for bound in (b.lower, b.upper):
                    if bound is not None:
                        note_global(term_vars(bound), b.loc)
                for e in b.elements:
                    note_element(e.literal, e.weight, e.literal.atom.loc)
            elif isinstance(b.atom, Comparison):
                note_global(term_vars(b.atom.lhs) | term_vars(b.atom.rhs), b.atom.loc)
            else:
                if b.conditions:
                    note_element(b, None, b.atom.loc)
                else:
                    note_global(atom_vars(b.atom), b.atom.loc)

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
        if isinstance(lit.atom, Atom) and atom_vars(lit.atom):
            diags.append(Diagnostic(lit.atom.loc, "error",
                                    "compute statement literals must be ground"))
    return diags


# -- optional lint ------------------------------------------------------------

def _walk_rule_atoms(rule):
    """Yield every atom of a rule (head, body, conditions, elements)."""
    def from_literal(lit):
        if isinstance(lit.atom, Atom):
            yield lit.atom
        yield from lit.conditions

    if isinstance(rule.head, Atom):
        yield rule.head
    elif isinstance(rule.head, Aggregate):
        for e in rule.head.elements:
            yield from from_literal(e.literal)
    for b in rule.body:
        if isinstance(b, Aggregate):
            for e in b.elements:
                yield from from_literal(e.literal)
        else:
            yield from from_literal(b)


def _walk_rule_terms(rule):
    """Yield (term, loc) for every top-level term of a rule."""
    def from_literal(lit):
        if isinstance(lit.atom, Comparison):
            yield lit.atom.lhs, lit.atom.loc
            yield lit.atom.rhs, lit.atom.loc
        else:
            for t in lit.atom.args:
                yield t, lit.atom.loc
        for c in lit.conditions:
            for t in c.args:
                yield t, c.loc

    def from_aggregate(agg):
        for bound in (agg.lower, agg.upper):
            if bound is not None:
                yield bound, agg.loc
        for e in agg.elements:
            yield from from_literal(e.literal)
            if e.weight is not None:
                yield e.weight, e.literal.atom.loc

    if isinstance(rule.head, Atom):
        for t in rule.head.args:
            yield t, rule.head.loc
    elif isinstance(rule.head, Aggregate):
        yield from from_aggregate(rule.head)
    for b in rule.body:
        if isinstance(b, Aggregate):
            yield from from_aggregate(b)
        else:
            yield from from_literal(b)


def _count_symbols(term, loc, consts, variables):
    if isinstance(term, SymbolicConst):
        cnt, first = consts.get(term.name, (0, loc))
        consts[term.name] = (cnt + 1, first)
    elif isinstance(term, Variable):
        cnt, first = variables.get(term.name, (0, loc))
        variables[term.name] = (cnt + 1, first)
    elif isinstance(term, FuncApp):
        for a in term.args:
            _count_symbols(a, loc, consts, variables)
    elif isinstance(term, Range):
        _count_symbols(term.lo, loc, consts, variables)
        _count_symbols(term.hi, loc, consts, variables)
    elif isinstance(term, Pool):
        for m in term.members:
            _count_symbols(m, loc, consts, variables)


def lint(program):
    """Heuristic warnings; enabled with -W, off by default."""
    diags = []
    defined = defined_keys(program)

    used = {}
    for rule in program.rules:
        head_atoms = set()
        if isinstance(rule.head, Atom):
            head_atoms.add(id(rule.head))
        for a in _walk_rule_atoms(rule):
            if id(a) in head_atoms:
                continue
            used.setdefault(a.key(), a.loc)
    for lit in program.compute or ():
        if isinstance(lit.atom, Atom):
            used.setdefault(lit.atom.key(), lit.atom.loc)
    for key, loc in used.items():
        if key not in defined:
            diags.append(Diagnostic(loc, "warning",
                                    f"predicate '{pred_name(key)}' is used but never defined"))

    consts = {}
    singleton_diags = []
    for rule in program.rules:
        variables = {}
        for t, loc in _walk_rule_terms(rule):
            _count_symbols(t, loc, consts, variables)
        for name, (cnt, loc) in variables.items():
            if cnt == 1 and not name.startswith("_"):
                singleton_diags.append(Diagnostic(
                    loc, "warning", f"variable '{name}' occurs only once in this rule"))
    for lit in program.compute or ():
        if isinstance(lit.atom, Atom):
            for t in lit.atom.args:
                _count_symbols(t, lit.atom.loc, consts, {})

    for name, (cnt, loc) in consts.items():
        if cnt == 1:
            diags.append(Diagnostic(
                loc, "warning",
                f"symbolic constant '{name}' occurs only once; possible typo"))
    diags.extend(singleton_diags)
    return diags
