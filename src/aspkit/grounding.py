"""Grounder: arithmetic, range expansion, domain evaluation, instantiation.

Ground values are plain Python ints and strs (symbolic constants). The
grounder fully evaluates domain predicates bottom-up in dependency order,
then instantiates the remaining rules. Both stages run each rule but a
fact as one Python function from `rulegen`: a join over the positive
domain literals, and the rest assembled in body order. A domain rule's
instance adds its head row to the extension; any other becomes a ground
rule. The extension decides every literal over a domain predicate: only
a true positive one stays in the ground rule, and only in "keep" mode,
where domain extensions are also emitted as facts ahead of all other
rules. A fact's row is its head's ground arguments.

A ground rule whose body is plain literals, positive ones first, no two
of them equal, under an atom head or none is built as its primitive
record (`shared.BasicRule`), which `primitives` passes through; the others
are `GRule`s that it translates. One grounding serves both outputs:
`ground_text` prints either kind with its body in source order.
"""

import itertools

from .analysis import Diagnostic, term_vars
from .records import Record
from .shared import FALSITY, BasicRule
from .syntax import (Atom, Integer, Literal, Pool, Program, Range, Rule, SymbolicConst,
                     aggregate_source, compute_source, format_atom, rule_source)


class GroundingError(Exception):
    def __init__(self, loc, message):
        self.loc = loc
        self.message = message
        super().__init__(f"{loc}: {message}" if loc else message)


class ArithmeticEvalError(GroundingError):
    """Division by zero or 64-bit overflow during term evaluation."""


class UnboundConstantError(GroundingError):
    def __init__(self, loc, name):
        self.name = name
        super().__init__(loc, f"unbound symbolic constant '{name}' used as an integer")


def eval_term(t, loc):
    """Evaluate a ground term to an int or a symbolic-constant str."""
    if isinstance(t, (Integer, SymbolicConst)):
        return t.value if isinstance(t, Integer) else t.name
    return rulegen.evaluate(t, loc)


def _ground_row(args, loc):
    return tuple([eval_term(t, loc) for t in args])


# -- range and pool expansion --------------------------------------------------

def _range_bound(term, loc):
    if term_vars(term):
        raise GroundingError(loc, "range bounds must not contain variables")
    v = eval_term(term, loc)
    if not isinstance(v, int):
        raise UnboundConstantError(loc, v)
    return v


def _expand_arg(t, loc, warnings):
    if isinstance(t, Range):
        lo = _range_bound(t.lo, loc)
        hi = _range_bound(t.hi, loc)
        if lo > hi:
            warnings.append(Diagnostic(loc, "warning", f"empty range ({lo}..{hi})"))
            return []
        return [Integer(v) for v in range(lo, hi + 1)]
    if isinstance(t, Pool):
        out = []
        for m in t.members:
            out.extend(_expand_arg(m, loc, warnings))
        return out
    return [t]


def _expand_atom(a, warnings):
    alts = [_expand_arg(t, a.loc, warnings) for t in a.args]
    return [Atom(a.pred, combo, a.loc) for combo in itertools.product(*alts)]


def desugar_program(program, warnings=None):
    """Expand ranges and pools; each alternative yields its own rule copy.

    A range behaves like a fresh variable over the interval, so an atom with
    n alternatives multiplies the rule n ways (for facts this is the familiar
    node(a;b;c) -> three facts). An empty interval drops the affected copies
    and emits a warning. Returns the program and the warnings, which are
    appended to `warnings` when it is given, so that a caller keeps those
    made before an error.
    """
    if warnings is None:
        warnings = []
    rules = []
    for rule in program.rules:
        if isinstance(rule.head, Atom):
            heads = _expand_atom(rule.head, warnings)
        else:
            heads = [rule.head]  # aggregate or None; no ranges inside by grammar
        elem_alts = []
        for b in rule.body:
            if isinstance(b, Literal) and isinstance(b.atom, Atom):
                elem_alts.append(
                    [Literal(b.positive, a, b.conditions) for a in _expand_atom(b.atom, warnings)])
            else:
                elem_alts.append([b])
        for h in heads:
            for combo in itertools.product(*elem_alts):
                rules.append(Rule(h, tuple(combo), rule.loc))
    return Program(tuple(rules), program.compute, program.const_decls), warnings


# -- symbol table ---------------------------------------------------------------

class SymbolTable:
    """Atom numbering from 2 up; id 1 is the reserved falsity atom. Every
    id is the next value of one counter, so `ids`, name -> id of the named
    atoms, is filled in id order; an aux atom takes an id and no name."""

    def __init__(self):
        self.ids = {}
        self._next = 2

    def intern(self, name):
        i = self.ids.get(name)
        if i is None:
            i = self.ids[name] = self._next
            self._next += 1
        return i

    def new_aux(self):
        i = self._next
        self._next += 1
        return i

    def names(self):
        """id -> name of the named atoms, in id order."""
        return {i: name for name, i in self.ids.items()}

    def __len__(self):
        return self._next - 2


# -- extensions ----------------------------------------------------------------

class Extension:
    """Ordered set of ground argument tuples with memoized position indexes."""

    def __init__(self):
        self.rows = {}
        self._indexes = {}
        self._sorted = {}

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def index(self, positions):
        idx = self._indexes.get(positions)
        if idx is None:
            idx = {}
            for row in self.rows:
                idx.setdefault(tuple(row[p] for p in positions), []).append(row)
            self._indexes[positions] = idx
        return idx

    def sorted_index(self, positions, col):
        """`index(positions)` with each group also ordered by column `col`.

        Maps each key to (values, ranks, rows): `rows` is the group in
        insertion order, and values[i] == rows[ranks[i]][col] ascending.
        None when column `col` holds a non-int anywhere in the extension.
        """
        k = (positions, col)
        if k in self._sorted:
            return self._sorted[k]
        out = None
        if all(isinstance(row[col], int) for row in self.rows):
            out = {}
            for key, rows in self.index(positions).items():
                ranks = sorted(range(len(rows)), key=lambda i: rows[i][col])
                out[key] = ([rows[i][col] for i in ranks], ranks, rows)
        self._sorted[k] = out
        return out


_EMPTY_EXT = Extension()


# -- ground rule representation ---------------------------------------------------

class GAgg(Record):
    __slots__ = ("weighted",
                 "lower", "upper",  # int or None
                 "elements")        # ((signed atom id, weight), ...)


class GRule(Record):
    __slots__ = ("head",        # atom id, or None for an integrity constraint
                 "head_agg",    # GAgg or None
                 "body")        # signed atom ids and GAggs, in source order


# -- domain predicate evaluation ---------------------------------------------------

def evaluate_domain_predicates(program, analysis):
    """Computes the extension of every domain predicate.

    The domain component is acyclic by construction, so evaluating each
    predicate once in dependency order reaches the bottom-up fixpoint. A
    fact's row is its head's ground arguments. Any other rule is compiled as
    every rule is. Both rows go straight into the extension's rows: no rule
    that reads them, and indexes them, has run.
    """
    domain = analysis.domain
    exts = {}
    by_head = {}
    for rule in program.rules:
        if isinstance(rule.head, Atom) and rule.head.key() in domain:
            by_head.setdefault(rule.head.key(), []).append(rule)

    for key in analysis.order:
        ext = exts[key] = Extension()
        for rule in by_head.get(key, ()):
            if rule.body:
                rulegen.RuleFunction(rule, domain, exts, False).run(ext.rows)
            else:
                ext.rows[_ground_row(rule.head.args, rule.head.loc)] = True
    return exts


class GroundResult(Record):
    __slots__ = ("rules",       # BasicRules and GRules in source order, one per instance
                 "table", "compute_true", "compute_false")
    __hash__ = None


def ground_program(program, analysis, domain_mode="keep"):
    """Instantiate a desugared, constant-substituted program.

    The result's rules are in source order. Each is a `BasicRule`, as
    `translate_rule` would make it, where the instance's body is plain
    literals, no two of which can be equal, its positive ones before its
    negative ones, and its head an atom or none; any other instance is a
    `GRule`. Either prints in `ground_text` with its body in source order.
    """
    if domain_mode not in ("keep", "none"):
        raise ValueError(f"unknown domain mode {domain_mode!r}")
    domain = analysis.domain
    exts = evaluate_domain_predicates(program, analysis)
    table = SymbolTable()
    rules = []

    if domain_mode == "keep":  # each domain predicate by its first defining rule
        for key in dict.fromkeys(rule.head.key() for rule in program.rules
                                 if isinstance(rule.head, Atom)):
            if key in domain:
                for row in exts[key]:
                    rules.append(BasicRule(table.intern(format_atom(key[0], row)), (), ()))

    for rule in program.rules:
        head = rule.head
        if isinstance(head, Atom) and head.key() in domain:
            continue  # fully evaluated above
        if isinstance(head, Atom) and not rule.body:
            name = format_atom(head.pred, _ground_row(head.args, head.loc))
            rules.append(BasicRule(table.intern(name), (), ()))
        else:
            inst = rulegen.RuleFunction(rule, domain, exts, domain_mode == "keep")
            inst.run(rules.append, table.ids.get, table.intern)

    compute_true = []
    compute_false = []
    for lit in program.compute or ():
        atom = lit.atom
        row = _ground_row(atom.args, atom.loc)
        name = format_atom(atom.pred, row)
        key = atom.key()
        if domain_mode == "none" and key in domain:
            truth = row in exts.get(key, _EMPTY_EXT).rows
            if truth != lit.positive:
                rules.append(BasicRule(FALSITY, (), ()))  # no model can satisfy this
            continue
        i = table.ids.get(name)
        if i is None:
            if not lit.positive:
                continue  # underivable atom required false: trivially met
            i = table.intern(name)
        target = compute_true if lit.positive else compute_false
        if i not in target:
            target.append(i)
    return GroundResult(rules, table, tuple(compute_true), tuple(compute_false))


# -- source-syntax printing of ground rules ----------------------------------------
# The layouts are `syntax`'s; a ground rule only maps its atom ids to names.

def _glit_source(lit, names):
    i = abs(lit)
    name = names.get(i) or f"_aux_{i}"
    return name if lit > 0 else f"not {name}"


def _gagg_source(agg, names):
    return aggregate_source(agg.weighted, agg.lower,
                            [(_glit_source(l, names), w) for l, w in agg.elements], agg.upper)


def grule_source(rule, names):
    """`rule` in source syntax, its atoms named by `names`, id -> name
    (`SymbolTable.names()`); an atom without a name prints as `_aux_ID`."""
    if isinstance(rule, BasicRule):  # its positive literals print first
        rule = GRule(rule.head, None, rule.pos + tuple(-a for a in rule.neg))
    if rule.head_agg is not None:
        head = _gagg_source(rule.head_agg, names)
    else:
        head = None if rule.head in (None, FALSITY) else _glit_source(rule.head, names)
    return rule_source(head, [_gagg_source(b, names) if isinstance(b, GAgg)
                              else _glit_source(b, names) for b in rule.body])


def ground_text(result):
    """`result` in source syntax, a rule a line, each body in source order."""
    names = result.table.names()
    lines = [grule_source(r, names) for r in result.rules]
    if result.compute_true or result.compute_false:
        lines.append(compute_source([_glit_source(i, names) for i in result.compute_true]
                                    + [_glit_source(-i, names) for i in result.compute_false]))
    return "\n".join(lines) + ("\n" if lines else "")


from . import rulegen  # last, as the rule compiler builds on the records above
