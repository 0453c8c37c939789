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
"""

import itertools

from .analysis import Diagnostic, term_vars
from .records import Record
from .shared import FALSITY
from .syntax import Atom, Integer, Literal, Pool, Program, Range, Rule, SymbolicConst


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


def format_atom(pred, vals):
    if not vals:
        return pred
    return pred + "(" + ",".join(map(str, vals)) + ")"


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
    """Dense atom numbering starting at 2; id 1 is the reserved falsity atom."""

    def __init__(self):
        self._ids = {}
        self._names = {}
        self._next = 2

    def intern(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._next
            self._next += 1
            self._ids[name] = i
            self._names[i] = name
        return i

    def lookup(self, name):
        return self._ids.get(name)

    def new_aux(self):
        i = self._next
        self._next += 1
        return i

    def name(self, i):
        return self._names.get(i)

    def named_items(self):
        """(id, name) pairs for user-visible atoms, in id order."""
        return sorted(self._names.items())

    def __len__(self):
        return self._next - 2


# -- extensions ----------------------------------------------------------------

class Extension:
    """Ordered set of ground argument tuples with memoized position indexes."""

    def __init__(self):
        self.rows = {}
        self._indexes = {}
        self._sorted = {}

    def add(self, row):
        if row not in self.rows:
            self.rows[row] = True
            self._indexes.clear()
            self._sorted.clear()

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
    __slots__ = ("weighted", "lower", "upper", "elements")

    def __init__(self, weighted, lower, upper, elements):
        self.weighted = weighted
        self.lower = lower          # int or None
        self.upper = upper          # int or None
        self.elements = elements    # ((signed atom id, weight), ...)


class GRule(Record):
    __slots__ = ("head", "head_agg", "body")

    def __init__(self, head, head_agg, body):
        self.head = head            # atom id, or None for an integrity constraint
        self.head_agg = head_agg    # GAgg or None
        self.body = body            # signed atom ids and GAggs, in source order


# -- domain predicate evaluation ---------------------------------------------------

def evaluate_domain_predicates(program, analysis):
    """Computes the extension of every domain predicate.

    The domain component is acyclic by construction, so evaluating each
    predicate once in dependency order reaches the bottom-up fixpoint. A
    fact's row is its head's ground arguments. Any other rule is compiled as
    every rule is, and each instance's head row goes straight into the
    extension's rows: no rule that reads them, and indexes them, has run.
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
                ext.add(_ground_row(rule.head.args, rule.head.loc))
    return exts


class GroundResult(Record):
    __slots__ = ("rules", "table", "compute_true", "compute_false")
    __hash__ = None

    def __init__(self, rules, table, compute_true, compute_false):
        self.rules = rules
        self.table = table
        self.compute_true = compute_true
        self.compute_false = compute_false


def ground_program(program, analysis, domain_mode="keep"):
    """Instantiate a desugared, constant-substituted program."""
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
                    rules.append(GRule(table.intern(format_atom(key[0], row)), None, ()))

    for rule in program.rules:
        head = rule.head
        if isinstance(head, Atom) and head.key() in domain:
            continue  # fully evaluated above
        if isinstance(head, Atom) and not rule.body:
            name = format_atom(head.pred, _ground_row(head.args, head.loc))
            rules.append(GRule(table.intern(name), None, ()))
        else:
            inst = rulegen.RuleFunction(rule, domain, exts, domain_mode == "keep")
            inst.run(rules.append, table._ids.get, table.intern)

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
                rules.append(GRule(FALSITY, None, ()))  # no model can satisfy this
            continue
        i = table.lookup(name)
        if i is None:
            if not lit.positive:
                continue  # underivable atom required false: trivially met
            i = table.intern(name)
        target = compute_true if lit.positive else compute_false
        if i not in target:
            target.append(i)
    return GroundResult(rules, table, tuple(compute_true), tuple(compute_false))


# -- source-syntax printing of ground rules ----------------------------------------

def _glit_source(lit, table):
    i = abs(lit)
    name = table.name(i) or f"_aux_{i}"
    return name if lit > 0 else f"not {name}"


def _gagg_source(agg, table):
    if agg.weighted:
        inner = ", ".join(f"{_glit_source(l, table)}={w}" for l, w in agg.elements)
        body = f"[ {inner} ]" if inner else "[]"
    else:
        inner = ", ".join(_glit_source(l, table) for l, _ in agg.elements)
        body = f"{{ {inner} }}" if inner else "{}"
    parts = []
    if agg.lower is not None:
        parts.append(str(agg.lower))
    parts.append(body)
    if agg.upper is not None:
        parts.append(str(agg.upper))
    return " ".join(parts)


def grule_source(rule, table):
    if rule.head == FALSITY:
        head = ""
    elif rule.head is not None:
        head = table.name(rule.head) or f"_aux_{rule.head}"
    elif rule.head_agg is not None:
        head = _gagg_source(rule.head_agg, table)
    else:
        head = ""
    body = ", ".join(
        _gagg_source(b, table) if isinstance(b, GAgg) else _glit_source(b, table)
        for b in rule.body)
    if not body:
        return f"{head}." if head else ":- 1 == 1."  # ":- ." would not parse
    if not head:
        return f":- {body}."
    return f"{head} :- {body}."


def ground_text(result):
    lines = [grule_source(r, result.table) for r in result.rules]
    if result.compute_true or result.compute_false:
        lits = [result.table.name(i) for i in result.compute_true]
        lits += [f"not {result.table.name(i)}" for i in result.compute_false]
        lines.append(f"compute {{ {', '.join(lits)} }}.")
    return "\n".join(lines) + ("\n" if lines else "")


from . import rulegen  # last, as the rule compiler builds on the records above
