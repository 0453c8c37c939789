"""Grounder: arithmetic, range expansion, domain evaluation, instantiation.

Ground values are plain Python ints and strs (symbolic constants). The
grounder fully evaluates domain predicates bottom-up in dependency order,
then instantiates the remaining rules. One body compiler serves both
stages: a rule body joins over its positive domain literals with its
negative domain literals and comparisons as checks, and then the rest is
assembled in body order (literals over other predicates, conditional
literals, aggregates). An instance of a domain rule adds its head row to
the extension; any other becomes a ground rule. One rule holds for every
literal over a domain predicate: the extension decides it, and only a true
positive one stays in the ground rule, and only in "keep" mode, where
domain extensions are also emitted as facts ahead of all other rules.

Comparisons drive the join where they can. When a comparison binds a
variable first bound by a join literal against an already bound term that
evaluates to an integer, `V == expr` selects that literal's rows by index
lookup and `V < expr`, `V <= expr`, `V > expr`, `V >= expr` by a bisect
range over the integer column, instead of filtering every row. The rows
come back in the extension's insertion order, and any case where selecting
could skip a row that filtering would have raised an error on falls back
to filtering; so instance order, output bytes and errors do not depend on
it. Terms, checks and atom names are compiled once per rule into closures.
"""

import itertools
import operator
from bisect import bisect_left, bisect_right

from .analysis import Diagnostic, atom_vars, rule_scopes, term_vars
from .lexer import INT64_MAX, INT64_MIN
from .records import Record
from .shared import FALSITY
from .syntax import (
    Aggregate,
    Atom,
    Comparison,
    FuncApp,
    Integer,
    Literal,
    Pool,
    Program,
    Range,
    Rule,
    SymbolicConst,
    Variable,
)


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


def _check64(v, loc):
    if v > INT64_MAX or v < INT64_MIN:
        raise ArithmeticEvalError(loc, "integer overflow in arithmetic")
    return v


def _divide(a, b, loc):
    """Quotient truncated toward zero."""
    if b == 0:
        raise ArithmeticEvalError(loc, "division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    # the remainder of truncating division keeps the dividend's sign
    "mod": lambda a, b, loc: a - _divide(a, b, loc) * b,
}


def compile_term(t, loc):
    """Compile a term into a closure from a binding to an int or a
    symbolic-constant str. Evaluation order and errors match a direct walk
    of the term: arguments left to right, each type-checked before the next
    is evaluated."""
    if isinstance(t, Integer):
        v = t.value
        return lambda binding: v
    if isinstance(t, SymbolicConst):
        name = t.name
        return lambda binding: name
    if isinstance(t, Variable):
        name = t.name

        def variable(binding):
            try:
                return binding[name]
            except KeyError:
                raise GroundingError(loc, f"unbound variable '{name}'") from None
        return variable
    # FuncApp
    args = [_compile_int_arg(arg, loc) for arg in t.args]
    if t.op == "abs":
        (x,) = args
        return lambda binding: _check64(abs(x(binding)), loc)
    if len(args) == 1:
        (x,) = args
        return lambda binding: _check64(-x(binding), loc)
    x, y = args
    fn = _ARITH[t.op]
    if t.op in ("/", "mod"):
        return lambda binding: _check64(fn(x(binding), y(binding), loc), loc)
    return lambda binding: _check64(fn(x(binding), y(binding)), loc)


def _compile_int_arg(arg, loc):
    f = compile_term(arg, loc)
    if isinstance(arg, (Integer, FuncApp)):
        return f  # always an int
    if isinstance(arg, SymbolicConst):
        name = arg.name

        def unbound(binding):
            raise UnboundConstantError(loc, name)
        return unbound

    def checked(binding):
        v = f(binding)
        if isinstance(v, int):
            return v
        raise GroundingError(loc, f"arithmetic on non-integer value '{v}'")
    return checked


def eval_term(t, binding, loc):
    """Evaluate a ground or bound term to an int or a symbolic-constant str."""
    return compile_term(t, loc)(binding)


def _compile_row(args, loc):
    """Closure from a binding to the tuple of the evaluated `args`."""
    fns = [compile_term(t, loc) for t in args]
    if not fns:
        return lambda binding: ()
    if len(fns) == 1:
        (f,) = fns
        return lambda binding: (f(binding),)
    if len(fns) == 2:
        f, g = fns
        return lambda binding: (f(binding), g(binding))
    return lambda binding: tuple([f(binding) for f in fns])


def _compile_name(atom):
    """Closure from a binding to the printed name of the ground `atom`."""
    if not atom.args:
        pred = atom.pred
        return lambda binding: pred
    prefix = atom.pred + "("
    if len(atom.args) <= 2:  # f-string fields print ints and strs as str() does
        fns = [compile_term(t, atom.loc) for t in atom.args]
        if len(fns) == 1:
            (f,) = fns
            return lambda binding: f"{prefix}{f(binding)})"
        f, g = fns
        return lambda binding: f"{prefix}{f(binding)},{g(binding)})"
    row = _compile_row(atom.args, atom.loc)
    return lambda binding: prefix + ",".join(map(str, row(binding))) + ")"


_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _comparison_check(comp):
    """Compile a comparison literal into a check on a binding."""
    lhs = compile_term(comp.lhs, comp.loc)
    rhs = compile_term(comp.rhs, comp.loc)
    op = comp.op
    if op == "==":
        return lambda binding: lhs(binding) == rhs(binding)
    if op == "!=":
        return lambda binding: lhs(binding) != rhs(binding)
    rel = _ORDER[op]
    loc = comp.loc

    def ordered(binding):
        a = lhs(binding)
        b = rhs(binding)
        if isinstance(a, int) and isinstance(b, int):
            return rel(a, b)
        bad = a if not isinstance(a, int) else b
        raise GroundingError(loc, f"ordering comparison on non-integer value '{bad}'")
    return ordered


def format_atom(pred, vals):
    if not vals:
        return pred
    return pred + "(" + ",".join(map(str, vals)) + ")"


# -- range and pool expansion --------------------------------------------------

def _range_bound(term, loc):
    if term_vars(term):
        raise GroundingError(loc, "range bounds must not contain variables")
    v = eval_term(term, {}, loc)
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


def desugar_program(program):
    """Expand ranges and pools; each alternative yields its own rule copy.

    A range behaves like a fresh variable over the interval, so an atom with
    n alternatives multiplies the rule n ways (for facts this is the familiar
    node(a;b;c) -> three facts). An empty interval drops the affected copies
    and emits a warning.
    """
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
        if row in self.rows:
            return False
        self.rows[row] = True
        if self._indexes or self._sorted:
            self._indexes.clear()
            self._sorted.clear()
        return True

    def __contains__(self, row):
        return row in self.rows

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def index(self, positions):
        idx = self._indexes.get(positions)
        if idx is None:
            idx = {}
            for row in self.rows:
                key = tuple(row[p] for p in positions)
                idx.setdefault(key, []).append(row)
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


# -- join planning and execution -------------------------------------------------

_FLIP = {"==": "==", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _driving_shape(comp, outs, bound):
    """(position, op, term) when `comp` reads `V op term`, with V a variable
    first bound at `outs[V]` and every variable of `term` in `bound`."""
    for var, op, other in ((comp.lhs, comp.op, comp.rhs),
                           (comp.rhs, _FLIP.get(comp.op), comp.lhs)):
        if (isinstance(var, Variable) and var.name in outs and op in _FLIP
                and term_vars(other) <= bound):
            return outs[var.name], op, other
    return None


class _Step:
    """One positive literal of a join: the rows of `ext` that agree with the
    binding so far, optionally narrowed by driving comparisons.

    The driving comparisons are the leading checks of `checks` that compare a
    variable first bound here against an already bound term: `==` becomes
    one more index key, and `<`, `<=`, `>`, `>=` on one column become a
    bisect range over `Extension.sorted_index`. Only a leading run of
    checks may drive, and only when none of them could raise on a skipped row,
    so the rows that survive the checks, their order and every error are
    those of scanning the unnarrowed rows; when a bound term fails to
    evaluate, an ordering bound is not an int or the column holds a
    non-int, the step scans the unnarrowed rows instead. A driving
    comparison is not re-checked on the rows it selected: it holds, and
    cannot raise, on each of them.
    """
    __slots__ = ("ext", "key_positions", "key_row", "outs", "intra", "checks",
                 "undriven", "eq_positions", "eq_row", "range_col", "ranges")

    def __init__(self, ext, key_positions, key_terms, outs, intra, loc):
        self.ext = ext
        self.key_positions = key_positions
        self.key_row = _compile_row(key_terms, loc)
        self.outs = outs          # (position, name) pairs newly bound here
        self.intra = intra        # (position, earlier position) equalities
        self.checks = []          # checks runnable once this step has bound
        self.eq_positions = ()
        self.eq_row = None
        self.range_col = None
        self.ranges = ()          # (op, compiled bound term) on range_col

    def drive(self, comps, bound):
        """Pick the driving comparisons from the leading `comps` (None for a
        check that is not a comparison) given the variables `bound` before
        this step."""
        outs = {name: i for i, name in self.outs if not name.startswith("\x00")}
        eq = []
        ranges = []
        for comp in comps:
            shape = comp and _driving_shape(comp, outs, bound)
            if not shape:
                break
            pos, op, term = shape
            if op == "==":
                eq.append((pos, term))
            elif self.range_col in (None, pos):
                self.range_col = pos
                ranges.append((op, compile_term(term, comp.loc)))
            else:
                break
        if eq:
            self.eq_positions = tuple(pos for pos, _ in eq)
            # an error evaluating these only selects the unnarrowed rows
            self.eq_row = _compile_row([term for _, term in eq], None)
        self.ranges = tuple(ranges)
        self.undriven = self.checks[len(eq) + len(ranges):]  # the checks after them

    def rows(self, binding):
        """(rows to join, checks to run on each of them)."""
        key = self.key_row(binding)
        if self.eq_row or self.ranges:
            rows = self._driven(binding, key)
            if rows is not None:
                return rows, self.undriven
        if self.key_positions:
            return self.ext.index(self.key_positions).get(key, ()), self.checks
        return self.ext.rows, self.checks

    def _driven(self, binding, key):
        """Rows the driving comparisons admit, in insertion order, or None."""
        try:
            if self.eq_row:
                key += self.eq_row(binding)
            bounds = [(op, f(binding)) for op, f in self.ranges]
        except GroundingError:
            return None
        positions = self.key_positions + self.eq_positions
        if not bounds:
            return self.ext.index(positions).get(key, ())
        if not all(isinstance(v, int) for _, v in bounds):
            return None
        groups = self.ext.sorted_index(positions, self.range_col)
        if groups is None:
            return None
        group = groups.get(key)
        if group is None:
            return ()
        values, ranks, rows = group
        lo, hi = 0, len(values)
        for op, v in bounds:
            if op == ">":
                lo = max(lo, bisect_right(values, v))
            elif op == ">=":
                lo = max(lo, bisect_left(values, v))
            elif op == "<":
                hi = min(hi, bisect_left(values, v))
            else:
                hi = min(hi, bisect_right(values, v))
        if hi - lo == len(rows):
            return rows
        return [rows[r] for r in sorted(ranks[lo:hi])]


class _Plan:
    """Static join order for one rule body, greedy by extension size.

    Literals whose arithmetic arguments are fully bound are preferred; when
    none qualifies the smallest extension is taken anyway and its computed
    arguments turn into deferred equality checks. `checks` holds
    (needed variables, check, comparison or None) triples in body order.
    """

    def __init__(self, atoms, checks, bound0, ext_of, loc):
        self.pre_checks = []
        self.steps = []
        bound = set(bound0)
        remaining = list(atoms)
        fresh_n = 0
        deferred = []
        while remaining:
            ready = [a for a in remaining
                     if all(not (isinstance(arg, FuncApp) and term_vars(arg) - bound)
                            for arg in a.args)]
            pool = ready or remaining
            pick = min(pool, key=lambda a: (len(ext_of(a.key())), remaining.index(a)))
            remaining.remove(pick)
            key_positions = []
            key_terms = []
            outs = []
            intra = []
            local = {}
            for i, arg in enumerate(pick.args):
                if isinstance(arg, Variable):
                    if arg.name in bound:
                        key_positions.append(i)
                        key_terms.append(arg)
                    elif arg.name in local:
                        intra.append((i, local[arg.name]))
                    else:
                        local[arg.name] = i
                        outs.append((i, arg.name))
                elif isinstance(arg, (Integer, SymbolicConst)):
                    key_positions.append(i)
                    key_terms.append(arg)
                else:  # FuncApp
                    if term_vars(arg) <= bound:
                        key_positions.append(i)
                        key_terms.append(arg)
                    else:
                        name = f"\x00{fresh_n}"
                        fresh_n += 1
                        outs.append((i, name))
                        deferred.append((term_vars(arg), _deferred_eq(name, arg, loc), None))
            self.steps.append(_Step(ext_of(pick.key()), tuple(key_positions),
                                    key_terms, tuple(outs), tuple(intra), loc))
            bound.update(local)

        bound = set(bound0)
        pending = list(checks) + deferred
        for step in [None] + self.steps:
            before = set(bound)
            if step is not None:
                bound.update(name for _, name in step.outs if not name.startswith("\x00"))
            rest = []
            comps = []
            for needed, check, comp in pending:
                if needed <= bound:
                    (self.pre_checks if step is None else step.checks).append(check)
                    comps.append(comp)
                else:
                    rest.append((needed, check, comp))
            pending = rest
            if step is not None:
                step.drive(comps, before)
        if pending:
            raise GroundingError(loc, "internal: unbindable variable in rule body")

    def run(self, binding):
        for check in self.pre_checks:
            if not check(binding):
                return
        if self.steps:
            yield from self._run(0, binding)
        else:
            yield binding

    def _run(self, depth, binding):
        step = self.steps[depth]
        last = depth + 1 == len(self.steps)
        intra = step.intra
        outs = step.outs
        rows, checks = step.rows(binding)
        for row in rows:
            if intra and any(row[i] != row[j] for i, j in intra):
                continue
            nb = binding.copy()
            for i, name in outs:
                nb[name] = row[i]
            for check in checks:
                if not check(nb):
                    break
            else:
                if last:
                    yield nb
                else:
                    yield from self._run(depth + 1, nb)


def _deferred_eq(name, term, loc):
    """A computed argument matched against the value its position bound."""
    value = compile_term(term, loc)
    return lambda binding: binding[name] == value(binding)


def _absent_check(atom, ext):
    """Negative literal over a fully evaluated (domain) predicate."""
    row = _compile_row(atom.args, atom.loc)
    return lambda binding: row(binding) not in ext


class _ElementExpander:
    """Enumerates ground instances of a conditional literal or element.
    `ext` is the extension that decides each instance when the literal is
    over a domain predicate, else None."""

    def __init__(self, literal, weight, globals_, exts, domain, loc):
        self.atom = literal.atom
        self.positive = literal.positive
        self.ext = exts.get(self.atom.key(), _EMPTY_EXT) if self.atom.key() in domain else None
        self.loc = loc
        self.row = _compile_row(self.atom.args, self.atom.loc)
        self.weight = None if weight is None else compile_term(weight, loc)
        self.plan = _Plan(list(literal.conditions), [], globals_,
                          lambda key: exts.get(key, _EMPTY_EXT), loc)

    def instances(self, binding):
        """Yields (args_row, weight, pred) per condition instance."""
        pred = self.atom.pred
        for b in self.plan.run(binding):
            row = self.row(b)
            w = 1 if self.weight is None else self.weight(b)
            if not isinstance(w, int):
                raise GroundingError(self.loc, f"non-integer weight '{w}'")
            yield row, w, pred


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
    predicate once in dependency order reaches the bottom-up fixpoint (the
    degenerate case of semi-naive iteration, with nothing left for a second
    pass to add). Each rule is compiled as any other rule is, and the head
    row of each instance whose body survives joins the extension.
    """
    domain = analysis.domain
    exts = {}
    by_head = {}
    for rule in program.rules:
        if isinstance(rule.head, Atom) and rule.head.key() in domain:
            by_head.setdefault(rule.head.key(), []).append(rule)

    for scc in analysis.graph.sccs():
        key = scc[0]
        if key not in domain:
            continue
        ext = exts.setdefault(key, Extension())
        for rule in by_head.get(key, ()):
            inst = _RuleInstantiator(rule, domain, exts, False)
            head_row = inst.head_row
            bindings = inst.plan.run({})
            if inst.shape:  # conditional literals, evaluated after the join
                bindings = (b for b in bindings if inst._assemble(b) is not None)
            for binding in bindings:
                ext.add(head_row(binding))
    return exts


# -- rule instantiation ---------------------------------------------------------

def _compile_bound(term, loc):
    """Compiled aggregate bound: binding -> int, or None when absent."""
    if term is None:
        return lambda binding: None
    value = compile_term(term, loc)

    def bound(binding):
        v = value(binding)
        if not isinstance(v, int):
            raise GroundingError(loc, f"non-integer aggregate bound '{v}'")
        return v
    return bound


# How an instance of a conditional literal or element enters its rule.
_FAILS, _HOLDS, _STAYS = range(3)


class _RuleInstantiator:
    """One rule compiled against the domain extensions `exts`.

    The positive domain literals of the body form the join; negative
    domain literals and comparisons are checks inside it. What is left,
    in body order, is assembled per binding after the join: literals over
    other predicates, conditional literals and aggregates. In keep mode a
    true positive literal over a domain predicate stays in the rule;
    otherwise such literals are evaluated away (`_fate`). A domain rule's
    head compiles to the row each instance adds to the extension, any
    other head to what `grule` interns.
    """

    def __init__(self, rule, domain, exts, keep):
        self.keep = keep
        loc = rule.loc
        join_atoms = []
        checks = []     # (needed variables, check, comparison or None)
        shape = []      # assembly recipe in source body order

        def ext_of(key):
            return exts.get(key, _EMPTY_EXT)

        def expander(literal, weight=None):
            globals_ = rule_scopes(rule)[0]
            return _ElementExpander(literal, weight, globals_, exts, domain, loc)

        def agg_recipe(agg):
            return (agg.weighted, [expander(e.literal, e.weight) for e in agg.elements],
                    _compile_bound(agg.lower, loc), _compile_bound(agg.upper, loc))

        for b in rule.body:
            if isinstance(b, Aggregate):
                shape.append(("agg", agg_recipe(b)))
            elif isinstance(b.atom, Comparison):
                comp = b.atom
                checks.append((term_vars(comp.lhs) | term_vars(comp.rhs),
                               _comparison_check(comp), comp))
            elif b.conditions:
                shape.append(("cond", expander(b)))
            elif b.atom.key() not in domain:
                shape.append(("lit", b.positive, _compile_name(b.atom)))
            elif not b.positive:
                checks.append((atom_vars(b.atom), _absent_check(b.atom, ext_of(b.atom.key())),
                               None))
            else:
                join_atoms.append(b.atom)
                if keep:  # the join made it true
                    shape.append(("lit", True, _compile_name(b.atom)))

        self.shape = shape
        self.plan = _Plan(join_atoms, checks, set(), ext_of, loc)
        self.head_row = self.head_name = self.head_agg = None
        if isinstance(rule.head, Aggregate):
            self.head_agg = agg_recipe(rule.head)
        elif isinstance(rule.head, Atom) and rule.head.key() in domain:
            self.head_row = _compile_row(rule.head.args, rule.head.loc)  # joins the extension
        elif isinstance(rule.head, Atom):
            self.head_name = _compile_name(rule.head)

    def _fate(self, exp, row):
        """Whether the instance `row` of the conditional literal or element
        `exp` stays in the rule, holds or fails. Only a literal over a
        domain predicate can hold or fail; it stays only when it is true
        and positive, in keep mode."""
        if exp.ext is None:
            return _STAYS
        if (row in exp.ext) != exp.positive:
            return _FAILS
        return _STAYS if exp.positive and self.keep else _HOLDS

    def _build_agg(self, recipe, binding):
        """The aggregate's instance as a GAgg over (positive, name, weight)
        elements. An element that holds takes its weight off both bounds,
        and one that fails goes; equal elements merge, adding their weights
        in a weight aggregate."""
        weighted, expanders, lower_of, upper_of = recipe
        lower = lower_of(binding)
        upper = upper_of(binding)
        elements = []   # (positive, name, weight)
        index = {}      # (positive, name) -> element position, for merging
        for exp in expanders:
            for row, w, pred in exp.instances(binding):
                fate = self._fate(exp, row)
                if fate == _HOLDS:
                    lower = None if lower is None else lower - w
                    upper = None if upper is None else upper - w
                if fate != _STAYS:
                    continue
                name = format_atom(pred, row)
                mkey = (exp.positive, name)
                if mkey in index:
                    if weighted:
                        pos = index[mkey]
                        old = elements[pos]
                        elements[pos] = (old[0], old[1], old[2] + w)
                    continue
                index[mkey] = len(elements)
                elements.append((exp.positive, name, w))
        return GAgg(weighted, lower, upper, elements)

    def _assemble(self, binding):
        """The body at `binding` in source order, literals as (positive,
        name) and aggregates from `_build_agg`; None if the instance dies."""
        body = []
        signs = {}

        def push(positive, name):
            prev = signs.get(name)
            if prev is None:
                signs[name] = positive
                body.append((positive, name))
                return True
            return prev == positive  # p and not p in one body: never fires

        for entry in self.shape:
            kind = entry[0]
            if kind == "lit":
                if not push(entry[1], entry[2](binding)):
                    return None
            elif kind == "cond":
                exp = entry[1]
                for row, _, pred in exp.instances(binding):
                    fate = self._fate(exp, row)
                    if fate == _STAYS:
                        if not push(exp.positive, format_atom(pred, row)):
                            return None
                    elif fate == _FAILS:
                        return None
            else:
                agg = self._build_agg(entry[1], binding)
                if agg.elements:
                    body.append(agg)
                elif not ((agg.lower is None or agg.lower <= 0)
                          and (agg.upper is None or agg.upper >= 0)):
                    return None  # no element left and 0 outside the bounds
        return body

    def grule(self, binding, body, table):
        """The GRule of the instance at `binding`, whose body `_assemble`
        gave, its atoms interned head first and then body."""
        intern = table.intern

        def interned(agg):
            return GAgg(agg.weighted, agg.lower, agg.upper,
                        tuple((intern(name) if positive else -intern(name), w)
                              for positive, name, w in agg.elements))

        head = head_agg = None
        if self.head_name is not None:
            head = intern(self.head_name(binding))
        elif self.head_agg is not None:
            head_agg = interned(self._build_agg(self.head_agg, binding))
        out = []
        for entry in body:
            if isinstance(entry, GAgg):
                out.append(interned(entry))
            else:
                positive, name = entry
                i = intern(name)
                out.append(i if positive else -i)
        return GRule(head, head_agg, tuple(out))


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
        if isinstance(rule.head, Atom) and rule.head.key() in domain:
            continue  # fully evaluated above
        inst = _RuleInstantiator(rule, domain, exts, domain_mode == "keep")
        for binding in inst.plan.run({}):
            body = inst._assemble(binding)
            if body is not None:
                rules.append(inst.grule(binding, body, table))

    compute_true = []
    compute_false = []
    for lit in program.compute or ():
        atom = lit.atom
        row = tuple(eval_term(t, {}, atom.loc) for t in atom.args)
        name = format_atom(atom.pred, row)
        key = atom.key()
        if domain_mode == "none" and key in domain:
            truth = row in exts.get(key, _EMPTY_EXT)
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
