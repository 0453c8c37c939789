"""Rules compiled to Python: the grounder's joins.

`RuleFunction` writes a rule as one Python function: nested `for` loops
over the extensions of the body's positive domain literals, its other
literals checked or assembled inline, atom names as f-strings. ASP
variables are numbered locals; arithmetic calls `_check64` and `_divide`,
so errors are those of a direct evaluation. Predicate names, constants,
extensions and locations are the function's parameters, so two rules that
differ only in them have the same code: a process compiles each rule shape
once, and keeps the code of the last `_SHAPES` shapes it used; a ground
arithmetic term is compiled the same way. Each rule's function still has
the file name `<rule FILE:LINE:COL>`, and `linecache` holds its own text
for the last `_SHAPES` rules, in the shape's line layout with the rule and
its comparisons as comments; so tracebacks and profiles name the rule. The
rule decides the form of its instances: where the body is plain literals,
positive ones before negative ones, and the head an atom or none, an
instance whose literals of one predicate have different names is the
primitive `BasicRule` that translation would make of it, which prints as
its `GRule` would; any other instance is an assembled `GRule`, which
`primitives` translates, with a repeated literal kept once and a literal
beside its negation dropping the instance.

Comparisons drive the join where they can: `V == expr`, for a variable V
first bound by a join literal and an already bound integer term, selects
the literal's rows by index lookup, and `V < expr`, `V <= expr`, `V > expr`,
`V >= expr` by a bisect range over the integer column. Any case where this
could skip a row that filtering would raise an error on falls back to
filtering, and rows keep the extension's order; so instance order, output
bytes and errors do not depend on it.
"""

import linecache
from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from types import CodeType, FunctionType

from .analysis import atom_vars, term_vars
from .grounding import (_EMPTY_EXT, ArithmeticEvalError, GAgg, GRule, GroundingError,
                        UnboundConstantError)
from .lexer import INT64_MAX, INT64_MIN
from .shared import FALSITY, BasicRule
from .syntax import (Aggregate, Atom, Comparison, FuncApp, Integer, Literal, SymbolicConst, Variable,
                     format_atom)


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


# One call per operator, so that a term nests one parenthesis per level.
def _abs(a, loc):
    return _check64(abs(a), loc)


def _quotient(a, b, loc):
    return _check64(_divide(a, b, loc), loc)


def _mod(a, b, loc):
    # the remainder of truncating division keeps the dividend's sign
    return _check64(a - _divide(a, b, loc) * b, loc)


def _fail(loc, what, *values):
    """Raises `what` about the first of `values` that is not an int."""
    raise GroundingError(loc, f"{what} '{next(v for v in values if not isinstance(v, int))}'")


def _unbound_constant(name, loc):
    raise UnboundConstantError(loc, name)


def _between(group, bounds):
    """The rows of a `sorted_index` group whose column meets every
    (op, int) bound, in insertion order."""
    if group is None:
        return ()
    values, ranks, rows = group
    lo, hi = 0, len(values)
    for op, v in bounds:
        if op[0] == ">":
            lo = max(lo, (bisect_right if op == ">" else bisect_left)(values, v))
        else:
            hi = min(hi, (bisect_left if op == "<" else bisect_right)(values, v))
    if hi - lo == len(rows):
        return rows
    return [rows[r] for r in sorted(ranks[lo:hi])]


class _Dead(Exception):
    """An instance died inside the loops of a conditional literal."""


def _add_element(elements, index, key, w, weighted):
    """Adds the aggregate element `key`, a (positive, name) pair, of weight
    `w`; equal elements merge, adding their weights in a weight aggregate."""
    if key not in index:
        index[key] = len(elements)
        elements.append((*key, w))
    elif weighted:
        elements[index[key]] = (*key, elements[index[key]][2] + w)


def _interned(body, get, intern):
    """`body`, (positive, name) pairs and GAggs over (positive, name,
    weight) elements, with each name interned in order."""
    out = []
    for entry in body:
        if isinstance(entry, GAgg):
            out.append(GAgg(entry.weighted, entry.lower, entry.upper, tuple(
                (_interned([e[:2]], get, intern)[0], e[2]) for e in entry.elements)))
        else:
            i = get(entry[1]) or intern(entry[1])
            out.append(i if entry[0] else -i)
    return tuple(out)


def _tuple(items):
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _any_equal(names):
    """A test that two of the locals `names` hold equal values."""
    return " == ".join(names) if len(names) == 2 else f"len({{{', '.join(names)}}}) < {len(names)}"


class _Source:
    """The lines of one generated function, each a (code, code with its
    note) pair, the objects it takes as parameters, and the locals its ASP
    variables are bound to."""

    def __init__(self):
        self.lines, self.params, self.refs, self.vars, self.count = [], {}, {}, {}, 0

    def ref(self, obj, prefix):
        """The parameter that passes `obj` in."""
        name = self.refs.setdefault(id(obj), f"{prefix}{len(self.params)}")
        self.params[name] = obj
        return name

    def const(self, value):
        """A parameter of its own that passes the name or int `value` in."""
        name = f"C{len(self.params)}"
        self.params[name] = value
        return name

    def local(self, prefix):
        self.count += 1
        return f"{prefix}{self.count}"

    def emit(self, depth, line, note=None):
        code = "    " * depth + line if line else ""
        if note is None:
            self.lines.append((code, code))
            return
        if not note.isprintable():  # a comment: nothing in it runs
            note = "".join(c if c.isprintable() else "?" for c in note)
        self.lines.append((code, f"{code}  # {note}" if line else "    " * depth + f"# {note}"))

    def expr(self, t, loc):
        """An expression that evaluates term `t` as a direct walk does:
        arguments left to right, each type-checked before the next is
        evaluated, with the same errors at `loc`."""
        if isinstance(t, Integer):
            return self.const(t.value)
        if isinstance(t, SymbolicConst):
            return self.const(t.name)
        if isinstance(t, Variable):
            return self.vars.get(t.name) or (
                f"_fail({self.ref(loc, 'L')}, 'unbound variable', {self.const(t.name)})")
        at = self.ref(loc, "L")
        args = []
        for a in t.args:
            x = self.expr(a, loc)
            if isinstance(a, SymbolicConst):
                x = f"_unbound_constant({x}, {at})"
            elif isinstance(a, Variable):
                x = f"({x} if isinstance({x}, int) else " \
                    f"_fail({at}, 'arithmetic on non-integer value', {x}))"
            args.append(x)
        call = {"abs": "_abs", "/": "_quotient", "mod": "_mod"}.get(t.op)
        if call:
            return f"{call}({', '.join(args)}, {at})"
        if len(args) == 1:
            return f"_check64(-{args[0]}, {at})"
        return f"_check64({args[0]} {t.op} {args[1]}, {at})"

    def simple(self, t):
        """Whether `t` evaluates with no step that could raise."""
        return isinstance(t, (Integer, SymbolicConst)) or (
            isinstance(t, Variable) and t.name in self.vars)

    def terms(self, depth, args, loc):
        """Locals or constants that hold the values of `args`, the others
        evaluated in order first."""
        out = []
        for t in args:
            out.append(self.expr(t, loc))
            if not self.simple(t):
                self.emit(depth, f"{self.local('t')} = {out[-1]}")
                out[-1] = f"t{self.count}"
        return out

    def name(self, depth, atom):
        return self.printed(atom, self.terms(depth, atom.args, atom.loc))

    def printed(self, atom, values):
        """Source of the printed name of `atom`, whose arguments are in the
        locals or parameters `values`: a parameter if it is ground, else an
        f-string of the variables' values and, as parameters, the text
        between them."""
        consts = [str(t.value) if isinstance(t, Integer) else
                  t.name if isinstance(t, SymbolicConst) else None for t in atom.args]
        # no name holds a NUL, which the lexer rejects
        texts = format_atom(atom.pred, ["\0" if c is None else c for c in consts]).split("\0")
        parts = [self.const(texts[0])]
        for text, x in zip(texts[1:], [x for c, x in zip(consts, values) if c is None]):
            parts += [x, self.const(text)]
        return parts[0] if len(parts) == 1 else "f'" + "".join("{" + p + "}" for p in parts) + "'"


def evaluate(t, loc):
    """The value of the ground term `t`, compiled once per shape as rules are."""
    src = _Source()
    body = src.expr(t, loc)
    code = _shape_code(f"def term({', '.join(src.params)}):\n    return {body}\n")
    return FunctionType(code, _RUNTIME)(*src.params.values())


# -- join planning -----------------------------------------------------------------

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
    binding so far, narrowed by its driving comparisons, the leading run of
    `checks` that compare a variable first bound here against a bound term:
    `==` as one more index key (`eq`), and `<`, `<=`, `>`, `>=` on one
    column as a bisect range (`ranges`). Where a bound term fails to
    evaluate, an ordering bound is not an int or the column holds a
    non-int, the step scans and checks every row instead; so the rows that
    survive, their order and every error are those of scanning. A driving
    comparison is not checked on the rows it selected: it holds there.
    """
    __slots__ = ("ext", "key_positions", "key_terms", "outs", "intra", "checks",
                 "eq", "ranges", "range_col")

    def __init__(self, ext, key_positions, key_terms, outs, intra):
        self.ext, self.key_positions, self.key_terms = ext, key_positions, key_terms
        self.outs = outs          # (position, name) pairs newly bound here
        self.intra = intra        # (position, earlier position) equalities
        self.checks = []          # checks runnable once this step has bound
        self.eq, self.ranges, self.range_col = [], [], None  # see `drive`

    def drive(self, bound):
        """Pick the driving comparisons from the leading checks, given the
        variables `bound` before this step: `eq` holds (position, term,
        comparison) triples, and `ranges` (op, term, comparison) ones on
        column `range_col`."""
        outs = {name: i for i, name in self.outs if not name.startswith("\x00")}
        for check in self.checks:
            shape = check[0] == "compare" and _driving_shape(check[1], outs, bound)
            if not shape:
                break
            pos, op, term = shape
            if op == "==":
                self.eq.append((pos, term, check[1]))
            elif self.range_col in (None, pos):
                self.range_col = pos
                self.ranges.append((op, term, check[1]))
            else:
                break


class _Plan:
    """Static join order for one rule body, greedy by extension size.

    Literals whose arithmetic arguments are fully bound are preferred; when
    none qualifies the smallest extension is taken anyway and its computed
    arguments turn into deferred `match` checks. `checks` holds (needed
    variables, check) pairs in body order (see `RuleFunction.check`).
    """

    def __init__(self, atoms, checks, bound0, ext_of, loc):
        self.loc = loc
        self.pre_checks = []
        self.steps = []
        bound = set(bound0)
        remaining = list(atoms)
        deferred = []
        while remaining:
            ready = [a for a in remaining
                     if all(not (isinstance(arg, FuncApp) and term_vars(arg) - bound)
                            for arg in a.args)]
            pool = ready or remaining
            pick = min(pool, key=lambda a: (len(ext_of(a.key())), remaining.index(a)))
            remaining.remove(pick)
            key_positions, key_terms, outs, intra, local = [], [], [], [], {}
            for i, arg in enumerate(pick.args):
                if isinstance(arg, Variable) and arg.name not in bound:
                    if arg.name in local:
                        intra.append((i, local[arg.name]))
                    else:
                        local[arg.name] = i
                        outs.append((i, arg.name))
                elif isinstance(arg, FuncApp) and not term_vars(arg) <= bound:
                    outs.append((i, f"\x00{len(deferred)}"))
                    deferred.append((term_vars(arg), ("match", outs[-1][1], arg, loc)))
                else:  # a constant, or a term over bound variables
                    key_positions.append(i)
                    key_terms.append(arg)
            self.steps.append(_Step(ext_of(pick.key()), tuple(key_positions),
                                    key_terms, tuple(outs), tuple(intra)))
            bound.update(local)

        bound = set(bound0)
        pending = list(checks) + deferred
        for step in [None] + self.steps:
            before = set(bound)
            if step is not None:
                bound.update(name for _, name in step.outs if not name.startswith("\x00"))
            (self.pre_checks if step is None else step.checks).extend(
                check for needed, check in pending if needed <= bound)
            pending = [(needed, check) for needed, check in pending if not needed <= bound]
            if step is not None:
                step.drive(before)
        if pending:
            raise GroundingError(loc, "internal: unbindable variable in rule body")


# The globals of generated code.
_RUNTIME = {name: globals()[name] for name in (
    "BasicRule", "GAgg", "GRule", "GroundingError", "_Dead", "_abs", "_add_element",
    "_between", "_check64", "_fail", "_interned", "_mod", "_quotient", "_unbound_constant")}

_SHAPES = 256  # rule shapes whose code a process keeps, the least recently used going first
_texts = {}  # the file names of the rule texts in linecache, the oldest first


@lru_cache(maxsize=_SHAPES)
def _shape_code(source):
    """The code of the function that `source` defines, under a file name that
    no rule and no linecache entry has."""
    return next(c for c in compile(source, "<shape>", "exec").co_consts if isinstance(c, CodeType))


def _renamed(code, filename):
    """`code`, and the functions defined in it, under `filename`."""
    return code.replace(co_filename=filename, co_consts=tuple(
        _renamed(c, filename) if isinstance(c, CodeType) else c for c in code.co_consts))


# -- rule instantiation ---------------------------------------------------------

_DEEPEST = 12  # Python nests 20 blocks in a function; a deeper join goes on in another

_NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class RuleFunction(_Source):
    """One rule compiled against the domain extensions `exts` into one
    Python function, which `run` calls. In keep mode a true positive literal over
    a domain predicate stays in the rule; otherwise it is evaluated away,
    as is each instance of a conditional literal or element over a domain
    predicate, which holds or fails by its extension. A domain rule's
    instance adds its head row to the extension's rows `R`; any other
    appends a rule to `out`, its atoms interned head first through the
    symbol table's `G` (its dict's `get`) and `I` (`intern`). Where
    `primitive` holds and the instance's literals of one predicate, each
    index group in `same`, have different names, that is the `BasicRule`
    that `translate_rule` would make of the instance's GRule, with the same
    ids; elsewhere the GRule.
    """

    def __init__(self, rule, domain, exts, keep):
        super().__init__()
        self.rule, self.domain, self.keep = rule, domain, keep
        self.ext = lambda key: exts.get(key, _EMPTY_EXT)
        self.defs = []
        join_atoms, checks, self.shape = [], [], []
        for b in rule.body:
            if isinstance(b, Aggregate) or b.conditions or (
                    isinstance(b.atom, Atom) and b.atom.key() not in domain):
                self.shape.append(b)
            elif isinstance(b.atom, Comparison):
                checks.append((term_vars(b.atom.lhs) | term_vars(b.atom.rhs), ("compare", b.atom)))
            elif not b.positive:
                checks.append((atom_vars(b.atom), ("absent", b.atom, self.ext(b.atom.key()))))
            else:
                join_atoms.append(b.atom)
                if keep:  # the join made it true
                    self.shape.append(b)
        self.domain_head = isinstance(rule.head, Atom) and rule.head.key() in domain
        # Plain literals, positive ones first: the BasicRule then prints as
        # the GRule would. Two literals of one predicate can be equal, so an
        # instance tests the names of each predicate's literals at once
        # (`same`) and assembles where two are equal. Literals whose arguments
        # are all constants need no test when no two of them are equal.
        plain = [b for b in self.shape if isinstance(b, Literal) and not b.conditions]
        signs = [b.positive for b in plain]
        self.primitive = (not isinstance(rule.head, Aggregate) and signs == sorted(signs, reverse=True)
                          and len(plain) == len(self.shape))
        groups = {}
        for i, b in enumerate(plain):
            groups.setdefault(b.atom.key(), {})[i] = b.atom
        self.same = [list(g) for g in groups.values() if len(g) > 1 and (
            len(set(g.values())) < len(g)
            or not all(isinstance(t, (Integer, SymbolicConst)) for a in g.values() for t in a.args))]
        self.emit(1, "", rule.to_source())
        body = self.lines
        self.join(1, _Plan(join_atoms, checks, (), self.ext, rule.loc), "return",
                  self.instance, split=True)
        header = f"def rule({', '.join([*self.params, 'R' if self.domain_head else 'out, G, I'])}):"
        shape, text = zip((header, header), body[0], *sum(self.defs, []), *body[1:])
        code = _shape_code("\n".join(shape) + "\n")
        source = "\n".join(text) + "\n"
        filename = f"<rule {rule.loc}>" if rule.loc else "<rule>"
        _texts.pop(filename, None)
        _texts[filename] = filename
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        if len(_texts) > _SHAPES:
            linecache.cache.pop(_texts.pop(next(iter(_texts))), None)
        # Globals that do not hold the function: no reference cycle keeps the extensions alive.
        self.run = partial(FunctionType(_renamed(code, filename), _RUNTIME), *self.params.values())

    def join(self, depth, plan, skip, inner, split=False):
        """Emit `plan`'s checks and loops, then `inner(depth, skip)` inside,
        where `skip` drops the instance. With `split`, a deep join calls a
        function defined atop `rule` with its locals, and goes on in it."""
        for check in plan.pre_checks:
            self.check(depth, check, skip)
        for step in plan.steps + [None]:
            if split and depth > _DEEPEST:
                part = self.local("part")
                args = ", ".join(sorted(set(self.vars.values())))
                self.emit(depth, f"{part}({args})")
                self.lines = [(f"    def {part}({args}):",) * 2]
                self.defs.append(self.lines)
                depth, skip = 2, "return"
            if step is not None:
                depth, skip = self.step(depth, step, plan.loc), "continue"
        inner(depth, skip)

    def step(self, depth, step, loc):
        """Emit the loop over `step`'s rows; returns the depth inside it."""
        rows, driven, flag = self.select(depth, step, loc)
        outs = dict(step.outs)
        target = ["_"] * (len(step.key_positions) + len(outs) + len(step.intra))
        for i in outs:
            target[i] = self.vars[outs[i]] = self.local("v")
        for i, _ in step.intra:
            target[i] = self.local("t")
        self.emit(depth, f"for {_tuple(target) if target else '_'} in {rows}:")
        for i, j in step.intra:
            self.emit(depth + 1, f"if {target[i]} != {target[j]}: continue")
        if flag:  # driving fell back to scanning, which checks them
            self.emit(depth + 1, f"if {flag}:")
            for check in step.checks[:driven]:
                self.check(depth + 2, check, "continue")
        for check in step.checks[driven:]:
            self.check(depth + 1, check, "continue")
        return depth + 1

    def select(self, depth, step, loc):
        """Emit the selection of `step`'s rows. Returns their expression,
        how many leading checks it stands for, and the local that is true
        when driving fell back to scanning (False if it cannot)."""
        ext, eq, ranges = step.ext, step.eq, step.ranges
        key = [self.expr(t, loc) for t in step.key_terms]
        positions = step.key_positions + tuple(pos for pos, _, _ in eq)
        groups = ranges and ext.sorted_index(positions, step.range_col)
        if ranges and (groups is None or any(isinstance(t, SymbolicConst) for _, t, _ in ranges)):
            eq = ranges = []  # a column or a bound that is not an int: scan
        # Only a computed term can fail to evaluate, and only a variable can
        # bound a range with a non-int; otherwise driving cannot fall back.
        computed = any(isinstance(t, FuncApp) for _, t, _ in eq + ranges)
        loose = [isinstance(t, Variable) for _, t, _ in ranges]
        flag = (computed or any(loose)) and self.local("f")
        if flag or not eq + ranges:
            scan = (f"{self.ref(ext.index(step.key_positions), 'X')}.get({_tuple(key)}, ())"
                    if step.key_positions else self.ref(ext.rows, "X"))
            if not flag:
                return scan, 0, False
        values = [self.expr(t, comp.loc) for _, t, comp in eq + ranges]
        if computed:  # each evaluated once; an error means scanning
            self.emit(depth, "try:")
            for i, x in enumerate(values):
                self.emit(depth + 1, f"{self.local('b')} = {x}")
                values[i] = f"b{self.count}"
            self.emit(depth, "except GroundingError:")
            self.emit(depth + 1, f"{flag} = True")
            self.emit(depth, "else:")
        full = _tuple(key + values[:len(eq)])
        if ranges:
            bounds = [f"({op!r}, {v})" for (op, _, _), v in zip(ranges, values[len(eq):])]
            driven = f"_between({self.ref(groups, 'S')}.get({full}), {_tuple(bounds)})"
        else:
            driven = f"{self.ref(ext.index(positions), 'X')}.get({full}, ())"
        rows = self.local("s")
        if flag:
            ints = " and ".join(f"isinstance({v}, int)" for v, lax in zip(values[len(eq):], loose)
                                if lax)
            self.emit(depth + computed, f"{flag} = not ({ints})" if ints else f"{flag} = False")
            self.emit(depth, f"if {flag}:")
            self.emit(depth + 1, f"{rows} = {scan}")
            self.emit(depth, "else:")
        self.emit(depth + bool(flag), f"{rows} = {driven}", ("range: " if ranges else "lookup: ")
                  + ", ".join(c.to_source() for *_, c in eq + ranges))
        return rows, len(eq + ranges), flag

    def check(self, depth, check, skip):
        """Emit `check`, which runs `skip` when it fails: ("compare", comp),
        a negative domain literal ("absent", atom, extension), or a computed
        join argument ("match", its column, term, location)."""
        if check[0] == "absent":
            row = _tuple([self.expr(t, check[1].loc) for t in check[1].args])
            self.emit(depth, f"if {row} in {self.ref(check[2].rows, 'X')}: {skip}")
            return
        if check[0] == "match":
            self.emit(depth, f"if {self.vars[check[1]]} != {self.expr(check[2], check[3])}: {skip}")
            return
        comp = check[1]
        note = f"compare: {comp.to_source()}"
        sides = [self.expr(comp.lhs, comp.loc), self.expr(comp.rhs, comp.loc)]
        loose = [comp.op not in ("==", "!=") and not isinstance(t, (Integer, FuncApp))
                 for t in (comp.lhs, comp.rhs)]
        if any(loose):  # each side once into a local, then both type-checked
            for i, t in enumerate((comp.lhs, comp.rhs)):
                if not self.simple(t):
                    self.emit(depth, f"{self.local('c')} = {sides[i]}", note)
                    sides[i], note = f"c{self.count}", None
            test = " and ".join(f"isinstance({s}, int)" for s, lax in zip(sides, loose) if lax)
            self.emit(depth, f"if not ({test}): _fail({self.ref(comp.loc, 'L')}, "
                             f"'ordering comparison on non-integer value', {', '.join(sides)})", note)
            note = None
        self.emit(depth, f"if {sides[0]} {_NEGATED[comp.op]} {sides[1]}: {skip}", note)

    def instance(self, depth, skip):
        """Emit what an instance adds: a row of the extension, its primitive
        basic rule where `primitive` holds and no two body names of one
        predicate are equal, or else an assembled ground rule. Body names
        are made before the head's, and ids interned head first."""
        head = self.rule.head
        if self.domain_head:
            if self.shape:  # a conditional literal can still kill it
                self.assemble(depth, skip)
            self.emit(depth, f"R[{_tuple(self.terms(depth, head.args, head.loc))}] = True")
            return
        if self.primitive:
            names = [self.local("n") for _ in self.shape]
            for b, n in zip(self.shape, names):
                self.emit(depth, f"{n} = {self.name(depth, b.atom)}")
        else:
            body = self.assemble(depth, skip)
        h = isinstance(head, Atom) and self.local("h")
        if h:
            self.emit(depth, f"{h} = {self.name(depth, head)}")
        if self.primitive and self.same:
            # equal literals take the assembly, which keeps one or drops the instance
            self.emit(depth, f"if {' or '.join(_any_equal([names[i] for i in g]) for g in self.same)}:")
            self.emit(depth + 1, "bd, sg = [], {}")
            for b, n in zip(self.shape, names):
                self.push(depth + 1, b.positive, n, skip)
            self.emit(depth + 1, f"out(GRule({f'G({h}) or I({h})' if h else None}, None, "
                                 "_interned(bd, G, I)))")
            self.emit(depth, "else:")
            depth += 1
        if self.primitive:
            for n in [h] * bool(h) + names:
                self.emit(depth, f"{n} = G({n}) or I({n})")
            pos = _tuple([n for b, n in zip(self.shape, names) if b.positive])
            neg = _tuple([n for b, n in zip(self.shape, names) if not b.positive])
            self.emit(depth, f"out(BasicRule({h or FALSITY}, {pos}, {neg}))")
        elif h:
            self.emit(depth, f"out(GRule(G({h}) or I({h}), None, {body}))")
        else:
            agg = head and f"_interned(({self.aggregate(depth, head)[0]},), G, I)[0]"
            self.emit(depth, f"out(GRule(None, {agg}, {body}))")

    def assemble(self, depth, skip):
        """Emit the assembly of a body into `bd`, with `sg` mapping each
        literal there to its sign; returns the interned body's source."""
        self.emit(depth, "bd, sg = [], {}")
        for b in self.shape:
            if isinstance(b, Aggregate):
                g, lower, upper = self.aggregate(depth, b)
                self.emit(depth, f"if {g}.elements:")
                self.emit(depth + 1, f"bd.append({g})")
                zero = [f"{lower} <= 0"] * (lower != "None") + [f"{upper} >= 0"] * (upper != "None")
                if zero:  # with no element left, 0 must lie within the bounds
                    self.emit(depth, f"elif not ({' and '.join(zero)}): {skip}")
            elif b.conditions:
                self.emit(depth, "try:")
                self.element(depth + 1, b, None, self.condition)
                self.emit(depth, "except _Dead:")
                self.emit(depth + 1, skip)
            else:
                self.push(depth, b.positive, self.name(depth, b.atom), skip)
        return "_interned(bd, G, I)"

    def push(self, depth, positive, name, skip):
        """Emit adding the literal `name` to `bd` once; its opposite kills."""
        n = self.local("n")
        self.emit(depth, f"{n} = {name}")
        self.emit(depth, f"if {n} not in sg:")
        self.emit(depth + 1, f"sg[{n}] = {positive}")
        self.emit(depth + 1, f"bd.append(({positive}, {n}))")
        self.emit(depth, f"elif sg[{n}] is not {positive}: {skip}")

    def condition(self, depth, literal, row, name, w, ext):
        """A conditional literal's instance fails the rule, holds or stays."""
        if ext is not None:
            test = "not in" if literal.positive else "in"
            self.emit(depth, f"if {row} {test} {self.ref(ext.rows, 'X')}: raise _Dead")
        if ext is None or literal.positive and self.keep:
            self.push(depth, literal.positive, name, "raise _Dead")

    def aggregate(self, depth, agg):
        """Emit the instance of `agg` as a GAgg over (positive, name, weight)
        elements, where an element that holds takes its weight off both
        bounds and one that fails goes; returns its local and its bounds'."""
        lower, upper = ("None" if t is None else self.integer(depth, t, "non-integer aggregate bound")
                        for t in (agg.lower, agg.upper))
        els, ix = self.local("el"), self.local("ix")
        self.emit(depth, f"{els}, {ix} = [], {{}}")

        def handle(depth, literal, row, name, w, ext):
            line = f"_add_element({els}, {ix}, ({literal.positive}, {name}), {w}, {agg.weighted})"
            if ext is not None:
                test = "in" if literal.positive else "not in"
                self.emit(depth, f"if {row} {test} {self.ref(ext.rows, 'X')}:")
                depth += 1
                if not (literal.positive and self.keep):  # it holds
                    line = "; ".join(f"{b} -= {w}" for b in (lower, upper) if b != "None") or "pass"
            self.emit(depth, line)

        for e in agg.elements:
            self.element(depth, e.literal, e.weight, handle)
        self.emit(depth, f"{self.local('g')} = GAgg({agg.weighted}, {lower}, {upper}, {els})")
        return f"g{self.count}", lower, upper

    def integer(self, depth, term, what):
        """A local holding the value of `term`, an error `what` unless an int."""
        v = self.local("w")
        self.emit(depth, f"{v} = {self.expr(term, self.rule.loc)}")
        if not isinstance(term, (Integer, FuncApp)):
            self.emit(depth, f"if not isinstance({v}, int): "
                             f"_fail({self.ref(self.rule.loc, 'L')}, {what!r}, {v})")
        return v

    def element(self, depth, literal, weight, handle):
        """Emit the loops over the instances of a conditional literal or
        aggregate element, and `handle` each: its row, name, weight (after
        the row) and the extension that decides it, if it is a domain's.
        The variables the rule's join has bound are its globals."""
        outer = dict(self.vars)

        def inner(depth, skip):
            atom = literal.atom
            args = self.terms(depth, atom.args, atom.loc)
            w = "1" if weight is None else self.integer(depth, weight, "non-integer weight")
            handle(depth, literal, _tuple(args), self.printed(atom, args), w,
                   self.ext(atom.key()) if atom.key() in self.domain else None)

        self.join(depth, _Plan(list(literal.conditions), [], outer, self.ext,
                               self.rule.loc), "continue", inner)
        self.vars = outer
