"""AST for the input rule language.

Terms, literals, aggregates, rules and programs are immutable records
(`records.Record`). Source locations ride along on the nodes that need them
for diagnostics but are excluded from structural equality, so
parse -> print -> parse round-trips compare equal.

This module owns the tree's shape and its concrete syntax. `rewrite` is
the one walk that rebuilds a tree. `BINARY_LEVELS` is the operators'
precedence table, which the parser and the printer both read.
`format_atom`, `aggregate_source`, `rule_source` and `compute_source`
are the layouts over printed parts; the `to_source` methods here and the
ground printer in `grounding` both print through them.
"""

import operator

from .records import Record

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")

# The binding level of each binary operator, higher binding tighter, each
# level left-associative; the parser and the printer both read it. Unary
# minus and abs bind tighter than any binary operator.
BINARY_LEVELS = {"+": 1, "-": 1, "*": 2, "/": 2, "mod": 2}
_UNARY_LEVEL = max(BINARY_LEVELS.values()) + 1


class Loc(Record):
    __slots__ = ("file", "line", "col")

    def __init__(self, file, line, col):
        self.file = file
        self.line = line
        self.col = col

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


class Variable(Record):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def to_source(self):
        return self.name


class SymbolicConst(Record):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def to_source(self):
        return self.name


class Integer(Record):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def to_source(self):
        return str(self.value)


class Range(Record):
    """Inclusive integer range, argument positions only (e.g. d(1..8))."""
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def to_source(self):
        return f"{term_source(self.lo)}..{term_source(self.hi)}"


class Pool(Record):
    """Alternative terms at one argument position (e.g. node(a; b; c))."""
    __slots__ = ("members",)

    def __init__(self, members):
        self.members = members

    def to_source(self):
        return "; ".join(term_source(m) for m in self.members)


class FuncApp(Record):
    """Built-in arithmetic application: a binary operator of BINARY_LEVELS
    with two arguments, or "-" or "abs" with one.

    Unary minus is FuncApp("-", (x,)); the parser folds it on integer
    literals so plain negative numbers stay Integer nodes.
    """
    __slots__ = ("op", "args")

    def __init__(self, op, args):
        self.op = op
        self.args = args

    def to_source(self):
        return _func_source(self, 0, False)


Term = Variable | SymbolicConst | Integer | Range | Pool | FuncApp


def _level(t):
    if isinstance(t, FuncApp):
        return BINARY_LEVELS[t.op] if len(t.args) == 2 else _UNARY_LEVEL
    return _UNARY_LEVEL + 1


def _func_source(t, parent_level, right_side):
    lvl = _level(t)
    if isinstance(t, FuncApp):
        if t.op == "abs":
            s = f"abs({term_source(t.args[0])})"
        elif len(t.args) == 1:
            s = f"-{_func_source(t.args[0], lvl, False)}"
        else:
            a, b = t.args
            op = t.op
            s = f"{_func_source(a, lvl, False)} {op} {_func_source(b, lvl, True)}"
    else:
        s = t.to_source()
    # Parenthesize when binding is weaker than the context, or equal on the
    # right of a non-commutative operator (a - (b - c), a / (b / c)).
    if lvl < parent_level or (lvl == parent_level and right_side):
        return f"({s})"
    return s


def term_source(t):
    return _func_source(t, 0, False)


def _optional_source(t):
    return None if t is None else term_source(t)


def format_atom(pred, args):
    """The atom layout: `pred`, or `pred(a,b)` over arguments printed with str()."""
    if not args:
        return pred
    return pred + "(" + ",".join(map(str, args)) + ")"


def aggregate_source(weighted, lower, elements, upper):
    """The aggregate layout: `lower { l, m } upper` or `lower [ l=w, m=v ] upper`.

    `elements` are (printed literal, weight) pairs, the weight shown only
    when `weighted`; a bound or weight prints with str(), and a bound that
    is None is left out.
    """
    o, c = "[]" if weighted else "{}"
    inner = ", ".join(f"{lit}={w}" if weighted else lit for lit, w in elements)
    inner = f"{o} {inner} {c}" if inner else o + c
    return " ".join(str(p) for p in (lower, inner, upper) if p is not None)


def rule_source(head, body):
    """The rule layout over a printed head, None for an integrity
    constraint, and the printed body elements."""
    body = ", ".join(body)
    if head is None:
        return f":- {body or '1 == 1'}."  # ":- ." would not parse
    return f"{head} :- {body}." if body else f"{head}."


def compute_source(literals):
    """The compute statement layout over the printed literals."""
    return f"compute {{ {', '.join(literals)} }}."


def rewrite(node, fn):
    """`node` with `fn` applied to every record in it, children first.

    A record's fields are walked in `__slots__` order, tuples item by item;
    a record is rebuilt from its new field values, in that order, only when
    one of them changed, so an untouched subtree comes back as the same
    object. `fn` takes a record and returns it or its replacement.
    """
    if type(node) is tuple:
        new = tuple([rewrite(x, fn) for x in node])
        return node if all(map(operator.is_, new, node)) else new
    if not isinstance(node, Record):
        return node
    old = [getattr(node, f) for f in node.__slots__]
    new = [rewrite(v, fn) for v in old]
    if not all(map(operator.is_, new, old)):
        node = type(node)(*new)
    return fn(node)


class Atom(Record):
    __slots__ = ("pred", "args", "loc")
    _uncompared = ("loc",)

    def __init__(self, pred, args=(), loc=None):
        self.pred = pred
        self.args = args
        self.loc = loc

    def key(self):
        return (self.pred, len(self.args))

    def to_source(self):
        return format_atom(self.pred, [term_source(a) for a in self.args])


class Comparison(Record):
    """Built-in comparison between two terms; always positive polarity."""
    __slots__ = ("lhs", "op", "rhs", "loc")
    _uncompared = ("loc",)

    def __init__(self, lhs, op, rhs, loc=None):
        self.lhs = lhs
        self.op = op
        self.rhs = rhs
        self.loc = loc

    def to_source(self):
        return f"{term_source(self.lhs)} {self.op} {term_source(self.rhs)}"


class Literal(Record):
    """An atom or comparison with polarity and optional conditions.

    A non-empty `conditions` tuple makes this a conditional literal
    (a(X):d(X)); conditions are atoms over domain predicates, checked by
    domain analysis.  Comparisons never carry `not` or conditions.
    """
    __slots__ = ("positive", "atom", "conditions")

    def __init__(self, positive, atom, conditions=()):
        self.positive = positive
        self.atom = atom
        self.conditions = conditions

    def to_source(self):
        s = self.atom.to_source()
        if self.conditions:
            s += "".join(":" + c.to_source() for c in self.conditions)
        return s if self.positive else f"not {s}"


class AggregateElem(Record):
    __slots__ = ("literal", "weight")

    def __init__(self, literal, weight=None):
        self.literal = literal
        self.weight = weight


class Aggregate(Record):
    """Cardinality ({...}) or weight ([...]) aggregate with optional bounds.

    Serves both as a rule head (choice with bounds; element literals must be
    positive atoms) and as a body element.  Missing lower bound means 0,
    missing upper bound means unbounded.
    """
    __slots__ = ("weighted", "lower", "elements", "upper", "loc")
    _uncompared = ("loc",)

    def __init__(self, weighted, lower, elements, upper, loc=None):
        self.weighted = weighted
        self.lower = lower
        self.elements = elements
        self.upper = upper
        self.loc = loc

    def to_source(self):
        return aggregate_source(
            self.weighted, _optional_source(self.lower),
            [(e.literal.to_source(), _optional_source(e.weight)) for e in self.elements],
            _optional_source(self.upper))


BodyElem = Literal | Aggregate
Head = Atom | Aggregate | None  # None: integrity constraint


class Rule(Record):
    __slots__ = ("head", "body", "loc")
    _uncompared = ("loc",)

    def __init__(self, head, body=(), loc=None):
        self.head = head  # Atom, Aggregate, or None for an integrity constraint
        self.body = body
        self.loc = loc

    def to_source(self):
        return rule_source(None if self.head is None else self.head.to_source(),
                           [b.to_source() for b in self.body])


class Program(Record):
    __slots__ = ("rules", "compute", "const_decls")

    def __init__(self, rules=(), compute=None, const_decls=None):
        self.rules = rules
        self.compute = compute  # literals; None when absent
        self.const_decls = {} if const_decls is None else const_decls  # name -> int

    def to_source(self):
        lines = [f"#const {n} = {v}." for n, v in self.const_decls.items()]
        lines += [r.to_source() for r in self.rules]
        if self.compute is not None:
            lines.append(compute_source([l.to_source() for l in self.compute]))
        return "\n".join(lines) + "\n"
