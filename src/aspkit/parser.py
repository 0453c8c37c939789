"""Recursive-descent parser producing syntax.Program values.

Operator precedence: *, /, mod bind tighter than +, -; unary minus and abs
bind tightest. Comparisons are always positive literals (a negated comparison
must be written with the dual operator). Ranges and pools are only accepted
at argument positions of plain atoms, not inside aggregates or conditions.
Terms nest at most MAX_TERM_DEPTH levels deep.
"""

from .lexer import tokenize
from .shared import read_text
from .syntax import (
    Aggregate,
    AggregateElem,
    Atom,
    Comparison,
    FuncApp,
    Integer,
    Literal,
    Loc,
    Pool,
    Program,
    Range,
    Rule,
    SymbolicConst,
    Variable,
    rewrite,
)

_COMPOPS = {"EQ": "==", "NE": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}
_TERM_START = ("INTEGER", "IDENT", "VARIABLE", "MINUS", "LPAREN", "ABS")
MAX_TERM_DEPTH = 100


class ParseError(Exception):
    def __init__(self, file, line, col, expected, found, message=None):
        self.file = file
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        self.message = message or f"expected {expected}, found {found}"
        super().__init__(f"{file}:{line}:{col}: {self.message}")


class MissingDotError(ParseError):
    """A rule or directive was not terminated by '.'."""


class _Parser:
    def __init__(self, tokens, filename):
        self.toks = tokens
        self.file = filename
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0):
        i = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[i]

    def next(self):
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, *kinds):
        return self.toks[self.pos].kind in kinds

    def accept(self, kind):
        if self.at(kind):
            return self.next()
        return None

    def _describe(self, tok):
        return "end of input" if tok.kind == "EOF" else repr(tok.text)

    def error(self, expected, tok=None, cls=ParseError, message=None):
        tok = tok or self.peek()
        raise cls(self.file, tok.line, tok.col, expected, self._describe(tok), message)

    def expect(self, kind, what):
        tok = self.accept(kind)
        if tok is None:
            self.error(what)
        return tok

    def expect_dot(self, what="rule"):
        tok = self.accept("DOT")
        if tok is None:
            bad = self.peek()
            raise MissingDotError(
                self.file, bad.line, bad.col, "'.'", self._describe(bad),
                f"{what} not terminated by '.' (found {self._describe(bad)})")
        return tok

    def loc(self, tok):
        return Loc(self.file, tok.line, tok.col)

    # -- terms --------------------------------------------------------------

    def term(self):
        return self._sum(0)[0]

    def _nested(self, levels):
        """Reject a term nested deeper than MAX_TERM_DEPTH, so that neither
        this parser nor a later stage recurses past that depth."""
        if levels > MAX_TERM_DEPTH:
            self.error(f"a term nested at most {MAX_TERM_DEPTH} levels deep",
                       message=f"term nested deeper than {MAX_TERM_DEPTH} levels")
        return levels

    # Each returns (term, height). The height counts levels as
    # docs/grammar.md does: a constant, variable or integer is one, and each
    # operator, parenthesis or abs() around it adds one. `depth` is the
    # number of levels already open around the term being parsed.

    def _sum(self, depth):
        t, h = self._product(depth)
        while self.at("PLUS", "MINUS"):
            op = self.next().text
            rhs, rh = self._product(depth)
            t, h = FuncApp(op, (t, rhs)), self._nested(max(h, rh) + 1)
        return t, h

    def _product(self, depth):
        t, h = self._unary(depth)
        while self.at("STAR", "SLASH", "MOD"):
            op = self.next().text
            rhs, rh = self._unary(depth)
            t, h = FuncApp(op, (t, rhs)), self._nested(max(h, rh) + 1)
        return t, h

    def _unary(self, depth):
        tok = self.peek()
        if tok.kind == "MINUS":
            self.next()
            inner, h = self._unary(self._nested(depth + 1))
            h = self._nested(h + 1)
            if isinstance(inner, Integer):
                return Integer(-inner.value), h
            return FuncApp("-", (inner,)), h
        if tok.kind == "ABS":
            self.next()
            self.expect("LPAREN", "'(' after abs")
            t, h = self._sum(self._nested(depth + 1))
            self.expect("RPAREN", "')'")
            return FuncApp("abs", (t,)), self._nested(h + 1)
        if tok.kind == "INTEGER":
            self.next()
            return Integer(tok.value), 1
        if tok.kind == "IDENT":
            self.next()
            return SymbolicConst(tok.text), 1
        if tok.kind == "VARIABLE":
            self.next()
            return Variable(tok.text), 1
        if tok.kind == "LPAREN":
            self.next()
            t, h = self._sum(self._nested(depth + 1))
            self.expect("RPAREN", "')'")
            return t, self._nested(h + 1)
        self.error("a term")

    def range_term(self, allow_range_pool):
        t = self.term()
        if self.at("DOTDOT"):
            if not allow_range_pool:
                self.error("no range in this context", message="ranges are not allowed here")
            self.next()
            return Range(t, self.term())
        return t

    def arg(self, allow_range_pool):
        first = self.range_term(allow_range_pool)
        if not self.at("SEMI"):
            return first
        if not allow_range_pool:
            self.error("no pool in this context", message="pools are not allowed here")
        members = [first]
        while self.accept("SEMI"):
            members.append(self.range_term(allow_range_pool))
        return Pool(tuple(members))

    # -- atoms and literals ---------------------------------------------------

    def atom(self, allow_range_pool):
        tok = self.expect("IDENT", "a predicate name")
        args = ()
        if self.accept("LPAREN"):
            out = [self.arg(allow_range_pool)]
            while self.accept("COMMA"):
                out.append(self.arg(allow_range_pool))
            self.expect("RPAREN", "')'")
            args = tuple(out)
        return Atom(tok.text, args, self.loc(tok))

    def conditions(self):
        conds = []
        while self.accept("COLON"):
            conds.append(self.atom(allow_range_pool=False))
        return tuple(conds)

    def body_literal(self):
        """Plain body element: literal, comparison, or aggregate."""
        tok = self.peek()
        if tok.kind == "NOT":
            self.next()
            if not self.at("IDENT"):
                self.error("an atom after 'not' (negate comparisons with the dual operator)")
            a = self.atom(allow_range_pool=True)
            if self.at(*_COMPOPS):
                self.error("no comparison after a negated atom", tok=self.peek(),
                           message="atoms cannot be compared; negate the comparison operator instead")
            return Literal(False, a, self.conditions())
        if tok.kind in ("LBRACE", "LBRACKET"):
            return self.aggregate(None, in_head=False)
        if tok.kind == "IDENT" and self.peek(1).kind == "LPAREN":
            a = self.atom(allow_range_pool=True)
            if self.at(*_COMPOPS):
                self.error("',' or '.'", message="atoms cannot be compared")
            return Literal(True, a, self.conditions())
        # Expression: comparison, aggregate lower bound, or 0-ary atom.
        t = self.term()
        if self.at(*_COMPOPS):
            op = _COMPOPS[self.next().kind]
            rhs = self.term()
            return Literal(True, Comparison(t, op, rhs, self.loc(tok)))
        if self.at("LBRACE", "LBRACKET"):
            return self.aggregate(t, in_head=False)
        if isinstance(t, SymbolicConst):
            a = Atom(t.name, (), self.loc(tok))
            return Literal(True, a, self.conditions())
        self.error("a literal, comparison, or aggregate")

    def aggregate(self, lower, in_head):
        opener = self.next()  # LBRACE or LBRACKET
        weighted = opener.kind == "LBRACKET"
        closer = "RBRACKET" if weighted else "RBRACE"
        elems = []
        if not self.at(closer):
            while True:
                neg = bool(self.accept("NOT"))
                if neg and in_head:
                    self.error("a positive atom",
                               message="negative literals cannot appear in a rule head")
                a = self.atom(allow_range_pool=False)
                conds = self.conditions()
                weight = None
                if weighted:
                    self.expect("ASSIGN", "'=' and a weight")
                    weight = self.term()
                elems.append(AggregateElem(Literal(not neg, a, conds), weight))
                if not self.accept("COMMA"):
                    break
        closer_text = "]" if weighted else "}"
        self.expect(closer, f"'{closer_text}'")
        upper = self.term() if self.at(*_TERM_START) else None
        return Aggregate(weighted, lower, tuple(elems), upper, self.loc(opener))

    # -- rules and statements ---------------------------------------------------

    def head(self):
        tok = self.peek()
        if tok.kind in ("LBRACE", "LBRACKET"):
            return self.aggregate(None, in_head=True)
        if tok.kind == "IDENT" and self.peek(1).kind == "LPAREN":
            return self.atom(allow_range_pool=True)
        t = self.term()
        if self.at("LBRACE", "LBRACKET"):
            return self.aggregate(t, in_head=True)
        if isinstance(t, SymbolicConst):
            return Atom(t.name, (), self.loc(tok))
        self.error("a rule head")

    def body(self):
        elems = [self.body_literal()]
        while self.accept("COMMA"):
            elems.append(self.body_literal())
        return tuple(elems)

    def rule(self):
        start = self.peek()
        if self.accept("ARROW"):
            body = self.body()
            self.expect_dot()
            return Rule(None, body, self.loc(start))
        h = self.head()
        if self.accept("ARROW"):
            body = self.body()
            self.expect_dot()
            return Rule(h, body, self.loc(start))
        self.expect_dot()
        return Rule(h, (), self.loc(start))

    def const_decl(self):
        self.next()  # CONSTDECL
        name = self.expect("IDENT", "a constant name")
        self.expect("ASSIGN", "'='")
        neg = bool(self.accept("MINUS"))
        val = self.expect("INTEGER", "an integer value")
        self.expect_dot("#const declaration")
        value = -val.value if neg else val.value
        return name.text, value, name

    def compute_stmt(self):
        start = self.next()  # COMPUTE
        self.expect("LBRACE", "'{'")
        lits = []
        if not self.at("RBRACE"):
            while True:
                neg = bool(self.accept("NOT"))
                a = self.atom(allow_range_pool=False)
                if self.at("COLON"):
                    self.error("no condition in compute",
                               message="conditions are not allowed in a compute statement")
                lits.append(Literal(not neg, a))
                if not self.accept("COMMA"):
                    break
        self.expect("RBRACE", "'}'")
        self.expect_dot("compute statement")
        return tuple(lits), self.loc(start)

    def program(self):
        rules = []
        compute = None
        const_decls = {}
        while not self.at("EOF"):
            if self.at("CONSTDECL"):
                name, value, tok = self.const_decl()
                if name in const_decls:
                    self.error("a fresh constant name", tok=tok,
                               message=f"duplicate #const declaration for '{name}'")
                const_decls[name] = value
            elif self.at("COMPUTE"):
                lits, loc = self.compute_stmt()
                if compute is not None:
                    raise ParseError(self.file, loc.line, loc.col, "at most one compute statement",
                                     "a second one", "multiple compute statements")
                compute = lits
            else:
                rules.append(self.rule())
        return Program(tuple(rules), compute, const_decls)


def parse_program(tokens, filename="<string>"):
    return _Parser(tokens, filename).program()


def parse_text(text, filename="<string>"):
    return parse_program(tokenize(text, filename), filename)


def parse_files(paths):
    """Parse several files and merge them in order (single compute allowed)."""
    rules = []
    compute = None
    const_decls = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            prog = parse_text(read_text(fh, str(path)), str(path))
        rules.extend(prog.rules)
        if prog.compute is not None:
            if compute is not None:
                raise ParseError(str(path), 1, 1, "at most one compute statement",
                                 "a second one", "multiple compute statements across input files")
            compute = prog.compute
        for name, value in prog.const_decls.items():
            if name in const_decls and const_decls[name] != value:
                raise ParseError(str(path), 1, 1, "consistent #const declarations",
                                 f"conflicting values for '{name}'",
                                 f"conflicting #const declarations for '{name}'")
            const_decls[name] = value
    return Program(tuple(rules), compute, const_decls)


def substitute_constants(program, bindings=None):
    """Replace bound symbolic constants with their integer values, at every
    term position: atom arguments, comparisons, aggregate bounds and weights,
    ranges, pools and compute literals.

    File-level #const declarations are honored; `bindings` (e.g. from the
    command line) take precedence. Unbound symbolic constants stay symbolic,
    and a rule that holds no bound constant comes back as the same object.
    """
    env = dict(program.const_decls)
    env.update(bindings or {})
    if not env:
        return program
    return rewrite(program, lambda node: Integer(env[node.name])
                   if type(node) is SymbolicConst and node.name in env else node)
