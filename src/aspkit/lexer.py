"""Tokenizer for the rule language.

`_PATTERN` is the language's tokens, written once: one compiled regular
expression whose alternatives are a newline, a run of spaces, tabs and CR,
a `%` comment running to end of line, an integer, a name (a reserved word
when `KEYWORDS` holds it), `#const` and the `_PUNCT` texts, longest first.
The group that matches picks the token; names and digits are ASCII only.
Tokens carry 1-based line/column positions, taken from match offsets.

Integer literals are unsigned here and fit in 64 bits, except that 2**63
is admitted directly after a `-` token; the parser folds a unary minus
into the literal after it and rejects a 2**63 that it does not negate.
"""

import re

from .records import Record
from .shared import LexError

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

KEYWORDS = {"not": "NOT", "mod": "MOD", "abs": "ABS", "compute": "COMPUTE"}

_PUNCT = [
    (":-", "ARROW"),
    ("..", "DOTDOT"),
    ("==", "EQ"),
    ("!=", "NE"),
    ("<=", "LE"),
    (">=", "GE"),
    ("<", "LT"),
    (">", "GT"),
    ("=", "ASSIGN"),
    (".", "DOT"),
    (",", "COMMA"),
    (";", "SEMI"),
    (":", "COLON"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    ("[", "LBRACKET"),
    ("]", "RBRACKET"),
    ("+", "PLUS"),
    ("-", "MINUS"),
    ("*", "STAR"),
    ("/", "SLASH"),
]

# Each group is named after the token kind it makes; ERROR takes any other
# character. [0-9] and [A-Za-z] stay ASCII, where \d and \w would not.
_PATTERN = re.compile("|".join([
    r"(?P<NEWLINE>\n)",
    r"(?P<SPACE>[ \t\r]+)",
    r"(?P<COMMENT>%[^\n]*)",
    r"(?P<INTEGER>[0-9]+)",
    r"(?P<WORD>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<CONSTDECL>#const)",
    *(f"(?P<{kind}>{re.escape(lit)})"
      for lit, kind in sorted(_PUNCT, key=lambda p: -len(p[0]))),
    r"(?P<ERROR>.)",
]))


class Token(Record):
    __slots__ = ("kind", "text", "line", "col",
                 "value")  # integer tokens only
    _defaults = (None,)


def tokenize(text, filename="<string>"):
    toks = []
    line, line_start = 1, 0
    m = None
    for m in _PATTERN.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        if kind == "SPACE" or kind == "COMMENT":
            continue
        lit = m.group()
        col = m.start() - line_start + 1
        value = None
        if kind == "WORD":
            kind = KEYWORDS.get(lit) or ("IDENT" if lit[0].islower() else "VARIABLE")
        elif kind == "INTEGER":
            # int() refuses thousands of digits; 20 significant ones are
            # past 64 bits
            significant = lit.lstrip("0")
            value = int(significant or "0") if len(significant) < 20 else None
            if value is None or (value > INT64_MAX and not (
                    value == -INT64_MIN and toks and toks[-1].kind == "MINUS")):
                raise LexError(filename, line, col, f"integer literal out of 64-bit range: {lit}")
        elif kind == "ERROR":
            if lit == "#":
                raise LexError(filename, line, col, f"unknown directive at {text[m.start():m.start() + 10]!r}")
            raise LexError(filename, line, col, f"illegal character {lit!r}")
        toks.append(Token(kind, lit, line, col, value))
    # A comment does not move the column: after a trailing one, end of
    # input is where the comment starts.
    end = m.start() if m is not None and m.lastgroup == "COMMENT" else len(text)
    toks.append(Token("EOF", "", line, end - line_start + 1))
    return toks
