"""Tokenizer for the rule language.

Tokens carry 1-based line/column positions. `%` starts a comment running to
end of line. Integer literals are unsigned here; the parser folds unary minus.
"""

from .records import Record

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

KEYWORDS = {"not": "NOT", "mod": "MOD", "abs": "ABS", "compute": "COMPUTE"}

# ASCII only: str.isalpha and str.isalnum take letters and digits of any script.
_VARIABLE_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD_START = _VARIABLE_START | frozenset("abcdefghijklmnopqrstuvwxyz")
_WORD = _WORD_START | frozenset("0123456789")

# Longest match first.
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


class LexError(Exception):
    def __init__(self, file, line, col, message):
        self.file = file
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"{file}:{line}:{col}: {message}")


def read_text(fh, name):
    """All of a text stream opened as UTF-8, or of a byte stream decoded as
    UTF-8; a byte that is not UTF-8 is a LexError at its line and byte
    column."""
    try:
        data = fh.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        data = e.object  # read() decodes the whole stream in one piece
        line = data.count(b"\n", 0, e.start) + 1
        col = e.start - data.rfind(b"\n", 0, e.start)
        raise LexError(name, line, col, f"invalid UTF-8 byte 0x{data[e.start]:02x}") from None


class Token(Record):
    __slots__ = ("kind", "text", "line", "col", "value")

    def __init__(self, kind, text, line, col, value=None):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.value = value  # integer tokens only


def tokenize(text, filename="<string>"):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            # A digit run ends before "..": 1..3 is INTEGER DOTDOT INTEGER.
            lit = text[i:j]
            val = int(lit)
            if val > INT64_MAX:
                raise LexError(filename, line, col, f"integer literal out of 64-bit range: {lit}")
            toks.append(Token("INTEGER", lit, line, col, val))
            col += j - i
            i = j
            continue
        if ch in _WORD_START:
            j = i
            while j < n and text[j] in _WORD:
                j += 1
            word = text[i:j]
            if word in KEYWORDS:
                kind = KEYWORDS[word]
            elif ch in _VARIABLE_START:
                kind = "VARIABLE"
            else:
                kind = "IDENT"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch == "#":
            if text.startswith("#const", i):
                toks.append(Token("CONSTDECL", "#const", line, col))
                i += 6
                col += 6
                continue
            raise LexError(filename, line, col, f"unknown directive at {text[i:i+10]!r}")
        for lit, kind in _PUNCT:
            if text.startswith(lit, i):
                toks.append(Token(kind, lit, line, col))
                i += len(lit)
                col += len(lit)
                break
        else:
            raise LexError(filename, line, col, f"illegal character {ch!r}")
    toks.append(Token("EOF", "", line, col))
    return toks
