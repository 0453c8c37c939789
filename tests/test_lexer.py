import pathlib
import random
import re

import pytest

import test_diagnostics
from aspkit import lexer
from aspkit.lexer import INT64_MAX, LexError, Token, tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent


def kinds(text):
    return [t.kind for t in tokenize(text, "<t>") if t.kind != "EOF"]


def texts(text):
    return [t.text for t in tokenize(text, "<t>") if t.kind != "EOF"]


def test_basic_rule_tokens():
    assert kinds("p(X) :- q(X).") == [
        "IDENT", "LPAREN", "VARIABLE", "RPAREN", "ARROW",
        "IDENT", "LPAREN", "VARIABLE", "RPAREN", "DOT"]


def test_comments_are_skipped():
    assert kinds("p. % the rest of this line vanishes\nq.") == \
        ["IDENT", "DOT", "IDENT", "DOT"]


def test_longest_match_punctuation():
    assert kinds("1..3") == ["INTEGER", "DOTDOT", "INTEGER"]
    assert kinds("X <= Y") == ["VARIABLE", "LE", "VARIABLE"]
    assert kinds("X == Y != Z") == ["VARIABLE", "EQ", "VARIABLE", "NE", "VARIABLE"]
    assert texts(":- .. . =") == [":-", "..", ".", "="]


def test_keywords_and_const_decl():
    assert kinds("not compute abs mod") == ["NOT", "COMPUTE", "ABS", "MOD"]
    assert kinds("#const n = 3.") == \
        ["CONSTDECL", "IDENT", "ASSIGN", "INTEGER", "DOT"]


def test_integer_values_and_range_edge():
    toks = tokenize("q(2..10).", "<t>")
    ints = [t.value for t in toks if t.kind == "INTEGER"]
    assert ints == [2, 10]


def test_int64_limits():
    big = 2 ** 63 - 1
    assert tokenize(f"p({big}).", "<t>")[2].value == big
    with pytest.raises(LexError):
        tokenize(f"p({big + 1}).", "<t>")
    # 2**63 directly after a minus token, spaces between or not: the parser
    # reads the minus as part of the literal, or rejects a binary one
    for text in (f"p(-{big + 1}).", f"p(- {big + 1}).", f"#const n = -{big + 1}.",
                 f"p(X - {big + 1})."):
        assert [t.value for t in tokenize(text, "<t>") if t.kind == "INTEGER"] == [big + 1]
    for text in (f"p(-{big + 2}).", f"p(-({big + 1})).", f"#const n = {big + 1}.", f"{big + 1}"):
        with pytest.raises(LexError) as err:
            tokenize(text, "<t>")
        digits = str(big + 2 if str(big + 2) in text else big + 1)
        assert (err.value.col, err.value.message) == (
            text.index(digits) + 1, f"integer literal out of 64-bit range: {digits}")


def test_integer_of_thousands_of_digits_is_out_of_range():
    # int() refuses a string of more than 4300 digits by default
    for lit in ("9" * 5000, "0" * 5000 + "9" * 20):
        with pytest.raises(LexError) as err:
            tokenize(f"p({lit}).", "<t>")
        assert (err.value.col, err.value.message) == (
            3, f"integer literal out of 64-bit range: {lit}")
    assert tokenize("p(" + "0" * 5000 + "7).", "<t>")[2].value == 7


def test_variables_and_identifiers():
    toks = tokenize("Xy _q abc aB", "<t>")
    assert [t.kind for t in toks[:-1]] == \
        ["VARIABLE", "VARIABLE", "IDENT", "IDENT"]


def test_error_carries_position():
    with pytest.raises(LexError) as err:
        tokenize("p.\n  ?", "bad.lp")
    assert err.value.line == 2
    assert "bad.lp:2" in str(err.value)


@pytest.mark.parametrize("text, ch", [("p(²).", "²"), ("p(٣).", "٣"), ("p(1²).", "²")])
def test_integers_are_ascii_digits(text, ch):
    # str.isdigit also accepts superscripts and other scripts' digits; the
    # grammar's INTEGER is [0-9]+.
    with pytest.raises(LexError) as err:
        tokenize(text, "<t>")
    assert err.value.message == f"illegal character {ch!r}"
    assert err.value.col == text.index(ch) + 1


@pytest.mark.parametrize("text, ch", [("p\u00e9.", "\u00e9"), ("q\u0663.", "\u0663"),
                                      ("X\u00b2 = 1.", "\u00b2"), ("\u00c9t.", "\u00c9"),
                                      ("_\u00df.", "\u00df")])
def test_names_are_ascii(text, ch):
    # str.isalpha, isalnum and isupper take letters and digits of any
    # script; the grammar's IDENT is [a-z][A-Za-z0-9_]* and its VARIABLE
    # [A-Z_][A-Za-z0-9_]*.
    with pytest.raises(LexError) as err:
        tokenize(text, "<t>")
    assert err.value.message == f"illegal character {ch!r}"
    assert err.value.col == text.index(ch) + 1


def test_eof_after_a_trailing_comment_keeps_the_comment_column():
    assert tokenize("p.  % note", "<t>")[-1].col == 5
    assert tokenize("p.  % note\n", "<t>")[-1].col == 1
    assert tokenize("p.  ", "<t>")[-1].col == 5


def test_docs_list_the_lexer_tables():
    # docs/grammar.md's Lexical structure states the reserved words and the
    # punctuation, in the order of the lexer's tables
    doc = (ROOT / "docs" / "grammar.md").read_text(encoding="utf-8")
    for header, table in (("Reserved words", list(lexer.KEYWORDS)),
                          ("Punctuation", [lit for lit, _ in lexer._PUNCT])):
        items = re.search(rf"^\* {header}[^:]*:((?:\s+`[^`]+`,?)+)", doc, re.M)
        assert items, header
        assert re.findall(r"`([^`]+)`", items.group(1)) == table


# -- the reference tokenizer ---------------------------------------------------
#
# The character loop the pattern replaced, kept as the reference that the
# pattern must agree with token for token and error for error. It differs
# from the loop that shipped only in admitting 2**63 directly after a minus.

_VARIABLE_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD_START = _VARIABLE_START | frozenset("abcdefghijklmnopqrstuvwxyz")
_WORD = _WORD_START | frozenset("0123456789")


def reference_tokenize(text, filename="<string>"):
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
            lit = text[i:j]
            val = int(lit)
            if val > INT64_MAX and not (val == INT64_MAX + 1 and toks and toks[-1].kind == "MINUS"):
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
            if word in lexer.KEYWORDS:
                kind = lexer.KEYWORDS[word]
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
        for lit, kind in lexer._PUNCT:
            if text.startswith(lit, i):
                toks.append(Token(kind, lit, line, col))
                i += len(lit)
                col += len(lit)
                break
        else:
            raise LexError(filename, line, col, f"illegal character {ch!r}")
    toks.append(Token("EOF", "", line, col))
    return toks


_ALPHABET = (
    list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")
    + [lit for lit, _ in lexer._PUNCT]
    + ["!", "%", "#", "#const", " ", "\t", "\r", "\n", "\u00e9", "\u0663", "\u00b2", "\x0b", "\x00"]
    + [f"{sign}{v}" for v in (2 ** 63, 2 ** 63 + 1) for sign in ("", "-")]
)


def _outcome(tokenizer, text):
    try:
        return tokenizer(text, "<t>")
    except LexError as e:
        return (e.file, e.line, e.col, e.message)


def test_pattern_agrees_with_the_reference_loop():
    rng = random.Random(30)
    texts = ["".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 40)))
             for _ in range(20000)]
    texts += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "programs").glob("*.lp"))]
    texts += [text for files, _ in test_diagnostics.corpus().values() for _, text in files]
    errors = 0
    for text in texts:
        want = _outcome(reference_tokenize, text)
        assert _outcome(tokenize, text) == want, text
        errors += type(want) is tuple
    # both outcomes occur thousands of times
    assert min(errors, len(texts) - errors) > 1000
