import pytest

from aspkit.lexer import LexError, tokenize


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
