"""Growth checks for the front end: grounding one rule costs at most about
twice as much when the rule gets twice as wide.

Each case writes one rule at width N and at width 2N, grounds it in keep
and in none mode, and counts two things rather than timing them: the
`Record.__eq__` calls the grounding makes, and the bytes of source it
generates for its rules. Counts do not depend on the machine or its load,
as timings do (Goldsmith, Aiken and Wilkerson, "Measuring empirical
computational complexity", ESEC/FSE 2007).
"""

import linecache

import pytest

from aspkit.pipeline import GroundOptions, ground_text_input
from aspkit.records import Record

N = 200


def _seq(fmt, n):
    return ", ".join(fmt.format(i) for i in range(n))


# width -> the program whose one rule has that width n
WIDTHS = {
    "positive domain literals":
        lambda n: " ".join(f"a{i}." for i in range(n)) + f"\np :- {_seq('a{}', n)}.\n",
    "negative domain literals": lambda n: f"b.\np :- b, {_seq('not a{}', n)}.\n",
    "positive non-domain literals":
        lambda n: f"d(0..{n - 1}).\n{{ a(X) : d(X) }}.\np :- {_seq('a({})', n)}.\n",
    "choice elements": lambda n: f"b.\n{{ {_seq('a{}', n)} }} :- b.\n",
    "aggregate elements":
        lambda n: f"b. d(0..{n - 1}).\n{{ a(X) : d(X) }}.\np :- b, 1 {{ {_seq('a({})', n)} }}.\n",
    "conditional instances": lambda n: f"d(0..{n - 1}).\n{{ a(X) : d(X) }}.\np :- a(X) : d(X).\n",
    "variables selected by X == 1":
        lambda n: f"d(0..1).\np :- {_seq('d(X{})', n)}, {_seq('X{} == 1', n)}.\n",
}

COUNTS = ("Record.__eq__ calls", "generated source bytes")

# Costs known to grow faster. A join deeper than rulegen._DEEPEST goes on in
# a function that takes every variable bound so far, so the source of a rule
# that binds n variables grows as n squared.
KNOWN = {("variables selected by X == 1", "generated source bytes"):
         "each part of a deep join takes every variable bound so far"}

CASES = [pytest.param(width, count, marks=[pytest.mark.xfail(strict=True, reason=KNOWN[width, count])]
                      if (width, count) in KNOWN else [])
         for width in WIDTHS for count in COUNTS]


class _Sources(dict):
    """A linecache that adds up the bytes of the rule sources put in it."""

    def __init__(self):
        super().__init__(linecache.cache)
        self.size = 0

    def __setitem__(self, name, entry):
        if name.startswith("<rule "):
            self.size += sum(map(len, entry[2]))
        super().__setitem__(name, entry)


def _counts(monkeypatch, text, mode):
    """The Record.__eq__ calls and the generated source bytes of grounding
    `text` in domain mode `mode`."""
    calls = 0
    eq = Record.__eq__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return eq(self, other)

    sources = _Sources()
    with monkeypatch.context() as m:
        m.setattr(Record, "__eq__", counted)
        m.setattr(linecache, "cache", sources)
        ground_text_input(text, GroundOptions(domain_mode=mode))
    return {"Record.__eq__ calls": calls, "generated source bytes": sources.size}


@pytest.mark.parametrize("mode", ["keep", "none"])
@pytest.mark.parametrize("width, count", CASES)
def test_twice_the_width_costs_at_most_about_twice_as_much(monkeypatch, width, count, mode):
    small, big = (_counts(monkeypatch, WIDTHS[width](n), mode)[count] for n in (N, 2 * N))
    assert big <= 2.5 * small + 1000, (small, big)
