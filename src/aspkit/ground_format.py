"""Numeric ground-program interchange format.

The file has five parts: rule lines, a symbol table, the B+ and B- compute
sections, and a model count. Atom ids are positive integers; id 1 is the
falsity atom, which is always listed in B- and never in the symbol table.

Lines end at LF, CR LF or CR. Spaces and tabs separate numbers, and a
symbol's id from its name; no other whitespace separates anything. Rule
lines (counts first, negative literals before positive ones):

    1 head #lits #neg  <neg..> <pos..>                    basic
    2 head #lits #neg bound <neg..> <pos..>               cardinality
    3 #heads <heads..> #lits #neg <neg..> <pos..>         choice
    5 head bound #lits #neg <neg..> <pos..> <negw..> <posw..>   weight

Parsing preserves section contents exactly, so emit(parse(text)) == text for
any file this module itself produced. The writer builds the rule section with
one %: a format per rule shape, its counts written in, and one list of numbers.
The reader takes the writer's form in bulk, runs of basic rules of one shape
by columns, and any other form line by line, with the same result.
"""

import re
from itertools import groupby, repeat
from operator import ne

from .records import Record
from .shared import BasicRule, ChoiceRule, ConstraintRule, WeightRule


class FormatError(Exception):
    def __init__(self, lineno, message):
        self.lineno = lineno
        self.message = message
        super().__init__(f"line {lineno}: {message}")


class UnknownRuleTypeError(FormatError):
    pass


class GroundProgram(Record):
    __slots__ = ("rules", "symbols", "compute_true", "compute_false", "models", "n_atoms")
    _uncompared = ("n_atoms",)
    __hash__ = None

    def __init__(self, rules, symbols, compute_true, compute_false, models, n_atoms=None):
        self.rules = rules
        self.symbols = symbols              # atom id -> name, in file order
        self.compute_true = compute_true    # B+ atom ids
        self.compute_false = compute_false  # B- atom ids (includes the falsity atom)
        self.models = models
        # k when the program uses exactly the atom ids 1..k (dense ids); set
        # only by compact_atom_ids, which has counted them, and by the grounder,
        # which numbers atoms densely. None: not known, as for a parsed file,
        # whose atoms a Solver counts, and renumbers if they leave gaps.
        self.n_atoms = n_atoms

    def atom_ids(self):
        """Every atom id the program mentions, and the falsity atom."""
        used = {1}
        used.update(self.symbols, self.compute_true, self.compute_false)
        for r in self.rules:
            used.update(r.heads if isinstance(r, ChoiceRule) else (r.head,), r.pos, r.neg)
        return used


def compact_atom_ids(gp):
    """Number the atoms `gp` uses (in rules, symbols and compute sections,
    plus the falsity atom) 1..k in their original order, so that arrays
    indexed by atom id grow with the program rather than with its largest
    id. Returns (program, ids) with ids[i] the original id of atom i, or
    (gp or a copy of it, None) when `gp` already uses exactly 1..k. Either
    program knows its atom count k in `n_atoms`; a `gp` that already knows
    it is not scanned. `Solver(gp)` calls this on every program it is given."""
    if gp.n_atoms is not None:
        return gp, None
    used = gp.atom_ids()
    k = len(used)
    if max(used) == k:
        return GroundProgram(gp.rules, gp.symbols, gp.compute_true, gp.compute_false,
                             gp.models, k), None
    ids = [0] + sorted(used)
    new = {a: i for i, a in enumerate(ids)}

    def ren(atoms):
        return tuple(new[a] for a in atoms)

    def renamed(r):
        if isinstance(r, BasicRule):
            return BasicRule(new[r.head], ren(r.pos), ren(r.neg))
        if isinstance(r, ChoiceRule):
            return ChoiceRule(ren(r.heads), ren(r.pos), ren(r.neg))
        if isinstance(r, ConstraintRule):
            return ConstraintRule(new[r.head], r.bound, ren(r.pos), ren(r.neg))
        return WeightRule(new[r.head], r.bound, ren(r.pos), ren(r.neg),
                          r.pos_weights, r.neg_weights)

    rules = list(map(renamed, gp.rules))
    symbols = {new[a]: name for a, name in gp.symbols.items()}
    return GroundProgram(rules, symbols, ren(gp.compute_true), ren(gp.compute_false),
                         gp.models, k), ids


def _format(r):
    """Rule r's line format: type and counts written in, the rest %d."""
    n, k = len(r.neg) + len(r.pos), len(r.neg)
    lits = " %d" * n
    if type(r) is BasicRule:
        return f"1 %d {n} {k}{lits}"
    if type(r) is ConstraintRule:
        return f"2 %d {n} {k} %d{lits}"
    if type(r) is ChoiceRule:
        return f"3 {len(r.heads)}{' %d' * len(r.heads)} {n} {k}{lits}"
    return f"5 %d %d {n} {k}{lits}" + " %d" * (len(r.neg_weights) + len(r.pos_weights))


def emit_ground_program(gp):
    formats, numbers, cache = [], [], {}  # cache: shape -> format, for this call
    for r in gp.rules:
        t = type(r)
        if t is BasicRule:
            shape = (t, len(r.neg), len(r.pos))
            numbers.append(r.head)
        elif t is ChoiceRule:
            shape = (t, len(r.neg), len(r.pos), len(r.heads))
            numbers += r.heads
        elif t is ConstraintRule:
            shape = (t, len(r.neg), len(r.pos))
            numbers += r.head, r.bound
        elif t is WeightRule:
            shape = (t, len(r.neg), len(r.pos), len(r.neg_weights), len(r.pos_weights))
            numbers += r.head, r.bound
        else:
            raise TypeError(f"not a primitive rule: {r!r}")
        numbers += r.neg
        numbers += r.pos
        if t is WeightRule:
            numbers += r.neg_weights + r.pos_weights
        formats.append(cache.get(shape) or cache.setdefault(shape, _format(r)))
    # formats, not gp.rules, tells an empty section: a generator is truthy
    lines = ["\n".join(formats) % tuple(numbers)] if formats else []
    del formats, numbers  # so they do not add to the peak of the join below
    return "\n".join([*lines, "0", *[f"{i} {a}" for i, a in gp.symbols.items()], "0",
                      "B+", *map(str, gp.compute_true), "0", "B-",
                      *map(str, gp.compute_false), "0", str(gp.models), ""])


_RULE_KINDS = {1: "basic rule", 2: "cardinality rule", 3: "choice rule", 5: "weight rule"}

# A number line holds integers written -?[0-9]+, separated by spaces and
# tabs. int() alone would also read other scripts' digits, "_" and a
# leading "+", and str.split() would also split at \x0b, \x0c and \x1c-\x1f.
_NOT_A_NUMBER_LINE = re.compile(r"[^0-9 \t-]")
# Lines end only at \n, \r\n or \r. A control character other than tab, or
# U+2028 or U+2029, is an error in any line: str.splitlines(), str.split()
# and str.strip() take some of them for line ends or whitespace, and no
# atom name holds one.
_CONTROL = re.compile("[\x00-\x08\x0b-\x1f\x7f-\x9f\u2028\u2029]")


def _line(lines, lineno, what, bad=_CONTROL):
    """Line lineno + 1, which should hold `what` and no character that
    `bad` matches."""
    if lineno >= len(lines):
        raise FormatError(lineno + 1, f"unexpected end of input, expected {what}")
    line = lines[lineno]
    if bad.search(line):
        raise FormatError(lineno + 1, f"expected {what}, got {line!r}")
    return line


def _numbers(lines, lineno, what):
    """The integers of line lineno + 1."""
    line = _line(lines, lineno, what, _NOT_A_NUMBER_LINE)
    try:
        return list(map(int, line.split()))
    except ValueError:  # a "-" that starts no number
        raise FormatError(lineno + 1, f"expected {what}, got {line!r}") from None


def _parse_rule(nums, lineno):
    """The rule on a line of integers. Every type has the same layout: a
    head part (`head`; `#heads <heads..>` for type 3; `head bound` for
    type 5), then `#lits #neg` (and `bound` for type 2), then
    `<neg..> <pos..>` (and `<negw..> <posw..>` for type 5)."""
    t = nums[0]
    what = _RULE_KINDS.get(t)
    if what is None:
        if t in (4, 6, 8):
            raise UnknownRuleTypeError(lineno, f"unsupported rule type {t}")
        raise FormatError(lineno, f"unknown rule type {t}")
    n = len(nums)
    if t == 3:
        nheads = nums[1] if n > 1 else 0
        if nheads < 0:
            raise FormatError(lineno, "bad head count in choice rule")
        c = 2 + nheads
        heads = nums[2:c]
    else:
        c = 3 if t == 5 else 2
        heads = nums[1:2]
    first = c + 3 if t == 2 else c + 2  # index of the first literal
    if n < first:
        raise FormatError(lineno, f"truncated {what}")
    nlits, nneg = nums[c], nums[c + 1]
    if nneg > nlits or nneg < 0:
        raise FormatError(lineno, f"bad literal counts in {what}")
    end = first + nlits
    lits = nums[first:end]
    if t == 5:
        end += nlits
    if n < end:
        raise FormatError(lineno, f"truncated {what}")
    # The solver would read a negative atom id as an index from the end of
    # its arrays.
    ids = heads + lits
    if ids and min(ids) <= 0:
        bad = next(a for a in ids if a <= 0)
        raise FormatError(lineno, f"atom id {bad} in {what} is not positive")
    if n > end:
        raise FormatError(lineno, f"trailing numbers on type-{t} rule line")
    neg, pos = tuple(lits[:nneg]), tuple(lits[nneg:])
    if t == 1:
        return BasicRule(nums[1], pos, neg)
    if t == 2:
        return ConstraintRule(nums[1], nums[c + 2], pos, neg)
    if t == 3:
        return ChoiceRule(tuple(heads), pos, neg)
    weights = nums[first + nlits:end]
    return WeightRule(nums[1], nums[2], pos, neg,
                      tuple(weights[nneg:]), tuple(weights[:nneg]))


def _read_rules(lines):
    """The rules up to the line holding 0, and the number of lines read,
    checking one line at a time."""
    lineno = 0
    rules = []
    while True:
        nums = _numbers(lines, lineno, "a rule line or 0")
        lineno += 1
        if not nums:
            raise FormatError(lineno, "blank line in rules section")
        if nums == [0]:
            return rules, lineno
        rules.append(_parse_rule(nums, lineno))


# The rule section as the writer emits it: lines of unsigned ASCII integers
# with a nonzero type first, then the line 0. None of these lines ends the
# section early, and each that holds only single spaces reads as a rule
# line in _read_rules.
_CANONICAL_RULES = re.compile(r"(?:[1-9][0-9 ]*\n)*0\n")
# Rule lines whose number strings are split at once; this bounds the memory
# they take.
_BLOCK = 1024
# A block whose runs average fewer lines than this is read line by line:
# below it the per-run slicing costs more than the int() calls it saves.
_RUN_LINES = 6


def _read_rules_bulk(text, lines):
    """What _read_rules(lines) returns, for a text whose rule section is in
    the writer's canonical form; None for any other text, and for a number
    int() cannot read. The section is split into blocks of lines, and a
    block into runs: consecutive lines with the same number count. A run
    of basic rules is read by columns (_read_run); any other run, and every
    line of a block of short runs, is read line by line (_read_lines)."""
    m = _CANONICAL_RULES.match(text)
    if m is None:
        return None
    count = text.count("\n", 0, m.end()) - 1  # the rule lines
    rules = []
    try:
        for start in range(0, count, _BLOCK):
            block = lines[start:min(start + _BLOCK, count)]
            widths = list(map(str.count, block, repeat(" ")))  # numbers less one
            strings = " ".join(block).split(" ")
            runs = 1 + sum(map(ne, widths[1:], widths))
            if runs * _RUN_LINES > len(block):
                _read_lines(strings, widths, rules)
                continue
            at = 0  # strings[at] is the first number of the run
            for width, run in groupby(widths):
                size = len(list(run))
                end = at + size * (width + 1)
                if not _read_run(strings, at, end, width + 1, rules):
                    _read_lines(strings[at:end], repeat(width, size), rules)
                at = end
    except ValueError:  # an empty string, from a run of spaces or a leading
        return None     # or trailing one; or too many digits
    return rules, count + 1


def _read_run(strings, at, end, n, rules):
    """Append the rules of the lines in strings[at:end], n numbers each,
    when every line is `1 head #lits #neg <neg..> <pos..>` with #lits
    n - 4, one #neg throughout and no atom 0; return whether it did. The
    type and #lits columns must hold "1" and str(n - 4), so a count
    written with a leading zero sends the run line by line, and every
    #neg must be the first line's string. Only heads and literals go
    through int()."""
    if n < 4:
        return False
    lines = (end - at) // n
    nneg = strings[at + 3]
    k = int(nneg)
    if not (k <= n - 4
            and strings[at:end:n].count("1") == lines
            and strings[at + 2:end:n].count(str(n - 4)) == lines
            and strings[at + 3:end:n].count(nneg) == lines):
        return False
    heads = list(map(int, strings[at + 1:end:n]))
    if 0 in heads:
        return False
    cols = []
    for j in range(at + 4, at + n):
        col = tuple(map(int, strings[j:end:n]))
        if 0 in col:
            return False
        cols.append(col)
    neg = zip(*cols[:k]) if k else repeat(())
    pos = zip(*cols[k:]) if k < n - 4 else repeat(())
    rules += map(BasicRule, heads, pos, neg)
    return True


def _read_lines(strings, widths, rules):
    """Append the rules of lines whose number strings are `strings` and
    whose space counts are `widths`, one line at a time: a basic rule by
    index arithmetic, any other line, and a basic rule line that fails a
    check, by _parse_rule."""
    nums = tuple(map(int, strings))
    append = rules.append
    i = 0  # nums[i] is the first integer of the line
    for n in widths:
        end = i + n + 1
        # 1 head #lits #neg <neg..> <pos..>, where no number is negative
        if n > 2 and nums[i] == 1 and nums[i + 2] == n - 3 and nums[i + 1]:
            k = i + 4 + nums[i + 3]
            neg = nums[i + 4:k]
            pos = nums[k:end]
            if k <= end and 0 not in neg and 0 not in pos:
                append(BasicRule(nums[i + 1], pos, neg))
                i = end
                continue
        append(_parse_rule(nums[i:end], len(rules) + 1))
        i = end


# A symbol line: spaces and tabs lead the id and separate it from the name,
# and the name starts with a character that is not whitespace.
_SYMBOL_LINE = re.compile(r"[ \t]*([0-9]+)[ \t]+(\S.*)")
# Symbol lines as the writer emits them: an id without a leading zero, one
# space, and a name.
_CANONICAL_SYMBOLS = re.compile(r"[1-9][0-9]* \S.*(?:\n[1-9][0-9]* \S.*)*")


def _read_symbols(lines, lineno):
    """The symbol table from line lineno + 1 on, and the number of lines
    read up to its closing 0, checking one line at a time."""
    symbols = {}
    while True:
        line = _line(lines, lineno, "a symbol line or 0")
        lineno += 1
        if line.strip(" \t") == "0":
            return symbols, lineno
        m = _SYMBOL_LINE.fullmatch(line)
        if m is None:
            raise FormatError(lineno, f"malformed symbol line {line!r}")
        try:
            i = int(m[1])
        except ValueError:  # more digits than int() reads
            raise FormatError(lineno, f"malformed symbol line {line!r}") from None
        if i == 0:
            raise FormatError(lineno, "atom id 0 in symbol line is not positive")
        if i == 1:
            raise FormatError(lineno, "atom id 1 in symbol line is the falsity atom")
        if i in symbols:
            raise FormatError(lineno, f"duplicate symbol entry for atom {i}")
        symbols[i] = m[2]


def _read_symbols_bulk(lines, lineno):
    """What _read_symbols(lines, lineno) returns, for a symbol table in the
    writer's canonical form; None for any other form, and for a duplicate
    id or for the falsity atom. The table is checked as a whole, then each
    line is split once."""
    try:
        end = lines.index("0", lineno)
    except ValueError:
        return None
    block = lines[lineno:end]
    # str.isprintable is false for each character _CONTROL matches, and
    # for every whitespace character but the space.
    if block and not (all(map(str.isprintable, block))
                      and _CANONICAL_SYMBOLS.fullmatch("\n".join(block))):
        return None
    symbols = {}
    try:
        for line in block:
            i, _, name = line.partition(" ")
            symbols[int(i)] = name
    except ValueError:  # an id with more digits than int() reads
        return None
    if len(symbols) != len(block) or 1 in symbols:
        return None
    return symbols, end + 1


def parse_ground_program(text):
    """The GroundProgram in `text`. A rule section and a symbol table in the
    form emit_ground_program writes are read in bulk, anything else line by
    line; either way gives the same program, or the same FormatError."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the text ends with a line end, or is empty
    # lineno counts the lines read so far; errors name the last one read
    rules, lineno = _read_rules_bulk(text, lines) or _read_rules(lines)
    symbols, lineno = _read_symbols_bulk(lines, lineno) or _read_symbols(lines, lineno)

    compute = []
    for header in ("B+", "B-"):
        line = _line(lines, lineno, f"'{header}'")
        lineno += 1
        if line.strip(" \t") != header:
            raise FormatError(lineno, f"expected '{header}', got {line!r}")
        ids = []
        while True:
            nums = _numbers(lines, lineno, f"an atom id or 0 in {header}")
            lineno += 1
            if nums == [0]:
                break
            if len(nums) != 1 or nums[0] <= 0:
                raise FormatError(lineno, f"malformed id line in {header}")
            ids.append(nums[0])
        compute.append(tuple(ids))

    nums = _numbers(lines, lineno, "the model count")
    lineno += 1
    if len(nums) != 1 or nums[0] < 0:
        raise FormatError(lineno, "malformed model count")
    for line in lines[lineno:]:
        lineno += 1
        if line.strip(" \t"):
            raise FormatError(lineno, "unexpected content after model count")
    return GroundProgram(rules, symbols, *compute, nums[0])
