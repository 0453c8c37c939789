"""Numeric ground-program interchange format.

The file has five parts: rule lines, a symbol table, the B+ and B- compute
sections, and a model count. Atom ids are positive integers; id 1 is the
falsity atom, which is always listed in B- and never in the symbol table.

Rule lines (counts first, negative literals before positive ones):

    1 head #lits #neg  <neg..> <pos..>                    basic
    2 head #lits #neg bound <neg..> <pos..>               cardinality
    3 #heads <heads..> #lits #neg <neg..> <pos..>         choice
    5 head bound #lits #neg <neg..> <pos..> <negw..> <posw..>   weight

Parsing preserves section contents exactly, so emit(parse(text)) == text for
any file this module itself produced.
"""

from dataclasses import dataclass, field, replace

from .primitives import BasicRule, ChoiceRule, ConstraintRule, WeightRule


class FormatError(Exception):
    def __init__(self, lineno, message):
        self.lineno = lineno
        self.message = message
        super().__init__(f"line {lineno}: {message}")


class UnknownRuleTypeError(FormatError):
    pass


@dataclass
class GroundProgram:
    rules: list
    symbols: dict        # atom id -> name, in file order
    compute_true: tuple  # B+ atom ids
    compute_false: tuple # B- atom ids (includes the falsity atom)
    models: int
    # the largest atom id, set by compact_atom_ids, which has counted them
    n_atoms: int = field(default=None, compare=False, repr=False)

    def atom_ids(self):
        """Every atom id the program mentions, and the falsity atom."""
        used = {1}
        used.update(self.symbols, self.compute_true, self.compute_false)
        for r in self.rules:
            used.update(r.heads if isinstance(r, ChoiceRule) else (r.head,), r.pos, r.neg)
        return used

    def atom_count(self):
        return max(self.atom_ids()) if self.n_atoms is None else self.n_atoms


def compact_atom_ids(gp):
    """Number the atoms `gp` uses (in rules, symbols and compute sections,
    plus the falsity atom) 1..k in their original order, so that arrays
    indexed by atom id grow with the program rather than with its largest
    id. Returns (program, ids) with ids[i] the original id of atom i, or
    (a copy of gp, None) when `gp` already uses exactly 1..k. Either
    program knows its atom count k, so atom_count() scans nothing."""
    used = gp.atom_ids()
    k = len(used)
    if max(used) == k:
        return replace(gp, n_atoms=k), None
    ids = [0] + sorted(used)
    new = {a: i for i, a in enumerate(ids)}

    def ren(atoms):
        return tuple(new[a] for a in atoms)

    rules = [replace(r, heads=ren(r.heads), pos=ren(r.pos), neg=ren(r.neg))
             if isinstance(r, ChoiceRule)
             else replace(r, head=new[r.head], pos=ren(r.pos), neg=ren(r.neg))
             for r in gp.rules]
    symbols = {new[a]: name for a, name in gp.symbols.items()}
    return GroundProgram(rules, symbols, ren(gp.compute_true), ren(gp.compute_false),
                         gp.models, k), ids


def _rule_line(r):
    if isinstance(r, BasicRule):
        nums = [1, r.head, len(r.pos) + len(r.neg), len(r.neg), *r.neg, *r.pos]
    elif isinstance(r, ConstraintRule):
        nums = [2, r.head, len(r.pos) + len(r.neg), len(r.neg), r.bound,
                *r.neg, *r.pos]
    elif isinstance(r, ChoiceRule):
        nums = [3, len(r.heads), *r.heads, len(r.pos) + len(r.neg), len(r.neg),
                *r.neg, *r.pos]
    elif isinstance(r, WeightRule):
        nums = [5, r.head, r.bound, len(r.pos) + len(r.neg), len(r.neg),
                *r.neg, *r.pos, *r.neg_weights, *r.pos_weights]
    else:
        raise TypeError(f"not a primitive rule: {r!r}")
    return " ".join(str(n) for n in nums)


def emit_ground_program(gp):
    lines = [_rule_line(r) for r in gp.rules]
    lines.append("0")
    for i, name in gp.symbols.items():
        lines.append(f"{i} {name}")
    lines.append("0")
    lines.append("B+")
    lines.extend(str(i) for i in gp.compute_true)
    lines.append("0")
    lines.append("B-")
    lines.extend(str(i) for i in gp.compute_false)
    lines.append("0")
    lines.append(str(gp.models))
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    @property
    def lineno(self):
        return self.pos

    def next_line(self, what):
        if self.pos >= len(self.lines):
            raise FormatError(self.pos + 1, f"unexpected end of input, expected {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def next_numbers(self, what):
        """The integers of the next line, each written -?[0-9]+. int() alone
        would also read other scripts' digits, "_" and a leading "+"."""
        line = self.next_line(what)
        if line.isascii() and "_" not in line and "+" not in line:
            try:
                return [int(p) for p in line.split()]
            except ValueError:
                pass
        raise FormatError(self.pos, f"expected {what}, got {line!r}")


def _take(nums, n, rd, what):
    if len(nums) < n:
        raise FormatError(rd.lineno, f"truncated {what}")
    return nums[:n], nums[n:]


def _bad_atom_id(ids, rd, what):
    """Atom ids are positive; the solver would read a negative one as an
    index from the end of its arrays."""
    bad = next(i for i in ids if i <= 0)
    raise FormatError(rd.lineno, f"atom id {bad} in {what} is not positive")


def _parse_rule(nums, rd):
    t = nums[0]
    rest = nums[1:]
    if t == 1:
        taken, rest = _take(rest, 3, rd, "basic rule")
        head, nlits, nneg = taken
        if nneg > nlits or nneg < 0:
            raise FormatError(rd.lineno, "bad literal counts in basic rule")
        lits, rest = _take(rest, nlits, rd, "basic rule")
        if head <= 0 or (lits and min(lits) <= 0):
            _bad_atom_id((head, *lits), rd, "basic rule")
        rule = BasicRule(head, tuple(lits[nneg:]), tuple(lits[:nneg]))
    elif t == 2:
        taken, rest = _take(rest, 4, rd, "cardinality rule")
        head, nlits, nneg, bound = taken
        if nneg > nlits or nneg < 0:
            raise FormatError(rd.lineno, "bad literal counts in cardinality rule")
        lits, rest = _take(rest, nlits, rd, "cardinality rule")
        if head <= 0 or (lits and min(lits) <= 0):
            _bad_atom_id((head, *lits), rd, "cardinality rule")
        rule = ConstraintRule(head, bound, tuple(lits[nneg:]), tuple(lits[:nneg]))
    elif t == 3:
        taken, rest = _take(rest, 1, rd, "choice rule")
        heads, rest = _take(rest, taken[0], rd, "choice rule")
        taken, rest = _take(rest, 2, rd, "choice rule")
        nlits, nneg = taken
        if nneg > nlits or nneg < 0:
            raise FormatError(rd.lineno, "bad literal counts in choice rule")
        lits, rest = _take(rest, nlits, rd, "choice rule")
        if (heads and min(heads) <= 0) or (lits and min(lits) <= 0):
            _bad_atom_id((*heads, *lits), rd, "choice rule")
        rule = ChoiceRule(tuple(heads), tuple(lits[nneg:]), tuple(lits[:nneg]))
    elif t == 5:
        taken, rest = _take(rest, 4, rd, "weight rule")
        head, bound, nlits, nneg = taken
        if nneg > nlits or nneg < 0:
            raise FormatError(rd.lineno, "bad literal counts in weight rule")
        lits, rest = _take(rest, nlits, rd, "weight rule")
        weights, rest = _take(rest, nlits, rd, "weight rule")
        if head <= 0 or (lits and min(lits) <= 0):
            _bad_atom_id((head, *lits), rd, "weight rule")
        rule = WeightRule(head, bound, tuple(lits[nneg:]), tuple(lits[:nneg]),
                          tuple(weights[nneg:]), tuple(weights[:nneg]))
    elif t in (4, 6, 8):
        raise UnknownRuleTypeError(rd.lineno, f"unsupported rule type {t}")
    else:
        raise FormatError(rd.lineno, f"unknown rule type {t}")
    if rest:
        raise FormatError(rd.lineno, f"trailing numbers on type-{t} rule line")
    return rule


def parse_ground_program(text):
    rd = _Reader(text)
    rules = []
    while True:
        nums = rd.next_numbers("a rule line or 0")
        if not nums:
            raise FormatError(rd.lineno, "blank line in rules section")
        if nums == [0]:
            break
        rules.append(_parse_rule(nums, rd))

    symbols = {}
    while True:
        line = rd.next_line("a symbol line or 0")
        if line.strip() == "0":
            break
        parts = line.split(None, 1)
        if len(parts) != 2 or not (parts[0].isascii() and parts[0].isdigit()):
            raise FormatError(rd.lineno, f"malformed symbol line {line!r}")
        i = int(parts[0])
        if i == 0:
            _bad_atom_id((i,), rd, "symbol line")
        if i in symbols:
            raise FormatError(rd.lineno, f"duplicate symbol entry for atom {i}")
        symbols[i] = parts[1]

    def id_section(header):
        line = rd.next_line(f"'{header}'")
        if line.strip() != header:
            raise FormatError(rd.lineno, f"expected '{header}', got {line!r}")
        ids = []
        while True:
            nums = rd.next_numbers(f"an atom id or 0 in {header}")
            if nums == [0]:
                return tuple(ids)
            if len(nums) != 1 or nums[0] <= 0:
                raise FormatError(rd.lineno, f"malformed id line in {header}")
            ids.append(nums[0])

    compute_true = id_section("B+")
    compute_false = id_section("B-")

    nums = rd.next_numbers("the model count")
    if len(nums) != 1 or nums[0] < 0:
        raise FormatError(rd.lineno, "malformed model count")
    models = nums[0]
    while rd.pos < len(rd.lines):
        if rd.lines[rd.pos].strip():
            raise FormatError(rd.pos + 1, "unexpected content after model count")
        rd.pos += 1
    return GroundProgram(rules, symbols, compute_true, compute_false, models)
