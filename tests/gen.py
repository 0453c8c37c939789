"""Deterministic random-program generators shared by the test modules.

Every generator takes a random.Random so callers control the seed; nothing
here touches the global RNG state.
"""

import random
import re

from aspkit.ground_format import GroundProgram
from aspkit.grounding import GAgg, GRule, SymbolTable, grule_source
from aspkit.primitives import translate_program
from aspkit.shared import FALSITY, BasicRule, ChoiceRule


def random_normal_ground(rng, max_atoms=10, max_rules=15):
    """A random propositional normal program in interchange form."""
    n_atoms = rng.randint(1, max_atoms)
    atoms = list(range(2, 2 + n_atoms))
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = FALSITY if rng.random() < 0.15 else rng.choice(atoms)
        body_size = rng.randint(0, min(3, n_atoms))
        body = rng.sample(atoms, body_size)
        neg_count = rng.randint(0, len(body))
        neg = tuple(sorted(body[:neg_count]))
        pos = tuple(sorted(body[neg_count:]))
        rules.append(BasicRule(head, pos, neg))
    symbols = {a: f"x{a}" for a in atoms}
    return GroundProgram(rules=rules, symbols=symbols, compute_true=(),
                         compute_false=(FALSITY,), models=0)


def random_binary_constraint_ground(rng, max_atoms=8):
    """A random ground program dense in two-literal integrity constraints
    `:- l1, l2`, with all four sign patterns and with one atom on both
    sides (`:- a, a`, `:- a, not a`, `:- not a, not a`), over a few choice
    and normal rules that leave the constraints models to prune."""
    n_atoms = rng.randint(1, max_atoms)
    atoms = list(range(2, 2 + n_atoms))
    rules = []
    if rng.random() < 0.6:
        rules.append(ChoiceRule(tuple(atoms), (), ()))
    for _ in range(rng.randint(0, 5)):
        body = rng.sample(atoms, rng.randint(0, min(2, n_atoms)))
        neg_count = rng.randint(0, len(body))
        pos, neg = tuple(sorted(body[neg_count:])), tuple(sorted(body[:neg_count]))
        if rng.random() < 0.4:
            heads = tuple(rng.sample(atoms, rng.randint(1, min(3, n_atoms))))
            rules.append(ChoiceRule(heads, pos, neg))
        else:
            rules.append(BasicRule(rng.choice(atoms), pos, neg))
    for _ in range(rng.randint(1, 3 * n_atoms)):
        a = rng.choice(atoms)
        b = a if rng.random() < 0.15 else rng.choice(atoms)
        signs = rng.choice([((a, b), ()), ((a,), (b,)), ((b,), (a,)), ((), (a, b))])
        rules.append(BasicRule(FALSITY, *signs))
    rng.shuffle(rules)
    symbols = {a: f"x{a}" for a in atoms}
    return GroundProgram(rules=rules, symbols=symbols, compute_true=(),
                         compute_false=(FALSITY,), models=0)


def basic_rule_runs(rng, max_atoms=60, max_runs=6):
    """A ground program whose rules come in runs of same-shaped basic rules,
    as the grounder writes one source rule for many bindings: per run,
    #lits 1-4, #neg 0-2 and 1-1,500 lines, so that runs cross the reader's
    1,024-line blocks. Neighbouring runs may share a width with another
    #neg, and a choice rule line may follow a run."""
    atoms = range(2, 2 + rng.randint(1, max_atoms))
    rules = []
    for _ in range(rng.randint(1, max_runs)):
        nlits = rng.randint(1, 4)
        nneg = rng.randint(0, min(2, nlits))
        for _ in range(rng.choice((rng.randint(1, 8), rng.randint(1, 1500)))):
            lits = tuple(rng.choice(atoms) for _ in range(nlits))
            head = FALSITY if rng.random() < 0.1 else rng.choice(atoms)
            rules.append(BasicRule(head, lits[nneg:], lits[:nneg]))
        if rng.random() < 0.3:
            rules.append(ChoiceRule((rng.choice(atoms),), lits[nneg:], lits[:nneg]))
    symbols = {a: f"x{a}" for a in atoms}
    return GroundProgram(rules=rules, symbols=symbols, compute_true=(),
                         compute_false=(FALSITY,), models=0)


def random_extended_source(rng, max_atoms=8):
    """Random ground rules with cardinality/weight aggregates.

    Returns (grules, table). Heads of aggregate rules only use positive,
    distinct elements, like grounder output does; weights may be negative
    so the translator's normalization gets exercised.
    """
    n_atoms = rng.randint(2, max_atoms)
    table = SymbolTable()
    atoms = [table.intern(f"p{i}") for i in range(1, n_atoms + 1)]

    def agg(weighted, in_head):
        k = rng.randint(1, min(4, n_atoms))
        chosen = rng.sample(atoms, k)
        elements = []
        for a in chosen:
            lit = a if (in_head or rng.random() < 0.7) else -a
            w = rng.randint(-2, 3) if weighted else 1
            elements.append((lit, w))
        total = sum(abs(w) for _, w in elements)
        lower = rng.randint(-1, total) if rng.random() < 0.8 else None
        upper = rng.randint(0, total) if rng.random() < 0.5 else None
        if lower is None and upper is None:
            lower = 0
        return GAgg(weighted, lower, upper, tuple(elements))

    def body():
        parts = []
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if roll < 0.5:
                a = rng.choice(atoms)
                parts.append(a if rng.random() < 0.6 else -a)
            else:
                parts.append(agg(rng.random() < 0.5, in_head=False))
        return tuple(parts)

    grules = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.25:
            grules.append(GRule(rng.choice(atoms), None, ()))
        elif roll < 0.5:
            grules.append(GRule(rng.choice(atoms), None, body()))
        elif roll < 0.7:
            grules.append(GRule(None, agg(rng.random() < 0.5, in_head=True),
                                body()))
        elif roll < 0.85:
            grules.append(GRule(FALSITY, None, body()))
        else:
            a = rng.choice(atoms)
            grules.append(GRule(a, None, body() + (rng.choice([-1, 1]) * rng.choice(atoms),)))
    return grules, table


def random_aggregate_program(rng):
    """Ground rules over 30 to 60 atoms that keep few stable models, for
    differentials beyond the brute-force cap. Choose-one groups open up to
    a dozen atoms; every other atom gets one or two rules whose bodies mix
    literals, negative ones included, with cardinality and weight
    aggregates over any atoms, so recursion through aggregates occurs; a
    few integrity constraints prune. Returns (grules, table)."""
    table = SymbolTable()
    atoms = [table.intern(f"p{i}") for i in range(1, rng.randint(30, 60) + 1)]

    def literal():
        a = rng.choice(atoms)
        return a if rng.random() < 0.75 else -a

    def aggregate():
        weighted = rng.random() < 0.5
        elements = tuple((literal(), rng.randint(-2, 3) if weighted else 1)
                         for _ in range(rng.randint(2, 5)))
        total = max(1, sum(abs(w) for _, w in elements))
        upper = rng.randint(1, total) if rng.random() < 0.3 else None
        return GAgg(weighted, rng.randint(1, total), upper, elements)

    def body(size):
        return tuple(aggregate() if rng.random() < 0.4 else literal() for _ in range(size))

    grules = []
    opened = 0
    for _ in range(rng.randint(2, 4)):
        group = atoms[opened:opened + rng.randint(2, 3)]
        opened += len(group)
        grules.append(GRule(None, GAgg(False, 1, 1, tuple((a, 1) for a in group)), ()))
    for head in atoms[opened:]:
        for _ in range(rng.randint(1, 2)):
            grules.append(GRule(head, None, body(rng.randint(1, 3))))
    for _ in range(rng.randint(1, 4)):
        grules.append(GRule(FALSITY, None, body(2)))
    return grules, table


def to_interchange(grules, table):
    """Translate source rules and wrap them for the solver."""
    rules = translate_program(grules, table)
    return GroundProgram(rules=rules, symbols=dict(table.named_items()),
                         compute_true=(), compute_false=(FALSITY,), models=0)


# Characters a mutant may gain: separators and line ends, signs and
# underscores, letters, digits of other scripts, other Unicode whitespace,
# and the control characters that str.split() and str.splitlines() take
# for whitespace or line ends.
_MUTANT_CHARS = (" ", "\t", "-", "+", "_", "0", "7", "a", "B", "\n", "\r",
                 "\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x7f",
                 "\x85", "\xa0", "\u2028", "\u3000", "\u0662", "\uff10")
_MUTANT_INTS = (-3, -2, -1, 0, 1, 2, 3, 4, 5, 9, 2 ** 31, 10 ** 20)


def mutate_ground(rng, text):
    """Ground-format text with one to three random edits: a number token
    replaced, negated, dropped or repeated; a line dropped, repeated or
    swapped with the next; a character inserted; a line end written
    \\r\\n or \\r; or the text cut short."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        toks = lines[i].split(" ")
        j = rng.randrange(len(toks))
        op = rng.randrange(10)
        if op == 0:
            toks[j] = str(rng.choice(_MUTANT_INTS))
        elif op == 1:
            toks[j] = "-" + toks[j]
        elif op == 2:
            del toks[j]
        elif op == 3:
            toks.insert(j, toks[j])
        elif op == 4:
            del lines[i]
        elif op == 5:
            lines.insert(i, lines[i])
        elif op == 6:
            lines[i:i + 2] = lines[i:i + 2][::-1]
        elif op == 7:
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice(_MUTANT_CHARS) + text[k:]
            continue
        elif op == 8:
            k = text.find("\n", rng.randrange(len(text) + 1))
            if k >= 0:
                text = text[:k] + rng.choice(("\r", "\r\n")) + text[k + 1:]
            continue
        else:
            text = text[:rng.randrange(len(text) + 1)]
            continue
        if op < 4:
            lines[i] = " ".join(toks)
        text = "\n".join(lines)
    return text


def aggregate_source(rng):
    """random_extended_source's rules as source text: cardinality and
    weight aggregates in heads and bodies, over propositional atoms."""
    grules, table = random_extended_source(rng)
    return "\n".join(grule_source(r, table) for r in grules) + "\n"


_SOURCE_TOKEN = re.compile(r"[A-Za-z0-9_]+|:-|\.\.|\S")
# Tokens a source mutant may gain: punctuation, keywords, a variable, an
# anonymous variable, numbers (one beyond the 64-bit range), operators,
# and characters the lexer rejects.
_SOURCE_EXTRA = ("(", ")", ",", ".", ":-", "not", "{", "}", "[", "]", "=", "..", ";",
                 "#const", "#compute", "X", "_", "0", "-1", "9223372036854775808",
                 "/", "mod", '"', "\u00e9", "\u0663", "\x00")


def mutate_source(rng, text):
    """Source text with one or two token edits: a name, variable or number
    replaced by another from the text; a token replaced by, or preceded
    by, one of _SOURCE_EXTRA; a token dropped or repeated; or the text cut
    short. Numbers come only from the text and _SOURCE_EXTRA, so any range
    a mutant writes is as small as they are, and every mutant grounds
    quickly."""
    for _ in range(rng.randint(1, 2)):
        toks = [m.span() for m in _SOURCE_TOKEN.finditer(text)]
        if not toks:
            break
        words = [(a, b) for a, b in toks if text[a].isalnum()]
        roll = rng.random()
        if roll < 0.5 and words:
            (a, b), (c, d) = rng.choice(words), rng.choice(words)
            text = text[:a] + text[c:d] + text[b:]
            continue
        a, b = rng.choice(toks)
        if roll < 0.6:
            text = text[:a] + rng.choice(_SOURCE_EXTRA) + text[b:]
        elif roll < 0.75:
            text = text[:a] + text[b:]
        elif roll < 0.85:
            text = text[:a] + text[a:b] + " " + text[a:]
        elif roll < 0.95:
            text = text[:a] + rng.choice(_SOURCE_EXTRA) + " " + text[a:]
        else:
            text = text[:rng.randrange(len(text) + 1)]
    return text


def scale_instance(n=2000, fanout=50):
    """Source text whose grounding is large: a long 3-colorable strip
    with a high-fanout reachability closure layered on top."""
    return "\n".join([
        f"node(1..{n}).",
        "color(r ; g ; b).",
        "1 { col(X,C) : color(C) } 1 :- node(X).",
        "near(X,Y) :- node(X), node(Y), Y > X, Y <= X + 2.",
        f"link(X,Y) :- node(X), node(Y), Y > X, Y <= X + {fanout}.",
        ":- col(X,C), col(Y,C), near(X,Y), color(C).",
        "reach(1).",
        "reach(Y) :- reach(X), link(X,Y).",
        f"done :- reach({n}).",
        ":- not done.",
    ]) + "\n"


_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")


def comparison_program(rng):
    """A random program whose rules join integer domain predicates under
    comparisons.

    Returns (text, filtered). `filtered` is the same program with every
    bare-variable side V of a comparison written as V + 0: over integers
    that keeps the meaning, but it stops the grounder from driving a join
    by that comparison, so both texts must ground to the same bytes. Facts
    are listed in shuffled order, so an extension's insertion order is not
    its sorted order.
    """
    lines = []
    preds = []  # (name, arity) of the domain predicates so far
    for name in ("a", "b"):
        for v in rng.sample(range(-6, 13), rng.randint(0, 8)):
            lines.append((f"{name}({v}).", None))
        preds.append((name, 1))
    for _ in range(rng.randint(0, 10)):
        lines.append((f"e({rng.randint(-3, 9)},{rng.randint(-3, 9)}).", None))
    preds.append(("e", 2))

    def expr(names):
        v = rng.choice(names)
        k = rng.randint(1, 4)
        return rng.choice([v, v, f"{v} + {k}", f"{v} - {k}", f"{v} * {k}",
                           f"{v} / {k}", f"{v} mod {k}", f"abs({v})", str(k - 2)])

    def body(names_out):
        atoms = []
        pool = ["X", "Y", "Z"]
        for _ in range(rng.randint(2, 3)):
            name, arity = rng.choice(preds)
            args = [rng.choice(pool) for _ in range(arity)]
            atoms.append(f"{name}({','.join(args)})")
            names_out.extend(a for a in args if a not in names_out)
        if len(atoms) > 1 and rng.random() < 0.2:
            # a computed argument, matched by a deferred equality
            name, arity = rng.choice([p for p in preds if p[1] >= 1])
            args = [rng.choice(names_out) for _ in range(arity)]
            args[0] = f"{names_out[0]} + {rng.randint(-1, 1)}"
            atoms.append(f"{name}({','.join(args)})")
        checks = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.15:
                # a negative domain literal among the comparisons
                name, arity = rng.choice(preds)
                args = ",".join(rng.choice(names_out) for _ in range(arity))
                checks.append(f"not {name}({args})")
                continue
            lhs, rhs = rng.choice(names_out), expr(names_out)
            if rng.random() < 0.5:
                lhs, rhs = rhs, lhs
            checks.append((lhs, rng.choice(_COMPARISON_OPS), rhs))
        return atoms, checks

    for i in range(rng.randint(2, 5)):
        names = []
        atoms, checks = body(names)
        head_args = rng.sample(names, rng.randint(1, min(2, len(names))))
        head = f"r{i}({','.join(head_args)})"
        lines.append((head, (atoms, checks)))
        preds.append((f"r{i}", len(head_args)))
    names = []
    atoms, checks = body(names)
    lines.append((f"{{ c({names[0]}) }}", (atoms, checks)))
    names = []
    atoms, checks = body(names)
    lines.append(("", ([f"c({names[0]})"] + atoms, checks)))

    def render(filtered):
        def side(t):
            return f"{t} + 0" if filtered and t in ("X", "Y", "Z") else t
        out = []
        for head, rule in lines:
            if rule is None:
                out.append(head)
                continue
            atoms, checks = rule
            parts = atoms + [c if isinstance(c, str) else f"{side(c[0])} {c[1]} {side(c[2])}"
                             for c in checks]
            out.append(f"{head} :- {', '.join(parts)}.")
        return "\n".join(out) + "\n"

    return render(False), render(True)


def conditional_program(rng):
    """A random domain-restricted program whose bodies and heads hold
    conditional literals and aggregate elements over domain and non-domain
    predicates, positive and negative, in cardinality and weight aggregates
    whose weights may be negative.

    The facts d/1 and e/2 and the rules for f0/1 and f1/1 define domain
    predicates; f0's and f1's bodies may hold conditional literals over d,
    e and f0, negative literals and comparisons. q/1 and r/2 are chosen
    freely. The rules for s0/1 to s2/1, the two head-aggregate rules over
    q, s1 and s2, and the optional constraint mix conditional literals,
    aggregates, plain literals and comparisons over all of these, so s0
    is a domain predicate when its body happens to hold neither an
    aggregate nor a non-domain literal. The choices stay small enough to
    enumerate every stable model.
    """
    lines = [f"d({v})." for v in rng.sample(range(5), rng.randint(2, 3))]
    lines += [f"e({a},{b})." for a, b in rng.sample(
        [(a, b) for a in range(4) for b in range(4)], rng.randint(1, 3))]
    domain = [("d", 1), ("e", 2)]
    other = [("q", 1), ("r", 2)]

    def conditions(local):
        """Domain atoms that bind every variable of `local`."""
        if len(local) == 2 and rng.random() < 0.6:
            return [f"e({local[0]},{local[1]})"]
        out = []
        for v in local:
            pred = rng.choice([p for p, n in domain if n == 1])
            out.append(f"{pred}({v})")
        if rng.random() < 0.3:
            pred, arity = rng.choice(domain)
            out.append(f"{pred}({','.join(rng.choice(local) for _ in range(arity))})")
        return out

    def element(preds, weighted, positive_only=False):
        local = rng.sample(["Y", "W"], rng.randint(1, 2))
        pred, arity = rng.choice(preds)
        args = [rng.choice(local + ["X"]) for _ in range(arity)]
        sign = "" if positive_only or rng.random() < 0.6 else "not "
        text = f"{sign}{pred}({','.join(args)})"
        text += "".join(f" : {c}" for c in conditions(local))
        if weighted:
            text += " = " + rng.choice([str(rng.randint(-2, 3)), f"{local[0]} - 2"])
        return text

    def aggregate(preds, head=False):
        weighted = rng.random() < 0.5
        elems = ", ".join(element(preds, weighted, head) for _ in range(rng.randint(1, 3)))
        lower = rng.randint(-2, 1 if head else 3) if weighted else rng.randint(0, 1 if head else 2)
        body = f"[ {elems} ]" if weighted else f"{{ {elems} }}"
        if head or rng.random() < 0.4:
            return f"{lower} {body} {lower + rng.randint(0, 1 if head else 3)}"
        return f"{lower} {body}"

    def body(preds, non_domain):
        parts = ["d(X)"]
        unary = [p for p, n in preds if n == 1]
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.5:
                parts.append(element(preds, False))
            elif roll < 0.7 and non_domain:
                parts.append(aggregate(preds))
            elif roll < 0.85 and len(unary) > 1:
                pred = rng.choice(unary[1:])
                parts.append(f"{'not ' if rng.random() < 0.5 else ''}{pred}(X)")
            else:
                parts.append(f"X {rng.choice(_COMPARISON_OPS)} {rng.randint(0, 4)}")
        return ", ".join(parts)

    lines.append("{ q(Y) : d(Y) }.")
    lines.append(f"{{ r(Y,W) : e(Y,W) }} {rng.randint(1, 2)}.")
    for i in range(2):
        lines.append(f"f{i}(X) :- {body(domain, False)}.")
        domain.append((f"f{i}", 1))
    for i in range(3):
        lines.append(f"s{i}(X) :- {body(domain + other, True)}.")
        other.append((f"s{i}", 1))
    heads = [("q", 1), ("s1", 1), ("s2", 1)]
    for _ in range(2):
        lines.append(f"{aggregate(heads, head=True)} :- {body(domain + other, True)}.")
    if rng.random() < 0.3:
        lines.append(f":- {body(domain + other, True)}.")
    return "\n".join(lines) + "\n"


def arithmetic_program(rng):
    """A random definite program that computes with + - * / mod abs over
    negative and positive operands, compares, and mixes in symbolic
    constants.

    d/1, e/2 and s/1 are facts, and the rules for p0/1 to p2/1 and q/2
    define domain predicates over them. t/1 is recursive, so it and u/1,
    which reads t and p0, are not domain predicates. Every value a rule
    derives is first matched against n(-6..6), so each is a constant the
    program mentions, as `oracle.naive_least_model` needs; every divisor
    is a nonzero constant or abs(V) + 1, and the values stay small, so
    grounding raises no error. Each rule has at most two variables, which
    keeps the naive evaluation quick.
    """
    lines = ["n(-6..6).", "s(a; b; c).", "t(0)."]
    lines += [f"d({v})." for v in rng.sample(range(-5, 6), rng.randint(2, 5))]
    lines += [f"e({a},{b})." for a, b in rng.sample(
        [(a, b) for a in range(-3, 4) for b in range(-3, 4)], rng.randint(1, 6))]

    def expr(names):
        x = rng.choice(names)
        y = rng.choice(names + [str(rng.randint(-3, 3))])
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        return rng.choice([
            x, f"{x} + {y}", f"{x} - {y}", f"{x} * {k}", f"{y} * -{x}", f"{x} / {k}",
            f"{x} mod {k}", f"abs({x}) - {abs(k)}", f"-{x}", f"{y} / (abs({x}) + 1)",
            f"({x} - {y}) mod (abs({y}) + 2)", f"abs({x} * {y}) / {k} + {x}"])

    def comparison(names):
        return f"{expr(names)} {rng.choice(_COMPARISON_OPS)} {expr(names)}"

    def rule(head, body, names):
        value = expr(names)
        parts = body + [f"n({value})"]
        if rng.random() < 0.7:
            parts.insert(rng.randrange(len(parts) + 1), comparison(names))
        return f"{head}({value}) :- {', '.join(parts)}."

    for i in range(3):
        body = rng.choice([["d(X)"], ["d(X)", "d(Y)"], ["e(X,Y)"], ["e(X,Y)", "d(Y)"]])
        lines.append(rule(f"p{i}", body, ["X", "Y"] if "Y" in "".join(body) else ["X"]))
    value = expr(["X"])
    lines.append(f"q(S,{value}) :- s(S), d(X), n({value}), "
                 f"S {rng.choice(['==', '!='])} {rng.choice('abc')}.")
    step = rng.choice(["X + 2", "X - 3", "X * -2 + 1", "abs(X) + 1", "(X + 5) mod 4"])
    lines.append(f"t(Z) :- t(X), n(X), n(Z), Z == {step}.")
    lines.append(rule("u", ["t(X)", "n(X)", "p0(Y)"], ["X", "Y"]))
    return "\n".join(lines) + "\n"


def queens_solutions(n):
    """All n-queens solutions as frozensets of (column, row) pairs.

    Independent of the solver: rows map to a permutation of columns and
    diagonal clashes are filtered out.
    """
    import itertools

    out = set()
    for perm in itertools.permutations(range(1, n + 1)):
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if abs(perm[i] - perm[j]) == j - i:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(frozenset((perm[r], r + 1) for r in range(n)))
    return out


def pigeonhole(pigeons, holes):
    """Source text placing every pigeon in one hole, no two in the same
    hole: no model when there are more pigeons than holes."""
    return "\n".join([
        f"pigeon(1..{pigeons}).",
        f"hole(1..{holes}).",
        "1 { in(P,H) : hole(H) } 1 :- pigeon(P).",
        ":- in(P,H), in(Q,H), pigeon(P), pigeon(Q), hole(H), P < Q.",
    ]) + "\n"


def planted_3sat(rng, variables, ratio=4.26):
    """A random 3-SAT instance with round(ratio * variables) clauses over
    variables 1..n, each of three distinct variables and drawn again until
    a hidden random assignment satisfies it, so that a model exists.

    Returns (text, clauses). The text is a choice rule over t/1 and one
    integrity constraint per clause, whose body is the clause's
    complement; a clause is a tuple of signed variables.
    """
    planted = {v: rng.random() < 0.5 for v in range(1, variables + 1)}
    clauses = []
    while len(clauses) < round(ratio * variables):
        clause = tuple(v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, variables + 1), 3))
        if any(planted[abs(l)] == (l > 0) for l in clause):
            clauses.append(clause)
    lines = [f"var(1..{variables}).", "{ t(V) } :- var(V)."]
    for clause in clauses:
        lines.append(":- " + ", ".join(f"not t({l})" if l > 0 else f"t({-l})"
                                       for l in clause) + ".")
    return "\n".join(lines) + "\n", clauses
