import random

from aspkit.analysis import (
    check_domain_restriction,
    classify_domain_predicates,
    lint,
)
from aspkit.grounding import desugar_program
from aspkit.parser import parse_text, substitute_constants
from aspkit.shared import strongly_connected_components


def analyze(text):
    program = substitute_constants(parse_text(text, "<t>"))
    program, _ = desugar_program(program)
    return program, classify_domain_predicates(program)


def errors(text):
    program, an = analyze(text)
    return [d.message for d in check_domain_restriction(program, an.domain)
            if d.severity == "error"]


def test_facts_and_acyclic_definitions_are_domain():
    _, an = analyze("d(1..3). e(X) :- d(X). f(X,Y) :- e(X), e(Y), X < Y.")
    assert {("d", 1), ("e", 1), ("f", 2)} <= an.domain


def test_recursive_predicate_is_not_domain():
    _, an = analyze("e(a,b). r(X,Y) :- e(X,Y). r(X,Z) :- r(X,Y), e(Y,Z).")
    assert ("e", 2) in an.domain
    assert ("r", 2) not in an.domain
    assert an.order == (("e", 2),)


def test_stratified_negation_keeps_domain_status():
    _, an = analyze("d(1..2). q(X) :- d(X), not p(X). p(1).")
    assert ("p", 1) in an.domain
    assert ("q", 1) in an.domain


def test_choice_head_is_demoted():
    # pick/1 is not recursive, but a choice head keeps it out of the domain
    _, an = analyze("d(1..3). { pick(X):d(X) }. p(X) :- pick(X).")
    assert an.order == (("d", 1),)


def test_aggregate_body_demotes_head():
    # two/0 and its dependants are not recursive, but an aggregate body
    # keeps two/0 out of the domain
    _, an = analyze("d(1..3). two :- 2 { d(X):d(X) }. three :- two.")
    assert an.order == (("d", 1),)


def test_ancestor_classification():
    with open("programs/ancestor.lp", encoding="utf-8") as fh:
        text = fh.read()
    program, an = analyze(text)
    heads = {rule.head.key() for rule in program.rules}
    assert sorted(heads - an.domain) == [("ancestor", 2)]


def test_dependency_graph_edges():
    # p depends on q through a positive literal, on r through a negative
    # one, and on s and t through a conditional literal and its condition:
    # each comes before p, in the order the rule uses it
    _, an = analyze("p(X) :- q(X), not r(X), s(Y) : t(Y). q(a). r(b). s(c). t(c).")
    assert an.order == (("q", 1), ("r", 1), ("s", 1), ("t", 1), ("p", 1))
    assert an.domain == frozenset(an.order)


def test_unbound_variable_in_negative_literal():
    msgs = errors("p(X) :- not q(X). q(a).")
    assert any("not bound by a positive domain literal" in m for m in msgs)


def test_unbound_head_variable():
    msgs = errors("d(1). p(X, Y) :- d(X).")
    assert any("'Y'" in m for m in msgs)


def test_comparison_does_not_bind():
    msgs = errors("d(1..3). p(X) :- X < 2.")
    assert msgs


def test_non_domain_positive_literal_does_not_bind():
    # r is recursive, so it cannot be used to restrict X.
    msgs = errors("e(a,b). r(X,Y) :- e(X,Y). r(X,Z) :- r(X,Y), e(Y,Z). p(X) :- r(X, X).")
    assert msgs


def test_condition_variables_are_local():
    msgs = errors("d(1..3). 1 { q(X):d(X) } 1.")
    assert msgs == []


def test_clean_program_has_no_errors():
    with open("programs/queens.lp", encoding="utf-8") as fh:
        program = substitute_constants(parse_text(fh.read(), "queens.lp"), {"n": 8})
    program, _ = desugar_program(program)
    an = classify_domain_predicates(program)
    diags = check_domain_restriction(program, an.domain)
    assert [d for d in diags if d.severity == "error"] == []


def test_lint_flags_undefined_predicate():
    program, _ = analyze("d(1..2). p(X) :- d(X), ghost(X).")
    notes = lint(program)
    assert any("ghost" in n.message and "never defined" in n.message for n in notes)


def test_lint_flags_singleton_variable():
    program, _ = analyze("d(1..2). p(X) :- d(X), d(Y).")
    notes = lint(program)
    assert any("'Y' occurs only once" in n.message for n in notes)


# -- strongly connected components ----------------------------------------------

def reference_sccs(adj, first=0):
    """The SCC routine as it was before it kept one iterator per node: one
    (node, edge index) tuple per edge step. Kept to pin the order."""
    n = len(adj)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    counter = 0
    out = []
    for root in range(first, n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            node, i = work[-1]
            if i < len(adj[node]):
                work[-1] = (node, i + 1)
                dep = adj[node][i]
                if dep < first:
                    continue
                if not index[dep]:
                    counter += 1
                    index[dep] = low[dep] = counter
                    stack.append(dep)
                    on_stack[dep] = True
                    work.append((dep, 0))
                elif on_stack[dep]:
                    if index[dep] < low[node]:
                        low[node] = index[dep]
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)
    return out


def reachable(adj, first, start):
    seen = {start}
    todo = [start]
    while todo:
        for dep in adj[todo.pop()]:
            if dep >= first and dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def random_cyclic_graph(rng):
    """Adjacency lists over 0..n-1 with a few planted cycles, self-loops,
    repeated edges and edges to nodes below a random `first`."""
    n = rng.randint(1, 14)
    adj = [[] for _ in range(n)]
    for _ in range(rng.randint(0, 3 * n)):
        adj[rng.randrange(n)].append(rng.randrange(n))
    for _ in range(rng.randint(0, 2)):
        cycle = rng.sample(range(n), rng.randint(1, n))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            adj[a].append(b)
    for edges in adj:
        rng.shuffle(edges)
    return adj, rng.choice([0, 0, rng.randrange(n)])


def test_sccs_are_reachability_classes_in_dependency_order():
    rng = random.Random(5)
    cyclic = self_loops = above_zero = 0
    for _ in range(3000):
        adj, first = random_cyclic_graph(rng)
        comps = strongly_connected_components(adj, first)
        assert comps == reference_sccs(adj, first)
        assert sorted(a for comp in comps for a in comp) == list(range(first, len(adj)))
        reach = {a: reachable(adj, first, a) for a in range(first, len(adj))}
        where = {a: ci for ci, comp in enumerate(comps) for a in comp}
        for a in reach:
            assert {b for b in reach if a in reach[b] and b in reach[a]} == set(comps[where[a]])
            for b in adj[a]:
                if b >= first:
                    assert where[b] <= where[a]
        cyclic += any(len(comp) > 1 for comp in comps)
        self_loops += any(a in adj[a] for a in reach)
        above_zero += first > 0
    assert cyclic >= 1500 and self_loops >= 1000 and above_zero >= 500
