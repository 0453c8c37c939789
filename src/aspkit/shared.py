"""What the grounder and the solver share, and nothing more.

aspkit has two halves, as lparse and smodels are two programs. The front
end (lexer, syntax, parser, analysis, grounding, primitives) turns source
programs into primitive rules; the back end (ground_format, solver,
wellfounded) reads primitive rules and searches. Both import this module,
and the back end imports nothing of the front end, so a process that only
solves never loads the front end. It holds the reserved falsity atom, the
four primitive rule records, weight normalisation, Tarjan's algorithm
(used for predicates by analysis and for atoms by the solver) and the
strict UTF-8 reading of input text.
"""

from .records import Record

FALSITY = 1  # reserved atom id, never user-visible


class LexError(Exception):
    """Input text that is not UTF-8 or not a token, at a 1-based position."""

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


class UnsupportedRuleTypeError(Exception):
    """A rule of a type the consumer of a primitive program cannot handle."""


class BasicRule(Record):
    __slots__ = ("head", "pos", "neg")


class ConstraintRule(Record):
    """head derivable when at least `bound` body literals hold."""
    __slots__ = ("head", "bound", "pos", "neg")


class ChoiceRule(Record):
    __slots__ = ("heads", "pos", "neg")


class WeightRule(Record):
    """head derivable when the satisfied weights sum to at least `bound`."""
    __slots__ = ("head", "bound", "pos", "neg", "pos_weights", "neg_weights")


def normalize_weight_elements(elements, bound):
    """Merge duplicates and rewrite negative weights on the complement.

    (lit, w) with w < 0 becomes (not lit, -w) with the bound raised by -w,
    since w*[lit] = -w*[not lit] + w. Zero-weight elements vanish. The
    resulting bound is clamped at 0; a bound above the weight total is left
    alone (such a rule can never fire, which is a legal way to encode an
    unsatisfiable condition).
    """
    merged = {}
    for lit, w in elements:
        merged[lit] = merged.get(lit, 0) + w
    out = {}
    for lit, w in merged.items():
        if w < 0:
            bound -= w
            lit, w = -lit, -w
        if w:
            out[lit] = out.get(lit, 0) + w
    return tuple(out.items()), max(bound, 0)


def strongly_connected_components(adj, first=0):
    """Tarjan's strongly connected components of the graph on nodes
    first..len(adj)-1, where `adj[v]` lists the nodes v depends on; edges to
    nodes below `first` are ignored.

    Returns every component, each in stack-pop order, in Tarjan order:
    a component comes after every component it depends on. Iterative, so
    deep graphs do not hit the recursion limit.
    """
    n = len(adj)
    index = [0] * n   # 0 = unvisited
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
        work = [(root, iter(adj[root]))]  # each node with its unvisited edges
        while work:
            node, deps = work[-1]
            for dep in deps:
                if dep < first:
                    continue
                if not index[dep]:
                    counter += 1
                    index[dep] = low[dep] = counter
                    stack.append(dep)
                    on_stack[dep] = True
                    work.append((dep, iter(adj[dep])))
                    break
                if on_stack[dep] and index[dep] < low[node]:
                    low[node] = index[dep]
            else:
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
