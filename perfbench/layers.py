"""Outside-in tracing of the aspkit pipeline.

`Tracer.install()` replaces module attributes of aspkit with wrappers that
record a span (layer, start, end, parent) around each call; `uninstall()`
puts the originals back. Nothing under src/ changes. A function imported by
name into another module is wrapped where its caller looks it up, e.g.
`aspkit.pipeline.ground_program` rather than `aspkit.grounding.ground_program`.
A target that no longer exists is listed in `absent`, and its layer reads 0.
"""

import importlib
import inspect
import time

# (layer, module, attribute path)
TARGETS = (
    ("parser", "aspkit.pipeline", "parse_files"),
    ("parser", "aspkit.pipeline", "substitute_constants"),
    ("analysis", "aspkit.analysis", "classify_domain_predicates"),
    ("analysis", "aspkit.analysis", "check_domain_restriction"),
    ("grounding.desugar", "aspkit.pipeline", "desugar_program"),
    ("grounding.domain_eval", "aspkit.grounding", "evaluate_domain_predicates"),
    ("grounding.instantiate", "aspkit.pipeline", "ground_program"),
    ("primitives.translate", "aspkit.pipeline", "translate_program"),
    ("ground_format.emit", "aspkit.cli", "emit_ground_program"),
    ("ground_format.read", "aspkit.cli", "parse_ground_program"),
    ("solver.setup", "aspkit.solver", "Solver.__init__"),
    ("solver.expand", "aspkit.solver", "Solver.expand"),
    ("solver.search", "aspkit.solver", "Solver.models"),
    ("solver.wfs", "aspkit.pipeline", "well_founded"),
)


# Counters read at a layer boundary: hook(args) -> finish(result) -> {name: n}.
def _domain_rows(args):
    return lambda exts: {"grounding.domain_rows": sum(len(e) for e in exts.values())}


def _ground_rules(args):
    return lambda result: {"grounding.ground_rules": len(result.rules)}


def _primitive_rules(args):
    table = args[1]
    start = len(table)
    return lambda rules: {"primitives.rules": len(rules),
                          "primitives.aux_atoms": len(table) - start}


HOOKS = {
    "grounding.domain_eval": _domain_rows,
    "grounding.instantiate": _ground_rules,
    "primitives.translate": _primitive_rules,
}


def _guarded(fn, arg):
    """A counter whose interface changed reads as absent, not as a crash."""
    try:
        return fn(arg)
    except (AttributeError, IndexError, TypeError):
        return None


SOLVER_STATS = ("decisions", "conflicts", "propagations")

# Layers whose metric is the time inside the layer, children included;
# every other layer reports self time (its spans minus their child spans).
INCLUSIVE = ("solver.search",)

# Every per-invocation metric `Tracer.take` can produce, in report order.
METRICS = (
    ("parser.s", "s"), ("analysis.s", "s"), ("grounding.desugar.s", "s"),
    ("grounding.domain_eval.s", "s"), ("grounding.domain_rows", "count"),
    ("grounding.instantiate.s", "s"), ("grounding.ground_rules", "count"),
    ("primitives.translate.s", "s"), ("primitives.rules", "count"),
    ("primitives.aux_atoms", "count"),
    ("ground_format.emit.s", "s"), ("ground_format.read.s", "s"),
    ("solver.setup.s", "s"), ("solver.expand.s", "s"),
    ("solver.expand.calls", "count"), ("solver.decisions", "count"),
    ("solver.conflicts", "count"), ("solver.propagations", "count"),
    ("solver.expand_per_decision", "ratio"),
    ("solver.first_model.s", "s"), ("solver.search.s", "s"),
    ("solver.wfs.s", "s"), ("cli.self.s", "s"), ("trace.wall_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [layer, start, end, parent index or None]
        self.done = []           # spans of the invocations already taken
        self.absent = []         # targets that could not be resolved
        self._stack = []
        self._counts = {}
        self._solvers = []
        self._first_model = None
        self._saved = []

    # -- installing wrappers -------------------------------------------------

    def install(self):
        for layer, module, path in TARGETS:
            try:
                owner = importlib.import_module(module)
                *parents, name = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _enter(self, layer):
        i = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(i)
        return i

    def _exit(self, i):
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, fn)
        hook = HOOKS.get(layer)
        is_setup = layer == "solver.setup"

        def traced(*args, **kwargs):
            finish = _guarded(hook, args) if hook else None
            i = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(i)
            if finish:
                self._counts.update(_guarded(finish, result) or {})
            if is_setup:
                self._solvers.append(args[0])
            return result
        return traced

    def _wrap_generator(self, layer, fn):
        """Each resumption of the generator is one span."""
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            begun = None
            try:
                while True:
                    i = self._enter(layer)
                    if begun is None:
                        begun = self.spans[i][1]
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(i)
                    if self._first_model is None:
                        self._first_model = self.spans[i][2] - begun
                    yield item
            finally:
                gen.close()
        return traced

    # -- per-invocation metrics ----------------------------------------------

    def take(self, wall):
        """Metrics of the invocation traced since the last call, which took
        `wall` seconds; moves its spans to `done` and clears the counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        roots = 0.0
        for layer, start, end, parent in spans:
            if parent is None:
                roots += end - start
            else:
                child[parent] += end - start
        m = {}
        calls = 0
        for i, (layer, start, end, parent) in enumerate(spans):
            took = end - start
            if layer not in INCLUSIVE:
                took -= child[i]
            m[layer + ".s"] = m.get(layer + ".s", 0.0) + took
            calls += layer == "solver.expand"
        m["solver.expand.calls"] = calls
        m.update(self._counts)
        for stat in SOLVER_STATS:
            values = [getattr(getattr(s, "stats", None), stat, None)
                      for s in self._solvers]
            if values and None not in values:
                m["solver." + stat] = sum(values)
        if m.get("solver.decisions"):
            m["solver.expand_per_decision"] = calls / m["solver.decisions"]
        if self._first_model is not None:
            m["solver.first_model.s"] = self._first_model
        m["cli.self.s"] = wall - roots
        m["trace.wall_s"] = wall
        self.done.append(spans)
        self.spans = []
        self._counts = {}
        self._solvers = []
        self._first_model = None
        return m
