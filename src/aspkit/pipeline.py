"""End-to-end plumbing shared by the command line and the test suite.

The front half: parse -> substitute constants -> desugar -> classify
domains -> check domain restriction -> instantiate -> translate to
primitive rules -> interchange format. The back half: interchange ->
search, the well-founded model, or model verification.

The back half imports nothing of the front end. The front end's names are
bound into this module on the first ground_files or ground_text_input
call, or when one of them is read from outside (PEP 562 module
__getattr__), so that a process that only solves never loads the front
end. They stay module attributes looked up at call time, which lets
perfbench's tracer wrap them.
"""

from importlib import import_module
from itertools import chain

from .ground_format import GroundProgram
from .records import Record
from .shared import FALSITY
from .solver import Solver
from .wellfounded import well_founded

# Front-end names and the modules they come from; see _load_front_end.
_FRONT_END = {
    "parse_files": "parser",
    "parse_text": "parser",
    "substitute_constants": "parser",
    "desugar_program": "grounding",
    "GroundingError": "grounding",
    "ground_program": "grounding",
    "translate_program": "primitives",
}


def _load_front_end():
    """Imports the front end and binds its names into this module. A name
    already bound here, such as a tracer's wrapper, is kept."""
    g = globals()
    for name, module in _FRONT_END.items():
        if name not in g:
            g[name] = getattr(import_module("." + module, __package__), name)
    if "analysis" not in g:
        g["analysis"] = import_module(".analysis", __package__)


def __getattr__(name):
    if name in _FRONT_END:
        _load_front_end()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SemanticError(Exception):
    """Domain restriction or other semantic checks failed."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__(str(self.diagnostics[0]) if self.diagnostics
                         else "semantic error")


class VerifyError(Exception):
    pass


class GroundOptions(Record):
    __slots__ = ("constants", "domain_mode", "lint")
    __hash__ = None

    def __init__(self, constants=None, domain_mode="keep", lint=False):
        self.constants = {} if constants is None else constants
        self.domain_mode = domain_mode
        self.lint = lint


class SolveOptions(Record):
    __slots__ = ("model_count",)  # None: use the count stored in the file
    _defaults = (None,)
    __hash__ = None


class Grounded(Record):
    __slots__ = ("interchange",  # GroundProgram
                 "source",       # GroundResult: the grounding that both the interchange
                                 # and ground_text come from, primitive records of plain
                                 # instances and GRules
                 "warnings", "lint_notes")
    __hash__ = None


def _ground(program, opts):
    """Grounds `program`. An error raised after constant substitution
    carries the warnings and lint notes made before it, in the order a
    success prints them, as its `warnings` attribute."""
    program = substitute_constants(program, opts.constants)
    # lint reads the program as written, before ranges are copied out
    lint_notes = analysis.lint(program) if opts.lint else []
    warnings = []
    try:
        program, _ = desugar_program(program, warnings)
        info = analysis.classify_domain_predicates(program)
        errors = analysis.check_domain_restriction(program, info.domain)
        if errors:
            raise SemanticError(errors)
        result = ground_program(program, info, opts.domain_mode)
        rules = translate_program(result.rules, result.table)
    except (SemanticError, GroundingError) as e:
        e.warnings = warnings + lint_notes
        raise
    gp = GroundProgram(
        rules=rules,
        symbols=result.table.names(),
        compute_true=result.compute_true,
        compute_false=(FALSITY,) + result.compute_false,
        models=1,
        # ids 2..k are dense: each is a named atom or the head of an aux rule
        n_atoms=len(result.table) + 1)
    return Grounded(gp, result, warnings, lint_notes)


def ground_files(paths, opts=None):
    _load_front_end()
    return _ground(parse_files(paths), opts or GroundOptions())


def ground_text_input(text, opts=None, filename="<string>"):
    _load_front_end()
    return _ground(parse_text(text, filename), opts or GroundOptions())


def solve_ground(gp, opts=None):
    """Yield (model, visible_names) for each stable model, in search order.

    `model` is the sorted tuple of all true atom ids, `visible_names` the
    names of the named ones, ascending by atom id.
    """
    opts = opts or SolveOptions()
    target = gp.models if opts.model_count is None else opts.model_count
    emitted = 0
    for model in Solver(gp).models():
        names = [gp.symbols[a] for a in model if a in gp.symbols]
        yield model, names
        emitted += 1
        if target and emitted >= target:
            return


def well_founded_ground(gp):
    """Well-founded model of an interchange program (basic rules only)."""
    return well_founded(gp.rules, chain(gp.symbols, gp.compute_true, gp.compute_false))


def well_founded_conflict(gp, true, false):
    """Why gp has no stable model, by its well-founded model (true, false),
    or None. Atoms true in that model are true in every stable model and
    atoms false in it false in every one, so no stable model exists once an
    integrity constraint's body or a compute-false atom is true in it, or a
    compute-true atom false."""
    for r in gp.rules:
        if (r.head == FALSITY and all(a in true for a in r.pos)
                and all(a in false for a in r.neg)):
            return "an integrity constraint's body is true in the well-founded model"
    for atoms, side, held, required in ((gp.compute_false, true, "true", "false"),
                                        (gp.compute_true, false, "false", "true")):
        for a in atoms:
            if a in side:
                name = gp.symbols.get(a, f"atom {a}")
                return f"{name} is {held} in the well-founded model but required {required}"
    return None


# -- model verification -----------------------------------------------------------

def verify_model(gp, names):
    """Whether the visible atoms `names` extend to a stable model of `gp`.

    The compute sections fix every named atom, the listed ones true and the
    rest false. The solver searches the hidden (unnamed) atoms of that
    program, however many there are, and the oracle confirms each model it
    finds against the rules and `gp`'s own compute sections.
    """
    from . import oracle  # only verify needs the reference semantics

    by_name = {n: i for i, n in gp.symbols.items()}
    chosen = set()
    for n in names:
        if n not in by_name:
            raise VerifyError(f"unknown atom name '{n}'")
        chosen.add(by_name[n])
    fixed = GroundProgram(gp.rules, gp.symbols, (*gp.compute_true, *chosen),
                          (*gp.compute_false, *(a for a in gp.symbols if a not in chosen)),
                          gp.models, gp.n_atoms)
    required_true, required_false = set(gp.compute_true), set(gp.compute_false)
    return any(oracle.is_stable(gp.rules, m) and required_true.issubset(m)
               and required_false.isdisjoint(m) for m in Solver(fixed).models())
