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

from .ground_format import GroundProgram, compact_atom_ids
from .records import Record
from .shared import FALSITY, ChoiceRule
from .solver import Solver
from .wellfounded import well_founded

# Front-end names and the modules they come from; see _load_front_end.
_FRONT_END = {
    "parse_files": "parser",
    "parse_text": "parser",
    "substitute_constants": "parser",
    "desugar_program": "grounding",
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
    __slots__ = ("model_count",)
    __hash__ = None

    def __init__(self, model_count=None):
        self.model_count = model_count  # None: use the count stored in the file


class Grounded(Record):
    __slots__ = ("interchange", "source", "warnings", "lint_notes")
    __hash__ = None

    def __init__(self, interchange, source, warnings, lint_notes):
        self.interchange = interchange  # GroundProgram
        self.source = source            # GroundResult, for text output and oracles
        self.warnings = warnings
        self.lint_notes = lint_notes


def _ground(program, opts):
    program = substitute_constants(program, opts.constants)
    program, warnings = desugar_program(program)
    info = analysis.classify_domain_predicates(program)
    errors = analysis.check_domain_restriction(program, info.domain)
    if errors:
        raise SemanticError(errors)
    lint_notes = analysis.lint(program) if opts.lint else []
    result = ground_program(program, info, opts.domain_mode)
    rules = translate_program(result.rules, result.table)
    gp = GroundProgram(
        rules=rules,
        symbols=dict(result.table.named_items()),
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
    dense, ids = compact_atom_ids(gp)
    for model in Solver(dense).models():
        if ids is not None:
            model = tuple(ids[a] for a in model)
        names = [gp.symbols[a] for a in model if a in gp.symbols]
        yield model, names
        emitted += 1
        if target and emitted >= target:
            return


def well_founded_ground(gp):
    """Well-founded model of an interchange program (basic rules only)."""
    extra = set(gp.symbols) | set(gp.compute_true) | set(gp.compute_false)
    return well_founded(gp.rules, extra_atoms=extra)


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

def _body_truth(rule, truth):
    """Three-valued body satisfaction; None when still undetermined."""
    if isinstance(rule, ChoiceRule):
        raise ValueError("choice rules have no determined head")
    pos = list(rule.pos)
    neg = list(rule.neg)
    if hasattr(rule, "pos_weights"):
        pw, nw = list(rule.pos_weights), list(rule.neg_weights)
        bound = rule.bound
    else:
        pw, nw = [1] * len(pos), [1] * len(neg)
        bound = getattr(rule, "bound", len(pos) + len(neg))
    sat = 0
    pending = 0
    for a, w in zip(pos, pw):
        v = truth.get(a)
        if v is None:
            pending += w
        elif v:
            sat += w
    for a, w in zip(neg, nw):
        v = truth.get(a)
        if v is None:
            pending += w
        elif not v:
            sat += w
    if sat >= bound:
        return True
    if sat + pending < bound:
        return False
    return None


def verify_model(gp, names, completion_cap=12):
    """Check whether visible atom names extend to a stable model.

    Hidden atoms are reconstructed from their defining rules when that is
    unambiguous; any that remain open are enumerated, up to 2**completion_cap
    combinations.
    """
    from . import oracle  # only verify needs the reference semantics

    gp = compact_atom_ids(gp)[0]
    by_name = {}
    for i, n in gp.symbols.items():
        by_name[n] = i
    chosen = set()
    for n in names:
        if n not in by_name:
            raise VerifyError(f"unknown atom name '{n}'")
        chosen.add(by_name[n])

    truth = {a: (a in chosen) for a in gp.symbols}
    truth[FALSITY] = False
    defs = {}
    for r in gp.rules:
        heads = r.heads if isinstance(r, ChoiceRule) else (r.head,)
        for h in heads:
            defs.setdefault(h, []).append(r)
    hidden = [a for a in range(2, gp.atom_count() + 1) if a not in truth]

    open_atoms = set(hidden)
    changed = True
    while changed and open_atoms:
        changed = False
        for h in sorted(open_atoms):
            rules_h = defs.get(h, ())
            if not rules_h:
                truth[h] = False
            elif len(rules_h) == 1 and not isinstance(rules_h[0], ChoiceRule):
                v = _body_truth(rules_h[0], truth)
                if v is None:
                    continue
                truth[h] = v
            else:
                continue
            open_atoms.discard(h)
            changed = True

    required_true = set(gp.compute_true)
    required_false = set(gp.compute_false)

    def stable(assign):
        m = {a for a, v in assign.items() if v}
        return (oracle.is_stable(gp.rules, m)
                and m.issuperset(required_true)
                and not (m & required_false))

    if not open_atoms:
        return stable(truth)
    rest = sorted(open_atoms)
    if len(rest) > completion_cap:
        raise VerifyError(
            f"cannot reconstruct {len(rest)} interdependent hidden atoms")
    for mask in range(1 << len(rest)):
        assign = dict(truth)
        for i, a in enumerate(rest):
            assign[a] = bool(mask >> i & 1)
        if stable(assign):
            return True
    return False
