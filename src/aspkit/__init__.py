"""aspkit: a two-stage grounder and stable-model solver.

Two halves, as lparse and smodels are two programs. The front end (lexer,
syntax, parser, analysis, grounding, primitives) turns logic programs with
variables, ranges, and cardinality/weight constructs into a flat numeric
ground format; the back end (ground_format, solver, wellfounded) reads such
ground programs and enumerates their stable models. Both import `shared`,
which holds the primitive rule records, and the back end imports nothing of
the front end, so `aspkit solve` never loads it. A small oracle module
re-derives everything slowly and independently, for checking.

Every public name below loads its module on first use (PEP 562 module
__getattr__), so importing the package loads nothing else.
"""

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOME = {
    name: module
    for module, names in (
        ("shared", ("BasicRule", "ChoiceRule", "ConstraintRule", "LexError",
                    "UnsupportedRuleTypeError", "WeightRule")),
        ("parser", ("ParseError", "parse_files", "parse_text",
                    "substitute_constants")),
        ("analysis", ("check_domain_restriction", "classify_domain_predicates",
                      "lint")),
        ("grounding", ("ArithmeticEvalError", "GroundingError",
                       "UnboundConstantError", "desugar_program",
                       "ground_program", "ground_text")),
        ("primitives", ("translate_program",)),
        ("ground_format", ("FormatError", "GroundProgram",
                           "emit_ground_program", "parse_ground_program")),
        ("solver", ("Conflict", "SolveStats", "Solver")),
        ("wellfounded", ("well_founded",)),
        ("pipeline", ("Grounded", "GroundOptions", "SemanticError",
                      "SolveOptions", "VerifyError", "ground_files",
                      "ground_text_input", "solve_ground", "verify_model",
                      "well_founded_ground")),
        ("oracle", ("CapExceededError", "ComputeSpec", "brute_force_models",
                    "is_stable", "least_model", "reduct", "source_is_stable",
                    "source_models")),
    )
    for name in names
}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
