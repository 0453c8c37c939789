"""aspkit: a two-stage grounder and stable-model solver.

The front half turns logic programs with variables, ranges, and
cardinality/weight constructs into a flat numeric ground format; the back
half enumerates the stable models of such ground programs. A small oracle
module re-derives everything slowly and independently, for checking; its
names load on first use.
"""

__version__ = "0.1.0"

from .lexer import LexError
from .parser import ParseError, parse_files, parse_text, substitute_constants
from .analysis import classify_domain_predicates, check_domain_restriction, lint
from .grounding import (
    ArithmeticEvalError,
    GroundingError,
    UnboundConstantError,
    desugar_program,
    ground_program,
    ground_text,
)
from .primitives import (
    BasicRule,
    ChoiceRule,
    ConstraintRule,
    UnsupportedRuleTypeError,
    WeightRule,
    translate_program,
)
from .ground_format import (
    FormatError,
    GroundProgram,
    emit_ground_program,
    parse_ground_program,
)
from .solver import Conflict, SolveStats, Solver
from .wellfounded import well_founded
from .pipeline import (
    Grounded,
    GroundOptions,
    SemanticError,
    SolveOptions,
    VerifyError,
    ground_files,
    ground_text_input,
    solve_ground,
    verify_model,
    well_founded_ground,
)

# Only `verify` and checking code need the oracle, so a process that grounds
# or solves does not import it (PEP 562 module __getattr__).
_ORACLE_NAMES = frozenset((
    "CapExceededError",
    "ComputeSpec",
    "brute_force_models",
    "is_stable",
    "least_model",
    "reduct",
    "source_is_stable",
    "source_models",
))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArithmeticEvalError",
    "BasicRule",
    "CapExceededError",
    "ChoiceRule",
    "ComputeSpec",
    "Conflict",
    "ConstraintRule",
    "FormatError",
    "GroundOptions",
    "GroundProgram",
    "Grounded",
    "GroundingError",
    "LexError",
    "ParseError",
    "SemanticError",
    "SolveOptions",
    "SolveStats",
    "Solver",
    "UnboundConstantError",
    "UnsupportedRuleTypeError",
    "VerifyError",
    "WeightRule",
    "brute_force_models",
    "check_domain_restriction",
    "classify_domain_predicates",
    "desugar_program",
    "emit_ground_program",
    "ground_files",
    "ground_program",
    "ground_text",
    "ground_text_input",
    "is_stable",
    "least_model",
    "lint",
    "parse_files",
    "parse_ground_program",
    "parse_text",
    "reduct",
    "solve_ground",
    "source_is_stable",
    "source_models",
    "substitute_constants",
    "translate_program",
    "verify_model",
    "well_founded",
    "well_founded_ground",
]
