"""Command line front end.

Subcommands:

  ground  instantiate source programs, print the numeric ground format
  solve   read a ground program, enumerate stable models
  run     ground and solve in one step (same bytes as ground | solve)
  verify  check a model listing against a ground program

Exit codes for ground/run: 0 ok, 1 usage, 2 parse error, 3 semantic error,
4 arithmetic failure during grounding. For solve/run enumeration: 0 at least
one model, 1 none, 2 malformed input; with --wfs, 1 when the well-founded
model shows that no stable model exists, 2 on a rule that is not basic,
else 0. verify: 0 all models stable, 1 some model is not, 2 malformed
input, an unknown atom name, an empty listing or a file that cannot be
read. Elsewhere a file that cannot be read exits 1, as does output that
stdout cannot encode. Grounding warnings and -W notes go to stderr before
the error lines of a failed grounding too.

verify fixes the named atoms of each listing through the compute
sections, lets the solver search the hidden (unnamed) atoms, however many
there are, and confirms each model it finds with the oracle.

Only ground and run load the front end (lexer, parser, analysis, grounder);
solve and verify read the ground format without it. main turns an error
that a command lets through into its exit status and stderr line by one
table, _EXITS, keyed by class name, so that naming the front end's errors
loads none of it.
"""

import argparse
import functools
import os
import re
import sys

from .ground_format import (
    FormatError,
    compact_atom_ids,
    emit_ground_program,
    parse_ground_program,
)
from .pipeline import (
    GroundOptions,
    SolveOptions,
    ground_files,
    solve_ground,
    verify_model,
    well_founded_conflict,
    well_founded_ground,
)
from .shared import read_text

_CONST_RE = re.compile(r"^([a-z][A-Za-z0-9_]*)=(-?[0-9]+)$")
_INT_RE = re.compile(r"^-?[0-9]+$")


class _UsageError(Exception):
    pass


# Error class name -> (exit status, text before the message), looked up along
# the error's MRO. LexError, ParseError and the grounding errors start with
# their location; a SemanticError prints each of its diagnostics.
_EXITS = {
    "_UsageError": (1, "aspkit: error: "),
    "OSError": (1, "aspkit: "),
    "UnicodeEncodeError": (1, "aspkit: "),  # a name stdout cannot encode
    "LexError": (2, ""),
    "ParseError": (2, ""),
    "UnsupportedRuleTypeError": (2, "aspkit: "),
    "VerifyError": (2, ""),
    "SemanticError": (3, ""),
    "GroundingError": (3, ""),
    "ArithmeticEvalError": (4, ""),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache  # once per process: argparse's objects form reference cycles
def _build_parser():
    top = _Parser(prog="aspkit", description="ground and solve logic programs")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    grounding = argparse.ArgumentParser(add_help=False)
    grounding.add_argument("-c", dest="consts", action="append", default=[],
                           metavar="NAME=INT",
                           help="bind a program constant (repeatable)")
    grounding.add_argument("-d", dest="domain_mode", default="keep",
                           choices=("keep", "none"), metavar="MODE",
                           help="domain predicate handling: keep or none")
    grounding.add_argument("-W", dest="lint", action="store_true",
                           help="print style warnings to stderr")
    grounding.add_argument("--text", action="store_true",
                           help="print the ground program as readable text")

    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument("--wfs", action="store_true",
                         help="print the well-founded model instead of searching")

    p = sub.add_parser("ground", parents=[grounding],
                       help="instantiate source programs")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("solve", parents=[solving],
                       help="enumerate stable models of a ground program")
    p.add_argument("inputs", nargs="*", metavar="[FILE] [COUNT]",
                   help="ground program (default stdin) and model count")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("run", parents=[grounding, solving],
                       help="ground and solve in one step")
    p.add_argument("inputs", nargs="+", metavar="FILE... [COUNT]",
                   help="source files, optionally a trailing model count")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify",
                       help="check listed models against a ground program")
    p.add_argument("ground_file", metavar="GROUND-FILE")
    p.add_argument("model_file", metavar="MODEL-FILE")
    p.set_defaults(func=_cmd_verify)
    return top


def _ground_options(args):
    from .lexer import INT64_MAX, INT64_MIN
    consts = {}
    for item in args.consts:
        m = _CONST_RE.match(item)
        if not m:
            raise _UsageError(f"bad constant binding '{item}', expected name=integer")
        value = _int(m.group(2), f"constant {m.group(1)}")
        if not INT64_MIN <= value <= INT64_MAX:
            raise _UsageError(f"constant {m.group(1)} out of 64-bit range")
        consts[m.group(1)] = value
    return GroundOptions(constants=consts, domain_mode=args.domain_mode, lint=args.lint)


def _int(digits, what):
    """int(digits), or a usage error when it has more digits than int() reads."""
    try:
        return int(digits)
    except ValueError:
        raise _UsageError(f"{what} has too many digits") from None


def _split_count(inputs):
    """Peel a trailing integer model count off a positional list."""
    if inputs and _INT_RE.match(inputs[-1]):
        count = _int(inputs[-1], "model count")
        if count < 0:
            raise _UsageError("model count must be nonnegative")
        return inputs[:-1], count
    return list(inputs), None


def _ground(args):
    """Grounds args.files for ground and run, printing the warnings and -W
    notes, and the ground text under --text. Returns the interchange
    program, or None once --text has printed."""
    grounded = ground_files(args.files, _ground_options(args))
    for line in grounded.warnings + grounded.lint_notes:
        print(line, file=sys.stderr)
    if args.text:
        from .grounding import ground_text
        sys.stdout.write(ground_text(grounded.source))
        return None
    return grounded.interchange


def _cmd_ground(args):
    gp = _ground(args)
    if gp is not None:
        sys.stdout.write(emit_ground_program(gp))
    return 0


def _enumerate(gp, count, args):
    if args.wfs:
        true, false, unknown = well_founded_ground(gp)
        print("Well-founded model")
        for label, atoms in (("True", true), ("Unknown", unknown), ("False", false)):
            # one string per line, and no copy of it: lines can be long
            print(" ".join([f"{label}:", *(gp.symbols[a] for a in sorted(atoms) if a in gp.symbols)]))
        reason = well_founded_conflict(gp, true, false)
        if reason:
            print(f"aspkit: no stable model: {reason}", file=sys.stderr)
            return 1
        return 0
    total = 0
    for _model, names in solve_ground(gp, SolveOptions(model_count=count)):
        total += 1
        print(f"Answer: {total}")
        print(" ".join(["Stable Model:"] + names))
    print("True" if total else "False")
    return 0 if total else 1


def _cmd_solve(args):
    files, count = _split_count(args.inputs)
    if len(files) > 1:
        raise _UsageError("solve takes at most one ground file")
    if files:
        name = files[0]
        with open(name, "r", encoding="utf-8") as fh:
            text = read_text(fh, name)
    else:
        name = "<stdin>"
        text = read_text(sys.stdin.buffer, name)
    try:
        gp = parse_ground_program(text)
    except FormatError as e:
        print(f"{name}: {e}", file=sys.stderr)
        return 2
    del text  # the rest needs only the program
    return _enumerate(gp, count, args)


def _cmd_run(args):
    files, count = _split_count(args.inputs)
    if not files:
        raise _UsageError("run needs at least one source file")
    args.files = files
    # the search needs only the interchange: the ground rules and the
    # symbol table behind it go with _ground's frame before it starts
    gp = _ground(args)
    return 0 if gp is None else _enumerate(gp, count, args)


def _read_model_file(path):
    """Model listings: 'Stable Model:' lines, or a bare atom-name soup."""
    with open(path, "r", encoding="utf-8") as fh:
        text = read_text(fh, path)
    tag = "Stable Model:"
    models = [line[len(tag):].split() for line in text.splitlines() if line.startswith(tag)]
    if not models and (soup := text.split()):
        models.append(soup)
    return models


def _cmd_verify(args):
    try:
        with open(args.ground_file, "r", encoding="utf-8") as fh:
            # renumbered once, so that no listing scans the rules for atom ids
            gp = compact_atom_ids(parse_ground_program(read_text(fh, args.ground_file)))[0]
        models = _read_model_file(args.model_file)
    except OSError as e:
        print(f"aspkit: {e}", file=sys.stderr)
        return 2
    except FormatError as e:
        print(f"{args.ground_file}: {e}", file=sys.stderr)
        return 2
    if not models:
        print(f"{args.model_file}: no model found", file=sys.stderr)
        return 2
    failed = 0
    for i, names in enumerate(models, start=1):
        ok = verify_model(gp, names)
        print(f"Model {i}: {'stable' if ok else 'not stable'}")
        if not ok:
            failed += 1
    return 1 if failed else 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout has gone (`aspkit run ... | head -1`). Point
        # stdout at devnull so the flush at interpreter exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except Exception as e:
        names = [c.__name__ for c in type(e).__mro__ if c.__name__ in _EXITS]
        if not names:
            raise
        status, lead = _EXITS[names[0]]
        # The warnings and lint notes made before a grounding error come
        # first. No local may hold the error, whose traceback holds this frame.
        lines = [*getattr(e, "warnings", []),
                 *(lead + str(d) for d in getattr(e, "diagnostics", [e]))]
        sys.stderr.write("".join(f"{line}\n" for line in lines))
        return status


if __name__ == "__main__":
    sys.exit(main())
