"""Command-line front end.

    gosil check theory.gos [--derivation] [--trace] [--json]
    gosil elaborate theory.gos
    gosil ground theory.gos [--trace]
    gosil eval theory.gos --structure s.str [--nat-bound N] [--json]
    gosil models theory.gos --bound T=n ... [--limit k] [--nat-bound N]

Exit codes: 0 when everything succeeded (all axioms well-typed / true /
some model found), 1 on a type error or a false axiom or no models, 2 on
usage, parse, or I/O errors, and 3 on an internal error (one line, no
traceback). Identical invocations produce byte-identical output; every
diagnostic goes through one formatter carrying file:line:column when known.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from . import ast
from .errors import (
    ElaborationError,
    GosilError,
    GroundingError,
    ParseError,
    StructureError,
    TypingError,
)
from .grounding import elaborate, ground, ground_trace, interpretation
from .models import DEFAULT_EXPLOSION_CAP, find_models
from .parser import numeral, parse_theory
from .semantics import evaluate, format_structures, parse_structure
from .typecheck import (
    check_sentence,
    derivation_lines,
    derivation_to_dict,
    initial_context,
)


def _diagnostic(path: str, err: GosilError, fallback_loc=None) -> str:
    loc = err.loc or fallback_loc
    where = f"{path}:{loc}" if loc is not None else path
    return f"{where}: error: {err.kind}: {err.message}"


def _json_text(value) -> str | dict | list:
    """The JSON text of a scalar, as `json.dumps` spells it; a dict or a
    list as it is, to be expanded."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if type(value) in (dict, list):
        return value
    return json.dumps(value)


def _write_json(out, payload: dict) -> None:
    """Write the text of `json.dumps(payload, sort_keys=True)`, for a payload
    of dicts with string keys, lists and scalars, to `out` piece by piece,
    from an explicit stack: the records of a derivation nest as deep as its
    tree, and their text can be far larger than the records."""
    todo: list = [payload]
    while todo:
        item = todo.pop()
        if type(item) is str:  # JSON text
            out.write(item)
            continue
        if type(item) is dict:
            parts = [x for key in sorted(item) for x in (
                ", ", encode_basestring_ascii(key), ": ", _json_text(item[key]))]
            opening, closing = "{", "}"
        else:
            parts = [x for value in item for x in (", ", _json_text(value))]
            opening, closing = "[", "]"
        if parts:
            parts[0] = opening
            todo.append(closing)
            todo += reversed(parts)
        else:
            out.write(opening + closing)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise FileNotFoundError(f"{path}: cannot read: {err.strerror}") from err


def _load_theory(path: str) -> ast.Theory:
    return parse_theory(_read(path))


def cmd_check(args, out) -> int:
    theory = _load_theory(args.theory)
    failures = 0
    records = []
    for axiom in theory.axioms:
        record: dict = {"label": axiom.label}
        steps: list | None = [] if args.trace else None  # filled once the axiom grounds
        try:
            derivation, err = check_sentence(theory, axiom.formula, steps), None
        except (TypingError, ElaborationError, GroundingError) as caught:
            # kept past the handler, so without the traceback that holds this frame
            derivation, err = None, caught.with_traceback(None)
        for step, formula in steps or ():
            out.write(f"{axiom.label}: {step}: {ast.format_formula(formula)}\n")
        if err is not None:
            failures += 1
            out.write(f"{axiom.label}: ill-typed\n")
            out.write(_diagnostic(args.theory, err, axiom.loc) + "\n")
            record["verdict"] = "ill-typed"
            loc = err.loc or axiom.loc
            record["error"] = {
                "kind": err.kind,
                "message": err.message,
                "expected": getattr(err, "expected", None),
                "found": getattr(err, "found", None),
                "line": loc.line if loc else None,
                "column": loc.column if loc else None,
            }
        else:
            out.write(f"{axiom.label}: well-typed\n")
            record["verdict"] = "well-typed"
            record["error"] = None
            if derivation.note:
                out.write(f"{axiom.label}: {derivation.note}\n")
            if args.derivation:
                for line in derivation_lines(derivation):
                    out.write(line)
                    out.write("\n")
                if args.json:
                    record["derivation"] = derivation_to_dict(derivation)
        records.append(record)
    if args.json:
        _write_json(out, {"command": "check", "axioms": records})
        out.write("\n")
    return 1 if failures else 0


def cmd_elaborate(args, out) -> int:
    theory = _load_theory(args.theory)
    ctx = initial_context(theory.vocabulary)
    status = 0
    for axiom in theory.axioms:
        try:
            expanded = elaborate(ctx, axiom.formula)
        except GosilError as err:
            out.write(_diagnostic(args.theory, err, axiom.loc) + "\n")
            status = 1
            continue
        out.write(f"{axiom.label}: {ast.format_formula(expanded)}\n")
    return status


def cmd_ground(args, out) -> int:
    theory = _load_theory(args.theory)
    interp = interpretation(theory)
    status = 0
    for axiom in theory.axioms:
        try:
            if args.trace:
                steps = ground_trace(axiom.formula, interp)
            else:
                steps = [(None, ground(axiom.formula, interp))]
        except GosilError as err:
            out.write(_diagnostic(args.theory, err, axiom.loc) + "\n")
            status = 1
            continue
        for step, formula in steps:
            prefix = f"{step}: " if args.trace else ""
            out.write(f"{axiom.label}: {prefix}{ast.format_formula(formula)}\n")
    return status


def cmd_eval(args, out) -> int:
    theory = _load_theory(args.theory)
    try:
        structure = parse_structure(_read(args.structure), theory.vocabulary, args.nat_bound)
    except (ParseError, StructureError) as err:
        out.write(_diagnostic(args.structure, err) + "\n")
        return 2
    status = 0
    records = []
    for axiom in theory.axioms:
        record: dict = {"label": axiom.label}
        try:
            check_sentence(theory, axiom.formula)
            value = bool(evaluate(structure, axiom.formula))
        except GosilError as err:
            out.write(f"{axiom.label}: error\n")
            out.write(_diagnostic(args.theory, err, axiom.loc) + "\n")
            record["verdict"] = "error"
            record["error"] = {"kind": err.kind, "message": err.message}
            records.append(record)
            status = 1
            continue
        out.write(f"{axiom.label}: {'true' if value else 'false'}\n")
        record["verdict"] = "true" if value else "false"
        record["error"] = None
        records.append(record)
        if not value:
            status = 1
    if args.json:
        _write_json(out, {"command": "eval", "axioms": records})
        out.write("\n")
    return status


def _parse_bounds(pairs: list[str]) -> dict[str, int]:
    bounds: dict[str, int] = {}
    for pair in pairs:
        name, _, size = pair.partition("=")
        if not name or not size.isdecimal():
            raise ParseError(f"bad --bound {pair!r}; expected TYPE=N")
        bounds[name] = numeral(size)
    return bounds


def _count(text: str) -> int:
    """A numeric option: a numeral of decimal digits, of any script, that
    `int` can read; anything else, a sign or an underscore included, is a
    usage error."""
    try:
        if text.isdecimal():
            return numeral(text)
    except ParseError as err:
        raise argparse.ArgumentTypeError(err.message) from None
    raise argparse.ArgumentTypeError(f"expected a count of decimal digits, found {text!r}")


def cmd_models(args, out) -> int:
    theory = _load_theory(args.theory)
    try:
        bounds = _parse_bounds(args.bound or [])
    except ParseError as err:
        out.write(_diagnostic("--bound", err) + "\n")
        return 2
    found = find_models(
        theory,
        bounds,
        limit=args.limit,
        nat_bound=args.nat_bound,
        explosion_cap=args.cap,
    )
    for i, text in enumerate(format_structures(found), start=1):
        out.write(f"// model {i}\n")
        out.write(text)
    out.write(f"// {len(found)} model(s)\n")
    return 0 if found else 1


def build_arg_parser() -> argparse.ArgumentParser:
    """The command line: each command runs the `cmd_<command>` function of
    this module."""
    parser = argparse.ArgumentParser(
        prog="gosil",
        description="Check, elaborate, ground, and evaluate guarded "
        "order-sorted intensional theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="type-check every axiom")
    check.add_argument("theory")
    check.add_argument("--derivation", action="store_true", help="print derivation trees")
    check.add_argument("--trace", action="store_true", help="print grounding steps")
    check.add_argument("--json", action="store_true", help="machine-readable verdicts")

    elab = sub.add_parser("elaborate", help="expand implicit guards")
    elab.add_argument("theory")

    grnd = sub.add_parser("ground", help="eliminate intensional constructs")
    grnd.add_argument("theory")
    grnd.add_argument("--trace", action="store_true", help="print grounding steps")

    evl = sub.add_parser("eval", help="evaluate axioms against a structure")
    evl.add_argument("theory")
    evl.add_argument("--structure", required=True)
    evl.add_argument("--nat-bound", type=_count, default=None)
    evl.add_argument("--json", action="store_true")

    models = sub.add_parser("models", help="enumerate satisfying structures")
    models.add_argument("theory")
    models.add_argument("--bound", action="append", metavar="TYPE=N")
    models.add_argument("--limit", type=_count, default=None)
    models.add_argument("--nat-bound", type=_count, default=None)
    models.add_argument("--cap", type=_count, default=DEFAULT_EXPLOSION_CAP)

    return parser


# built once; the command's function is looked up when it runs, so that a
# wrapper bound in its place is the one called
_PARSER = build_arg_parser()


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = _PARSER.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args, out)
    except FileNotFoundError as err:
        out.write(f"error: {err}\n")
        return 2
    except (ParseError, StructureError) as err:
        out.write(_diagnostic(args.theory, err) + "\n")
        return 2
    except GosilError as err:
        out.write(_diagnostic(args.theory, err) + "\n")
        return 1
    except Exception as err:  # a fault in gosil itself: one line, never a traceback
        message = " ".join(str(err).splitlines())
        out.write(f"{args.theory}: internal error: {type(err).__name__}: {message}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
