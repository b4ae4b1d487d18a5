"""The recursive type checker and derivation-tree walkers that gosil.typecheck
replaced with folds on `ast.fold`/`ast.walk`, kept as a test-only oracle:
each calls itself once per node, so trees deeper than the recursion limit
are out of its reach. Only the imports differ from the original. The
contexts, derivations, guard recognition and node-local validation rules
are the library's.

Also `staged_check_sentence`, the sentence pipeline `check_sentence` ran
before one survey of the sentence chose what to do: an `is_intensional`
probe, then a `has_guards` probe, then grounding, guard elaboration or
neither, and the library's checker on the result.
"""

from __future__ import annotations

import importlib
from dataclasses import replace

from reference_walkers import has_guards

from gosil import ast, grounding
from gosil.errors import TypingError
from gosil.typecheck import (
    TermEntry,
    TypingContext,
    TypingDerivation,
    VarEntry,
    _node_valid,
    guard_prefix,
    implication_guard,
    initial_context,
)
from gosil.vocabulary import (
    BOOL,
    CONCEPT,
    NAT,
    UNIVERSE,
    Signature,
    Vocabulary,
    is_subtype,
    least_common_supertype,
)

# -- terms

_UNGROUNDED = "dereference must be grounded before type checking"


def derive_term(ctx: TypingContext, term: ast.Term) -> TypingDerivation:
    """Derive the principal type of a term."""
    annotated = ctx.lookup_term_type(term)
    if annotated is not None:
        return TypingDerivation("T-var", term, annotated)
    match term:
        case ast.Variable(name):
            raise TypingError(
                "UnboundVariable", f"variable {name!r} is not in scope", term
            )
        case ast.NatLiteral():
            return TypingDerivation("T-app", term, NAT)
        case ast.ConceptRef():
            return TypingDerivation("T-con", term, CONCEPT)
        case ast.Apply(symbol, args):
            sig, premises = _application(ctx, term, symbol, args)
            return TypingDerivation("T-app", term, sig.result_type, premises)
        case ast.Deref():
            raise TypingError("IntensionalNotGrounded", _UNGROUNDED, term)
    raise TypeError(f"not a term: {term!r}")


def _application(
    ctx: TypingContext, node, name: str, args: tuple[ast.Term, ...]
) -> tuple[Signature, tuple[TypingDerivation, ...]]:
    """The signature `name` resolves to in an application `node` over `args`,
    and a derivation of each argument at its argument type."""
    sig = ctx.lookup_symbol(name)
    if sig is None:
        raise TypingError("UnknownSymbol", f"unknown symbol {name!r}", node)
    if len(args) != sig.arity:
        raise TypingError(
            "ArgumentTypeMismatch",
            f"{name!r} expects {sig.arity} argument(s), got {len(args)}",
            node,
        )
    return sig, tuple(
        _derive_at(ctx, arg, expected) for arg, expected in zip(args, sig.argument_types)
    )


def _derive_at(ctx: TypingContext, term: ast.Term, expected: str) -> TypingDerivation:
    """Derive a term at a required type, inserting subsumption if its
    principal type lies strictly below."""
    d = derive_term(ctx, term)
    if d.type_name == expected:
        return d
    if is_subtype(ctx.vocab, d.type_name, expected):
        return TypingDerivation("T-sub", term, expected, (d,))
    raise TypingError(
        "ArgumentTypeMismatch",
        f"expected {expected}, found {d.type_name}",
        term,
        expected=expected,
        found=d.type_name,
    )


def principal_type(ctx: TypingContext, term: ast.Term) -> str:
    """The least type assignable to the term; an annotated term's is read
    off the context without building its derivation."""
    annotated = ctx.lookup_term_type(term)
    return annotated if annotated is not None else derive_term(ctx, term).type_name


# -- formulas

_BINARY_RULES = {ast.And: "T-and", ast.Or: "T-or", ast.Implies: "T-imp", ast.Iff: "T-iff"}


def typecheck(ctx: TypingContext, formula: ast.Formula) -> TypingDerivation:
    """Derive `formula : Bool`, or raise TypingError."""
    match formula:
        case ast.Truth(True):
            return TypingDerivation("T-tr", formula, BOOL)
        case ast.Truth(False):
            return TypingDerivation("T-fa", formula, BOOL)
        case ast.Atom():
            return _check_atom(ctx, formula)
        case ast.DerefAtom():
            raise TypingError("IntensionalNotGrounded", _UNGROUNDED, formula)
        case ast.Not(body):
            return TypingDerivation("T-neg", formula, BOOL, (typecheck(ctx, body),))
        case ast.And() if (split := guard_prefix(ctx.vocab, formula)) is not None:
            return _check_guarded(ctx, formula, split, "G-c")
        case ast.Implies() if (split := implication_guard(ctx.vocab, formula)) is not None:
            return _check_guarded(ctx, formula, split, "G-i")
        case ast.And(l, r) | ast.Or(l, r) | ast.Implies(l, r) | ast.Iff(l, r):
            premises = (typecheck(ctx, l), typecheck(ctx, r))
            return TypingDerivation(_BINARY_RULES[type(formula)], formula, BOOL, premises)
        case ast.Exists(var, type_name, body) | ast.Forall(var, type_name, body):
            inner = ctx.push(VarEntry(var, type_name))
            rule = "T-ex" if isinstance(formula, ast.Exists) else "T-all"
            return TypingDerivation(rule, formula, BOOL, (typecheck(inner, body),))
        case ast.GuardC() | ast.GuardI():
            raise ValueError(
                "implicit guard wrappers must be elaborated before type checking"
            )
    raise TypeError(f"not a formula: {formula!r}")


def _check_atom(ctx: TypingContext, atom: ast.Atom) -> TypingDerivation:
    if atom.predicate == ast.EQUALITY_ATOM:
        left = derive_term(ctx, atom.args[0])
        right = derive_term(ctx, atom.args[1])
        common = least_common_supertype(ctx.vocab, left.type_name, right.type_name)
        premises = tuple(
            d if d.type_name == common else TypingDerivation("T-sub", d.expr, common, (d,))
            for d in (left, right)
        )
        return TypingDerivation("T-app", atom, BOOL, premises)
    sig, premises = _application(ctx, atom, atom.predicate, atom.args)
    d = TypingDerivation("T-app", atom, sig.result_type, premises)
    if sig.result_type == BOOL:
        return d
    if is_subtype(ctx.vocab, sig.result_type, BOOL):
        return TypingDerivation("T-sub", atom, BOOL, (d,))
    raise TypingError(
        "NonBooleanSubformula",
        f"{atom.predicate!r} yields {sig.result_type}, not {BOOL}",
        atom,
        expected=BOOL,
        found=sig.result_type,
    )


def _check_guarded(
    ctx: TypingContext,
    formula: ast.Formula,
    split: tuple[list[ast.Atom], ast.Formula],
    rule: str,
) -> TypingDerivation:
    """Type a guarded conjunction or implication: each guarded term must be
    typeable (and hence of type Universe), and the remainder is checked with
    the guards' type annotations pushed."""
    guards, body = split
    universe_premises: list[TypingDerivation] = []
    annotations: list[TermEntry] = []
    for guard in guards:
        term = guard.args[0]
        d = derive_term(ctx, term)
        if d.type_name != UNIVERSE:
            if not is_subtype(ctx.vocab, d.type_name, UNIVERSE):
                raise TypingError(
                    "GuardOnNonUniverseTerm",
                    f"guarded term is not below {UNIVERSE}",
                    term,
                    expected=UNIVERSE,
                    found=d.type_name,
                )
            d = TypingDerivation("T-sub", term, UNIVERSE, (d,))
        universe_premises.append(d)
        annotations.append(TermEntry(term, guard.predicate))
    inner = ctx.push(*annotations)
    body_premise = typecheck(inner, body)
    return TypingDerivation(rule, formula, BOOL, tuple(universe_premises) + (body_premise,))


# -- rendering and export


def render_derivation(derivation: TypingDerivation) -> str:
    """Indented tree, one rule application per line."""
    lines: list[str] = []

    def walk(d: TypingDerivation, depth: int) -> None:
        line = f"{'  ' * depth}{d.rule} ⊢ {d.conclusion()}"
        n = len(d.premises)
        if n:
            line += f"  [{n} premise{'s' if n != 1 else ''}]"
        lines.append(line)
        for p in d.premises:
            walk(p, depth + 1)

    walk(derivation, 0)
    return "\n".join(lines)


def derivation_to_dict(d: TypingDerivation) -> dict:
    out = {
        "rule": d.rule,
        "expression": str(d.expr),
        "type": d.type_name,
        "children": [derivation_to_dict(p) for p in d.premises],
    }
    if d.note:
        out["note"] = d.note
    return out


# -- independent validation


def validate_derivation(vocab: Vocabulary, d: TypingDerivation) -> bool:
    """Node-local schema check, written against the rule schemas rather than
    the checker: every node must instantiate its named rule exactly."""
    if not _node_valid(vocab, d):
        return False
    return all(validate_derivation(vocab, p) for p in d.premises)


# -- sentences

# the module: `gosil.typecheck` as an attribute is the re-exported function
_library = importlib.import_module("gosil.typecheck")
_INTENSIONAL = (ast.ConceptRef, ast.Deref, ast.DerefAtom)


def is_intensional(vocab: Vocabulary, formula: ast.Formula) -> bool:
    """The probe: the formula mentions concept references/dereferences or
    quantifies over a concept type."""
    return any(
        isinstance(node, _INTENSIONAL)
        or (isinstance(node, (ast.Exists, ast.Forall)) and is_subtype(vocab, node.type_name, CONCEPT))
        for node in ast.walk(formula)
    )


def staged_check_sentence(theory: ast.Theory, sentence: ast.Formula) -> TypingDerivation:
    """Full pipeline for one sentence: intensional sentences are grounded
    first (which also expands implicit guards), wrapper-only sentences are
    elaborated, and the result is checked against the initial context."""
    free = ast.free_variables(sentence)
    if free:
        names = ", ".join(sorted(free))
        raise TypingError("UnboundVariable", f"not a sentence, free variables: {names}", sentence)
    ctx = initial_context(theory.vocabulary)
    if is_intensional(theory.vocabulary, sentence):
        grounded = grounding.ground(sentence, grounding.interpretation(theory))
        derivation = _library.typecheck(ctx, grounded)
        return replace(
            derivation, note=f"typed via grounding: {ast.format_formula(grounded)}"
        )
    if has_guards(sentence):
        expanded = grounding.elaborate(ctx, sentence)
        derivation = _library.typecheck(ctx, expanded)
        return replace(
            derivation, note=f"typed after guard elaboration: {ast.format_formula(expanded)}"
        )
    return _library.typecheck(ctx, sentence)
