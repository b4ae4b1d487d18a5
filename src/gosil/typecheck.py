"""The typing relation: a deterministic checker producing derivation trees.

Terms receive principal (least) types bottom-up — a context hit, the
variable's declared type, or the symbol's declared result type — and
subsumption is applied exactly where needed: at argument positions and at
the guard premises requiring Universe. Conjunctions whose leading conjuncts
are type-predicate atoms are typed by the conjunction-guarding rule (G-c),
which re-types the guarded terms inside the remainder; implications whose
whole antecedent is such a prefix use implication guarding (G-i).

A successful check returns a TypingDerivation tree; failure raises
TypingError with the offending sub-expression and expected/found types
where applicable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import ast
from .errors import TypingError
from .vocabulary import (
    BOOL,
    CONCEPT,
    NAT,
    UNIVERSE,
    Signature,
    Vocabulary,
    is_subtype,
    least_common_supertype,
)


@dataclass(frozen=True)
class VarEntry:
    name: str
    type_name: str


@dataclass(frozen=True)
class TermEntry:
    term: ast.Term
    type_name: str


ContextEntry = VarEntry | TermEntry


@dataclass(frozen=True)
class TypingContext:
    """An ordered stack of term annotations over a vocabulary; the most
    recently pushed matching entry wins, so guard refinements shadow
    quantifier types and inner quantifiers shadow both. Symbols resolve
    through the vocabulary."""

    vocab: Vocabulary
    entries: tuple[ContextEntry, ...] = ()

    def push(self, *new: ContextEntry) -> "TypingContext":
        return TypingContext(self.vocab, self.entries + new)

    def lookup_symbol(self, name: str) -> Signature | None:
        return self.vocab.resolve(name)

    def lookup_term_type(self, term: ast.Term) -> str | None:
        """Most recent annotation for this term. A TermEntry is skipped when
        any of its variables was re-bound above it (capture avoidance); a
        VarEntry both answers variable lookups and re-binds its name."""
        rebound: set[str] = set()
        name = term.name if type(term) is ast.Variable else None
        for entry in reversed(self.entries):
            if isinstance(entry, VarEntry):
                if entry.name == name:
                    return entry.type_name
                rebound.add(entry.name)
            elif isinstance(entry, TermEntry):
                if entry.term == term and ast.free_variables(entry.term).isdisjoint(rebound):
                    return entry.type_name
        return None


def initial_context(vocab: Vocabulary) -> TypingContext:
    """The context induced by the vocabulary: no annotations yet; every
    symbol, type predicate and equality resolves through `vocab.resolve`."""
    return TypingContext(vocab)


@dataclass(frozen=True)
class TypingDerivation:
    """One rule application: `rule` concludes `expr : type_name` from the
    premise derivations."""

    rule: str
    expr: ast.Term | ast.Formula
    type_name: str
    premises: tuple["TypingDerivation", ...] = ()
    note: str | None = field(default=None, compare=False)

    def conclusion(self) -> str:
        return f"{self.expr} : {self.type_name}"


RULE_NAMES = (
    "T-tr", "T-fa", "T-or", "T-neg", "T-ex", "T-sub", "T-var", "T-app",
    "G-c", "G-i",
    # direct rules for the shortcut connectives and concept references
    "T-and", "T-imp", "T-iff", "T-all", "T-con",
)


# -- terms -------------------------------------------------------------------------


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


# -- guard recognition ----------------------------------------------------------------


def flatten_and(f: ast.Formula) -> list[ast.Formula]:
    """The conjuncts of an &-chain in order, however it is nested."""
    conjuncts, todo = [], [f]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.And):
            todo += (node.right, node.left)
        else:
            conjuncts.append(node)
    return conjuncts


def refold(parts: list[ast.Formula], connective=ast.And) -> ast.Formula:
    """The right-nested chain p1 c (p2 c (... c pn)) of one or more parts."""
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = connective(part, result)
    return result


def _is_type_predicate_atom(vocab: Vocabulary, f: ast.Formula) -> bool:
    return (
        isinstance(f, ast.Atom)
        and len(f.args) == 1
        and vocab.has_type(f.predicate)
    )


def guard_prefix(vocab: Vocabulary, f: ast.Formula) -> tuple[list[ast.Atom], ast.Formula] | None:
    """Split a conjunction into its guard prefix (the maximal leading run of
    type-predicate atoms, keeping at least one conjunct as the body) and the
    re-folded remainder. None when there is no prefix."""
    if not isinstance(f, ast.And):
        return None
    leftmost = f.left
    while isinstance(leftmost, ast.And):
        leftmost = leftmost.left
    if not _is_type_predicate_atom(vocab, leftmost):
        return None
    conjuncts = flatten_and(f)  # at least two, the first a guard
    k = 1
    while k < len(conjuncts) - 1 and _is_type_predicate_atom(vocab, conjuncts[k]):
        k += 1
    return conjuncts[:k], refold(conjuncts[k:])  # type: ignore[return-value]


def implication_guard(vocab: Vocabulary, f: ast.Formula) -> tuple[list[ast.Atom], ast.Formula] | None:
    """Recognize T1(t1) & ... & Tn(tn) => body."""
    if not isinstance(f, ast.Implies):
        return None
    antecedent = flatten_and(f.left)
    if all(_is_type_predicate_atom(vocab, c) for c in antecedent):
        return antecedent, f.right  # type: ignore[return-value]
    return None


# -- formulas ------------------------------------------------------------------------


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


# -- sentences ------------------------------------------------------------------------


def check_sentence(theory: ast.Theory, sentence: ast.Formula) -> TypingDerivation:
    """Full pipeline for one sentence: intensional sentences are grounded
    first (which also expands implicit guards), wrapper-only sentences are
    elaborated, and the result is checked against the initial context."""
    from . import elaboration, grounding  # local import: those modules use us

    free = ast.free_variables(sentence)
    if free:
        names = ", ".join(sorted(free))
        raise TypingError("UnboundVariable", f"not a sentence, free variables: {names}", sentence)
    ctx = initial_context(theory.vocabulary)
    if grounding.is_intensional(theory.vocabulary, sentence):
        grounded = grounding.ground(sentence, grounding.interpretation(theory))
        derivation = typecheck(ctx, grounded)
        return replace(
            derivation, note=f"typed via grounding: {ast.format_formula(grounded)}"
        )
    if ast.has_guards(sentence):
        expanded = elaboration.elaborate(ctx, sentence)
        derivation = typecheck(ctx, expanded)
        return replace(
            derivation, note=f"typed after guard elaboration: {ast.format_formula(expanded)}"
        )
    return typecheck(ctx, sentence)


# -- rendering and export -----------------------------------------------------------------


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


# -- independent validation ----------------------------------------------------------------


def validate_derivation(vocab: Vocabulary, d: TypingDerivation) -> bool:
    """Node-local schema check, written against the rule schemas rather than
    the checker: every node must instantiate its named rule exactly."""
    if not _node_valid(vocab, d):
        return False
    return all(validate_derivation(vocab, p) for p in d.premises)


def _node_valid(vocab: Vocabulary, d: TypingDerivation) -> bool:
    e, t, ps = d.expr, d.type_name, d.premises
    match d.rule:
        case "T-tr":
            return e == ast.Truth(True) and t == BOOL and not ps
        case "T-fa":
            return e == ast.Truth(False) and t == BOOL and not ps
        case "T-neg":
            return (
                isinstance(e, ast.Not)
                and t == BOOL
                and len(ps) == 1
                and ps[0].expr == e.body
                and ps[0].type_name == BOOL
            )
        case "T-and" | "T-or" | "T-imp" | "T-iff":
            wanted = {"T-and": ast.And, "T-or": ast.Or, "T-imp": ast.Implies, "T-iff": ast.Iff}
            return (
                isinstance(e, wanted[d.rule])
                and t == BOOL
                and len(ps) == 2
                and ps[0].expr == e.left
                and ps[1].expr == e.right
                and all(p.type_name == BOOL for p in ps)
            )
        case "T-ex" | "T-all":
            node = ast.Exists if d.rule == "T-ex" else ast.Forall
            return (
                isinstance(e, node)
                and t == BOOL
                and len(ps) == 1
                and ps[0].expr == e.body
                and ps[0].type_name == BOOL
            )
        case "T-var":
            return isinstance(e, ast.Term) and not ps and vocab.has_type(t)
        case "T-con":
            return isinstance(e, ast.ConceptRef) and t == CONCEPT and not ps
        case "T-sub":
            return (
                len(ps) == 1
                and ps[0].expr == e
                and is_subtype(vocab, ps[0].type_name, t)
            )
        case "T-app":
            return _app_valid(vocab, d)
        case "G-c" | "G-i":
            return _guard_valid(vocab, d)
    return False


def _app_valid(vocab: Vocabulary, d: TypingDerivation) -> bool:
    e, t, ps = d.expr, d.type_name, d.premises
    if isinstance(e, ast.NatLiteral):
        return t == NAT and not ps
    if isinstance(e, (ast.Atom, ast.Apply)):
        name = e.predicate if isinstance(e, ast.Atom) else e.symbol
        args = e.args
        if name == ast.EQUALITY_ATOM and isinstance(e, ast.Atom):
            return (
                t == BOOL
                and len(ps) == 2
                and tuple(p.expr for p in ps) == args
                and ps[0].type_name == ps[1].type_name
                and vocab.has_type(ps[0].type_name)
            )
        sig = vocab.resolve(name)
        if sig is None:
            return False
        return (
            t == sig.result_type
            and len(ps) == sig.arity
            and tuple(p.expr for p in ps) == args
            and tuple(p.type_name for p in ps) == sig.argument_types
        )
    return False


def _guard_valid(vocab: Vocabulary, d: TypingDerivation) -> bool:
    e, t, ps = d.expr, d.type_name, d.premises
    if t != BOOL or len(ps) < 2:
        return False
    if d.rule == "G-i":
        if not isinstance(e, ast.Implies):
            return False
        guards = flatten_and(e.left)
        body = e.right
    else:
        if not isinstance(e, ast.And):
            return False
        conjuncts = flatten_and(e)
        guards = conjuncts[: len(ps) - 1]
        body = refold(conjuncts[len(ps) - 1 :])
    if len(guards) != len(ps) - 1:
        return False
    for guard, premise in zip(guards, ps[:-1]):
        if not _is_type_predicate_atom(vocab, guard):
            return False
        if premise.expr != guard.args[0] or premise.type_name != UNIVERSE:
            return False
    return ps[-1].expr == body and ps[-1].type_name == BOOL
