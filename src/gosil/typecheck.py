"""The typing relation: a deterministic checker producing derivation trees.

Terms receive principal (least) types bottom-up — a context hit, the
variable's declared type, or the symbol's declared result type — and
subsumption is applied exactly where needed: at argument positions and at
the guard premises requiring Universe, which every type lies below, so a
guard premise never fails. Conjunctions whose leading conjuncts
are type-predicate atoms are typed by the conjunction-guarding rule (G-c),
which re-types the guarded terms inside the remainder; implications whose
whole antecedent is such a prefix use implication guarding (G-i).

A successful check returns a TypingDerivation tree; failure raises
TypingError with the offending sub-expression and expected/found types
where applicable.

The checker is one `ast.fold`: each rule reads the typing context its
parent hands down and builds its conclusion from its premises' derivations.
Rendering, export and validation walk a derivation over its premises with
`ast.walk`/`ast.fold`. All of them keep their own stack, so no tree is too
deep for them.

`check_sentence` grounds a sentence, `grounding.checked`, and then
derives the grounded form by this fold: in the paper an intensional
sentence has the type of its grounding.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import field
from operator import attrgetter
from typing import NamedTuple

from . import ast
from .errors import TypingError, record
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


@record
class VarEntry:
    name: str
    type_name: str


@record
class TermEntry:
    term: ast.Term
    type_name: str


ContextEntry = VarEntry | TermEntry


@record
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
        rebound: tuple[str, ...] = ()
        name = term.name if type(term) is ast.Variable else None
        for entry in reversed(self.entries):
            if type(entry) is VarEntry:
                if entry.name == name:
                    return entry.type_name
                rebound += (entry.name,)
            elif type(entry.term) is ast.Variable:  # a guarded variable
                if entry.term.name == name and name not in rebound:
                    return entry.type_name
            elif entry.term == term and ast.free_variables(entry.term).isdisjoint(rebound):
                return entry.type_name
        return None


def initial_context(vocab: Vocabulary) -> TypingContext:
    """The context induced by the vocabulary: no annotations yet; every
    symbol, type predicate and equality resolves through `vocab.resolve`."""
    return TypingContext(vocab)


@record
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


# -- terms -------------------------------------------------------------------------


def derive_term(ctx: TypingContext, term: ast.Term) -> TypingDerivation:
    """Derive the principal type of a term; a simple one (see `_simple`)
    without a fold."""
    if _simple(term):
        return _term_at(ctx, term, None, None)
    return typecheck(ctx, _At(term, None, None))


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


# -- the checker --------------------------------------------------------------------
#
# One fold derives a formula bottom-up. What a node inherits is its typing
# context: a quantifier hands its body the context with its variable pushed,
# a guard rule its remainder the context with the guards' annotations pushed.
# A term is folded as a position, an `_At`, that says which type it must have
# there. A position is decided when it is entered if its term is annotated in
# the context or simple, and so is an application whose arguments are all
# simple; anything else folds its premises below a `_Conclusion`. Each
# position is derived and checked before the next is entered, so errors come
# in the order of a left-to-right recursion: an unknown symbol, then its
# arity, then each argument in turn.


class _At(NamedTuple):
    """A term position: `term` derived at `expected`, or at its principal
    type when that is None, raising the error kind `mismatch` if it does not
    fit."""

    term: ast.Term
    expected: str | None
    mismatch: str | None


class _Conclusion(NamedTuple):
    """The application of `rule` concluding `expr : type_name` from the
    premises folded below it, then taken to `expected` as at an `_At`."""

    rule: str
    expr: ast.Term | ast.Formula
    type_name: str
    expected: str | None = None
    mismatch: str | None = None


_MISMATCHES = {  # the message of each error kind raised where a type does not fit
    "ArgumentTypeMismatch": "expected {expected}, found {found}",
    "NonBooleanSubformula": "{expr.predicate!r} yields {found}, not {expected}",
}


def _subsumed(vocab: Vocabulary, d: TypingDerivation, expected, mismatch) -> TypingDerivation:
    """`d` at `expected`: itself, or under T-sub when its type lies strictly
    below."""
    if expected is None or d.type_name == expected:
        return d
    if is_subtype(vocab, d.type_name, expected):
        return TypingDerivation("T-sub", d.expr, expected, (d,))
    message = _MISMATCHES[mismatch].format(expr=d.expr, expected=expected, found=d.type_name)
    raise TypingError(mismatch, message, d.expr, expected=expected, found=d.type_name)


def _concluded(vocab: Vocabulary, key: _Conclusion, premises) -> TypingDerivation:
    d = TypingDerivation(key.rule, key.expr, key.type_name, tuple(premises))
    return _subsumed(vocab, d, key.expected, key.mismatch)


def _unbound(ctx: TypingContext, term: ast.Variable):
    raise TypingError("UnboundVariable", f"variable {term.name!r} is not in scope", term)


_UNGROUNDED = "dereference must be grounded before type checking"


def _ungrounded(ctx: TypingContext, node):
    raise TypingError("IntensionalNotGrounded", _UNGROUNDED, node)


_TERMS = {  # the derivation of each class of term but an application, unless annotated
    ast.Variable: _unbound,
    ast.NatLiteral: lambda ctx, term: TypingDerivation("T-app", term, NAT),
    ast.ConceptRef: lambda ctx, term: TypingDerivation("T-con", term, CONCEPT),
    ast.Deref: _ungrounded,
}


def _simple(term) -> bool:
    """True of a term decided as soon as its position is entered: any but an
    application with arguments."""
    return type(term) in _TERMS or (type(term) is ast.Apply and not term.args)


def _term_at(ctx: TypingContext, term: ast.Term, expected, mismatch):
    """The derivation of `term` at a position, or what to fold for it."""
    annotated = ctx.lookup_term_type(term)
    if annotated is not None:
        d = TypingDerivation("T-var", term, annotated)
    elif type(term) is ast.Apply:
        return _application(ctx, term, term.symbol, expected, mismatch)
    elif type(term) in _TERMS:
        d = _TERMS[type(term)](ctx, term)
    else:
        raise TypeError(f"not a term: {term!r}")
    return _subsumed(ctx.vocab, d, expected, mismatch)


def _application(ctx: TypingContext, node, name: str, expected, mismatch):
    """An application of `name` at a position: decided at once when its
    arguments are all simple, else its argument positions to fold."""
    sig = ctx.lookup_symbol(name)
    if sig is None:
        raise TypingError("UnknownSymbol", f"unknown symbol {name!r}", node)
    if len(node.args) != sig.arity:
        message = f"{name!r} expects {sig.arity} argument(s), got {len(node.args)}"
        raise TypingError("ArgumentTypeMismatch", message, node)
    positions = zip(node.args, sig.argument_types)
    key = _Conclusion("T-app", node, sig.result_type, expected, mismatch)
    if all(map(_simple, node.args)):
        return _concluded(ctx.vocab, key, [
            _term_at(ctx, arg, t, "ArgumentTypeMismatch") for arg, t in positions
        ])
    return ast.Below(key, [(_At(arg, t, "ArgumentTypeMismatch"), ctx) for arg, t in positions])


def _atom(ctx: TypingContext, atom: ast.Atom):
    if atom.predicate != ast.EQUALITY_ATOM:
        return _application(ctx, atom, atom.predicate, BOOL, "NonBooleanSubformula")
    # both sides at their principal types, then at their least common supertype
    sides = atom.args[0], atom.args[1]
    if all(map(_simple, sides)):
        return _equation(ctx.vocab, atom, [_term_at(ctx, t, None, None) for t in sides])
    return ast.Below(atom, [(_At(t, None, None), ctx) for t in sides])


def _equation(vocab: Vocabulary, atom: ast.Atom, sides) -> TypingDerivation:
    common = least_common_supertype(vocab, sides[0].type_name, sides[1].type_name)
    return TypingDerivation("T-app", atom, BOOL, tuple(
        d if d.type_name == common else TypingDerivation("T-sub", d.expr, common, (d,))
        for d in sides
    ))


def _guarded(ctx: TypingContext, rule: str, formula, split):
    """Each guarded term must be typeable, and so typed at Universe, above
    every type; the remainder is checked with the guards' type annotations
    pushed. Decided at once when the terms are simple and the remainder an
    atom over simple terms, as a guarded instance of a wrapper mostly is."""
    guards, body = split
    terms = [g.args[0] for g in guards]
    inner = ctx.push(*(TermEntry(t, g.predicate) for t, g in zip(terms, guards)))
    key = _Conclusion(rule, formula, BOOL)
    if all(map(_simple, terms)) and type(body) is ast.Atom and all(map(_simple, body.args)):
        premises = [_term_at(ctx, t, UNIVERSE, None) for t in terms]
        return _concluded(ctx.vocab, key, premises + [_atom(inner, body)])
    return ast.Below(key, [(_At(t, UNIVERSE, None), ctx) for t in terms] + [(body, inner)])


def _wrapper(ctx: TypingContext, node):
    raise ValueError("implicit guard wrappers must be elaborated before type checking")


_RULES = {
    ast.Not: "T-neg", ast.And: "T-and", ast.Or: "T-or", ast.Implies: "T-imp",
    ast.Iff: "T-iff", ast.Exists: "T-ex", ast.Forall: "T-all",
}
_ENTER = {  # by the class of a formula, or of a term position; None folds the children
    ast.Truth: lambda ctx, node: TypingDerivation("T-tr" if node.value else "T-fa", node, BOOL),
    ast.Atom: _atom,
    ast.DerefAtom: _ungrounded,
    **dict.fromkeys((ast.Not, ast.Or, ast.Iff), lambda ctx, node: None),
    ast.And: lambda ctx, node: (
        None if (split := guard_prefix(ctx.vocab, node)) is None
        else _guarded(ctx, "G-c", node, split)),
    ast.Implies: lambda ctx, node: (
        None if (split := implication_guard(ctx.vocab, node)) is None
        else _guarded(ctx, "G-i", node, split)),
    **dict.fromkeys((ast.Exists, ast.Forall), lambda ctx, node: ast.Below(
        node, [(node.body, ctx.push(VarEntry(node.var, node.type_name)))])),
    **dict.fromkeys((ast.GuardC, ast.GuardI), _wrapper),
    _At: lambda ctx, at: _term_at(ctx, *at),
}
_COMBINE = {  # by the class of what was folded below
    **dict.fromkeys(_RULES, lambda vocab, node, premises: TypingDerivation(
        _RULES[type(node)], node, BOOL, tuple(premises))),
    ast.Atom: _equation,
    _Conclusion: _concluded,
}


def typecheck(ctx: TypingContext, formula) -> TypingDerivation:
    """Derive `formula : Bool`, or raise TypingError. `formula` may also be
    a term position, as `derive_term` folds one."""
    vocab = ctx.vocab

    def enter(node, inherited: TypingContext):
        rule = _ENTER.get(type(node))
        if rule is None:
            raise TypeError(f"not a formula: {node!r}")
        return rule(inherited, node)

    def combine(key, premises):
        return _COMBINE[type(key)](vocab, key, premises)

    return ast.fold(formula, combine, enter, ctx)


# -- sentences ------------------------------------------------------------------------


def check_sentence(
    theory: ast.Theory, sentence: ast.Formula, steps: list | None = None
) -> TypingDerivation:
    """Full pipeline for one sentence: intensional sentences are grounded
    first (which also expands implicit guards), wrapper-only sentences are
    elaborated, and the result is checked against the initial context (see
    `grounding.checked`); the note says which it was. Into `steps`, when
    given, go the grounding steps of an intensional sentence, as
    `grounding.ground_trace` shows them."""
    from . import grounding  # local import: grounding uses us

    return grounding.checked(theory, sentence, steps)


# -- rendering and export -----------------------------------------------------------------


def render_derivation(derivation: TypingDerivation) -> str:
    """Indented tree, one rule application per line."""
    return "\n".join(derivation_lines(derivation))


def derivation_lines(derivation: TypingDerivation) -> Iterator[str]:
    """The lines of `render_derivation`, one at a time: the text of a deep
    derivation grows with the square of its depth."""
    nodes = list(ast.walk((0, derivation), _indented_premises))
    spelled = ast.format_each([d.expr for _, d in nodes])
    for (depth, d), expr in zip(nodes, spelled):
        line = f"{'  ' * depth}{d.rule} ⊢ {expr} : {d.type_name}"
        n = len(d.premises)
        if n:
            line += f"  [{n} premise{'s' if n != 1 else ''}]"
        yield line


def _indented_premises(item: tuple[int, TypingDerivation]) -> list[tuple[int, TypingDerivation]]:
    depth, d = item
    return [(depth + 1, p) for p in d.premises]


_premises = attrgetter("premises")


def derivation_to_dict(d: TypingDerivation) -> dict:
    nodes = list(ast.walk(d, _premises))
    spelled = dict(zip(map(id, nodes), ast.format_each([node.expr for node in nodes])))

    def combine(d: TypingDerivation, children) -> dict:
        out = {
            "rule": d.rule,
            "expression": spelled[id(d)],
            "type": d.type_name,
            "children": list(children),
        }
        if d.note:
            out["note"] = d.note
        return out

    return ast.fold(d, combine, children=_premises)


# -- independent validation ----------------------------------------------------------------


def validate_derivation(vocab: Vocabulary, d: TypingDerivation) -> bool:
    """Node-local schema check, written against the rule schemas rather than
    the checker: every node must instantiate its named rule exactly."""
    return all(_node_valid(vocab, node) for node in ast.walk(d, _premises))


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
