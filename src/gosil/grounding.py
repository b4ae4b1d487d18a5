"""Grounding: eliminate concept quantifiers, references, and dereferences.

Quantifiers over concept types expand to disjunctions/conjunctions over the
type's fixed extension, outermost first; dereference heads reduce to concept
objects (via the concept-function facts where needed) and apply the named
symbol; any implicit guard wrappers are then elaborated per grounded
instance. Quantifiers over ordinary types stay put: grounding exists to
remove the intensional constructs, not to propositionalize the theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import ast, elaboration
from .errors import (
    GroundArityError,
    MissingExtension,
    NonFunctionalFacts,
    NonTotalConceptFunction,
    UnknownConceptMember,
    UnresolvableDeref,
)
from .typecheck import VarEntry, initial_context, refold
from .vocabulary import (
    CONCEPT,
    ConceptObject,
    Vocabulary,
    concept_universe,
    deref_signature,
    is_subtype,
    resolve_concept,
)

FactKey = tuple[str, tuple[ConceptObject, ...]]
_QUANTIFIERS = (ast.Exists, ast.Forall)
_DEREFS = (ast.Deref, ast.DerefAtom)


@dataclass(frozen=True)
class GroundInterpretation:
    """The fixed intensional part of a theory: extensions of concept types
    and the graphs of concept-valued functions."""

    vocab: Vocabulary
    extensions: dict[str, tuple[ConceptObject, ...]] = field(default_factory=dict)
    facts: dict[FactKey, ConceptObject] = field(default_factory=dict)

    def extension(self, type_name: str) -> tuple[ConceptObject, ...]:
        if type_name in self.extensions:
            return self.extensions[type_name]
        if type_name == CONCEPT:
            return concept_universe(self.vocab)
        raise MissingExtension(f"concept type {type_name!r} has no declared extension")


def is_intensional(vocab: Vocabulary, formula: ast.Formula) -> bool:
    """True when grounding has work to do: the formula mentions concept
    references/dereferences or quantifies over a concept type."""
    return ast.has_intensional_nodes(formula) or any(
        _is_concept_quantifier(vocab, node) for node in ast.walk(formula)
    )


def _is_concept_quantifier(vocab: Vocabulary, node) -> bool:
    return isinstance(node, _QUANTIFIERS) and is_subtype(vocab, node.type_name, CONCEPT)


def build_intensional_interp(theory: ast.Theory) -> GroundInterpretation:
    """Collect extensions and concept-function facts from a theory, checking
    that facts are functional and total over their declared domains."""
    vocab = theory.vocabulary
    extensions: dict[str, tuple[ConceptObject, ...]] = {}
    for ext in vocab.extensions:
        members = []
        for name in ext.members:
            concept = resolve_concept(vocab, name)
            if concept is None:
                raise UnknownConceptMember(
                    f"extension of {ext.type_name!r} names undeclared {name!r}"
                )
            members.append(concept)
        extensions[ext.type_name] = tuple(members)

    facts: dict[FactKey, ConceptObject] = {}
    for fact in theory.concept_facts:
        key = (fact.function, fact.args)
        if key in facts and facts[key] != fact.value:
            args = ", ".join(str(a) for a in fact.args)
            raise NonFunctionalFacts(
                f"{fact.function}({args}) defined as both "
                f"{facts[key]} and {fact.value}",
                fact.loc,
            )
        facts[key] = fact.value

    interp = GroundInterpretation(vocab, extensions, facts)
    _check_totality(interp)
    return interp


def _check_totality(interp: GroundInterpretation) -> None:
    """Every concept-valued function whose argument types all have known
    extensions must have a fact for each argument tuple."""
    vocab = interp.vocab
    for sig in vocab.signatures:
        if sig.builtin or not is_subtype(vocab, sig.result_type, CONCEPT):
            continue
        domains = []
        enumerable = True
        for arg_type in sig.argument_types:
            if arg_type in interp.extensions:
                domains.append(interp.extensions[arg_type])
            elif arg_type == CONCEPT:
                domains.append(concept_universe(vocab))
            else:
                enumerable = False
                break
        if not enumerable:
            continue
        for combo in itertools.product(*domains):
            if (sig.name, combo) not in interp.facts:
                args = ", ".join(str(c) for c in combo)
                raise NonTotalConceptFunction(
                    f"no value defined for {sig.name}({args})"
                )


# -- the grounding passes ---------------------------------------------------------


def _expand_quantifiers(interp: GroundInterpretation, f: ast.Formula) -> ast.Formula:
    """Pass 1: replace concept-typed quantifiers by finite expansions over
    their extensions, substituting concept references for the variable.
    A quantifier's body is expanded once, then instantiated per member;
    substituting and expanding commute, and the extension is looked up
    before the body is entered, so errors come in outermost-first order."""
    vocab = interp.vocab

    def enter(node):
        if isinstance(node, (ast.Truth, ast.Atom, ast.DerefAtom)):
            return node
        if _is_concept_quantifier(vocab, node) and not interp.extension(node.type_name):
            return ast.Truth(isinstance(node, ast.Forall))
        return None

    def combine(node, kids):
        if not _is_concept_quantifier(vocab, node):
            return ast.rebuild(node, kids)
        instances = [
            ast.substitute(kids[0], node.var, ast.ConceptRef(obj))
            for obj in interp.extension(node.type_name)
        ]
        return refold(instances, ast.Or if isinstance(node, ast.Exists) else ast.And)

    return ast.fold(f, combine, enter)


def _reduce_head(interp: GroundInterpretation, term: ast.Term) -> ConceptObject:
    """Reduce a dereference head to the concept object it denotes."""
    match term:
        case ast.ConceptRef(concept):
            return concept
        case ast.Apply(symbol, args):
            sig = interp.vocab.signature(symbol)
            if sig is not None and is_subtype(interp.vocab, sig.result_type, CONCEPT):
                reduced = tuple(_reduce_head(interp, a) for a in args)
                value = interp.facts.get((symbol, reduced))
                if value is None:
                    shown = ", ".join(str(c) for c in reduced)
                    raise UnresolvableDeref(
                        f"no fact determines {symbol}({shown})", term.loc
                    )
                return value
    raise UnresolvableDeref(
        f"dereference head {ast.format_term(term)} does not reduce to a concept",
        getattr(term, "loc", None),
    )


def _eliminate(interp: GroundInterpretation, expr):
    """Pass 2: rewrite dereferences to direct applications of the symbols
    their heads denote (the type predicate, for a type's concept). A head
    is reduced as soon as it is rewritten, before the arguments are
    visited, so errors come in that order."""
    heads: list[ast.Term] = []  # heads of the dereferences entered, innermost last

    def enter(node):
        if isinstance(node, _DEREFS):
            heads.append(node.head)
        return None

    def combine(node, kids):
        if isinstance(node, _DEREFS):
            (obj, sig), args = kids[0], tuple(kids[1:])
            if len(args) != sig.arity:
                raise GroundArityError(
                    f"{obj} dereferences to {sig.name!r} expecting {sig.arity} "
                    f"argument(s), got {len(args)}"
                )
            value = (ast.Apply if isinstance(node, ast.Deref) else ast.Atom)(sig.name, args)
        else:
            value = ast.rebuild(node, kids)
        if not heads or node is not heads[-1]:
            return value
        # a head, rewritten before any argument of its dereference is visited
        heads.pop()
        obj = _reduce_head(interp, value)
        sig = deref_signature(interp.vocab, obj)
        if sig is None:
            raise UnresolvableDeref(f"concept {obj} names nothing applicable")
        return obj, sig

    return ast.fold(expr, combine, enter)


def ground_trace(
    formula: ast.Formula,
    interp: GroundInterpretation,
    free_var_types: dict[str, str] | None = None,
) -> list[tuple[str, ast.Formula]]:
    """The grounding pipeline with intermediate results, for tracing: the
    original formula, the quantifier expansion, the intensional elimination,
    and (when wrappers are present) the guard elaboration. A pass is shown
    when it changes the formula: the expansion exactly when the formula
    holds a concept-typed quantifier, the elimination exactly when it holds
    a dereference. Deciding that with one walk, not by comparing trees,
    keeps every step within the explicit stack of `ast.walk`."""
    vocab = interp.vocab
    steps = [("original", formula)]
    expanded = _expand_quantifiers(interp, formula)
    if any(_is_concept_quantifier(vocab, node) for node in ast.walk(formula)):
        steps.append(("grounded concept quantifiers", expanded))
    eliminated = _eliminate(interp, expanded)
    if any(isinstance(node, _DEREFS) for node in ast.walk(expanded)):
        steps.append(("eliminated intensional terms", eliminated))
    if ast.has_guards(eliminated):
        ctx = initial_context(vocab)
        if free_var_types:
            ctx = ctx.push(*(VarEntry(v, t) for v, t in free_var_types.items()))
        elaborated = elaboration.elaborate(ctx, eliminated)
        steps.append(("elaborated implicit guards", elaborated))
    return steps


def ground(
    formula: ast.Formula,
    interp: GroundInterpretation,
    free_var_types: dict[str, str] | None = None,
) -> ast.Formula:
    """Fully ground a formula: the output contains no concept-typed
    quantifier, no reference or dereference in applied position, and no
    guard wrapper. Formulas with none of those come back unchanged."""
    return ground_trace(formula, interp, free_var_types)[-1][1]


def dependencies(formula: ast.Formula, interp: GroundInterpretation) -> frozenset[str]:
    """The user symbols whose graphs can decide a sentence's value: those
    applied in its grounded form, plus, when it has guards or intensional
    nodes, every concept-valued function, whose graphs fix the
    interpretation guards expand under. Grounding errors propagate; a
    sentence `typecheck.check_sentence` accepted has been grounded this way
    already."""
    vocab = interp.vocab
    found = {
        node.predicate if isinstance(node, ast.Atom) else node.symbol
        for node in ast.walk(ground(formula, interp))
        if isinstance(node, (ast.Atom, ast.Apply))
    }
    if ast.has_guards(formula) or ast.has_intensional_nodes(formula):
        found.update(
            s.name
            for s in vocab.signatures
            if not s.builtin and is_subtype(vocab, s.result_type, CONCEPT)
        )
    return frozenset(found & {s.name for s in vocab.signatures if not s.builtin})


def grounded_size(
    formula: ast.Formula,
    interp: GroundInterpretation,
    free_var_types: dict[str, str] | None = None,
) -> int:
    """Number of atoms in the grounded formula."""
    return ast.atom_count(ground(formula, interp, free_var_types))
