"""The recursive structural walkers that `ast.walk`/`ast.fold` replaced in
gosil.ast, gosil.grounding and gosil.elaboration, kept as a test-only
oracle: each calls itself once per node. Only the imports differ from the
original. The node classes, `children`/`rebuild` and `GuardTarget` are the
library's. The grounding and elaboration walkers reach the ast walkers and
`elaborate` of this file through the names `ast` and `elaboration`, which
stand in for the library modules. `has_guards`, `has_intensional_nodes`
and `dependencies` have no library walker left to compare with; tests use
them as helpers.
"""

from __future__ import annotations

from types import SimpleNamespace

from gosil import ast as library_ast
from gosil.ast import (
    And,
    Apply,
    Atom,
    ConceptRef,
    Deref,
    DerefAtom,
    Exists,
    Forall,
    Formula,
    GuardC,
    GuardI,
    Iff,
    Implies,
    NatLiteral,
    Not,
    Or,
    Term,
    Truth,
    Variable,
    children,
    rebuild,
)
from gosil.elaboration import GuardTarget
from gosil.errors import GroundArityError, IncomparableTypes, UnresolvableDeref
from gosil.grounding import GroundInterpretation
from gosil.typecheck import TypingContext, VarEntry, derive_term, initial_context
from gosil.typecheck import refold as refold_and
from gosil.vocabulary import CONCEPT, ConceptObject, Vocabulary, deref_signature, is_subtype

# -- gosil.ast

_DEREFS = (Deref, DerefAtom)
_QUANTIFIERS = (Exists, Forall)


def free_variables(expr: Term | Formula) -> frozenset[str]:
    """Free variables of an expression; quantifiers bind."""
    if isinstance(expr, Variable):
        return frozenset((expr.name,))
    out: frozenset[str] = frozenset()
    for child in children(expr):
        out |= free_variables(child)
    if isinstance(expr, _QUANTIFIERS):
        return out - {expr.var}
    return out


def substitute(expr, var: str, replacement: Term):
    """Replace free occurrences of `var` by a closed term."""
    if isinstance(expr, Variable) and expr.name == var:
        return replacement
    if isinstance(expr, _QUANTIFIERS) and expr.var == var:
        return expr
    return rebuild(expr, [substitute(c, var, replacement) for c in children(expr)])


def has_intensional_nodes(expr: Term | Formula) -> bool:
    """True if the expression mentions a concept reference or dereference."""
    if isinstance(expr, (ConceptRef,) + _DEREFS):
        return True
    return any(has_intensional_nodes(c) for c in children(expr))


def has_guards(f: Formula) -> bool:
    if isinstance(f, (GuardC, GuardI)):
        return True
    return any(has_guards(c) for c in children(f))


def atom_count(f: Formula) -> int:
    """Number of atomic formulas (Atom and DerefAtom nodes)."""
    if isinstance(f, (Atom, DerefAtom)):
        return 1
    return sum(atom_count(c) for c in children(f))


def node_count(expr: Term | Formula) -> int:
    return 1 + sum(node_count(c) for c in children(expr))


def desugar(f: Formula) -> Formula:
    """Rewrite to the core connectives (true/false, atoms, ~, |, ?) using the
    standard shortcut definitions. Used to cross-check the native evaluation
    of &, =>, <=>, and ! against the core."""
    match f:
        case Truth() | Atom() | DerefAtom():
            return f
        case Not(body):
            return Not(desugar(body))
        case Or(l, r):
            return Or(desugar(l), desugar(r))
        case And(l, r):
            return Not(Or(Not(desugar(l)), Not(desugar(r))))
        case Implies(l, r):
            return Or(Not(desugar(l)), desugar(r))
        case Iff(l, r):
            dl, dr = desugar(l), desugar(r)
            return desugar(And(Or(Not(dl), dr), Or(Not(dr), dl)))
        case Exists(v, tn, body):
            return Exists(v, tn, desugar(body))
        case Forall(v, tn, body):
            return Not(Exists(v, tn, Not(desugar(body))))
    raise TypeError(f"cannot desugar {f!r}")


_LEVEL_QUANT = 0
_LEVEL_IFF = 1
_LEVEL_IMP = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_NOT = 5
_LEVEL_ATOM = 6
_ARITHMETIC_OPS = ("+", "-", "*")


def format_term(t: Term) -> str:
    match t:
        case Variable(name):
            return name
        case NatLiteral(value):
            return str(value)
        case ConceptRef(concept):
            return f"`{concept.name}"
        case Apply(symbol, (l, r)) if symbol in _ARITHMETIC_OPS:
            return f"({format_term(l)} {symbol} {format_term(r)})"
        case Apply(symbol, ()):
            return symbol
        case Apply(symbol, args):
            return f"{symbol}({', '.join(format_term(a) for a in args)})"
        case Deref(head, args):
            return f"$({format_term(head)})({', '.join(format_term(a) for a in args)})"
    raise TypeError(f"not a term: {t!r}")


def _level(f: Formula) -> int:
    match f:
        case Exists() | Forall():
            return _LEVEL_QUANT
        case Iff():
            return _LEVEL_IFF
        case Implies():
            return _LEVEL_IMP
        case Or():
            return _LEVEL_OR
        case And():
            return _LEVEL_AND
        case Not():
            return _LEVEL_NOT
        case _:
            return _LEVEL_ATOM


def format_formula(f: Formula, min_level: int = 0) -> str:
    match f:
        case Truth(value):
            body = "true" if value else "false"
        case Atom("=", (l, r)):
            body = f"{format_term(l)} = {format_term(r)}"
        case Atom(p, ()):
            body = p
        case Atom(p, args):
            body = f"{p}({', '.join(format_term(a) for a in args)})"
        case DerefAtom(head, args):
            body = f"$({format_term(head)})({', '.join(format_term(a) for a in args)})"
        case Not(inner):
            body = f"~{format_formula(inner, _LEVEL_NOT)}"
        case And(l, r):
            body = f"{format_formula(l, _LEVEL_AND + 1)} & {format_formula(r, _LEVEL_AND)}"
        case Or(l, r):
            body = f"{format_formula(l, _LEVEL_OR + 1)} | {format_formula(r, _LEVEL_OR)}"
        case Implies(l, r):
            body = f"{format_formula(l, _LEVEL_IMP + 1)} => {format_formula(r, _LEVEL_IMP)}"
        case Iff(l, r):
            body = f"{format_formula(l, _LEVEL_IFF)} <=> {format_formula(r, _LEVEL_IFF + 1)}"
        case Exists(var, tn, inner):
            body = f"?{var}[{tn}]: {format_formula(inner)}"
        case Forall(var, tn, inner):
            body = f"!{var}[{tn}]: {format_formula(inner)}"
        case GuardC(inner):
            body = f"<<c: {format_formula(inner)}>>"
        case GuardI(inner):
            body = f"<<i: {format_formula(inner)}>>"
        case _:
            raise TypeError(f"not a formula: {f!r}")
    if _level(f) < min_level:
        return f"({body})"
    return body


# The walkers below reach the ast walkers above through this name, and
# `elaborate` through `elaboration`, bound at the end.
ast = SimpleNamespace(**{
    **vars(library_ast),
    "substitute": substitute,
    "has_guards": has_guards,
    "has_intensional_nodes": has_intensional_nodes,
    "format_term": format_term,
})

# -- gosil.grounding


def is_intensional(vocab: Vocabulary, formula: ast.Formula) -> bool:
    """True when grounding has work to do: the formula mentions concept
    references/dereferences or quantifies over a concept type."""
    return ast.has_intensional_nodes(formula) or _quantifies_concepts(vocab, formula)


def _quantifies_concepts(vocab: Vocabulary, f: ast.Formula) -> bool:
    if isinstance(f, (ast.Exists, ast.Forall)) and is_subtype(vocab, f.type_name, CONCEPT):
        return True
    return any(_quantifies_concepts(vocab, c) for c in ast.children(f))


def _expand_quantifiers(interp: GroundInterpretation, f: ast.Formula) -> ast.Formula:
    """Pass 1: replace concept-typed quantifiers by finite expansions over
    their extensions, substituting concept references for the variable.
    Outer quantifiers expand before the instances are recursed into."""
    vocab = interp.vocab

    def fold(instances: list[ast.Formula], empty: ast.Formula, node) -> ast.Formula:
        if not instances:
            return empty
        result = instances[-1]
        for inst in reversed(instances[:-1]):
            result = node(inst, result)
        return result

    if isinstance(f, (ast.Truth, ast.Atom, ast.DerefAtom)):
        return f
    if isinstance(f, (ast.Exists, ast.Forall)) and is_subtype(vocab, f.type_name, CONCEPT):
        instances = [
            _expand_quantifiers(interp, ast.substitute(f.body, f.var, ast.ConceptRef(obj)))
            for obj in interp.extension(f.type_name)
        ]
        if isinstance(f, ast.Exists):
            return fold(instances, ast.Truth(False), ast.Or)
        return fold(instances, ast.Truth(True), ast.And)
    return ast.rebuild(f, [_expand_quantifiers(interp, c) for c in ast.children(f)])


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


def _eliminate(interp: GroundInterpretation, node):
    """Pass 2: rewrite dereferences to direct applications of the symbols
    their heads denote (the type predicate, for a type's concept)."""
    if isinstance(node, ast.Deref):
        return _apply_concept(interp, node.head, node.args, ast.Apply)
    if isinstance(node, ast.DerefAtom):
        return _apply_concept(interp, node.head, node.args, ast.Atom)
    return ast.rebuild(node, [_eliminate(interp, c) for c in ast.children(node)])


def _apply_concept(
    interp: GroundInterpretation, head: ast.Term, args: tuple[ast.Term, ...], build
):
    obj = _reduce_head(interp, _eliminate(interp, head))
    sig = deref_signature(interp.vocab, obj)
    if sig is None:
        raise UnresolvableDeref(f"concept {obj} names nothing applicable")
    new_args = tuple(_eliminate(interp, a) for a in args)
    if len(new_args) != sig.arity:
        raise GroundArityError(
            f"{obj} dereferences to {sig.name!r} expecting {sig.arity} "
            f"argument(s), got {len(new_args)}"
        )
    return build(sig.name, new_args)


def ground_trace(
    formula: ast.Formula,
    interp: GroundInterpretation,
    free_var_types: dict[str, str] | None = None,
) -> list[tuple[str, ast.Formula]]:
    """The grounding pipeline with intermediate results, for tracing: the
    original formula, the quantifier expansion, the intensional elimination,
    and (when wrappers are present) the guard elaboration."""
    steps = [("original", formula)]
    expanded = _expand_quantifiers(interp, formula)
    if expanded != formula:
        steps.append(("grounded concept quantifiers", expanded))
    eliminated = _eliminate(interp, expanded)
    if eliminated != expanded:
        steps.append(("eliminated intensional terms", eliminated))
    if ast.has_guards(eliminated):
        ctx = initial_context(interp.vocab)
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
    applied in its grounded form. Grounding errors propagate."""
    vocab = interp.vocab
    found: set[str] = set()
    todo: list = [ground(formula, interp)]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Atom):
            found.add(node.predicate)
        elif isinstance(node, ast.Apply):
            found.add(node.symbol)
        todo.extend(ast.children(node))
    return frozenset(found & {s.name for s in vocab.signatures if not s.builtin})


# -- gosil.elaboration


def guard_targets(ctx: TypingContext, body: ast.Formula) -> list[GuardTarget]:
    """Collect guard targets in preorder, first occurrence first, one target
    per distinct (term, expected type) pair.

    Occurrences mentioning a variable bound inside the body are skipped: a
    guard emitted outside the wrapper could not reference them. Argument
    types unrelated to the expected type are an error here, where the
    diagnostic can still point at the wrapper."""
    targets: list[GuardTarget] = []
    _scan(ctx, frozenset(), body, targets, set())
    return targets


def _scan(
    scope: TypingContext,
    bound: frozenset[str],
    node,
    targets: list[GuardTarget],
    seen: set[tuple[ast.Term, str]],
) -> None:
    kids = ast.children(node)
    # equality checks both sides at a common supertype, which always
    # exists, so it has nothing to guard; other applications consider
    # each argument their signature types, then scan it (an unknown
    # symbol's arguments are not scanned at all)
    symbol = None
    if isinstance(node, ast.Apply):
        symbol = node.symbol
    elif isinstance(node, ast.Atom) and node.predicate != ast.EQUALITY_ATOM:
        symbol = node.predicate
    if symbol is not None:
        sig = scope.lookup_symbol(symbol)
        for arg, expected in zip(kids, sig.argument_types if sig else ()):
            _consider(scope, bound, arg, expected, targets, seen)
            _scan(scope, bound, arg, targets, seen)
        return
    if isinstance(node, _QUANTIFIERS):
        scope, bound = scope.push(VarEntry(node.var, node.type_name)), bound | {node.var}
    for kid in kids:
        _scan(scope, bound, kid, targets, seen)


def _consider(
    scope: TypingContext,
    bound: frozenset[str],
    term: ast.Term,
    expected: str,
    targets: list[GuardTarget],
    seen: set[tuple[ast.Term, str]],
) -> None:
    if not ast.free_variables(term).isdisjoint(bound):
        return
    principal = derive_term(scope, term).type_name
    if principal == expected or is_subtype(scope.vocab, principal, expected):
        return
    if not is_subtype(scope.vocab, expected, principal):
        raise IncomparableTypes(
            f"argument {ast.format_term(term)} has type {principal}, "
            f"unrelated to expected {expected}"
        )
    if (term, expected) in seen:
        return
    seen.add((term, expected))
    targets.append(GuardTarget(term, expected, principal))


def elaborate(ctx: TypingContext, formula: ast.Formula) -> ast.Formula:
    """Rewrite away every guard wrapper, innermost first. The output is
    wrapper-free; wrapper-free input comes back unchanged."""
    if isinstance(formula, (ast.Truth, ast.Atom, ast.DerefAtom)):
        return formula
    if isinstance(formula, (ast.GuardC, ast.GuardI)):
        inner = elaborate(ctx, formula.body)
        targets = guard_targets(ctx, inner)
        if not targets:
            return inner
        guards = [ast.Atom(t.expected_type, (t.term,)) for t in targets]
        if isinstance(formula, ast.GuardC):
            return refold_and(guards + [inner])
        return ast.Implies(refold_and(guards), inner)
    if isinstance(formula, (ast.Exists, ast.Forall)):
        ctx = ctx.push(VarEntry(formula.var, formula.type_name))
    return ast.rebuild(formula, [elaborate(ctx, c) for c in ast.children(formula)])


elaboration = SimpleNamespace(elaborate=elaborate)
