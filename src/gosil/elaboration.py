"""Expansion of implicit guard wrappers into explicit guard prefixes.

<<c: body>> becomes S1(t1) & ... & Sn(tn) & body and <<i: body>> becomes
S1(t1) & ... & Sn(tn) => body, where the (t_i, S_i) are the argument
occurrences inside the body whose expected type S_i lies strictly below the
term's principal type. Wrappers elaborate innermost-first; with no targets a
wrapper simply disappears.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .errors import IncomparableTypes
from .typecheck import TypingContext, VarEntry, derive_term, refold
from .vocabulary import is_subtype

_QUANTIFIERS = (ast.Exists, ast.Forall)


@dataclass(frozen=True)
class GuardTarget:
    """One guard to emit: `term` occurs where `expected_type` is required
    but only has the strictly larger `principal_type`."""

    term: ast.Term
    expected_type: str
    principal_type: str


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
    scopes = [ctx]  # the context of the node being folded, innermost last

    def enter(node):
        if isinstance(node, (ast.Truth, ast.Atom, ast.DerefAtom)):
            return node
        if isinstance(node, _QUANTIFIERS):
            scopes.append(scopes[-1].push(VarEntry(node.var, node.type_name)))
        return None

    def combine(node, kids):
        if isinstance(node, _QUANTIFIERS):
            scopes.pop()
        if not isinstance(node, (ast.GuardC, ast.GuardI)):
            return ast.rebuild(node, kids)
        inner = kids[0]
        targets = guard_targets(scopes[-1], inner)
        if not targets:
            return inner
        guards = [ast.Atom(t.expected_type, (t.term,)) for t in targets]
        if isinstance(node, ast.GuardC):
            return refold(guards + [inner])
        return ast.Implies(refold(guards), inner)

    return ast.fold(formula, combine, enter)
