"""Expansion of implicit guard wrappers into explicit guard prefixes.

<<c: body>> becomes S1(t1) & ... & Sn(tn) & body and <<i: body>> becomes
S1(t1) & ... & Sn(tn) => body, where the (t_i, S_i) are the argument
occurrences inside the body whose expected type S_i lies strictly below the
term's principal type. Wrappers elaborate innermost-first; with no targets a
wrapper simply disappears.

This module finds the targets and rewrites one wrapper. The fold over a
formula that rewrites each wrapper once its body is done is the grounding
walker's: `grounding.elaborate` is that fold with elimination off and
nothing to expand, and grounding elaborates each grounded instance. The
scan walks a body; an atom over simple terms, which is no more than its
argument positions, is read without a walk.
"""

from __future__ import annotations

from . import ast
from .errors import IncomparableTypes, record
from .typecheck import TypingContext, VarEntry, principal_type, refold
from .vocabulary import is_subtype

_QUANTIFIERS = (ast.Exists, ast.Forall)
_NOTHING_BOUND: frozenset[str] = frozenset()


@record
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
    seen: set[tuple[ast.Term, str]] = set()
    item = ctx, _NOTHING_BOUND, body, None
    simple = type(body) is ast.Atom and not any(map(ast.children, body.args))
    for scope, bound, node, expected in _scanned(item) if simple else ast.walk(item, _scanned):
        if expected is not None:
            _consider(scope, bound, node, expected, targets, seen)
    return targets


def _scanned(item) -> list:
    """The items the scan visits below `item`, each, like `item`, a (scope,
    variables bound inside the body, node, the type its position expects or
    None) quadruple.

    Equality checks both sides at a common supertype, which always exists,
    so it has nothing to guard; other applications consider each argument
    at its signature type, then scan it (an unknown symbol's arguments are
    not scanned at all)."""
    scope, bound, node, _ = item
    symbol = None
    if type(node) is ast.Apply:
        symbol = node.symbol
    elif type(node) is ast.Atom and node.predicate != ast.EQUALITY_ATOM:
        symbol = node.predicate
    if symbol is not None:
        sig = scope.lookup_symbol(symbol)
        types = sig.argument_types if sig is not None else ()
        return [(scope, bound, a, t) for a, t in zip(node.args, types)]
    if isinstance(node, _QUANTIFIERS):
        scope, bound = scope.push(VarEntry(node.var, node.type_name)), bound | {node.var}
    return [(scope, bound, kid, None) for kid in ast.children(node)]


def _consider(
    scope: TypingContext,
    bound: frozenset[str],
    term: ast.Term,
    expected: str,
    targets: list[GuardTarget],
    seen: set[tuple[ast.Term, str]],
) -> None:
    if bound and not ast.free_variables(term).isdisjoint(bound):
        return
    principal = principal_type(scope, term)
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


def expand_wrapper(wrapper: type, ctx: TypingContext, body: ast.Formula) -> ast.Formula:
    """The expansion of a wrapper of class `wrapper` (GuardC or GuardI)
    around `body`, itself wrapper-free, in context `ctx`."""
    targets = guard_targets(ctx, body)
    if not targets:
        return body
    guards = [ast.Atom(t.expected_type, (t.term,)) for t in targets]
    if wrapper is ast.GuardC:
        return refold(guards + [body])
    return ast.Implies(refold(guards), body)
