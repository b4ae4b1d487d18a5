"""The tree-walking evaluator that gosil.semantics replaced, kept as a
test-only oracle: the slow reference path the compiled evaluator is checked
against. It re-resolves every symbol at every node, rebuilds each graph's
mapping on every application and re-expands a guard wrapper for every
binding. It differs from the original only in its imports and in grounding
each wrapper instance with `grounding.ground`, as the library does;
`interpretation_of` is the library's.
"""

from __future__ import annotations

from gosil import ast, grounding
from gosil.errors import (
    EvaluationError,
    RuntimeDerefMismatch,
    UnassignedVariable,
)
from gosil.semantics import (
    FALSE,
    TRUE,
    Assignment,
    ConceptElement,
    DomainElement,
    NaturalElement,
    Row,
    Structure,
    TruthElement,
    interpretation_of,
)
from gosil.vocabulary import Signature, Vocabulary, deref_signature, equality_signature


def _apply(
    structure: Structure,
    sig: Signature,
    elements: Row,
    via_deref: bool,
) -> DomainElement:
    """Apply a symbol's graph to evaluated arguments. Elements outside the
    declared argument types have no defined value."""
    if len(elements) != sig.arity:
        raise RuntimeDerefMismatch(
            f"{sig.name!r} expects {sig.arity} argument(s), got {len(elements)}"
        )
    for e, arg_type in zip(elements, sig.argument_types):
        if not structure.member(e, arg_type):
            message = f"{sig.name!r} is undefined at {e} (not in {arg_type!r})"
            if via_deref:
                raise RuntimeDerefMismatch(message)
            raise EvaluationError(message)
    if sig.builtin:
        return _apply_builtin(structure, sig, elements)
    graph = structure.graph(sig.name)
    if graph is None:
        raise EvaluationError(f"no interpretation for symbol {sig.name!r}")
    mapping = graph.mapping()
    if graph.is_predicate:
        return TRUE if elements in mapping else FALSE
    if elements not in mapping:
        shown = ", ".join(str(e) for e in elements)
        raise EvaluationError(f"{sig.name!r} has no value at ({shown})")
    return mapping[elements]


def _apply_builtin(structure: Structure, sig: Signature, elements: Row) -> DomainElement:
    if sig.name in ("+", "-", "*"):
        a, b = elements
        assert isinstance(a, NaturalElement) and isinstance(b, NaturalElement)
        if sig.name == "+":
            return NaturalElement(a.value + b.value)
        if sig.name == "*":
            return NaturalElement(a.value * b.value)
        return NaturalElement(max(0, a.value - b.value))  # truncated at zero
    if sig.name.startswith("=_"):
        return TRUE if elements[0] == elements[1] else FALSE
    if structure.vocab.has_type(sig.name):  # type predicate
        return TRUE if structure.member(elements[0], sig.name) else FALSE
    raise EvaluationError(f"unknown built-in {sig.name!r}")


def _resolve_symbol(vocab: Vocabulary, name: str) -> Signature | None:
    sig = vocab.signature(name)
    if sig is not None:
        return sig
    if name.startswith("=_") and vocab.has_type(name[2:]):
        return equality_signature(name[2:])
    return None


def evaluate(
    structure: Structure,
    expr: ast.Term | ast.Formula,
    assignment: Assignment | None = None,
    var_types: dict[str, str] | None = None,
):
    """The value of an expression: a DomainElement for terms, a bool for
    formulas. `var_types` gives the declared types of the free variables,
    needed when implicit guard wrappers must be expanded on the fly."""
    asg = dict(assignment or {})
    types = dict(var_types or {})
    if isinstance(expr, ast.Term):
        return _eval_term(structure, expr, asg)
    return _eval_formula(structure, expr, asg, types)


def _eval_term(structure: Structure, term: ast.Term, asg: Assignment) -> DomainElement:
    match term:
        case ast.Variable(name):
            if name not in asg:
                raise UnassignedVariable(f"variable {name!r} has no assigned value")
            return asg[name]
        case ast.NatLiteral(value):
            return NaturalElement(value)
        case ast.ConceptRef(concept):
            return ConceptElement(concept)
        case ast.Apply(symbol, args):
            sig = _resolve_symbol(structure.vocab, symbol)
            if sig is None:
                raise EvaluationError(f"unknown symbol {symbol!r}")
            elements = tuple(_eval_term(structure, a, asg) for a in args)
            return _apply(structure, sig, elements, via_deref=False)
        case ast.Deref(head, args):
            return _eval_deref(structure, head, args, asg)
    raise TypeError(f"not a term: {term!r}")


def _eval_deref(
    structure: Structure, head: ast.Term, args: tuple[ast.Term, ...], asg: Assignment
) -> DomainElement:
    head_value = _eval_term(structure, head, asg)
    if not isinstance(head_value, ConceptElement):
        raise RuntimeDerefMismatch(
            f"dereference head evaluated to {head_value}, not a concept"
        )
    sig = deref_signature(structure.vocab, head_value.concept)
    if sig is None:
        raise RuntimeDerefMismatch(f"concept {head_value.concept} names nothing applicable")
    elements = tuple(_eval_term(structure, a, asg) for a in args)
    return _apply(structure, sig, elements, via_deref=True)


def _as_truth(value: DomainElement, what: str) -> bool:
    if not isinstance(value, TruthElement):
        raise EvaluationError(f"{what} evaluated to {value}, not a truth value")
    return value.value


def _eval_formula(
    structure: Structure, f: ast.Formula, asg: Assignment, types: dict[str, str]
) -> bool:
    match f:
        case ast.Truth(value):
            return value
        case ast.Atom(ast.EQUALITY_ATOM, (l, r)):
            return _eval_term(structure, l, asg) == _eval_term(structure, r, asg)
        case ast.Atom(predicate, args):
            sig = _resolve_symbol(structure.vocab, predicate)
            if sig is None:
                raise EvaluationError(f"unknown symbol {predicate!r}")
            elements = tuple(_eval_term(structure, a, asg) for a in args)
            return _as_truth(
                _apply(structure, sig, elements, via_deref=False), predicate
            )
        case ast.DerefAtom(head, args):
            return _as_truth(
                _eval_deref(structure, head, args, asg), "dereference"
            )
        case ast.Not(body):
            return not _eval_formula(structure, body, asg, types)
        case ast.And(l, r):
            return _eval_formula(structure, l, asg, types) and _eval_formula(
                structure, r, asg, types
            )
        case ast.Or(l, r):
            return _eval_formula(structure, l, asg, types) or _eval_formula(
                structure, r, asg, types
            )
        case ast.Implies(l, r):
            return (not _eval_formula(structure, l, asg, types)) or _eval_formula(
                structure, r, asg, types
            )
        case ast.Iff(l, r):
            return _eval_formula(structure, l, asg, types) == _eval_formula(
                structure, r, asg, types
            )
        case ast.Exists(var, type_name, body):
            for d in structure.elements(type_name):
                if _eval_formula(
                    structure, body, {**asg, var: d}, {**types, var: type_name}
                ):
                    return True
            return False
        case ast.Forall(var, type_name, body):
            for d in structure.elements(type_name):
                if not _eval_formula(
                    structure, body, {**asg, var: d}, {**types, var: type_name}
                ):
                    return False
            return True
        case ast.GuardC() | ast.GuardI():
            return _eval_guard(structure, f, asg, types)
    raise TypeError(f"not a formula: {f!r}")


def _eval_guard(
    structure: Structure, wrapper: ast.Formula, asg: Assignment, types: dict[str, str]
) -> bool:
    """Evaluate an implicit guard wrapper under the current bindings: fix the
    concept-valued variables, resolve the dereferences they unlock, expand
    the wrapper for that instance, and evaluate the result. The instance is
    grounded whole, so concept quantifiers in the body expand first."""
    body = wrapper.body
    remaining_types = dict(types)
    for var in sorted(ast.free_variables(body)):
        element = asg.get(var)
        if isinstance(element, ConceptElement):
            body = ast.substitute(body, var, ast.ConceptRef(element.concept))
            remaining_types.pop(var, None)
    interp = interpretation_of(structure)
    expanded = grounding.ground(type(wrapper)(body), interp, remaining_types)
    return _eval_formula(structure, expanded, asg, remaining_types)
