"""Abstract syntax for terms, formulas, and theories, plus the canonical
printer.

Terms and formulas are immutable dataclasses compared structurally; source
locations ride along without affecting equality, so parse(print(e)) == e
holds node for node. The printer emits the one canonical spelling of every
tree: minimal parentheses at the formula level (with & | => right-associative
and <=> left-associative) and fully parenthesized arithmetic at the term
level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Location
from .vocabulary import ConceptObject, Vocabulary


class Term:
    def __str__(self) -> str:
        return format_term(self)


class Formula:
    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Variable(Term):
    name: str
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Apply(Term):
    symbol: str
    args: tuple[Term, ...] = ()
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class NatLiteral(Term):
    value: int
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ConceptRef(Term):
    """`name: the concept of a declared symbol or type, resolved at parse
    time to the object it denotes."""

    concept: ConceptObject
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Deref(Term):
    """$(head)(args): apply the symbol whose concept the head denotes."""

    head: Term
    args: tuple[Term, ...] = ()
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Truth(Formula):
    value: bool
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Atom(Formula):
    predicate: str
    args: tuple[Term, ...] = ()
    loc: Location | None = field(default=None, compare=False)


EQUALITY_ATOM = "="


@dataclass(frozen=True)
class DerefAtom(Formula):
    head: Term
    args: tuple[Term, ...] = ()
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Not(Formula):
    body: Formula
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    type_name: str
    body: Formula
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    type_name: str
    body: Formula
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GuardC(Formula):
    """<<c: body>>: implicit conjunction guard."""

    body: Formula
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GuardI(Formula):
    """<<i: body>>: implicit implication guard."""

    body: Formula
    loc: Location | None = field(default=None, compare=False)


# -- theories -------------------------------------------------------------------


@dataclass(frozen=True)
class Axiom:
    label: str
    formula: Formula
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ConceptFact:
    """A ground equation f(~a1, ..., ~an) = ~v fixing one value of a
    concept-valued function."""

    function: str
    args: tuple[ConceptObject, ...]
    value: ConceptObject
    loc: Location | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Theory:
    vocabulary: Vocabulary
    axioms: tuple[Axiom, ...] = ()
    concept_facts: tuple[ConceptFact, ...] = ()


# -- structural helpers -----------------------------------------------------------
#
# children(node) lists a node's immediate subexpressions in source order:
# the arguments of an application, the head then the arguments of a
# dereference, the operands of a connective, the body of a quantifier or
# wrapper. rebuild(node, kids) is its inverse: the node of the same class
# and the same non-child fields (symbol, variable, type name) over `kids`.
# Leaves (Variable, NatLiteral, ConceptRef, Truth) have no children and come
# back as the very same object, location included; every node rebuild makes
# has loc=None, even when `kids` are the old children. A walker that must
# keep a node's location returns the node itself instead of rebuilding it.
# Both raise TypeError on anything that is not a term or formula node.

_LEAVES = (Variable, NatLiteral, ConceptRef, Truth)
_APPLIED = (Apply, Atom)  # symbol or predicate over args
_DEREFS = (Deref, DerefAtom)
_UNARY = (Not, GuardC, GuardI)
_BINARY = (And, Or, Implies, Iff)
_QUANTIFIERS = (Exists, Forall)


def children(node: Term | Formula) -> tuple[Term | Formula, ...]:
    if isinstance(node, _LEAVES):
        return ()
    if isinstance(node, _APPLIED):
        return node.args
    if isinstance(node, _DEREFS):
        return (node.head,) + node.args
    if isinstance(node, _BINARY):
        return (node.left, node.right)
    if isinstance(node, _UNARY + _QUANTIFIERS):
        return (node.body,)
    raise TypeError(f"not a term or formula: {node!r}")


def rebuild(node: Term | Formula, kids) -> Term | Formula:
    if isinstance(node, _LEAVES):
        return node
    kids = tuple(kids)
    if isinstance(node, Apply):
        return Apply(node.symbol, kids)
    if isinstance(node, Atom):
        return Atom(node.predicate, kids)
    if isinstance(node, _DEREFS):
        return type(node)(kids[0], kids[1:])
    if isinstance(node, _BINARY):
        return type(node)(*kids)
    if isinstance(node, _UNARY):
        return type(node)(kids[0])
    if isinstance(node, _QUANTIFIERS):
        return type(node)(node.var, node.type_name, kids[0])
    raise TypeError(f"not a term or formula: {node!r}")


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


# -- canonical printing ------------------------------------------------------------

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


def _type_line(vocab: Vocabulary, name: str) -> str:
    supers = vocab.direct_supertypes(name)
    line = f"type {name}"
    if supers != ("Universe",):
        line += f" <: {', '.join(supers)}"
    ext = vocab.extension_of(name)
    if ext is not None:
        line += f" := {{ {', '.join(ext.members)} }}"
    return line


def _symbol_line(sig) -> str:
    if sig.is_predicate:
        if sig.argument_types:
            return f"pred {sig.name} : {' * '.join(sig.argument_types)}"
        return f"pred {sig.name}"
    if not sig.argument_types:
        return f"const {sig.name} : {sig.result_type}"
    return f"func {sig.name} : {' * '.join(sig.argument_types)} -> {sig.result_type}"


def format_theory(theory: Theory) -> str:
    """Canonical theory text: declarations in a stable dependency order
    (extension types after their members), then the concept facts, then the
    axioms."""
    vocab = theory.vocabulary
    units: list[tuple[str, str, frozenset[str]]] = []
    for t in vocab.types:
        if t.builtin:
            continue
        deps = set(vocab.direct_supertypes(t.name))
        ext = vocab.extension_of(t.name)
        if ext is not None:
            deps |= set(ext.members)
        units.append((t.name, _type_line(vocab, t.name), frozenset(deps)))
    for sig in vocab.signatures:
        if sig.builtin:
            continue
        deps = frozenset(sig.argument_types) | {sig.result_type}
        units.append((sig.name, _symbol_line(sig), deps))

    builtin = {t.name for t in vocab.types if t.builtin}
    emitted: set[str] = set(builtin)
    lines: list[str] = []
    pending = list(units)
    while pending:
        progressed = False
        for unit in list(pending):
            name, line, deps = unit
            if deps <= emitted:
                lines.append(line)
                emitted.add(name)
                pending.remove(unit)
                progressed = True
        if not progressed:  # cyclic or dangling: emit as-is rather than loop
            for name, line, _ in pending:
                lines.append(line)
                emitted.add(name)
            break

    for fact in theory.concept_facts:
        args = ", ".join(f"`{o.name}" for o in fact.args)
        lines.append(f"define {fact.function}({args}) = `{fact.value.name}")
    for axiom in theory.axioms:
        lines.append(f"axiom {axiom.label}: {format_formula(axiom.formula)}")
    return "\n".join(lines) + "\n"
