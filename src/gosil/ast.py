"""Abstract syntax for terms, formulas, and theories, plus the canonical
printer.

Terms and formulas are immutable, slotted dataclasses (`errors.record`)
compared structurally; source locations ride along without affecting
equality, so parse(print(e)) == e holds node for node. The printer emits the one canonical spelling of every
tree: minimal parentheses at the formula level and fully parenthesized
arithmetic at the term level. The binding level and associativity of every
binary connective and arithmetic operator are defined once, in
`CONNECTIVES` and `ARITHMETIC_OPERATORS`, which the parser reads too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from .errors import Location, record
from .vocabulary import ConceptObject, Vocabulary


class Term:
    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@record
class Variable(Term):
    name: str
    loc: Location | None = field(default=None, compare=False)


@record
class Apply(Term):
    symbol: str
    args: tuple[Term, ...] = ()
    loc: Location | None = field(default=None, compare=False)


@record
class NatLiteral(Term):
    value: int
    loc: Location | None = field(default=None, compare=False)


@record
class ConceptRef(Term):
    """`name: the concept of a declared symbol or type, resolved at parse
    time to the object it denotes."""

    concept: ConceptObject
    loc: Location | None = field(default=None, compare=False)


@record
class Deref(Term):
    """$(head)(args): apply the symbol whose concept the head denotes."""

    head: Term
    args: tuple[Term, ...] = ()
    loc: Location | None = field(default=None, compare=False)


@record
class Truth(Formula):
    value: bool
    loc: Location | None = field(default=None, compare=False)


@record
class Atom(Formula):
    predicate: str
    args: tuple[Term, ...] = ()
    loc: Location | None = field(default=None, compare=False)


EQUALITY_ATOM = "="


@record
class DerefAtom(Formula):
    head: Term
    args: tuple[Term, ...] = ()
    loc: Location | None = field(default=None, compare=False)


@record
class Not(Formula):
    body: Formula
    loc: Location | None = field(default=None, compare=False)


@record
class And(Formula):
    left: Formula
    right: Formula
    loc: Location | None = field(default=None, compare=False)


@record
class Or(Formula):
    left: Formula
    right: Formula
    loc: Location | None = field(default=None, compare=False)


@record
class Implies(Formula):
    left: Formula
    right: Formula
    loc: Location | None = field(default=None, compare=False)


@record
class Iff(Formula):
    left: Formula
    right: Formula
    loc: Location | None = field(default=None, compare=False)


@record
class Exists(Formula):
    var: str
    type_name: str
    body: Formula
    loc: Location | None = field(default=None, compare=False)


@record
class Forall(Formula):
    var: str
    type_name: str
    body: Formula
    loc: Location | None = field(default=None, compare=False)


@record
class GuardC(Formula):
    """<<c: body>>: implicit conjunction guard."""

    body: Formula
    loc: Location | None = field(default=None, compare=False)


@record
class GuardI(Formula):
    """<<i: body>>: implicit implication guard."""

    body: Formula
    loc: Location | None = field(default=None, compare=False)


# -- theories -------------------------------------------------------------------


@record
class Axiom:
    label: str
    formula: Formula
    loc: Location | None = field(default=None, compare=False)


@record
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
    # the theory's GroundInterpretation, built by `grounding.interpretation`
    # on first use
    _interp: object = field(default=None, init=False, compare=False, repr=False)


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
# Both dispatch on the exact class of a node and raise TypeError on anything
# else.
#
# walk and fold are the one traversal of every structural walker. Both keep
# their own stack, so no tree is too deep for them, and call children once
# per node, which they take as an argument, so that they walk other trees
# too: a derivation over its premises. walk(expr) yields the nodes in
# preorder. fold(expr, combine, enter, inherited) is post-order:
# combine(node, values) gets the values of the node's children in source
# order. enter(node, inherited), if given, runs on each node in preorder,
# before anything below it, with what the node inherits: `inherited` at the
# root, and what its parent handed down below it. It returns None to visit
# the node's children, each inheriting what the node did; or a Below(key,
# pairs), to fold the (subexpression, inherited) pairs in their place and
# combine their values as combine(key, values); or else the node's value,
# which skips everything below it. So what flows down is inherited and what
# flows up is combined, the inherited and synthesized attributes of an
# attribute grammar (Knuth, "Semantics of Context-Free Languages", 1968).
# With combine=rebuild, leaves come back as themselves and every other node
# visited is new, with loc=None; a node that enter gives as its own value
# keeps its location.

_LEAVES = (Variable, NatLiteral, ConceptRef, Truth)
_APPLIED = (Apply, Atom)  # symbol or predicate over args
_DEREFS = (Deref, DerefAtom)
_UNARY = (Not, GuardC, GuardI)
_BINARY = (And, Or, Implies, Iff)
_QUANTIFIERS = (Exists, Forall)
_CHILDREN = {  # keyed by exact class: one lookup instead of a chain of isinstance tests
    **dict.fromkeys(_LEAVES, lambda node: ()),
    **dict.fromkeys(_APPLIED, attrgetter("args")),
    **dict.fromkeys(_DEREFS, lambda node: (node.head,) + node.args),
    **dict.fromkeys(_BINARY, attrgetter("left", "right")),
    **dict.fromkeys(_UNARY + _QUANTIFIERS, lambda node: (node.body,)),
}


def children(node: Term | Formula) -> tuple[Term | Formula, ...]:
    try:
        return _CHILDREN[type(node)](node)
    except KeyError:
        raise TypeError(f"not a term or formula: {node!r}") from None


_REBUILT = {  # a node of the class of `node` over `kids`, other fields kept
    **dict.fromkeys(_LEAVES, lambda node, kids: node),
    Apply: lambda node, kids: Apply(node.symbol, kids),
    Atom: lambda node, kids: Atom(node.predicate, kids),
    **dict.fromkeys(_DEREFS, lambda node, kids: type(node)(kids[0], kids[1:])),
    **dict.fromkeys(_BINARY, lambda node, kids: type(node)(*kids)),
    **dict.fromkeys(_UNARY, lambda node, kids: type(node)(kids[0])),
    **dict.fromkeys(_QUANTIFIERS, lambda node, kids: type(node)(node.var, node.type_name, kids[0])),
}


def rebuild(node: Term | Formula, kids) -> Term | Formula:
    try:
        build = _REBUILT[type(node)]
    except KeyError:
        raise TypeError(f"not a term or formula: {node!r}") from None
    return build(node, tuple(kids))


def walk(expr, children=children):
    """Every node of `expr` in preorder."""
    todo = [expr]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(reversed(children(node)))


_EXIT = object()  # pushed below the subexpressions of a node: combine their values when popped


class Below(NamedTuple):
    """What `enter` returns to fold `pairs`, each a subexpression and what
    it inherits, in place of a node's children, and to combine their values
    as combine(key, values): `key` is often the node, but need not be."""

    key: object
    pairs: list


def fold(expr, combine, enter=None, inherited=None, children=children):
    """Post-order fold of `expr`; see the comment above `children`."""
    values: list = []
    # (node, number of values, what its children inherit) of the nodes being
    # combined, below one frame for `expr`; a node popped from `todo` is a
    # child of the innermost, unless it comes paired with what it inherits
    exits: list = [(None, 0, inherited)]
    todo: list = [expr]
    pop, push = todo.pop, todo.append
    inh = None
    while todo:
        node = pop()
        if node is _EXIT:  # the values below the innermost node are on top
            node, n, _ = exits.pop()
            values[-n:] = (combine(node, values[-n:]),)
            continue
        if enter is not None:
            if type(node) is tuple:
                node, inh = node
            else:
                inh = exits[-1][2]
            entered = enter(node, inh)
            if type(entered) is Below:
                node, pairs = entered
                if pairs:
                    exits.append((node, len(pairs), None))
                    push(_EXIT)
                    todo += reversed(pairs)
                else:
                    values.append(combine(node, ()))
                continue
            if entered is not None:
                values.append(entered)
                continue
        if kids := children(node):
            exits.append((node, len(kids), inh))
            push(_EXIT)
            todo += kids[::-1]
        else:
            values.append(combine(node, ()))
    return values[0]


def free_variables(expr: Term | Formula) -> frozenset[str]:
    """Free variables of an expression; quantifiers bind. A variable or a
    childless node, the commonest arguments, is answered without a fold."""
    if isinstance(expr, Variable):
        return frozenset((expr.name,))
    if not children(expr):
        return frozenset()

    def combine(node, kids) -> frozenset[str]:
        if isinstance(node, Variable):
            return frozenset((node.name,))
        out = frozenset().union(*kids)
        return out - {node.var} if isinstance(node, _QUANTIFIERS) else out

    return fold(expr, combine)


def substitute(expr, var: str, replacement: Term):
    """Replace free occurrences of `var` by a closed term."""

    def enter(node, _):
        if isinstance(node, Variable) and node.name == var:
            return replacement
        if isinstance(node, _QUANTIFIERS) and node.var == var:
            return node
        return None

    return fold(expr, rebuild, enter)


def atom_count(f: Formula) -> int:
    """Number of atomic formulas (Atom and DerefAtom nodes)."""
    return sum(isinstance(node, (Atom, DerefAtom)) for node in walk(f))


# The core form of each shortcut node, over its desugared children.
_DESUGARED = {
    Not: lambda node, kids: Not(kids[0]),
    Or: lambda node, kids: Or(*kids),
    And: lambda node, kids: Not(Or(Not(kids[0]), Not(kids[1]))),
    Implies: lambda node, kids: Or(Not(kids[0]), kids[1]),
    Iff: lambda node, kids: Not(Or(Not(Or(Not(kids[0]), kids[1])), Not(Or(Not(kids[1]), kids[0])))),
    Exists: lambda node, kids: Exists(node.var, node.type_name, kids[0]),
    Forall: lambda node, kids: Not(Exists(node.var, node.type_name, Not(kids[0]))),
}


def desugar(f: Formula) -> Formula:
    """Rewrite to the core connectives (true/false, atoms, ~, |, ?) using the
    standard shortcut definitions. Used to cross-check the native evaluation
    of &, =>, <=>, and ! against the core."""

    def enter(node, _):
        if isinstance(node, (Truth, Atom, DerefAtom)):
            return node
        if type(node) not in _DESUGARED:
            raise TypeError(f"cannot desugar {node!r}")
        return None

    return fold(f, lambda node, kids: _DESUGARED[type(node)](node, kids), enter)


# -- operators ----------------------------------------------------------------------

# The binary operators, read by the parser and the printer alike: spelling ->
# (node class, binding level, right-associative); a higher level binds tighter.
# An arithmetic operator builds Apply(spelling, (left, right)).
CONNECTIVES = {"<=>": (Iff, 1, False), "=>": (Implies, 2, True),
               "|": (Or, 3, True), "&": (And, 4, True)}
ARITHMETIC_OPERATORS = {"+": (Apply, 1, False), "-": (Apply, 1, False), "*": (Apply, 2, False)}


# -- canonical printing ------------------------------------------------------------

# A quantifier binds looser than every connective, ~ tighter, atoms tightest.
_LEVEL_QUANT, _LEVEL_NOT = 0, 1 + max(level for _, level, _ in CONNECTIVES.values())
_LEVEL_ATOM = _LEVEL_NOT + 1
_LEVELS = {Exists: _LEVEL_QUANT, Forall: _LEVEL_QUANT, Not: _LEVEL_NOT,
           **{node: level for node, level, _ in CONNECTIVES.values()}}  # others: _LEVEL_ATOM


def format_term(t: Term) -> str:
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    return _spell(t)


def format_formula(f: Formula, min_level: int = 0) -> str:
    return _operand(f, _spell(f), min_level)


def _operand(f: Formula, body: str, min_level: int) -> str:
    """Formula `f`, spelled `body`, where its position binds at `min_level`."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return f"({body})" if _LEVELS.get(type(f), _LEVEL_ATOM) < min_level else body


def _applied(name: str, kids: list[str]) -> str:
    return f"{name}({', '.join(kids)})" if kids else name


def _infix(op: str, level: int, right_associative: bool):
    """A connective: the operand on its associative side may be a chain of it."""
    left_level, right_level = level + right_associative, level + (not right_associative)

    def spell(node, kids) -> str:
        left = _operand(node.left, kids[0], left_level)
        return f"{left} {op} {_operand(node.right, kids[1], right_level)}"

    return spell


# The spelling of each class of node from the spellings of its children.
_SPELLING = {
    Variable: lambda node, kids: node.name,
    NatLiteral: lambda node, kids: str(node.value),
    ConceptRef: lambda node, kids: f"`{node.concept.name}",
    Truth: lambda node, kids: "true" if node.value else "false",
    Apply: lambda node, kids: (
        f"({kids[0]} {node.symbol} {kids[1]})"
        if node.symbol in ARITHMETIC_OPERATORS and len(kids) == 2
        else _applied(node.symbol, kids)
    ),
    Atom: lambda node, kids: (
        f"{kids[0]} = {kids[1]}"
        if node.predicate == EQUALITY_ATOM and len(kids) == 2
        else _applied(node.predicate, kids)
    ),
    **dict.fromkeys(_DEREFS, lambda node, kids: f"$({kids[0]})({', '.join(kids[1:])})"),
    Not: lambda node, kids: f"~{_operand(node.body, kids[0], _LEVEL_NOT)}",
    **{node: _infix(op, level, right) for op, (node, level, right) in CONNECTIVES.items()},
    Exists: lambda node, kids: f"?{node.var}[{node.type_name}]: {_operand(node.body, kids[0], 0)}",
    Forall: lambda node, kids: f"!{node.var}[{node.type_name}]: {_operand(node.body, kids[0], 0)}",
    GuardC: lambda node, kids: f"<<c: {_operand(node.body, kids[0], 0)}>>",
    GuardI: lambda node, kids: f"<<i: {_operand(node.body, kids[0], 0)}>>",
}


def _spell(expr: Term | Formula) -> str:
    """The canonical spelling of a term or formula, built bottom-up."""
    return fold(expr, lambda node, kids: _SPELLING[type(node)](node, kids))


def format_each(exprs) -> list[str]:
    """The canonical spelling of each of `exprs`, as `str` gives it. A node
    that several of them share, as the expressions of a derivation share
    their subtrees, is spelled once."""
    spelled: dict[int, str] = {}  # by node id; every node is held by `exprs`

    def enter(node, _):
        return spelled.get(id(node))

    def combine(node, kids) -> str:
        text = spelled[id(node)] = _SPELLING[type(node)](node, kids)
        return text

    return [fold(expr, combine, enter) for expr in exprs]


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
