"""Finite structures and the value of expressions in them.

A structure interprets every vocabulary symbol: each type gets a set of
domain elements and each symbol a total, functional graph. The forced parts
are synthesized rather than stored: Bool is the two truth values, Concept is
the concept universe, concept types with declared extensions get exactly
those, type predicates test membership, equality is identity, and Nat
arithmetic is computed (subtraction truncates at zero). Nat itself is
conceptually infinite; quantifying over it (or Universe) requires the
structure's nat_bound, which materializes 0..nat_bound.

Value clauses follow the inductive definition: connectives short-circuit in
evaluation order, existential quantification scans the type's elements in
their canonical order, a reference evaluates to its concept object, and a
dereference applies the symbol the head's concept names, rejecting argument
elements outside that symbol's declared argument types. In the paper an
intensional sentence means what its grounding means, so a sentence holding
a concept quantifier, a dereference or an implicit guard wrapper is
evaluated as its grounded form, the sentence `check` types (see `evaluate`
for where the written form is evaluated instead).

Evaluation compiles an expression object once into nested closures, cached
on the vocabulary by (object id, variable types), from one fold on an
explicit stack: no expression is too deep to compile, and a chain of &, |,
=> or <=> runs as one loop and a run of ~ as its parity, however long. Each
application is bound to its signature when it is compiled: the membership
test of each argument position and the built-in or graph lookup giving its
value are chosen then, and an atom's code yields a bool without building a
truth element. The code of an intensional sentence reads the structure's
interpretation, interned by content so that structures agreeing on their
concept part share it, and runs the grounded form compiled once for that
interpretation; grounding is not repeated per structure. Errors still
surface only when the node raising them is evaluated, in the order the
definition gives them.

The written form binds a dereference's application once per head concept
it meets, and runs each guard wrapper instance as its grounding, by the
code that runs a sentence's: one memo per compiled node keys the grounded
code by the interpretation and, for a wrapper, by the (variable, concept)
bindings of the free variables whose type can hold a concept. A sentence
whose grounding raises stores its written code instead; a wrapper whose
grounding raises stores nothing and raises again on every evaluation.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Callable, Container, Iterable, Iterator
from dataclasses import dataclass, field

from . import ast, grounding
from .errors import (
    EvaluationError,
    GosilError,
    IllTypedSentence,
    ParseError,
    RuntimeDerefMismatch,
    StructureError,
    TypingError,
    UnassignedVariable,
    UnboundedNatQuantifier,
    ValidationReport,
)
from .parser import TokenStream, numeral, tokenize
from .typecheck import check_sentence
from .vocabulary import (
    BOOL,
    CONCEPT,
    EQUALITY,
    NAT,
    UNIVERSE,
    ConceptObject,
    Signature,
    Vocabulary,
    concept_universe,
    deref_signature,
    is_strict_subtype,
    is_subtype,
    resolve_concept,
)


# -- domain elements -------------------------------------------------------------


class DomainElement:
    __slots__ = ()

    def __str__(self) -> str:
        return self.identifier

    @property
    def identifier(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class PlainElement(DomainElement):
    token: str

    @property
    def identifier(self) -> str:
        return self.token


@dataclass(frozen=True, slots=True)
class NaturalElement(DomainElement):
    value: int

    @property
    def identifier(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class TruthElement(DomainElement):
    value: bool

    @property
    def identifier(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True, slots=True)
class ConceptElement(DomainElement):
    concept: ConceptObject

    @property
    def identifier(self) -> str:
        return f"`{self.concept.name}"


TRUE = TruthElement(True)
FALSE = TruthElement(False)

Row = tuple[DomainElement, ...]
Assignment = dict[str, DomainElement]

# the element class of each built-in type but Universe, which holds them all;
# a user type holds the elements of its set
_KINDS = {BOOL: TruthElement, NAT: NaturalElement, CONCEPT: ConceptElement}


@dataclass(frozen=True, slots=True)
class FunctionGraph:
    """The graph of one symbol. Function graphs map every argument tuple to
    its result; predicate graphs store the true rows, all other tuples being
    false by completion."""

    name: str
    is_predicate: bool
    rows: tuple[tuple[Row, DomainElement], ...]
    _rows_text: str | None = field(default=None, init=False, compare=False, repr=False)

    def mapping(self) -> dict[Row, DomainElement]:
        return dict(self.rows)

    @property
    def rows_text(self) -> str:
        """The rows as `format_structure` prints them, sorted by their
        text. Computed on first use and kept."""
        if self._rows_text is None:
            if self.is_predicate:
                rows = (f"({', '.join(e.identifier for e in args)})" for args, _ in self.rows)
            else:
                rows = (
                    f"({', '.join(e.identifier for e in args)}) -> {result.identifier}"
                    for args, result in self.rows
                )
            object.__setattr__(self, "_rows_text", ", ".join(sorted(rows)))
        return self._rows_text

    @staticmethod
    def for_function(name: str, mapping: dict[Row, DomainElement]) -> "FunctionGraph":
        return FunctionGraph(name, False, tuple(sorted(mapping.items(), key=_row_key)))

    @staticmethod
    def for_predicate(name: str, true_rows: set[Row]) -> "FunctionGraph":
        rows = tuple(sorted(((r, TRUE) for r in true_rows), key=_row_key))
        return FunctionGraph(name, True, rows)


def _row_key(item: tuple[Row, DomainElement]):
    args, result = item
    return tuple(e.identifier for e in args) + (result.identifier,)


@dataclass(frozen=True, slots=True)
class Structure:
    """A complete finite interpretation: user-suppliable type sets and
    symbol graphs, with everything forced derived on demand. Model search
    also evaluates sentences on partial ones, holding only the graphs a
    sentence reads; applying a symbol that has no graph raises."""

    vocab: Vocabulary
    type_sets: dict[str, tuple[DomainElement, ...]]
    graphs: dict[str, FunctionGraph]
    nat_bound: int | None = None
    _interp: grounding.GroundInterpretation | None = field(
        default=None, init=False, compare=False, repr=False
    )
    _theory: ast.Theory | None = field(default=None, init=False, compare=False, repr=False)

    def elements(self, type_name: str) -> tuple[DomainElement, ...]:
        """The enumerable elements of a type, in canonical order."""
        if type_name == BOOL:
            return (TRUE, FALSE)
        if type_name == CONCEPT:
            return tuple(ConceptElement(c) for c in concept_universe(self.vocab))
        if type_name == NAT:
            if self.nat_bound is None:
                raise UnboundedNatQuantifier(
                    "enumerating Nat requires a nat bound"
                )
            return tuple(NaturalElement(i) for i in range(self.nat_bound + 1))
        if type_name == UNIVERSE:
            out: list[DomainElement] = []
            seen: set[DomainElement] = set()
            for t in self.vocab.types:
                if t.builtin:
                    continue
                for e in self.type_sets.get(t.name, ()):
                    if e not in seen:
                        seen.add(e)
                        out.append(e)
            out.extend(self.elements(BOOL))
            out.extend(self.elements(NAT))
            out.extend(self.elements(CONCEPT))
            return tuple(out)
        return self.type_sets.get(type_name, ())

    def member(self, element: DomainElement, type_name: str) -> bool:
        """Membership test; unlike elements(), total even for Nat."""
        return _membership(type_name)(self, element)

    def graph(self, name: str) -> FunctionGraph | None:
        return self.graphs.get(name)

    def mentioned_naturals(self) -> tuple[int, ...]:
        values = {0}
        if self.nat_bound is not None:
            values.update(range(self.nat_bound + 1))
        for elems in self.type_sets.values():
            values.update(e.value for e in elems if isinstance(e, NaturalElement))
        for g in self.graphs.values():
            for args, result in g.rows:
                for e in args + (result,):
                    if isinstance(e, NaturalElement):
                        values.add(e.value)
        return tuple(sorted(values))


def _forced_type_sets(vocab: Vocabulary) -> dict[str, tuple[DomainElement, ...]]:
    """Concept subtypes with declared extensions are fixed by them."""
    forced: dict[str, tuple[DomainElement, ...]] = {}
    for ext in vocab.extensions:
        members = tuple(
            ConceptElement(resolve_concept(vocab, m)) for m in ext.members
        )
        forced[ext.type_name] = members
    return forced


def assemble_structure(
    vocab: Vocabulary,
    type_sets: dict[str, tuple[DomainElement, ...]],
    graphs: dict[str, FunctionGraph],
    nat_bound: int | None = None,
) -> tuple[Structure, ValidationReport]:
    """Fill in the forced interpretations and validate. User-supplied parts
    that conflict with forced ones are violations, as are missing or broken
    graphs."""
    report = ValidationReport()
    # user-supplied sets are canonicalized by identifier; forced concept
    # sets keep their declared extension order (grounding expands in it)
    merged = {
        name: tuple(sorted(elems, key=lambda e: e.identifier))
        for name, elems in type_sets.items()
    }
    for name, forced in _forced_type_sets(vocab).items():
        supplied = type_sets.get(name)
        if supplied is not None and tuple(supplied) != forced:
            report.add(
                "ForcedInterpretation",
                f"type {name!r} is fixed by its declared extension",
                name,
            )
        merged[name] = forced
    for name in list(merged):
        if name in (BOOL, NAT, CONCEPT, UNIVERSE):
            report.add("ForcedInterpretation", f"type {name!r} is built in", name)
            del merged[name]
        elif not vocab.has_type(name):
            report.add("UnknownType", f"structure interprets unknown type {name!r}", name)
            del merged[name]

    completed_graphs = dict(graphs)
    for sig in vocab.signatures:
        if sig.builtin:
            continue
        if sig.name not in completed_graphs:
            if sig.is_predicate:
                completed_graphs[sig.name] = FunctionGraph.for_predicate(sig.name, set())
            else:
                report.add(
                    "MissingInterpretation",
                    f"no interpretation for function {sig.name!r}",
                    sig.name,
                )
    for name in graphs:
        sig = vocab.signature(name)
        if sig is None or sig.builtin or vocab.has_type(name):
            report.add(
                "ForcedInterpretation",
                f"{name!r} is not a user symbol open to interpretation",
                name,
            )
            completed_graphs.pop(name, None)

    structure = Structure(vocab, merged, completed_graphs, nat_bound)
    _check_structure(structure, report)
    return structure, report


def validate_structure(vocab: Vocabulary, structure: Structure) -> ValidationReport:
    """Re-check all structure invariants for an assembled structure."""
    report = ValidationReport()
    _check_structure(structure, report)
    return report


def _check_structure(structure: Structure, report: ValidationReport) -> None:
    vocab = structure.vocab
    for t in vocab.types:
        if t.builtin:
            continue
        elems = structure.type_sets.get(t.name, ())
        if not elems:
            report.add("EmptyType", f"type {t.name!r} has no elements", t.name)
        if len(set(elems)) != len(elems):
            report.add("DuplicateElement", f"type {t.name!r} repeats an element", t.name)
        for sup in vocab.direct_supertypes(t.name):
            for e in elems:
                if not structure.member(e, sup):
                    report.add(
                        "SubtypeContainment",
                        f"element {e} of {t.name!r} is missing from supertype {sup!r}",
                        t.name,
                    )
    for name, graph in structure.graphs.items():
        sig = vocab.signature(name)
        if sig is None:
            report.add("UnknownSymbol", f"graph for undeclared symbol {name!r}", name)
            continue
        seen: dict[Row, DomainElement] = {}
        for args, result in graph.rows:
            if len(args) != sig.arity:
                report.add("ArityMismatch", f"row of {name!r} has wrong arity", name)
                continue
            for e, arg_type in zip(args, sig.argument_types):
                if not structure.member(e, arg_type):
                    report.add(
                        "RowTyping",
                        f"argument {e} of {name!r} is not in {arg_type!r}",
                        name,
                    )
            if not graph.is_predicate and not structure.member(result, sig.result_type):
                report.add(
                    "RowTyping",
                    f"result {result} of {name!r} is not in {sig.result_type!r}",
                    name,
                )
            if args in seen and seen[args] != result:
                report.add("Functionality", f"{name!r} maps a tuple to two results", name)
            seen[args] = result
        if not graph.is_predicate:
            for combo in _argument_tuples(structure, sig):
                if combo not in seen:
                    shown = ", ".join(str(e) for e in combo)
                    report.add(
                        "Totality", f"{name!r} has no value at ({shown})", name
                    )


def _argument_tuples(structure: Structure, sig: Signature):
    """The argument product a total function must cover; Nat positions use
    the materialized naturals (mentioned values plus 0..nat_bound)."""
    domains = []
    for arg_type in sig.argument_types:
        if arg_type == NAT:
            domains.append(tuple(NaturalElement(v) for v in structure.mentioned_naturals()))
        elif arg_type == UNIVERSE:
            domains.append(structure.elements(UNIVERSE) if structure.nat_bound is not None else ())
        else:
            domains.append(structure.elements(arg_type))
    return itertools.product(*domains)


# -- evaluation ------------------------------------------------------------------------

# code(structure, assignment): a compiled term or formula
Code = Callable[[Structure, Assignment], object]


def evaluate(
    structure: Structure,
    expr: ast.Term | ast.Formula,
    assignment: Assignment | None = None,
    var_types: dict[str, str] | None = None,
):
    """The value of an expression: a DomainElement for terms, a bool for
    formulas. `var_types` gives the declared types of the free variables,
    needed when implicit guard wrappers must be expanded on the fly.

    A sentence holding a concept quantifier, a dereference or a guard
    wrapper is evaluated as its grounded form, `grounding.ground` of it
    under the structure's interpretation, compiled once per interpretation.
    An application that grounding made of a dereference outside every
    wrapper raises what the dereference raised, RuntimeDerefMismatch. The
    written form is evaluated instead, each dereference bound and each
    wrapper instance grounded, by the code that grounds a sentence, as
    evaluation reaches it:
    - where grounding raises: on a dereference head that only the
      structure's graphs reduce (`favourite(c)` in
      `!c[Cat]: $(favourite(c))(c)`, with `func favourite : Cat -> Sound`),
      a dereference of the wrong arity, a wrapper whose elaboration fails,
      or a concept type with no extension. The written form raises only if
      evaluation reaches the node at fault, and may short-circuit past it;
    - for a sentence with a variable over Universe or over an undeclared
      type, which may hold a concept that grounding does not expand;
    - for a term, and for a formula with free variables."""
    if var_types:
        code = _compiled(structure.vocab, expr, dict(var_types))
    else:  # the commonest call, a sentence: one lookup once it is compiled
        entry = structure.vocab._eval_cache.get("code", {}).get((id(expr), ()))
        code = _compiled(structure.vocab, expr, {}) if entry is None else entry[1]
    return code(structure, dict(assignment) if assignment else {})


def _compiled(vocab: Vocabulary, expr: ast.Term | ast.Formula, types: dict[str, str]) -> Code:
    """The code of `expr` with free variables typed by `types`, compiled on
    first use and cached on the vocabulary by the object's id. Each entry
    keeps alive the expression it was compiled from, so that id cannot pass
    to another object, and a lookup never hashes the tree. An entry lives
    per expression object evaluated, for the vocabulary's lifetime: an
    equal copy of an expression is compiled again."""
    cache = vocab._eval_cache.setdefault("code", {})
    key = (id(expr), tuple(types.items()))
    entry = cache.get(key)
    if entry is None:
        if _grounds_first(vocab, expr):
            code = _grounded(vocab, expr, types, written=True)
        else:
            code = _compile(vocab, expr, types)
        entry = cache[key] = (expr, code)
    return entry[1]


_QUANTIFIERS = (ast.Exists, ast.Forall)
_INTENSIONAL = (ast.Deref, ast.DerefAtom, ast.GuardC, ast.GuardI)


def _grounds_first(vocab: Vocabulary, expr: ast.Term | ast.Formula) -> bool:
    """Whether `evaluate` runs the grounded form of `expr`: a sentence that
    holds a concept quantifier, a dereference or a guard wrapper, and no
    variable over Universe or an undeclared type. A bare reference needs no
    grounding."""
    found = False
    for node in ast.walk(expr):
        kind = type(node)
        if kind in _QUANTIFIERS and _may_hold_concept(vocab, node.type_name):
            if node.type_name == UNIVERSE or not vocab.has_type(node.type_name):
                return False
            found = True
        elif kind in _INTENSIONAL:
            found = True
    return found and isinstance(expr, ast.Formula) and not ast.free_variables(expr)


def _grounded(
    vocab: Vocabulary, formula: ast.Formula, types: dict[str, str], concept_vars=(), written=False
) -> Code:
    """The code of `formula` as its grounding: per structure interpretation
    and per concept bound to each of `concept_vars`, those concepts are
    substituted, `grounding.ground` grounds the result and its code is
    compiled once. With `written`, where grounding raises the written form
    is compiled and stored; otherwise the error is raised on every
    evaluation and nothing is stored. Interpretations are interned on the
    vocabulary, so an id stays valid as long as this memo."""
    memo: dict[tuple, Code] = {}

    def grounded(s, asg):
        bound = concept_vars and tuple(
            (v, e.concept) for v in concept_vars if isinstance(e := asg.get(v), ConceptElement)
        )
        interp = interpretation_of(s)
        key = (id(interp), bound)
        code = memo.get(key)
        if code is None:
            form, remaining, applied = formula, dict(types), {}
            for var, concept in bound:
                form = ast.substitute(form, var, ast.ConceptRef(concept))
                remaining.pop(var, None)
            try:
                form = grounding.ground(form, interp, remaining, applied)
            except GosilError:
                if not written:
                    raise
                form, applied = formula, {}
            code = memo[key] = _compile(vocab, form, remaining, applied)
        return code(s, asg)

    return grounded


def _raising(error: type[Exception], message: str) -> Code:
    """A deferred error, raised when its node is evaluated."""
    def run(s, asg):
        raise error(message)
    return run


def _compile(
    vocab: Vocabulary,
    expr: ast.Term | ast.Formula,
    types: dict[str, str],
    applied: Container[int] = (),
) -> Code:
    """The code of a term or formula, from one fold whose inherited value
    is the variable types in scope, so no expression is too deep for it. A
    chain of &, | or <=>, nested either way, or a right-nested chain of =>
    compiles to one loop over its operands and a run of ~ to its parity, so
    their code calls no deeper for a longer run. The applications in
    `applied` raise as the dereferences they were made of (see
    `grounding.ground`)."""

    def enter(node, scope):
        kind = type(node)
        if kind is ast.And or kind is ast.Or or kind is ast.Iff:  # a chain, nested either way
            chain = ast.walk(node, lambda n: (n.left, n.right) if type(n) is kind else ())
            return ast.Below(node, [(f, scope) for f in chain if type(f) is not kind])
        if kind is ast.Implies:  # a right-nested chain: its antecedents, then the consequent
            *links, consequent = ast.walk(node, lambda n: (n.right,) if type(n) is kind else ())
            return ast.Below(node, [(f, scope) for f in [n.left for n in links] + [consequent]])
        if kind is ast.Not:  # a run of ~ is folded as its parity, a bool
            run = 0
            while type(node) is ast.Not:
                node, run = node.body, run + 1
            return ast.Below(run % 2 == 1, [(node, scope)])
        if kind in _QUANTIFIERS:
            return ast.Below(node, [(node.body, {**scope, node.var: node.type_name})])
        if kind is ast.GuardC or kind is ast.GuardI:  # grounded per instance
            free = sorted(ast.free_variables(node.body))
            concept_vars = tuple(v for v in free if _may_hold_concept(vocab, scope.get(v)))
            return _grounded(vocab, node, scope, concept_vars)
        return None

    def combine(node, codes):
        match node:
            case ast.Variable(name):
                def variable(s, asg):
                    try:
                        return asg[name]
                    except KeyError:
                        raise UnassignedVariable(f"variable {name!r} has no assigned value") from None
                return variable
            case ast.NatLiteral(value):
                natural = NaturalElement(value)
                return lambda s, asg: natural
            case ast.ConceptRef(concept):
                reference = ConceptElement(concept)
                return lambda s, asg: reference
            case ast.Truth(value):
                return lambda s, asg: value
            case ast.Atom(ast.EQUALITY_ATOM, (_, _)):
                left, right = codes
                return lambda s, asg: left(s, asg) == right(s, asg)
            case ast.Apply(name) | ast.Atom(name):
                truth = name if type(node) is ast.Atom else None
                if id(node) in applied:
                    truth = truth and "dereference"
                    return _compile_application(vocab, name, codes, truth, RuntimeDerefMismatch)
                return _compile_application(vocab, name, codes, truth)
            case ast.Deref() | ast.DerefAtom():
                truth = "dereference" if type(node) is ast.DerefAtom else None
                return _compile_deref(vocab, codes[0], codes[1:], truth)
            case ast.And() | ast.Or() | ast.Implies() | ast.Iff():
                return _chain(type(node), tuple(codes))
            case bool(odd):
                (inner,) = codes
                return (lambda s, asg: not inner(s, asg)) if odd else inner
            case ast.Exists(var, type_name):
                (inner,) = codes
                def exists(s, asg):
                    scope = dict(asg)  # one per call, rebound per element
                    for scope[var] in s.elements(type_name):
                        if inner(s, scope):
                            return True
                    return False
                return exists
            case ast.Forall(var, type_name):
                (inner,) = codes
                def forall(s, asg):
                    scope = dict(asg)
                    for scope[var] in s.elements(type_name):
                        if not inner(s, scope):
                            return False
                    return True
                return forall

    return ast.fold(expr, combine, enter, types)


def _chain(connective: type, codes: tuple[Code, ...]) -> Code:
    """A chain's code: its operands in order, up to the first false one
    for &, the first true one for |, and for => the first false
    antecedent, else the consequent too; all of them for <=>, folded by
    ==, which is associative on bools, so every nesting has one value. Two
    operands get a closure of their own, which runs quicker than the loop."""
    if len(codes) == 2:
        left, right = codes
        if connective is ast.And:
            return lambda s, asg: left(s, asg) and right(s, asg)
        if connective is ast.Or:
            return lambda s, asg: left(s, asg) or right(s, asg)
        if connective is ast.Implies:
            return lambda s, asg: (not left(s, asg)) or right(s, asg)
        return lambda s, asg: left(s, asg) == right(s, asg)
    if connective is ast.And:
        return lambda s, asg: all(code(s, asg) for code in codes)
    if connective is ast.Or:
        return lambda s, asg: any(code(s, asg) for code in codes)
    if connective is ast.Implies:
        *antecedents, consequent = codes
        return lambda s, asg: not all(code(s, asg) for code in antecedents) or consequent(s, asg)
    return lambda s, asg: functools.reduce(operator.eq, (code(s, asg) for code in codes))


# -- applications ----------------------------------------------------------------------
#
# An application is bound to its signature when it is compiled. `truth`
# names an atom, whose code yields a bool; it is None for a term, whose code
# yields a DomainElement. `mismatch` is the error for an argument outside its
# declared type: EvaluationError applied directly, RuntimeDerefMismatch
# through a dereference. The errors come in the definition's order: the
# arguments are evaluated, then counted, then checked, then the graph is
# looked up.


def _compile_application(
    vocab: Vocabulary, symbol: str, codes: list[Code], truth: str | None, mismatch=EvaluationError
) -> Code:
    sig = vocab.resolve(symbol)
    if sig is None:
        return _raising(EvaluationError, f"unknown symbol {symbol!r}")
    return _bind(vocab, sig, codes, mismatch, truth)


def _compile_deref(
    vocab: Vocabulary, head_code: Code, codes: list[Code], truth: str | None
) -> Code:
    """A dereference binds its application once per head concept it meets."""
    appliers: dict[ConceptObject, Code] = {}  # by head concept

    def deref(s, asg):
        value = head_code(s, asg)
        if not isinstance(value, ConceptElement):
            raise RuntimeDerefMismatch(
                f"dereference head evaluated to {value}, not a concept"
            )
        apply = appliers.get(value.concept)
        if apply is None:
            sig = deref_signature(vocab, value.concept)
            apply = appliers[value.concept] = (
                _raising(RuntimeDerefMismatch, f"concept {value.concept} names nothing applicable")
                if sig is None
                else _bind(vocab, sig, codes, RuntimeDerefMismatch, truth)
            )
        return apply(s, asg)

    return deref


def _as_truth(value: DomainElement, what: str) -> bool:
    if not isinstance(value, TruthElement):
        raise EvaluationError(f"{what} evaluated to {value}, not a truth value")
    return value.value


# subtraction truncates at zero
_ARITHMETIC = {"+": operator.add, "*": operator.mul, "-": lambda a, b: max(0, a - b)}


def _bind(
    vocab: Vocabulary,
    sig: Signature,
    codes: list[Code],
    mismatch: type[EvaluationError],
    truth: str | None,
) -> Code:
    """The code applying `sig` to the arguments `codes`: a graph lookup for
    a user symbol, else the built-in's own computation."""
    name = sig.name
    if len(codes) != sig.arity:
        def wrong_arity(s, asg):
            for code in codes:
                code(s, asg)
            raise RuntimeDerefMismatch(
                f"{name!r} expects {sig.arity} argument(s), got {len(codes)}"
            )
        return wrong_arity
    arguments = _arguments(sig, codes, mismatch)
    if not sig.builtin:
        return _graph_lookup(name, arguments, truth)
    if name in _ARITHMETIC:
        op = _ARITHMETIC[name]
        def value(s, asg):
            a, b = arguments(s, asg)
            return NaturalElement(op(a.value, b.value))
        return value if truth is None else lambda s, asg: _as_truth(value(s, asg), truth)
    if name.startswith(EQUALITY + "_"):
        def holds(s, asg):
            a, b = arguments(s, asg)
            return a == b
    elif vocab.has_type(name):  # a type predicate is its membership test
        test = _membership(name)
        def holds(s, asg):
            return test(s, arguments(s, asg)[0])
    else:
        def holds(s, asg):
            arguments(s, asg)
            raise EvaluationError(f"unknown built-in {name!r}")
    return holds if truth is not None else lambda s, asg: TRUE if holds(s, asg) else FALSE


def _membership(type_name: str) -> Callable[[Structure, DomainElement], bool]:
    """The membership test of `type_name`, chosen once for every element."""
    if type_name == UNIVERSE:
        return lambda s, e: True
    kind = _KINDS.get(type_name)
    if kind is not None:
        return lambda s, e: isinstance(e, kind)
    return lambda s, e: e in s.type_sets.get(type_name, ())


def _arguments(
    sig: Signature, codes: list[Code], mismatch: type[EvaluationError]
) -> Callable[[Structure, Assignment], Row]:
    """The code evaluating the arguments into a row, all of them before any
    is checked against its declared type."""
    tests = [
        (i, _membership(arg_type))
        for i, arg_type in enumerate(sig.argument_types)
        if arg_type != UNIVERSE
    ]

    def arguments(s, asg):
        elements = tuple([code(s, asg) for code in codes])
        for i, test in tests:
            if not test(s, elements[i]):
                raise mismatch(
                    f"{sig.name!r} is undefined at {elements[i]} "
                    f"(not in {sig.argument_types[i]!r})"
                )
        return elements

    return arguments


def _graph_lookup(name: str, arguments, truth: str | None) -> Code:
    """Applying a user symbol scans the rows of its graph in the structure.
    A predicate graph holds at the rows it lists; in a function graph the
    last row for the arguments wins, as in a dict."""
    listed, unlisted = (TRUE, FALSE) if truth is None else (True, False)

    def lookup(s, asg):
        elements = arguments(s, asg)
        graph = s.graphs.get(name)
        if graph is None:
            raise EvaluationError(f"no interpretation for symbol {name!r}")
        if graph.is_predicate:
            for args, _ in graph.rows:
                if args == elements:
                    return listed
            return unlisted
        for args, result in reversed(graph.rows):
            if args == elements:
                return result if truth is None else _as_truth(result, truth)
        shown = ", ".join(str(e) for e in elements)
        raise EvaluationError(f"{name!r} has no value at ({shown})")

    return lookup


def _may_hold_concept(vocab: Vocabulary, type_name: str | None) -> bool:
    """Whether a variable of this declared type (None: undeclared) may be
    bound to a concept: Universe, Concept, a type below Concept, or a type
    the vocabulary does not declare."""
    return (
        type_name is None
        or type_name == UNIVERSE
        or not vocab.has_type(type_name)
        or is_subtype(vocab, type_name, CONCEPT)
    )


# -- satisfaction ----------------------------------------------------------------------


def interpretation_of(structure: Structure) -> grounding.GroundInterpretation:
    """The intensional interpretation a structure induces: its concept-type
    extensions plus the graphs of its concept-valued functions as facts.
    Interned by content on the vocabulary, so structures that agree on their
    concept part share one object, and with it the guard expansions
    memoised for it. What validation rejects is left out, so that grounding
    refuses what only the written form evaluates: the extension of a
    concept type holding an element that is no concept, and each row not
    of concepts or outside the function's argument types."""
    if structure._interp is not None:
        return structure._interp
    vocab = structure.vocab
    extensions: dict[str, tuple[ConceptObject, ...]] = {}
    for t in vocab.types:
        if t.builtin or not is_strict_subtype(vocab, t.name, CONCEPT):
            continue
        elems = structure.type_sets.get(t.name, ())
        if all(isinstance(e, ConceptElement) for e in elems):
            extensions[t.name] = tuple(e.concept for e in elems)
    facts: dict[grounding.FactKey, ConceptObject] = {}
    for name, graph in structure.graphs.items():
        sig = vocab.signature(name)
        if sig is None or not is_subtype(vocab, sig.result_type, CONCEPT):
            continue
        tests = [_membership(arg_type) for arg_type in sig.argument_types]
        for args, result in graph.rows:
            if isinstance(result, ConceptElement) and len(args) == len(tests) and all(
                isinstance(a, ConceptElement) and test(structure, a) for a, test in zip(args, tests)
            ):
                facts[(name, tuple(a.concept for a in args))] = result.concept
    interned = vocab._eval_cache.setdefault("interp", {})
    key = (tuple(extensions.items()), tuple(facts.items()))
    entry = interned.get(key)
    if entry is None:  # with the theory of its facts, for `satisfies`
        facts_in_order = sorted(facts.items(), key=lambda kv: (kv[0][0], [c.name for c in kv[0][1]]))
        theory = ast.Theory(vocab, (), tuple(ast.ConceptFact(*k, v) for k, v in facts_in_order))
        entry = interned[key] = grounding.GroundInterpretation(vocab, extensions, facts), theory
    interp, theory = entry
    object.__setattr__(structure, "_interp", interp)
    object.__setattr__(structure, "_theory", theory)
    return interp


def _theory_of(structure: Structure) -> ast.Theory:
    """The theory of a structure's concept part, interned with its
    interpretation, so that the interpretation the theory builds, totality
    checked, is built once."""
    interpretation_of(structure)
    return structure._theory


def satisfies(structure: Structure, sentence: ast.Formula) -> bool:
    """S satisfies a sentence iff its value is true. Ill-typed sentences are
    rejected rather than given one of their competing readings."""
    try:
        check_sentence(_theory_of(structure), sentence)
    except TypingError as err:
        raise IllTypedSentence(f"sentence is ill-typed: {err.message}", err.loc) from err
    return bool(evaluate(structure, sentence))


# -- structure files ----------------------------------------------------------------------


def parse_structure(text: str, vocab: Vocabulary, nat_bound: int | None = None) -> Structure:
    """Parse the textual structure format:

        type Animal = { t, d }
        interp age = { (t) -> 3, (d) -> 5 }
        interp meow = { t }            // predicate: listed rows are true

    Omitted forced interpretations are synthesized; violations raise."""
    stream = TokenStream(tokenize(text))
    type_sets: dict[str, tuple[DomainElement, ...]] = {}
    functions: dict[str, FunctionGraph] = {}

    def element() -> DomainElement:
        tok = stream.peek()
        if tok.kind == "nat":
            stream.next()
            return NaturalElement(numeral(tok.text, tok.loc))
        if tok.kind == "kw" and tok.text in ("true", "false"):
            stream.next()
            return TruthElement(tok.text == "true")
        if stream.at_op("`"):
            name, loc = stream.concept_name("concept name")
            concept = resolve_concept(vocab, name)
            if concept is None:
                raise StructureError(f"unknown concept name {name!r}", loc)
            return ConceptElement(concept)
        if tok.kind == "ident":
            stream.next()
            return PlainElement(tok.text)
        raise ParseError(f"expected a domain element, found {tok.text!r}", tok.loc)

    def row_args() -> Row:
        if stream.accept_op("("):
            return tuple(stream.separated(element, ")"))
        return (element(),)

    while True:
        stream.skip_newlines()
        tok = stream.peek()
        if tok.kind == "eof":
            break
        if tok.kind == "kw" and tok.text == "type":
            stream.next()
            name = stream.expect_ident("type name").text
            stream.expect_op("=")
            stream.expect_op("{")
            type_sets[name] = tuple(stream.separated(element, "}"))
        elif tok.kind == "ident" and tok.text == "interp":
            stream.next()
            name_tok = stream.expect_ident("symbol name")
            sig = vocab.signature(name_tok.text)
            if sig is None:
                raise StructureError(f"unknown symbol {name_tok.text!r}", name_tok.loc)
            if name_tok.text in functions:
                raise StructureError(
                    f"duplicate interpretation for {name_tok.text!r}", name_tok.loc
                )
            stream.expect_op("=")
            stream.expect_op("{")
            mapping: dict[Row, DomainElement] = {}
            true_rows: set[Row] = set()

            def row() -> None:
                loc = stream.peek().loc
                args = row_args()
                if stream.accept_op("->"):
                    result = element()
                    if mapping.setdefault(args, result) != result:
                        shown = ", ".join(str(e) for e in args)
                        message = f"{name_tok.text!r} maps ({shown}) to two results"
                        raise StructureError(message, loc)
                elif sig.is_predicate:
                    true_rows.add(args)
                else:
                    raise ParseError("function rows need '-> result'", stream.peek().loc)

            stream.separated(row, "}")
            if sig.is_predicate and not mapping:
                functions[name_tok.text] = FunctionGraph.for_predicate(
                    name_tok.text, true_rows
                )
            elif sig.is_predicate:
                raise ParseError(
                    f"predicate {name_tok.text!r} rows must not map to results",
                    name_tok.loc,
                )
            else:
                functions[name_tok.text] = FunctionGraph.for_function(
                    name_tok.text, mapping
                )
        else:
            raise ParseError(
                f"expected 'type' or 'interp', found {tok.text!r}", tok.loc
            )
        stream.expect_statement_end()

    structure, report = assemble_structure(vocab, type_sets, functions, nat_bound)
    if not report.ok:
        raise StructureError(f"invalid structure: {report.violations[0]}")
    return structure


def format_structure(structure: Structure) -> str:
    """Canonical structure text: user-suppliable blocks only, types first,
    everything sorted by identifier so outputs diff cleanly."""
    return "\n".join(_type_lines(structure) + _graph_lines(structure)) + "\n"


def format_structures(structures: Iterable[Structure]) -> Iterator[str]:
    """`format_structure` of each structure in turn, spelling the type
    blocks once per run of structures over one vocabulary with equal type
    sets."""
    vocab = type_sets = type_lines = None
    for structure in structures:
        if structure.vocab is not vocab or structure.type_sets != type_sets:
            vocab, type_sets = structure.vocab, structure.type_sets
            type_lines = _type_lines(structure)
        yield "\n".join(type_lines + _graph_lines(structure)) + "\n"


def _type_lines(structure: Structure) -> list[str]:
    forced_types = {ext.type_name for ext in structure.vocab.extensions}
    lines: list[str] = []
    for t in structure.vocab.types:
        if t.builtin or t.name in forced_types:
            continue
        elems = sorted(structure.type_sets.get(t.name, ()), key=lambda e: e.identifier)
        lines.append(f"type {t.name} = {{ {', '.join(e.identifier for e in elems)} }}")
    return lines


def _graph_lines(structure: Structure) -> list[str]:
    lines: list[str] = []
    for sig in structure.vocab.signatures:
        if sig.builtin:
            continue
        graph = structure.graph(sig.name)
        if graph is None:
            continue
        lines.append(f"interp {sig.name} = {{ {graph.rows_text} }}")
    return lines
