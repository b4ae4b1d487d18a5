"""Grounding: eliminate concept quantifiers, references, and dereferences.

Quantifiers over concept types expand to disjunctions/conjunctions over the
type's fixed extension; dereference heads reduce to concept objects (via
the concept-function facts where needed) and apply the named symbol; any
implicit guard wrappers are elaborated per grounded instance. Quantifiers
over ordinary types stay put: grounding exists to remove the intensional
constructs, not to propositionalize the theory.

A formula is surveyed once, in preorder, for what it holds; then one fold
does all three rewrites, building each instance once. The survey decides
what is done: whether anything is grounded, whether a sentence is checked
grounded, elaborated or as it is, and which steps `ground_trace` shows.
The three stages, expansion, then elimination, then elaboration, remain
only as those steps and as the order errors are reported in: a missing
extension first, then the first elimination error, then the first
elaboration error. Guard elaboration alone, `elaborate`, is the same fold
with elimination off and nothing to expand. Checking a sentence, `checked`,
is that fold, when the survey found something to rewrite, and then the
checker's own fold over the grounded form: in the paper an intensional
sentence has the type of its grounding.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import ast, elaboration
from .errors import (
    GosilError,
    GroundArityError,
    MissingExtension,
    NonFunctionalFacts,
    NonTotalConceptFunction,
    TypingError,
    UnknownConceptMember,
    UnresolvableDeref,
)
from .typecheck import (
    TypingContext,
    TypingDerivation,
    VarEntry,
    initial_context,
    refold,
    typecheck,
)
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
_WRAPPERS = (ast.GuardC, ast.GuardI)


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


def interpretation(theory: ast.Theory) -> GroundInterpretation:
    """The theory's interpretation, built on first use and kept on the
    theory. A build that fails is not kept: it raises again next time."""
    if theory._interp is None:
        object.__setattr__(theory, "_interp", build_intensional_interp(theory))
    return theory._interp


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


# -- the grounding walker ------------------------------------------------------------
#
# A survey walks the formula once, in preorder, before anything is rewritten.
# It notes whether the formula holds concept quantifiers, dereferences,
# concept references and guard wrappers, and its free variables, and, given
# an interpretation, looks up the extension of each concept quantifier. Below
# an empty one, which is never grounded, it only looks for free variables.
#
# Then one fold of the formula does all three rewrites. What a node inherits
# is a pair: the concept bindings, the concept reference bound to each
# variable of an enclosing expansion, and the typing entries, one per
# quantifier kept above the node, that a guard wrapper elaborates under.
#
# - A concept quantifier whose extension the survey looked up folds its body
#   once per member, with the variable bound to that member, and joins the
#   instances with | (for ?) or & (for !); an empty extension gives false
#   (for ?) or true.
# - A dereference folds its head first, as a `_Reduce` that reduces it to a
#   concept object as soon as it is rewritten, then its arguments, and
#   becomes an application of the symbol that object names. A reference,
#   or an application to references, reduces at once.
# - A wrapper folds its body, then elaborates it under the entries above the
#   wrapper; one whose body is an atom grounded at once is elaborated at
#   once.
# - An atom over simple terms is grounded at once.
#
# Elimination and elaboration can be switched off; `ground_trace` shows the
# steps with the later ones off. With elimination on every node but a leaf
# is rebuilt; with it off, an atom outside every expansion is kept as it is,
# so that an expansion keeps its locations, as substitution would. Grounding
# switches it on only for a formula that holds a dereference or a wrapper.


class _Reduce(NamedTuple):
    """A dereference head, folded below its dereference. Its value is the
    concept object the rewritten head reduces to, with the signature that
    object applies."""

    head: ast.Term


class _Expansion(NamedTuple):
    """The instances of an expanded concept quantifier, joined by `connective`."""

    connective: type


class _Elaboration(NamedTuple):
    """A guard wrapper of class `wrapper` whose grounded body elaborates
    under `entries`."""

    wrapper: type
    entries: tuple[VarEntry, ...]


class _Leave(NamedTuple):
    """Met by the survey once it is done with the body of a quantifier over
    `var`, an empty expansion when `empty` is true."""

    var: str
    empty: bool


_EXPANSIONS = {ast.Exists: _Expansion(ast.Or), ast.Forall: _Expansion(ast.And)}
_ATOMS = (ast.Atom, ast.DerefAtom)


class _Pass:
    """The grounding of one formula: what its survey found, then folds of it
    with elimination and elaboration switched on or off. Only elaboration
    reads the typing context, and only expansion and elimination the
    interpretation."""

    def __init__(
        self,
        vocab: Vocabulary,
        formula: ast.Formula,
        interp: GroundInterpretation | None = None,
        theory: ast.Theory | None = None,
    ):
        """Survey `formula`. Extensions are looked up in `interp`, or in the
        interpretation of `theory`, built once the survey meets something
        intensional; with neither, nothing is looked up or expanded. The
        first error in building the interpretation or looking an extension
        up is raised by a fold before any other grounding error, as
        expansion comes first in the staged order."""
        self.vocab, self.formula, self.interp, self.theory = vocab, formula, interp, theory
        self.applied: dict[int, ast.Term | ast.Formula] | None = None  # see `ground`
        self.extensions: dict[str, tuple[ConceptObject, ...]] = {}  # of concept quantifiers
        self.quantified = self.dereferenced = self.referenced = self.guarded = False
        self.free: set[str] = set()
        self.unready: GosilError | None = None  # the first error looking extensions up
        self.bound: dict[str, int] = {}  # the quantifiers binding each name around the node met
        self.dead = 0  # the empty expansions around it
        deque(ast.walk(formula, self._surveyed), maxlen=0)
        self.intensional = self.quantified or self.dereferenced or self.referenced
        if self.intensional:
            self._extension(None)

    def _surveyed(self, node):
        """What the survey goes on to below `node`, once it has noted what
        `node` is: its children, and after the body of a quantifier, a
        `_Leave`. Below an empty expansion, which is never grounded, only
        free variables are noted."""
        kind = type(node)
        if kind is _Leave:
            self.bound[node.var] -= 1
            self.dead -= node.empty
            return ()
        if kind is ast.Variable and not self.bound.get(node.name):
            self.free.add(node.name)
        elif kind in _QUANTIFIERS:
            empty = False
            if not self.dead and is_subtype(self.vocab, node.type_name, CONCEPT):
                self.quantified = True
                empty = self._extension(node.type_name) == ()
            self.bound[node.var] = self.bound.get(node.var, 0) + 1
            self.dead += empty
            return node.body, _Leave(node.var, empty)
        elif not self.dead:
            self.referenced |= kind is ast.ConceptRef
            self.dereferenced |= kind in _DEREFS
            self.guarded |= kind in _WRAPPERS
        return ast.children(node)

    def _extension(self, type_name: str | None) -> tuple[ConceptObject, ...] | None:
        """The extension of `type_name`, looked up once, in the theory's
        interpretation built if need be, as it is for no type name; None with
        nothing to look it up in, or once the survey has failed."""
        try:
            if self.interp is None and self.theory is not None and self.unready is None:
                self.interp = interpretation(self.theory)
            if type_name and type_name not in self.extensions and self.interp and not self.unready:
                self.extensions[type_name] = self.interp.extension(type_name)
        except GosilError as err:
            self.unready = err.with_traceback(None)
        return self.extensions.get(type_name)

    def run(self, context: TypingContext | None = None, eliminate=True, elaborate=True):
        """The formula with its concept quantifiers expanded and the other
        rewrites switched on done. Elaboration comes after elimination in
        the staged order, so its first error is raised only once the whole
        pass has met no elimination error."""
        if self.unready is not None:
            raise self.unready
        self.eliminate, self.elaborate = eliminate, elaborate
        self.context = context
        self.scope = ((), context)  # the entries last elaborated under, and their context
        self.error: GosilError | None = None  # the first elaboration error
        self.wrappers = 0  # the wrappers being elaborated around the node folded

        def enter(node, inherited):  # anything else raises TypeError in ast.children
            return _ENTER.get(type(node), _visit)(self, node, inherited)

        def combine(key, values):
            return _COMBINE[type(key)](self, key, values)

        grounded = ast.fold(self.formula, combine, enter, ({}, ()))
        error, self.error = self.error, None
        if error is not None:
            raise error
        return grounded

    def expanded(self) -> ast.Formula:
        """Quantifier expansion alone: the first step `ground_trace` shows."""
        return self.run(eliminate=False, elaborate=False)

    def grounded(self, context: TypingContext) -> ast.Formula:
        """The grounded formula, wrappers elaborated under `context`: its
        expansion when it holds neither a dereference nor a wrapper, itself
        when it holds nothing to ground either."""
        if self.dereferenced or self.guarded:
            return self.run(context)
        return self.expanded() if self.quantified else self.formula

    def steps(self, grounded: ast.Formula) -> list[tuple[str, ast.Formula]]:
        """The steps `ground_trace` shows, the last being `grounded`."""
        steps = [("original", self.formula)]
        if self.quantified:
            rewritten = self.dereferenced or self.guarded
            steps.append(("grounded concept quantifiers", self.expanded() if rewritten else grounded))
        if self.dereferenced:
            eliminated = self.run(elaborate=False) if self.guarded else grounded
            steps.append(("eliminated intensional terms", eliminated))
        if self.guarded:
            steps.append(("elaborated implicit guards", grounded))
        return steps

    def check(self, steps: list | None) -> TypingDerivation:
        """What `checked` describes, from this survey, at most one grounding
        fold and the checker's fold."""
        if self.free:
            names = ", ".join(sorted(self.free))
            raise TypingError("UnboundVariable", f"not a sentence, free variables: {names}", self.formula)
        if self.unready is not None:
            raise self.unready
        ctx = initial_context(self.vocab)
        grounded = self.formula
        if self.quantified or self.dereferenced or self.guarded:
            elaborate = self.dereferenced or self.guarded
            grounded = self.run(ctx, self.intensional and elaborate, elaborate)
        if steps is not None and self.intensional:  # before typing: they stand either way
            steps += self.steps(grounded)
        derivation = typecheck(ctx, grounded)
        if not (self.intensional or self.guarded):
            return derivation
        note = "typed via grounding" if self.intensional else "typed after guard elaboration"
        return replace(derivation, note=f"{note}: {ast.format_formula(grounded)}")

    def context_of(self, entries: tuple[VarEntry, ...]) -> TypingContext:
        """The typing context under `entries`, the quantifiers kept above."""
        if entries is not self.scope[0]:  # the instances of an expansion share their entries
            self.scope = entries, self.context.push(*entries)
        return self.scope[1]


def _leaf(walk: _Pass, node, inherited):
    return node


def _variable(walk: _Pass, node: ast.Variable, inherited):
    return inherited[0].get(node.name, node)


def _visit(walk: _Pass, node, inherited):
    return None


def _grounded_atom(walk: _Pass, node, inherited):
    """An atom grounded at once when its arguments are simple: a leaf, a
    variable in place of which goes the reference it is bound to, or a
    constant, rebuilt as every application is; a dereferencing one too
    when its head reduces at once. Else what to fold for it."""
    bindings = inherited[0]
    if not (walk.eliminate or bindings):
        return node
    args = []
    for arg in node.args:
        if type(arg) is ast.Variable:
            arg = bindings.get(arg.name, arg)
        elif ast.children(arg):
            return None if type(node) is ast.Atom else _dereference(walk, node, inherited)
        elif type(arg) is ast.Apply:
            arg = ast.Apply(arg.symbol, ())
        args.append(arg)
    if type(node) is ast.Atom:
        return ast.Atom(node.predicate, tuple(args))
    head = bindings.get(node.head.name, node.head) if type(node.head) is ast.Variable else node.head
    if not walk.eliminate or type(head) not in (ast.Variable, ast.ConceptRef):
        return _dereference(walk, node, inherited)
    return _applied(walk, node, [_reduced(walk, node, (head,)), *args])


def _dereference(walk: _Pass, node, inherited):
    if not walk.eliminate:
        return None if isinstance(node, ast.Deref) or inherited[0] else node
    pairs = [(_Reduce(node.head), inherited)]
    pairs += [(arg, inherited) for arg in node.args]
    return ast.Below(node, pairs)


def _quantifier(walk: _Pass, node, inherited):
    bindings, entries = inherited
    members = walk.extensions.get(node.type_name)
    if members is not None:
        if not members:
            return ast.Truth(isinstance(node, ast.Forall))
        return ast.Below(
            _EXPANSIONS[type(node)],
            [(node.body, ({**bindings, node.var: ast.ConceptRef(m)}, entries)) for m in members],
        )
    if node.var in bindings:  # shadowed
        bindings = {var: ref for var, ref in bindings.items() if var != node.var}
    if walk.elaborate:
        entries += (VarEntry(node.var, node.type_name),)
    if bindings is inherited[0] and entries is inherited[1]:
        return None
    return ast.Below(node, [(node.body, (bindings, entries))])


def _wrapper(walk: _Pass, node, inherited):
    """A wrapper, elaborated at once when its body is an atom grounded at
    once."""
    if not walk.elaborate:
        return None
    walk.wrappers += 1
    key = _Elaboration(type(node), inherited[1])
    body = _grounded_atom(walk, node.body, inherited) if type(node.body) in _ATOMS else None
    if isinstance(body, ast.Formula):
        return _elaborated(walk, key, (body,))
    return ast.Below(key, [(node.body, inherited)])


def _reduce(walk: _Pass, node: _Reduce, inherited):
    """A head that is a variable or a reference reduces at once; any other
    is grounded first."""
    head = node.head
    if isinstance(head, ast.Variable):
        head = inherited[0].get(head.name, head)
    if isinstance(head, (ast.Variable, ast.ConceptRef)):
        return _reduced(walk, node, (head,))
    return ast.Below(node, [(head, inherited)])


_ENTER = {
    **dict.fromkeys((ast.NatLiteral, ast.ConceptRef, ast.Truth), _leaf),
    ast.Variable: _variable,
    **dict.fromkeys((ast.Apply, ast.Not, ast.And, ast.Or, ast.Implies, ast.Iff), _visit),
    **dict.fromkeys(_ATOMS, _grounded_atom),
    ast.Deref: _dereference,
    **dict.fromkeys(_QUANTIFIERS, _quantifier),
    **dict.fromkeys(_WRAPPERS, _wrapper),
    _Reduce: _reduce,
}


def _rebuilt(walk: _Pass, node, values):
    return ast.rebuild(node, values)


def _applied(walk: _Pass, node, values):
    """A dereference: the application of the symbol its head names."""
    if not walk.eliminate:
        return ast.rebuild(node, values)
    (obj, sig), args = values[0], tuple(values[1:])
    if len(args) != sig.arity:
        raise GroundArityError(
            f"{obj} dereferences to {sig.name!r} expecting {sig.arity} "
            f"argument(s), got {len(args)}"
        )
    applied = (ast.Apply if isinstance(node, ast.Deref) else ast.Atom)(sig.name, args)
    if walk.applied is not None and not walk.wrappers:
        walk.applied[id(applied)] = applied
    return applied


def _joined(walk: _Pass, node: _Expansion, values):
    return refold(values, node.connective)


def _elaborated(walk: _Pass, node: _Elaboration, values):
    (body,) = values
    walk.wrappers -= 1
    if walk.error is not None:
        return body
    try:
        return elaboration.expand_wrapper(node.wrapper, walk.context_of(node.entries), body)
    except GosilError as err:
        walk.error = err.with_traceback(None)
        return body


def _reduced(walk: _Pass, node: _Reduce, values):
    head = values[0]
    obj = head.concept if type(head) is ast.ConceptRef else _fact(walk, head)
    obj = obj or _reduce_head(walk.interp, head)
    sig = deref_signature(walk.interp.vocab, obj)
    if sig is None:
        raise UnresolvableDeref(f"concept {obj} names nothing applicable")
    return obj, sig


_COMBINE = {
    **dict.fromkeys(_ENTER, _rebuilt),
    **dict.fromkeys(_DEREFS, _applied),
    _Expansion: _joined,
    _Elaboration: _elaborated,
    _Reduce: _reduced,
}


def _fact(walk: _Pass, head: ast.Term) -> ConceptObject | None:
    """The fact for an application of a concept-valued function to
    references; None for any other head."""
    if type(head) is ast.Apply and all(type(arg) is ast.ConceptRef for arg in head.args):
        sig = walk.vocab.signature(head.symbol)
        if sig is not None and is_subtype(walk.vocab, sig.result_type, CONCEPT):
            return walk.interp.facts.get((head.symbol, tuple(arg.concept for arg in head.args)))
    return None


def _reduce_head(interp: GroundInterpretation, head: ast.Term) -> ConceptObject:
    """Reduce a dereference head to the concept object it denotes, on an
    explicit stack: a reference denotes its concept, and an application of
    a concept-valued function the fact for its reduced arguments. A head
    that holds anything else is reported whole, located at the first
    subterm, in preorder, that does not reduce. Only a head that is not a
    reference nor an application to references, or does not reduce, comes
    here."""
    vocab = interp.vocab

    def enter(term, _):
        if type(term) is ast.ConceptRef:
            return term.concept
        if type(term) is ast.Apply:
            sig = vocab.signature(term.symbol)
            if sig is not None and is_subtype(vocab, sig.result_type, CONCEPT):
                return None
        raise UnresolvableDeref(
            f"dereference head {ast.format_term(head)} does not reduce to a concept",
            getattr(term, "loc", None),
        )

    def combine(term: ast.Apply, reduced):
        value = interp.facts.get((term.symbol, tuple(reduced)))
        if value is None:
            shown = ", ".join(str(c) for c in reduced)
            raise UnresolvableDeref(f"no fact determines {term.symbol}({shown})", term.loc)
        return value

    return ast.fold(head, combine, enter)


def _context(vocab: Vocabulary, free_var_types: dict[str, str] | None) -> TypingContext:
    """The typing context of a formula with free variables of these types."""
    entries = (VarEntry(v, t) for v, t in (free_var_types or {}).items())
    return initial_context(vocab).push(*entries)


def elaborate(ctx: TypingContext, formula: ast.Formula) -> ast.Formula:
    """Rewrite away every guard wrapper under `ctx`, innermost first. The
    output is wrapper-free; wrapper-free input comes back unchanged."""
    return _Pass(ctx.vocab, formula).run(ctx, eliminate=False)


def checked(
    theory: ast.Theory, sentence: ast.Formula, steps: list | None = None
) -> TypingDerivation:
    """What `typecheck.check_sentence` does: the derivation of the grounded
    sentence when it is intensional (the theory's interpretation is built
    then and only then), of the elaborated sentence when it only has
    wrappers, else of the sentence itself, with a note saying which. One
    survey, at most one fold that grounds and elaborates, and then the
    checker's fold report errors in the order of the staged pipeline: free
    variables, the interpretation and the extensions, the first elimination
    error, the first elaboration error, the first typing error. Into
    `steps`, when given, go the steps of `ground_trace` for an intensional
    sentence once it grounds, the last from the grounding fold."""
    return _Pass(theory.vocabulary, sentence, theory=theory).check(steps)


def ground_trace(
    formula: ast.Formula,
    interp: GroundInterpretation,
    free_var_types: dict[str, str] | None = None,
) -> list[tuple[str, ast.Formula]]:
    """The grounding pipeline with intermediate results, for tracing: the
    original formula, the quantifier expansion, the intensional elimination,
    and (when wrappers are present) the guard elaboration. A step is shown
    when it changes the formula: the expansion exactly when the formula
    holds a concept-typed quantifier, the elimination exactly when the
    expansion holds a dereference. The survey finds out which; a step
    before the last is the same fold with the later rewrites off."""
    walk = _Pass(interp.vocab, formula, interp)
    return walk.steps(walk.grounded(_context(interp.vocab, free_var_types)))


def ground(
    formula: ast.Formula,
    interp: GroundInterpretation,
    free_var_types: dict[str, str] | None = None,
    applied: dict[int, ast.Term | ast.Formula] | None = None,
) -> ast.Formula:
    """Fully ground a formula: the output contains no concept-typed
    quantifier, no reference or dereference in applied position, and no
    guard wrapper. Formulas with none of those come back unchanged. The
    result is the last step of `ground_trace`, from one survey and at most
    one fold. Into `applied`, when given, goes each application that a
    dereference outside every guard wrapper became, by id (the dict holds
    it, so no other node takes the id): evaluation applies those as the
    dereferences they were."""
    walk = _Pass(interp.vocab, formula, interp)
    walk.applied = applied
    return walk.grounded(_context(interp.vocab, free_var_types))


def grounded_dependencies(vocab: Vocabulary, grounded: ast.Formula) -> frozenset[str]:
    """The user symbols whose graphs can decide a sentence's value: those
    applied in `grounded`, its grounded form, the expression that the
    derivation `typecheck.check_sentence` returns concludes. That form holds
    no guard wrapper and no dereference, so its value reads no
    interpretation."""
    found = {
        node.predicate if isinstance(node, ast.Atom) else node.symbol
        for node in ast.walk(grounded)
        if isinstance(node, (ast.Atom, ast.Apply))
    }
    return frozenset(found & {s.name for s in vocab.signatures if not s.builtin})


def grounded_size(
    formula: ast.Formula,
    interp: GroundInterpretation,
    free_var_types: dict[str, str] | None = None,
) -> int:
    """Number of atoms in the grounded formula."""
    return ast.atom_count(ground(formula, interp, free_var_types))
