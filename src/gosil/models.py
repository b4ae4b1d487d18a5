"""Bounded model search by depth-first search over symbol assignments.

Enumeration encoding (which fixes the deterministic output order):

  * each maximal user type (direct subtype of Universe, not below Concept)
    gets the fixed carrier {<name.lower()>0, ..., <name.lower()>(n-1)} from
    its bound;
  * every other user type ranges over the non-empty subsets of the
    intersection of its direct supertypes' sets, in ascending bitmask order
    (bit i = element i of that intersection's canonical order); a built-in
    supertype's set is what a symbol ranges over there: 0..nat_bound for
    Nat, the two truth values for Bool;
  * concept types are fixed by their declared extensions;
  * symbols are enumerated in declaration order: predicates over the subsets
    of their argument product in ascending bitmask order, functions over all
    total maps in mixed-radix order (last argument tuple varies fastest),
    with rows forced by concept-function facts pinned first.

Models are returned in that order; no symmetry breaking is applied. The
total candidate count is computed up front and refused if it exceeds the
explosion cap.

Search strategy. The result is that of testing every candidate in the order
above, evaluating the axioms in declaration order up to the first false one,
but most candidates are never built. Each type set is searched depth first,
one symbol per level; symbols with a single option are fixed first and the
rest in declaration order, so the order is unchanged. An axiom depends on
the user symbols of its grounded form, read off the derivation that
checking it returned. It is checked at the level that fixes its last
dependency, on a fresh structure holding only its dependencies' graphs, by
evaluating its grounded form, the sentence that derivation concludes: it
holds no guard wrapper and no dereference, so its verdict (true, false, or
the error it raised) reads no interpretation. A subtree is left as soon as some
axiom does not hold on it and every axiom declared before that one has been
checked and holds; if that axiom raised, its error is raised. Until then
only symbols that the earlier axioms read keep all their options.

Once a level's axioms are checked, the rest of its subtree is decided by
the depth, the cut (the first axiom known not to hold, and its verdict) and
the options chosen at the levels above that axioms checked deeper read.
Under that key each completed subtree stores the option indices of the
leaves it reached; on a hit those leaves are replayed through the same
leaf step instead of walking the subtree again, so order, errors and
`limit` are unchanged. A subtree that stopped at `limit` or raised is not
stored. A symbol that no later axiom reads drops out of every key below
it, so the rest of the type set is searched once for all its options.

Validation runs once per type set, on its first candidate, and a type set
whose first candidate fails is skipped. The enumeration is constructive,
so one type set's candidates pass or fail together: every free row comes
from the type set's domains and 0..nat_bound, and the only rows that can
fail are those concept facts pin, which every option of a space holds.

What depends only on the theory and the bounds is kept by the enumeration
for the whole search, and each type set's search only walks its tree:
  * a symbol's graph options are built once per space (the symbol, its
    argument domains and its result domain) and shared by every type set
    giving the symbol those domains;
  * the axioms are grounded once, under the theory's interpretation, when
    they are checked. Only graph rows with all-concept arguments become a
    structure's facts, and the theory's facts pin every such row (the
    theory's interpretation refuses facts that are not total there), so
    every candidate induces the theory's interpretation, and an axiom's
    grounded form means on every candidate what the axiom means there.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from . import ast
from .errors import (
    BoundMissing,
    ExplosionGuard,
    GosilError,
    IllTypedSentence,
    TypingError,
)
from .grounding import grounded_dependencies, interpretation
from .semantics import (
    FALSE,
    TRUE,
    ConceptElement,
    DomainElement,
    FunctionGraph,
    NaturalElement,
    PlainElement,
    Row,
    Structure,
    evaluate,
    validate_structure,
)
from .typecheck import check_sentence
from .vocabulary import (
    BOOL,
    CONCEPT,
    NAT,
    UNIVERSE,
    Signature,
    Vocabulary,
    is_subtype,
)

DEFAULT_EXPLOSION_CAP = 10_000_000


def _maximal_user_types(vocab: Vocabulary) -> list[str]:
    out = []
    for t in vocab.types:
        if t.builtin or is_subtype(vocab, t.name, CONCEPT):
            continue
        if vocab.direct_supertypes(t.name) == (UNIVERSE,):
            out.append(t.name)
    return out


def _dependent_user_types(vocab: Vocabulary) -> list[str]:
    maximal = set(_maximal_user_types(vocab))
    return [
        t.name
        for t in vocab.types
        if not t.builtin
        and not is_subtype(vocab, t.name, CONCEPT)
        and t.name not in maximal
    ]


def _nonempty_subsets(elems: tuple) -> list[tuple]:
    out = []
    for mask in range(1, 2 ** len(elems)):
        out.append(tuple(e for i, e in enumerate(elems) if mask & (1 << i)))
    return out


class _Enumeration:
    """The candidate space of a theory under its bounds: the type sets and,
    per type set, each symbol's graph options, both in the documented
    order. It keeps what the searches of all type sets share: the options
    per space."""

    def __init__(
        self,
        theory: ast.Theory,
        domain_bounds: dict[str, int],
        nat_bound: int | None,
    ):
        vocab = theory.vocabulary
        self.vocab = vocab
        self.nat_bound = nat_bound
        self.symbols = [s for s in vocab.signatures if not s.builtin]
        self.base_sets: dict[str, tuple] = {
            name: tuple(
                PlainElement(f"{name.lower()}{i}") for i in range(domain_bounds[name])
            )
            for name in _maximal_user_types(vocab)
        }
        interp = interpretation(theory)
        # concept types are fixed by their declared extensions
        for name, members in interp.extensions.items():
            self.base_sets[name] = tuple(ConceptElement(c) for c in members)
        self.concept_elements = Structure(vocab, {}, {}).elements(CONCEPT)
        self.dependents = _dependent_user_types(vocab)
        self.fact_rows: dict[str, dict[Row, DomainElement]] = {}
        for (fname, args), value in interp.facts.items():
            self.fact_rows.setdefault(fname, {})[
                tuple(ConceptElement(a) for a in args)
            ] = ConceptElement(value)
        # by (symbol, argument domains, result domain): the options
        self.spaces: dict[tuple, list[FunctionGraph]] = {}

    def domain(self, type_name: str, type_sets: dict[str, tuple], owner: str) -> tuple:
        """The elements search ranges `type_name` over; `owner` names what
        ranges over it in the error a missing bound raises."""
        if type_name == NAT:
            if self.nat_bound is None:
                raise BoundMissing(f"{owner} ranges over {NAT}; set a nat bound")
            return tuple(NaturalElement(i) for i in range(self.nat_bound + 1))
        if type_name == BOOL:
            return (TRUE, FALSE)
        if type_name == CONCEPT:
            return self.concept_elements
        if type_name == UNIVERSE:
            raise BoundMissing(
                f"{owner} ranges over {UNIVERSE}, which model search does not enumerate"
            )
        return type_sets[type_name]

    def _parent_pool(self, name: str, type_sets: dict[str, tuple]) -> tuple:
        pools = [
            self.domain(p, type_sets, f"type {name!r}")
            for p in self.vocab.direct_supertypes(name)
            if p != UNIVERSE
        ]
        if not pools:
            return ()
        return tuple(e for e in pools[0] if all(e in pool for pool in pools[1:]))

    def type_sets(self):
        """Every assignment of the dependent types, in order, each extending
        the base sets. `stack[i]` holds the subsets of the i-th dependent
        type not yet tried; a type's supertypes are declared before it, so
        its pool reads only types fixed above it."""
        type_sets = dict(self.base_sets)
        stack: list[Iterator[tuple]] = []
        while True:
            if len(stack) == len(self.dependents):
                yield dict(type_sets)
            else:
                name = self.dependents[len(stack)]
                stack.append(iter(_nonempty_subsets(self._parent_pool(name, type_sets))))
            while stack and (subset := next(stack[-1], None)) is None:
                stack.pop()
            if not stack:
                return
            type_sets[self.dependents[len(stack) - 1]] = subset

    def space(self, sig: Signature, type_sets: dict[str, tuple]):
        """What enumeration chooses for one symbol: its argument domains,
        its result domain, and the rows concept-function facts pin (none for
        a predicate)."""
        pinned = {} if sig.is_predicate else self.fact_rows.get(sig.name, {})
        owner = f"symbol {sig.name!r}"
        arg_domains = [self.domain(t, type_sets, owner) for t in sig.argument_types]
        return arg_domains, self.domain(sig.result_type, type_sets, owner), pinned

    def option_count(self, sig: Signature, type_sets: dict[str, tuple]) -> int:
        """The number of graph options, computed without building them."""
        arg_domains, result_domain, pinned = self.space(sig, type_sets)
        tuples = math.prod(len(d) for d in arg_domains)
        if sig.is_predicate:
            return 2 ** tuples
        return max(1, len(result_domain)) ** max(0, tuples - len(pinned))

    def options(self, sig: Signature, type_sets: dict[str, tuple]) -> list[FunctionGraph]:
        """The graph options of one symbol, in order, built once per space
        and shared by every type set that gives the symbol the same
        domains."""
        arg_domains, result_domain, pinned = self.space(sig, type_sets)
        key = (sig.name, tuple(arg_domains), result_domain)
        options = self.spaces.get(key)
        if options is not None:
            return options
        tuples = list(itertools.product(*arg_domains))
        options = []
        if sig.is_predicate:
            for mask in range(2 ** len(tuples)):
                true_rows = {t for i, t in enumerate(tuples) if mask & (1 << i)}
                options.append(FunctionGraph.for_predicate(sig.name, true_rows))
        else:
            free_tuples = [t for t in tuples if t not in pinned]
            for values in itertools.product(result_domain, repeat=len(free_tuples)):
                mapping = dict(pinned)
                mapping.update(zip(free_tuples, values))
                options.append(FunctionGraph.for_function(sig.name, mapping))
        self.spaces[key] = options
        return options

    def count(self, cap: int) -> int:
        """The candidate count, with every dependent type at its widest;
        counting stops once it exceeds `cap`."""
        total = 1
        type_sets = dict(self.base_sets)
        for name in self.dependents:
            pool = self._parent_pool(name, type_sets)
            choices = 2 ** len(pool) - 1
            if choices <= 0:
                return 0
            total *= choices
            type_sets[name] = pool
        for sig in self.symbols:
            total *= self.option_count(sig, type_sets)
            if total > cap:
                return total
        return total


class _TypeSetSearch:
    """The search over one type set's graph options, one symbol per level,
    appending models to `results` until it holds `limit` of them. `axioms`
    are the grounded forms of the theory's axioms. `chosen[level]` is the
    option index fixed at each level above the current one, and `subtrees`
    maps a subtree's key to the option indices, from its depth on, of each
    leaf it reached."""

    def __init__(
        self,
        enumeration: _Enumeration,
        type_sets: dict[str, tuple],
        axioms: list[ast.Formula],
        deps: list[frozenset[str]],
        results: list[Structure],
        limit: int | None,
    ):
        self.vocab = enumeration.vocab
        self.nat_bound = enumeration.nat_bound
        self.type_sets = type_sets
        self.axioms = axioms
        self.results = results
        self.limit = limit
        spaces = {s.name: enumeration.options(s, type_sets) for s in enumeration.symbols}
        # a symbol with one option cannot change the order: fix it first
        self.names = sorted(spaces, key=lambda name: len(spaces[name]) != 1)
        self.options = [spaces[name] for name in self.names]
        level = {name: i for i, name in enumerate(self.names)}
        self.declared_levels = [level[name] for name in spaces]
        self.dep_levels = [sorted(level[s] for s in d) for d in deps]
        # depth: the number of fixed symbols once every dependency is fixed
        depths = [levels[-1] + 1 if levels else 0 for levels in self.dep_levels]
        self.checks: list[list[int]] = [[] for _ in range(len(self.names) + 1)]
        for a, depth in enumerate(depths):
            self.checks[depth].append(a)
        # ready[c]: the depth by which axioms 0..c-1 have all been checked
        self.ready = list(itertools.accumulate(depths, max, initial=0))
        # first_reader[level]: the first axiom that reads that level's symbol
        self.first_reader = [
            min(
                (a for a, levels in enumerate(self.dep_levels) if lvl in levels),
                default=len(axioms),
            )
            for lvl in range(len(self.names))
        ]
        # key_levels[depth]: the levels above `depth` read by axioms checked
        # below it; with depth, cut and failure they decide the subtree
        self.key_levels = [
            sorted(
                {
                    lvl
                    for d in range(depth + 1, len(self.names) + 1)
                    for a in self.checks[d]
                    for lvl in self.dep_levels[a]
                    if lvl < depth
                }
            )
            for depth in range(len(self.names) + 1)
        ]
        self.chosen = [0] * len(self.names)
        self.subtrees: dict[tuple, list[tuple[int, ...]]] = {}
        self.reached: list[tuple[int, ...]] = []

    def has_candidates(self) -> bool:
        """Whether any candidate exists and passes validation; candidates of
        one type set pass or fail together, so the first one decides."""
        return all(self.options) and validate_structure(self.vocab, self.candidate()).ok

    def graphs(self, levels) -> dict[str, FunctionGraph]:
        """The chosen graphs of the symbols at `levels`."""
        return {self.names[lvl]: self.options[lvl][self.chosen[lvl]] for lvl in levels}

    def candidate(self) -> Structure:
        """The complete candidate the chosen options make."""
        graphs = self.graphs(self.declared_levels)
        return Structure(self.vocab, dict(self.type_sets), graphs, self.nat_bound)

    def verdict(self, a: int) -> bool | GosilError:
        """Axiom `a`'s grounded form on a structure holding only its
        dependencies' graphs: True, False or the error it raised."""
        graphs = self.graphs(self.dep_levels[a])
        partial = Structure(self.vocab, self.type_sets, graphs, self.nat_bound)
        try:
            return bool(evaluate(partial, self.axioms[a]))
        except GosilError as err:
            # without its traceback an error kept in a subtree key holds no
            # frame, and through it no reference back to this search
            return err.with_traceback(None)

    def leaf(self) -> bool:
        """Emit the complete candidate; True once `limit` models are
        found."""
        self.reached.append(tuple(self.chosen))
        self.results.append(self.candidate())
        return self.limit is not None and len(self.results) >= self.limit

    def descend(self, depth: int, cut: int | None = None, failure=None) -> bool:
        """Search below the first `depth` levels; True once `limit` models
        are found. `cut` is the first axiom known not to hold on this subtree
        (None while every checked axiom holds) and `failure` its verdict:
        False or the error it raised."""
        for a in self.checks[depth]:
            if cut is not None and a >= cut:
                break
            verdict = self.verdict(a)
            if verdict is not True:
                cut, failure = a, verdict
                break
        if cut is not None:
            if self.ready[cut] <= depth:  # every axiom before the cut holds
                if failure is False:
                    return False
                raise failure
        elif depth == len(self.names):
            return self.leaf()
        key = (depth, cut, failure, *[self.chosen[lvl] for lvl in self.key_levels[depth]])
        suffixes = self.subtrees.get(key)
        if suffixes is not None:
            # searched before: the same leaves, through the same leaf step
            for suffix in suffixes:
                self.chosen[depth:] = suffix
                if self.leaf():
                    return True
            return False
        start = len(self.reached)
        options = self.options[depth]
        # below a cut only symbols read by axioms before it can still decide
        # whether one of them raises, so any other symbol keeps one option
        width = 1 if cut is not None and self.first_reader[depth] >= cut else len(options)
        for i in range(width):
            self.chosen[depth] = i
            if self.descend(depth + 1, cut, failure):
                return True
        # a subtree that stopped at `limit` or raised is never stored
        self.subtrees[key] = [leaf[depth:] for leaf in self.reached[start:]]
        return False


def find_models(
    theory: ast.Theory,
    domain_bounds: dict[str, int],
    limit: int | None = None,
    nat_bound: int | None = None,
    explosion_cap: int = DEFAULT_EXPLOSION_CAP,
) -> list[Structure]:
    """All structures over the bounded domains satisfying every axiom, in
    the documented deterministic order, up to `limit`."""
    vocab = theory.vocabulary
    for name in _maximal_user_types(vocab):
        if name not in domain_bounds:
            raise BoundMissing(f"no domain bound for maximal type {name!r}")
        if domain_bounds[name] < 1:
            raise BoundMissing(f"domain bound for {name!r} must be at least 1")
    for t in vocab.types:
        if (
            not t.builtin
            and is_subtype(vocab, t.name, CONCEPT)
            and vocab.extension_of(t.name) is None
        ):
            raise BoundMissing(
                f"concept type {t.name!r} has no declared extension"
            )

    grounded, deps = [], []
    for axiom in theory.axioms:
        try:
            derivation = check_sentence(theory, axiom.formula)
        except TypingError as err:
            raise IllTypedSentence(
                f"axiom {axiom.label!r} is ill-typed: {err.message}", err.loc or axiom.loc
            ) from err
        # the derivation concludes the grounded sentence
        grounded.append(derivation.expr)
        deps.append(grounded_dependencies(vocab, derivation.expr))

    enumeration = _Enumeration(theory, domain_bounds, nat_bound)
    candidates = enumeration.count(explosion_cap)
    if candidates > explosion_cap:
        raise ExplosionGuard(
            f"search space of {candidates} candidates exceeds the cap of "
            f"{explosion_cap}"
        )

    if limit is not None and limit < 1:
        return []
    results: list[Structure] = []
    for type_sets in enumeration.type_sets():
        search = _TypeSetSearch(enumeration, type_sets, grounded, deps, results, limit)
        if search.has_candidates() and search.descend(0):
            break
    return results
