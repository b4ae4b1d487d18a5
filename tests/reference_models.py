"""The generate-and-test model finder that gosil.models replaced, kept as
a test-only oracle: it builds every candidate, validates it, and evaluates
the axioms in declaration order, stopping at the first false one. Only the
imports differ from the original, and the location that `IllTypedSentence`
carries, which the library added later."""

from __future__ import annotations

import itertools

from gosil import ast
from gosil.errors import BoundMissing, ExplosionGuard, TypingError, IllTypedSentence
from gosil.grounding import build_intensional_interp
from gosil.semantics import (
    FALSE,
    TRUE,
    ConceptElement,
    FunctionGraph,
    NaturalElement,
    PlainElement,
    Row,
    Structure,
    _forced_type_sets,
    evaluate,
    validate_structure,
)
from gosil.typecheck import check_sentence
from gosil.vocabulary import (
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


def _symbol_domains(
    vocab: Vocabulary,
    sig: Signature,
    type_sets: dict[str, tuple],
    nat_bound: int | None,
    concept_elements: tuple,
):
    def domain(type_name: str) -> tuple:
        if type_name == NAT:
            if nat_bound is None:
                raise BoundMissing(
                    f"symbol {sig.name!r} ranges over {NAT}; set a nat bound"
                )
            return tuple(NaturalElement(i) for i in range(nat_bound + 1))
        if type_name == BOOL:
            return (TRUE, FALSE)
        if type_name == CONCEPT:
            return concept_elements
        if type_name == UNIVERSE:
            raise BoundMissing(
                f"symbol {sig.name!r} ranges over {UNIVERSE}, which model "
                "search does not enumerate"
            )
        return type_sets[type_name]

    return [domain(t) for t in sig.argument_types], domain(sig.result_type)


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

    for axiom in theory.axioms:
        try:
            check_sentence(theory, axiom.formula)
        except TypingError as err:
            raise IllTypedSentence(
                f"axiom {axiom.label!r} is ill-typed: {err.message}", err.loc or axiom.loc
            ) from err

    carriers: dict[str, tuple] = {
        name: tuple(
            PlainElement(f"{name.lower()}{i}") for i in range(domain_bounds[name])
        )
        for name in _maximal_user_types(vocab)
    }
    forced_types = _forced_type_sets(vocab)
    concept_elements = Structure(vocab, {}, {}).elements(CONCEPT)

    dependents = _dependent_user_types(vocab)
    interp = build_intensional_interp(theory)

    def parent_pool(name: str, type_sets: dict[str, tuple]) -> tuple:
        pools = []
        for p in vocab.direct_supertypes(name):
            if p == UNIVERSE:
                continue
            pools.append(type_sets[p])
        if not pools:
            return ()
        common = [e for e in pools[0] if all(e in pool for pool in pools[1:])]
        return tuple(common)

    # candidate counting before enumeration
    def count_candidates() -> int:
        total = 1
        type_sets = dict(carriers)
        type_sets.update(forced_types)
        for name in dependents:
            pool = parent_pool(name, type_sets)
            choices = 2 ** len(pool) - 1
            if choices <= 0:
                return 0
            total *= choices
            type_sets[name] = pool  # widest possibility, for pool computation
        for sig in vocab.signatures:
            if sig.builtin:
                continue
            arg_domains, result_domain = _symbol_domains(
                vocab, sig, type_sets, nat_bound, concept_elements
            )
            tuples = 1
            for d in arg_domains:
                tuples *= len(d)
            if sig.is_predicate:
                total *= 2 ** tuples
            else:
                forced_rows = sum(
                    1 for (fname, _args) in interp.facts if fname == sig.name
                )
                total *= max(1, len(result_domain)) ** max(0, tuples - forced_rows)
            if total > explosion_cap:
                return total
        return total

    candidates = count_candidates()
    if candidates > explosion_cap:
        raise ExplosionGuard(
            f"search space of {candidates} candidates exceeds the cap of "
            f"{explosion_cap}"
        )

    fact_rows: dict[str, dict[Row, object]] = {}
    for (fname, args), value in interp.facts.items():
        fact_rows.setdefault(fname, {})[
            tuple(ConceptElement(a) for a in args)
        ] = ConceptElement(value)

    results: list[Structure] = []

    def instantiate_types(index: int, type_sets: dict[str, tuple]):
        if index == len(dependents):
            yield dict(type_sets)
            return
        name = dependents[index]
        pool = parent_pool(name, type_sets)
        for subset in _nonempty_subsets(pool):
            type_sets[name] = subset
            yield from instantiate_types(index + 1, type_sets)
        type_sets.pop(name, None)

    def instantiate_symbols(sigs: list[Signature], type_sets: dict[str, tuple]):
        if not sigs:
            yield {}
            return
        sig, rest = sigs[0], sigs[1:]
        arg_domains, result_domain = _symbol_domains(
            vocab, sig, type_sets, nat_bound, concept_elements
        )
        tuples = list(itertools.product(*arg_domains))
        if sig.is_predicate:
            options = []
            for mask in range(2 ** len(tuples)):
                true_rows = {t for i, t in enumerate(tuples) if mask & (1 << i)}
                options.append(FunctionGraph.for_predicate(sig.name, true_rows))
        else:
            pinned = fact_rows.get(sig.name, {})
            free_tuples = [t for t in tuples if t not in pinned]
            options = []
            for values in itertools.product(result_domain, repeat=len(free_tuples)):
                mapping = dict(pinned)
                mapping.update(zip(free_tuples, values))
                options.append(FunctionGraph.for_function(sig.name, mapping))
        for graph in options:
            for others in instantiate_symbols(rest, type_sets):
                yield {sig.name: graph, **others}

    user_sigs = [s for s in vocab.signatures if not s.builtin]
    base_sets = dict(carriers)
    base_sets.update(forced_types)
    for type_sets in instantiate_types(0, dict(base_sets)):
        for graphs in instantiate_symbols(user_sigs, type_sets):
            structure = Structure(vocab, dict(type_sets), graphs, nat_bound)
            if not validate_structure(vocab, structure).ok:
                continue
            if all(
                evaluate(structure, axiom.formula) for axiom in theory.axioms
            ):
                results.append(structure)
                if limit is not None and len(results) >= limit:
                    return results
    return results
