import random
from dataclasses import replace
from pathlib import Path

import pytest

from generators import random_vocabulary
from gosil.errors import (
    CyclicSubtyping,
    DuplicateSymbol,
    DuplicateType,
    ExtensionOnNonConceptType,
    UnknownExtensionMember,
    UnknownSupertype,
    UnknownType,
)
from gosil.parser import parse_theory
from gosil.vocabulary import (
    BOOL,
    CONCEPT,
    NAT,
    UNIVERSE,
    ConceptExtension,
    Signature,
    TypeSymbol,
    base_vocabulary,
    concept_universe,
    declare_symbol,
    declare_type,
    is_subtype,
    least_common_supertype,
    validate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def animals():
    vocab = base_vocabulary()
    vocab = declare_type(vocab, "Animal", [])
    vocab = declare_type(vocab, "Cat", ["Animal"])
    vocab = declare_type(vocab, "Dog", ["Animal"])
    vocab = declare_symbol(vocab, "age", ["Animal"], NAT)
    vocab = declare_symbol(vocab, "tom", [], "Cat")
    vocab = declare_symbol(vocab, "bark", ["Dog"], BOOL)
    vocab = declare_symbol(vocab, "meow", ["Cat"], BOOL)
    return vocab


def test_declared_subtype_paths(animals):
    assert is_subtype(animals, "Cat", "Animal")
    assert is_subtype(animals, "Cat", UNIVERSE)
    assert is_subtype(animals, "Cat", "Cat")
    assert not is_subtype(animals, "Animal", "Cat")


def test_implicit_universe_edge():
    vocab = declare_type(base_vocabulary(), "T", [])
    assert is_subtype(vocab, "T", UNIVERSE)


def test_builtins_below_universe():
    vocab = base_vocabulary()
    for name in (BOOL, NAT, CONCEPT):
        assert is_subtype(vocab, name, UNIVERSE)


def test_self_supertype_rejected():
    with pytest.raises(CyclicSubtyping):
        declare_type(base_vocabulary(), "Cat", ["Cat"])


def test_duplicate_type_rejected(animals):
    with pytest.raises(DuplicateType):
        declare_type(animals, "Cat", [])


def test_unknown_supertype_rejected():
    with pytest.raises(UnknownSupertype):
        declare_type(base_vocabulary(), "Cat", ["Animal"])


def test_duplicate_symbol_rejected(animals):
    with pytest.raises(DuplicateSymbol):
        declare_symbol(animals, "age", [], NAT)
    with pytest.raises(DuplicateSymbol):
        declare_symbol(animals, "Cat", [], NAT)  # collides with type predicate


def test_unknown_type_in_signature(animals):
    with pytest.raises(UnknownType):
        declare_symbol(animals, "f", ["Mouse"], NAT)


def test_predicate_classification(animals):
    assert animals.signature("bark").is_predicate
    assert not animals.signature("age").is_predicate
    assert animals.signature("tom").argument_types == ()


def test_extension_requires_concept_supertype(animals):
    with pytest.raises(ExtensionOnNonConceptType):
        declare_type(animals, "Bad", ["Animal"], ConceptExtension("Bad", ("meow",)))
    with pytest.raises(ExtensionOnNonConceptType):
        declare_type(animals, "Bad", [], ConceptExtension("Bad", ("meow",)))


def test_extension_members_must_exist(animals):
    with pytest.raises(UnknownExtensionMember):
        declare_type(animals, "Sound", [CONCEPT], ConceptExtension("Sound", ("oink",)))


def test_concept_type_declaration(animals):
    vocab = declare_type(
        animals, "Sound", [CONCEPT], ConceptExtension("Sound", ("meow", "bark"))
    )
    assert vocab.extension_of("Sound").members == ("meow", "bark")
    assert is_subtype(vocab, "Sound", CONCEPT)


def test_type_predicate_signature(animals):
    sig = animals.signature("Cat")
    assert sig == Signature("Cat", (UNIVERSE,), BOOL, builtin=True)


def test_concept_universe_contains_running_example(animals):
    names = {str(c) for c in concept_universe(animals)}
    expected = {"~Bool", "~Nat", "~Animal", "~Cat", "~Dog", "~age", "~tom", "~bark", "~meow"}
    assert expected <= names


def test_concept_universe_distinguishes_type_and_predicate(animals):
    names = [str(c) for c in concept_universe(animals)]
    assert "~Cat" in names and "~Cat^" in names


def test_concept_universe_of_base_vocabulary():
    names = {str(c) for c in concept_universe(base_vocabulary())}
    assert {"~Bool", "~Nat", "~Universe", "~Concept", "~+", "~-", "~*"} <= names


def test_concept_universe_monotone(animals):
    before = set(concept_universe(animals))
    after = set(concept_universe(declare_symbol(animals, "f", [], NAT)))
    added = {str(c) for c in after - before}
    assert added == {"~f"}


def test_validate_running_example_clean(animals):
    assert validate(animals).ok


def test_validate_reports_bad_extension(animals):
    from dataclasses import replace

    broken = replace(
        animals, extensions=animals.extensions + (ConceptExtension("Cat", ("meow",)),)
    )
    kinds = {v.kind for v in validate(broken).violations}
    assert "ExtensionOnNonConceptType" in kinds

    broken = declare_type(
        animals, "Sound", [CONCEPT], ConceptExtension("Sound", ("meow",))
    )
    broken = replace(
        broken,
        extensions=(ConceptExtension("Sound", ("meow", "oink")),),
    )
    kinds = {v.kind for v in validate(broken).violations}
    assert "UnknownExtensionMember" in kinds


def test_declarations_are_persistent(animals):
    extended = declare_type(animals, "Mouse", ["Animal"])
    extended = declare_symbol(extended, "squeak", ["Mouse"], BOOL)
    assert is_subtype(animals, "Cat", "Animal")
    assert animals.signature("meow") == extended.signature("meow")
    assert not animals.has_type("Mouse")


def test_least_common_supertype(animals):
    assert least_common_supertype(animals, "Cat", "Animal") == "Animal"
    assert least_common_supertype(animals, "Cat", "Dog") == "Animal"
    assert least_common_supertype(animals, "Cat", NAT) == UNIVERSE
    assert least_common_supertype(animals, "Cat", "Cat") == "Cat"


def test_subtyping_is_partial_order():
    rng = random.Random(7)
    for _ in range(50):
        vocab = random_vocabulary(rng, max_types=12)
        names = vocab.type_names()
        for a in names:
            assert is_subtype(vocab, a, a)
        for a in names:
            for b in names:
                if is_subtype(vocab, a, b) and is_subtype(vocab, b, a):
                    assert a == b
                for c in names:
                    if is_subtype(vocab, a, b) and is_subtype(vocab, b, c):
                        assert is_subtype(vocab, a, c)


def _reachable(vocab, sub: str, super_: str) -> bool:
    """Subtyping by a search over `direct_edges` alone."""
    seen, todo = {sub}, [sub]
    while todo:
        node = todo.pop()
        for a, b in vocab.direct_edges:
            if a == node and b not in seen:
                seen.add(b)
                todo.append(b)
    return super_ in seen


def _subtype_vocabularies():
    for name in ("running_example", "sounds", "mixed_locations"):
        yield parse_theory((FIXTURES / f"{name}.gos").read_text()).vocabulary
    rng = random.Random(23)
    for _ in range(30):
        yield random_vocabulary(rng, max_types=12)


def test_is_subtype_agrees_with_a_search_over_the_edges_cold_and_warm():
    for vocab in _subtype_vocabularies():
        names = vocab.type_names()
        expected = {(a, b): _reachable(vocab, a, b) for a in names for b in names}
        for a, b in expected:  # each pair on a copy whose ancestor cache is empty
            assert is_subtype(replace(vocab), a, b) == expected[a, b], (a, b)
        for _ in range(2):  # the first pass fills the cache, the second reads it
            assert {pair: is_subtype(vocab, *pair) for pair in expected} == expected


def test_is_subtype_names_an_unknown_subtype_before_an_unknown_supertype(animals):
    for warm in (False, True):
        if warm:
            assert is_subtype(animals, "Cat", "Animal")
            # the ancestor set of an undeclared name is never cached
            assert least_common_supertype(animals, "Nope", "Nope") == "Nope"
        with pytest.raises(UnknownType, match="'Nope'"):
            is_subtype(animals, "Nope", "Nada")
        with pytest.raises(UnknownType, match="'Nope'"):
            is_subtype(animals, "Nope", "Nope")
        with pytest.raises(UnknownType, match="'Nope'"):
            is_subtype(animals, "Nope", "Animal")
        with pytest.raises(UnknownType, match="'Nada'"):
            is_subtype(animals, "Cat", "Nada")


def test_every_type_below_universe_small():
    rng = random.Random(11)
    for _ in range(25):
        vocab = random_vocabulary(rng, max_types=10)
        for name in vocab.type_names():
            if name != UNIVERSE:
                assert is_subtype(vocab, name, UNIVERSE)


def test_equality_family_present(animals):
    names = {sig.name for sig in animals.equality_signatures}
    assert {"=_Animal", "=_Cat", "=_Dog", "=_Nat", "=_Bool"} <= names
    sig = [s for s in animals.equality_signatures if s.name == "=_Cat"][0]
    assert sig.argument_types == ("Cat", "Cat") and sig.result_type == BOOL


def test_validate_flags_missing_arithmetic(animals):
    broken = replace(
        animals, signatures=tuple(s for s in animals.signatures if s.name != "+")
    )
    kinds = {v.kind for v in validate(broken).violations}
    assert "MissingBuiltin" in kinds


def test_replace_starts_fresh_caches(animals):
    assert is_subtype(animals, "Cat", "Animal")
    assert animals.signature("tom") is not None
    no_edge = replace(
        animals, direct_edges=tuple(e for e in animals.direct_edges if e != ("Cat", "Animal"))
    )
    assert no_edge._ancestors is not animals._ancestors
    assert not is_subtype(no_edge, "Cat", "Animal")
    assert no_edge.direct_supertypes("Cat") == ()
    no_tom = replace(animals, signatures=tuple(s for s in animals.signatures if s.name != "tom"))
    assert no_tom.signature("tom") is None
    assert no_tom.resolve("tom") is None
    assert is_subtype(no_tom, "Cat", "Animal")


def test_resolve_covers_every_applicable_name(animals):
    assert animals.resolve("meow") == animals.signature("meow")
    assert animals.resolve("Cat") == Signature("Cat", (UNIVERSE,), BOOL, builtin=True)
    assert animals.resolve("=_Cat") == Signature("=_Cat", ("Cat", "Cat"), BOOL, builtin=True)
    assert animals.signature("=_Cat") is None
    for name in ("=_Mouse", "=_", "undeclared"):
        assert animals.resolve(name) is None


def test_equality_spelled_symbol_rejected(animals):
    # `resolve` answers `=_Cat` with Cat's equality, so a symbol of that
    # name could be declared but never applied
    with pytest.raises(DuplicateSymbol):
        declare_symbol(animals, "=_Cat", ["Cat"], BOOL)
    # before its type exists the name is free, and the type is then refused
    early = declare_symbol(animals, "=_Mouse", ["Cat"], BOOL)
    assert early.resolve("=_Mouse") == early.signature("=_Mouse")
    with pytest.raises(DuplicateType):
        declare_type(early, "Mouse", [])


def test_equality_spelled_type_rejected(animals):
    # `resolve` answers `=_Cat` with Cat's equality, so a type of that name
    # would have a type predicate that could never be applied
    with pytest.raises(DuplicateType):
        declare_type(animals, "=_Cat", [])


def test_validate_reports_equality_spelled_type(animals):
    from dataclasses import replace

    shadowed = replace(
        animals,
        types=animals.types + (TypeSymbol("=_Cat"),),
        direct_edges=animals.direct_edges + (("=_Cat", UNIVERSE),),
    )
    violations = [v for v in validate(shadowed).violations if v.where == "=_Cat"]
    assert [v.kind for v in violations] == ["DuplicateType"]
    assert "equality" in violations[0].message


def test_validate_reports_equality_spelled_symbol(animals):
    from dataclasses import replace

    shadowed = replace(
        animals, signatures=animals.signatures + (Signature("=_Cat", ("Cat",), BOOL),)
    )
    violations = [v for v in validate(shadowed).violations if v.where == "=_Cat"]
    assert [v.kind for v in violations] == ["DuplicateSymbol"]
    assert "equality" in violations[0].message
    assert validate(animals).ok
