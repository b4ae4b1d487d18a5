import pytest

from test_acceptance import _oracle_structures

from gosil import ast
from gosil.errors import (
    EvaluationError,
    IllTypedSentence,
    RuntimeDerefMismatch,
    StructureError,
    UnassignedVariable,
    UnboundedNatQuantifier,
)
from gosil.parser import parse_formula, parse_term, parse_theory
from gosil.semantics import (
    ConceptElement,
    FunctionGraph,
    NaturalElement,
    PlainElement,
    Structure,
    TruthElement,
    assemble_structure,
    evaluate,
    format_structure,
    format_structures,
    interpretation_of,
    parse_structure,
    satisfies,
    validate_structure,
)
from gosil.vocabulary import ConceptObject, concept_universe, resolve_concept

T = PlainElement("t")
D = PlainElement("d")


def test_s0_is_valid(vocab, s0):
    assert validate_structure(vocab, s0).ok


def test_forced_parts_synthesized(vocab, s0):
    assert s0.elements("Bool") == (TruthElement(True), TruthElement(False))
    assert s0.type_sets["Sound"] == (
        ConceptElement(ConceptObject("meow")),
        ConceptElement(ConceptObject("bark")),
    )
    assert ConceptElement(resolve_concept(vocab, "age")) in s0.elements("Concept")


def test_subtype_containment_violation(vocab):
    _, report = assemble_structure(
        vocab,
        {
            "Animal": (T,),
            "Cat": (T, D),  # d is not an Animal
            "Dog": (T,),
        },
        {},
    )
    assert any(v.kind == "SubtypeContainment" for v in report.violations)


def test_totality_violation(vocab, s0):
    graphs = dict(s0.graphs)
    graphs["age"] = FunctionGraph.for_function("age", {(T,): NaturalElement(3)})
    _, report = assemble_structure(vocab, dict(s0.type_sets), graphs)
    assert any(v.kind == "Totality" for v in report.violations)


def test_empty_type_violation(vocab, s0):
    sets = dict(s0.type_sets)
    sets["Dog"] = ()
    _, report = assemble_structure(vocab, sets, dict(s0.graphs))
    assert any(v.kind == "EmptyType" for v in report.violations)


def test_forced_interpretation_conflicts(vocab, s0):
    sets = dict(s0.type_sets)
    sets["Sound"] = (ConceptElement(ConceptObject("meow")),)
    _, report = assemble_structure(vocab, sets, dict(s0.graphs))
    assert any(v.kind == "ForcedInterpretation" for v in report.violations)


def test_eval_dereferenced_constant(vocab, s0):
    assert evaluate(s0, parse_formula("meow($(`tom)())", vocab)) is True


def test_eval_existential_witness(vocab, s0):
    assert evaluate(s0, parse_formula("?a[Animal]: Cat(a) & meow(a)", vocab)) is True


def test_eval_falsum(vocab, s0):
    assert evaluate(s0, parse_formula("false", vocab)) is False


def test_eval_reference_is_concept_object(vocab, s0):
    value = evaluate(s0, parse_term("`meow", vocab))
    assert value == ConceptElement(ConceptObject("meow"))


def test_eval_arithmetic(vocab, s0):
    assert evaluate(s0, parse_term("age(tom) + 2", vocab)) == NaturalElement(5)
    assert evaluate(s0, parse_term("1 - 2", vocab)) == NaturalElement(0)
    assert evaluate(s0, parse_formula("age(tom) = 3", vocab)) is True


def test_eval_type_predicates_forced(vocab, s0):
    assert evaluate(s0, parse_formula("Cat(a)", vocab, {"a": "Animal"}), {"a": T}) is True
    assert evaluate(s0, parse_formula("Cat(a)", vocab, {"a": "Animal"}), {"a": D}) is False


def test_eval_nat_quantifier_needs_bound(vocab, s0):
    f = parse_formula("?n[Nat]: age(tom) = n", vocab)
    with pytest.raises(UnboundedNatQuantifier):
        evaluate(s0, f)
    bounded = Structure(s0.vocab, s0.type_sets, s0.graphs, nat_bound=5)
    assert evaluate(bounded, f) is True


def test_universe_elements_order(vocab, s0):
    # user types in declaration order, each element once, then Bool, the
    # naturals and the whole concept universe (repeats of concepts included)
    bounded = Structure(s0.vocab, s0.type_sets, s0.graphs, nat_bound=1)
    head = ["d", "t", "`meow", "`bark", "`Cat", "`Dog", "true", "false", "0", "1"]
    concepts = [f"`{c.name}" for c in concept_universe(vocab)]
    assert [e.identifier for e in bounded.elements("Universe")] == head + concepts


def test_eval_unassigned_variable(vocab, s0):
    with pytest.raises(UnassignedVariable):
        evaluate(s0, parse_formula("meow(c)", vocab, {"c": "Cat"}))


def test_eval_rejects_arguments_outside_declared_types(vocab, s0):
    f = parse_formula("meow(a)", vocab, {"a": "Animal"})
    with pytest.raises(EvaluationError):
        evaluate(s0, f, {"a": D})
    g = parse_formula("$(`meow)(a)", vocab, {"a": "Animal"})
    with pytest.raises(RuntimeDerefMismatch):
        evaluate(s0, g, {"a": D})


def test_satisfies_explicit_definition(running_example, vocab, s0, axioms):
    assert satisfies(s0, axioms["making_sound_def"]) is True


def test_satisfies_fails_with_empty_making_sound(vocab, s0, axioms):
    graphs = dict(s0.graphs)
    graphs["makingSound"] = FunctionGraph.for_predicate("makingSound", set())
    silent, report = assemble_structure(vocab, dict(s0.type_sets), graphs)
    assert report.ok
    assert satisfies(silent, axioms["making_sound_def"]) is False


def test_satisfies_truth_everywhere(vocab, s0):
    assert satisfies(s0, ast.Truth(True)) is True


def test_satisfies_rejects_ill_typed(vocab, s0, axioms):
    with pytest.raises(IllTypedSentence):
        satisfies(s0, axioms["tom_barks"])
    with pytest.raises(IllTypedSentence):
        satisfies(s0, axioms["any_sound"])


def test_satisfies_locates_an_ill_typed_sentence(vocab, s0):
    with pytest.raises(IllTypedSentence) as raised:
        satisfies(s0, parse_formula("bark(tom)", vocab))
    assert str(raised.value.loc) == "1:6"
    assert str(raised.value).startswith("1:6: IllTypedSentence: sentence is ill-typed:")


def test_satisfies_builds_each_interpretation_once(monkeypatch, running_example_path, s0_path):
    from gosil.grounding import GroundInterpretation
    from gosil.parser import parse_theory

    # a fresh vocabulary, so that no interpretation is interned on it yet
    theory = parse_theory(running_example_path.read_text())
    axioms = {a.label: a.formula for a in theory.axioms}
    s0 = parse_structure(s0_path.read_text(), theory.vocabulary)
    built = []
    init = GroundInterpretation.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroundInterpretation, "__init__", counted)
    # the structure's interpretation, then its theory's, checked for totality
    assert [satisfies(s0, axioms["compact_def"]) for _ in range(10)] == [True] * 10
    assert len(built) <= 2
    built.clear()
    assert satisfies(s0, axioms["compact_def"]) is True
    assert satisfies(s0, axioms["making_sound_def"]) is True
    with pytest.raises(IllTypedSentence) as raised:
        satisfies(s0, parse_formula("bark(tom)", theory.vocabulary))
    assert str(raised.value).startswith("1:6: IllTypedSentence: sentence is ill-typed:")
    assert built == []


def test_satisfies_intensional_and_wrapped_axioms(s0, axioms):
    for label in (
        "cat_meowing",
        "sound_by_kind",
        "implicit_meow",
        "each_its_sound",
        "implicit_sound_def",
        "compact_def",
        "compact_specific",
        "all_specific",
        "sound_by_witness",
    ):
        assert satisfies(s0, axioms[label]) is True, label


def test_wrapper_evaluation_matches_grounding(running_example, vocab):
    from gosil.grounding import build_intensional_interp, ground

    interp = build_intensional_interp(running_example)
    for text, free in (
        ("?s[Sound]: <<c: $(s)(a)>>", {"a": "Animal"}),
        # concept quantifiers inside the wrapper expand per instance
        ("!a[Animal]: <<c: ?k[Kind]: $(k)(a)>>", {}),
        ("!a[Animal]: <<i: !k[Kind]: $(k)(a) => $(soundOfKind(k))(a)>>", {}),
    ):
        f = parse_formula(text, vocab, free)
        g = ground(f, interp, free)
        for s in _oracle_structures(vocab):
            for asg in [{"a": e} for e in s.elements("Animal")] if free else [{}]:
                assert evaluate(s, f, asg, free) == evaluate(s, g, asg), text


def test_interpretation_extracted_from_structure(running_example, s0):
    interp = interpretation_of(s0)
    assert interp.extensions["Kind"] == (
        ConceptObject("Cat", is_type=True),
        ConceptObject("Dog", is_type=True),
    )
    assert interp.facts[("soundOfKind", (ConceptObject("Dog", is_type=True),))] == (
        ConceptObject("bark")
    )


def test_structure_roundtrip(vocab, s0):
    text = format_structure(s0)
    reparsed = parse_structure(text, vocab)
    assert reparsed == Structure(vocab, s0.type_sets, s0.graphs, None)
    assert format_structure(reparsed) == text


def test_structure_parse_errors(vocab):
    with pytest.raises(StructureError):
        parse_structure("interp nosuch = { }", vocab)
    with pytest.raises(StructureError):
        parse_structure("type Animal = { }", vocab)  # empty type, missing graphs


def test_shortcut_coherence_on_s0(vocab, s0, axioms):
    for label in ("making_sound_def", "all_specific", "sound_by_witness"):
        f = axioms[label]
        assert evaluate(s0, f) == evaluate(s0, ast.desugar(f))


def test_excluded_middle_on_s0(vocab, s0):
    for text in ("meow(tom)", "?a[Animal]: Cat(a) & meow(a)", "bark($(`tom)())"):
        try:
            f = parse_formula(f"({text}) | ~({text})", vocab)
            assert evaluate(s0, f) is True
        except EvaluationError:
            pass  # ill-typed probes may have no value at all


def test_guard_semantic_contract(vocab, s0):
    # on a binding violating the guard, the conjunctive form is false and
    # the implicative form is true; the disjunction of the two wrappers over
    # opposite polarities is then always true
    body = parse_formula("meow(a)", vocab, {"a": "Animal"})
    conjunctive = ast.GuardC(body)
    implicative = ast.GuardI(body)
    types = {"a": "Animal"}
    assert evaluate(s0, conjunctive, {"a": D}, types) is False
    assert evaluate(s0, implicative, {"a": D}, types) is True
    split = ast.Or(ast.GuardC(body), ast.GuardI(ast.Not(body)))
    for element in (T, D):
        assert evaluate(s0, split, {"a": element}, types) is True


def test_format_structures_equals_format_structure_on_each(vocab, s0):
    oracle = _oracle_structures(vocab)
    # runs of one type set, a type set met again after others, and two
    # vocabularies whose structures have equal type sets but different types
    two = parse_theory("type T\ntype U <: T\npred p : T").vocabulary
    one = parse_theory("type T\npred p : T").vocabulary
    x = PlainElement("x")
    sets = {"T": (x,), "U": (x,)}
    structures = oracle[:200] + [s0] + oracle[:3] + [
        Structure(two, sets, {}),
        Structure(one, sets, {}),
        Structure(two, dict(sets), {}),
    ]
    assert list(format_structures(structures)) == [format_structure(s) for s in structures]
    assert list(format_structures([])) == []


def test_code_is_not_found_by_the_id_of_a_freed_equal_formula(vocab, s0):
    # code is found by the id of the formula object it was compiled from:
    # an equal but distinct formula is compiled again, and once this test
    # drops it, its address must not go to the next formula of its node
    # class with the first formula's code
    sentence = parse_formula("?a[Cat]: meow(a)", vocab)
    negated = ast.Not(sentence)
    value = evaluate(s0, ast.Not(sentence))
    for _ in range(50):
        equal = ast.Not(sentence)
        assert evaluate(s0, equal) is value
        del equal
        other = ast.Not(negated)
        assert evaluate(s0, other) is not value
        del other
