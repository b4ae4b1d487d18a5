"""The compiled evaluator against the tree-walking reference in
reference_eval: every outcome, a value or the exception class and message,
must agree. Plus the keys of the per-instance guard memo: answers follow
each structure's own facts, each scope gets its own code, and a failed
expansion is never cached."""

from __future__ import annotations

import random

import pytest

import reference_eval
from generators import FUZZ_FREE_VARS, fuzz_vocabulary, random_formula
from test_acceptance import _oracle_structures

from gosil.errors import EvaluationError, IncomparableTypes, UnresolvableDeref
from gosil.parser import parse_formula
from gosil.semantics import (
    TRUE,
    ConceptElement,
    FunctionGraph,
    NaturalElement,
    PlainElement,
    Structure,
    assemble_structure,
    evaluate,
    interpretation_of,
    parse_structure,
)
from gosil.vocabulary import resolve_concept


def outcome(evaluator, *args):
    try:
        return ("value", evaluator(*args))
    except Exception as err:  # the class and message are what is compared
        return ("raised", type(err), str(err))


def agree(*args) -> tuple:
    compiled = outcome(evaluate, *args)
    assert compiled == outcome(reference_eval.evaluate, *args)
    return compiled


def test_every_oracle_structure_and_axiom(running_example, vocab):
    kinds = set()
    for s in _oracle_structures(vocab):
        for axiom in running_example.axioms:
            kinds.add((axiom.label, agree(s, axiom.formula)[0]))
    # the ill-typed axioms reach their errors on some structures
    assert ("any_sound", "raised") in kinds
    assert ("tom_barks", "raised") in kinds
    assert ("compact_def", "value") in kinds


def _fuzz_structure() -> Structure:
    vocab = fuzz_vocabulary()
    a, b = PlainElement("a"), PlainElement("b")
    nat = NaturalElement
    graphs = {
        "age": FunctionGraph.for_function("age", {(a,): nat(1), (b,): nat(2)}),
        "tom": FunctionGraph.for_function("tom", {(): a}),
        "meow": FunctionGraph.for_predicate("meow", {(a,)}),
        "bark": FunctionGraph.for_predicate("bark", set()),
        "likes": FunctionGraph.for_predicate("likes", {(a, b), (b, b)}),
        "shift": FunctionGraph.for_function(
            "shift", {(nat(i), nat(j)): nat((i + j) % 3) for i in range(3) for j in range(3)}
        ),
        "raining": FunctionGraph.for_predicate("raining", {()}),
    }
    sets = {"Animal": (a, b), "Cat": (a,), "Dog": (b,)}
    structure, report = assemble_structure(vocab, sets, graphs, nat_bound=2)
    assert report.ok, report
    return structure


def test_random_formulas_agree_with_reference():
    structure = _fuzz_structure()
    vocab = structure.vocab
    a = PlainElement("a")
    meow = ConceptElement(resolve_concept(vocab, "meow"))
    # y is Universe-typed: bound to a plain element, a concept, a natural and a truth value
    assignments = [
        {"x": a, "y": y, "z": NaturalElement(2)} for y in (a, meow, NaturalElement(0), TRUE)
    ]
    rng = random.Random(2_026_1017)
    kinds = {"value": 0, "raised": 0}
    for _ in range(1000):
        formula = random_formula(rng, vocab, list(FUZZ_FREE_VARS), depth=4)
        for asg in assignments:
            kinds[agree(structure, formula, asg, FUZZ_FREE_VARS)[0]] += 1
    assert kinds["value"] > 500 and kinds["raised"] > 500, kinds


# -- the guard memo ------------------------------------------------------------------------


_ONE_ANIMAL = """
type Animal = { t }
type Cat = { t }
type Dog = { t }
interp tom = { () -> t }
interp age = { (t) -> 0 }
interp meow = { t }
interp bark = { }
interp makingSound = { }
interp soundOfKind = { (`Cat) -> `%s, (`Dog) -> `%s }
"""


def test_memo_follows_each_structures_facts(vocab):
    # t is a meowing cat and a silent dog; the structures differ only in soundOfKind
    usual = parse_structure(_ONE_ANIMAL % ("meow", "bark"), vocab)
    swapped = parse_structure(_ONE_ANIMAL % ("bark", "meow"), vocab)
    assert interpretation_of(usual) is not interpretation_of(swapped)
    again = parse_structure(_ONE_ANIMAL % ("meow", "bark"), vocab)
    assert interpretation_of(again) is interpretation_of(usual)
    f = parse_formula("!a[Animal]: <<c: $(soundOfKind(`Cat))(a)>>", vocab)
    for _ in range(3):
        for s, expected in ((usual, True), (swapped, False)):
            assert evaluate(s, f) is expected
            assert reference_eval.evaluate(s, f) is expected


def test_memo_separates_variable_types(vocab, s0):
    f = parse_formula("<<c: meow(x)>>", vocab, {"x": "Animal"})
    d = {"x": PlainElement("d")}
    for _ in range(2):
        # as an Animal, d fails the guard Cat(d); typed Cat, meow is applied outside its type
        assert evaluate(s0, f, d, {"x": "Animal"}) is False
        with pytest.raises(EvaluationError, match="'meow' is undefined at d"):
            evaluate(s0, f, d, {"x": "Cat"})
        for types in ({"x": "Animal"}, {"x": "Cat"}):
            agree(s0, f, d, types)


@pytest.mark.parametrize(
    "text, types, error",
    [
        ("<<c: $(soundOfKind(`Animal))(x)>>", {"x": "Animal"}, UnresolvableDeref),
        ("<<i: meow(x)>>", {"x": "Dog"}, IncomparableTypes),
    ],
)
def test_failed_expansion_raises_every_time(vocab, s0, text, types, error):
    f = parse_formula(text, vocab, {"x": "Animal"})
    first = None
    for _ in range(3):
        with pytest.raises(error) as raised:
            evaluate(s0, f, {"x": PlainElement("d")}, types)
        assert first is None or str(raised.value) == first
        first = str(raised.value)
        agree(s0, f, {"x": PlainElement("d")}, types)
