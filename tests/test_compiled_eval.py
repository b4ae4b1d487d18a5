"""The compiled evaluator against the tree-walking reference in
reference_eval: every outcome, a value or the exception class and message,
must agree, on the oracle structures, on random formulas, and on
hand-built structures that reach each outcome of an application. Plus the
keys of the per-instance guard memo: answers follow each structure's own
facts, each scope gets its own code, and a failed expansion is never
cached. Plus the sentences evaluated as their grounded forms: random ones,
ones grounding refuses, and ones nested thousands deep or 600 wide."""

from __future__ import annotations

import random
import sys
import threading

import pytest

import reference_eval
from generators import FUZZ_FREE_VARS, fuzz_vocabulary, random_formula
from test_acceptance import _oracle_structures

from gosil import ast, grounding, semantics
from gosil.errors import (
    EvaluationError,
    GosilError,
    GroundArityError,
    IncomparableTypes,
    RuntimeDerefMismatch,
    UnresolvableDeref,
)
from gosil.parser import parse_formula, parse_term, parse_theory
from gosil.semantics import (
    FALSE,
    TRUE,
    ConceptElement,
    FunctionGraph,
    NaturalElement,
    PlainElement,
    Structure,
    TruthElement,
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


# -- applications bound to their signatures ---------------------------------------------


A, B = PlainElement("a"), PlainElement("b")
MEOW_CONCEPT = ConceptElement(resolve_concept(fuzz_vocabulary(), "meow"))
SCOPE = {**FUZZ_FREE_VARS, "w": "Animal"}  # w is never assigned


def _with_graphs(**graphs: FunctionGraph | None) -> Structure:
    """The fuzz structure with some graphs replaced; None drops one. The
    result need not be valid: the evaluator must still agree with the
    reference on it."""
    base = _fuzz_structure()
    merged = {**base.graphs, **graphs}
    kept = {name: g for name, g in merged.items() if g is not None}
    return Structure(base.vocab, base.type_sets, kept, base.nat_bound)


def _expr(text: str):
    """A formula, or a term where `text` starts with "term "."""
    if text.startswith("term "):
        return parse_term(text.removeprefix("term "), fuzz_vocabulary(), SCOPE)
    return parse_formula(text, fuzz_vocabulary(), SCOPE)


DUPLICATE_ROWS = FunctionGraph("age", False, (((A,), NaturalElement(1)), ((A,), NaturalElement(5))))
# Bool-valued symbols given function graphs
MEOW_FUNCTION = FunctionGraph("meow", False, (((A,), FALSE),))
LIKES_FUNCTION = FunctionGraph("likes", False, (((A, A), TRUE),))
RAINING_FUNCTION = FunctionGraph("raining", False, (((), NaturalElement(2)),))


@pytest.mark.parametrize(
    "graphs, text, x, expected",
    [
        # duplicate argument rows: the last one wins, applied and dereferenced
        ({"age": DUPLICATE_ROWS}, "term age(x)", A, ("value", NaturalElement(5))),
        ({"age": DUPLICATE_ROWS}, "$(`age)(x) = 5", A, ("value", True)),
        # a Bool-valued symbol with a function graph
        ({"meow": MEOW_FUNCTION}, "meow(x)", A, ("value", False)),
        ({"meow": MEOW_FUNCTION}, "$(`meow)(x)", A, ("value", False)),
        ({"likes": LIKES_FUNCTION}, "likes(x, x)", A, ("value", True)),
        ({"likes": LIKES_FUNCTION}, "likes(tom, x)", B, "EvaluationError: 'likes' has no value at (a, b)"),
        ({"meow": MEOW_FUNCTION}, "term $(`meow)(x)", A, ("value", FALSE)),
        ({"raining": RAINING_FUNCTION}, "raining", A, "EvaluationError: raining evaluated to 2, not"),
        ({"raining": RAINING_FUNCTION}, "$(`raining)()", A, "EvaluationError: dereference evaluated to 2"),
        # an argument outside its declared type, directly and dereferenced
        ({}, "meow(x)", B, "EvaluationError: 'meow' is undefined at b (not in 'Cat')"),
        ({}, "$(`meow)(x)", B, "RuntimeDerefMismatch: 'meow' is undefined at b (not in 'Cat')"),
        ({}, "likes(x, y)", A, "EvaluationError: 'likes' is undefined at `meow (not in 'Animal')"),
        ({}, "shift(y, x)", A, "EvaluationError: 'shift' is undefined at `meow (not in 'Nat')"),
        # the arguments are evaluated before they are checked
        ({}, "likes(y, w)", A, "UnassignedVariable"),
        # an arity mismatch through a dereference, after the arguments
        ({}, "$(`meow)(x, x)", A, "RuntimeDerefMismatch: 'meow' expects 1 argument(s), got 2"),
        ({}, "$(`meow)(y, w)", A, "UnassignedVariable"),
        # a missing graph, looked up after the arguments are checked
        ({"meow": None}, "meow(x)", A, "EvaluationError: no interpretation for symbol 'meow'"),
        ({"meow": None}, "meow(x)", B, "EvaluationError: 'meow' is undefined at b"),
        ({"meow": None}, "$(`meow)(x)", A, "EvaluationError: no interpretation for symbol 'meow'"),
        # a function with no value at the arguments
        ({"age": FunctionGraph.for_function("age", {(A,): NaturalElement(1)})}, "term age(x)", B,
         "EvaluationError: 'age' has no value at (b)"),
    ],
)
def test_applications_agree_with_reference(graphs, text, x, expected):
    structure = _with_graphs(**graphs)
    got = agree(structure, _expr(text), {"x": x, "y": MEOW_CONCEPT}, SCOPE)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got[0] == "raised" and str(got[2]).startswith(expected), got


@pytest.mark.parametrize(
    "text, expected",
    [
        # => evaluates its antecedents up to the first false one, then the consequent
        ("likes(x, x) => meow(w) => meow(y)", ("value", True)),
        ("meow(x) => likes(x, x) => meow(w)", ("value", True)),
        ("meow(x) => meow(x) => likes(x, x)", ("value", False)),
        ("meow(x) => meow(w) => meow(y)", "UnassignedVariable"),
        ("meow(x) => meow(x) => meow(y)", "EvaluationError: 'meow' is undefined at `meow"),
        ("(meow(w) => likes(x, x)) => meow(y)", "UnassignedVariable"),
        # <=> evaluates every operand in order, however it is nested
        ("meow(x) <=> likes(x, x) <=> likes(x, x)", ("value", True)),
        ("meow(x) <=> (likes(x, x) <=> meow(x))", ("value", False)),
        ("likes(x, x) <=> meow(y) <=> meow(w)", "EvaluationError: 'meow' is undefined at `meow"),
        ("likes(x, x) <=> (meow(w) <=> meow(y))", "UnassignedVariable"),
        ("(likes(x, x) <=> meow(x)) <=> meow(w)", "UnassignedVariable"),
    ],
)
def test_short_chains_agree_with_reference(text, expected):
    got = agree(_fuzz_structure(), _expr(text), {"x": A, "y": MEOW_CONCEPT}, SCOPE)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got[0] == "raised" and str(got[2]).startswith(expected), got


TYPE_PREDICATE_VALUES = (A, B, MEOW_CONCEPT, NaturalElement(0), TRUE)


@pytest.mark.parametrize(
    "type_name, holds",
    [
        ("Universe", (True, True, True, True, True)),
        ("Bool", (False, False, False, False, True)),
        ("Nat", (False, False, False, True, False)),
        ("Concept", (False, False, True, False, False)),
        ("Cat", (True, False, False, False, False)),
        ("Sound", (False, False, True, False, False)),
    ],
)
def test_type_predicates_agree_with_reference(type_name, holds):
    structure = _fuzz_structure()
    forms = (f"{type_name}(y)", f"$(`{type_name})(y)", f"$(`{type_name}^)(y)")
    for value, expected in zip(TYPE_PREDICATE_VALUES, holds):
        asg = {"y": value}
        for text in forms:
            assert agree(structure, _expr(text), asg, SCOPE) == ("value", expected), text
        term = ast.Apply(type_name, (ast.Variable("y"),))
        assert agree(structure, term, asg, SCOPE) == ("value", TruthElement(expected))


@pytest.mark.parametrize(
    "expr, expected",
    [
        (ast.Atom("=_Animal", (ast.Variable("x"), ast.Apply("tom"))), ("value", True)),
        (ast.Apply("=_Animal", (ast.Variable("x"), ast.Variable("x"))), ("value", TRUE)),
        (ast.Atom("=_Cat", (ast.Variable("y"), ast.Variable("x"))), "EvaluationError: '=_Cat' is undefined at `meow"),
        (ast.Atom("+", (ast.NatLiteral(1), ast.NatLiteral(2))), "EvaluationError: + evaluated to 3, not"),
        (ast.Apply("-", (ast.NatLiteral(1), ast.NatLiteral(2))), ("value", NaturalElement(0))),
        (ast.Apply("*", (ast.NatLiteral(2), ast.NatLiteral(3))), ("value", NaturalElement(6))),
        (ast.Apply("+", (ast.NatLiteral(1), ast.Variable("y"))), "EvaluationError: '+' is undefined at `meow"),
        (ast.Apply("unknown", (ast.Variable("w"),)), "EvaluationError: unknown symbol 'unknown'"),
    ],
)
def test_builtins_agree_with_reference(expr, expected):
    got = agree(_fuzz_structure(), expr, {"x": A, "y": MEOW_CONCEPT}, SCOPE)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got[0] == "raised" and str(got[2]).startswith(expected), got


@pytest.mark.parametrize("kind_type", ["Kind", "Universe"])
def test_memo_keeps_concept_bindings_apart(running_example, kind_type):
    # k takes each concept in turn, so the guard has one instance per binding;
    # a is an Animal and never holds a concept, so the guard inside !b is
    # keyed by the interpretation alone
    vocab = running_example.vocabulary
    texts = (
        f"!a[Animal]: ?k[{kind_type}]: <<c: $(soundOfKind(k))(a)>>",
        f"!a[Animal]: !k[{kind_type}]: <<i: $(soundOfKind(k))(a)>>",
        "!a[Animal]: !b[Animal]: <<c: meow(a)>> | <<c: bark(b)>>",
    )
    formulas = [parse_formula(text, vocab) for text in texts]
    kinds = set()
    for structure in _oracle_structures(vocab)[::40]:
        for f in formulas:
            kinds.add(agree(structure, f)[0])
    assert kinds == ({"value", "raised"} if kind_type == "Universe" else {"value"})


# -- grounded-first evaluation ----------------------------------------------------------


FAVOURITE = """
type Animal
type Cat <: Animal
type Dog <: Animal
pred meow : Cat
pred bark : Dog
type Sound <: Concept := { meow, bark }
func favourite : Cat -> Sound
axiom fav: !c[Cat]: $(favourite(c))(c)
"""
FAVOURITE_STRUCTURE = """
type Animal = { t }
type Cat = { t }
type Dog = { t }
interp meow = { t }
interp favourite = { (t) -> `meow }
"""


def test_a_head_only_the_graphs_reduce_is_evaluated_as_written():
    theory = parse_theory(FAVOURITE)
    structure = parse_structure(FAVOURITE_STRUCTURE, theory.vocabulary)
    (axiom,) = theory.axioms
    assert semantics._grounds_first(theory.vocabulary, axiom.formula)
    with pytest.raises(UnresolvableDeref, match=r"head favourite\(c\) does not reduce"):
        grounding.ground(axiom.formula, interpretation_of(structure))
    for _ in range(2):
        assert evaluate(structure, axiom.formula) is True
        assert agree(structure, axiom.formula) == ("value", True)


@pytest.mark.parametrize(
    "text, error, value",
    [
        # meow takes one argument: grounding raises, evaluation never gets there
        ("true | ?c[Concept]: $(c)(tom, tom)", GroundArityError, True),
        ("?a[Animal]: false & $(`meow)(a, a)", GroundArityError, False),
        # a Dog is never a Cat: elaboration raises, evaluation short-circuits
        ("!d[Dog]: false & <<i: meow(d)>>", IncomparableTypes, False),
        # or reaches the wrapper, and raises there as the written form did
        ("(?d[Dog]: <<i: meow(d)>>) | true", IncomparableTypes, "raised"),
    ],
)
def test_a_sentence_grounding_refuses_keeps_its_written_value(running_example, s0, text, error, value):
    sentence = parse_formula(text, running_example.vocabulary)
    assert semantics._grounds_first(running_example.vocabulary, sentence)
    with pytest.raises(error):
        grounding.ground(sentence, interpretation_of(s0))
    got = agree(s0, sentence)
    assert got[0] == value if value == "raised" else got == ("value", value)


# the ten sentences the benchmark evaluates on every oracle structure; six
# of them hold a concept quantifier, a dereference or a guard wrapper
ORACLE_SENTENCES = (
    "cat_meowing", "making_sound_def", "sound_by_witness", "all_specific", "sound_by_kind",
    "implicit_meow", "implicit_sound_def", "each_its_sound", "compact_def", "compact_specific",
)
INTENSIONAL = {"sound_by_kind", "implicit_meow", "implicit_sound_def", "each_its_sound",
               "compact_def", "compact_specific"}


def test_each_intensional_sentence_is_grounded_once_over_the_oracle_structures(
    running_example_path, monkeypatch
):
    # a fresh theory: its vocabulary has compiled nothing yet
    theory = parse_theory(running_example_path.read_text())
    sentences = {a.label: a.formula for a in theory.axioms if a.label in ORACLE_SENTENCES}
    grounded = []
    ground = grounding.ground

    def counted(formula, *args):
        grounded.append(formula)
        return ground(formula, *args)

    monkeypatch.setattr(grounding, "ground", counted)
    structures = _oracle_structures(theory.vocabulary)
    assert len(structures) == 5672
    for structure in structures:
        for sentence in sentences.values():
            evaluate(structure, sentence)
    assert len(grounded) == 6
    assert {id(f) for f in grounded} == {id(sentences[label]) for label in INTENSIONAL}


def test_an_application_grounding_made_of_a_dereference_raises_as_it(running_example, s0):
    # s0 has a dog that is no cat: the grounded meow(d) is applied outside
    # its type, and raises what $(`meow)(d) raises, in the words it does
    vocab = running_example.vocabulary
    for text in ("!a[Animal]: ?s[Sound]: $(s)(a)", "!a[Animal]: $(`meow)(a) | true"):
        sentence = parse_formula(text, vocab)
        assert semantics._grounds_first(vocab, sentence)
        got = agree(s0, sentence)
        assert got[:2] == ("raised", RuntimeDerefMismatch), got
        assert str(got[2]).startswith("RuntimeDerefMismatch: 'meow' is undefined at d")
    structure = _with_graphs(raining=RAINING_FUNCTION)
    sentence = _expr("$(`raining)()")
    assert semantics._grounds_first(structure.vocab, sentence)
    got = agree(structure, sentence)
    assert got[0] == "raised" and str(got[2]).startswith("EvaluationError: dereference evaluated to 2")


def test_a_sentence_with_references_alone_reads_no_interpretation(running_example_path, s0_path):
    theory = parse_theory(running_example_path.read_text())
    structure = parse_structure(s0_path.read_text(), theory.vocabulary)
    sentence = parse_formula("soundOfKind(`Cat) = `meow & ?c[Cat]: meow(c)", theory.vocabulary)
    assert not semantics._grounds_first(theory.vocabulary, sentence)
    assert evaluate(structure, sentence) is True
    assert structure._interp is None


@pytest.mark.parametrize("text", ["!x[Universe]: <<c: meow(x)>>", "?c[Concept]: <<c: meow(tom)>>"])
def test_a_variable_over_universe_keeps_the_written_form(running_example, s0, text):
    # x may hold a concept, which grounding leaves a variable and the
    # written wrapper binds: only a sentence without one is grounded first
    vocab = running_example.vocabulary
    sentence = parse_formula(text, vocab)
    assert semantics._grounds_first(vocab, sentence) is ("Universe" not in text)
    agree(s0, sentence)


def test_random_sentences_agree_with_reference():
    structure = _fuzz_structure()
    vocab = structure.vocab
    interp = interpretation_of(structure)
    rng = random.Random(2_026_1020)
    kinds = {"value": 0, "raised": 0}
    paths = {"grounded": 0, "written": 0, "refused": 0}
    for _ in range(1500):
        sentence = random_formula(rng, vocab, [], depth=4)
        kinds[agree(structure, sentence)[0]] += 1
        if not semantics._grounds_first(vocab, sentence):
            paths["written"] += 1
            continue
        try:
            grounding.ground(sentence, interp)
        except GosilError:
            paths["refused"] += 1
        else:
            paths["grounded"] += 1
    assert kinds["value"] > 500 and kinds["raised"] > 200, kinds
    assert min(paths.values()) > 100, paths


# -- sentences deeper than the recursion limit ----------------------------------------

DEEP_HEAD = "type A\nconst a : A\npred p : A\n"
DEEP = {
    "not": "~" * 3000 + "p(a)",
    "and": " & ".join(["p(a)"] * 5000),
    "or": " | ".join(["p(a)"] * 5000),
    "imp": " => ".join(["p(a)"] * 3000),
    "iff": " <=> ".join(["p(a)"] * 3000),
    "wrapped_and": "<<c: " + " & ".join(["p(a)"] * 5000) + ">>",
    "wrapped_not": "<<c: " + "~" * 3000 + "p(a)>>",
    "concept_and": "?k[K]: " + " & ".join(["$(k)(a)"] * 5000),
    "concept_wrapped": "!k[K]: <<c: " + "~" * 3000 + "$(k)(a)>>",
}
WIDE = [f"p{i}" for i in range(600)]


def reference_outcome(structure, sentence):
    """The reference's outcome, from a thread whose stack and recursion
    limit fit a sentence nested thousands deep."""
    found = []
    limit, size = sys.getrecursionlimit(), threading.stack_size(256 * 2**20)
    sys.setrecursionlimit(100_000)
    try:
        thread = threading.Thread(
            target=lambda: found.append(outcome(reference_eval.evaluate, structure, sentence))
        )
        thread.start()
        thread.join(timeout=300)
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(size)
    assert not thread.is_alive() and found
    return found[0]


@pytest.mark.parametrize("name", DEEP)
@pytest.mark.parametrize("holds", [True, False], ids=["p", "not_p"])
def test_deep_sentences_agree_with_reference(name, holds):
    head = DEEP_HEAD + ("pred q : A\ntype K <: Concept := { p, q }\n" if "concept" in name else "")
    theory = parse_theory(f"{head}axiom {name}: {DEEP[name]}\n")
    rows = "{ x }" if holds else "{ }"
    structure = parse_structure(f"type A = {{ x }}\ninterp a = {{ () -> x }}\ninterp p = {rows}\n",
                                theory.vocabulary)
    (axiom,) = theory.axioms
    got = outcome(evaluate, structure, axiom.formula)  # under the default recursion limit
    assert got[0] == "value", got
    assert got == reference_outcome(structure, axiom.formula)


@pytest.mark.parametrize("held", ["p0", "p599", None])
def test_a_concept_type_600_wide_agrees_with_reference(held):
    theory = parse_theory(
        "type A\nconst a : A\n" + "".join(f"pred {m} : A\n" for m in WIDE)
        + f"type K <: Concept := {{ {', '.join(WIDE)} }}\n"
        + "axiom some: ?k[K]: $(k)(a)\naxiom every: !k[K]: <<i: $(k)(a)>>\n"
    )
    text = "type A = { x }\ninterp a = { () -> x }\n" + (f"interp {held} = {{ x }}\n" if held else "")
    structure = parse_structure(text, theory.vocabulary)
    some, every = (a.formula for a in theory.axioms)
    assert agree(structure, some) == ("value", held is not None)
    assert agree(structure, every) == ("value", False)


def test_a_concept_part_validation_rejects_is_evaluated_as_the_reference_does(running_example, s0):
    # Sound holding a plain element, and soundOfKind with a row at `Sound,
    # outside Kind: the interpretation leaves both out, so grounding
    # refuses and the written form runs
    base = _fuzz_structure()
    sets = {**base.type_sets, "Sound": base.type_sets["Sound"] + (PlainElement("x"),)}
    junk = Structure(base.vocab, sets, base.graphs, base.nat_bound)
    sound = resolve_concept(running_example.vocabulary, "Sound")
    rows = {**s0.graph("soundOfKind").mapping(), (ConceptElement(sound),): MEOW_CONCEPT}
    outside = Structure(
        s0.vocab, s0.type_sets,
        {**s0.graphs, "soundOfKind": FunctionGraph.for_function("soundOfKind", rows)},
    )
    cases = [
        (junk, "?s[Sound]: ~Cat(s) & ~(s = `meow) & ~(s = `bark)", ("value", True)),
        (junk, "?s[Sound]: ~(s = `meow) & ~(s = `bark) & $(s)(tom)",
         "RuntimeDerefMismatch: dereference head evaluated to x"),
        (junk, "?s[Sound]: <<c: $(s)(tom)>>", ("value", True)),
        (outside, "$(soundOfKind(`Sound))(tom)", "EvaluationError: 'soundOfKind' is undefined at `Sound"),
        (outside, "?k[Kind]: $(soundOfKind(k))(tom)", ("value", True)),
    ]
    for structure, text, expected in cases:
        sentence = parse_formula(text, structure.vocab)
        assert semantics._grounds_first(structure.vocab, sentence)
        got = agree(structure, sentence)
        if isinstance(expected, tuple):
            assert got == expected, text
        else:
            assert got[0] == "raised" and str(got[2]).startswith(expected), (text, got)
