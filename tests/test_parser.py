import random
import sys

import pytest

from generators import (
    FUZZ_FREE_VARS,
    fuzz_vocabulary,
    random_formula,
    random_garbage,
)
from gosil import ast
from gosil.errors import ArityError, GosilError, ParseError, UnknownIdentifier
from gosil.parser import parse_formula, parse_term, parse_theory
from gosil.vocabulary import resolve_concept


@pytest.fixture(scope="module")
def fuzz_vocab():
    return fuzz_vocabulary()


def test_example_declarations(running_example):
    vocab = running_example.vocabulary
    user_types = [t.name for t in vocab.types if not t.builtin]
    assert user_types == ["Animal", "Cat", "Dog", "Sound", "Kind"]
    user_symbols = [s.name for s in vocab.signatures if not s.builtin]
    assert user_symbols == ["age", "tom", "meow", "bark", "makingSound", "soundOfKind"]


def test_exists_with_guard_atom(vocab):
    f = parse_formula("?a[Animal]: Cat(a) & meow(a)", vocab)
    assert f == ast.Exists(
        "a",
        "Animal",
        ast.And(
            ast.Atom("Cat", (ast.Variable("a"),)),
            ast.Atom("meow", (ast.Variable("a"),)),
        ),
    )


def test_object_symbol_is_zero_ary_application(vocab):
    t = parse_term("age(tom)", vocab)
    assert t == ast.Apply("age", (ast.Apply("tom", ()),))


def test_dereference_of_reference(vocab):
    f = parse_formula("meow($(`tom)())", vocab)
    assert f == ast.Atom(
        "meow", (ast.Deref(ast.ConceptRef(resolve_concept(vocab, "tom")), ()),)
    )


def test_guard_wrapper_parses(vocab):
    f = parse_formula("<<c: meow(a)>>", vocab, {"a": "Animal"})
    assert f == ast.GuardC(ast.Atom("meow", (ast.Variable("a"),)))
    f = parse_formula("<<i: bark(a)>>", vocab, {"a": "Animal"})
    assert f == ast.GuardI(ast.Atom("bark", (ast.Variable("a"),)))


def test_dangling_comma_is_syntax_error(vocab):
    with pytest.raises(ParseError):
        parse_theory("type Cat\npred meow : Cat\nconst tom : Cat\naxiom bad: meow(tom,")


def test_unknown_identifier_reported(vocab):
    with pytest.raises(UnknownIdentifier):
        parse_formula("oink(tom)", vocab)


def test_arity_error_reported(vocab):
    with pytest.raises(ArityError):
        parse_formula("meow(tom, tom)", vocab)


def test_free_variables_must_be_declared(vocab):
    with pytest.raises(UnknownIdentifier):
        parse_formula("meow(a)", vocab)
    parse_formula("meow(a)", vocab, {"a": "Cat"})


@pytest.mark.parametrize("parse", [parse_formula, parse_term])
def test_free_variable_types_must_be_declared(vocab, parse):
    with pytest.raises(UnknownIdentifier, match="unknown type 'Bogus' for free variable"):
        parse("x", vocab, {"x": "Bogus"})


def test_error_positions():
    try:
        parse_theory("type Animal\ntype Cat <: Mouse")
    except GosilError as err:
        assert err.loc is not None
        assert err.loc.line == 2
    else:
        pytest.fail("expected an error")


def test_precedence_and_associativity(vocab):
    f = parse_formula("~meow(tom) & bark(rex) | true", vocab, {"rex": "Dog"})
    assert isinstance(f, ast.Or)
    assert isinstance(f.left, ast.And)
    assert isinstance(f.left.left, ast.Not)

    f = parse_formula("true => false => true", vocab)
    assert f == ast.Implies(ast.Truth(True), ast.Implies(ast.Truth(False), ast.Truth(True)))

    f = parse_formula("true <=> false <=> true", vocab)
    assert f == ast.Iff(ast.Iff(ast.Truth(True), ast.Truth(False)), ast.Truth(True))


def test_quantifier_body_extends_right(vocab):
    f = parse_formula("?a[Animal]: Cat(a) & meow(a) | bark(a)", vocab)
    assert isinstance(f, ast.Exists)
    assert isinstance(f.body, ast.Or)


def test_arithmetic_terms(vocab):
    t = parse_term("age(tom) + 2 * 3", vocab)
    assert t == ast.Apply(
        "+",
        (
            ast.Apply("age", (ast.Apply("tom", ()),)),
            ast.Apply("*", (ast.NatLiteral(2), ast.NatLiteral(3))),
        ),
    )


def test_equality_atom(vocab):
    f = parse_formula("age(tom) = 3", vocab)
    assert f == ast.Atom(
        "=", (ast.Apply("age", (ast.Apply("tom", ()),)), ast.NatLiteral(3))
    )


def test_statement_separators():
    theory = parse_theory("type A; type B <: A; pred p : B")
    assert theory.vocabulary.has_type("B")


def test_duplicate_axiom_label():
    with pytest.raises(ParseError):
        parse_theory("type A\naxiom x: true\naxiom x: false")


def test_auto_axiom_labels():
    theory = parse_theory("axiom true\naxiom false")
    assert [a.label for a in theory.axioms] == ["ax1", "ax2"]


def test_concept_facts_parsed(running_example):
    facts = {
        (f.function, tuple(a.name for a in f.args)): f.value.name
        for f in running_example.concept_facts
    }
    assert facts == {
        ("soundOfKind", ("Cat",)): "meow",
        ("soundOfKind", ("Dog",)): "bark",
    }


def test_define_requires_concept_function():
    with pytest.raises(ParseError):
        parse_theory("type A\nfunc f : A -> A\nconst c : A\ndefine f(`c) = `c")


DEFINE_HEAD = "type A\npred p : A\npred q : A\ntype K <: Concept := { p, q }\nfunc f : K -> K\n"


@pytest.mark.parametrize(
    "define, error, message, column",
    [
        ("define f(`p, `q) = `q", ArityError, "'f' expects 1 argument(s), got 2", 8),
        ("define f(`nosuch) = `q", UnknownIdentifier, "unknown concept name 'nosuch'", 10),
        ("define f(`p) = `nosuch", UnknownIdentifier, "unknown concept name 'nosuch'", 16),
    ],
    ids=["arity", "unknown_argument", "unknown_value"],
)
def test_a_bad_define_is_located(define, error, message, column):
    with pytest.raises(error) as info:
        parse_theory(DEFINE_HEAD + define)
    assert info.value.message == message
    assert (info.value.loc.line, info.value.loc.column) == (6, column)


def test_free_variable_listing(vocab):
    f = parse_formula("?a[Animal]: meow(b)", vocab, {"b": "Cat"})
    assert ast.free_variables(f) == frozenset({"b"})
    assert ast.free_variables(parse_formula("?a[Animal]: meow(a)", vocab, {})) == frozenset()


def test_print_canonical_forms(vocab):
    cases = [
        "?a[Animal]: Cat(a) & meow(a)",
        "true",
        "$(`bark)(d)",
        "!a[Animal]: makingSound(a) <=> (?s[Sound]: $(s)(a))",
        "<<c: true>>",
        "~(true | false)",
    ]
    for text in cases:
        f = parse_formula(text, vocab, {"d": "Dog"})
        assert ast.format_formula(f) == text


def test_roundtrip_fuzz_small(fuzz_vocab):
    rng = random.Random(20_240_001)
    for _ in range(500):
        f = random_formula(rng, fuzz_vocab, list(FUZZ_FREE_VARS), depth=4)
        text = ast.format_formula(f)
        assert parse_formula(text, fuzz_vocab, FUZZ_FREE_VARS) == f, text


def test_parser_totality_small():
    rng = random.Random(99)
    for _ in range(500):
        text = random_garbage(rng)
        try:
            parse_theory(text)
        except GosilError:
            pass


def test_theory_roundtrip(running_example):
    text = ast.format_theory(running_example)
    reparsed = parse_theory(text)
    assert set(reparsed.vocabulary.types) == set(running_example.vocabulary.types)
    assert reparsed.vocabulary.signatures == running_example.vocabulary.signatures
    assert set(reparsed.vocabulary.extensions) == set(running_example.vocabulary.extensions)
    assert reparsed.concept_facts == running_example.concept_facts
    assert [a.formula for a in reparsed.axioms] == [
        a.formula for a in running_example.axioms
    ]
    assert ast.format_theory(reparsed) == text


def test_minimal_declaration_block_counts():
    theory = parse_theory(
        """
        type Animal
        type Cat <: Animal
        type Dog <: Animal
        func age : Animal -> Nat
        const tom : Cat
        pred bark : Dog
        pred meow : Cat
        """
    )
    assert sum(1 for t in theory.vocabulary.types if not t.builtin) == 3
    assert sum(1 for s in theory.vocabulary.signatures if not s.builtin) == 4


def test_nested_parentheses_cost_linear_work():
    # `primary` reads each `(` first as a term; a `(` that failed as a term
    # is remembered, so deeper levels do not read the rest again. The calls
    # are counted by a profile hook, which adds no frame per level.
    from gosil.parser import _FormulaParser

    code = _FormulaParser.term_primary.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    flat = parse_theory("pred p\naxiom a: p & p\n").axioms[0].formula
    for n in (25, 50, 100, 200):
        text = "pred p\naxiom a: " + "(" * n + "p & p" + ")" * n + "\n"
        calls = 0
        sys.setprofile(count)
        try:
            theory = parse_theory(text)
        finally:
            sys.setprofile(None)
        assert theory.axioms[0].formula == flat
        assert calls <= 3 * n, (n, calls)


def test_remembered_term_failures_raise_the_same_errors(fuzz_vocab):
    # the same parse, or the same error class, message and location, as a
    # parser that forgets every failure and reads each `(` again
    from gosil.parser import TokenStream, _FormulaParser, tokenize

    class Forgetful(_FormulaParser):
        def parenthesized_term(self):
            self._failed_terms.clear()
            return super().parenthesized_term()

    def outcome(parser_class, text):
        stream = TokenStream(tokenize(text))
        try:
            return parser_class(stream, fuzz_vocab, FUZZ_FREE_VARS).formula(), stream.pos
        except ParseError as err:
            return type(err), err.message, err.loc

    pieces = ("(", "(", "(", ")", ")", "x", "z", "tom", "age(", "1", "+", "&", "=", "~",
              "?y[Cat]:", "nosuch", "`meow", "raining", ",")
    rng = random.Random(7)
    for _ in range(3000):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 14)))
        assert outcome(_FormulaParser, text) == outcome(Forgetful, text), text
