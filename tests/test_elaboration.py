import pytest

from reference_walkers import has_guards

from gosil import ast
from gosil.elaboration import guard_targets
from gosil.errors import IncomparableTypes
from gosil.grounding import elaborate
from gosil.parser import parse_formula
from gosil.typecheck import VarEntry, initial_context, typecheck


@pytest.fixture
def ctx_a(vocab):
    return initial_context(vocab).push(VarEntry("a", "Animal"))


def test_single_target(vocab, ctx_a):
    body = parse_formula("meow(a)", vocab, {"a": "Animal"})
    targets = guard_targets(ctx_a, body)
    assert [(str(t.term), t.expected_type, t.principal_type) for t in targets] == [
        ("a", "Cat", "Animal")
    ]


def test_no_target_when_argument_fits(vocab):
    ctx = initial_context(vocab).push(VarEntry("c", "Cat"))
    body = parse_formula("meow(c)", vocab, {"c": "Cat"})
    assert guard_targets(ctx, body) == []


def test_two_targets_in_order(vocab, ctx_a):
    body = parse_formula("meow(a) & bark(a)", vocab, {"a": "Animal"})
    targets = guard_targets(ctx_a, body)
    assert [(str(t.term), t.expected_type) for t in targets] == [
        ("a", "Cat"),
        ("a", "Dog"),
    ]


def test_duplicate_occurrences_deduplicated(vocab, ctx_a):
    body = parse_formula("meow(a) & meow(a)", vocab, {"a": "Animal"})
    targets = guard_targets(ctx_a, body)
    assert len(targets) == 1


def test_incomparable_types_rejected(vocab):
    ctx = initial_context(vocab).push(VarEntry("n", "Nat"))
    body = parse_formula("meow(n)", vocab, {"n": "Nat"})
    with pytest.raises(IncomparableTypes):
        guard_targets(ctx, body)


def test_occurrences_under_inner_binders_are_skipped(vocab, ctx_a):
    body = parse_formula("?c[Cat]: meow(c) & bark(a)", vocab, {"a": "Animal"})
    targets = guard_targets(ctx_a, body)
    assert [(str(t.term), t.expected_type) for t in targets] == [("a", "Dog")]


def test_elaborate_example_conjunctive(vocab):
    ctx = initial_context(vocab)
    f = parse_formula("?a[Animal]: <<c: meow(a)>>", vocab)
    assert elaborate(ctx, f) == parse_formula("?a[Animal]: Cat(a) & meow(a)", vocab)


def test_elaborate_example_implicative(vocab, axioms):
    ctx = initial_context(vocab)
    assert elaborate(ctx, axioms["each_its_sound"]) == axioms["all_specific"]


def test_elaborate_iff_definition(vocab, axioms):
    ctx = initial_context(vocab)
    assert elaborate(ctx, axioms["implicit_sound_def"]) == axioms["making_sound_def"]


def test_empty_guard_disappears(vocab):
    ctx = initial_context(vocab)
    assert elaborate(ctx, parse_formula("<<c: true>>", vocab)) == ast.Truth(True)
    assert elaborate(ctx, parse_formula("<<i: true>>", vocab)) == ast.Truth(True)


def test_identity_on_wrapper_free(vocab, axioms):
    ctx = initial_context(vocab)
    f = axioms["making_sound_def"]
    assert elaborate(ctx, f) == f


def test_idempotence(vocab, axioms):
    ctx = initial_context(vocab)
    for label in ("implicit_meow", "each_its_sound", "implicit_sound_def"):
        once = elaborate(ctx, axioms[label])
        assert elaborate(ctx, once) == once


def test_guard_freeness(vocab, axioms):
    ctx = initial_context(vocab)
    for label in ("implicit_meow", "each_its_sound", "implicit_sound_def"):
        assert not has_guards(elaborate(ctx, axioms[label]))


def test_elaborated_output_typechecks(vocab, axioms):
    ctx = initial_context(vocab)
    for label in ("implicit_meow", "each_its_sound", "implicit_sound_def"):
        d = typecheck(ctx, elaborate(ctx, axioms[label]))
        assert d.type_name == "Bool"


def test_nested_wrappers_elaborate_innermost_first(vocab):
    f = parse_formula("<<i: <<c: meow(a)>> >>", vocab, {"a": "Animal"})
    ctx = initial_context(vocab).push(VarEntry("a", "Animal"))
    out = elaborate(ctx, f)
    # the inner wrapper contributes its Cat guard; the outer wrapper scans
    # the expanded body under the ambient context and guards meow's
    # occurrence again
    assert out == parse_formula(
        "Cat(a) => Cat(a) & meow(a)", vocab, {"a": "Animal"}
    )
