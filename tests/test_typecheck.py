import random
from dataclasses import replace

import pytest

import reference_typecheck as ref_checker
from generators import guarded_dereference_instance, random_vocabulary
from gosil import ast
from gosil.errors import TypingError
from gosil.parser import parse_formula, parse_theory
from gosil.typecheck import (
    TermEntry,
    VarEntry,
    check_sentence,
    derivation_to_dict,
    derive_term,
    initial_context,
    principal_type,
    render_derivation,
    typecheck,
    validate_derivation,
)
from gosil.vocabulary import BOOL, UNIVERSE, Signature, declare_symbol


def spine(derivation):
    return derivation.rule, [p.rule for p in derivation.premises]


def test_initial_context_entries(vocab):
    ctx = initial_context(vocab)
    assert ctx.lookup_symbol("meow") == Signature("meow", ("Cat",), BOOL)
    assert ctx.lookup_symbol("Cat") == Signature("Cat", (UNIVERSE,), BOOL, builtin=True)
    assert ctx.lookup_symbol("undeclared") is None


def test_initial_context_of_base_vocabulary():
    from gosil.vocabulary import base_vocabulary

    ctx = initial_context(base_vocabulary())
    assert ctx.lookup_symbol("+") is not None
    assert ctx.lookup_symbol("meow") is None


def test_principal_type_with_subsumption(vocab):
    ctx = initial_context(vocab)
    t = parse_formula("age(tom) = 0", vocab).args[0]
    assert principal_type(ctx, t) == "Nat"
    d = derive_term(ctx, t)
    assert d.rule == "T-app"
    assert d.premises[0].rule == "T-sub"  # tom : Cat used at Animal
    assert d.premises[0].premises[0].rule == "T-app"


def test_concept_reference_types_as_concept(vocab):
    from gosil.parser import parse_term

    ctx = initial_context(vocab)
    assert principal_type(ctx, parse_term("`meow", vocab)) == "Concept"


def test_bark_tom_mismatch(vocab):
    ctx = initial_context(vocab)
    with pytest.raises(TypingError) as info:
        typecheck(ctx, parse_formula("bark(tom)", vocab))
    assert info.value.kind == "ArgumentTypeMismatch"
    assert info.value.expected == "Dog"
    assert info.value.found == "Cat"


def test_term_entry_shadows_var_entry(vocab):
    ctx = initial_context(vocab).push(
        VarEntry("a", "Animal"), TermEntry(ast.Variable("a"), "Cat")
    )
    assert principal_type(ctx, ast.Variable("a")) == "Cat"


def test_inner_quantifier_shadows_guard_annotation(vocab):
    ctx = initial_context(vocab).push(
        VarEntry("a", "Animal"),
        TermEntry(ast.Variable("a"), "Cat"),
        VarEntry("a", "Dog"),
    )
    assert principal_type(ctx, ast.Variable("a")) == "Dog"


def test_rebinding_blocks_compound_term_entry(vocab):
    term = parse_formula("age(a) = 0", vocab, {"a": "Animal"}).args[0]
    ctx = initial_context(vocab).push(
        VarEntry("a", "Animal"), TermEntry(term, "Nat"), VarEntry("a", "Cat")
    )
    # the annotation mentions `a`, which was re-bound above it
    d = derive_term(ctx, term)
    assert d.rule == "T-app"


def test_example_derivation_tree(running_example, axioms):
    d = check_sentence(running_example, axioms["cat_meowing"])
    assert spine(d) == ("T-ex", ["G-c"])
    guard = d.premises[0]
    assert spine(guard) == ("G-c", ["T-sub", "T-app"])
    assert spine(guard.premises[0]) == ("T-sub", ["T-var"])
    assert guard.premises[0].conclusion() == "a : Universe"
    assert guard.premises[0].premises[0].conclusion() == "a : Animal"
    assert guard.premises[1].premises[0].conclusion() == "a : Cat"
    assert validate_derivation(running_example.vocabulary, d)


def test_example_derivation_rendering(running_example, axioms):
    text = render_derivation(check_sentence(running_example, axioms["cat_meowing"]))
    assert text == "\n".join(
        [
            "T-ex ⊢ ?a[Animal]: Cat(a) & meow(a) : Bool  [1 premise]",
            "  G-c ⊢ Cat(a) & meow(a) : Bool  [2 premises]",
            "    T-sub ⊢ a : Universe  [1 premise]",
            "      T-var ⊢ a : Animal",
            "    T-app ⊢ meow(a) : Bool  [1 premise]",
            "      T-var ⊢ a : Cat",
        ]
    )


def test_true_or_false_derivation(vocab):
    d = typecheck(initial_context(vocab), parse_formula("true | false", vocab))
    assert spine(d) == ("T-or", ["T-tr", "T-fa"])
    assert render_derivation(d.premises[0]) == "T-tr ⊢ true : Bool"


def test_unguarded_meow_rejected(vocab):
    with pytest.raises(TypingError) as info:
        typecheck(initial_context(vocab), parse_formula("?a[Animal]: meow(a)", vocab))
    assert info.value.kind == "ArgumentTypeMismatch"
    assert info.value.expected == "Cat"
    assert info.value.found == "Animal"


def test_implication_guarding(vocab):
    f = parse_formula("(Cat(a) => meow(a)) & (Dog(a) => bark(a))", vocab, {"a": "Animal"})
    ctx = initial_context(vocab).push(VarEntry("a", "Animal"))
    d = typecheck(ctx, f)
    assert spine(d) == ("T-and", ["G-i", "G-i"])
    assert validate_derivation(vocab, d)


def test_guard_prefix_spans_multiple_atoms(vocab):
    f = parse_formula(
        "Cat(a) & Dog(b) & likes_both(a, b)",
        _with_likes(vocab),
        {"a": "Animal", "b": "Animal"},
    )
    ctx = initial_context(_with_likes(vocab)).push(
        VarEntry("a", "Animal"), VarEntry("b", "Animal")
    )
    d = typecheck(ctx, f)
    assert d.rule == "G-c"
    assert len(d.premises) == 3


def _with_likes(vocab):
    return declare_symbol(vocab, "likes_both", ["Cat", "Dog"], BOOL)


def test_all_guard_conjunction_keeps_last_as_body(vocab):
    f = parse_formula("Cat(a) & Dog(a)", vocab, {"a": "Animal"})
    ctx = initial_context(vocab).push(VarEntry("a", "Animal"))
    d = typecheck(ctx, f)
    assert d.rule == "G-c"
    assert len(d.premises) == 2  # one guard, Dog(a) is the body


def test_guard_refines_compound_terms(vocab):
    extended = declare_symbol(vocab, "mother", ["Animal"], "Animal")
    f = parse_formula("Cat(mother(a)) & meow(mother(a))", extended, {"a": "Animal"})
    ctx = initial_context(extended).push(VarEntry("a", "Animal"))
    d = typecheck(ctx, f)
    assert d.rule == "G-c"
    assert validate_derivation(extended, d)


def test_check_sentence_rejects_free_variables(running_example, vocab):
    with pytest.raises(TypingError) as info:
        check_sentence(running_example, parse_formula("meow(a)", vocab, {"a": "Cat"}))
    assert info.value.kind == "UnboundVariable"


def test_example_grounding_verdicts(running_example, axioms):
    with pytest.raises(TypingError):
        check_sentence(running_example, axioms["any_sound"])
    d = check_sentence(running_example, axioms["sound_by_kind"])
    assert d.note and "grounding" in d.note
    assert validate_derivation(running_example.vocabulary, d)


def test_trivial_sentence(running_example):
    d = check_sentence(running_example, ast.Truth(True))
    assert d.rule == "T-tr"


def test_equality_at_least_common_supertype(vocab):
    f = parse_formula("?c[Cat]: a = c", vocab, {"a": "Animal"})
    ctx = initial_context(vocab).push(VarEntry("a", "Animal"))
    d = typecheck(ctx, f)
    eq = d.premises[0]
    assert eq.rule == "T-app"
    assert [p.type_name for p in eq.premises] == ["Animal", "Animal"]
    assert validate_derivation(vocab, d)


def test_determinism(running_example, axioms):
    a = check_sentence(running_example, axioms["making_sound_def"])
    b = check_sentence(running_example, axioms["making_sound_def"])
    assert a == b
    assert render_derivation(a) == render_derivation(b)


def test_weakening(vocab, axioms):
    ctx = initial_context(vocab)
    widened = ctx.push(VarEntry("unused", "Nat"))
    f = axioms["making_sound_def"]
    assert typecheck(ctx, f) == typecheck(widened, f)


def test_validator_rejects_broken_trees(running_example, axioms, vocab):
    from dataclasses import replace

    d = check_sentence(running_example, axioms["cat_meowing"])
    broken = replace(d, type_name="Nat")
    assert not validate_derivation(vocab, broken)
    broken = replace(d, premises=())
    assert not validate_derivation(vocab, broken)
    broken = replace(d, rule="T-or")
    assert not validate_derivation(vocab, broken)


def test_validator_accepts_checker_output_on_corpus(running_example):
    from gosil.errors import GosilError

    for axiom in running_example.axioms:
        try:
            d = check_sentence(running_example, axiom.formula)
        except GosilError:
            continue
        assert validate_derivation(running_example.vocabulary, d), axiom.label


def test_derivation_export(running_example, axioms):
    d = check_sentence(running_example, axioms["cat_meowing"])
    data = derivation_to_dict(d)
    assert data["rule"] == "T-ex"
    assert data["expression"] == "?a[Animal]: Cat(a) & meow(a)"
    assert data["type"] == "Bool"
    assert data["children"][0]["rule"] == "G-c"


def test_subsumption_coherence():
    rng = random.Random(5)
    for _ in range(30):
        vocab = random_vocabulary(rng, max_types=8)
        names = [n for n in vocab.type_names()]
        sub = rng.choice(names)
        supers = [n for n in names if n != sub and _subtype(vocab, sub, n)]
        if not supers:
            continue
        super_ = rng.choice(supers)
        vocab = declare_symbol(vocab, "probe", [super_], BOOL)
        vocab = declare_symbol(vocab, "witness", [], sub)
        ctx = initial_context(vocab)
        d = typecheck(ctx, ast.Atom("probe", (ast.Apply("witness", ()),)))
        assert d.type_name == BOOL


def _subtype(vocab, a, b):
    from gosil.vocabulary import is_subtype

    return is_subtype(vocab, a, b)


def test_guarded_dereference_schema_sample():
    rng = random.Random(17)
    for _ in range(20):
        vocab, conj, imp = guarded_dereference_instance(rng)
        theory = ast.Theory(vocab)
        for sentence in (conj, imp):
            d = check_sentence(theory, sentence)
            assert d.type_name == BOOL


def test_intensional_terms_rejected_before_grounding(vocab):
    from gosil.parser import parse_term

    ctx = initial_context(vocab)
    with pytest.raises(TypingError) as info:
        derive_term(ctx, parse_term("$(`tom)()", vocab))
    assert info.value.kind == "IntensionalNotGrounded"
    with pytest.raises(TypingError) as info:
        typecheck(ctx, parse_formula("$(`meow)(tom)", vocab))
    assert info.value.kind == "IntensionalNotGrounded"


def test_unbound_variable_in_term(vocab):
    with pytest.raises(TypingError) as info:
        derive_term(initial_context(vocab), ast.Variable("ghost"))
    assert info.value.kind == "UnboundVariable"


def test_unknown_symbol_in_programmatic_ast(vocab):
    with pytest.raises(TypingError) as info:
        typecheck(initial_context(vocab), ast.Atom("oink", ()))
    assert info.value.kind == "UnknownSymbol"


def test_equality_sentence_over_nat(running_example, vocab):
    sentence = parse_formula("?a[Animal]: age(a) = 15", vocab)
    d = check_sentence(running_example, sentence)
    assert d.type_name == BOOL


def test_flatten_and_long_chain():
    from gosil.typecheck import flatten_and

    atoms = [ast.Atom(f"p{i}") for i in range(3000)]
    chain = atoms[-1]
    for atom in reversed(atoms[:-1]):
        chain = ast.And(atom, chain)
    assert flatten_and(chain) == atoms
    left_nested = atoms[0]
    for atom in atoms[1:]:
        left_nested = ast.And(left_nested, atom)
    assert flatten_and(left_nested) == atoms


def test_validator_accepts_grounded_equality_atom():
    # grounding names equality at a type as `=_T`; the checker resolves it,
    # and the validator must accept the derivation the checker builds
    from gosil.parser import parse_theory

    theory = parse_theory("type A\nconst a : A\nconst b : A\n")
    atom = ast.Atom("=_A", (ast.Apply("a", ()), ast.Apply("b", ())))
    d = check_sentence(theory, atom)
    assert spine(d) == ("T-app", ["T-app", "T-app"])
    assert tuple(p.type_name for p in d.premises) == ("A", "A")
    assert validate_derivation(theory.vocabulary, d)


def _at(derivation, *path):
    """The premise reached from `derivation` by the premise indices `path`."""
    for i in path:
        derivation = derivation.premises[i]
    return derivation


def _premise_replaced(derivation, index, **changes):
    premises = list(derivation.premises)
    premises[index] = replace(premises[index], **changes)
    return replace(derivation, premises=tuple(premises))


def test_validate_derivation_refuses_each_tampered_field(running_example, axioms):
    """Each tampered node below is refused by its own schema check, while
    every premise under it still instantiates its rule."""
    vocab = running_example.vocabulary
    each = check_sentence(running_example, axioms["each_its_sound"])  # T-all, T-and, G-i, ...
    some = check_sentence(running_example, axioms["implicit_meow"])  # T-ex, G-c, ...
    conjunction, implication, guarded = _at(each, 0), _at(each, 0, 0), _at(some, 0)
    application = _at(implication, 1)  # meow(a), from a : Cat
    assert (conjunction.rule, implication.rule, guarded.rule, application.rule) == (
        "T-and", "G-i", "G-c", "T-app"
    )
    meow_a = guarded.expr.right
    tampered = {
        "rule": replace(each, rule="T-bogus"),
        "premise count": replace(conjunction, premises=conjunction.premises[:1]),
        "premise expression": _premise_replaced(application, 0, expr=ast.Variable("b")),
        "premise type": _premise_replaced(application, 0, type_name="Dog"),
        "guard premise below Universe": _premise_replaced(implication, 0, type_name="Animal"),
        "guard not a type predicate": replace(guarded, expr=ast.And(meow_a, meow_a)),
    }
    for derivation in (each, some, conjunction, implication, guarded, application):
        assert validate_derivation(vocab, derivation)
    for what, derivation in tampered.items():
        assert not validate_derivation(vocab, derivation), what
        assert not ref_checker.validate_derivation(vocab, derivation), what
        assert all(validate_derivation(vocab, p) for p in derivation.premises), what
