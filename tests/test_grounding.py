import pytest

from reference_walkers import has_guards, is_intensional

from gosil import ast
from gosil.errors import (
    GroundArityError,
    IncomparableTypes,
    MissingExtension,
    NonFunctionalFacts,
    NonTotalConceptFunction,
    UnresolvableDeref,
)
from gosil.grounding import (
    build_intensional_interp,
    ground,
    ground_trace,
    grounded_size,
)
from gosil.parser import parse_formula, parse_theory
from gosil.vocabulary import ConceptObject


@pytest.fixture(scope="module")
def interp(running_example):
    return build_intensional_interp(running_example)


def test_interp_from_running_example(interp):
    assert interp.extensions["Sound"] == (ConceptObject("meow"), ConceptObject("bark"))
    assert interp.extensions["Kind"] == (
        ConceptObject("Cat", is_type=True),
        ConceptObject("Dog", is_type=True),
    )
    assert interp.facts[("soundOfKind", (ConceptObject("Cat", is_type=True),))] == (
        ConceptObject("meow")
    )


def test_missing_fact_detected():
    with pytest.raises(NonTotalConceptFunction) as info:
        build_intensional_interp(
            parse_theory(
                """
                type Cat; type Dog
                pred meow : Cat; pred bark : Dog
                type Sound <: Concept := { meow, bark }
                type Kind <: Concept := { Cat, Dog }
                func soundOfKind : Kind -> Sound
                define soundOfKind(`Cat) = `meow
                """
            )
        )
    assert "Dog" in info.value.message


def test_conflicting_facts_detected():
    with pytest.raises(NonFunctionalFacts):
        build_intensional_interp(
            parse_theory(
                """
                type Cat; pred meow : Cat; pred purr : Cat
                type Sound <: Concept := { meow, purr }
                type Kind <: Concept := { Cat }
                func soundOfKind : Kind -> Sound
                define soundOfKind(`Cat) = `meow
                define soundOfKind(`Cat) = `purr
                """
            )
        )


def test_empty_theory_interp():
    theory = parse_theory("type A\npred p : A")
    interp = build_intensional_interp(theory)
    assert interp.extensions == {} and interp.facts == {}


def test_is_intensional(vocab, axioms):
    assert is_intensional(vocab, axioms["any_sound"])
    assert is_intensional(vocab, axioms["sound_by_kind"])
    assert is_intensional(vocab, parse_formula("meow($(`tom)())", vocab))
    assert not is_intensional(vocab, axioms["making_sound_def"])
    assert not is_intensional(vocab, axioms["implicit_meow"])


def test_example_grounding_chain(vocab, axioms, interp):
    steps = ground_trace(axioms["any_sound"], interp)
    labels = [s for s, _ in steps]
    assert labels == ["original", "grounded concept quantifiers", "eliminated intensional terms"]
    assert ast.format_formula(steps[1][1]) == (
        "!a[Animal]: makingSound(a) <=> $(`meow)(a) | $(`bark)(a)"
    )
    assert ast.format_formula(steps[2][1]) == (
        "!a[Animal]: makingSound(a) <=> meow(a) | bark(a)"
    )


def test_kind_grounding_matches_explicit_definition(axioms, interp):
    assert ground(axioms["sound_by_kind"], interp) == axioms["making_sound_def"]


def test_dereference_of_object_reference(vocab, interp):
    f = parse_formula("meow($(`tom)())", vocab)
    assert ground(f, interp) == parse_formula("meow(tom)", vocab)


def test_wrapped_dereference_grounds_with_per_instance_guards(vocab, interp):
    f = parse_formula("?s[Sound]: <<c: $(s)(a)>>", vocab, {"a": "Animal"})
    expected = parse_formula(
        "(Cat(a) & meow(a)) | (Dog(a) & bark(a))", vocab, {"a": "Animal"}
    )
    assert ground(f, interp, {"a": "Animal"}) == expected


def test_compact_forms_ground_to_explicit_forms(axioms, interp):
    assert ground(axioms["compact_def"], interp) == axioms["making_sound_def"]
    assert ground(axioms["compact_specific"], interp) == axioms["all_specific"]


def test_ground_is_identity_on_plain_formulas(axioms, interp):
    f = axioms["making_sound_def"]
    assert ground(f, interp) is f


def test_first_order_quantifiers_left_intact(axioms, interp):
    grounded = ground(axioms["any_sound"], interp)
    assert isinstance(grounded, ast.Forall)
    assert grounded.type_name == "Animal"


def test_empty_extension_cases(interp):
    theory = parse_theory(
        """
        type A; pred p : A
        type None <: Concept := { }
        """
    )
    empty = build_intensional_interp(theory)
    vocab = theory.vocabulary
    f = parse_formula("?s[None]: $(s)(x)", vocab, {"x": "A"})
    assert ground(f, empty, {"x": "A"}) == ast.Truth(False)
    f = parse_formula("!s[None]: $(s)(x)", vocab, {"x": "A"})
    assert ground(f, empty, {"x": "A"}) == ast.Truth(True)


def test_missing_extension_rejected():
    theory = parse_theory("type P <: Concept\npred q")
    interp = build_intensional_interp(theory)
    f = parse_formula("?s[P]: q", theory.vocabulary)
    with pytest.raises(MissingExtension):
        ground(f, interp)


def test_unresolvable_dereference():
    theory = parse_theory(
        """
        type A; const c : A
        func pick : A -> Concept
        """
    )
    interp = build_intensional_interp(theory)
    f = parse_formula("$(pick(c))()", theory.vocabulary)
    with pytest.raises(UnresolvableDeref):
        ground(f, interp)


def test_arity_error_after_dereference(vocab, interp):
    f = parse_formula("$(`meow)(a, a)", vocab, {"a": "Cat"})
    with pytest.raises(GroundArityError):
        ground(f, interp, {"a": "Cat"})


def test_output_purity(running_example, interp, axioms):
    for label in ("any_sound", "sound_by_kind", "compact_def", "compact_specific"):
        grounded = ground(axioms[label], interp)
        assert not has_guards(grounded)
        assert _no_deref_or_concept_quantifier(running_example.vocabulary, grounded)


def _no_deref_or_concept_quantifier(vocab, f):
    from gosil.vocabulary import CONCEPT, is_subtype

    match f:
        case ast.Deref() | ast.DerefAtom():
            return False
        case ast.Truth() | ast.Atom():
            return True
        case ast.Not(body) | ast.GuardC(body) | ast.GuardI(body):
            return _no_deref_or_concept_quantifier(vocab, body)
        case ast.And(l, r) | ast.Or(l, r) | ast.Implies(l, r) | ast.Iff(l, r):
            return _no_deref_or_concept_quantifier(vocab, l) and _no_deref_or_concept_quantifier(vocab, r)
        case ast.Exists(_, tn, body) | ast.Forall(_, tn, body):
            if is_subtype(vocab, tn, CONCEPT):
                return False
            return _no_deref_or_concept_quantifier(vocab, body)
    return True


def test_grounded_size_counts_atoms(vocab, axioms, interp):
    assert grounded_size(axioms["making_sound_def"], interp) == 5
    assert grounded_size(axioms["compact_def"], interp) == 5
    f = parse_formula("?s[Sound]: <<c: $(s)(a)>>", vocab, {"a": "Animal"})
    assert grounded_size(f, interp, {"a": "Animal"}) == 4  # 2 disjuncts x 2 atoms


def test_grounded_size_edge_cases():
    from generators import proposition_width_vocabulary
    from gosil.ast import Theory

    vocab = proposition_width_vocabulary(0)
    interp = build_intensional_interp(Theory(vocab))
    f = parse_formula("?s[P]: <<c: $(s)(t)>>", vocab, {"t": "S"})
    assert grounded_size(f, interp, {"t": "S"}) == 0  # empty extension
    plain = parse_formula("S(t)", vocab, {"t": "S"})
    assert grounded_size(plain, interp, {"t": "S"}) == 1


def test_model_search_leaves_no_grounding_or_elaboration_closure(sounds_path):
    # a self-recursive closure is a reference cycle that keeps its context
    # (the GroundInterpretation among it) alive until a collection
    import gc

    from gosil.models import find_models

    theory = parse_theory(sounds_path.read_text())
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        find_models(theory, {"Animal": 2}, nat_bound=3)
        gc.collect()
        leaked = [
            obj
            for obj in gc.garbage
            if callable(obj)
            and getattr(obj, "__module__", None) in ("gosil.grounding", "gosil.elaboration")
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


# -- one pass, one interpretation per theory ---------------------------------------


def wide_theory_text(width: int = 64) -> str:
    """A supertype S, `width` subtypes A<k> with a predicate p<k> each, and
    the concept type P := {p0, ...}: the shapes whose grounding expands a
    wrapper or a dereference once per member of P."""
    lines = ["type S", "pred q : S"]
    lines += [f"type A{k} <: S" for k in range(width)]
    lines += [f"pred p{k} : A{k}" for k in range(width)]
    lines.append("type P <: Concept := { " + ", ".join(f"p{k}" for k in range(width)) + " }")
    lines += [
        "axiom concept_def: !t[S]: q(t) <=> ?s[P]: <<c: $(s)(t)>>",
        "axiom concept_specific: !t[S]: q(t) => !s[P]: <<i: $(s)(t)>>",
        "axiom guard_pair: !t[S]: <<i: p1(t)>> & <<c: p2(t)>>",
        "axiom unguarded_deref: !t[S]: q(t) => ?s[P]: $(s)(t)",
    ]
    return "\n".join(lines) + "\n"


def _check_output(path, *flags) -> tuple[int, str]:
    import io

    from gosil.cli import main

    out = io.StringIO()
    code = main(["check", str(path), *flags], out=out)
    return code, out.getvalue()


def test_check_on_a_wide_theory_equals_the_staged_pipeline(tmp_path, monkeypatch):
    import reference_typecheck as ref_checker
    import reference_walkers as ref

    from gosil import cli, grounding

    path = tmp_path / "wide.gos"
    path.write_text(wide_theory_text())
    flags = ("--json", "--trace", "--derivation")
    found = _check_output(path, *flags)
    assert found[0] == 1 and "unguarded_deref: ill-typed" in found[1]
    for label in ("concept_def", "concept_specific", "guard_pair"):
        assert f"{label}: well-typed" in found[1]
    # the staged passes, one after the other: the trace of an intensional
    # axiom, then its check

    def staged(theory, sentence, steps=None):
        if steps is not None and ref.is_intensional(theory.vocabulary, sentence):
            steps += ref.ground_trace(sentence, grounding.interpretation(theory))
        return ref_checker.staged_check_sentence(theory, sentence)

    monkeypatch.setattr(cli, "check_sentence", staged)
    monkeypatch.setattr(grounding, "ground", ref.ground)
    assert _check_output(path, *flags) == found


def test_check_builds_one_interpretation_per_theory(tmp_path, monkeypatch):
    from gosil.grounding import GroundInterpretation

    built = []
    init = GroundInterpretation.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroundInterpretation, "__init__", counted)
    path = tmp_path / "wide.gos"
    path.write_text(wide_theory_text(8))
    for flags in ((), ("--trace",)):
        built.clear()
        _check_output(path, *flags)
        assert len(built) == 1, flags


NON_FUNCTIONAL = """\
type A
pred p : A
pred q : A
const a : A
type K <: Concept := { p, q }
func f : K -> K
define f(`p) = `q
define f(`q) = `p
define f(`p) = `p
axiom first: ?s[K]: $(s)(a)
axiom plain: p(a)
axiom second: $(f(`q))(a)
axiom third: <<c: p(a)>>
"""


def test_a_failed_interpretation_is_reported_under_every_intensional_axiom(tmp_path):
    path = tmp_path / "nf.gos"
    path.write_text(NON_FUNCTIONAL)
    diagnostic = f"{path}:9:1: error: NonFunctionalFacts: f(~p) defined as both ~q and ~p\n"
    expected = (
        f"first: ill-typed\n{diagnostic}"
        "plain: well-typed\n"
        f"second: ill-typed\n{diagnostic}"
        "third: well-typed\nthird: typed after guard elaboration: p(a)\n"
    )
    assert _check_output(path) == (1, expected)
    assert _check_output(path, "--trace") == (1, expected)


def test_errors_come_in_the_staged_order():
    # expansion, then elimination, then elaboration: a missing extension
    # outranks an arity error before it, and an arity error an elaboration
    # error before it
    theory = parse_theory(
        "type A; type B <: A; type C; const a : A; const c : C; pred p : B\n"
        "type P <: Concept\n"
    )
    interp = build_intensional_interp(theory)
    vocab = theory.vocabulary
    f = parse_formula("$(`a)(a) & ?s[P]: $(s)(a)", vocab)
    with pytest.raises(MissingExtension):
        ground(f, interp)
    f = parse_formula("<<c: p(c)>> & $(`a)(a)", vocab)
    with pytest.raises(GroundArityError):
        ground(f, interp)
    with pytest.raises(IncomparableTypes):
        ground(parse_formula("<<c: p(c)>> & $(`a)()", vocab), interp)
