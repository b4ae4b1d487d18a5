"""The depth-first model finder against the generate-and-test finder it
replaced, kept in reference_models: on every theory the outcome, the list of
formatted models or the exception class and message, must agree. Plus the
candidate count against the options the search builds, the closed-form
model count at Animal=3, and the order in which errors are reported."""

from __future__ import annotations

import random

import pytest

import reference_models
from generators import fuzz_vocabulary, random_formula
from test_models import small_theory

from gosil import ast
from gosil.errors import GosilError
from gosil.models import _Enumeration, find_models
from gosil.parser import parse_theory
from gosil.semantics import format_structure
from gosil.typecheck import check_sentence

MAKING_SOUND = "!a[Animal]: makingSound(a) <=> (Cat(a) & meow(a)) | (Dog(a) & bark(a))"
CONCEPT_FUNCTION = """
type Cat
pred meow : Cat
type Sound <: Concept := { meow }
type Kind <: Concept := { Cat }
func soundOfKind : Kind -> Sound
define soundOfKind(`Cat) = `meow
axiom some: ?c[Cat]: true
"""
# Every candidate fails validation: an extension outside its supertype's,
# an empty extension. The axiom raises wherever it is evaluated.
OUTSIDE_SUPERTYPE = """
type A
pred p : A
pred q : A
type S <: Concept := { p }
type T <: S := { q }
axiom n: ?n[Nat]: true
"""
EMPTY_EXTENSION = """
type A
pred p : A
type E <: Concept := { }
axiom n: ?n[Nat]: true
"""


def outcome(finder, theory, bounds, **kwargs) -> tuple:
    try:
        return ("models", [format_structure(s) for s in finder(theory, bounds, **kwargs)])
    except GosilError as err:  # the class and message are what is compared
        return ("raised", type(err), str(err))


def agree(theory, bounds, **kwargs) -> tuple:
    found = outcome(find_models, theory, bounds, **kwargs)
    assert found == outcome(reference_models.find_models, theory, bounds, **kwargs)
    return found


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("limit", [None, 1, 50])
def test_sounds_agrees_with_reference(sounds_path, n, limit):
    theory = parse_theory(sounds_path.read_text())
    kind, models = agree(theory, {"Animal": n}, limit=limit, nat_bound=3)
    assert kind == "models" and models


THEORIES = {
    "unsatisfiable": (lambda: parse_theory("type T\naxiom no: false"), {"T": 1}, {}),
    "satisfiable": (lambda: parse_theory("type T\naxiom some: ?x[T]: true"), {"T": 1}, {}),
    "bound-missing": (small_theory, {}, {}),
    "bound-zero": (small_theory, {"Animal": 0}, {}),
    "explosion": (small_theory, {"Animal": 3}, {"explosion_cap": 10}),
    "ill-typed": (
        lambda: parse_theory(
            "type Cat\nconst tom : Cat\ntype Dog\npred bark : Dog\naxiom bad: bark(tom)"
        ),
        {"Cat": 1, "Dog": 1},
        {},
    ),
    "unconstrained": (lambda: small_theory("true"), {"Animal": 1}, {}),
    "making-sound-1": (lambda: small_theory(MAKING_SOUND), {"Animal": 1}, {}),
    "making-sound-2": (lambda: small_theory(MAKING_SOUND), {"Animal": 2}, {}),
    "limit": (lambda: small_theory("?a[Animal]: makingSound(a)"), {"Animal": 1}, {"limit": 3}),
    "no-limit": (lambda: small_theory("?a[Animal]: makingSound(a)"), {"Animal": 1}, {}),
    "concept-function": (lambda: parse_theory(CONCEPT_FUNCTION), {"Cat": 1}, {}),
    "outside-supertype": (lambda: parse_theory(OUTSIDE_SUPERTYPE), {"A": 1}, {}),
    "empty-extension": (lambda: parse_theory(EMPTY_EXTENSION), {"A": 1}, {}),
}


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_model_theories_agree_with_reference(name):
    build, bounds, kwargs = THEORIES[name]
    agree(build(), bounds, **kwargs)


# shift is total only on 0..nat_bound, so with a nat bound of at most 1 this
# atom raises whenever it is evaluated
TRAP = ast.Atom(
    ast.EQUALITY_ATOM,
    (ast.Apply("shift", (ast.NatLiteral(2), ast.NatLiteral(0))), ast.NatLiteral(0)),
)


def random_theory(rng: random.Random) -> ast.Theory:
    """One to four well-typed random sentences over the fuzz vocabulary;
    about a third of them raise on the candidates their premise holds on."""
    vocab = fuzz_vocabulary()
    empty = ast.Theory(vocab)
    axioms: list[ast.Axiom] = []
    wanted = rng.randint(1, 4)
    while len(axioms) < wanted:
        formula = random_formula(rng, vocab, [], rng.randint(1, 4))
        if rng.random() < 0.3:
            formula = ast.Implies(formula, TRAP)
        try:
            check_sentence(empty, formula)
        except GosilError:
            continue
        axioms.append(ast.Axiom(f"a{len(axioms)}", formula))
    return ast.Theory(vocab, tuple(axioms))


def _quantifies_concepts(node) -> bool:
    if isinstance(node, (ast.Exists, ast.Forall)) and node.type_name in ("Concept", "Sound"):
        return True
    return any(_quantifies_concepts(c) for c in ast.children(node))


def test_random_theories_agree_with_reference():
    seen = {"models": 0, "raised": 0, "guarded": 0, "concept-quantified": 0}
    for seed in range(220):
        rng = random.Random(seed)
        theory = random_theory(rng)
        limit = rng.choice((None, None, 1, 3))
        kind = agree(theory, {"Animal": 1}, limit=limit, nat_bound=rng.choice((0, 1)))[0]
        seen[kind] += 1
        formulas = [a.formula for a in theory.axioms]
        seen["guarded"] += any(ast.has_guards(f) for f in formulas)
        seen["concept-quantified"] += any(_quantifies_concepts(f) for f in formulas)
    assert seen["models"] + seen["raised"] == 220
    assert min(seen.values()) >= 20, seen


def test_sounds_at_three_animals_matches_closed_form(sounds_path):
    theory = parse_theory(sounds_path.read_text())
    n, nat_bound = 3, 3
    # (sum over non-empty Cat of |Cat|) * (2^n - 1) * (nat_bound + 1)^n
    closed = (3 * 1 + 3 * 2 + 1 * 3) * (2 ** n - 1) * (nat_bound + 1) ** n
    assert closed == 5376
    assert len(find_models(theory, {"Animal": n}, nat_bound=nat_bound)) == closed


def test_counted_options_equal_generated_options(sounds_path):
    theory = parse_theory(sounds_path.read_text())
    enumeration = _Enumeration(theory, {"Animal": 2}, nat_bound=3)
    candidates = 0
    for type_sets in enumeration.type_sets():
        product = 1
        for sig in enumeration.symbols:
            generated = len(enumeration.options(sig, type_sets))
            assert enumeration.option_count(sig, type_sets) == generated, sig.name
            product *= generated
        candidates += product
    assert candidates == 6144


ORDER = """
type A
pred p : A
pred q : A
"""


def test_error_behind_a_failing_axiom_is_not_reported():
    # `second` raises on every candidate, but `first` fails on all of them
    # and comes first, so generate-and-test never evaluates `second`
    theory = parse_theory(
        ORDER + "axiom first: ?x[A]: p(x) & ~p(x)\naxiom second: ?n[Nat]: true"
    )
    assert agree(theory, {"A": 1}) == ("models", [])


def test_error_before_a_failing_axiom_is_reported():
    # `second` fails as soon as p is fixed, but `first` comes first and
    # raises once q is non-empty, on the second candidate
    theory = parse_theory(
        ORDER
        + "axiom first: (?x[A]: q(x)) => ?n[Nat]: true\n"
        + "axiom second: ?x[A]: p(x) & ~p(x)"
    )
    kind, error, _message = agree(theory, {"A": 1})
    assert (kind, error.__name__) == ("raised", "UnboundedNatQuantifier")
