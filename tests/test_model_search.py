"""The depth-first model finder against the generate-and-test finder it
replaced, kept in reference_models: on every theory the outcome, the list of
formatted models or the exception class and message, must agree. Plus the
candidate count against the options the search builds, the closed-form
model count at Animal=3, the order in which errors are reported, replayed
subtrees, `validate_structure` on every candidate against its type set's
first candidate, the only one the search validates, and the grounded
axioms the search evaluates against the axioms as written."""

from __future__ import annotations

import itertools
import random

import pytest

import reference_models
from generators import fuzz_vocabulary, random_formula
from reference_walkers import dependencies, has_guards
from test_models import small_theory

from gosil import ast, models, semantics
from gosil.errors import GosilError
from gosil.grounding import grounded_dependencies, interpretation
from gosil.models import _Enumeration, find_models
from gosil.parser import parse_theory
from gosil.semantics import (
    Structure,
    evaluate,
    format_structure,
    format_structures,
    interpretation_of,
    validate_structure,
)
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
# Every candidate fails validation on a graph: the row the define pins
# maps into K, outside f's result type S.
DEFINE_OUTSIDE_RESULT = """
type Animal
pred p : Animal
type K <: Concept := { Animal }
type S <: Concept := { p }
func f : K -> S
define f(`Animal) = `K
axiom t: true
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
    "define-outside-result": (lambda: parse_theory(DEFINE_OUTSIDE_RESULT), {"Animal": 2}, {}),
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
        seen["guarded"] += any(has_guards(f) for f in formulas)
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


def candidates(theory, bounds, nat_bound=None):
    """Every candidate of the enumeration, in order: its type sets and its
    graphs in declaration order, as the search assembles them."""
    enumeration = _Enumeration(theory, bounds, nat_bound)
    for type_sets in enumeration.type_sets():
        options = [enumeration.options(sig, type_sets) for sig in enumeration.symbols]
        for graphs in itertools.product(*options):
            yield type_sets, {g.name: g for g in graphs}


def assert_candidates_validate_as_their_first(theory, bounds, nat_bound=None) -> tuple[int, int]:
    """`validate_structure` on every candidate against its type set's first
    candidate, the only one the search validates: each must report what the
    first reports. Returns the number of candidates and how many of them
    fail validation."""
    vocab = theory.vocabulary
    count = failing = 0
    first = None
    for type_sets, graphs in candidates(theory, bounds, nat_bound):
        report = validate_structure(vocab, Structure(vocab, type_sets, graphs, nat_bound))
        # `candidates` yields one type-set dict per type set
        if first is None or first[0] is not type_sets:
            first = type_sets, report
        assert report.violations == first[1].violations
        count += 1
        failing += not report.ok
    return count, failing


def test_candidates_validate_as_their_first_on_sounds(sounds_path):
    theory = parse_theory(sounds_path.read_text())
    counts = [assert_candidates_validate_as_their_first(theory, {"Animal": n}, 3) for n in (1, 2)]
    assert counts == [(32, 0), (6144, 0)]


def test_candidates_validate_as_their_first_on_random_theories():
    # the random theories share the fuzz vocabulary and the Animal bound,
    # so their candidates are those of the nat bounds they are run with
    nat_bounds = set()
    for seed in range(220):
        rng = random.Random(seed)
        theory = random_theory(rng)
        rng.choice((None, None, 1, 3))
        nat_bounds.add(rng.choice((0, 1)))
    counts = {
        nat_bound: assert_candidates_validate_as_their_first(theory, {"Animal": 1}, nat_bound)
        for nat_bound in sorted(nat_bounds)
    }
    assert counts == {0: (16, 0), 1: (512, 0)}


@pytest.mark.parametrize("name", ["outside-supertype", "empty-extension", "define-outside-result"])
def test_candidates_validate_as_their_first_on_failing_candidates(name):
    build, bounds, _ = THEORIES[name]
    count, failing = assert_candidates_validate_as_their_first(build(), bounds)
    assert count == failing > 0


def test_search_validates_each_type_set_once(sounds_path, monkeypatch):
    validated = []

    def counted(vocab, structure):
        validated.append(structure.type_sets)
        return validate_structure(vocab, structure)

    monkeypatch.setattr(models, "validate_structure", counted)
    theory = parse_theory(sounds_path.read_text())
    assert len(find_models(theory, {"Animal": 2}, nat_bound=3)) == 192
    type_sets = list(_Enumeration(theory, {"Animal": 2}, nat_bound=3).type_sets())
    assert validated == type_sets and len(type_sets) == 9


# `u` is read by no axiom, so the search walks the rest of each type set
# once, for u's first option, and replays it for the others. `second`
# raises exactly where `first` fails, so it is never reported; `third`
# raises once B has two elements and q is not empty, in the last type set.
REPLAY = """
type A
type B <: A
pred u : A
pred p : B
pred q : B
axiom first: (?x[B]: p(x)) => (?x[B]: q(x))
axiom second: ((?x[B]: p(x)) & ~(?x[B]: q(x))) => ?n[Nat]: true
axiom third: (?x[B]: ?y[B]: ~(x = y) & q(x)) => ?n[Nat]: true
"""


@pytest.mark.parametrize("limit", [None, 1, 5, 14])
def test_replayed_subtrees_agree_with_reference(limit):
    # per type set with |B| = 1, each of u's four options has three models:
    # 5 stops in the replay for u's second option, 14 in the second type set
    kind, *found = agree(parse_theory(REPLAY), {"A": 2}, limit=limit)
    if limit is None:
        assert (kind, found[0].__name__) == ("raised", "UnboundedNatQuantifier")
    else:
        assert (kind, len(found[0])) == ("models", limit)


# Below q, the levels axioms still to be checked read are p's alone, but
# `a1`'s verdict on q differs: False on the empty q, true on a singleton,
# an error on both elements. The subtree key must keep them apart.
CUT_KEY = """
type A
pred p : A
pred q : A
pred r : A
axiom a0: (?x[A]: p(x)) | (?x[A]: r(x))
axiom a1: (?x[A]: q(x)) & ((?x[A]: ?y[A]: ~(x = y) & q(x) & q(y)) => ?n[Nat]: true)
"""


@pytest.mark.parametrize("limit", [None, 3])
def test_subtree_key_separates_cuts_and_failures(limit):
    kind, *found = agree(parse_theory(CUT_KEY), {"A": 2}, limit=limit)
    if limit is None:
        assert (kind, found[0].__name__) == ("raised", "UnboundedNatQuantifier")
    else:
        assert (kind, len(found[0])) == ("models", limit)


# B and C range over the non-empty subsets of A, so p, f and kindOf get
# different domains in different type sets, and two type sets can give B
# sets of one size but different members; q's domain is A in every one.
# kindOf is concept-valued with a user-typed argument, so its rows are no
# facts and every choice of its graph induces one interpretation, the one
# the guard axioms share. At nat bound 0, shift is total on (0, 0) alone: `t` raises
# wherever its premise holds.
SUBTYPE_DOMAINS = """
type A
type B <: A
type C <: A
pred p : B
pred q : A
func f : C -> B
func shift : Nat * Nat -> Nat
type K <: Concept := { p, q }
func kindOf : B -> K
"""
DOMAIN_AXIOMS = {
    "guarded": "axiom g: ?x[B]: <<c: p(x)>>\naxiom k: !x[B]: kindOf(x) = `p => p(x)\n",
    "functions": "axiom h: !x[C]: p(f(x)) | q(x)\naxiom i: !x[B]: <<i: p(x)>> | q(x)\n",
    "trap": (
        "axiom g: ?x[B]: <<c: p(x)>>\n"
        "axiom t: (?x[C]: q(x) & p(f(x)) & kindOf(f(x)) = `q) => shift(2, 0) = 0\n"
    ),
}


@pytest.mark.parametrize("limit", [None, 1, 40])
@pytest.mark.parametrize("axioms", sorted(DOMAIN_AXIOMS))
def test_subtype_domains_agree_with_reference(axioms, limit):
    theory = parse_theory(SUBTYPE_DOMAINS + DOMAIN_AXIOMS[axioms])
    kind, *found = agree(theory, {"A": 2}, limit=limit, nat_bound=0)
    if axioms == "trap" and limit != 1:
        assert (kind, found[0].__name__) == ("raised", "EvaluationError")
    else:
        assert kind == "models" and len(found[0]) == (limit or len(found[0])) > 0


def test_options_are_shared_by_type_sets_giving_equal_domains():
    theory = parse_theory(SUBTYPE_DOMAINS + DOMAIN_AXIOMS["guarded"])
    enumeration = _Enumeration(theory, {"A": 2}, nat_bound=0)
    sigs = {sig.name: sig for sig in enumeration.symbols}
    type_sets = list(enumeration.type_sets())
    assert len(type_sets) == 9
    # the type each symbol's domains are drawn from, besides fixed ones
    reads = {"p": ("B",), "q": (), "f": ("B", "C"), "shift": (), "kindOf": ("B",)}
    for first, second in itertools.product(type_sets, repeat=2):
        for name, types in reads.items():
            same = all(first[t] == second[t] for t in types)
            shared = enumeration.options(sigs[name], first) is enumeration.options(sigs[name], second)
            assert shared == same, (name, first, second)


def test_dependencies_read_from_derivations_equal_grounded_ones(sounds_path):
    theories = [parse_theory(path.read_text()) for path in sorted(sounds_path.parent.glob("*.gos"))]
    assert len(theories) == 3
    theories += [parse_theory(SUBTYPE_DOMAINS + text) for text in DOMAIN_AXIOMS.values()]
    theories += [random_theory(random.Random(seed)) for seed in range(220)]
    compared = 0
    for theory in theories:
        interp = interpretation(theory)
        for axiom in theory.axioms:
            try:
                derivation = check_sentence(theory, axiom.formula)
            except GosilError:
                continue  # model search refuses the theory
            read = grounded_dependencies(theory.vocabulary, derivation.expr)
            assert read == dependencies(axiom.formula, interp), axiom.label
            compared += 1
    assert compared > 500


# pick's rows all have concept arguments, so the facts pin every one of
# them; kindOf's have a user-typed argument, so they are free and no facts.
CONCEPT_ROWS = SUBTYPE_DOMAINS + """
func pick : K -> K
define pick(`p) = `q
define pick(`q) = `p
axiom g: ?x[B]: <<c: $(pick(`q))(x)>>
axiom m: !x[B]: ?k[K]: <<c: $(pick(k))(x)>> & kindOf(x) = `q
"""


@pytest.mark.parametrize("limit", [None, 7])
def test_concept_rows_agree_with_reference(limit):
    kind, models = agree(parse_theory(CONCEPT_ROWS), {"A": 2}, limit=limit, nat_bound=0)
    assert kind == "models" and len(models) == (limit or len(models)) > 0


def test_an_axiom_depends_on_the_symbols_its_grounded_form_applies(sounds_path):
    # the grounded form holds no guard and no dereference, so a
    # concept-valued function it does not apply cannot decide its value
    cases = [
        (parse_theory(CONCEPT_ROWS), "g", {"p"}),
        (parse_theory(sounds_path.read_text()), "implicit_meow", {"meow"}),
    ]
    for theory, label, expected in cases:
        (axiom,) = [a for a in theory.axioms if a.label == label]
        grounded = check_sentence(theory, axiom.formula).expr
        assert grounded_dependencies(theory.vocabulary, grounded) == expected


def test_every_candidate_induces_the_shared_interpretation(sounds_path):
    # only graph rows with all-concept arguments become facts, and the
    # theory's facts pin all of them, so every candidate induces one
    # interpretation, the theory's
    cases = [
        (parse_theory(sounds_path.read_text()), {"Animal": 2}, 3, 6144),
        (parse_theory(CONCEPT_FUNCTION), {"Cat": 1}, None, 2),
        (parse_theory(CONCEPT_ROWS), {"A": 2}, 0, 608),
        (random_theory(random.Random(0)), {"Animal": 1}, 1, 512),
    ]
    for theory, bounds, nat_bound, expected in cases:
        vocab = theory.vocabulary
        induced = [
            interpretation_of(Structure(vocab, type_sets, graphs))
            for type_sets, graphs in candidates(theory, bounds, nat_bound)
        ]
        assert len(induced) == expected
        shared = induced[0]
        assert all(interp is shared for interp in induced)
        theirs = interpretation(theory)
        assert (shared.facts, shared.extensions) == (theirs.facts, theirs.extensions)


def evaluation(structure: Structure, formula: ast.Formula) -> tuple:
    try:
        return ("value", evaluate(structure, formula))
    except GosilError as err:  # the class and message are what is compared
        return ("raised", type(err), str(err))


def test_grounded_axioms_evaluate_as_written(sounds_path):
    # the search evaluates each axiom's grounded form, the sentence its
    # derivation concludes: on every candidate it must have the written
    # axiom's value, or raise the same error
    cases = [
        (parse_theory(sounds_path.read_text()), {"Animal": 2}, 3),
        (parse_theory(CONCEPT_FUNCTION), {"Cat": 1}, None),
        (parse_theory(CONCEPT_ROWS), {"A": 2}, 0),
    ]
    cases += [(parse_theory(SUBTYPE_DOMAINS + text), {"A": 2}, 0) for text in DOMAIN_AXIOMS.values()]
    for seed in range(50):  # with the nat bounds of the agreement test
        rng = random.Random(seed)
        theory = random_theory(rng)
        rng.choice((None, None, 1, 3))
        cases.append((theory, {"Animal": 1}, rng.choice((0, 1))))
    compared = raised = 0
    for theory, bounds, nat_bound in cases:
        pairs = []
        for axiom in theory.axioms:
            try:
                derivation = check_sentence(theory, axiom.formula)
            except GosilError:
                continue  # model search refuses the theory
            pairs.append((axiom.label, axiom.formula, derivation.expr))
        for type_sets, graphs in candidates(theory, bounds, nat_bound):
            structure = Structure(theory.vocabulary, type_sets, graphs, nat_bound)
            for label, written, grounded in pairs:
                expected = evaluation(structure, written)
                assert evaluation(structure, grounded) == expected, label
                compared += 1
                raised += expected[0] == "raised"
    assert compared > raised > 0


def test_search_expands_no_wrapper_and_binds_no_dereference(sounds_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("model search evaluated an axiom as written")

    for name in ("_compile_guard", "_expand_guard", "_compile_deref"):
        monkeypatch.setattr(semantics, name, refuse)
    # a fresh vocabulary holds no code compiled before the patch
    found = find_models(parse_theory(sounds_path.read_text()), {"Animal": 2}, nat_bound=3)
    text = "".join(f"// model {i}\n{t}" for i, t in enumerate(format_structures(found), start=1))
    golden = sounds_path.parent.parent / "tests" / "golden" / "sounds.models.out"
    assert text + "// 192 model(s)\n" == golden.read_text()
