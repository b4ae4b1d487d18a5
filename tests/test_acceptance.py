"""The acceptance suite: one test per criterion, each printing a PASS line
(visible with `pytest -rA` or `-s`). Criteria 5 and 7 share one exhaustive
enumeration of structures over the running-example vocabulary."""

import io
import itertools
import json
import random
import time

import pytest

from generators import (
    FUZZ_FREE_VARS,
    fuzz_vocabulary,
    guarded_dereference_instance,
    proposition_width_vocabulary,
    random_formula,
    random_garbage,
    random_vocabulary,
)
from reference_walkers import desugar
from gosil import ast
from gosil.cli import main
from gosil.errors import EvaluationError, GosilError, TypingError
from gosil.grounding import (
    build_intensional_interp,
    elaborate,
    ground,
    ground_trace,
    grounded_size,
)
from gosil.parser import parse_formula, parse_theory
from gosil.semantics import (
    FunctionGraph,
    NaturalElement,
    PlainElement,
    Structure,
    evaluate,
    validate_structure,
)
from gosil.typecheck import (
    check_sentence,
    initial_context,
    render_derivation,
    validate_derivation,
)
from gosil.vocabulary import UNIVERSE, is_subtype


def _report(criterion: int, name: str) -> None:
    print(f"acceptance criterion {criterion} ({name}): PASS")


# -- criterion 1: example-corpus golden tests -------------------------------------


def test_criterion_1_golden_corpus(running_example, axioms, vocab):
    start = time.monotonic()

    # (a) the guarded-existential derivation, exactly as printed
    derivation = check_sentence(running_example, axioms["cat_meowing"])
    assert render_derivation(derivation) == "\n".join(
        [
            "T-ex ⊢ ?a[Animal]: Cat(a) & meow(a) : Bool  [1 premise]",
            "  G-c ⊢ Cat(a) & meow(a) : Bool  [2 premises]",
            "    T-sub ⊢ a : Universe  [1 premise]",
            "      T-var ⊢ a : Animal",
            "    T-app ⊢ meow(a) : Bool  [1 premise]",
            "      T-var ⊢ a : Cat",
        ]
    )
    assert validate_derivation(vocab, derivation)

    # (b) bark(tom) rejected with the exact expected/found pair
    with pytest.raises(TypingError) as info:
        check_sentence(running_example, axioms["tom_barks"])
    assert info.value.kind == "ArgumentTypeMismatch"
    assert (info.value.expected, info.value.found) == ("Dog", "Cat")

    # (c) the grounding chain of the unguarded intensional definition,
    # final verdict ill-typed
    interp = build_intensional_interp(running_example)
    steps = [
        (label, ast.format_formula(f))
        for label, f in ground_trace(axioms["any_sound"], interp)
    ]
    assert steps == [
        ("original", "!a[Animal]: makingSound(a) <=> (?s[Sound]: $(s)(a))"),
        (
            "grounded concept quantifiers",
            "!a[Animal]: makingSound(a) <=> $(`meow)(a) | $(`bark)(a)",
        ),
        (
            "eliminated intensional terms",
            "!a[Animal]: makingSound(a) <=> meow(a) | bark(a)",
        ),
    ]
    with pytest.raises(TypingError):
        check_sentence(running_example, axioms["any_sound"])

    # (d) the kind-mediated definition grounds to the explicit one and is
    # well-typed
    assert ground(axioms["sound_by_kind"], interp) == axioms["making_sound_def"]
    assert check_sentence(running_example, axioms["sound_by_kind"]).type_name == "Bool"

    # (e) implicit-guard elaborations, byte-identical to the canonical
    # explicit forms
    ctx = initial_context(vocab)
    pairs = [
        ("implicit_meow", "cat_meowing"),
        ("implicit_sound_def", "making_sound_def"),
        ("each_its_sound", "all_specific"),
    ]
    for wrapped, explicit in pairs:
        assert ast.format_formula(elaborate(ctx, axioms[wrapped])) == ast.format_formula(
            axioms[explicit]
        )

    assert time.monotonic() - start < 1.0
    _report(1, "example-corpus golden tests")


# -- criterion 2: every type sits below Universe ------------------------------------


def test_criterion_2_universe_property():
    rng = random.Random(2_024_0002)
    failures = 0
    for _ in range(500):
        vocab = random_vocabulary(rng, max_types=20)
        for name in vocab.type_names():
            if name != UNIVERSE and not is_subtype(vocab, name, UNIVERSE):
                failures += 1
    assert failures == 0
    _report(2, "500 random vocabularies, all types below Universe")


# -- criterion 3: guarded-dereference sentences are always well-typed ---------------


def test_criterion_3_guarded_dereference_property():
    rng = random.Random(2_024_0003)
    accepted = 0
    for _ in range(200):
        vocab, conjunctive, implicative = guarded_dereference_instance(rng)
        theory = ast.Theory(vocab)
        for sentence in (conjunctive, implicative):
            derivation = check_sentence(theory, sentence)
            assert derivation.type_name == "Bool"
        accepted += 1
    assert accepted == 200
    _report(3, "200 guarded-dereference instances, 100% accepted")


# -- criterion 4: grounded size grows with slope exactly 2 ---------------------------


def test_criterion_4_grounded_size_linearity():
    sizes = {}
    node_counts = set()
    for m in range(1, 11):
        vocab = proposition_width_vocabulary(m)
        theory = ast.Theory(vocab)
        interp = build_intensional_interp(theory)
        formula = parse_formula("?s[P]: <<c: $(s)(t)>>", vocab, {"t": "S"})
        sizes[m] = grounded_size(formula, interp, {"t": "S"})
        node_counts.add(len(list(ast.walk(formula))))
    assert sizes == {m: 2 * m for m in range(1, 11)}
    diffs = {sizes[m + 1] - sizes[m] for m in range(1, 10)}
    assert diffs == {2}  # slope exactly 2, no tolerance
    assert len(node_counts) == 1  # source formula size is constant
    _report(4, "grounded size is 2·|P|, source size constant")


# -- criteria 5 and 7: exhaustive semantic oracle -------------------------------------


def _oracle_structures(vocab):
    """Every structure over the running-example vocabulary with |Animal| <= 3:
    Cat/Dog are arbitrary non-empty subsets, meow/bark/makingSound arbitrary
    predicates; tom and age are fixed (first cat, constantly 0) and
    soundOfKind is pinned by the facts."""
    from gosil.semantics import _forced_type_sets, ConceptElement
    from gosil.vocabulary import ConceptObject

    forced = _forced_type_sets(vocab)
    sound_rows = {
        (ConceptElement(ConceptObject("Cat", is_type=True)),): ConceptElement(
            ConceptObject("meow")
        ),
        (ConceptElement(ConceptObject("Dog", is_type=True)),): ConceptElement(
            ConceptObject("bark")
        ),
    }
    structures = []
    for n in (1, 2, 3):
        animals = tuple(PlainElement(f"a{i}") for i in range(n))
        subsets = [
            tuple(e for i, e in enumerate(animals) if mask & (1 << i))
            for mask in range(1, 2**n)
        ]
        for cats, dogs in itertools.product(subsets, subsets):
            meow_choices = list(_subsets(cats))
            bark_choices = list(_subsets(dogs))
            making_choices = list(_subsets(animals))
            for meows, barks, makers in itertools.product(
                meow_choices, bark_choices, making_choices
            ):
                graphs = {
                    "age": FunctionGraph.for_function(
                        "age", {(a,): NaturalElement(0) for a in animals}
                    ),
                    "tom": FunctionGraph.for_function("tom", {(): cats[0]}),
                    "meow": FunctionGraph.for_predicate("meow", {(e,) for e in meows}),
                    "bark": FunctionGraph.for_predicate("bark", {(e,) for e in barks}),
                    "makingSound": FunctionGraph.for_predicate(
                        "makingSound", {(e,) for e in makers}
                    ),
                    "soundOfKind": FunctionGraph.for_function("soundOfKind", sound_rows),
                }
                type_sets = {"Animal": animals, "Cat": cats, "Dog": dogs, **forced}
                structures.append(Structure(vocab, type_sets, graphs))
    return structures


def _subsets(elems):
    for mask in range(2 ** len(elems)):
        yield tuple(e for i, e in enumerate(elems) if mask & (1 << i))


@pytest.fixture(scope="module")
def oracle_structures(vocab):
    return _oracle_structures(vocab)


def _outcome(fn):
    try:
        return ("value", fn())
    except EvaluationError as err:
        return ("error", type(err).__name__ and True)


def test_criterion_5_semantic_equivalence(running_example, vocab, axioms, oracle_structures):
    start = time.monotonic()
    interp = build_intensional_interp(running_example)

    eq1 = axioms["sound_by_witness"]
    eq2 = axioms["making_sound_def"]
    grounded_eq4 = ground(axioms["sound_by_kind"], interp)
    example8 = axioms["any_sound"]
    grounded_example8 = ground(example8, interp)
    example9 = axioms["compact_def"]
    grounded_example9 = ground(example9, interp)
    for sentence in (eq1, eq2, axioms["sound_by_kind"], example9):
        check_sentence(running_example, sentence)

    assert len(oracle_structures) <= 100_000
    assert validate_structure(vocab, oracle_structures[0]).ok
    for s in oracle_structures:
        v1 = evaluate(s, eq1)
        v2 = evaluate(s, eq2)
        v4 = evaluate(s, grounded_eq4)
        assert v1 == v2 == v4
        assert _outcome(lambda: evaluate(s, example8)) == _outcome(
            lambda: evaluate(s, grounded_example8)
        )
        assert evaluate(s, example9) == evaluate(s, grounded_example9)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(5, f"{len(oracle_structures)} structures, all formulations agree ({elapsed:.1f}s)")


def test_criterion_7_semantics_laws(running_example, vocab, axioms, oracle_structures):
    interp = build_intensional_interp(running_example)
    eq1 = axioms["sound_by_witness"]
    eq2 = axioms["making_sound_def"]
    eq3 = axioms["all_specific"]
    grounded_eq4 = ground(axioms["sound_by_kind"], interp)
    plain = (eq1, eq2, eq3, grounded_eq4)
    desugared = {f: desugar(f) for f in plain}
    excluded_middle = {f: ast.Or(f, ast.Not(f)) for f in plain}
    wrapped = (axioms["compact_def"], axioms["compact_specific"])

    for s in oracle_structures:
        for f in plain:
            value = evaluate(s, f)
            assert isinstance(value, bool)  # two-valued, total
            assert evaluate(s, desugared[f]) == value
            assert evaluate(s, excluded_middle[f]) is True
        for f in wrapped:
            assert isinstance(evaluate(s, f), bool)
    _report(7, "excluded middle, shortcut coherence, two-valuedness")


# -- criterion 6: round-trip and totality fuzzing --------------------------------------


def test_criterion_6_roundtrip_and_totality():
    vocab = fuzz_vocabulary()
    rng = random.Random(2_024_0006)
    for _ in range(10_000):
        formula = random_formula(rng, vocab, list(FUZZ_FREE_VARS), depth=4)
        text = ast.format_formula(formula)
        assert parse_formula(text, vocab, FUZZ_FREE_VARS) == formula, text

    rng = random.Random(2_024_0007)
    for _ in range(10_000):
        source = random_garbage(rng)
        try:
            parse_theory(source)
        except GosilError:
            pass  # positioned rejection is the expected outcome
    _report(6, "10^4 round trips, 10^4 garbage inputs without a crash")


# -- criterion 8: CLI determinism and exit codes ----------------------------------------


def _run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_criterion_8_cli_contract(running_example_path, sounds_path, s0_path, tmp_path):
    invocations = [
        ("check", str(running_example_path), "--derivation", "--trace"),
        ("check", str(running_example_path), "--json"),
        ("elaborate", str(running_example_path)),
        ("ground", str(running_example_path), "--trace"),
        ("eval", str(sounds_path), "--structure", str(s0_path)),
    ]
    for argv in invocations:
        assert _run_cli(*argv) == _run_cli(*argv)

    code, _ = _run_cli("eval", str(sounds_path), "--structure", str(s0_path))
    assert code == 0  # success fixture

    code, output = _run_cli("check", str(running_example_path))
    assert code == 1  # type-error fixture
    assert "expected Dog, found Cat" in output

    bad = tmp_path / "broken.gos"
    bad.write_text("type Cat\npred meow : Cat\naxiom b: meow(\n")
    code, output = _run_cli("check", str(bad))
    assert code == 2  # parse-error fixture
    assert "error:" in output

    code, output = _run_cli("check", str(running_example_path), "--json")
    payload = json.loads(output.splitlines()[-1])
    assert {a["label"] for a in payload["axioms"]} == {
        a.label for a in parse_theory(running_example_path.read_text()).axioms
    }
    _report(8, "byte-identical reruns; exit codes 0/1/2 verified")
