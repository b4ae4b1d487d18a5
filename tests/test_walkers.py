"""The structural walkers on `ast.walk`/`ast.fold` against the recursive ones
they replaced, kept in reference_walkers: on every case the outcome, the
value or the exception class and message, must agree, and so must the class
and location of every node of a value. The same for the type checker and
the derivation-tree walkers against reference_typecheck. Plus every walker
on trees far deeper than Python's recursion limit, and a check that none of
them, nor the parser's operator loop and `unary`, calls itself."""

from __future__ import annotations

import ast as pyast
import importlib
import inspect
import io
import random
import textwrap
from pathlib import Path

import pytest

import reference_typecheck as ref_checker
import reference_walkers as ref
from generators import FUZZ_FREE_VARS, fuzz_vocabulary, random_formula
from gosil import ast, cli, elaboration, grounding, parser
from gosil.errors import (
    GroundArityError,
    IncomparableTypes,
    Location,
    MissingExtension,
    NonFunctionalFacts,
    TypingError,
    UnresolvableDeref,
)
from gosil.parser import parse_formula, parse_theory
from gosil.typecheck import VarEntry, initial_context, refold
from test_grounding import NON_FUNCTIONAL, wide_theory_text

# the module: `gosil.typecheck` as an attribute is the re-exported function
checker = importlib.import_module("gosil.typecheck")

VOCAB = fuzz_vocabulary()
INTERP = grounding.build_intensional_interp(ast.Theory(VOCAB))
CTX = initial_context(VOCAB).push(*(VarEntry(v, t) for v, t in FUZZ_FREE_VARS.items()))
MEOW = ast.ConceptRef(next(c for c in INTERP.extension("Sound") if c.name == "meow"))
TOM_AGE = ast.Apply("age", (ast.Apply("tom"),))

# Concept quantifiers, guards and dereferences, one construct or a mix of
# them per formula; x is a free Animal, y a free Universe.
HANDWRITTEN = (
    "?s[Sound]: <<c: $(s)(x)>>",
    "!s[Sound]: $(s)(x) => <<i: likes(x, tom)>>",
    "?s[Sound]: ?t[Sound]: $(s)(x) & ~$(t)(tom)",
    "!s[Sound]: !s[Sound]: $(s)(x)",
    "!s[Sound]: ?x[Animal]: $(s)(x) | meow(x)",
    "?c[Concept]: <<c: $(c)(x)>>",
    "<<c: meow(x)>> & <<i: bark(x) | likes(x, tom)>>",
    "!a[Animal]: <<c: $(`meow)(a)>> <=> <<i: $(`bark)(a)>>",
    "$(`meow)(tom) & $(`Cat)(x)",
    "$(`likes)(x)",
    "$($(`age)(x))(x)",
    "$(`meow)($(y)(), tom)",
    "$(x)($(y)())",
    "$(`Sound)(`meow) | age(x) = 3",
)


def located(value):
    """A value with the class and location of each of its nodes spelled out,
    since node equality ignores locations."""
    if isinstance(value, (ast.Term, ast.Formula)):
        return value, [(type(n).__name__, n.loc) for n in ast.walk(value)]
    if isinstance(value, list):
        return [located(v) for v in value]
    if isinstance(value, tuple):
        return tuple(located(v) for v in value)
    return value


def outcome(walker, *args) -> tuple:
    try:
        return ("value", located(walker(*args)))
    except Exception as err:  # the class and message are what is compared
        return ("raised", type(err), str(err))


def walker_pairs(f: ast.Formula):
    """(name, library call, reference call) for every walker on `f`."""
    yield "free_variables", ast.free_variables, ref.free_variables, (f,)
    for var in FUZZ_FREE_VARS:
        for replacement in (MEOW, TOM_AGE):
            yield "substitute", ast.substitute, ref.substitute, (f, var, replacement)
    yield "atom_count", ast.atom_count, ref.atom_count, (f,)
    yield "format_formula", ast.format_formula, ref.format_formula, (f,)
    for term in (n for n in ast.walk(f) if isinstance(n, ast.Term)):
        yield "format_term", ast.format_term, ref.format_term, (term,)
    yield "ground_trace", grounding.ground_trace, ref.ground_trace, (f, INTERP, FUZZ_FREE_VARS)
    yield "dependencies", grounded_dependencies, ref.dependencies, (f, INTERP)
    yield "ground", grounding.ground, ref.ground, (f, INTERP, FUZZ_FREE_VARS)
    yield "elaborate", grounding.elaborate, ref.elaborate, (CTX, f)


def grounded_dependencies(f: ast.Formula, interp: grounding.GroundInterpretation) -> frozenset[str]:
    return grounding.grounded_dependencies(interp.vocab, grounding.ground(f, interp))


def agree(f: ast.Formula, seen: set[tuple[str, str]]) -> None:
    for name, walker, reference, args in walker_pairs(f):
        found = outcome(walker, *args)
        assert found == outcome(reference, *args), (name, ast.format_formula(f))
        seen.add((name, found[0]))


def random_cases(count: int, seed: int) -> list[ast.Formula]:
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        generated = random_formula(rng, VOCAB, list(FUZZ_FREE_VARS), depth=4)
        # parsed back, every node carries a location to compare
        cases.append(parse_formula(ast.format_formula(generated), VOCAB, FUZZ_FREE_VARS))
    return cases


def test_walkers_agree_with_reference_on_random_formulas():
    seen: set[tuple[str, str]] = set()
    for f in random_cases(1000, 20_261_019):
        agree(f, seen)
    # the corpus reaches both outcomes of the walkers that raise on it
    for name in ("ground_trace", "dependencies", "ground", "elaborate"):
        assert {(name, "value"), (name, "raised")} <= seen, name


def targets_of(guard_targets):
    """`guard_targets` with each target as a tuple, so that `located` spells
    out the location of its term."""
    return lambda ctx, body: [
        (t.term, t.expected_type, t.principal_type) for t in guard_targets(ctx, body)
    ]


def test_guard_targets_agree_with_reference_on_every_wrapper_body():
    seen = set()
    walker, reference = targets_of(elaboration.guard_targets), targets_of(ref.guard_targets)
    for f in random_cases(1000, 20_261_019):
        for node in ast.walk(f):
            if isinstance(node, (ast.GuardC, ast.GuardI)):
                found = outcome(walker, CTX, node.body)
                assert found == outcome(reference, CTX, node.body), ast.format_formula(f)
                seen.add(found[0] if found[0] == "raised" else bool(found[1]))
    # some bodies have targets, some none, and some raise
    assert seen == {"raised", True, False}


def test_free_variables_agrees_with_reference_on_every_subexpression():
    # every node, so the variables and childless nodes answered without a
    # fold are reached as well as the trees folded
    seen = set()
    for f in random_cases(1000, 20_261_019):
        for node in ast.walk(f):
            assert ast.free_variables(node) == ref.free_variables(node), ast.format_formula(f)
            seen.add("variable" if isinstance(node, ast.Variable) else len(ast.children(node)) > 0)
    assert seen == {"variable", False, True}


@pytest.mark.parametrize("text", HANDWRITTEN)
def test_walkers_agree_with_reference_on_intensional_formulas(text):
    agree(parse_formula(text, VOCAB, FUZZ_FREE_VARS), set())


@pytest.mark.parametrize(
    "text, message",
    [
        # both the head and the argument fail: the head is reduced first
        ("$(x)($(y)())", "1:3: UnresolvableDeref: dereference head x does not reduce"),
        # the arity is wrong and the argument fails: arguments come first
        ("$(`meow)($(y)(), tom)", "1:12: UnresolvableDeref: dereference head y does not"),
    ],
)
def test_eliminate_reports_errors_in_evaluation_order(text, message):
    f = parse_formula(text, VOCAB, FUZZ_FREE_VARS)
    with pytest.raises(UnresolvableDeref) as raised:
        grounding.ground(f, INTERP, FUZZ_FREE_VARS)
    assert str(raised.value).startswith(message)


# -- the type checker and the derivation walkers --------------------------------


def checked(walkers, ctx, f: ast.Formula) -> tuple:
    """The outcome of checking `f` with a checker and its derivation walkers:
    the derivation exported and rendered, or the error with its location and
    its expected and found types. The library's validator accepts every
    derivation."""
    try:
        d = walkers.typecheck(ctx, f)
    except Exception as err:  # the class, message and fields are what is compared
        fields = (getattr(err, name, None) for name in ("loc", "expected", "found"))
        return ("raised", type(err), str(err), *fields)
    assert checker.validate_derivation(ctx.vocab, d)
    assert walkers.validate_derivation(ctx.vocab, d)
    return ("value", walkers.derivation_to_dict(d), walkers.render_derivation(d))


def checker_agrees(ctx, f: ast.Formula, seen: set[str]) -> None:
    found = checked(checker, ctx, f)
    assert found == checked(ref_checker, ctx, f), ast.format_formula(f)
    seen.add(found[0])
    for term in (n for n in ast.walk(f) if isinstance(n, ast.Term)):
        for name in ("principal_type", "derive_term"):
            found = outcome(exported, getattr(checker, name), ctx, term)
            assert found == outcome(exported, getattr(ref_checker, name), ctx, term), name


def exported(derive, ctx, term):
    """What `derive` gives for `term`, a derivation exported as a dict."""
    value = derive(ctx, term)
    return value if isinstance(value, str) else checker.derivation_to_dict(value)


def test_checker_agrees_with_reference_on_random_formulas():
    seen: set[str] = set()
    for f in random_cases(1000, 20_261_019):
        try:
            f = grounding.ground(f, INTERP, FUZZ_FREE_VARS)
        except Exception:  # checked as it is: the checker rejects what is left
            pass
        checker_agrees(CTX, f, seen)
    assert seen == {"value", "raised"}


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
THEORIES = {path.stem: path.read_text() for path in FIXTURES.glob("*.gos")}
THEORIES["wide_64"] = wide_theory_text(64)


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_checker_agrees_with_reference_on_theory_axioms(name):
    """Each axiom as it is, and as `check_sentence` hands it to the checker
    when it grounds or elaborates."""
    theory = parse_theory(THEORIES[name])
    ctx = initial_context(theory.vocabulary)
    seen: set[str] = set()
    for axiom in theory.axioms:
        f = axiom.formula
        checker_agrees(ctx, f, seen)
        try:
            if ref.is_intensional(theory.vocabulary, f):
                f = grounding.ground(f, grounding.interpretation(theory))
            else:
                f = grounding.elaborate(ctx, f)
        except Exception:  # the original is checked above
            continue
        checker_agrees(ctx, f, seen)
    assert "value" in seen


def sentence_outcome(check, theory: ast.Theory, sentence: ast.Formula) -> tuple:
    """What `check` makes of `sentence`: every derivation node's rule, type,
    note and expression, with its locations, or the error's class, message
    and location."""
    try:
        d = check(theory, sentence)
    except Exception as err:  # the class, message and location are what is compared
        return ("raised", type(err), str(err), getattr(err, "loc", None))
    return ("value", [
        (node.rule, node.type_name, node.note, located(node.expr))
        for node in ast.walk(d, premises)
    ])


# a concept type without an extension, under a concept quantifier after an
# arity error, beside an elaboration error, and below an empty expansion
NO_EXTENSION = """\
type A; type B <: A; type C; const a : A; const c : C; pred p : B
type P <: Concept
type E <: Concept := { }
axiom missing: $(`a)(a) & ?s[P]: $(s)(a)
axiom arity: <<c: p(c)>> & $(`a)(a)
axiom incomparable: <<c: p(c)>>
axiom skipped: ?x[B]: p(x) & ?e[E]: <<c: $(e)(x)>>
axiom unlooked: !e[E]: ?s[P]: $(s)(a)
"""


def test_grounding_skips_the_body_of_an_empty_expansion():
    """Nothing below an empty expansion is grounded: its dereferences and
    wrappers add no step and rebuild no atom outside it, and the extensions
    of its concept quantifiers are not looked up."""
    theory = parse_theory(NO_EXTENSION)
    interp = grounding.interpretation(theory)
    for axiom in theory.axioms[3:]:
        f = axiom.formula
        for walker, reference in (
            (grounding.ground_trace, ref.ground_trace), (grounding.ground, ref.ground)
        ):
            found = outcome(walker, f, interp)
            assert found == outcome(reference, f, interp), axiom.label
            assert found[0] == "value", axiom.label


# Grounding changes the shape the checker sees: a guard rule that reaches
# across instances, or starts at a wrapper's guards, or at a written guard
# above a wrapper; and a typing error met before an elaboration or a
# grounding error, which wins, or before none.
RESHAPED = """\
type S; type A0 <: S; type A1 <: S; type B <: S; type C <: S
pred p0 : A0; pred p1 : A1; pred r : B; pred q : C
type P <: Concept := { p0, p1 }; type K <: Concept := { r, q }
axiom across: !t[S]: !s[P]: <<c: $(s)(t)>>
axiom after_wrapper: !t[S]: <<c: p0(t)>> & A1(t) & p1(t)
axiom written_guard: !t[S]: B(t) => <<c: r(t)>>
axiom guard_first: !t[S]: <<c: B(t) & r(t)>>
axiom incomparable: !t[S]: r(t) & (!y[B]: <<c: q(y)>>)
axiom expanded_wrappers: !t[S]: r(t) & (?k[K]: !y[B]: <<c: $(k)(y)>>)
axiom arity: !t[S]: r(t) & (?k[K]: $(k)(t, t))
axiom mismatch: !t[S]: q(t) & (?k[K]: <<c: $(k)(t)>>)
"""

# Wrappers whose bodies are not one atom, which the guard-target scan walks:
# a conjunction, a quantifier binding a variable inside the body, a wrapper
# nested in another, and an atom over an application.
COMPOUND = """\
type S; type A0 <: S; type A1 <: S
pred p0 : A0; pred p1 : A1; pred q : S
func f : S -> S
type P <: Concept := { p0, p1 }
axiom compound: !t[S]: ?s[P]: <<c: $(s)(t) & q(t)>>
axiom bound_inside: !t[S]: !s[P]: <<i: $(s)(t) | ?x[A0]: p0(x) & $(s)(x)>>
axiom nested: !t[S]: ?s[P]: <<c: <<i: $(s)(t)>> & q(f(t))>>
axiom applied_arg: !t[S]: !u[S]: <<i: p0(t) & p0(u) & p1(f(t))>>
"""


def free_sentences() -> list[tuple[ast.Theory, ast.Formula]]:
    """Sentences of NO_EXTENSION with free variables: under an empty
    expansion, beside a concept quantifier whose type has no extension, and
    two of them."""
    theory = parse_theory(NO_EXTENSION)
    x, y, a = ast.Variable("x"), ast.Variable("y"), ast.Apply("a")
    return [(theory, f) for f in (
        ast.Forall("e", "E", ast.Atom("p", (x,))),
        ast.And(ast.Atom("p", (x,)), ast.Exists("s", "P", ast.DerefAtom(ast.Variable("s"), (a,)))),
        ast.And(ast.Atom("p", (y,)), ast.Atom("p", (x,))),
    )]


def sentence_corpus():
    """(theory, sentence) for every axiom of the fixtures, of 40 wide
    theories, of the random theories of the model search tests, of two
    theories whose grounding fails, of RESHAPED and of COMPOUND; sentences
    with free variables; and the fuzz corpus closed under !x[Animal]:
    !y[Universe]:."""
    from test_model_search import random_theory

    theories = [parse_theory(path.read_text()) for path in sorted(FIXTURES.glob("*.gos"))]
    theories += [parse_theory(wide_theory_text(width)) for width in range(3, 43)]
    theories += [random_theory(random.Random(seed)) for seed in range(220)]
    theories += [parse_theory(text) for text in (NON_FUNCTIONAL, NO_EXTENSION, RESHAPED, COMPOUND)]
    for theory in theories:
        for axiom in theory.axioms:
            yield theory, axiom.formula
    yield from free_sentences()
    fuzz = ast.Theory(VOCAB)
    for f in random_cases(1000, 20_261_019):
        yield fuzz, ast.Forall("x", "Animal", ast.Forall("y", "Universe", f))


def test_check_sentence_agrees_with_the_staged_pipeline():
    seen = set()
    for theory, sentence in sentence_corpus():
        found = sentence_outcome(checker.check_sentence, theory, sentence)
        staged = sentence_outcome(ref_checker.staged_check_sentence, theory, sentence)
        assert found == staged, ast.format_formula(sentence)
        if found[0] == "raised":
            seen.add(found[1])
        else:
            note = found[1][0][2]
            seen.add(note.split(":")[0] if note else "typed as it is")
    # grounded, elaborated and plain sentences are checked, and sentences
    # are refused by the checker and by grounding
    assert {
        "typed via grounding", "typed after guard elaboration", "typed as it is",
        TypingError, UnresolvableDeref, GroundArityError, IncomparableTypes,
        MissingExtension, NonFunctionalFacts,
    } <= seen, seen


def counting_walks_and_folds(monkeypatch) -> list[list]:
    """Every later call of `ast.walk` and `ast.fold`, nested ones included,
    in the order they start, as [kind, root, value]: a walk's root is the
    first item it walks, and a fold's value is filled in when it returns."""
    calls: list[list] = []
    walk, fold = ast.walk, ast.fold

    def counted_walk(expr, *args, **kwargs):
        calls.append(["walk", expr, None])
        return walk(expr, *args, **kwargs)

    def counted_fold(expr, *args, **kwargs):
        call = ["fold", expr, None]
        calls.append(call)
        call[2] = fold(expr, *args, **kwargs)
        return call[2]

    monkeypatch.setattr(ast, "walk", counted_walk)
    monkeypatch.setattr(ast, "fold", counted_fold)
    return calls


def test_check_sentence_surveys_a_sentence_once(monkeypatch):
    """Inside `check_sentence`, on the fixtures and on wide theories, every
    walk and fold, nested ones included, is one survey walk of the sentence,
    at most one fold of the sentence, which grounds or elaborates it, or
    else derives it, at most one fold of the grounded form that fold gave,
    which derives it, and the note's spelling of that form: no grounded
    instance gets a walk or fold of its own."""
    theories = [parse_theory(path.read_text()) for path in sorted(FIXTURES.glob("*.gos"))]
    theories += [parse_theory(wide_theory_text(width)) for width in (3, 8, 20, 64)]
    calls = counting_walks_and_folds(monkeypatch)
    checked = refused = 0
    for theory in theories:
        for axiom in theory.axioms:
            sentence = axiom.formula
            calls.clear()
            try:
                d = checker.check_sentence(theory, sentence)
            except TypingError:
                d = None
            walks = [root for kind, root, _ in calls if kind == "walk"]
            folds = [(root, value) for kind, root, value in calls if kind == "fold"]
            assert len(walks) == 1 and walks[0] is sentence, axiom.label
            noted = d is not None and d.note is not None
            if noted:
                *folds, (spelled, _) = folds
                assert spelled is d.expr, axiom.label
            (root, grounded), *derived = folds
            assert root is sentence and len(derived) <= 1, axiom.label
            assert all(root is grounded for root, _ in derived), axiom.label
            if noted:  # the sentence was grounded or elaborated, then derived
                assert derived and grounded is d.expr, axiom.label
            checked += noted
            refused += d is None
    assert (checked, refused) == (25, 13)


def test_ground_command_folds_a_sentence_once(monkeypatch):
    """`gosil ground` without `--trace` folds each sentence at most once, to
    ground it; only `--trace` folds again, for the steps before the last."""
    theories, roots = [], []
    parse, fold = cli.parse_theory, ast.fold

    def captured_parse(text):
        theories.append(parse(text))
        return theories[-1]

    def counted_fold(expr, *args, **kwargs):
        roots.append(expr)
        return fold(expr, *args, **kwargs)

    monkeypatch.setattr(cli, "parse_theory", captured_parse)
    monkeypatch.setattr(ast, "fold", counted_fold)
    folds = {}
    for path in sorted(FIXTURES.glob("*.gos")):
        roots.clear()
        cli.main(["ground", str(path)], out=io.StringIO())
        for axiom in theories[-1].axioms:
            assert sum(root is axiom.formula for root in roots) <= 1, axiom.label
        folds[path.name] = len(roots)
    assert folds == {"mixed_locations.gos": 15, "running_example.gos": 19, "sounds.gos": 16}


def test_traced_check_grounds_a_sentence_once(monkeypatch):
    """`gosil check --trace` surveys each axiom once and folds it once to
    check it, as `check` does: the last step is the grounded form that fold
    derives, or fails to type. Only the steps before the last and the
    printing of each step add folds. Its output is each axiom's
    `ground_trace` steps, when it is intensional, then what `check` prints
    for it."""
    path = FIXTURES / "running_example.gos"
    calls = counting_walks_and_folds(monkeypatch)
    counts, outputs = {}, {}
    for flags in ((), ("--trace",)):
        calls.clear()
        out = io.StringIO()
        cli.main(["check", str(path), *flags], out=out)
        outputs[flags] = out.getvalue()
        kinds = [kind for kind, *_ in calls]
        counts[flags] = kinds.count("walk"), kinds.count("fold")
    monkeypatch.undo()
    assert counts == {(): (12, 25), ("--trace",): (12, 45)}
    theory = parse_theory(path.read_text())
    blocks: dict[str, list[str]] = {axiom.label: [] for axiom in theory.axioms}
    for line in outputs[()].splitlines(keepends=True):
        head = line.split(":", 1)[0]
        label = head if head in blocks else label  # a diagnostic follows its axiom
        blocks[label].append(line)
    expected = []
    for axiom in theory.axioms:
        if ref.is_intensional(theory.vocabulary, axiom.formula):
            steps = grounding.ground_trace(axiom.formula, grounding.interpretation(theory))
            expected += [f"{axiom.label}: {step}: {ast.format_formula(f)}\n" for step, f in steps]
        expected += blocks[axiom.label]
    assert outputs[("--trace",)] == "".join(expected)


# -- trees deeper than the recursion limit -------------------------------------

DEPTH = 10_000
ATOM = ast.Atom("likes", (ast.Variable("x"), ast.Apply("tom")))


def negations() -> ast.Formula:
    f = ATOM
    for _ in range(DEPTH):
        f = ast.Not(f)
    return f


def conjunction() -> ast.Formula:
    f = ATOM
    for _ in range(DEPTH - 1):
        f = ast.And(ATOM, f)
    return f


def disjunction() -> ast.Formula:
    f = ATOM
    for _ in range(DEPTH - 1):
        f = ast.Or(ATOM, f)
    return f


def guarded_prefix() -> ast.Formula:
    """G-c over 3000 guards, Cat(x) & ... & Cat(x) & meow(x), x an Animal."""
    x = ast.Variable("x")
    return refold([ast.Atom("Cat", (x,))] * 3000 + [ast.Atom("meow", (x,))])


def spelled_chain(tree: ast.Formula, atom: str) -> str:
    return "~" * DEPTH + atom if isinstance(tree, ast.Not) else " & ".join([atom] * DEPTH)


@pytest.mark.parametrize("build", [negations, conjunction])
def test_walkers_handle_trees_deeper_than_the_recursion_limit(build):
    tree = build()
    chain = isinstance(tree, ast.Not)
    nodes = DEPTH + 3 if chain else 4 * DEPTH - 1
    assert len(list(ast.walk(tree))) == nodes
    assert ast.atom_count(tree) == (1 if chain else DEPTH)
    assert ast.free_variables(tree) == {"x"}
    intensional = (ast.ConceptRef, ast.Deref, ast.DerefAtom, ast.GuardC, ast.GuardI)
    assert not any(isinstance(node, intensional) for node in ast.walk(tree))
    assert grounding.ground(tree, INTERP) is tree  # nothing to ground
    assert ast.format_formula(tree) == spelled_chain(tree, "likes(x, tom)")
    substituted = ast.substitute(tree, "x", MEOW)
    assert ast.format_formula(substituted) == spelled_chain(tree, "likes(`meow, tom)")
    for copy in (
        ast.fold(tree, ast.rebuild),
        grounding.elaborate(CTX, tree),
    ):
        assert ast.format_formula(copy) == spelled_chain(tree, "likes(x, tom)")


@pytest.mark.parametrize(
    "inner, grounded, passes, reads",
    [
        (
            ast.DerefAtom(MEOW, (ast.Apply("tom"),)),
            "meow(tom)",
            ["eliminated intensional terms"],
            {"meow", "tom"},
        ),
        (
            parse_formula("?s[Sound]: $(s)(tom)", VOCAB),
            "(meow(tom) | bark(tom))",
            ["grounded concept quantifiers", "eliminated intensional terms"],
            {"meow", "bark", "tom"},
        ),
    ],
)
def test_grounding_handles_chains_deeper_than_the_recursion_limit(inner, grounded, passes, reads):
    tree = inner
    for _ in range(DEPTH):
        tree = ast.Not(tree)
    steps = grounding.ground_trace(tree, INTERP)
    assert [name for name, _ in steps] == ["original", *passes]
    assert steps[0][1] is tree
    assert ast.format_formula(steps[-1][1]) == "~" * DEPTH + grounded
    assert ast.format_formula(grounding.ground(tree, INTERP)) == "~" * DEPTH + grounded
    assert grounded_dependencies(tree, INTERP) == reads


def premises(d) -> tuple:
    return d.premises


@pytest.mark.parametrize("build", [negations, conjunction, disjunction, guarded_prefix])
def test_checker_handles_trees_deeper_than_the_recursion_limit(build):
    tree = build()
    d = checker.typecheck(CTX, tree)
    assert checker.validate_derivation(VOCAB, d)
    rules = [node.rule for node in ast.walk(d, premises)]
    if build is guarded_prefix:
        # 3000 guarded terms at Universe, then meow(x) with x a Cat
        assert rules[:3] == ["G-c", "T-sub", "T-var"] and len(rules) == 2 * 3000 + 3
        assert d.premises[-1].premises[0].conclusion() == "x : Cat"
    elif build is negations:
        assert rules == ["T-neg"] * DEPTH + ["T-app", "T-var", "T-sub", "T-app"]
    else:  # each atom: T-app, and T-app for tom
        link = "T-and" if build is conjunction else "T-or"
        assert rules.count(link) == DEPTH - 1 and rules.count("T-app") == 2 * DEPTH


def test_checker_locates_an_error_below_a_deep_tree():
    x = ast.Variable("x", loc=Location(7, 9))  # an Animal where bark takes a Dog
    f = ast.Atom("bark", (x,))
    for _ in range(DEPTH):
        f = ast.And(ATOM, ast.Not(f))
    with pytest.raises(TypingError) as raised:
        checker.typecheck(CTX, f)
    error = raised.value
    assert (error.kind, error.expr, error.loc) == ("ArgumentTypeMismatch", x, Location(7, 9))
    assert (error.expected, error.found) == ("Dog", "Animal")


# The rendered derivation of a chain holds the spelling of every suffix of
# it, indented by its depth, so its size grows with the square of the depth:
# these run three times deeper than the recursion limit, not at DEPTH.
RENDERED_DEPTH = 3000


@pytest.mark.parametrize("connective", [ast.Not, ast.And, ast.Or])
def test_derivation_walkers_handle_derivations_deeper_than_the_recursion_limit(connective):
    f = ast.Truth(True)
    for _ in range(RENDERED_DEPTH):
        f = connective(f) if connective is ast.Not else connective(ast.Truth(True), f)
    d = checker.typecheck(CTX, f)
    lines = checker.render_derivation(d).split("\n")
    count = "[1 premise]" if connective is ast.Not else "[2 premises]"
    assert lines[0] == f"{d.rule} ⊢ {ast.format_formula(f)} : Bool  {count}"
    assert lines[-1] == "  " * RENDERED_DEPTH + "T-tr ⊢ true : Bool"
    assert len(lines) == sum(1 for _ in ast.walk(d, premises))
    node, depth = checker.derivation_to_dict(d), 0
    while node["children"]:
        assert node["rule"] == d.rule and node["type"] == "Bool"
        node, depth = node["children"][-1], depth + 1
    assert (node["expression"], depth) == ("true", RENDERED_DEPTH)


def test_guard_targets_handle_bodies_deeper_than_the_recursion_limit():
    meow = ast.Atom("meow", (ast.Variable("x"),))  # x is an Animal, meow takes a Cat
    negated = conjoined = meow
    for _ in range(DEPTH):
        negated, conjoined = ast.Not(negated), ast.And(meow, conjoined)
    for body in (negated, conjoined):
        # one target, however often its occurrence repeats
        (target,) = elaboration.guard_targets(CTX, body)
        assert (target.term, target.expected_type) == (ast.Variable("x"), "Cat")


def test_term_walkers_handle_terms_deeper_than_the_recursion_limit():
    term = ast.Variable("x")
    for _ in range(DEPTH):
        term = ast.Apply("+", (term, ast.NatLiteral(1)))
    assert ast.format_term(term) == "(" * DEPTH + "x" + " + 1)" * DEPTH
    assert ast.free_variables(term) == {"x"}
    assert ast.format_term(ast.substitute(term, "x", TOM_AGE)).startswith("(" * DEPTH + "age(tom)")


REWRITTEN = (
    "ast.walk",
    "ast.fold",
    "ast.free_variables",
    "ast.substitute",
    "ast.atom_count",
    "ast.format_term",
    "ast.format_formula",
    "ast._spell",
    "grounding.elaborate",
    "elaboration.guard_targets",
    "typecheck.typecheck",
    "typecheck.derive_term",
    "typecheck.render_derivation",
    "typecheck.derivation_lines",
    "typecheck.derivation_to_dict",
    "typecheck.validate_derivation",
    "parser._FormulaParser.chain",
    "parser._FormulaParser.unary",
)


def called_names(node: pyast.AST) -> set[str]:
    names = set()
    for call in pyast.walk(node):
        if isinstance(call, pyast.Call):
            func = call.func
            names.add(func.id if isinstance(func, pyast.Name) else getattr(func, "attr", ""))
    return names


@pytest.mark.parametrize("name", REWRITTEN)
def test_no_rewritten_walker_calls_itself(name):
    module, *path = name.split(".")
    modules = {"ast": ast, "grounding": grounding, "elaboration": elaboration, "parser": parser,
               "typecheck": checker}
    walker = modules[module]
    for attribute in path:
        walker = getattr(walker, attribute)
    function = path[-1]
    (definition,) = pyast.parse(textwrap.dedent(inspect.getsource(walker))).body
    assert function not in called_names(definition)
    for inner in pyast.walk(definition):
        if isinstance(inner, pyast.FunctionDef) and inner is not definition:
            assert inner.name not in called_names(inner), inner.name


@pytest.mark.parametrize("name", ["semantics._compile", "grounding._reduce_head"])
def test_the_evaluator_compiler_and_head_reduction_call_no_function_of_their_own(name):
    module, function = name.split(".")
    walker = getattr(importlib.import_module(f"gosil.{module}"), function)
    (definition,) = pyast.parse(textwrap.dedent(inspect.getsource(walker))).body
    own = {inner.name for inner in pyast.walk(definition) if isinstance(inner, pyast.FunctionDef)}
    assert own >= {function, "enter", "combine"}
    assert not own & called_names(definition)
