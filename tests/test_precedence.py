"""The operator-precedence loop of gosil.parser against the recursive-descent
ladder it replaced, kept in reference_parser: on every input both must give
the same tree with the same class, spelling and location at every node, or
the same error class, message and location. Plus chains far longer than
Python's recursion limit, which the ladder could not parse."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import reference_parser as ref
from generators import FUZZ_FREE_VARS, fuzz_vocabulary, random_formula, random_garbage
from gosil import ast
from gosil.errors import GosilError
from gosil.parser import parse_formula, parse_theory

VOCAB = fuzz_vocabulary()
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def spelled(node) -> str:
    return ast.format_term(node) if isinstance(node, ast.Term) else ast.format_formula(node)


def located(tree) -> list:
    """Class, spelling and location of every node, since node equality
    ignores locations."""
    return [(type(node).__name__, spelled(node), node.loc) for node in ast.walk(tree)]


def outcome(parse, text: str) -> tuple:
    try:
        result = parse(text)
    except GosilError as err:
        return "error", type(err).__name__, str(err), err.loc
    if isinstance(result, ast.Theory):
        axioms = [(a.label, a.loc, located(a.formula)) for a in result.axioms]
        return "parsed", ast.format_theory(result), axioms
    return "parsed", located(result)


def inputs() -> list[tuple[str, str]]:
    """(kind, text): the criterion-6 fuzz formulas, each also with one
    character dropped or its first `(` removed, byte and token soup read as
    a formula and as a theory, and the fixtures."""
    rng = random.Random(2_024_0006)
    formulas = [
        ast.format_formula(random_formula(rng, VOCAB, list(FUZZ_FREE_VARS), depth=4))
        for _ in range(10_000)
    ]
    cases = [("formula", text) for text in formulas]
    rng = random.Random(10)
    for i, text in enumerate(formulas):
        if i % 2 and "(" in text:
            cases.append(("formula", text.replace("(", "", 1)))
        else:
            at = rng.randrange(len(text))
            cases.append(("formula", text[:at] + text[at + 1 :]))
    for _ in range(500):
        garbage = random_garbage(rng)
        cases += [("formula", garbage), ("theory", garbage)]
    cases += [("theory", path.read_text()) for path in sorted(FIXTURES.glob("*.gos"))]
    return cases


def test_parser_agrees_with_reference_ladder():
    parsers = {
        "formula": (
            lambda text: parse_formula(text, VOCAB, FUZZ_FREE_VARS),
            lambda text: ref.parse_formula(text, VOCAB, FUZZ_FREE_VARS),
        ),
        "theory": (parse_theory, ref.parse_theory),
    }
    cases = inputs()
    assert len(cases) >= 20_000
    reached = set()
    disagreements = []
    for kind, text in cases:
        library, reference = (outcome(parse, text) for parse in parsers[kind])
        reached.add((kind, library[0]))
        if library != reference:
            disagreements.append((kind, text, library, reference))
    assert disagreements == []
    assert reached == {(kind, result) for kind in parsers for result in ("parsed", "error")}


# -- chains longer than the recursion limit --------------------------------------

LENGTH = 10_000
ATOM = "raining"


@pytest.mark.parametrize("op", ["&", "|", "=>", "<=>"])
def test_long_binary_chain_parses(op):
    text = f" {op} ".join([ATOM] * LENGTH)
    tree = parse_formula(text, VOCAB, FUZZ_FREE_VARS)
    node, _, right_associative = ast.CONNECTIVES[op]
    # a chain nested the other way round would print with parentheses
    assert ast.format_formula(tree) == text
    assert sum(1 for _ in ast.walk(tree)) == 2 * LENGTH - 1
    # each node sits at its operator: the outermost at the first operator
    # of a right-associative chain, at the last of a left-associative one
    assert type(tree) is node
    column = text.index(op) if right_associative else text.rindex(op)
    assert (tree.loc.line, tree.loc.column) == (1, column + 1)


def test_long_negation_chain_parses():
    text = "~" * LENGTH + ATOM
    tree = parse_formula(text, VOCAB, FUZZ_FREE_VARS)
    assert ast.format_formula(tree) == text
    assert sum(1 for _ in ast.walk(tree)) == LENGTH + 1
    assert [node.loc.column for node in ast.walk(tree)][:LENGTH] == list(range(1, LENGTH + 1))
