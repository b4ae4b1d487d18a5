"""The single-pattern scanner `gosil.parser.tokenize` against the
character-at-a-time scanner it replaced (`reference_parser`)."""

import random
from pathlib import Path

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
from gosil import ast
from gosil.errors import ParseError
from gosil.parser import tokenize
from reference_parser import tokenize_by_character

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# operators, blanks, comments and characters on both sides of the lexical
# classes: letters (é ß), a decimal digit of another script (٣), digits and
# numbers that are not decimal (² Ⅳ), and `_`
_PIECES = (
    "<=>", ":=", "<:", "<<", ">>", "->", "=>", *"()[]{},:;=*+-`$~&|?!^<>/",
    "//", "\n", " ", "\t", "\r", "é", "ß", "²", "٣", "Ⅳ", "_", "a", "x1", "7", "42",
    "type", "axiom", "true",
)


def _lexed(scan, text: str):
    try:
        return [(t.kind, t.text, t.loc.line, t.loc.column) for t in scan(text)]
    except ParseError as err:
        return type(err), err.message, err.loc


def assert_same_tokens(text: str) -> None:
    old, new = _lexed(tokenize_by_character, text), _lexed(tokenize, text)
    if old == new:
        return
    # The one difference allowed: the old scanner read a digit that is not
    # decimal, such as `²`, into a `nat` token that int() cannot read; the
    # new one stops at that character with a located ParseError.
    assert isinstance(new, tuple), (text, old, new)
    _, message, loc = new
    offset = sum(len(line) + 1 for line in text.split("\n")[: loc.line - 1]) + loc.column - 1
    char = text[offset]
    assert message == f"unexpected character {char!r}", (text, old, new)
    assert char.isdigit() and not char.isdecimal(), (text, old, new)
    *_, last, _newline, _eof = tokenize_by_character(text[: offset + 1])
    assert last.kind == "nat" and last.text.endswith(char), (text, old, new)
    with pytest.raises(ValueError):
        int(last.text)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.[gs]*")), ids=lambda p: p.name)
def test_fixture_files_lex_alike(path):
    assert_same_tokens(path.read_text(encoding="utf-8"))


def test_generated_theories_lex_alike():
    rng = random.Random(11)
    fuzz = fuzz_vocabulary()
    theories = []
    for i in range(60):
        axioms = [
            ast.Axiom(f"a{k}", random_formula(rng, fuzz, list(FUZZ_FREE_VARS), depth=4))
            for k in range(3)
        ]
        theories.append(ast.Theory(fuzz, tuple(axioms), ()))
        vocab, conjunctive, implicative = guarded_dereference_instance(rng)
        axioms = [ast.Axiom("conj", conjunctive), ast.Axiom("impl", implicative)]
        theories.append(ast.Theory(vocab, tuple(axioms), ()))
        theories.append(ast.Theory(random_vocabulary(rng), (), ()))
        theories.append(ast.Theory(proposition_width_vocabulary(i % 8), (), ()))
    for theory in theories:
        assert_same_tokens(ast.format_theory(theory))


def test_random_strings_lex_alike():
    rng = random.Random(2026)
    for _ in range(5000):
        assert_same_tokens(random_garbage(rng))
    for _ in range(5000):
        assert_same_tokens("".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 30))))


def test_the_allowed_difference_occurs():
    # `²` is a digit (`str.isdigit`) but not a decimal one: the old scanner
    # made a `nat` token of it, the new one refuses it where it stands
    for text in ("p(²)", "3²", "x = ²3"):
        assert isinstance(_lexed(tokenize_by_character, text), list)
        assert_same_tokens(text)
    with pytest.raises(ParseError, match=r"unexpected character '²'") as err:
        tokenize("f(a) = 3²")
    assert str(err.value.loc) == "1:9"

