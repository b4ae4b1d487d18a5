"""Lexer and parser for the theory surface syntax.

Statement forms, one per line (newline or ';' terminates):

    type Cat <: Animal                   type Sound <: Concept := { meow, bark }
    func age : Animal -> Nat             const tom : Cat
    pred meow : Cat                      pred raining
    define soundOfKind(`Cat) = `meow
    axiom label: ?a[Animal]: Cat(a) & meow(a)

Formulas use ~ & | => <=> (loosest last, => right-associative), quantifiers
?x[T]: and !x[T]: whose bodies extend to the end of the enclosing
(sub)formula, implicit guards <<c: ...>> and <<i: ...>>, concept references
`name, and dereferences $(term)(args); terms use + - *. The binding level
and associativity of each binary operator come from the one operator table
in `ast`, which the printer reads too.

`tokenize` matches the one token pattern `_TOKEN` once per token, for
theories and structure files alike; `numeral` reads every numeral of a
theory, a structure or a `--bound`.

The parser resolves every identifier against the vocabulary built so far, so
arity errors and unknown names surface here with positions, and the ASTs it
returns are ready for the type checker.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import NamedTuple, TypeVar

from . import ast
from .errors import (
    ArityError,
    Location,
    ParseError,
    UnknownIdentifier,
    VocabularyError,
)
from .vocabulary import (
    BOOL,
    CONCEPT,
    ConceptExtension,
    ConceptObject,
    Vocabulary,
    base_vocabulary,
    declare_symbol,
    declare_type,
    is_subtype,
    resolve_concept,
    validate,
)

_T = TypeVar("_T")

KEYWORDS = frozenset(
    ("type", "func", "pred", "const", "axiom", "define", "true", "false")
)

# multi-character operators come first, so that `<=>` is not read as `<`
_OPERATORS = ("<=>", ":=", "<:", "<<", ">>", "->", "=>", *"()[]{},:;=*+-`$~&|?!^")

# Blanks and comments, then one alternative per token kind, tried in order,
# or the end of the text. `\d` is a decimal digit of any script; `\w` is what
# `str.isalnum` accepts, plus `_`. A word whose first character is not a
# letter (`_x`, `²`) matches `ident` and is refused there, as is any other
# character, which matches `bad`.
_TOKEN = re.compile(
    r"(?:[ \t\r]|//.*)*(?:(?P<newline>\n)|(?P<nat>\d+)|(?P<ident>\w+)"
    f"|(?P<op>{'|'.join(map(re.escape, _OPERATORS))})|(?P<eof>\\Z)|(?P<bad>.))"
)


class Token(NamedTuple):
    kind: str  # "ident", "nat", "kw", "op", "newline", "eof"
    text: str
    loc: Location


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, one `_TOKEN` match each, blanks and comments
    before it included. A run of newlines makes one token, and a newline and
    `eof` end the list."""
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    match = _TOKEN.match
    while True:
        found = match(text, pos)
        kind = found.lastgroup
        start, pos = found.span(kind)
        if kind == "newline":
            if not tokens or tokens[-1].kind != "newline":
                tokens.append(Token(kind, "\n", Location(line, start - line_start + 1)))
            line, line_start = line + 1, pos
            continue
        if kind == "eof":
            break
        word = text[start:pos]
        if kind == "bad" or kind == "ident" and not word[0].isalpha():
            raise ParseError(f"unexpected character {word[0]!r}", Location(line, start - line_start + 1))
        if kind == "ident" and word in KEYWORDS:
            kind = "kw"
        tokens.append(Token(kind, word, Location(line, start - line_start + 1)))
    end = Location(line, pos - line_start + 1)
    if not tokens or tokens[-1].kind != "newline":
        tokens.append(Token("newline", "\n", end))
    tokens.append(Token("eof", "", end))
    return tokens


def numeral(text: str, loc: Location | None = None) -> int:
    """The value of a numeral: decimal digits of any script, so `٣` is 3.
    A numeral longer than `int` reads (`sys.get_int_max_str_digits()`)
    raises a ParseError at `loc`."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"numeral of {len(text)} digits is too long", loc) from None


class TokenStream:
    """A cursor over a token list: `tok` is the token at `pos`. The stream
    never moves past its last token, `eof`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.seek(0)

    def seek(self, pos: int) -> None:
        self.pos = pos
        self.tok = self.tokens[pos]

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)] if offset else self.tok

    def next(self) -> Token:
        tok = self.tok
        if tok.kind != "eof":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    # Only an operator token is spelled like an operator, so these compare
    # the spelling alone.

    def at_op(self, text: str) -> bool:
        return self.tok.text == text

    def accept_op(self, text: str) -> bool:
        if self.tok.text == text:
            self.next()
            return True
        return False

    def expect_op(self, text: str) -> Token:
        tok = self.tok
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.loc)
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.loc)
        return self.next()

    def concept_name(self, what: str) -> tuple[str, Location]:
        """The name in `` `name `` or `` `name^ ``, `^` included, and where it
        stands; `what` names the identifier expected after the backtick."""
        self.expect_op("`")
        tok = self.expect_ident(what)
        return (tok.text + "^" if self.accept_op("^") else tok.text), tok.loc

    def skip_newlines(self) -> None:
        while self.peek().kind == "newline":
            self.next()

    def separated(
        self, item: Callable[[], _T], close: str | None = None, sep: str = ","
    ) -> list[_T]:
        """The items of an `item (sep item)*` list. With `close` the list
        may be empty and ends at that operator, which is consumed."""
        items: list[_T] = []
        if close is None or not self.at_op(close):
            items.append(item())
            while self.accept_op(sep):
                items.append(item())
        if close is not None:
            self.expect_op(close)
        return items

    def expect_statement_end(self) -> None:
        tok = self.peek()
        if tok.kind in ("newline", "eof"):
            if tok.kind == "newline":
                self.next()
            return
        if self.accept_op(";"):
            return
        raise ParseError(f"expected end of statement, found {tok.text!r}", tok.loc)


class _FormulaParser:
    """Formula/term parser over a fixed vocabulary: one operator-precedence
    loop for chains of binary operators, recursive descent for the rest."""

    def __init__(self, stream: TokenStream, vocab: Vocabulary, scope: dict[str, str]):
        self.s = stream
        self.vocab = vocab
        self.scope = dict(scope)
        self._failed_terms: dict[int, tuple[type[ParseError], str, Location | None]] = {}

    def formula(self) -> ast.Formula:
        return self.chain(self.unary, ast.CONNECTIVES)

    def term(self) -> ast.Term:
        return self.chain(self.term_primary, ast.ARITHMETIC_OPERATORS)

    def chain(self, operand: Callable[[], _T], operators: dict) -> _T:
        """`operand (op operand)*` over an `ast` operator table, in one loop
        however long the chain; each node is located at its operator."""
        operands = [operand()]
        waiting: list[tuple[Token, type, int]] = []  # operator, node class, level
        while True:
            node, level, right = operators.get(self.s.tok.text, (None, 0, False))
            # apply the waiting operators that bind tighter than the next one,
            # or as tightly if it is left-associative; at the chain's end, all
            while waiting and waiting[-1][2] >= level + right:
                op, op_node, _ = waiting.pop()
                args = (operands[-2], operands.pop())
                operands[-1] = (
                    ast.Apply(op.text, args, loc=op.loc) if op_node is ast.Apply
                    else op_node(*args, loc=op.loc)
                )
            if node is None:
                return operands[0]
            waiting.append((self.s.next(), node, level))
            operands.append(operand())

    def unary(self) -> ast.Formula:
        negations: list[Location] = []
        while self.s.at_op("~"):
            negations.append(self.s.next().loc)
        tok = self.s.tok
        if tok.kind == "op" and tok.text in ("?", "!"):
            body = self.quantifier()
        elif self.s.at_op("<<"):
            body = self.guard()
        else:
            body = self.primary()
        for loc in reversed(negations):
            body = ast.Not(body, loc=loc)
        return body

    def quantifier(self) -> ast.Formula:
        tok = self.s.next()
        var = self.s.expect_ident("variable name").text
        self.s.expect_op("[")
        type_tok = self.s.expect_ident("type name")
        if not self.vocab.has_type(type_tok.text):
            raise UnknownIdentifier(f"unknown type {type_tok.text!r}", type_tok.loc)
        self.s.expect_op("]")
        self.s.expect_op(":")
        shadowed = self.scope.get(var)
        self.scope[var] = type_tok.text
        body = self.formula()
        if shadowed is None:
            del self.scope[var]
        else:
            self.scope[var] = shadowed
        node = ast.Exists if tok.text == "?" else ast.Forall
        return node(var, type_tok.text, body, loc=tok.loc)

    def guard(self) -> ast.Formula:
        open_tok = self.s.expect_op("<<")
        mode = self.s.expect_ident("guard mode 'c' or 'i'")
        if mode.text not in ("c", "i"):
            raise ParseError(f"expected guard mode 'c' or 'i', found {mode.text!r}", mode.loc)
        self.s.expect_op(":")
        body = self.formula()
        self.s.expect_op(">>")
        node = ast.GuardC if mode.text == "c" else ast.GuardI
        return node(body, loc=open_tok.loc)

    def primary(self) -> ast.Formula:
        tok = self.s.tok
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.s.next()
            return ast.Truth(tok.text == "true", loc=tok.loc)
        # A primary is either an atom built from a term (possibly an equality)
        # or a parenthesized formula; try the term reading first and fall back.
        mark = self.s.pos
        try:
            term = self.term()
        except ParseError:
            self.s.seek(mark)
            if self.s.accept_op("("):
                inner = self.formula()
                self.s.expect_op(")")
                return inner
            raise
        if self.s.at_op("="):
            loc = self.s.next().loc
            right = self.term()
            return ast.Atom(ast.EQUALITY_ATOM, (term, right), loc=loc)
        return self._term_as_formula(term, tok)

    def _term_as_formula(self, term: ast.Term, tok: Token) -> ast.Formula:
        match term:
            case ast.Apply(symbol, args):
                return ast.Atom(symbol, args, loc=tok.loc)
            case ast.Deref(head, args):
                return ast.DerefAtom(head, args, loc=tok.loc)
            case ast.Variable(name):
                raise ParseError(f"variable {name!r} cannot stand alone as a formula", tok.loc)
            case ast.NatLiteral():
                raise ParseError("a number is not a formula", tok.loc)
            case ast.ConceptRef():
                raise ParseError("a concept reference is not a formula", tok.loc)
        raise ParseError("expected a formula", tok.loc)

    # terms ------------------------------------------------------------------

    def term_primary(self) -> ast.Term:
        tok = self.s.tok
        if tok.kind == "nat":
            self.s.next()
            return ast.NatLiteral(numeral(tok.text, tok.loc), loc=tok.loc)
        if self.s.at_op("`"):
            name, name_loc = self.s.concept_name("symbol or type name after '`'")
            concept = resolve_concept(self.vocab, name)
            if concept is None:
                raise UnknownIdentifier(f"unknown concept name {name!r}", name_loc)
            return ast.ConceptRef(concept, loc=tok.loc)
        if self.s.accept_op("$"):
            self.s.expect_op("(")
            head = self.term()
            self.s.expect_op(")")
            args = self.argument_list()
            return ast.Deref(head, args, loc=tok.loc)
        if self.s.at_op("("):
            return self.parenthesized_term()
        if tok.kind == "ident":
            self.s.next()
            name = tok.text
            if name in self.scope:
                return ast.Variable(name, loc=tok.loc)
            sig = self.vocab.signature(name)
            if sig is None:
                raise UnknownIdentifier(f"unknown identifier {name!r}", tok.loc)
            args = self.argument_list() if self.s.at_op("(") else ()
            if len(args) != sig.arity:
                raise ArityError(
                    f"{name!r} expects {sig.arity} argument(s), got {len(args)}", tok.loc
                )
            return ast.Apply(name, args, loc=tok.loc)
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.loc)

    def parenthesized_term(self) -> ast.Term:
        """`( term )`. `primary` reads each `(` first as a term and then as a
        formula, so a `(` that failed as a term fails again at once: nested
        parentheses cost linear work. The memo keeps what raises an equal
        error, not the exception, whose traceback holds the parser's frames."""
        mark = self.s.pos
        if mark in self._failed_terms:
            error, message, loc = self._failed_terms[mark]
            raise error(message, loc)
        self.s.expect_op("(")
        try:
            inner = self.term()
            self.s.expect_op(")")
        except ParseError as err:
            self._failed_terms[mark] = (type(err), err.message, err.loc)
            raise
        return inner

    def argument_list(self) -> tuple[ast.Term, ...]:
        self.s.expect_op("(")
        return tuple(self.s.separated(self.term, ")"))


def _parse_whole(text: str, vocab: Vocabulary, free_var_types, parse: Callable[..., _T]) -> _T:
    """`parse` run on all of `text`; free variables must be listed with their types."""
    stream = TokenStream(tokenize(text))
    stream.skip_newlines()
    scope = dict(free_var_types)
    for type_name in scope.values():
        if not vocab.has_type(type_name):
            raise UnknownIdentifier(f"unknown type {type_name!r} for free variable")
    parsed = parse(_FormulaParser(stream, vocab, scope))
    stream.skip_newlines()
    tok = stream.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.loc)
    return parsed


def parse_formula(
    text: str,
    vocab: Vocabulary,
    free_var_types: dict[str, str] | list[tuple[str, str]] = (),
) -> ast.Formula:
    """Parse a single formula; free variables must be listed with their types."""
    return _parse_whole(text, vocab, free_var_types, _FormulaParser.formula)


def parse_term(text: str, vocab: Vocabulary, free_var_types=()) -> ast.Term:
    """Parse a single term; free variables must be listed with their types."""
    return _parse_whole(text, vocab, free_var_types, _FormulaParser.term)


class _TheoryParser:
    def __init__(self, text: str):
        self.s = TokenStream(tokenize(text))
        self.vocab = base_vocabulary()
        self.axioms: list[ast.Axiom] = []
        self.facts: list[ast.ConceptFact] = []
        self._auto_label = 0

    def parse(self) -> ast.Theory:
        while True:
            self.s.skip_newlines()
            tok = self.s.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "kw":
                raise ParseError(
                    f"expected a declaration or axiom, found {tok.text!r}", tok.loc
                )
            handler = {
                "type": self.type_decl,
                "func": self.func_decl,
                "pred": self.pred_decl,
                "const": self.const_decl,
                "define": self.define_stmt,
                "axiom": self.axiom_stmt,
            }.get(tok.text)
            if handler is None:
                raise ParseError(f"unexpected keyword {tok.text!r} at statement start", tok.loc)
            self.s.next()
            handler(tok.loc)
            self.s.expect_statement_end()
        report = validate(self.vocab)
        if not report.ok:
            raise ParseError(f"invalid vocabulary: {report.violations[0]}")
        return ast.Theory(self.vocab, tuple(self.axioms), tuple(self.facts))

    def _declare(self, fn, loc: Location, *args, **kwargs) -> None:
        try:
            self.vocab = fn(self.vocab, *args, **kwargs)
        except VocabularyError as err:
            err.loc = loc
            raise

    def type_decl(self, loc: Location) -> None:
        name = self.s.expect_ident("type name").text
        supertypes: list[str] = []
        if self.s.accept_op("<:"):
            supertypes = self.s.separated(lambda: self.s.expect_ident("supertype name").text)
        extension = None
        if self.s.accept_op(":="):
            self.s.expect_op("{")
            members = self.s.separated(self._extension_member, "}")
            extension = ConceptExtension(name, tuple(members))
        self._declare(declare_type, loc, name, supertypes, extension)

    def _extension_member(self) -> str:
        self.s.accept_op("`")  # members may be written bare or as references
        return self.s.expect_ident("extension member").text

    def _type_list(self) -> list[str]:
        return self.s.separated(lambda: self.s.expect_ident("type name").text, sep="*")

    def func_decl(self, loc: Location) -> None:
        name = self.s.expect_ident("function name").text
        self.s.expect_op(":")
        args = self._type_list()
        self.s.expect_op("->")
        result = self.s.expect_ident("result type").text
        self._declare(declare_symbol, loc, name, args, result)

    def const_decl(self, loc: Location) -> None:
        name = self.s.expect_ident("constant name").text
        self.s.expect_op(":")
        result = self.s.expect_ident("type name").text
        self._declare(declare_symbol, loc, name, [], result)

    def pred_decl(self, loc: Location) -> None:
        name = self.s.expect_ident("predicate name").text
        args: list[str] = []
        if self.s.accept_op(":"):
            args = self._type_list()
        self._declare(declare_symbol, loc, name, args, BOOL)

    def define_stmt(self, loc: Location) -> None:
        name_tok = self.s.expect_ident("function name")
        sig = self.vocab.signature(name_tok.text)
        if sig is None:
            raise UnknownIdentifier(f"unknown symbol {name_tok.text!r}", name_tok.loc)
        if not is_subtype(self.vocab, sig.result_type, CONCEPT):
            raise ParseError(
                f"define requires a concept-valued function, {name_tok.text!r} "
                f"yields {sig.result_type}",
                name_tok.loc,
            )
        self.s.expect_op("(")
        args = self.s.separated(self._fact_concept, ")")
        if len(args) != sig.arity:
            raise ArityError(
                f"{name_tok.text!r} expects {sig.arity} argument(s), got {len(args)}",
                name_tok.loc,
            )
        self.s.expect_op("=")
        value = self._fact_concept()
        self.facts.append(ast.ConceptFact(name_tok.text, tuple(args), value, loc=loc))

    def _fact_concept(self) -> ConceptObject:
        loc = self.s.peek().loc
        name, _ = self.s.concept_name("concept name")
        concept = resolve_concept(self.vocab, name)
        if concept is None:
            raise UnknownIdentifier(f"unknown concept name {name!r}", loc)
        return concept

    def axiom_stmt(self, loc: Location) -> None:
        label: str | None = None
        if self.s.peek().kind == "ident" and self.s.peek(1).kind == "op" and self.s.peek(1).text == ":":
            label = self.s.next().text
            self.s.next()
        if label is None:
            self._auto_label += 1
            label = f"ax{self._auto_label}"
        if any(a.label == label for a in self.axioms):
            raise ParseError(f"duplicate axiom label {label!r}", loc)
        parser = _FormulaParser(self.s, self.vocab, {})
        formula = parser.formula()
        self.axioms.append(ast.Axiom(label, formula, loc=loc))


def parse_theory(text: str) -> ast.Theory:
    """Parse a complete theory; the resulting vocabulary is validated and
    every axiom is a closed, arity-correct formula."""
    return _TheoryParser(text).parse()
