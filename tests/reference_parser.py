"""The recursive-descent ladder that the operator-precedence loop of
gosil.parser replaced, kept as a test-only oracle: one method per binding
level (`formula`, `implication`, `disjunction`, `conjunction`, and `term`,
`product`), each calling the next, `=>`, `|` and `&` calling themselves once
per chain element, and a `unary` that calls itself once per `~`. The method
bodies are the originals. Quantifiers, guards, primaries and the tokenizer
are the library's; the entry points differ from the library's only in
building this parser.

`tokenize_by_character` is the scanner that the single token pattern of
`gosil.parser.tokenize` replaced, moved here unchanged but for its name: a
loop that reads one character at a time. It is the oracle of the
differential lexer test.
"""

from __future__ import annotations

from gosil import ast
from gosil.errors import Location, ParseError, UnknownIdentifier
from gosil.parser import KEYWORDS, Token, TokenStream, _FormulaParser, _TheoryParser, tokenize
from gosil.vocabulary import Vocabulary


class ReferenceFormulaParser(_FormulaParser):
    # formulas, loosest binding first -------------------------------------

    def formula(self) -> ast.Formula:
        left = self.implication()
        while self.s.at_op("<=>"):
            loc = self.s.next().loc
            right = self.implication()
            left = ast.Iff(left, right, loc=loc)
        return left

    def implication(self) -> ast.Formula:
        left = self.disjunction()
        if self.s.at_op("=>"):
            loc = self.s.next().loc
            right = self.implication()
            return ast.Implies(left, right, loc=loc)
        return left

    def disjunction(self) -> ast.Formula:
        left = self.conjunction()
        if self.s.at_op("|"):
            loc = self.s.next().loc
            right = self.disjunction()
            return ast.Or(left, right, loc=loc)
        return left

    def conjunction(self) -> ast.Formula:
        left = self.unary()
        if self.s.at_op("&"):
            loc = self.s.next().loc
            right = self.conjunction()
            return ast.And(left, right, loc=loc)
        return left

    def unary(self) -> ast.Formula:
        tok = self.s.peek()
        if self.s.accept_op("~"):
            return ast.Not(self.unary(), loc=tok.loc)
        if tok.kind == "op" and tok.text in ("?", "!"):
            return self.quantifier()
        if self.s.at_op("<<"):
            return self.guard()
        return self.primary()

    # terms ------------------------------------------------------------------

    def term(self) -> ast.Term:
        left = self.product()
        while self.s.peek().kind == "op" and self.s.peek().text in ("+", "-"):
            op = self.s.next()
            right = self.product()
            left = ast.Apply(op.text, (left, right), loc=op.loc)
        return left

    def product(self) -> ast.Term:
        left = self.term_primary()
        while self.s.at_op("*"):
            op = self.s.next()
            right = self.term_primary()
            left = ast.Apply(op.text, (left, right), loc=op.loc)
        return left


def parse_formula(
    text: str,
    vocab: Vocabulary,
    free_var_types: dict[str, str] | list[tuple[str, str]] = (),
) -> ast.Formula:
    stream = TokenStream(tokenize(text))
    stream.skip_newlines()
    scope = dict(free_var_types)
    for type_name in scope.values():
        if not vocab.has_type(type_name):
            raise UnknownIdentifier(f"unknown type {type_name!r} for free variable")
    parser = ReferenceFormulaParser(stream, vocab, scope)
    formula = parser.formula()
    stream.skip_newlines()
    tok = stream.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.loc)
    return formula


class _ReferenceTheoryParser(_TheoryParser):
    def axiom_stmt(self, loc) -> None:
        label: str | None = None
        if self.s.peek().kind == "ident" and self.s.peek(1).kind == "op" and self.s.peek(1).text == ":":
            label = self.s.next().text
            self.s.next()
        if label is None:
            self._auto_label += 1
            label = f"ax{self._auto_label}"
        if any(a.label == label for a in self.axioms):
            raise ParseError(f"duplicate axiom label {label!r}", loc)
        parser = ReferenceFormulaParser(self.s, self.vocab, {})
        formula = parser.formula()
        self.axioms.append(ast.Axiom(label, formula, loc=loc))


def parse_theory(text: str) -> ast.Theory:
    return _ReferenceTheoryParser(text).parse()


_MULTI_CHAR = ("<=>", ":=", "<:", "<<", ">>", "->", "=>")
_SINGLE_CHAR = "()[]{},:;=*+-`$~&|?!^"


def tokenize_by_character(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def push(kind: str, tok_text: str, tok_line: int, tok_col: int) -> None:
        if kind == "newline" and tokens and tokens[-1].kind == "newline":
            return
        tokens.append(Token(kind, tok_text, Location(tok_line, tok_col)))

    while i < n:
        ch = text[i]
        if ch == "\n":
            push("newline", "\n", line, col)
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            push("kw" if word in KEYWORDS else "ident", word, line, col)
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            push("nat", text[start:i], line, col)
            col += i - start
            continue
        matched = False
        for op in _MULTI_CHAR:
            if text.startswith(op, i):
                push("op", op, line, col)
                i += len(op)
                col += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE_CHAR:
            push("op", ch, line, col)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", Location(line, col))

    end = Location(line, col)
    push("newline", "\n", line, col)
    tokens.append(Token("eof", "", end))
    return tokens
