"""Recursive-descent parser for the input expression language, straight to
``Poly``: there is no syntax tree, each sum, product and power is built as it
is read.

Grammar (whitespace insignificant, offsets are 0-based character positions):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-'* primary ('^' uint)?              (uint <= MAX_EXPONENT)
    primary  := rational | 'i' | variable | '(' expr ')'
    rational := uint ('/' uint)?

Variable names are resolved against a VarTable: x<i>, u<mu>, first jets
p<mu>_<i>, second jets p<mu>_<i1>_<i2>, and whatever auxiliary names the
table defines (s<k> parameters, z<j>/w on the CR side).  The jet table stops
at second jets, so a third-jet name is an unknown variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .poly import Poly, _add_into
from .rings import VarTable
from .scalars import GaussScalar, I


# The largest exponent '^' accepts.  Every input of the golden corpus and the
# benchmark uses at most 2.  The cap stops a typo such as x1^99999999 before
# it is expanded; it bounds each power, not the size of a whole expression.
MAX_EXPONENT = 32

# The expansion budget, checked from the operands' term counts before each
# '*' and '^' is expanded: the term pairs a product forms, or the
# C(t + e - 1, e) terms a power of a t-term base may have.
MAX_TERMS = 5000

# The deepest nesting of parentheses.  Each level costs four parser frames,
# so the cap keeps deep input far from Python's recursion limit.
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


# -- lexer ---------------------------------------------------------------------

_OPS = set("+-*^/()")


@dataclass
class _Token:
    kind: str  # 'num', 'ident', an operator character, or 'eof'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    k = 0
    length = len(text)
    while k < length:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            start = k
            while k < length and text[k].isdigit():
                k += 1
            tokens.append(_Token("num", text[start:k], start))
            continue
        if ch.isalpha():
            start = k
            while k < length and (text[k].isalnum() or text[k] == "_"):
                k += 1
            tokens.append(_Token("ident", text[start:k], start))
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    tokens.append(_Token("eof", "", length))
    return tokens


# -- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], table: VarTable):
        self.tokens = tokens
        self.k = 0
        self.table = table
        self.depth = 0  # parentheses open around the current token

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self) -> Poly:
        f = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return f

    def expr(self) -> Poly:
        terms = dict(self.term().terms)
        while self.peek().kind in ("+", "-"):
            negate = self.advance().kind == "-"
            right = self.term()
            _add_into(terms, right.terms, negate)
        return Poly(self.table, terms)

    def term(self) -> Poly:
        f = self.factor()
        while self.peek().kind == "*":
            pos = self.advance().pos
            right = self.factor()
            pairs = len(f.terms) * len(right.terms)
            if pairs > MAX_TERMS:
                raise ParseError(f"product forms {pairs} term pairs, over the limit {MAX_TERMS}", pos)
            f = f * right
        return f

    def factor(self) -> Poly:
        negate = False
        while self.peek().kind == "-":
            self.advance()
            negate = not negate
        f = self.primary()
        if self.peek().kind == "^":
            pos = self.advance().pos
            tok = self.expect("num")
            if len(tok.text) > len(str(MAX_EXPONENT)) or int(tok.text) > MAX_EXPONENT:
                raise ParseError(f"exponent {tok.text} exceeds the limit {MAX_EXPONENT}", tok.pos)
            t, e = len(f.terms), int(tok.text)
            size = comb(t + e - 1, e) if t else 0
            if size > MAX_TERMS:
                raise ParseError(f"power may have {size} terms, over the limit {MAX_TERMS}", pos)
            f = f ** e
        return -f if negate else f

    def primary(self) -> Poly:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("num")
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.pos)
                return Poly.const(self.table, GaussScalar(Fraction(num, den)))
            return Poly.const(self.table, num)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return Poly.const(self.table, I)
            vid = self.table.id_by_name(tok.text)
            if vid is None:
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            return Poly.var(self.table, vid)
        if tok.kind == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than the limit {MAX_DEPTH}", tok.pos)
            self.advance()
            self.depth += 1
            f = self.expr()
            self.expect(")")
            self.depth -= 1
            return f
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )


def parse_poly(text: str, table: VarTable) -> Poly:
    """Parse the DSL text into an exact polynomial over the table; raises
    ParseError with an offset."""
    return _Parser(_tokenize(text), table).parse()


_SCALAR_TABLE = VarTable(())


def parse_scalar(text: str) -> GaussScalar:
    """Parse a constant expression like "3/2-1/3*i" into a GaussScalar."""
    f = parse_poly(text, _SCALAR_TABLE)
    return f.as_scalar()
