"""Recursive-descent parser for the input expression language.

Grammar (whitespace insignificant, offsets are 0-based character positions):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | primary ('^' uint)?      (uint <= MAX_EXPONENT)
    primary  := rational | 'i' | variable | '(' expr ')'
    rational := uint ('/' uint)?

Variable names are resolved against a VarTable: x<i>, u<mu>, first jets
p<mu>_<i> (higher jets p<mu>_<i1>_<i2> are accepted too), and whatever
auxiliary names the table defines (s<k> parameters, z<j>/w on the CR side).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .poly import Poly
from .rings import VarTable
from .scalars import GaussScalar, I


# The largest exponent '^' accepts.  Every input of the golden corpus and the
# benchmark uses at most 2.  The cap stops a typo such as x1^99999999 before
# it is expanded; it bounds each power, not the size of a whole expression.
MAX_EXPONENT = 32

# The expansion budget of ``lower``, checked before each '*' and '^': the
# term pairs a product forms, or the C(t + e - 1, e) terms a power of a
# t-term base may have.
MAX_TERMS = 5000


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


# -- AST ---------------------------------------------------------------------


@dataclass
class Const:
    value: GaussScalar


@dataclass
class VarRef:
    vid: tuple


@dataclass
class Neg:
    child: object


@dataclass
class BinOp:
    op: str  # '+', '-', '*'
    left: object
    right: object
    pos: int = 0  # offset of the operator


@dataclass
class Power:
    base: object
    exponent: int
    pos: int = 0  # offset of the '^'


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

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            pos = self.advance().pos
            node = BinOp("*", node, self.factor(), pos)
        return node

    def factor(self):
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.factor())
        node = self.primary()
        if self.peek().kind == "^":
            pos = self.advance().pos
            tok = self.expect("num")
            if len(tok.text) > len(str(MAX_EXPONENT)) or int(tok.text) > MAX_EXPONENT:
                raise ParseError(f"exponent {tok.text} exceeds the limit {MAX_EXPONENT}", tok.pos)
            node = Power(node, int(tok.text), pos)
        return node

    def primary(self):
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
                return Const(GaussScalar(Fraction(num, den)))
            return Const(GaussScalar(num))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return Const(I)
            vid = self.table.id_by_name(tok.text)
            if vid is None:
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            return VarRef(vid)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )


def parse_expression(text: str, table: VarTable):
    """Parse the DSL text into an AST; raises ParseError with an offset."""
    return _Parser(_tokenize(text), table).parse()


def lower(node, table: VarTable) -> Poly:
    """Evaluate an AST into an exact polynomial over the table (ParseError
    before a product or power over MAX_TERMS)."""
    if isinstance(node, Const):
        return Poly.const(table, node.value)
    if isinstance(node, VarRef):
        return Poly.var(table, node.vid)
    if isinstance(node, Neg):
        return -lower(node.child, table)
    if isinstance(node, Power):
        base = lower(node.base, table)
        t, e = len(base.terms), node.exponent
        size = comb(t + e - 1, e) if t else 0
        if size > MAX_TERMS:
            raise ParseError(f"power may have {size} terms, over the limit {MAX_TERMS}", node.pos)
        return base ** e
    if isinstance(node, BinOp):
        left = lower(node.left, table)
        right = lower(node.right, table)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        pairs = len(left.terms) * len(right.terms)
        if pairs > MAX_TERMS:
            raise ParseError(f"product forms {pairs} term pairs, over the limit {MAX_TERMS}", node.pos)
        return left * right
    raise TypeError(f"not an AST node: {node!r}")


def parse_poly(text: str, table: VarTable) -> Poly:
    return lower(parse_expression(text, table), table)


_SCALAR_TABLE = VarTable(())


def parse_scalar(text: str) -> GaussScalar:
    """Parse a constant expression like "3/2-1/3*i" into a GaussScalar."""
    f = parse_poly(text, _SCALAR_TABLE)
    return f.as_scalar()
