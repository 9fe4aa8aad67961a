"""Recursive-descent parser for the expression grammar.

    expr     := term (("+"|"-") term)*
    term     := unary (("*"|"/") unary)*
    unary    := "-"? factor
    factor   := base ("^" exponent)?
    base     := NUMBER | IDENT | "(" expr ")" | FUNC "(" expr ")"
    exponent := "-"? NUMBER | "(" "-"? NUMBER ("/" NUMBER)? ")"

FUNC is one of exp, log, atan, sqrt, abs, sgn; IDENT is one of x, y, p, q.
NUMBER is a decimal integer or a ratio of integers.
"""
from __future__ import annotations

from fractions import Fraction

from .nodes import Expr, add, fun, mul, neg, num, pow_, var
from .poly import JET_VARS, KERNEL_NAMES


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start:self.pos])

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]


def parse(text: str) -> Expr:
    """Parse an expression; raises ParseError with a byte offset."""
    sc = _Scanner(text)
    e = _expr(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise ParseError("unexpected trailing input", sc.pos)
    return e


def _expr(sc: _Scanner) -> Expr:
    terms = [_term(sc)]
    while True:
        if sc.take("+"):
            terms.append(_term(sc))
        elif sc.take("-"):
            terms.append(neg(_term(sc)))
        else:
            break
    return terms[0] if len(terms) == 1 else add(*terms)


def _term(sc: _Scanner) -> Expr:
    factors = [_unary(sc)]
    while True:
        if sc.take("*"):
            factors.append(_unary(sc))
        elif sc.take("/"):
            factors.append(pow_(_unary(sc), Fraction(-1)))
        else:
            break
    return factors[0] if len(factors) == 1 else mul(*factors)


def _unary(sc: _Scanner) -> Expr:
    if sc.take("-"):
        return neg(_unary(sc))
    return _factor(sc)


def _factor(sc: _Scanner) -> Expr:
    base = _base(sc)
    if sc.take("^"):
        return pow_(base, _exponent(sc))
    return base


def _base(sc: _Scanner) -> Expr:
    ch = sc.peek()
    if ch == "":
        raise ParseError("unexpected end of input", sc.pos)
    if ch.isdigit():
        n = sc.integer()
        return num(n)
    if ch == "(":
        sc.expect("(")
        e = _expr(sc)
        sc.expect(")")
        return e
    if ch.isalpha():
        start = sc.pos
        name = sc.ident()
        if name in KERNEL_NAMES or name == "sqrt":
            sc.expect("(")
            arg = _expr(sc)
            sc.expect(")")
            return fun(name, arg)
        if name in JET_VARS:
            return var(name)
        raise ParseError(f"unknown identifier {name!r}", start)
    raise ParseError(f"unexpected character {ch!r}", sc.pos)


def _exponent(sc: _Scanner) -> Fraction:
    start = sc.pos
    if sc.take("("):
        sign = -1 if sc.take("-") else 1
        n = _exp_int(sc, start)
        d = 1
        if sc.take("/"):
            d = _exp_int(sc, start)
            if d == 0:
                raise ParseError("malformed exponent: zero denominator", start)
        if not sc.take(")"):
            raise ParseError("malformed exponent", sc.pos)
        return Fraction(sign * n, d)
    sign = -1 if sc.take("-") else 1
    n = _exp_int(sc, start)
    return Fraction(sign * n)


def _exp_int(sc: _Scanner, start: int) -> int:
    sc.skip_ws()
    if sc.pos >= len(sc.text) or not sc.text[sc.pos].isdigit():
        raise ParseError("malformed exponent", sc.pos)
    return sc.integer()
