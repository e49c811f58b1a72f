"""Parser for exact field-element expressions.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' uint]
    atom   := int | int '/' int | 'sqrt' '(' uint ')' | '(' expr ')' | '-' atom

Division is exact and only by nonzero rational values.  sqrt(k) must lie
in the target field, otherwise ForeignRadical is raised.
"""

from __future__ import annotations

from fractions import Fraction
from string import ascii_letters, digits

from .fields import FieldError


class ExpressionError(FieldError):
    """Malformed expression; `position` is the 0-based offset in the input."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_PUNCT = "+-*/^()"
_DIGITS = frozenset(digits)
_LETTERS = frozenset(ascii_letters)


def tokenize(text):
    """List of (kind, value, position) with kind in int, name, punct; an
    int is ASCII digits and a name ASCII letters, so a superscript or an
    Arabic-Indic digit is an unexpected character."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch in _LETTERS:
            j = i
            while j < n and text[j] in _LETTERS:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in _PUNCT:
            tokens.append(("punct", ch, i))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text, field):
        self.text = text
        self.field = field
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", None, len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_punct(self, ch):
        kind, value, position = self.take()
        if kind != "punct" or value != ch:
            raise ExpressionError(f"expected {ch!r}", position)

    def parse(self):
        value = self.expr()
        kind, _, position = self.peek()
        if kind != "end":
            raise ExpressionError("trailing input", position)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "punct" and op in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, op, _ = self.peek()
            if kind == "punct" and op in "*/":
                _, _, position = self.take()
                rhs = self.factor()
                if op == "*":
                    value = value * rhs
                else:
                    if not rhs.is_rational() or rhs.is_zero():
                        raise ExpressionError(
                            "division only by a nonzero rational", position
                        )
                    value = value / rhs
            else:
                return value

    def factor(self):
        value = self.atom()
        kind, op, _ = self.peek()
        if kind == "punct" and op == "^":
            self.take()
            ekind, exponent, position = self.take()
            if ekind != "int":
                raise ExpressionError("expected an integer exponent", position)
            value = value ** exponent
        return value

    def atom(self):
        kind, value, position = self.take()
        if kind == "int":
            nkind, nvalue, _ = self.peek()
            if nkind == "punct" and nvalue == "/":
                # Lookahead: "a/b" with integer b is a rational literal;
                # otherwise leave the '/' for the term level.
                if (self.pos + 1 < len(self.tokens)
                        and self.tokens[self.pos + 1][0] == "int"):
                    self.take()
                    _, den, dpos = self.take()
                    if den == 0:
                        raise ExpressionError("zero denominator", dpos)
                    return self.field.from_rational(Fraction(value, den))
            return self.field.from_rational(value)
        if kind == "name":
            if value != "sqrt":
                raise ExpressionError(f"unknown name {value!r}", position)
            self.expect_punct("(")
            kkind, k, kpos = self.take()
            if kkind != "int":
                raise ExpressionError("expected an integer radicand", kpos)
            self.expect_punct(")")
            if k < 1:
                raise ExpressionError("radicand must be positive", kpos)
            return self.field.sqrt_of(k)
        if kind == "punct" and value == "(":
            inner = self.expr()
            self.expect_punct(")")
            return inner
        if kind == "punct" and value == "-":
            return -self.atom()
        raise ExpressionError("expected a value", position)


def parse_element(text, field):
    """Evaluate an expression string to an exact Element of `field`."""
    return _Parser(text, field).parse()
