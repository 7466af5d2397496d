"""Exact arithmetic expression evaluator.

A recursive-descent parser and evaluator over this grammar:

    expression := term (('+' | '-') term)*
    term       := factor (('*' | '/') factor)*
    factor     := '-' factor | power
    power      := atom ('^' factor)?          -- right-associative
    atom       := NUMBER | NAME '(' args ')' | '(' expression ')'
    NUMBER     := digits ('.' digits)?
    NAME       := sqrt | abs | gcd | mod | floor

Precedence, loosest to tightest: ``+ -``, ``* /``, unary minus, ``^``.
So ``-2^2`` is ``-(2^2)`` and ``2^3^2`` is ``2^(3^2)``.

Values are exact rationals (``fractions.Fraction``: always reduced,
positive denominator, arbitrary precision) or float64. Integer and
decimal literals are exact; ``+ - * /`` and ``^`` with an integer
exponent stay exact; ``sqrt`` and fractional exponents produce floats,
and floats are contagious through any operation. ``mod`` uses floored
semantics (the sign of the result follows the divisor); ``floor``
returns an exact integer for either input kind.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, mul, sub
from typing import Optional, Union

from .errors import NeolafError

NumericValue = Union[Fraction, float]

MAX_EXPRESSION_LENGTH = 4096

# Each level of nesting (a parenthesis, a unary minus, a '^') takes at most five
# parser frames; past this many levels an input is refused, well inside the
# interpreter's recursion limit.
MAX_NESTING = 50

# Exact powers whose result would exceed this many bits are refused so a
# hostile expression like 9^9^9 cannot hang or exhaust the process.
MAX_EXACT_POWER_BITS = 1_000_000


class CalculatorError(NeolafError):
    """Base class for calculator failures."""


class ParseError(CalculatorError):
    def __init__(self, position: int, expected: str, found: str = ""):
        detail = f"expected {expected}" + (f", found {found!r}" if found else "")
        super().__init__(f"parse error at position {position}: {detail}")
        self.position = position
        self.expected = expected


class DivisionByZero(CalculatorError):
    def __init__(self, message: str = "division by zero"):
        super().__init__(message)


class DomainError(CalculatorError):
    """Operation outside its mathematical domain (e.g. sqrt of a negative)."""


class Overflow(CalculatorError):
    """Result too large to represent.

    Raised on the float path for values outside float64 range, and on
    the exact path when an integer power would materialize a number so
    large that computing it would effectively hang the process (see
    MAX_EXACT_POWER_BITS); ordinary rational arithmetic never overflows.
    Also raised by ``render_value`` for a rational with more digits than
    the interpreter converts to text.
    """


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<name>[a-z]+)|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {"sqrt": 1, "abs": 1, "gcd": 2, "mod": 2, "floor": 1}


class _Parser:
    """Single-pass parse-and-evaluate."""

    def __init__(self, text: str):
        self._text, self._pos, self._depth = text, 0, 0
        self._advance()

    def _advance(self) -> None:
        """Move ``_cur`` to the next (kind, value, position); kind 'end' at end of input."""
        text, pos = self._text, self._pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            self._cur = ("end", "", pos)
            return
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, "a number, function, or operator", text[pos])
        self._cur, self._pos = (m.lastgroup, m[m.lastgroup], pos), m.end()

    def _expect_op(self, symbol: str) -> None:
        kind, value, pos = self._cur
        if kind != "op" or value != symbol:
            raise ParseError(pos, repr(symbol), value or "end of input")
        self._advance()

    def parse(self) -> NumericValue:
        value = self.expression()
        kind, found, pos = self._cur
        if kind != "end":
            raise ParseError(pos, "end of expression", found)
        return value

    def expression(self) -> NumericValue:
        value = self.term()
        while self._cur[0] == "op" and self._cur[1] in "+-":
            op = self._cur[1]
            self._advance()
            rhs = self.term()
            value = _arith(add if op == "+" else sub, value, rhs)
        return value

    def term(self) -> NumericValue:
        value = self.factor()
        while self._cur[0] == "op" and self._cur[1] in "*/":
            op = self._cur[1]
            self._advance()
            rhs = self.factor()
            value = _arith(mul, value, rhs) if op == "*" else _div(value, rhs)
        return value

    def factor(self) -> NumericValue:
        # Each level of nesting enters one more factor, so ``_depth`` is the level.
        if self._depth > MAX_NESTING:
            raise ParseError(self._cur[2], f"at most {MAX_NESTING} levels of nesting")
        self._depth += 1
        if self._cur[0] == "op" and self._cur[1] == "-":
            self._advance()
            value = -self.factor()
        else:
            value = self.power()
        self._depth -= 1  # an error ends the whole parse, so needs no undo
        return value

    def power(self) -> NumericValue:
        base = self.atom()
        if self._cur[0] == "op" and self._cur[1] == "^":
            self._advance()
            return _pow(base, self.factor())
        return base

    def atom(self) -> NumericValue:
        kind, value, pos = self._cur
        if kind == "number":
            self._advance()
            return Fraction(value)
        if kind == "name":
            if value not in _FUNCTIONS:
                raise ParseError(pos, "a known function (sqrt, abs, gcd, mod, floor)",
                                 value)
            self._advance()
            self._expect_op("(")
            args = [self.expression()]
            while self._cur[0] == "op" and self._cur[1] == ",":
                self._advance()
                args.append(self.expression())
            self._expect_op(")")
            if len(args) != _FUNCTIONS[value]:
                raise ParseError(pos, f"{_FUNCTIONS[value]} argument(s) to {value}",
                                 f"{len(args)} arguments")
            return _call(value, args)
        if kind == "op" and value == "(":
            self._advance()
            inner = self.expression()
            self._expect_op(")")
            return inner
        raise ParseError(pos, "a number, function, or '('", value or "end of input")


def _to_float(value: NumericValue) -> float:
    try:
        return float(value)
    except OverflowError as exc:
        raise Overflow("rational too large for the float path") from exc


def _check_float(result: float) -> float:
    if math.isnan(result):
        raise DomainError("result is not a number")
    if math.isinf(result):
        raise Overflow("float result out of range")
    return result


def _both_exact(a: NumericValue, b: NumericValue) -> bool:
    return isinstance(a, Fraction) and isinstance(b, Fraction)


def _arith(op, a, b):
    """``op(a, b)``, exact when both are rationals, else on floats."""
    if _both_exact(a, b):
        return op(a, b)
    return _check_float(op(_to_float(a), _to_float(b)))


def _div(a, b):
    if _both_exact(a, b):
        if b == 0:
            raise DivisionByZero()
        return a / b
    fb = _to_float(b)
    if fb == 0.0:
        raise DivisionByZero()
    return _check_float(_to_float(a) / fb)


def _pow(base, exponent):
    if _both_exact(base, exponent) and exponent.denominator == 1:
        n = exponent.numerator
        if base == 0 and n < 0:
            raise DivisionByZero("zero raised to a negative power")
        base_bits = base.numerator.bit_length() + base.denominator.bit_length()
        if base_bits * abs(n) > MAX_EXACT_POWER_BITS:
            raise Overflow("exact power result too large to materialize")
        return base ** n
    fb, fe = _to_float(base), _to_float(exponent)
    if fb < 0.0 and fe != math.floor(fe):
        raise DomainError("negative base with a fractional exponent")
    if fb == 0.0 and fe < 0.0:
        raise DivisionByZero("zero raised to a negative power")
    try:
        return _check_float(fb ** fe)
    except OverflowError as exc:
        raise Overflow("float result out of range") from exc


def _call(name: str, args: list[NumericValue]) -> NumericValue:
    if name == "abs":
        return abs(args[0])
    if name == "sqrt":
        x = _to_float(args[0])
        if x < 0.0:
            raise DomainError("sqrt of a negative number")
        return _check_float(math.sqrt(x))
    if name == "floor":
        return Fraction(math.floor(args[0]))
    if name == "gcd":
        ints = []
        for a in args:
            if not isinstance(a, Fraction) or a.denominator != 1:
                raise DomainError("gcd requires integer arguments")
            ints.append(abs(a.numerator))
        return Fraction(math.gcd(ints[0], ints[1]))
    if name == "mod":
        a, b = args
        if b == 0:
            raise DivisionByZero("mod by zero")
        if _both_exact(a, b):
            return a % b
        return _check_float(_to_float(a) % _to_float(b))
    raise DomainError(f"unknown function {name}")


def eval_expression(expr: str) -> NumericValue:
    """Evaluate an arithmetic expression to an exact rational or a float.

    Never aborts: every input up to the length limit yields a value or
    one of the structured calculator errors.
    """
    if not expr or not expr.strip():
        raise ParseError(0, "a non-empty expression")
    if len(expr) > MAX_EXPRESSION_LENGTH:
        raise ParseError(MAX_EXPRESSION_LENGTH,
                         f"an expression of at most {MAX_EXPRESSION_LENGTH} characters")
    return _Parser(expr).parse()


def try_eval(text: str) -> Optional[NumericValue]:
    """The value of ``text`` as an expression, or None when it is not one."""
    try:
        return eval_expression(text)
    except CalculatorError:
        return None


def render_value(value: NumericValue) -> str:
    """Canonical text form of a value.

    Whole rationals render as integers, other rationals as "p/q" in
    lowest terms, floats at 12 significant digits with trailing zeros
    trimmed and a decimal point kept so the float path stays visible.
    """
    if isinstance(value, Fraction):
        try:
            if value.denominator == 1:
                return str(value.numerator)
            return f"{value.numerator}/{value.denominator}"
        except ValueError:  # past the int-to-text digit limit (4300 by default)
            raise Overflow("result has too many digits to render") from None
    text = f"{value:.12g}"
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return text
