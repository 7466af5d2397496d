"""Calculator tests, including the independent brute-force oracle.

The oracle builds random expression *trees*, evaluates them directly
with arbitrary-precision rationals, and renders them to text with its
own precedence-aware renderer. The calculator must reproduce the tree
value exactly from the rendered text, so parsing, precedence, and
arithmetic are all checked against an implementation that shares no
code with the one under test.
"""

import random
from fractions import Fraction

import pytest

from neolaf.calculator import (
    MAX_NESTING,
    DivisionByZero,
    DomainError,
    CalculatorError,
    Overflow,
    ParseError,
    eval_expression,
    render_value,
    try_eval,
)
from neolaf.harness import answers_equal
from neolaf.toolkit import default_registry

# ---------------------------------------------------------------------------
# Oracle: random trees over + - * / with integer leaves
# ---------------------------------------------------------------------------

_OPS = ("+", "-", "*", "/")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def gen_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.randint(-99, 99)
    op = rng.choice(_OPS)
    return (op, gen_tree(rng, depth - 1), gen_tree(rng, depth - 1))


def oracle_eval(tree) -> Fraction:
    if isinstance(tree, int):
        return Fraction(tree)
    op, left, right = tree
    a, b = oracle_eval(left), oracle_eval(right)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b  # raises ZeroDivisionError like ordinary division


def oracle_render(tree, parent_precedence: int = 0, right_side: bool = False) -> str:
    if isinstance(tree, int):
        return str(tree)
    op, left, right = tree
    precedence = _PRECEDENCE[op]
    text = (
        f"{oracle_render(left, precedence, False)} {op} "
        f"{oracle_render(right, precedence, True)}"
    )
    needs_parens = precedence < parent_precedence or (
        precedence == parent_precedence and right_side
    )
    return f"({text})" if needs_parens else text


def test_oracle_comparison_random_expressions():
    rng = random.Random(12345)
    compared = 0
    while compared < 1000:
        tree = gen_tree(rng, depth=4)
        text = oracle_render(tree)
        try:
            expected = oracle_eval(tree)
        except ZeroDivisionError:
            with pytest.raises(DivisionByZero):
                eval_expression(text)
            continue
        value = eval_expression(text)
        assert isinstance(value, Fraction)
        assert value == expected, f"{text!r}: {value} != {expected}"
        compared += 1


def test_rational_closure_on_integer_expressions():
    rng = random.Random(777)
    produced = 0
    while produced < 200:
        tree = gen_tree(rng, depth=3)
        try:
            oracle_eval(tree)
        except ZeroDivisionError:
            continue
        assert isinstance(eval_expression(oracle_render(tree)), Fraction)
        produced += 1


# ---------------------------------------------------------------------------
# Worked examples and grammar details
# ---------------------------------------------------------------------------


def test_precedence_worked_example():
    assert eval_expression("2+3*4") == Fraction(14)


def test_exact_fraction_sum():
    value = eval_expression("1/3 + 1/6")
    assert value == Fraction(1, 2)
    assert isinstance(value, Fraction)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        eval_expression("1/0")


def test_sqrt_square_is_float_near_two():
    value = eval_expression("sqrt(2)^2")
    assert isinstance(value, float)
    assert abs(value - 2.0) <= 1e-12


def test_power_right_associative():
    assert eval_expression("2^3^2") == Fraction(512)


def test_unary_minus_binds_looser_than_power():
    assert eval_expression("-2^2") == Fraction(-4)


def test_negative_integer_exponent_stays_exact():
    assert eval_expression("2^-3") == Fraction(1, 8)
    assert eval_expression("(2/3)^-2") == Fraction(9, 4)


def test_fractional_exponent_goes_float():
    value = eval_expression("9^(1/2)")
    assert isinstance(value, float)
    assert abs(value - 3.0) < 1e-12


def test_decimal_literals_are_exact():
    assert eval_expression("0.5") == Fraction(1, 2)
    assert eval_expression("0.1 + 0.2") == Fraction(3, 10)


def test_functions():
    assert eval_expression("gcd(84, 126)") == Fraction(42)
    assert eval_expression("gcd(-4, 6)") == Fraction(2)
    assert eval_expression("mod(7, 3)") == Fraction(1)
    assert eval_expression("mod(-7, 3)") == Fraction(2)
    assert eval_expression("floor(22/7)") == Fraction(3)
    assert eval_expression("floor(-1/2)") == Fraction(-1)
    assert eval_expression("abs(-3/4)") == Fraction(3, 4)


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_expression("sqrt(-1)")
    with pytest.raises(DomainError):
        eval_expression("gcd(1/2, 3)")
    with pytest.raises(DomainError):
        eval_expression("(-8)^(1/3)")
    with pytest.raises(DivisionByZero):
        eval_expression("mod(5, 0)")
    with pytest.raises(DivisionByZero):
        eval_expression("0^-1")


def test_float_overflow():
    with pytest.raises(Overflow):
        eval_expression("sqrt(99)^1000")


@pytest.mark.parametrize("expr, value", (
    ("sqrt(2) + 1", 2.414213562373095),
    ("mod(sqrt(2), 1)", 0.41421356237309515),
    ("1/sqrt(4)", 0.5),
))
def test_float_path_values(expr, value):
    result = eval_expression(expr)
    assert isinstance(result, float) and result == value


@pytest.mark.parametrize("expr, error, message", (
    ("1/sqrt(0)", DivisionByZero, "division by zero"),
    ("sqrt(0)^-1", DivisionByZero, "zero raised to a negative power"),
    ("sqrt(2) * 10^200 * 10^200", Overflow, "float result out of range"),
    ("10^400 + sqrt(2)", Overflow, "rational too large for the float path"),
))
def test_float_path_errors(expr, error, message):
    with pytest.raises(error) as caught:
        eval_expression(expr)
    assert type(caught.value) is error and str(caught.value) == message


def test_exact_power_guard_refuses_gigantic_results():
    # these must fail fast instead of materializing astronomically
    # large integers
    with pytest.raises(Overflow):
        eval_expression("9^9^9")
    with pytest.raises(Overflow):
        eval_expression("2^1000000000")
    assert eval_expression("99^99") > 0  # big but fine


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as excinfo:
        eval_expression("2 + ")
    assert excinfo.value.position == 4
    with pytest.raises(ParseError):
        eval_expression("2 + * 3")
    with pytest.raises(ParseError):
        eval_expression("sin(1)")
    with pytest.raises(ParseError):
        eval_expression("gcd(1)")
    with pytest.raises(ParseError):
        eval_expression("(1 + 2")
    with pytest.raises(ParseError):
        eval_expression("")
    with pytest.raises(ParseError):
        eval_expression("1" * 5000)


def test_parser_totality_on_garbage():
    rng = random.Random(31337)
    alphabet = "0123456789+-*/^()., abcdefghijklmnopqrstuvwxyz\\{}$"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        try:
            eval_expression(text)
        except CalculatorError:
            pass  # structured failure is the contract


_TOO_DEEP = {
    "parentheses": "(" * 200 + "1" + ")" * 200,
    "minus-signs": "-" * 3000 + "1",
    "power-chain": "^".join(["2"] * 1501),
}


@pytest.mark.parametrize("text", _TOO_DEEP.values(), ids=_TOO_DEEP.keys())
def test_nesting_past_the_bound_is_a_parse_error_not_a_recursion_error(text):
    with pytest.raises(ParseError, match=f"expected at most {MAX_NESTING} levels of nesting"):
        eval_expression(text)
    assert try_eval(text) is None
    assert not answers_equal(text, "1")


def test_nesting_up_to_the_bound_evaluates():
    assert eval_expression("(" * MAX_NESTING + "1" + ")" * MAX_NESTING) == 1
    assert eval_expression("-" * MAX_NESTING + "1") == (-1) ** MAX_NESTING
    assert eval_expression("^".join(["1"] * (MAX_NESTING + 1))) == 1
    assert eval_expression("sqrt(" * MAX_NESTING + "1" + ")" * MAX_NESTING) == 1.0
    for text in ("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1),
                 "-" * (MAX_NESTING + 1) + "1", "^".join(["1"] * (MAX_NESTING + 2))):
        with pytest.raises(ParseError):
            eval_expression(text)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_render_whole_rational_as_integer():
    assert render_value(Fraction(4, 2)) == "2"


def test_render_reduced_fraction():
    assert render_value(Fraction(1, 2)) == "1/2"


def test_render_float_rounds_to_twelve_significant_digits():
    assert render_value(2.0000000000001) == "2.0"
    assert render_value(3.141592653589793) == "3.14159265359"
    assert render_value(-2.0) == "-2.0"
    assert render_value(1e20) == "1e+20"


def test_render_refuses_a_result_with_too_many_digits():
    assert render_value(eval_expression("10^4299")) == "1" + "0" * 4299  # 4,300 digits
    assert render_value(Fraction(10**4299 + 1, 10**4299)).count("/") == 1
    with pytest.raises(Overflow, match="^result has too many digits to render$"):
        render_value(eval_expression("2^14300"))
    with pytest.raises(Overflow):
        render_value(1 / eval_expression("2^14300"))
    result = default_registry().invoke("calc", {"expr": "2^14300"})
    assert not result.ok
    assert result.error_detail == "Overflow: result has too many digits to render"


def test_render_eval_is_deterministic():
    expressions = ("1/3 + 1/6", "sqrt(2)^2", "2^10", "7/4 * 8/21")
    first = [render_value(eval_expression(e)) for e in expressions]
    second = [render_value(eval_expression(e)) for e in expressions]
    assert first == second
