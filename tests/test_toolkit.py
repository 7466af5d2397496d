"""Tool registry dispatch and directive grammar tests."""

import pytest

from neolaf.toolkit import (
    MalformedDirective,
    ToolDirective,
    ToolRegistry,
    default_registry,
    parse_tool_directive,
)


def test_calc_tool_round_trip():
    registry = default_registry()
    result = registry.invoke("calc", {"expr": "2+2"})
    assert result.ok and result.output == "4" and result.error_detail is None


def test_unknown_tool_is_a_failed_result():
    result = default_registry().invoke("nosuch", {"expr": "1"})
    assert not result.ok
    assert "UnknownTool" in result.error_detail


def test_arg_schema_violations_are_failed_results():
    registry = default_registry()
    missing = registry.invoke("calc", {})
    unexpected = registry.invoke("calc", {"expr": "1", "extra": "x"})
    wrong_kind = registry.invoke("calc", {"expr": 4})
    a_bool = registry.invoke("calc", {"expr": True})
    for result in (missing, unexpected, wrong_kind, a_bool):
        assert not result.ok
        assert "ArgSchemaViolation" in result.error_detail
    assert "must be a string" in a_bool.error_detail


def test_tool_exceptions_never_propagate():
    def boom(args):
        raise RuntimeError("kaput")

    result = ToolRegistry({"boom": (boom, ())}).invoke("boom", {})
    assert not result.ok
    assert "RuntimeError" in result.error_detail


def test_calculator_failure_becomes_failed_result():
    result = default_registry().invoke("calc", {"expr": "1/0"})
    assert not result.ok
    assert "DivisionByZero" in result.error_detail


# ---------------------------------------------------------------------------
# Directive parsing
# ---------------------------------------------------------------------------


def test_directive_with_quoted_string():
    directive = parse_tool_directive('TOOL calc(expr="1/3+1/6")')
    assert directive == ToolDirective(tool_name="calc", args={"expr": "1/3+1/6"})


def test_prose_is_not_a_directive():
    assert parse_tool_directive("Let us compute the sum.") is None
    assert parse_tool_directive("TOOLING matters") is None
    assert parse_tool_directive("TOOL") is None
    assert parse_tool_directive("multi\nTOOL calc(expr=\"1\")") is None


def test_malformed_directive_raises_with_position():
    with pytest.raises(MalformedDirective) as excinfo:
        parse_tool_directive("TOOL calc(expr=")
    assert excinfo.value.position >= 0
    with pytest.raises(MalformedDirective):
        parse_tool_directive('TOOL calc(expr="unterminated)')
    with pytest.raises(MalformedDirective):
        parse_tool_directive('TOOL calc(expr="1") trailing')
    with pytest.raises(MalformedDirective):
        parse_tool_directive('TOOL calc(expr="1", expr="2")')
    with pytest.raises(MalformedDirective):
        parse_tool_directive("TOOL calc expr")


def test_directive_number_with_too_many_digits_is_malformed():
    # int() refuses more than sys.get_int_max_str_digits() digits (4,300 by default)
    with pytest.raises(MalformedDirective) as excinfo:
        parse_tool_directive("TOOL calc(x=" + "1" * 5000 + ")")
    assert excinfo.value.position == len("TOOL calc(x=")


def test_directive_value_kinds():
    directive = parse_tool_directive('TOOL foo(a="text", b=3, c=-2.5)')
    assert directive.args == {"a": "text", "b": 3, "c": -2.5}
    assert isinstance(directive.args["b"], int)
    assert isinstance(directive.args["c"], float)


def test_directive_escapes_in_strings():
    directive = parse_tool_directive('TOOL foo(a="say \\"hi\\" \\\\ done")')
    assert directive.args == {"a": 'say "hi" \\ done'}


def test_directive_empty_args_and_whitespace():
    assert parse_tool_directive("TOOL foo()") == ToolDirective("foo", {})
    directive = parse_tool_directive('  TOOL foo( a = "x" , b = 1 )  ')
    assert directive.args == {"a": "x", "b": 1}


@pytest.mark.parametrize("line", [
    'TOOL calc expr="1")',
    'TOOL calc (expr="1")',
    'TOOL calc(expr="1",)',
    'TOOL calc(expr="1)',
    'TOOL calc(expr="a\\q")',
    'TOOL calc(expr="1", expr="2")',
    'TOOL calc(expr="1") and more',
    'TOOL calc(expr="1"',
    "TOOL calc(n=1.)",
    "TOOL calc(n=+1)",
    "TOOL Calc()",
], ids=[
    "missing-paren", "space-before-paren", "trailing-comma", "unterminated-string",
    "bad-escape", "duplicate-key", "trailing-text", "missing-close", "bare-point",
    "plus-sign", "upper-case-name",
])
def test_malformed_directive_classes(line):
    with pytest.raises(MalformedDirective) as excinfo:
        parse_tool_directive(line)
    assert 0 <= excinfo.value.position <= len(line)


@pytest.mark.parametrize("line, args", [
    ("TOOL f(n=01, x=-0.50)", {"n": 1, "x": -0.5}),
    ('TOOL f(s="", t="\\\\\\"")', {"s": "", "t": '\\"'}),
    ('TOOL \t f(\tk\t=\t"a b"\t,m=2\t)', {"k": "a b", "m": 2}),
    ('TOOL f(s="(x, y=\\"z\\")")', {"s": '(x, y="z")'}),
])
def test_directive_accepted_forms(line, args):
    directive = parse_tool_directive(line)
    assert directive == ToolDirective("f", args)
    assert [type(v) for v in directive.args.values()] == [type(v) for v in args.values()]
