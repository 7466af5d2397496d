"""Grounding tools: a fixed tool table, dispatch, and the tool directive syntax.

Tools are how the slow reasoning path touches reality. The registry is a
fixed table that maps each tool name to its implementation and the text
arguments it requires; the exact calculator, ``calc``, is the one built
in. Invocation never raises through: every failure becomes a
``ToolResult`` with ``ok=False`` so a bad tool call can fail a step
without killing the encounter.

Action text may request a tool with a directive line of the exact form::

    TOOL <name>(<key>=<value>, ...)

where values are double-quoted strings (with ``\\"`` and ``\\\\`` escapes)
or bare numbers. Anything that does not start with ``TOOL `` is not a
directive; a line that does but then breaks the grammar is malformed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

from .calculator import eval_expression, render_value
from .errors import NeolafError

_NAME = r"[a-z][a-z0-9_]*"  # tool and argument names


class MalformedDirective(NeolafError):
    """A ``TOOL `` line that fails the directive grammar.

    ``position`` is the character offset, within the stripped line, of
    the part that failed: the name, an argument, or the closing ``)``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class ToolResult:
    output: str
    ok: bool
    error_detail: Optional[str] = None


@dataclass(frozen=True)
class ToolDirective:
    tool_name: str
    args: dict


ToolImpl = Callable[[dict], str]


def _fail(detail: str) -> ToolResult:
    return ToolResult(output="", ok=False, error_detail=detail)


class ToolRegistry:
    """A fixed tool table: each name maps to ``(implementation, names of
    the text arguments it requires)``. A tool takes exactly those
    arguments, each a string."""

    def __init__(self, tools: dict[str, tuple[ToolImpl, tuple[str, ...]]]):
        self.tools = dict(tools)

    def invoke(self, name: str, args: dict) -> ToolResult:
        entry = self.tools.get(name)
        if entry is None:
            return _fail(f"UnknownTool: no tool named {name!r}")
        implementation, arg_names = entry
        for arg_name in args:
            if arg_name not in arg_names:
                return _fail(f"ArgSchemaViolation: {name} does not take {arg_name!r}")
        for arg_name in arg_names:
            if arg_name not in args:
                return _fail(f"ArgSchemaViolation: {name} requires {arg_name!r}")
            if not isinstance(args[arg_name], str):
                return _fail(f"ArgSchemaViolation: {arg_name!r} must be a string")
        try:
            return ToolResult(output=implementation(args), ok=True)
        except Exception as exc:  # tool failures are data, not crashes
            return _fail(f"{type(exc).__name__}: {exc}")


def _calc(args: dict) -> str:
    return render_value(eval_expression(args["expr"]))


def default_registry() -> ToolRegistry:
    """Registry with the built-in exact calculator under the name ``calc``."""
    return ToolRegistry({"calc": (_calc, ("expr",))})


# --------------------------------------------------------------------------
# Directive parsing
# --------------------------------------------------------------------------

_DIRECTIVE_PREFIX = "TOOL "
# Only spaces and tabs may separate tokens.
_HEAD_RE = re.compile(rf"TOOL [ \t]*({_NAME})\(")
_ARG_RE = re.compile(
    rf'[ \t]*({_NAME})[ \t]*=[ \t]*'
    r'(?:"((?:[^"\\]|\\["\\])*)"|(-?\d+(?:\.\d+)?))[ \t]*(,?)'
)
_CLOSE_RE = re.compile(r"[ \t]*\)")
_ESCAPE_RE = re.compile(r'\\(["\\])')


def parse_tool_directive(action_text: str) -> Optional[ToolDirective]:
    """Parse one line of action text as a tool directive.

    Returns None when the line is not a directive at all. Raises
    MalformedDirective when the ``TOOL `` prefix matches but the rest
    fails the grammar.
    """
    line = action_text.strip()
    if "\n" in line or not line.startswith(_DIRECTIVE_PREFIX):
        return None
    head = _HEAD_RE.match(line)
    if head is None:
        raise MalformedDirective("expected a tool name and '('", len(_DIRECTIVE_PREFIX))
    args: dict = {}
    pos, comma = head.end(), ""
    while arg := _ARG_RE.match(line, pos):
        key, text, number, comma = arg.groups()
        if key in args:
            raise MalformedDirective(f"duplicate argument {key!r}", arg.start(1))
        if text is not None:
            args[key] = _ESCAPE_RE.sub(r"\1", text)
        else:
            try:
                args[key] = float(number) if "." in number else int(number)
            except ValueError:  # more digits than int() converts
                raise MalformedDirective("number has too many digits", arg.start(3)) from None
        pos = arg.end()
        if not comma:
            break
    # After a comma comes another argument; the line is stripped, so
    # nothing follows the ')'.
    if comma or _CLOSE_RE.fullmatch(line, pos) is None:
        raise MalformedDirective("expected ','-separated key=value arguments and ')'", pos)
    return ToolDirective(tool_name=head.group(1), args=args)
