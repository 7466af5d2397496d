"""Grounding tools: registry, dispatch, and the tool directive syntax.

Tools are how the slow reasoning path touches reality. The registry maps
names to implementations behind a schema check; invocation never raises
through: every failure becomes a ``ToolResult`` with ``ok=False`` so a
bad tool call can fail a step without killing the encounter.

Action text may request a tool with a directive line of the exact form::

    TOOL <name>(<key>=<value>, ...)

where values are double-quoted strings (with ``\\"`` and ``\\\\`` escapes)
or bare numbers. Anything that does not start with ``TOOL `` is not a
directive; a line that does but then breaks the grammar is malformed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .calculator import eval_expression, render_value
from .errors import NeolafError

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


class DuplicateToolName(NeolafError):
    def __init__(self, name: str):
        super().__init__(f"tool {name!r} is already registered")
        self.name = name


class MalformedDirective(NeolafError):
    """A ``TOOL `` line that fails the directive grammar.

    ``position`` is the character offset within the stripped line.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArgKind(str, Enum):
    STRING = "string"
    NUMBER = "number"


@dataclass(frozen=True)
class ArgSpec:
    name: str
    kind: ArgKind


@dataclass(frozen=True)
class ToolDescriptor:
    name: str
    description: str
    arg_schema: tuple[ArgSpec, ...] = ()


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
    """Name-keyed tool dispatch. Register everything up front; the
    registry is treated as immutable once invocation starts."""

    def __init__(self):
        self._tools: dict[str, tuple[ToolDescriptor, ToolImpl]] = {}

    def describe(self, name: str) -> Optional[ToolDescriptor]:
        entry = self._tools.get(name)
        return entry[0] if entry else None

    def register(self, descriptor: ToolDescriptor, implementation: ToolImpl) -> "ToolRegistry":
        if not _NAME_RE.fullmatch(descriptor.name):
            raise ValueError(f"tool name {descriptor.name!r} must match [a-z][a-z0-9_]*")
        if descriptor.name in self._tools:
            raise DuplicateToolName(descriptor.name)
        self._tools[descriptor.name] = (descriptor, implementation)
        return self

    def invoke(self, name: str, args: dict) -> ToolResult:
        entry = self._tools.get(name)
        if entry is None:
            return _fail(f"UnknownTool: no tool named {name!r}")
        descriptor, implementation = entry
        schema = {spec.name: spec.kind for spec in descriptor.arg_schema}
        for arg_name in args:
            if arg_name not in schema:
                return _fail(f"ArgSchemaViolation: {name} does not take {arg_name!r}")
        for arg_name, kind in schema.items():
            if arg_name not in args:
                return _fail(f"ArgSchemaViolation: {name} requires {arg_name!r}")
            value = args[arg_name]
            if kind is ArgKind.STRING and not isinstance(value, str):
                return _fail(f"ArgSchemaViolation: {arg_name!r} must be a string")
            if kind is ArgKind.NUMBER and (isinstance(value, bool) or not isinstance(value, (int, float))):
                return _fail(f"ArgSchemaViolation: {arg_name!r} must be a number")
        try:
            return ToolResult(output=implementation(args), ok=True)
        except Exception as exc:  # tool failures are data, not crashes
            return _fail(f"{type(exc).__name__}: {exc}")


def _calc(args: dict) -> str:
    return render_value(eval_expression(args["expr"]))


def default_registry() -> ToolRegistry:
    """Registry with the built-in exact calculator under the name ``calc``."""
    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(
            name="calc",
            description="Evaluate an arithmetic expression with exact rational arithmetic.",
            arg_schema=(ArgSpec("expr", ArgKind.STRING),),
        ),
        _calc,
    )
    return registry


# --------------------------------------------------------------------------
# Directive parsing
# --------------------------------------------------------------------------

_DIRECTIVE_PREFIX = "TOOL "
_KEY_RE = re.compile(r"[a-z][a-z0-9_]*")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


class _DirectiveScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, regex: re.Pattern, what: str) -> str:
        m = regex.match(self.text, self.pos)
        if m is None:
            raise MalformedDirective(f"expected {what}", self.pos)
        self.pos = m.end()
        return m.group(0)

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise MalformedDirective(f"expected {char!r}", self.pos)
        self.pos += 1

    def quoted_string(self) -> str:
        self.expect('"')
        out = []
        while True:
            if self.pos >= len(self.text):
                raise MalformedDirective("unterminated string", self.pos)
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                if self.pos >= len(self.text) or self.text[self.pos] not in '"\\':
                    raise MalformedDirective("bad escape in string", self.pos)
                out.append(self.text[self.pos])
                self.pos += 1
            else:
                out.append(ch)


def parse_tool_directive(action_text: str) -> Optional[ToolDirective]:
    """Parse one line of action text as a tool directive.

    Returns None when the line is not a directive at all. Raises
    MalformedDirective when the ``TOOL `` prefix matches but the rest
    fails the grammar.
    """
    line = action_text.strip()
    if "\n" in line or not line.startswith(_DIRECTIVE_PREFIX):
        return None
    scanner = _DirectiveScanner(line)
    scanner.pos = len(_DIRECTIVE_PREFIX)
    scanner.skip_ws()
    name = scanner.take(_KEY_RE, "a tool name")
    scanner.expect("(")
    args: dict = {}
    scanner.skip_ws()
    if scanner.peek() != ")":
        while True:
            scanner.skip_ws()
            key = scanner.take(_KEY_RE, "an argument name")
            if key in args:
                raise MalformedDirective(f"duplicate argument {key!r}", scanner.pos)
            scanner.skip_ws()
            scanner.expect("=")
            scanner.skip_ws()
            if scanner.peek() == '"':
                args[key] = scanner.quoted_string()
            else:
                raw = scanner.take(_NUMBER_RE, "a quoted string or a number")
                args[key] = float(raw) if "." in raw else int(raw)
            scanner.skip_ws()
            if scanner.peek() == ",":
                scanner.pos += 1
                continue
            break
    scanner.expect(")")
    scanner.skip_ws()
    if scanner.pos != len(line):
        raise MalformedDirective("trailing text after directive", scanner.pos)
    return ToolDirective(tool_name=name, args=args)
