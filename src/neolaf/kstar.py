"""KSTAR encounter schema and state machine.

This is the pure symbolic heart of the agent: the record types for one
complete encounter (knowledge, situation, task, action, result), the
state machine that orders an in-flight encounter, validation of the
schema invariants, and a canonical JSON codec. Nothing here talks to a
model, a tool, or the filesystem.

The record dataclasses are the codec's one field list. The encoder writes
each as an object of its fields in declaration order; the decoder walks
the same fields with their type hints, so a field is added or renamed in
its dataclass alone. Each value must have its field's type, and is taken as
it is: a tuple is a JSON array, and a ``str``, ``int``, ``float`` or ``bool``
is of that type (a float may be an int; a number is never a bool). A decoded
line names the first bad field it meets, in that order: ``missing field
<path>.<name>`` (the root is ``record``) or ``bad field value at <path>:
<detail>``.

An in-flight encounter is a single-owner object mutated by one logical
thread; completed records are frozen dataclasses and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cache
from typing import Any, Callable, Optional, Union, get_args, get_origin, get_type_hints

from .errors import NeolafError

# A subtask tree deeper than this is rejected, and an encounter replans at
# most this many times unless its starter kit sets another budget.
DEFAULT_SUBTASK_DEPTH = 3
DEFAULT_REPLAN_BUDGET = 2


class IllegalTransition(NeolafError):
    """Raised when an event is not legal in the current phase."""

    def __init__(self, phase: "EncounterPhase", event: "EncounterEvent"):
        super().__init__(f"event {event.value} is illegal in phase {phase.value}")
        self.phase = phase
        self.event = event


class ReplanBudgetExhausted(NeolafError):
    """Raised when a replan would exceed the replan budget."""

    def __init__(self, replan_count: int, budget: int):
        super().__init__(f"replan budget exhausted ({replan_count} of {budget} used)")
        self.replan_count = replan_count
        self.budget = budget


class MalformedRecord(NeolafError):
    """Raised when record text cannot be parsed back into a record.

    ``position`` is the character offset for JSON syntax errors, or None
    for schema-level problems (the message then names the field).
    """

    def __init__(self, message: str, position: Optional[int] = None):
        suffix = f" (at position {position})" if position is not None else ""
        super().__init__(message + suffix)
        self.position = position


class SituationSource(str, Enum):
    USER = "user"
    HARNESS = "harness"
    AGENT = "agent"


class CoTaskState(str, Enum):
    PENDING = "pending"
    DONE = "done"
    SKIPPED = "skipped"


class StepStatus(str, Enum):
    PLANNED = "planned"
    EXECUTED = "executed"
    FAILED = "failed"
    SKIPPED = "skipped"


@dataclass(frozen=True, slots=True)
class Situation:
    """Context in which an encounter occurred."""

    description: str
    context_tags: tuple[str, ...] = ()
    source: SituationSource = SituationSource.USER


@dataclass(frozen=True, slots=True)
class CoTasks:
    """Status of the three co-tasks implied by every task."""

    planning: CoTaskState = CoTaskState.PENDING
    forecasting: CoTaskState = CoTaskState.PENDING
    grounding: CoTaskState = CoTaskState.PENDING


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """A goal, optionally decomposed into an ordered subtask tree."""

    goal: str
    subtasks: tuple[TaskSpec, ...] = ()
    cotasks: CoTasks = field(default_factory=CoTasks)


@dataclass(frozen=True, slots=True)
class ActionStep:
    """One planned or executed action in agent-skill-constraints form."""

    agent: str
    skill: str
    constraints: tuple[str, ...] = ()
    status: StepStatus = StepStatus.PLANNED
    observed_output: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Forecast:
    """Anticipated outcome produced before any action is taken."""

    expected_result: str
    success_probability: float


@dataclass(frozen=True, slots=True)
class GroundingEvidence:
    """One tool invocation used to check an outcome against reality."""

    tool_name: str
    input: str
    output: str


@dataclass(frozen=True, slots=True)
class Outcome:
    """What actually happened, and whether it counts as success."""

    actual_result: str
    success: bool
    grounding_evidence: tuple[GroundingEvidence, ...] = ()
    feedback: Optional[str] = None


@dataclass(frozen=True, slots=True)
class EncounterMetrics:
    latency_ms: int = 0
    provider_calls: int = 0
    tool_calls: int = 0
    replans: int = 0


@dataclass(frozen=True, slots=True)
class KstarRecord:
    """One complete encounter.

    ``knowledge_used`` and ``knowledge_delta`` hold knowledge item ids;
    they may be empty only for early encounters that had nothing to draw
    on or nothing new to say.
    """

    id: int
    timestamp: datetime
    knowledge_used: tuple[int, ...]
    situation: Situation
    task: TaskSpec
    plan: tuple[ActionStep, ...]
    forecast: Forecast
    outcome: Outcome
    knowledge_delta: tuple[int, ...]
    metrics: EncounterMetrics


# --------------------------------------------------------------------------
# Encounter state machine
# --------------------------------------------------------------------------


class EncounterPhase(str, Enum):
    CREATED = "Created"
    SITUATION_IDENTIFIED = "SituationIdentified"
    TASK_DEFINED = "TaskDefined"
    PLANNED = "Planned"
    FORECASTED = "Forecasted"
    EXECUTING = "Executing"
    EVALUATED = "Evaluated"
    ENCODED = "Encoded"


class EncounterEvent(str, Enum):
    IDENTIFY = "Identify"
    DEFINE_TASK = "DefineTask"
    PLAN = "Plan"
    FORECAST = "Forecast"
    BEGIN_EXECUTION = "BeginExecution"
    FINISH_EXECUTION = "FinishExecution"
    EVALUATE = "Evaluate"
    REPLAN = "Replan"
    ENCODE = "Encode"


@dataclass(frozen=True, slots=True)
class EncounterState:
    """Position of an in-flight encounter plus its replan count."""

    phase: EncounterPhase = EncounterPhase.CREATED
    replan_count: int = 0


# The full legal-transition table. Execution finishing and evaluation are
# collapsed into the single Evaluate transition, so FinishExecution is
# never legal; forecasting must precede execution.
TRANSITIONS: dict[tuple[EncounterPhase, EncounterEvent], EncounterPhase] = {
    (EncounterPhase.CREATED, EncounterEvent.IDENTIFY): EncounterPhase.SITUATION_IDENTIFIED,
    (EncounterPhase.SITUATION_IDENTIFIED, EncounterEvent.DEFINE_TASK): EncounterPhase.TASK_DEFINED,
    (EncounterPhase.TASK_DEFINED, EncounterEvent.PLAN): EncounterPhase.PLANNED,
    (EncounterPhase.PLANNED, EncounterEvent.FORECAST): EncounterPhase.FORECASTED,
    (EncounterPhase.FORECASTED, EncounterEvent.BEGIN_EXECUTION): EncounterPhase.EXECUTING,
    (EncounterPhase.EXECUTING, EncounterEvent.EVALUATE): EncounterPhase.EVALUATED,
    (EncounterPhase.EVALUATED, EncounterEvent.REPLAN): EncounterPhase.PLANNED,
    (EncounterPhase.EVALUATED, EncounterEvent.ENCODE): EncounterPhase.ENCODED,
}


def advance(
    state: EncounterState,
    event: EncounterEvent,
    replan_budget: int = DEFAULT_REPLAN_BUDGET,
) -> EncounterState:
    """Apply one event to the encounter state machine.

    Returns the next state per the transition table. Replan increments
    the replan counter and is refused once the budget is used up; every
    (phase, event) pair absent from the table raises IllegalTransition.
    """
    event = EncounterEvent(event)
    next_phase = TRANSITIONS.get((state.phase, event))
    if next_phase is None:
        raise IllegalTransition(state.phase, event)
    if event is EncounterEvent.REPLAN:
        if state.replan_count >= replan_budget:
            raise ReplanBudgetExhausted(state.replan_count, replan_budget)
        return EncounterState(next_phase, state.replan_count + 1)
    return EncounterState(next_phase, state.replan_count)


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------


def _walk_task(task: TaskSpec, depth: int, path: str, violations: list[str]) -> None:
    """The depth bound ends every walk, also over a task built to contain itself."""
    if not task.goal.strip():
        violations.append(f"{path}.goal empty")
    if depth > DEFAULT_SUBTASK_DEPTH:
        violations.append(f"{path} exceeds subtask depth {DEFAULT_SUBTASK_DEPTH}")
        return
    for i, sub in enumerate(task.subtasks):
        _walk_task(sub, depth + 1, f"{path}.subtasks[{i}]", violations)


def validate_record(record: KstarRecord) -> list[str]:
    """Check every schema invariant and return all violations found.

    An empty list means the record is valid. Violations are data, not
    exceptions: callers decide whether to refuse the record.
    """
    v: list[str] = []

    if not isinstance(record.id, int) or isinstance(record.id, bool) or record.id < 1:
        v.append("id must be a positive integer")
    if record.timestamp.tzinfo is None:
        v.append("timestamp must be timezone-aware UTC")
    if not all(type(item_id) is int for item_id in record.knowledge_used + record.knowledge_delta):
        v.append("knowledge_used and knowledge_delta must hold integer ids")

    s = record.situation
    if not s.description.strip():
        v.append("situation.description empty")
    if any(t != t.lower() for t in s.context_tags):
        v.append("situation.context_tags must be lowercase")
    if len(set(s.context_tags)) != len(s.context_tags):
        v.append("situation.context_tags must be deduplicated")

    _walk_task(record.task, 0, "task", v)

    if not record.plan:
        v.append("plan empty: at least one action step is required")
    for i, step in enumerate(record.plan):
        if not step.agent.strip():
            v.append(f"plan[{i}].agent empty")
        if not step.skill.strip():
            v.append(f"plan[{i}].skill empty")
        has_output = step.observed_output is not None
        needs_output = step.status in (StepStatus.EXECUTED, StepStatus.FAILED)
        if needs_output and not has_output:
            v.append(f"plan[{i}].observed_output missing for status {step.status.value}")
        if not needs_output and has_output:
            v.append(f"plan[{i}].observed_output present for status {step.status.value}")

    if not record.forecast.expected_result.strip():
        v.append("forecast.expected_result empty")
    p = record.forecast.success_probability
    if not (0.0 <= p <= 1.0):
        v.append(f"forecast.success_probability {p} outside [0, 1]")

    o = record.outcome
    if not o.actual_result.strip():
        v.append("outcome.actual_result empty")
    grounding_required = record.task.cotasks.grounding != CoTaskState.SKIPPED
    if o.success and grounding_required and not o.grounding_evidence:
        v.append("outcome.grounding_evidence empty although success claims grounding")

    m = record.metrics
    for name in ("latency_ms", "provider_calls", "tool_calls", "replans"):
        if getattr(m, name) < 0:
            v.append(f"metrics.{name} negative")

    return v


# --------------------------------------------------------------------------
# Canonical serialization
# --------------------------------------------------------------------------
#
# One UTF-8 JSON object per record. Each object's keys are its dataclass's
# fields in declaration order, so equal records produce identical bytes and
# logs stay diffable; the dataclasses are the one field list. Timestamps are
# RFC 3339 in UTC, ``str`` enums their values, tuples arrays.


@cache
def _schema(cls: type) -> tuple[tuple[str, Callable[[Any, str, Any], Any], bool], ...]:
    """Each field of the dataclass ``cls`` in declaration order: its name, its
    decoder, and whether it may be absent, as a field typed ``Optional[...]``
    may (it then reads as None)."""
    hints = get_type_hints(cls)
    schema = []
    for f in fields(cls):
        hint, optional = hints[f.name], get_origin(hints[f.name]) is Union
        if optional:
            (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
        schema.append((f.name, _decoder(hint), optional))
    return tuple(schema)


# The JSON values a scalar field takes as they are: a float field takes an int too, and
# neither number field a bool, though ``bool`` is an ``int`` subclass
_SCALARS = {str: (str,), int: (int,), float: (int, float), bool: (bool,)}


def _decoder(hint: Any) -> Callable[[Any, str, Any], Any]:
    """``decode(value, path, key)`` for a field typed ``hint``, found as field (or
    item) ``key`` of the value at ``path``. The path is spelled out only where it
    is needed: for a nested object, or in an error."""
    if is_dataclass(hint):
        return lambda value, path, key: _build(hint, value, _at(path, key))
    if get_origin(hint) is tuple:
        item = _decoder(get_args(hint)[0])
        return lambda value, path, key: _build_each(item, value, _at(path, key))
    if hint is datetime:
        return _leaf(_parse_timestamp)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return _leaf(enum_decoder(hint))
    name, types = hint.__name__, _SCALARS[hint]

    def scalar(value, path, key):
        if type(value) in types:
            return value
        raise TypeError(f"expected {name}, not {value!r}")
    return scalar


def _leaf(decode: Callable[[Any], Any]) -> Callable[[Any, str, Any], Any]:
    return lambda value, path, key: decode(value)


def _at(path: str, key: Any) -> str:
    """The path of field ``key``, or of item ``key`` if an int, of the value at ``path``."""
    if type(key) is int:
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _build(cls: type, obj: Any, path: str) -> Any:
    """``cls`` from the JSON object ``obj`` found at ``path`` ("" for a record),
    its fields read and checked in declaration order."""
    if type(obj) is not dict:
        if not path:
            raise MalformedRecord("record must be a JSON object")
        detail = f"expected an object, not {type(obj).__name__}"
        raise MalformedRecord(f"bad field value at {path}: {detail}")
    values = []
    for name, decode, optional in _schema(cls):
        if name in obj:
            value = obj[name]
        elif optional:
            value = None
        else:
            raise MalformedRecord(f"missing field {path or 'record'}.{name}")
        if not (value is None and optional):
            try:
                value = decode(value, path, name)
            except (TypeError, ValueError, AttributeError) as exc:
                raise MalformedRecord(f"bad field value at {_at(path, name)}: {exc}") from exc
        values.append(value)
    return cls(*values)


def _build_each(decode: Callable[[Any, str, Any], Any], items: Any, path: str) -> tuple:
    """A tuple field from the JSON array ``items`` found at ``path``."""
    if type(items) is not list:
        raise TypeError(f"expected an array, not {items!r}")
    return tuple([decode(item, path, i) for i, item in enumerate(items)])


def _plain(obj: Any) -> Any:
    """The encoder's hook for what JSON lacks: a dataclass as its fields in
    declaration order, a ``datetime`` as RFC 3339 text in UTC."""
    if type(obj) is datetime:
        return obj.astimezone(timezone.utc).isoformat()
    return {name: getattr(obj, name) for name, _, _ in _schema(type(obj))}


# Every store line is ``dumps(obj)``; ``json.dumps`` would build a new encoder per call.
# What it encodes is a tree, so the per-container circular-reference bookkeeping, a fifth
# of a record's encoding time, is left out; a task made (by object.__setattr__) to hold
# itself raises RecursionError.
dumps = json.JSONEncoder(
    ensure_ascii=False, separators=(",", ":"), default=_plain, check_circular=False
).encode


def serialize_record(record: KstarRecord) -> str:
    """Serialize to the canonical single-line JSON form."""
    return dumps(record)


def _parse_timestamp(raw: str) -> datetime:
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        raise ValueError("timestamp missing timezone offset")
    return dt.astimezone(timezone.utc)


def enum_decoder(enum: type[Enum]) -> Callable[[Any], Any]:
    """``enum(value)``, through a ``{value: member}`` table for a string value;
    anything else, and every miss, goes to ``enum`` and raises its own error."""
    members = {member.value: member for member in enum}
    return lambda v: members[v] if isinstance(v, str) and v in members else enum(v)


_scan_once = json.JSONDecoder().scan_once  # the C scanner json.loads calls


def loads(text: str) -> Any:
    """``json.loads(text)``: by the C scanner alone when ``text`` is one JSON value
    with no whitespace around it, else (and for every error) by ``json.loads``."""
    try:
        value, end = _scan_once(text, 0)
        if end == len(text):
            return value
    except (StopIteration, ValueError, TypeError):
        pass
    return json.loads(text)


def deserialize_record(text: str) -> KstarRecord:
    """Parse canonical record text; inverse of :func:`serialize_record`."""
    try:
        obj = loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON: {exc.msg}", position=exc.pos) from exc
    return _build(KstarRecord, obj, "")
