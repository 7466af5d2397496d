"""The agent: starter-kit configuration, fast/slow routing, and the
slow-path loop that drives the encounter state machine.

The fast path is one completion with retrieved knowledge in context,
parsed for a self-reported confidence. The router escalates anything
below the kit threshold to the slow path, which walks the state machine
through identify, decompose, plan, forecast, execute, evaluate, and
encode, invoking tools for grounding and replanning on failure within
budget. Accepted fast-path answers are also encoded as lightweight
records so consolidation sees every encounter. One ledger per encounter
counts its provider and tool calls and times it from the start of the
fast path, so a record's metrics cover the whole encounter (an escalated
one's include the fast-path call and its time) and match its Solution.

The ledger is also where a provider failure ends: the failed call, and
every later one of the encounter (not made), reads as an empty reply,
which each phase parses as usual, and the encounter is encoded as a
failure without replanning.

Request-builder functions are the complete prompt surface, one per
template slot, distillation included: fixtures and tests construct the
exact requests the loop will make by calling them.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Sequence

from .errors import NeolafError, read_json
from .kstar import (
    DEFAULT_REPLAN_BUDGET,
    ActionStep,
    CoTasks,
    CoTaskState,
    EncounterEvent,
    EncounterMetrics,
    EncounterState,
    Forecast,
    GroundingEvidence,
    KstarRecord,
    Outcome,
    Situation,
    SituationSource,
    StepStatus,
    TaskSpec,
    advance,
)
from .memory import (
    EpisodicStore,
    _clamp,
    extract_knowledge,
    forecast_matched,
    render_plan,
    step_line,
)
from .provider import CompletionProvider, Message, ProviderError, ProviderRequest, Role
from .templates import DEFAULT_TEMPLATES, TEMPLATE_NAMES, render
from .toolkit import (
    MalformedDirective,
    ToolDirective,
    ToolRegistry,
    ToolResult,
    parse_tool_directive,
)
from . import calculator


class ReviewRejected(NeolafError):
    """The human reviewer declined the proposed plan."""


class Route(str, Enum):
    SYSTEM1 = "system1"
    SYSTEM2 = "system2"


@dataclass(frozen=True)
class StarterKit:
    """The innate configuration an agent is instantiated from."""

    system_prompt: str = (
        "You are a careful problem-solving agent. Follow the requested "
        "output format exactly."
    )
    route_threshold: float = 0.75
    r_max: int = DEFAULT_REPLAN_BUDGET
    retrieval_k: int = 4
    context_token_budget: int = 256
    tool_allowlist: tuple[str, ...] = ("calc",)
    prompt_templates: dict = field(default_factory=lambda: dict(DEFAULT_TEMPLATES))

    def __post_init__(self):
        if not 0.0 <= self.route_threshold <= 1.0:
            raise ValueError("route_threshold must be in [0, 1]")
        if self.r_max < 0:
            raise ValueError("r_max must be >= 0")
        if self.retrieval_k < 0:
            raise ValueError("retrieval_k must be >= 0")
        if self.context_token_budget < 1:
            raise ValueError("context_token_budget must be positive")
        if missing := [name for name in TEMPLATE_NAMES if name not in self.prompt_templates]:
            raise ValueError(f"prompt_templates missing slots: {', '.join(missing)}")
        # a blank text would fail only at the first request built from it
        texts = {**self.prompt_templates, "system_prompt": self.system_prompt}
        if blank := [k for k in ("system_prompt", *TEMPLATE_NAMES) if not texts[k].strip()]:
            raise ValueError(f"kit text must not be blank: {', '.join(blank)}")
        object.__setattr__(self, "prompt_templates", dict(self.prompt_templates))
        object.__setattr__(self, "tool_allowlist", tuple(self.tool_allowlist))


def default_kit(**overrides) -> StarterKit:
    return StarterKit(**overrides)


# The JSON values a kit field accepts, by the type of the field's default.
_KIT_JSON_TYPES = {
    str: (str, "text"),
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    tuple: ((list, tuple), "an array"),
    dict: (dict, "a JSON object"),
}


def kit_from_dict(obj: dict) -> StarterKit:
    """Build a kit from a JSON document; unknown keys are ignored, absent
    fields take defaults, absent template slots the built-in templates.
    A value must have its default's type, except that a float field takes
    an integer too, and each entry of an array or object field must be text."""
    if not isinstance(obj, dict):
        raise ValueError("a kit must be a JSON object")
    values = {}
    for f in fields(StarterKit):
        if f.name not in obj:
            continue
        default = f.default_factory() if f.default is MISSING else f.default
        accepted, described = _KIT_JSON_TYPES[type(default)]
        value = obj[f.name]
        # bool is an int subclass, but no kit field takes true or false
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"kit field {f.name!r} must be {described}, not {value!r}")
        if isinstance(value, (list, tuple, dict)):  # every entry a kit holds is text
            for key, entry in value.items() if isinstance(value, dict) else enumerate(value):
                if not isinstance(entry, str):
                    raise ValueError(
                        f"kit field {f.name!r} entry {key!r} must be text, not {entry!r}"
                    )
        values[f.name] = value
    values["prompt_templates"] = {**DEFAULT_TEMPLATES, **values.get("prompt_templates", {})}
    return StarterKit(**values)


def load_kit(path) -> StarterKit:
    return read_json(path, kit_from_dict)


def save_kit(kit: StarterKit, path) -> None:
    Path(path).write_text(
        json.dumps(asdict(kit), ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )


@dataclass(frozen=True)
class Solution:
    answer: str
    explanation: str
    route: Route
    record_id: int
    elapsed_ms: int
    provider_calls: int
    tool_calls: int


# --------------------------------------------------------------------------
# Request builders: the complete prompt surface of the agent
# --------------------------------------------------------------------------


def _request(kit: StarterKit, template_name: str, **subs: str) -> ProviderRequest:
    body = render(kit.prompt_templates[template_name], **subs)
    return ProviderRequest((Message(Role.SYSTEM, kit.system_prompt), Message(Role.USER, body)))


def system1_request(kit, query, context=""):
    return _request(kit, "confidence", query=query, context=context)


def situation_request(kit, query, context=""):
    return _request(kit, "situation", query=query, context=context)


def decompose_request(kit, query, context=""):
    return _request(kit, "decompose", query=query, context=context)


def plan_request(kit, query, context=""):
    return _request(kit, "plan", query=query, context=context)


def forecast_request(kit, query, plan_text):
    return _request(kit, "forecast", query=query, plan=plan_text)


def execute_request(kit, query, context, step_line, step_output):
    return _request(
        kit, "execute", query=query, context=context, plan=step_line,
        step_output=step_output or "(none yet)",
    )


def evaluate_request(kit, query, expected, actual):
    return _request(kit, "evaluate", query=query, expected=expected, actual=actual)


def distill_request(kit, query, plan_text, expected, actual):
    return _request(
        kit, "distill", query=query, plan=plan_text, expected=expected, actual=actual
    )


# --------------------------------------------------------------------------
# Response parsing
# --------------------------------------------------------------------------


def parse_labeled_sections(text: str, labels: Sequence[str]) -> dict[str, str]:
    """Split a response into LABEL: sections; content may span lines."""
    sections: dict[str, str] = {}
    current: Optional[str] = None
    buffer: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        matched = None
        for label in labels:
            if stripped.upper().startswith(label.upper() + ":"):
                matched = label
                break
        if matched is not None:
            if current is not None:
                sections[current] = "\n".join(buffer).strip()
            current = matched
            buffer = [stripped[len(matched) + 1 :].strip()]
        elif current is not None:
            buffer.append(line)
    if current is not None:
        sections[current] = "\n".join(buffer).strip()
    return sections


_FLOAT_RE = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(\s*%)?")


def _parse_float(text: Optional[str]) -> Optional[float]:
    """The first number in ``text``, read whole, exponent included;
    ``N%`` reads as N / 100."""
    if not text:
        return None
    m = _FLOAT_RE.search(text)
    if m is None:
        return None
    return float(m[1]) / 100 if m[2] else float(m[1])


_STEP_RE = re.compile(r"^\s*STEP\s+\d+\s*:\s*(.*)$", re.IGNORECASE)


def parse_plan(text: str) -> tuple[ActionStep, ...]:
    """Parse STEP lines into action steps.

    A response with no conforming STEP line becomes one free-text
    reasoning step (robustness over strictness), so chatty plans still
    execute.
    """
    steps = []
    for line in text.splitlines():
        m = _STEP_RE.match(line)
        if m is None:
            continue
        parts = [p.strip() for p in m.group(1).split("|")]
        if len(parts) == 1:
            agent, skill, raw_constraints = "self", parts[0], ""
        elif len(parts) == 2:
            agent, skill, raw_constraints = parts[0], parts[1], ""
        else:
            agent, skill, raw_constraints = parts[0], parts[1], " | ".join(parts[2:])
        if not skill:
            continue
        constraints = tuple(
            c.strip() for c in raw_constraints.split(",") if c.strip()
        )
        steps.append(ActionStep(agent=agent or "self", skill=skill, constraints=constraints))
    if not steps:
        body = text.strip()
        steps = [ActionStep(agent="self", skill=body or "reason about the task step by step")]
    return tuple(steps)


def parse_subtasks(text: str) -> tuple[TaskSpec, ...]:
    goals = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("- ") and stripped[2:].strip():
            goals.append(stripped[2:].strip())
    return tuple(TaskSpec(goal=g) for g in goals)


def parse_forecast(text: str) -> Forecast:
    sections = parse_labeled_sections(text, ("EXPECTED", "PROBABILITY"))
    expected = sections.get("EXPECTED") or text.strip() or "no explicit expectation"
    probability = _parse_float(sections.get("PROBABILITY"))
    if probability is None:
        probability = 0.5
    return Forecast(
        expected_result=expected,
        success_probability=_clamp(probability),
    )


def parse_verdict(text: str) -> tuple[bool, Optional[str]]:
    sections = parse_labeled_sections(text, ("VERDICT", "FEEDBACK"))
    verdict = sections.get("VERDICT", "").lower()
    success = verdict.startswith("success") or verdict.startswith("yes")
    return success, sections.get("FEEDBACK") or None


def parse_system1(text: str) -> tuple[str, str, float]:
    """A fast-path reply's answer, explanation and self-confidence. A reply
    that states no parseable confidence scores 0.0, which escalates."""
    sections = parse_labeled_sections(text, ("ANSWER", "EXPLANATION", "CONFIDENCE"))
    confidence = _parse_float(sections.get("CONFIDENCE"))
    return (sections.get("ANSWER") or text.strip(), sections.get("EXPLANATION") or "",
            _clamp(confidence or 0.0))


# --------------------------------------------------------------------------
# Fast path and routing
# --------------------------------------------------------------------------


def knowledge_context(items, budget: int) -> str:
    """Format ranked knowledge items as a context block.

    Items append whole or not at all, in rank order, until the word
    budget would be exceeded.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    lines = []
    used = 0
    for item in items:
        line = f"- [{item.confidence:.2f}] {item.statement}"
        words = len(line.split())
        if used + words > budget:
            break
        lines.append(line)
        used += words
    return "\n".join(lines)


def route(confidence: float, kit: StarterKit) -> Route:
    """Accept the fast answer iff confidence reaches the kit threshold."""
    return Route.SYSTEM1 if confidence >= kit.route_threshold else Route.SYSTEM2


# --------------------------------------------------------------------------
# Slow path
# --------------------------------------------------------------------------


# A lone surrogate (JSON allows "\ud800"; argv bytes that are not UTF-8
# arrive as "\udcff") cannot be encoded as UTF-8: it becomes U+FFFD.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _scrub(text: str) -> str:
    return _SURROGATE_RE.sub("\ufffd", text)


class _Ledger:
    """The ledger of one encounter: its start time, every completion
    attempt (successful or not), every tool call, and the encounter's
    first provider error."""

    def __init__(self, provider: CompletionProvider):
        self.provider = provider
        self.started = time.monotonic()
        self.provider_calls = 0
        self.tool_calls = 0
        self.error: Optional[ProviderError] = None

    def reply(self, request: ProviderRequest) -> tuple[str, Optional[ProviderError]]:
        """The reply text to ``request``, its lone surrogates made U+FFFD,
        and None; or, once a call of the encounter has failed, "" and that
        call's error, without calling the provider again."""
        if self.error is None:
            self.provider_calls += 1
            try:
                return _scrub(self.provider.complete(request).text), None
            except ProviderError as exc:
                self.error = exc
        return "", self.error

    def call_tool(self, kit, registry: ToolRegistry, directive: ToolDirective,
                  evidence: list) -> ToolResult:
        """Count and make one tool call. A tool outside the kit allowlist
        is refused; a call that succeeds appends its evidence, whose input
        is the arguments as sorted-key JSON."""
        self.tool_calls += 1
        name = directive.tool_name
        if name not in kit.tool_allowlist:
            return ToolResult("", False, f"ToolNotAllowed: {name!r} is not in the kit allowlist")
        result = registry.invoke(name, directive.args)
        if result.ok:
            args = json.dumps(directive.args, ensure_ascii=False, sort_keys=True)
            evidence.append(GroundingEvidence(name, args, result.output))
        return result

    def metrics(self, replans: int = 0) -> EncounterMetrics:
        return EncounterMetrics(
            latency_ms=int((time.monotonic() - self.started) * 1000),
            provider_calls=self.provider_calls,
            tool_calls=self.tool_calls,
            replans=replans,
        )


def _solution(answer, explanation, route_taken, record: KstarRecord) -> Solution:
    """The Solution of a stored record, which counts and times it."""
    metrics = record.metrics
    return Solution(answer, explanation, route_taken, record.id, metrics.latency_ms,
                    metrics.provider_calls, metrics.tool_calls)


def _maybe_directive(line: str) -> Optional[ToolDirective]:
    # Inside LLM output, near-miss directive lines are prose, not errors.
    try:
        return parse_tool_directive(line)
    except MalformedDirective:
        return None


def _step_outcome(kit, ledger, registry, query, context, step, prior_outputs, evidence):
    """Run one step and return (ok, observed output).

    A step whose skill is a tool directive is that tool call. Any other
    step goes to the provider, and each directive line of the reply is
    called in turn, its output folded into the observed output; the
    first failing line fails the step.
    """
    directive = _maybe_directive(step.skill)
    if directive is not None:
        result = ledger.call_tool(kit, registry, directive, evidence)
        return result.ok, (result.output if result.ok else result.error_detail or "tool failed")
    request = execute_request(kit, query, context, step_line(step), "\n".join(prior_outputs))
    text, error = ledger.reply(request)
    if error is not None:
        return False, f"provider error: {error}"
    parts = [text.strip()] if text.strip() else []
    for line in text.splitlines():
        directive = _maybe_directive(line)
        if directive is None:
            continue
        result = ledger.call_tool(kit, registry, directive, evidence)
        if not result.ok:
            parts.append(f"[{directive.tool_name}] failed: {result.error_detail}")
            return False, "\n".join(parts)
        parts.append(f"[{directive.tool_name}] {result.output}")
    return True, "\n".join(parts) or "(no output)"


def _execute_steps(kit, ledger, registry, query, context, steps):
    """Run plan steps in order; the first failure skips the rest."""
    evidence: list[GroundingEvidence] = []
    out_steps: list[ActionStep] = []
    prior_outputs: list[str] = []
    failed = False
    for step in steps:
        if failed:
            out_steps.append(replace(step, status=StepStatus.SKIPPED))
            continue
        ok, observed = _step_outcome(
            kit, ledger, registry, query, context, step, prior_outputs, evidence
        )
        status = StepStatus.EXECUTED if ok else StepStatus.FAILED
        out_steps.append(replace(step, status=status, observed_output=observed))
        if ok:
            prior_outputs.append(observed)
        failed = not ok
    return tuple(out_steps), evidence


_ANSWER_MARK_RE = re.compile(r"^\s*ANSWER:\s*(.+)$", re.MULTILINE)


def _final_answer(steps, evidence) -> str:
    for step in reversed(steps):
        if step.observed_output:
            marks = _ANSWER_MARK_RE.findall(step.observed_output)
            if marks:
                return marks[-1].strip()
    if evidence:
        return evidence[-1].output.strip()
    for step in reversed(steps):
        if step.status is StepStatus.EXECUTED and step.observed_output:
            lines = [l.strip() for l in step.observed_output.splitlines() if l.strip()]
            if lines:
                return lines[-1]
    return ""


def _evaluate(kit, ledger, registry, query, steps, forecast, evidence):
    """Decide success, grounding the answer where possible.

    Returns (outcome, grounding co-task state, answer). Numeric answers
    are confirmed with the calculator unless a tool already produced
    them; everything else is judged by the evaluation prompt.
    """
    failed = [s for s in steps if s.status is StepStatus.FAILED]
    if failed:
        detail = failed[0].observed_output or "step failed"
        outcome = Outcome(
            actual_result=f"step '{failed[0].skill}' failed: {detail}",
            success=False,
            grounding_evidence=tuple(evidence),
            feedback=detail,
        )
        grounding = CoTaskState.DONE if evidence else CoTaskState.SKIPPED
        return outcome, grounding, ""

    answer = _final_answer(steps, evidence)
    if not answer:
        outcome = Outcome(
            actual_result="no answer was produced",
            success=False,
            grounding_evidence=tuple(evidence),
            feedback="the plan produced no usable output",
        )
        return outcome, CoTaskState.SKIPPED, ""

    if any(ev.output.strip() == answer for ev in evidence):
        # already grounded: the answer is a tool output
        outcome = Outcome(answer, True, tuple(evidence), None)
        return outcome, CoTaskState.DONE, answer

    calc_available = "calc" in kit.tool_allowlist and "calc" in registry.tools
    if calc_available and calculator.try_eval(answer) is not None:
        result = ledger.call_tool(kit, registry, ToolDirective("calc", {"expr": answer}), evidence)
        if result.ok:
            outcome = Outcome(result.output, True, tuple(evidence), None)
            return outcome, CoTaskState.DONE, result.output
        outcome = Outcome(
            actual_result=f"answer '{answer}' failed grounding",
            success=False,
            grounding_evidence=tuple(evidence),
            feedback=result.error_detail,
        )
        return outcome, CoTaskState.DONE, answer

    text, error = ledger.reply(evaluate_request(kit, query, forecast.expected_result, answer))
    success, feedback = parse_verdict(text)
    if error is not None:
        feedback = f"evaluation unavailable: {error}"
    outcome = Outcome(answer, success, tuple(evidence), feedback)
    return outcome, CoTaskState.SKIPPED, answer


def run_system2(
    query: str,
    kit: StarterKit,
    provider: CompletionProvider,
    registry: ToolRegistry,
    store: EpisodicStore,
    source: SituationSource = SituationSource.USER,
    plan_review: Optional[Callable[[tuple[ActionStep, ...]], bool]] = None,
    retrieved=None,
) -> tuple[Solution, KstarRecord]:
    """Drive one full slow-path encounter and encode it.

    Walks the encounter state machine in order, replanning after failed
    evaluations until the budget runs out or a provider call fails.
    Failures are also experience: the record is encoded either way, with
    corrective knowledge captured from each failed attempt before
    replanning supersedes it.

    Called from ``solve``, ``provider`` is the encounter's ledger, so the
    record and the Solution also count the fast-path call and its time;
    a bare provider starts a ledger here.
    """
    if not query or not query.strip():
        raise ValueError("query must be non-empty")
    query = _scrub(query)
    ledger = provider if isinstance(provider, _Ledger) else _Ledger(provider)

    if retrieved is None:
        retrieved = store.retrieve(query, kit.retrieval_k)
    used_ids = tuple(item.id for item in retrieved)
    context = knowledge_context(retrieved, kit.context_token_budget)

    state = EncounterState()
    state = advance(state, EncounterEvent.IDENTIFY, kit.r_max)
    description = ledger.reply(situation_request(kit, query, context))[0].strip()
    situation = Situation(
        description=description or f"User query: {query}",
        context_tags=(),
        source=source,
    )

    state = advance(state, EncounterEvent.DEFINE_TASK, kit.r_max)
    subtasks = parse_subtasks(ledger.reply(decompose_request(kit, query, context))[0])

    state = advance(state, EncounterEvent.PLAN, kit.r_max)
    failure_note: Optional[str] = None
    failed_attempts: list[tuple[tuple[ActionStep, ...], Forecast, Outcome]] = []
    while True:
        plan_context = context
        if failure_note is not None:
            joiner = "\n" if context else ""
            plan_context = f"{context}{joiner}Previous attempt failed: {failure_note}"
        steps = parse_plan(ledger.reply(plan_request(kit, query, plan_context))[0])
        # a failed plan call proposed nothing: its placeholder is not shown
        if plan_review is not None and ledger.error is None and not plan_review(steps):
            raise ReviewRejected("plan rejected by reviewer")

        state = advance(state, EncounterEvent.FORECAST, kit.r_max)
        plan_text = render_plan(steps)
        forecast = parse_forecast(ledger.reply(forecast_request(kit, query, plan_text))[0])

        state = advance(state, EncounterEvent.BEGIN_EXECUTION, kit.r_max)
        executed, evidence = _execute_steps(kit, ledger, registry, query, plan_context, steps)

        state = advance(state, EncounterEvent.EVALUATE, kit.r_max)
        outcome, grounding_state, answer = _evaluate(
            kit, ledger, registry, query, executed, forecast, evidence
        )
        # a provider error fails every later call, so no replan can mend it
        if outcome.success or state.replan_count >= kit.r_max or ledger.error:
            break
        failed_attempts.append((executed, forecast, outcome))
        failure_note = outcome.feedback or outcome.actual_result
        state = advance(state, EncounterEvent.REPLAN, kit.r_max)

    task = TaskSpec(
        goal=query,
        subtasks=subtasks,
        cotasks=CoTasks(
            planning=CoTaskState.DONE,
            forecasting=CoTaskState.DONE,
            grounding=grounding_state,
        ),
    )
    state = advance(state, EncounterEvent.ENCODE, kit.r_max)

    draft = KstarRecord(
        id=0,
        timestamp=datetime.now(timezone.utc),
        knowledge_used=used_ids,
        situation=situation,
        task=task,
        plan=executed,
        forecast=forecast,
        outcome=outcome,
        knowledge_delta=(),
        metrics=EncounterMetrics(),
    )
    new_items = []
    for a_steps, a_forecast, a_outcome in failed_attempts:
        snapshot = replace(draft, plan=a_steps, forecast=a_forecast, outcome=a_outcome)
        new_items.extend(extract_knowledge(snapshot))
    lesson, _ = ledger.reply(
        distill_request(kit, query, render_plan(executed), forecast.expected_result,
                        outcome.actual_result)
    )
    new_items.extend(extract_knowledge(draft, lesson))

    metrics = ledger.metrics(replans=state.replan_count)
    reinforced = used_ids if outcome.success and forecast_matched(draft) else ()
    draft = replace(draft, metrics=metrics, knowledge_delta=reinforced)
    record = store.store_record(draft, new_items)
    explanation = "\n".join(step.observed_output for step in executed if step.observed_output)
    return _solution(answer, explanation, Route.SYSTEM2, record), record


def _lightweight_record(query, source, answer, confidence, retrieved, metrics):
    answer_text = answer.strip() or "(no answer text)"
    return KstarRecord(
        id=0,
        timestamp=datetime.now(timezone.utc),
        knowledge_used=tuple(item.id for item in retrieved),
        situation=Situation(description=query, context_tags=(), source=source),
        task=TaskSpec(
            goal=query,
            subtasks=(),
            cotasks=CoTasks(
                planning=CoTaskState.SKIPPED,
                forecasting=CoTaskState.SKIPPED,
                grounding=CoTaskState.SKIPPED,
            ),
        ),
        plan=(
            ActionStep(
                agent="self",
                skill="answer directly from prior knowledge",
                status=StepStatus.EXECUTED,
                observed_output=answer_text,
            ),
        ),
        forecast=Forecast(
            expected_result=f"confident direct answer: {answer_text}",
            success_probability=confidence,
        ),
        outcome=Outcome(actual_result=answer_text, success=True),
        knowledge_delta=(),
        metrics=metrics,
    )


def solve(
    query: str,
    kit: StarterKit,
    provider: CompletionProvider,
    registry: ToolRegistry,
    store: EpisodicStore,
    source: SituationSource = SituationSource.USER,
    system1_only: bool = False,
    plan_review: Optional[Callable[[tuple[ActionStep, ...]], bool]] = None,
) -> Solution:
    """Answer a query by the fast path, escalating to the slow path when
    self-confidence falls below the kit threshold.

    With ``system1_only`` the fast answer is accepted unconditionally
    (the comparison baseline). Either way the encounter is encoded, and
    one ledger counts and times it for both the record and the Solution.
    """
    if not query or not query.strip():
        raise ValueError("query must be non-empty")
    query = _scrub(query)
    ledger = _Ledger(provider)

    retrieved = store.retrieve(query, kit.retrieval_k)
    context = knowledge_context(retrieved, kit.context_token_budget)
    answer, explanation, confidence = parse_system1(
        ledger.reply(system1_request(kit, query, context))[0]
    )
    # a fast path whose call failed has no answer to accept: it escalates
    if ledger.error is None and (system1_only or route(confidence, kit) is Route.SYSTEM1):
        record = _lightweight_record(query, source, answer, confidence, retrieved,
                                     ledger.metrics())
        record = store.store_record(record)
        return _solution(answer, explanation, Route.SYSTEM1, record)
    return run_system2(query, kit, ledger, registry, store, source=source,
                       plan_review=plan_review, retrieved=retrieved)[0]
