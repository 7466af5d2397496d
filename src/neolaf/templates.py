"""Prompt templates and placeholder substitution.

Templates are plain strings with ``{placeholder}`` slots. Only the six
known placeholders are substituted; any other brace pair passes through
untouched, so templates may freely contain literal braces (LaTeX, JSON
examples, etc.).
"""

from __future__ import annotations

import re

PLACEHOLDERS = ("query", "context", "plan", "step_output", "expected", "actual")

_SLOT_RE = re.compile(r"\{(%s)\}" % "|".join(PLACEHOLDERS))


def render(template: str, **values: str) -> str:
    """Substitute known placeholders; unknown slots are left verbatim."""

    def sub(match: re.Match) -> str:
        return values.get(match.group(1), match.group(0))

    return _SLOT_RE.sub(sub, template)


# The eight starter-kit template slots. Each opens with a distinctive
# header line so scripted fixtures can recognize which phase a prompt
# belongs to without guessing.
DEFAULT_TEMPLATES: dict[str, str] = {
    "confidence": (
        "Answer directly and rate yourself.\n"
        "Relevant prior knowledge:\n{context}\n\n"
        "Problem: {query}\n\n"
        "Reply with exactly three sections:\n"
        "ANSWER: <final answer only>\n"
        "EXPLANATION: <brief reasoning>\n"
        "CONFIDENCE: <number between 0 and 1>"
    ),
    "situation": (
        "Describe the situation in one short paragraph.\n"
        "Relevant prior knowledge:\n{context}\n\n"
        "Problem: {query}"
    ),
    "decompose": (
        "Break the task into subtasks, one per line, each starting with '- '.\n"
        "Relevant prior knowledge:\n{context}\n\n"
        "Task: {query}"
    ),
    "plan": (
        "Write an action plan, one line per step, in the exact form:\n"
        "STEP <n>: <agent> | <skill> | <constraints>\n"
        "Use agent 'self' for reasoning. When a step needs exact arithmetic,\n"
        'make its skill a tool directive such as: TOOL calc(expr="1/3+1/6")\n'
        "Context:\n{context}\n\n"
        "Task: {query}"
    ),
    "forecast": (
        "Forecast the outcome of the plan before executing it.\n"
        "Plan:\n{plan}\n\n"
        "Task: {query}\n\n"
        "Reply with exactly two sections:\n"
        "EXPECTED: <the result you anticipate>\n"
        "PROBABILITY: <number between 0 and 1>"
    ),
    "execute": (
        "Execute this step of the plan and report what you did.\n"
        "Step: {plan}\n"
        "Output of earlier steps:\n{step_output}\n\n"
        "Task: {query}\n"
        'If the step needs exact arithmetic, emit a line: TOOL calc(expr="...")'
    ),
    "evaluate": (
        "Judge whether the task was accomplished.\n"
        "Task: {query}\n"
        "Expected result: {expected}\n"
        "Actual result: {actual}\n\n"
        "Reply with exactly two sections:\n"
        "VERDICT: <success or failure>\n"
        "FEEDBACK: <one sentence of feedback>"
    ),
    "distill": (
        "State one general, reusable lesson from this encounter in a single\n"
        "sentence. Encounter summary:\n"
        "Task: {query}\n"
        "Plan: {plan}\n"
        "Expected: {expected}\n"
        "Actual: {actual}"
    ),
}

TEMPLATE_NAMES = tuple(DEFAULT_TEMPLATES)
