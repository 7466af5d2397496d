"""Shared fixtures and deterministic builders for the test suite."""

from __future__ import annotations

import os
import random
import socket
from datetime import datetime, timedelta, timezone

import pytest

from neolaf import memory
from neolaf.kstar import (
    ActionStep,
    CoTasks,
    CoTaskState,
    EncounterMetrics,
    Forecast,
    GroundingEvidence,
    KstarRecord,
    Outcome,
    Situation,
    SituationSource,
    StepStatus,
    TaskSpec,
)

_WORDS = (
    "solve", "fraction", "sum", "quadratic", "equation", "roots", "integer",
    "prime", "remainder", "divide", "exact", "check", "denominator", "value",
    "compute", "simplify", "triangle", "area", "product", "sequence",
)

_BASE_TIME = datetime(2024, 3, 1, 12, 0, 0, tzinfo=timezone.utc)


def make_words(rng: random.Random, low: int = 2, high: int = 6) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


def make_task(rng: random.Random, depth: int = 0) -> TaskSpec:
    subtasks = ()
    if depth < 2 and rng.random() < 0.4:
        subtasks = tuple(make_task(rng, depth + 1) for _ in range(rng.randint(1, 2)))
    return TaskSpec(
        goal=make_words(rng),
        subtasks=subtasks,
        cotasks=CoTasks(
            planning=rng.choice(list(CoTaskState)),
            forecasting=rng.choice(list(CoTaskState)),
            grounding=rng.choice([CoTaskState.DONE, CoTaskState.SKIPPED]),
        ),
    )


def make_step(rng: random.Random) -> ActionStep:
    status = rng.choice(list(StepStatus))
    observed = (
        make_words(rng)
        if status in (StepStatus.EXECUTED, StepStatus.FAILED)
        else None
    )
    return ActionStep(
        agent=rng.choice(("self", "calc")),
        skill=make_words(rng),
        constraints=tuple(rng.choice(_WORDS) for _ in range(rng.randint(0, 2))),
        status=status,
        observed_output=observed,
    )


def make_record(rng: random.Random, record_id: int = 1) -> KstarRecord:
    """A random record that always satisfies every schema invariant."""
    task = make_task(rng)
    success = rng.random() < 0.6
    grounding_required = task.cotasks.grounding != CoTaskState.SKIPPED
    evidence = tuple(
        GroundingEvidence(
            tool_name="calc",
            input=make_words(rng, 1, 3),
            output=make_words(rng, 1, 3),
        )
        for _ in range(rng.randint(1, 2))
    ) if (success and grounding_required) or rng.random() < 0.3 else ()
    tags = tuple(sorted(set(rng.choice(_WORDS) for _ in range(rng.randint(0, 3)))))
    return KstarRecord(
        id=record_id,
        timestamp=_BASE_TIME + timedelta(seconds=rng.randint(0, 10_000_000),
                                         microseconds=rng.randint(0, 999_999)),
        knowledge_used=tuple(sorted(set(rng.randint(1, 50) for _ in range(rng.randint(0, 3))))),
        situation=Situation(
            description=make_words(rng),
            context_tags=tags,
            source=rng.choice(list(SituationSource)),
        ),
        task=task,
        plan=tuple(make_step(rng) for _ in range(rng.randint(1, 4))),
        forecast=Forecast(
            expected_result=make_words(rng),
            success_probability=rng.random(),
        ),
        outcome=Outcome(
            actual_result=make_words(rng),
            success=success,
            grounding_evidence=evidence,
            feedback=make_words(rng) if rng.random() < 0.5 else None,
        ),
        knowledge_delta=tuple(sorted(set(rng.randint(1, 50) for _ in range(rng.randint(0, 2))))),
        metrics=EncounterMetrics(
            latency_ms=rng.randint(0, 60_000),
            provider_calls=rng.randint(0, 12),
            tool_calls=rng.randint(0, 6),
            replans=rng.randint(0, 2),
        ),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240301)


@pytest.fixture
def no_network(monkeypatch):
    """Fail the test if anything opens a network connection."""

    def guard(*args, **kwargs):
        raise AssertionError("network access attempted in an offline test")

    monkeypatch.setattr(socket.socket, "connect", guard)
    monkeypatch.setattr(socket, "create_connection", guard)


@pytest.fixture
def count_writes(monkeypatch):
    """``count_writes()`` starts counting, and returns the list of the bytes
    of each ``os.write`` the store makes from then on."""

    def start() -> list[bytes]:
        writes, write = [], os.write

        def counting(fd, data):
            writes.append(data)
            return write(fd, data)

        monkeypatch.setattr(memory.os, "write", counting)
        return writes

    return start
