"""The benchmark's three workloads: seeded inputs, set-up, timed loop and
correctness checks.

Every workload runs in a closed loop: one process, one client, the next
operation starts when the previous one returns. The model is replayed
through ``ScriptedProvider`` from a script captured during set-up, so
the program sees exactly the prompts a live run would produce and the
model costs nothing.

The program is always reached through its module attributes
(``cognition.solve``, ``memory.EpisodicStore.open``, ...), so the tracer
in ``spans.py`` can wrap them without a second code path.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from neolaf import cognition, harness, memory
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
from neolaf.provider import DeterministicEmbedder, ScriptedProvider, fingerprint
from neolaf.toolkit import default_registry

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
DATASET_DIR = FIXTURES / "math20"

# Full sizes, as the workload names promise. Tests pass smaller ones.
ITEMS = 10_000
RECORDS = 5_000
# math20-10k replays rounds of this many passes, each from a fresh copy
# of the starting store; the script is captured for exactly one round.
PASSES_PER_ROUND = 2
RECALL_QUERIES = 8
RECALL_K = 5
# Queries of the first recall session checked against the brute-force
# oracle after timing. Each check scores every item twice through the
# embedder, about 0.5 s at 10k items.
ORACLE_SAMPLE = 3

_FILLER = (
    "compute", "exact", "value", "fraction", "integer", "sum", "product",
    "remainder", "divide", "prime", "square", "root", "angle", "triangle",
    "area", "minutes", "percent", "lowest", "terms", "reduced", "number",
)
_SUBJECTS = ("algebra", "arithmetic", "geometry", "number_theory", "prealgebra")
_BASE_TIME = datetime(2024, 3, 1, 12, 0, 0, tzinfo=timezone.utc)


@dataclass
class Tally:
    """What one timed phase measured."""

    op_ns: list = field(default_factory=list)
    open_ns: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    provider_calls: int = 0
    bytes_appended: int = 0
    lines_appended: int = 0
    live_items: int = 0
    knowledge_lines: int = 0

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def fixture_generator():
    """The fixture generator module, imported from its file unchanged."""
    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", FIXTURES / "generate_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_problems():
    problems = harness.load_dataset(DATASET_DIR, "math_dir")
    if len(problems) != 20:
        raise RuntimeError(f"expected 20 problems in {DATASET_DIR}, found {len(problems)}")
    return problems


def vocabulary(problems) -> list[str]:
    """Words of the math20 statements plus filler, so seeded knowledge
    overlaps the real queries by varying amounts."""
    words = set(_FILLER)
    for problem in problems:
        words.update(re.findall(r"[a-z0-9]+", problem.statement.lower()))
    return sorted(words)


def _phrase(rng: random.Random, vocab, low: int, high: int) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(low, high)))


def _count_lines(path: Path) -> int:
    # In blocks, so counting adds nothing to peak_rss_mb.
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines


def store_size(directory: Path) -> tuple[int, int, int]:
    """(bytes, lines, knowledge lines) over both JSONL files."""
    total = lines = knowledge_lines = 0
    for name in (memory.RECORD_LOG_NAME, memory.KNOWLEDGE_FILE_NAME):
        path = directory / name
        if path.exists():
            total += path.stat().st_size
            count = _count_lines(path)
            lines += count
            if name == memory.KNOWLEDGE_FILE_NAME:
                knowledge_lines = count
    return total, lines, knowledge_lines


def account(tally: Tally, directory: Path, live_items: int, start=(0, 0, 0)) -> None:
    size, lines, knowledge_lines = store_size(directory)
    tally.bytes_appended += size - start[0]
    tally.lines_appended += lines - start[1]
    tally.knowledge_lines += knowledge_lines
    tally.live_items += live_items


# --------------------------------------------------------------------------
# Seeded store generator
# --------------------------------------------------------------------------


def _seeded_record(rng, situation, question, expr, value, success, used, delta, index):
    restate = ActionStep(
        agent="self",
        skill="restate the computation carefully",
        constraints=("stay exact",),
        status=StepStatus.EXECUTED,
        observed_output="Restating the computation; the calculator will ground the exact result.",
    )
    tool_skill = f'TOOL calc(expr="{expr}")'
    if success:
        tool = ActionStep("self", tool_skill, ("exact arithmetic",), StepStatus.EXECUTED, value)
        outcome = Outcome(
            actual_result=value,
            success=True,
            grounding_evidence=(GroundingEvidence("calc", json.dumps({"expr": expr}), value),),
        )
    else:
        detail = "DivisionByZero: division by zero"
        tool = ActionStep("self", tool_skill, ("exact arithmetic",), StepStatus.FAILED, detail)
        outcome = Outcome(
            actual_result=f"step '{tool_skill}' failed: {detail}",
            success=False,
            feedback=detail,
        )
    return KstarRecord(
        id=0,
        timestamp=_BASE_TIME + timedelta(seconds=index, microseconds=rng.randint(0, 999_999)),
        knowledge_used=used,
        situation=Situation(description=situation, source=SituationSource.HARNESS),
        task=TaskSpec(
            goal=question,
            subtasks=(TaskSpec("restate what is being asked"), TaskSpec("compute the exact value")),
            cotasks=CoTasks(CoTaskState.DONE, CoTaskState.DONE, CoTaskState.DONE),
        ),
        plan=(restate, tool),
        forecast=Forecast("the exact value computed by the calculator", 0.8),
        outcome=outcome,
        knowledge_delta=delta,
        metrics=EncounterMetrics(
            latency_ms=rng.randint(1, 40), provider_calls=7, tool_calls=1, replans=0
        ),
    )


def fill_store(store, rng: random.Random, vocab, n_items: int, n_records: int) -> None:
    """Write ``n_records`` slow-path encounters carrying ``n_items``
    knowledge items between them, through the public write path and in
    the order ``run_system2`` uses: knowledge first, then its record.

    Statements take the shapes ``extract_knowledge`` produces. About a
    third of the situations repeat an earlier one, so exact score ties
    occur; the rest draw from ``vocab``, so scores vary.
    """
    situations: list[tuple[str, str]] = []
    known = len(store.knowledge)
    for index in range(n_records):
        if situations and rng.random() < 0.3:
            situation, question = rng.choice(situations)
        else:
            question = f"What is {_phrase(rng, vocab, 3, 8)}?"
            situation = f"A {rng.choice(_SUBJECTS)} problem posed for exact solution: {question}"
            situations.append((situation, question))
        a, b = rng.randint(2, 999), rng.randint(2, 999)
        expr, value = f"{a} + {b}", str(a + b)
        success = rng.random() < 0.7
        if success:
            rule = (
                memory.KnowledgeKind.REINFORCEMENT,
                memory.REINFORCEMENT_CONFIDENCE,
                f"Confirmed for '{situation}': the plan [restate the computation "
                f'carefully; TOOL calc(expr="{expr}")] produced {value}',
            )
        else:
            rule = (
                memory.KnowledgeKind.CORRECTIVE,
                memory.CORRECTIVE_CONFIDENCE,
                f"Correction for '{situation}': expected the exact value computed by "
                f"the calculator but got step 'TOOL calc(expr=\"{expr}\")' failed: "
                "DivisionByZero: division by zero",
            )
        lesson = (
            memory.KnowledgeKind.DISTILLED,
            memory.DISTILLED_CONFIDENCE,
            f"Lesson: {_phrase(rng, vocab, 5, 12)}.",
        )
        count = (index + 1) * n_items // n_records - index * n_items // n_records
        used = tuple(sorted(rng.sample(range(1, known + 1), min(4, known))))
        record_id = store.next_record_id()
        delta = tuple(
            store.add_knowledge(
                memory.KnowledgeItem(0, statement, kind, (record_id,), confidence)
            )
            for kind, confidence, statement in [rule, *[lesson] * (count - 1)][:count]
        )
        known += len(delta)
        store.store_record(
            _seeded_record(rng, situation, question, expr, value, success, used, delta, index)
        )


# --------------------------------------------------------------------------
# Agent workloads
# --------------------------------------------------------------------------


def capture(groups, open_store):
    """Run the agent over ``groups`` of problems with the fixture
    responder, one store open per group.

    Returns the captured script and a digest over the ordered request
    fingerprints and answers.
    """
    fixtures = fixture_generator()
    responder = fixtures.make_responder()
    script: dict = {}
    prints: list[str] = []
    answers: list[str] = []

    def recording(request):
        prints.append(fingerprint(request))
        return responder(request)

    provider = fixtures.CapturingProvider(recording, script)
    kit, registry = cognition.default_kit(), default_registry()
    for index, group in enumerate(groups):
        # Drop the previous store first: one CLI process holds one store.
        store = None
        store = open_store(index)
        for problem in group:
            solution = cognition.solve(
                problem.statement, kit, provider, registry, store,
                source=SituationSource.HARNESS,
            )
            answers.append(solution.answer)
    return script, digest([prints, answers])


def solve_op(problem, kit, provider, registry, store, tally: Tally) -> None:
    """One op, as ``run_eval`` does per problem: solve, then check."""
    tally.attempted += 1
    try:
        solution = cognition.solve(
            problem.statement, kit, provider, registry, store,
            source=SituationSource.HARNESS,
        )
        correct = harness.answers_equal(solution.answer, problem.reference_answer)
    except Exception as exc:  # a failed op is data; the run goes on
        tally.fail(f"{problem.id}: {type(exc).__name__}: {exc}")
        return
    tally.provider_calls += solution.provider_calls
    if not correct:
        tally.fail(f"{problem.id}: wrong answer {solution.answer!r}")


class Workload:
    """Seeded inputs of one workload. ``setup`` builds what the timed
    ``run`` needs; ``verify`` checks results after timing."""

    setup_repeats = 3
    # Whether the recorded digest applies only at the default seed.
    digest_needs_default_seed = True

    def __init__(self, work: Path, seed: int, items: int = ITEMS, records: int = RECORDS):
        self.work = work
        self.seed = seed
        self.items = items
        self.records = records
        self.problems = load_problems()
        self.rng = random.Random(seed)
        self.base = work / "start"
        self.digest = ""

    def fill(self, embedder=None) -> None:
        """Build the seeded starting store at ``self.base``."""
        shutil.rmtree(self.base, ignore_errors=True)
        store = memory.EpisodicStore.open(self.base, embedder)
        fill_store(
            store, random.Random(f"store:{self.seed}"), vocabulary(self.problems),
            self.items, self.records,
        )

    def verify(self, tally: Tally) -> None:
        """Nothing beyond the checks made as each op ran."""


class AgentWorkload(Workload):
    """Shared timed loop of the two math20 workloads.

    A round is a list of groups; each group is one store open followed
    by its problems. Round set-up and clean-up are not timed.
    """

    # Whether each open starts from a fully collected heap, as the open at
    # the start of a CLI process does. Untimed; it keeps the garbage left
    # by earlier ops from setting when the collector runs inside the open.
    collect_before_open = True

    def run(self, seconds: float) -> Tally:
        tally = Tally()
        provider = ScriptedProvider(self.script)
        kit, registry = cognition.default_kit(), default_registry()
        deadline = time.perf_counter() + seconds
        clock = time.perf_counter_ns
        while True:
            round_dir = self.work / "round"
            groups = self.start_round(round_dir)
            # store directory -> live knowledge items after its last group
            live: dict = {}
            try:
                for index, group in enumerate(groups):
                    path = self.store_dir(round_dir, index)
                    # Drop the previous store before the next open: one CLI
                    # process holds one store, and so does peak_rss_mb.
                    store = None
                    if self.collect_before_open:
                        gc.collect()
                    started = clock()
                    store = memory.EpisodicStore.open(path)
                    tally.open_ns.append(clock() - started)
                    try:
                        for problem in group:
                            started = clock()
                            solve_op(problem, kit, provider, registry, store, tally)
                            tally.op_ns.append(clock() - started)
                            if time.perf_counter() >= deadline:
                                return tally
                    finally:
                        live[path] = len(store.knowledge)
            finally:
                store = None
                for path, items in live.items():
                    account(tally, path, items, self.start_size)
                self.end_round(round_dir, live)


class Math20Fresh(AgentWorkload):
    """Each encounter gets its own newly opened empty store."""

    setup_repeats = 15
    # A collection per sub-millisecond op would take most of the run.
    collect_before_open = False
    # Empty stores make every prompt independent of problem order, so
    # the digest is the same for every seed.
    digest_needs_default_seed = False
    start_size = (0, 0, 0)

    def setup(self) -> None:
        capture_dir = self.work / "capture"
        shutil.rmtree(capture_dir, ignore_errors=True)
        try:
            self.script, self.digest = capture(
                [[p] for p in self.problems],
                lambda i: memory.EpisodicStore.open(capture_dir / f"s{i}"),
            )
        finally:
            shutil.rmtree(capture_dir, ignore_errors=True)

    def start_round(self, round_dir: Path):
        return [[p] for p in self.rng.sample(self.problems, len(self.problems))]

    def end_round(self, round_dir: Path, paths) -> None:
        # Empty the store directories but keep them: creating and removing
        # thousands of directories per run makes later file operations on
        # ext4 slower run after run.
        for path in paths:
            for name in (memory.RECORD_LOG_NAME, memory.KNOWLEDGE_FILE_NAME):
                (path / name).unlink(missing_ok=True)

    def store_dir(self, round_dir: Path, index: int) -> Path:
        return round_dir / f"s{index}"


class Math20Shared(AgentWorkload):
    """One shared, pre-filled store, reopened at the start of each pass."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.orders = [
            self.rng.sample(self.problems, len(self.problems))
            for _ in range(PASSES_PER_ROUND)
        ]

    def setup(self) -> None:
        self.fill()
        self.start_size = store_size(self.base)
        capture_dir = self.work / "capture"
        shutil.rmtree(capture_dir, ignore_errors=True)
        shutil.copytree(self.base, capture_dir)
        try:
            self.script, self.digest = capture(
                self.orders, lambda i: memory.EpisodicStore.open(capture_dir)
            )
        finally:
            shutil.rmtree(capture_dir, ignore_errors=True)

    def start_round(self, round_dir: Path):
        shutil.copytree(self.base, round_dir)
        return self.orders

    def end_round(self, round_dir: Path, paths) -> None:
        shutil.rmtree(round_dir, ignore_errors=True)

    def store_dir(self, round_dir: Path, index: int) -> Path:
        return round_dir


# --------------------------------------------------------------------------
# Recall workload
# --------------------------------------------------------------------------


class RecallEmbed(Workload):
    """Sessions of seeded queries against one embedder-backed store."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.vocab = vocabulary(self.problems)
        self.first_session: list = []

    def setup(self) -> None:
        self.fill(DeterministicEmbedder())

    def run(self, seconds: float) -> Tally:
        tally = Tally()
        embedder = DeterministicEmbedder()
        deadline = time.perf_counter() + seconds
        clock = time.perf_counter_ns
        while True:
            queries = [
                f"What is {_phrase(self.rng, self.vocab, 3, 8)}?"
                for _ in range(RECALL_QUERIES)
            ]
            store = None  # one store at a time, as in one CLI process
            start = store_size(self.base)
            gc.collect()  # untimed, as in AgentWorkload
            started = clock()
            store = memory.EpisodicStore.open(self.base, embedder)
            tally.open_ns.append(clock() - started)
            session = []
            for query in queries:
                tally.attempted += 1
                started = clock()
                try:
                    ids = [item.id for item in store.retrieve(query, RECALL_K)]
                except Exception as exc:  # a failed op is data; the run goes on
                    ids = None
                    tally.fail(f"retrieve({query!r}): {type(exc).__name__}: {exc}")
                tally.op_ns.append(clock() - started)
                session.append((query, ids))
            account(tally, self.base, len(store.knowledge), start)
            if not self.first_session:
                self.first_session = session
                self.digest = digest(session)
            if time.perf_counter() >= deadline:
                return tally

    def verify(self, tally: Tally) -> None:
        """Check sampled queries against the brute-force ranking built
        from ``memory.similarity``."""
        embedder = DeterministicEmbedder()
        items = memory.EpisodicStore.open(self.base, embedder).knowledge
        for query, ids in self.first_session[:ORACLE_SAMPLE]:
            ranked = sorted(
                items, key=lambda it: (-memory.similarity(query, it.statement, embedder), -it.id)
            )
            expected = [it.id for it in ranked[:RECALL_K]]
            if ids != expected:
                tally.fail(f"retrieve({query!r}) gave {ids}, oracle gives {expected}")


WORKLOADS = {
    "math20-fresh": Math20Fresh,
    "math20-10k": Math20Shared,
    "recall-embed-10k": RecallEmbed,
}
