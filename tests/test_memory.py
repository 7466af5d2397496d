"""Episodic store, retrieval ranking, extraction rules, consolidation."""

import json
import random
from dataclasses import replace

import pytest

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
    serialize_record,
)
from neolaf.memory import (
    CORRECTIVE_CONFIDENCE,
    REINFORCEMENT_CONFIDENCE,
    EpisodicStore,
    KnowledgeItem,
    KnowledgeKind,
    StorageError,
    ValidationFailed,
    consolidation_example_from_dict,
    extract_knowledge,
    read_consolidation,
    render_plan,
    similarity,
)
from neolaf.provider import (
    DeterministicEmbedder,
    Message,
    ProviderRequest,
    Role,
    ScriptedProvider,
    fingerprint,
)
from neolaf.templates import DEFAULT_TEMPLATES, render

from conftest import make_record


@pytest.fixture
def store(tmp_path):
    return EpisodicStore.open(tmp_path / "store")


def _sample_record(success=True, probability=0.9, grounding=CoTaskState.DONE):
    from datetime import datetime, timezone

    evidence = (
        (GroundingEvidence("calc", '{"expr":"1/3+1/6"}', "1/2"),) if success else ()
    )
    return KstarRecord(
        id=7,
        timestamp=datetime(2024, 5, 1, tzinfo=timezone.utc),
        knowledge_used=(1, 2),
        situation=Situation(description="add unlike fractions", source=SituationSource.USER),
        task=TaskSpec(
            goal="compute 1/3 + 1/6",
            cotasks=CoTasks(CoTaskState.DONE, CoTaskState.DONE, grounding),
        ),
        plan=(
            ActionStep(
                agent="self",
                skill='TOOL calc(expr="1/3+1/6")',
                status=StepStatus.EXECUTED if success else StepStatus.FAILED,
                observed_output="1/2" if success else "DivisionByZero",
            ),
        ),
        forecast=Forecast(expected_result="the exact value 1/2", success_probability=probability),
        outcome=Outcome(
            actual_result="1/2" if success else "step failed",
            success=success,
            grounding_evidence=evidence,
            feedback=None if success else "division by zero",
        ),
        knowledge_delta=(),
        metrics=EncounterMetrics(10, 4, 1, 0),
    )


# ---------------------------------------------------------------------------
# Store and log replay
# ---------------------------------------------------------------------------


def test_first_record_gets_id_one(store, rng):
    assert store.store_record(make_record(rng)) == 1


def test_invalid_record_lists_violations(store, rng):
    bad = replace(make_record(rng), plan=())
    with pytest.raises(ValidationFailed) as excinfo:
        store.store_record(bad)
    assert any("plan" in v for v in excinfo.value.violations)


def test_reload_reproduces_records_and_next_id(tmp_path, rng):
    store = EpisodicStore.open(tmp_path / "s")
    for _ in range(3):
        store.store_record(make_record(rng))
    reloaded = EpisodicStore.open(tmp_path / "s")
    assert [r.id for r in reloaded.records] == [1, 2, 3]
    assert reloaded.records == store.records
    assert reloaded.next_record_id() == 4


def test_log_replay_is_byte_identical(tmp_path, rng):
    store = EpisodicStore.open(tmp_path / "s")
    for _ in range(50):
        store.store_record(make_record(rng))
    original = [serialize_record(r) for r in store.records]
    reloaded = EpisodicStore.open(tmp_path / "s")
    assert [serialize_record(r) for r in reloaded.records] == original


def test_store_error_when_log_unwritable(tmp_path, rng):
    log = tmp_path / "dir-not-file"
    log.mkdir()
    store = EpisodicStore(tmp_path / "ok.jsonl")
    store.log_path = log  # now appending hits a directory
    with pytest.raises(StorageError):
        store.store_record(make_record(rng))


def test_knowledge_survives_reload_with_last_version(tmp_path):
    store = EpisodicStore.open(tmp_path / "s")
    item_id = store.add_knowledge(
        KnowledgeItem(0, "check denominators", KnowledgeKind.CORRECTIVE, (1,), 0.5)
    )
    store.boost_confidence([item_id], 0.3)
    store.boost_confidence([item_id], 0.3)
    reloaded = EpisodicStore.open(tmp_path / "s")
    item = reloaded.get_knowledge(item_id)
    assert item.confidence == pytest.approx(1.0)  # capped
    # the file stayed append-only: one line per version
    lines = (tmp_path / "s" / "knowledge.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3


def test_corrupt_knowledge_file_reports_line(tmp_path):
    store_dir = tmp_path / "s"
    EpisodicStore.open(store_dir)
    (store_dir / "knowledge.jsonl").write_text('{"id": 1}\n', encoding="utf-8")
    with pytest.raises(StorageError, match="line 1"):
        EpisodicStore.open(store_dir)


def test_concurrent_appends_serialize(tmp_path, rng):
    import threading

    store = EpisodicStore.open(tmp_path / "s")
    errors = []

    def worker(seed):
        import random as _random

        local = _random.Random(seed)
        try:
            for _ in range(10):
                store.store_record(make_record(local))
        except Exception as exc:  # surface failures to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    ids = [r.id for r in store.records]
    assert ids == list(range(1, 41))  # strictly increasing, no gaps
    reloaded = EpisodicStore.open(tmp_path / "s")
    assert reloaded.records == store.records


def test_confidence_never_leaves_unit_interval(tmp_path):
    store = EpisodicStore.open(tmp_path / "s")
    item_id = store.add_knowledge(
        KnowledgeItem(0, "lesson", KnowledgeKind.REINFORCEMENT, (1,), 0.9)
    )
    for delta in (0.5, 0.5, -2.0, 0.7, -0.2):
        store.boost_confidence([item_id], delta)
        assert 0.0 <= store.get_knowledge(item_id).confidence <= 1.0


def test_add_knowledge_after_reload_continues_past_an_id_gap(tmp_path):
    store_dir = tmp_path / "s"
    store_dir.mkdir()
    lines = [
        {"id": 1, "statement": "a", "kind": "distilled", "provenance": [1], "confidence": 0.5},
        {"id": 5, "statement": "b", "kind": "distilled", "provenance": [1], "confidence": 0.5},
        {"id": 2, "statement": "c", "kind": "distilled", "provenance": [1], "confidence": 0.5},
        {"id": 1, "statement": "a", "kind": "distilled", "provenance": [1], "confidence": 0.7},
    ]
    (store_dir / "knowledge.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
    )
    store = EpisodicStore.open(store_dir)
    assert _add_statement(store, "d") == 6
    store.boost_confidence([2])
    assert _add_statement(store, "e") == 7
    assert _add_statement(EpisodicStore.open(store_dir), "f") == 8


def test_get_record_hits_and_misses_across_id_gaps(tmp_path, rng):
    store_dir = tmp_path / "s"
    store_dir.mkdir()
    records = [replace(make_record(rng), id=i) for i in (1, 2, 5, 9)]
    (store_dir / "episodic.jsonl").write_text(
        "".join(serialize_record(r) + "\n" for r in records), encoding="utf-8"
    )
    store = EpisodicStore.open(store_dir)
    for record in records:
        assert store.get_record(record.id) == record
    for missing in (0, -1, 3, 4, 10):
        assert store.get_record(missing) is None
    assert store.store_record(make_record(rng)) == 10
    assert store.get_record(10).id == 10


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------


def test_similarity_identity_and_disjoint():
    assert similarity("solve it", "solve it") == 1.0
    assert similarity("a b", "c d") == 0.0
    assert similarity("", "anything") == 0.0
    assert similarity("?!", "?!") == 0.0  # no tokens on either side


def test_similarity_hand_computed_jaccard():
    # intersection {quadratic, equation} = 2, union = 4
    value = similarity("solve quadratic equation", "quadratic equation roots")
    assert value == 0.5


def test_similarity_with_embedder_maps_cosine_to_unit_interval():
    embedder = DeterministicEmbedder()
    same = similarity("quadratic equation", "quadratic equation", embedder)
    assert same == pytest.approx(1.0)
    related = similarity("quadratic equation", "quadratic equation roots", embedder)
    unrelated = similarity("quadratic equation", "ocean tides", embedder)
    assert 0.0 <= unrelated < related <= 1.0


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


def _add_statement(store, statement, confidence=0.5):
    return store.add_knowledge(
        KnowledgeItem(0, statement, KnowledgeKind.DISTILLED, (1,), confidence)
    )


def test_retrieve_empty_store_and_zero_k(store):
    assert store.retrieve("anything", 3) == []
    _add_statement(store, "solve sums")
    assert store.retrieve("anything", 0) == []
    with pytest.raises(ValueError):
        store.retrieve("anything", -1)


def test_retrieve_ranking_hand_computed(store):
    # fallback scores against the query: 0.5, 0.2, 0.0
    first = _add_statement(store, "quadratic equation roots")
    second = _add_statement(store, "solve integer sums")
    third = _add_statement(store, "ocean tides rise")
    top = store.retrieve("solve quadratic equation", 2)
    assert [item.id for item in top] == [first, second]
    assert third not in [item.id for item in top]


def test_retrieve_breaks_ties_by_recency(store):
    old = _add_statement(store, "alpha beta")
    new = _add_statement(store, "alpha beta")
    top = store.retrieve("alpha", 2)
    assert [item.id for item in top] == [new, old]


def test_retrieve_bumps_usage_counts(store):
    item_id = _add_statement(store, "quadratic equation roots")
    store.retrieve("quadratic equation", 1)
    store.retrieve("quadratic equation", 1)
    assert store.get_knowledge(item_id).usage_count == 2


def test_retrieve_matches_bruteforce_oracle(tmp_path):
    rng = random.Random(4242)
    words = ("solve", "sum", "fraction", "root", "prime", "area", "angle", "mod")
    for round_number in range(10):
        store = EpisodicStore.open(tmp_path / f"s{round_number}")
        statements = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 60))
        ]
        for s in statements:
            _add_statement(store, s)
        query = " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
        k = rng.randint(0, 10)
        expected = sorted(
            store.knowledge,
            key=lambda item: (-similarity(query, item.statement), -item.id),
        )[:k]
        got = store.retrieve(query, k)
        assert [i.id for i in got] == [i.id for i in expected]


def test_retrieve_with_embedder_uses_cached_embeddings(tmp_path):
    store = EpisodicStore.open(tmp_path / "s", embedder=DeterministicEmbedder())
    a = _add_statement(store, "quadratic equation roots")
    b = _add_statement(store, "ocean tides")
    assert store.get_knowledge(a).embedding is not None
    top = store.retrieve("quadratic equation", 1)
    assert top[0].id == a and top[0].id != b


def test_retrieve_embedder_path_matches_similarity_oracle(tmp_path):
    rng = random.Random(909)
    embedder = DeterministicEmbedder()
    words = ("solve", "sum", "fraction", "root", "prime", "area", "angle", "mod")
    store = EpisodicStore.open(tmp_path / "s", embedder=embedder)
    for _ in range(40):
        _add_statement(store, " ".join(rng.choice(words) for _ in range(rng.randint(1, 5))))
    for _ in range(10):
        query = " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
        expected = sorted(
            store.knowledge,
            key=lambda item: (-similarity(query, item.statement, embedder), -item.id),
        )[:5]
        got = store.retrieve(query, 5)
        assert [i.id for i in got] == [i.id for i in expected]


@pytest.mark.parametrize("scorer", ["jaccard", "embedder"])
def test_retrieval_index_matches_oracle_across_writes_and_reopens(tmp_path, scorer):
    embedder = DeterministicEmbedder() if scorer == "embedder" else None
    rng = random.Random(31337)
    words = ("solve", "sum", "fraction", "root", "prime", "area", "angle", "mod")
    store_dir = tmp_path / "s"
    # an older store: items written without an embedder carry "embedding": null
    older = EpisodicStore.open(store_dir)
    for statement in ("solve sum", "?!", "prime root area"):
        _add_statement(older, statement)
    assert '"embedding":null' in (store_dir / "knowledge.jsonl").read_text()

    def check(store, query, k):
        expected = sorted(
            store.knowledge,
            key=lambda item: (-similarity(query, item.statement, embedder), -item.id),
        )[:k]
        assert [item.id for item in store.retrieve(query, k)] == [i.id for i in expected]

    for _ in range(3):
        store = EpisodicStore.open(store_dir, embedder=embedder)
        size = len(store.knowledge)
        check(store, "", size + 2)  # empty query: most recent first
        check(store, "?!", 3)  # a query with no tokens
        check(store, "zebra", size + 5)  # matches nothing; k past the store
        check(store, "prime", size)  # k past the items that match
        for _ in range(40):
            roll = rng.random()
            if roll < 0.05:
                _add_statement(store, "?!")  # a statement with no tokens
            elif roll < 0.4:
                _add_statement(
                    store, " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
                )
            elif roll < 0.55:
                store.boost_confidence([rng.choice(store.knowledge).id])
            else:
                query = " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
                check(store, query, rng.randint(1, len(store.knowledge) + 3))


def test_concurrent_adds_and_retrieves_keep_the_index_exact(tmp_path):
    import sys
    import threading

    store = EpisodicStore.open(tmp_path / "s")
    _add_statement(store, "solve sum")
    store.retrieve("solve", 1)  # build the index before the threads start
    words = ("solve", "sum", "fraction", "root", "prime")
    errors = []

    def worker(seed):
        local = random.Random(seed)
        try:
            for _ in range(25):
                _add_statement(store, " ".join(local.sample(words, local.randint(1, 3))))
                store.retrieve(local.choice(words), 3)
        except Exception as exc:  # surface failures to the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert [item.id for item in store.knowledge] == list(range(1, 102))
    for query in words:
        expected = sorted(
            store.knowledge, key=lambda item: (-similarity(query, item.statement), -item.id)
        )[:10]
        assert [i.id for i in store.retrieve(query, 10)] == [i.id for i in expected]


def test_retrieve_with_embedder_rejects_an_embedding_of_another_dimension(tmp_path):
    store = EpisodicStore.open(tmp_path / "s", embedder=DeterministicEmbedder())
    _add_statement(store, "solve sums")
    store.add_knowledge(
        KnowledgeItem(
            0, "short vector", KnowledgeKind.DISTILLED, (1,), 0.5,
            embedding=DeterministicEmbedder(8).embed("short vector"),
        )
    )
    with pytest.raises(ValueError, match="dimensions"):
        store.retrieve("solve", 1)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def test_success_with_matching_forecast_yields_one_reinforcement():
    items = extract_knowledge(_sample_record(success=True, probability=0.9))
    assert len(items) == 1
    assert items[0].kind is KnowledgeKind.REINFORCEMENT
    assert items[0].provenance == (7,)
    assert items[0].confidence == REINFORCEMENT_CONFIDENCE
    assert "add unlike fractions" in items[0].statement


def test_failure_yields_one_corrective():
    items = extract_knowledge(_sample_record(success=False, probability=0.9))
    assert len(items) == 1
    assert items[0].kind is KnowledgeKind.CORRECTIVE
    assert items[0].confidence == CORRECTIVE_CONFIDENCE
    assert "expected" in items[0].statement.lower()


def test_success_with_mismatched_forecast_is_corrective():
    items = extract_knowledge(_sample_record(success=True, probability=0.2))
    assert items[0].kind is KnowledgeKind.CORRECTIVE


def test_rule_layer_is_pure():
    record = _sample_record()
    first = extract_knowledge(record)
    second = extract_knowledge(record)
    assert first == second


def _distill_request(record):
    body = render(
        DEFAULT_TEMPLATES["distill"],
        query=record.task.goal,
        plan=render_plan(record.plan),
        expected=record.forecast.expected_result,
        actual=record.outcome.actual_result,
    )
    return ProviderRequest(messages=(Message(Role.USER, body),))


def test_distilled_item_from_scripted_provider():
    record = _sample_record()
    lesson = "Lesson: check denominators before adding fractions"
    provider = ScriptedProvider({fingerprint(_distill_request(record)): lesson})
    items = extract_knowledge(record, provider=provider)
    assert len(items) == 2
    assert items[1].kind is KnowledgeKind.DISTILLED
    assert items[1].statement == lesson
    assert items[1].provenance == (7,)


def test_provider_failure_degrades_to_rule_layer():
    record = _sample_record()
    items = extract_knowledge(record, provider=ScriptedProvider({}))
    assert len(items) == 1
    assert items[0].kind is KnowledgeKind.REINFORCEMENT


# ---------------------------------------------------------------------------
# Consolidation
# ---------------------------------------------------------------------------


def test_consolidate_default_filter_counts_successes(store, tmp_path):
    for success in (True, True, False):
        record = _sample_record(success=success)
        record = replace(record, task=replace(record.task, cotasks=CoTasks(
            CoTaskState.DONE, CoTaskState.DONE,
            CoTaskState.DONE if success else CoTaskState.SKIPPED)))
        store.store_record(record)
    out = tmp_path / "data.jsonl"
    examples = store.consolidate(out_path=out)
    assert len(examples) == 2
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2


def test_consolidate_empty_store_writes_zero_lines(store, tmp_path):
    out = tmp_path / "empty.jsonl"
    assert store.consolidate(out_path=out) == []
    assert out.read_text() == ""


def test_consolidation_lines_round_trip(store, tmp_path):
    store.store_record(_sample_record(success=True))
    out = tmp_path / "data.jsonl"
    examples = store.consolidate(out_path=out)
    parsed = read_consolidation(out)
    assert parsed == examples
    example = parsed[0]
    assert example.source_record == 1
    assert example.prompt == "add unlike fractions\ncompute 1/3 + 1/6"
    assert "1/2" in example.completion
    line_obj = json.loads(out.read_text().splitlines()[0])
    assert consolidation_example_from_dict(line_obj) == example


def test_consolidate_custom_filter(store):
    for success in (True, False):
        record = _sample_record(success=success)
        record = replace(record, task=replace(record.task, cotasks=CoTasks(
            CoTaskState.DONE, CoTaskState.DONE,
            CoTaskState.DONE if success else CoTaskState.SKIPPED)))
        store.store_record(record)
    everything = store.consolidate(keep=lambda r: True)
    assert len(everything) == 2
