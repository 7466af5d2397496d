"""Episodic store, retrieval ranking, extraction rules, consolidation."""

import errno
import gc
import json
import os
import random
import re
import shutil
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import pytest

from neolaf import memory
from neolaf.kstar import (
    DEFAULT_SUBTASK_DEPTH,
    ActionStep,
    CoTasks,
    CoTaskState,
    EncounterMetrics,
    Forecast,
    GroundingEvidence,
    KstarRecord,
    MalformedRecord,
    Outcome,
    Situation,
    SituationSource,
    StepStatus,
    TaskSpec,
    dumps,
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
    extract_knowledge,
    read_consolidation,
    render_plan,
    similarity,
)
from neolaf.cli import main
from neolaf.cognition import default_kit, request
from neolaf.provider import DeterministicEmbedder, ScriptedProvider, fingerprint

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
    assert store.store_record(make_record(rng)).id == 1


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
    store = EpisodicStore(tmp_path)
    store.log_path = log  # now appending hits a directory
    with pytest.raises(StorageError):
        store.store_record(make_record(rng))


def test_store_built_by_its_constructor_makes_its_directory(tmp_path, rng):
    directory = tmp_path / "new" / "store"
    store = EpisodicStore(directory)
    store.store_record(make_record(rng))
    _add_statement(store, "alpha")
    reloaded = EpisodicStore(directory)
    assert reloaded.records == store.records and reloaded.knowledge == store.knowledge


def test_append_after_the_directory_is_deleted_fails(tmp_path, rng):
    store = EpisodicStore.open(tmp_path / "s")
    shutil.rmtree(tmp_path / "s")
    with pytest.raises(StorageError, match="cannot append to"):
        store.store_record(make_record(rng))
    assert not (tmp_path / "s").exists()  # no new, partial store


def test_a_record_and_a_knowledge_add_are_one_write_each(store, rng, count_writes):
    writes = count_writes()
    record = store.store_record(make_record(rng))
    assert writes == [(serialize_record(record) + "\n").encode("utf-8")]
    item_id = _add_statement(store, "alpha ½")
    assert len(writes) == 2 and writes[1].count(b"\n") == 1
    assert writes[1] == (dumps(store.get_knowledge(item_id)) + "\n").encode("utf-8")


def test_an_empty_statement_scores_0_with_an_embedder(tmp_path):
    """A hand-written line whose statement is "" once made every embedder retrieve
    raise ``cannot embed empty text``; it scores 0, as ``similarity`` has it."""
    store_dir = tmp_path / "s"
    _write_knowledge_file(store_dir, [(1, "sum"), (2, ""), (3, "prime roots"), (4, "?!")])
    embedder = DeterministicEmbedder()
    store = EpisodicStore.open(store_dir, embedder)
    for query in ("sum", "prime", "?!", "sum prime roots"):
        expected = sorted(
            store.knowledge,
            key=lambda item: (-similarity(query, item.statement, embedder), -item.id),
        )
        assert [item.id for item in store.retrieve(query, 4)] == [item.id for item in expected]
    assert store.retrieve("sum", 1)[0].id == 1 and store.retrieve("sum", 4)[-1].id == 2


def test_golden_knowledge_lines():
    """The exact bytes of knowledge lines, each decoding back to its item."""
    signs = "check the sign of each root twice"
    items = [
        KnowledgeItem(1, "check the denominators", KnowledgeKind.CORRECTIVE, (1,), 0.5),
        KnowledgeItem(2, signs, KnowledgeKind.DISTILLED, (2,), 0.6),
        KnowledgeItem(3, "分母を確認 — ½", KnowledgeKind.REINFORCEMENT, (3,), 0.1 + 0.2),
        KnowledgeItem(4, "two sources", KnowledgeKind.DISTILLED, (4, 12), 1.0),
    ]
    data = memory._knowledge_bytes(items)
    assert data == (
        '{"id":1,"statement":"check the denominators","kind":"corrective",'
        '"provenance":[1],"confidence":0.5}\n'
        '{"id":2,"statement":"check the sign of each root twice","kind":"distilled",'
        '"provenance":[2],"confidence":0.6}\n'
        '{"id":3,"statement":"分母を確認 — ½","kind":"reinforcement",'
        '"provenance":[3],"confidence":0.30000000000000004}\n'
        '{"id":4,"statement":"two sources","kind":"distilled",'
        '"provenance":[4,12],"confidence":1.0}\n'
    ).encode("utf-8")
    lines = data.decode("utf-8").splitlines()
    assert [memory._knowledge_line(line) for line in lines] == items


def test_store_record_commits_the_record_then_its_knowledge(store, rng, count_writes):
    store.store_record(replace(make_record(rng), knowledge_delta=()))
    old = _add_statement(store, "alpha")  # its provenance names record 1
    writes = count_writes()
    items = [KnowledgeItem(0, "beta", KnowledgeKind.CORRECTIVE, (7,), 0.5),
             KnowledgeItem(0, "gamma", KnowledgeKind.DISTILLED, (), 0.6)]
    # the record reinforced ``old``, and names 99, which no item holds
    record = replace(make_record(rng), knowledge_delta=(old, 99))
    record = store.store_record(record, items)
    assert record.knowledge_delta == (old, 99, 100, 101)  # new ids start past every named id
    assert [store.get_knowledge(i).provenance for i in (100, 101)] == [(record.id,)] * 2
    assert store.get_knowledge(old).confidence == pytest.approx(0.6)
    # the record line is the commit point; then the new items in one write, and no version
    assert writes[0] == (serialize_record(record) + "\n").encode("utf-8")
    assert [json.loads(line)["id"] for line in writes[1].splitlines()] == [100, 101]
    assert len(writes) == 2
    store.store_record(replace(record, knowledge_delta=(old,)))  # a raise alone: one write
    assert len(writes) == 3 and store.get_knowledge(old).confidence == pytest.approx(0.7)
    reopened = EpisodicStore.open(store.log_path.parent)
    assert reopened.records == store.records and reopened.knowledge == store.knowledge


def test_a_commit_that_fails_a_check_writes_nothing(store, rng, count_writes, monkeypatch):
    old = _add_statement(store, "alpha")
    writes = count_writes()
    good = KnowledgeItem(0, "beta", KnowledgeKind.DISTILLED, (), 0.6)
    reinforcing = replace(make_record(rng), knowledge_delta=(old,))
    # a blank statement, and one that cannot be encoded (UnicodeEncodeError is a ValueError)
    for bad in (replace(good, statement="  "), replace(good, statement="beta \ud800")):
        with pytest.raises(ValueError):
            store.store_record(reinforcing, [good, bad])
    # an id that is not an int would make the log unloadable
    for delta in ((True,), ("x",), (2.0,), (old, None)):
        with pytest.raises(ValidationFailed, match="knowledge_delta must hold integer ids"):
            store.store_record(replace(reinforcing, knowledge_delta=delta), [good])
    monkeypatch.setattr(memory, "validate_record", lambda record: ["forced violation"])
    with pytest.raises(ValidationFailed):
        store.store_record(reinforcing, [good])
    assert writes == [] and store.records == ()
    assert [(item.id, item.confidence) for item in store.knowledge] == [(old, 0.5)]
    monkeypatch.undo()
    # nothing was used up: the next commit takes the ids the failed ones were given
    assert store.store_record(replace(reinforcing, knowledge_delta=()), [good]).id == 1
    assert store.get_knowledge(old + 1).provenance == (1,)


def test_short_writes_still_append_whole_lines(tmp_path, rng, monkeypatch):
    records = [make_record(rng) for _ in range(3)]

    def fill(directory):
        store = EpisodicStore.open(directory)
        for record in records:
            store.store_record(record)
        ids = [_add_statement(store, s) for s in ("fraction ½ of ünits", "alpha", "fraction")]
        store.store_record(replace(records[0], knowledge_delta=(ids[0], ids[2], ids[0])))
        store.retrieve("fraction", 2)
        return store

    expected = fill(tmp_path / "whole")
    write = os.write
    monkeypatch.setattr(memory.os, "write", lambda fd, data: write(fd, bytes(data[:7])))
    capped = fill(tmp_path / "capped")
    monkeypatch.undo()
    for name in (memory.RECORD_LOG_NAME, memory.KNOWLEDGE_FILE_NAME):
        assert (tmp_path / "capped" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
    reopened = EpisodicStore.open(tmp_path / "capped")
    assert reopened.records == capped.records == expected.records
    assert reopened.knowledge == capped.knowledge == expected.knowledge


def test_failed_write_names_the_file_and_closes_it(store, rng, monkeypatch):
    written, closed, close = [], [], os.close

    def fail(fd, data):
        written.append(fd)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(memory.os, "write", fail)
    monkeypatch.setattr(memory.os, "close", lambda fd: (closed.append(fd), close(fd))[1])
    with pytest.raises(StorageError, match=f"cannot append to {re.escape(str(store.log_path))}: "):
        store.store_record(make_record(rng))
    monkeypatch.undo()
    assert len(written) == 1 and closed == written
    assert store.records == ()


def test_knowledge_survives_reload_with_last_version(tmp_path, rng):
    """An older store wrote a version line per raise, and its record names only
    the item it created: the last version wins, and the fold adds nothing."""
    store_dir = tmp_path / "s"
    store_dir.mkdir()
    item = {"id": 1, "statement": "check denominators", "kind": "corrective",
            "provenance": [1], "confidence": 0.5, "embedding": None}
    versions = [item, {**item, "confidence": 0.8}, {**item, "confidence": 1.0}]
    (store_dir / "knowledge.jsonl").write_text(
        "".join(dumps(line) + "\n" for line in versions), encoding="utf-8"
    )
    record = replace(make_record(rng), id=1, knowledge_delta=(1,))
    (store_dir / "episodic.jsonl").write_text(serialize_record(record) + "\n", encoding="utf-8")
    reloaded = EpisodicStore.open(store_dir)
    assert [(item.id, item.confidence) for item in reloaded.knowledge] == [(1, 1.0)]
    assert _add_statement(reloaded, "reduce fractions") == 2


@pytest.mark.parametrize("embedder", [None, DeterministicEmbedder()], ids=["jaccard", "embedder"])
def test_reopened_items_behave_like_constructed_ones(tmp_path, embedder):
    """Items decoded at open skip the constructor, yet stay frozen, equal,
    hashable and replaceable as the items they were written as."""
    store = EpisodicStore.open(tmp_path / "s", embedder)
    for statement in ("check denominators", "reduce fractions"):
        store.add_knowledge(KnowledgeItem(0, statement, KnowledgeKind.DISTILLED, (1, 2), 0.6))
    reopened = EpisodicStore.open(tmp_path / "s", embedder).knowledge
    assert reopened == store.knowledge
    for item in reopened:
        built = KnowledgeItem(item.id, item.statement, item.kind, item.provenance,
                              item.confidence)
        assert item == built and hash(item) == hash(built)
        with pytest.raises(FrozenInstanceError):
            item.confidence = 0.9
        assert item.confidence == 0.6
        boosted = replace(item, confidence=1.5)
        assert boosted.confidence == 1.0 and boosted == replace(built, confidence=1.0)
    assert len(set(reopened) | set(store.knowledge)) == 2


@pytest.mark.parametrize("embedder", [None, DeterministicEmbedder()], ids=["jaccard", "embedder"])
def test_an_item_with_an_empty_embedding_reopens_equal(tmp_path, embedder):
    """An older store wrote an ``embedding`` on each line; the open ignores it."""
    store = EpisodicStore.open(tmp_path / "s", embedder)
    _add_statement(store, "check denominators")
    _add_statement(store, "reduce fractions")
    lines = store.knowledge_path.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0][:-1] + ',"embedding":[]}'
    store.knowledge_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    reopened = EpisodicStore.open(tmp_path / "s", embedder)
    assert reopened.knowledge == store.knowledge
    # ranked by its statement's own embedding
    assert [item.id for item in reopened.retrieve("check denominators", 2)] == [1, 2]


def _log_corrupt(store_dir, number):
    """The start of a corrupt-line error of the store's record log."""
    return f"record log {store_dir / 'episodic.jsonl'} corrupt at line {number}: "


def _knowledge_corrupt(store_dir, number):
    """The start of a corrupt-line error of the store's knowledge file."""
    return f"knowledge file {store_dir / 'knowledge.jsonl'} corrupt at line {number}: "


def test_corrupt_knowledge_file_reports_line(tmp_path):
    store_dir = tmp_path / "s"
    EpisodicStore.open(store_dir)
    (store_dir / "knowledge.jsonl").write_text('{"id": 1}\n', encoding="utf-8")
    with pytest.raises(StorageError, match="line 1"):
        EpisodicStore.open(store_dir)


@pytest.mark.parametrize("line", ["[1]", "5", "null", '"statement"'])
def test_knowledge_line_that_is_not_an_object_reports_line(tmp_path, line):
    store_dir = tmp_path / "s"
    EpisodicStore.open(store_dir).add_knowledge(
        KnowledgeItem(0, "check denominators", KnowledgeKind.CORRECTIVE, (1,), 0.5)
    )
    with open(store_dir / "knowledge.jsonl", "a", encoding="utf-8") as fh:
        fh.write("\n" + line + "\n")
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value).startswith(_knowledge_corrupt(store_dir, 3))


@pytest.mark.parametrize(
    "name, what", [("episodic.jsonl", "record log"), ("knowledge.jsonl", "knowledge file")]
)
def test_line_with_invalid_utf8_fails_the_open_naming_its_line(tmp_path, rng, name, what):
    store_dir = tmp_path / "s"
    store = EpisodicStore.open(store_dir)
    store.store_record(make_record(rng))
    store.add_knowledge(KnowledgeItem(0, "check", KnowledgeKind.CORRECTIVE, (1,), 0.5))
    with open(store_dir / name, "ab") as fh:
        fh.write(b'{"statement": "\xff"}\n')
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value).startswith(
        f"{what} {store_dir / name} corrupt at line 2: 'utf-8' codec can't"
    )


def _write_log(store_dir, lines):
    (store_dir / "episodic.jsonl").write_text("".join(line + "\n" for line in lines), "utf-8")


def _write_knowledge_file(store_dir, items):
    """A hand-written knowledge file: one distilled item per (id, statement)."""
    store_dir.mkdir(parents=True, exist_ok=True)
    (store_dir / "knowledge.jsonl").write_text("".join(
        json.dumps({"id": item_id, "statement": statement, "kind": "distilled",
                    "provenance": [1], "confidence": 0.5}) + "\n"
        for item_id, statement in items
    ), encoding="utf-8")


def _three_record_lines(store_dir, rng):
    store = EpisodicStore.open(store_dir)
    for _ in range(3):
        store.store_record(make_record(rng))
    return (store_dir / "episodic.jsonl").read_text(encoding="utf-8").splitlines()


def _without_status_of_first_step(line, encode=json.dumps):
    obj = json.loads(line)
    del obj["plan"][0]["status"]
    return encode(obj)


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (_without_status_of_first_step, "missing field plan[0].status"),
        (lambda line: line[:40], "invalid JSON: "),
        (lambda line: "[]", "record must be a JSON object"),
    ],
    ids=["missing-field", "truncated", "not-an-object"],
)
def test_corrupt_record_line_fails_the_open_naming_its_line(tmp_path, rng, corrupt, detail):
    """Or the first read of the records, when the line keeps its ``{"id":2,`` prefix."""
    store_dir = tmp_path / "s"
    lines = _three_record_lines(store_dir, rng)
    lines[1] = corrupt(lines[1])
    _write_log(store_dir, lines)
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir).records
    assert str(excinfo.value).startswith(_log_corrupt(store_dir, 2) + detail)
    assert isinstance(excinfo.value.__cause__, MalformedRecord)
    assert str(excinfo.value) == f"{_log_corrupt(store_dir, 2)}{excinfo.value.__cause__}"


def test_out_of_order_record_id_names_its_line_counting_blank_lines(tmp_path, rng):
    store_dir = tmp_path / "s"
    first, second, third = _three_record_lines(store_dir, rng)
    _write_log(store_dir, [first, "", third, second])
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value) == _log_corrupt(store_dir, 4) + "id 2 after 3"


@pytest.mark.parametrize("bad_id", ["2", 2.5, True], ids=["string", "float", "bool"])
def test_record_id_that_is_not_an_integer_names_its_line(tmp_path, rng, bad_id):
    store_dir = tmp_path / "s"
    lines = _three_record_lines(store_dir, rng)
    obj = json.loads(lines[1])
    obj["id"] = bad_id
    lines[1] = json.dumps(obj)
    _write_log(store_dir, lines)
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value) == (
        f"{_log_corrupt(store_dir, 2)}bad field value at id: expected int, not {bad_id!r}"
    )


@pytest.mark.parametrize("bad_id", ["2", 2.5, True], ids=["string", "float", "bool"])
def test_knowledge_id_that_is_not_an_integer_names_its_line(tmp_path, bad_id):
    store_dir = tmp_path / "s"
    _write_knowledge_file(store_dir, [(1, "a"), (bad_id, "b")])
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value) == (
        f"{_knowledge_corrupt(store_dir, 2)}id must be an integer, not {bad_id!r}"
    )


@pytest.mark.parametrize("statement", [5, None, True, ["a"], {"a": "b"}])
def test_knowledge_statement_that_is_not_text_fails_the_open(tmp_path, capsys, statement):
    """Retrieval tokenizes every statement, so such a line once broke every search."""
    store_dir = tmp_path / "s"
    _write_knowledge_file(store_dir, [(1, "a"), (2, statement)])
    message = f"{_knowledge_corrupt(store_dir, 2)}statement must be a string, not {statement!r}"
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value) == message
    assert main(["memory", "search", "a", "--store", str(store_dir)]) == 2
    out, err = capsys.readouterr()
    assert err == f"neolaf: error: {message}\n" and "Traceback" not in out


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("provenance", "ab", "provenance must be an array, not 'ab'"),
        ("provenance", 1, "provenance must be an array, not 1"),
        ("confidence", "x", "confidence must be a number, not 'x'"),
        ("confidence", None, "confidence must be a number, not None"),
        ("confidence", True, "confidence must be a number, not True"),
        ("confidence", [0.5], "confidence must be a number, not [0.5]"),
    ],
    ids=["text-provenance", "number-provenance", "text-confidence", "null-confidence",
         "bool-confidence", "array-confidence"],
)
def test_knowledge_value_of_the_wrong_type_fails_the_open(tmp_path, capsys, field, value, detail):
    """A provenance given as text once loaded as its characters."""
    store_dir = tmp_path / "s"
    _write_knowledge_file(store_dir, [(1, "a")])
    obj = {"id": 2, "statement": "b", "kind": "distilled", "provenance": [1],
           "confidence": 0.5, field: value}
    with open(store_dir / "knowledge.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
    message = _knowledge_corrupt(store_dir, 2) + detail
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value) == message
    assert main(["memory", "search", "a", "--store", str(store_dir)]) == 2
    out, err = capsys.readouterr()
    assert err == f"neolaf: error: {message}\n" and "Traceback" not in out


@pytest.mark.parametrize(
    "embedding",
    [[0.5, -0.25], [1.0] * 64, list(DeterministicEmbedder(8).embed("prime roots")),
     "ab", 0, {}, [0.5, "a"], [None], [10 ** 400], [float("inf")]],
    ids=["short-embedding", "array-embedding", "another-dimension-embedding", "text-embedding",
         "number-embedding", "object-embedding", "text-in-embedding", "null-in-embedding",
         "huge-int-in-embedding", "infinite-embedding"],
)
def test_a_stored_embedding_is_ignored_at_the_open(tmp_path, embedding):
    """An older store wrote an ``embedding`` on each knowledge line; an item's vector is
    derived from its statement, so the open ignores the key, whatever it holds. A vector
    of another embedder's dimension once made every retrieve raise."""
    store_dir = tmp_path / "s"
    _write_knowledge_file(store_dir, [(1, "solve sums")])
    obj = {"id": 2, "statement": "prime roots", "kind": "distilled", "provenance": [1],
           "confidence": 0.5, "embedding": embedding}
    with open(store_dir / "knowledge.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
    store = EpisodicStore.open(store_dir, DeterministicEmbedder())
    assert store.get_knowledge(2) == KnowledgeItem(
        2, "prime roots", KnowledgeKind.DISTILLED, (1,), 0.5
    )
    assert [item.id for item in store.retrieve("prime roots", 2)] == [2, 1]


_KNOWLEDGE_LINE = (
    '{"id":1,"statement":"check","kind":"corrective","provenance":[1],"confidence":0.5}'
)


@pytest.mark.parametrize(
    "line, detail",
    [
        (_KNOWLEDGE_LINE + " x", "Extra data: line 1 column 84 (char 83)"),
        (_KNOWLEDGE_LINE + "{}", "Extra data: line 1 column 83 (char 82)"),
        (_KNOWLEDGE_LINE[:-1], "Expecting ',' delimiter: line 1 column 82 (char 81)"),
        ("[1]", "knowledge line must be a JSON object"),
        ("NaN", "knowledge line must be a JSON object"),
    ],
    ids=["trailing-word", "trailing-object", "unterminated", "array", "nan"],
)
def test_knowledge_line_that_is_not_one_object_fails_as_json_loads_does(tmp_path, line, detail):
    store_dir = tmp_path / "s"
    store_dir.mkdir()
    (store_dir / "knowledge.jsonl").write_text(line + "\n", encoding="utf-8")
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value) == _knowledge_corrupt(store_dir, 1) + detail


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (lambda line: line + " x", lambda n: f"invalid JSON: Extra data (at position {n + 1})"),
        (lambda line: line + "{}", lambda n: f"invalid JSON: Extra data (at position {n})"),
        (lambda line: line[:-1],
         lambda n: f"invalid JSON: Expecting ',' delimiter (at position {n - 1})"),
        (lambda line: "[1]", lambda n: "record must be a JSON object"),
        (lambda line: "NaN", lambda n: "record must be a JSON object"),
    ],
    ids=["trailing-word", "trailing-object", "unterminated", "array", "nan"],
)
def test_record_line_that_is_not_one_object_fails_as_json_loads_does(
    tmp_path, rng, corrupt, detail
):
    """``detail(n)`` is the error for a record line of n characters, raised by
    the open or, when the line keeps its id prefix, by the first read."""
    store_dir = tmp_path / "s"
    lines = _three_record_lines(store_dir, rng)
    n = len(lines[1])
    lines[1] = corrupt(lines[1])
    _write_log(store_dir, lines)
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir).records
    assert str(excinfo.value) == _log_corrupt(store_dir, 2) + detail(n)


def _store_with_one_line_each(store_dir, rng):
    store = EpisodicStore.open(store_dir)
    store.store_record(make_record(rng))
    store.add_knowledge(KnowledgeItem(0, "check", KnowledgeKind.CORRECTIVE, (1,), 0.5))


@pytest.mark.parametrize("corrupt", [None, "episodic.jsonl", "knowledge.jsonl"])
def test_open_leaves_the_collector_on(tmp_path, rng, corrupt):
    store_dir = tmp_path / "s"
    _store_with_one_line_each(store_dir, rng)
    if corrupt:
        with open(store_dir / corrupt, "a", encoding="utf-8") as fh:
            fh.write("{\n")
    assert gc.isenabled()
    if corrupt:
        with pytest.raises(StorageError, match="corrupt at line 2"):
            EpisodicStore.open(store_dir)
    else:
        EpisodicStore.open(store_dir)
    assert gc.isenabled()


def test_a_store_whose_two_files_are_corrupt_names_the_knowledge_file(tmp_path, rng):
    """The open reads the knowledge file first, so that the log's deltas fold as it streams."""
    store_dir = tmp_path / "s"
    _store_with_one_line_each(store_dir, rng)
    for name in ("episodic.jsonl", "knowledge.jsonl"):
        with open(store_dir / name, "a", encoding="utf-8") as fh:
            fh.write("{\n")
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value).startswith(_knowledge_corrupt(store_dir, 2))


def test_open_leaves_a_paused_collector_paused(tmp_path, rng):
    store_dir = tmp_path / "s"
    _store_with_one_line_each(store_dir, rng)
    gc.disable()
    try:
        assert len(EpisodicStore.open(store_dir).records) == 1
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_corrupt_record_body_under_a_good_prefix_fails_each_access_that_decodes_it(
    tmp_path, rng, capsys
):
    store_dir = tmp_path / "s"
    lines = _three_record_lines(store_dir, rng)
    good = EpisodicStore.open(store_dir).records
    lines[1] = _without_status_of_first_step(lines[1], dumps)  # keeps the id prefix
    _write_log(store_dir, lines)
    message = _log_corrupt(store_dir, 2) + "missing field plan[0].status"
    store = EpisodicStore.open(store_dir)
    for access in (lambda: store.records, lambda: store.get_record(2), store.consolidate):
        with pytest.raises(StorageError) as excinfo:
            access()
        assert str(excinfo.value) == message
        assert isinstance(excinfo.value.__cause__, MalformedRecord)
    assert store.get_record(1) == good[0] and store.get_record(3) == good[2]
    assert main(["memory", "list", "--store", str(store_dir)]) == 2
    out, err = capsys.readouterr()
    assert err == f"neolaf: error: {message}\n" and "Traceback" not in out


def test_a_field_of_the_wrong_type_fails_each_command_that_reads_it(tmp_path, rng, capsys):
    store_dir = tmp_path / "s"
    lines = _three_record_lines(store_dir, rng)
    obj = json.loads(lines[1])
    obj["plan"][0]["skill"] = None
    lines[1] = dumps(obj)  # keeps the id prefix
    _write_log(store_dir, lines)
    message = _log_corrupt(store_dir, 2) + "bad field value at plan[0].skill: expected str, not None"
    for command in (["memory", "list"], ["memory", "show", "2"],
                    ["consolidate", "--out", str(tmp_path / "out.jsonl")]):
        assert main([*command, "--store", str(store_dir)]) == 2
        out, err = capsys.readouterr()
        assert err == f"neolaf: error: {message}\n" and "Traceback" not in out


def test_memory_list_prints_the_records_before_a_corrupt_line_then_fails(tmp_path, rng, capsys):
    """``memory list`` streams the log: the records that read back print before the error."""
    store_dir = tmp_path / "s"
    lines = _three_record_lines(store_dir, rng)
    lines[1] = _without_status_of_first_step(lines[1], dumps)  # keeps the id prefix
    _write_log(store_dir, lines)
    assert main(["memory", "list", "--store", str(store_dir)]) == 2
    out, err = capsys.readouterr()
    assert [line.split("\t")[0] for line in out.splitlines()] == ["1"]
    assert err == f"neolaf: error: {_log_corrupt(store_dir, 2)}missing field plan[0].status\n"


@pytest.mark.parametrize("change", ["emptied", "cut-in-line-2", "deleted"])
def test_a_log_cut_after_the_open_fails_each_read_back_naming_the_line(tmp_path, rng, change):
    """Every record, the last one too, is read back from the log at each use."""
    store_dir = tmp_path / "s"
    path = store_dir / "episodic.jsonl"
    lines = _three_record_lines(store_dir, rng)
    good = EpisodicStore.open(store_dir).records
    store = EpisodicStore.open(store_dir)
    if change == "deleted":
        path.unlink()
    else:
        with open(path, "r+b") as fh:
            fh.truncate(0 if change == "emptied" else len(lines[0].encode("utf-8")) + 10)
    first = 2 if change == "cut-in-line-2" else 1
    accesses = [(n, lambda n=n: store.get_record(n)) for n in range(first, 4)]
    for number, access in [*accesses, (first, lambda: store.records)]:
        with pytest.raises(StorageError) as excinfo:
            access()
        if change == "deleted":
            assert str(excinfo.value).startswith(_log_corrupt(store_dir, number))
            assert isinstance(excinfo.value.__cause__, FileNotFoundError)
        else:
            assert str(excinfo.value) == (
                _log_corrupt(store_dir, number) + "the log is shorter than when the store was opened"
            )
    if change == "cut-in-line-2":
        assert store.get_record(1) == good[0]


def test_a_log_replaced_after_the_open_fails_the_id_check(tmp_path, rng):
    store_dir = tmp_path / "s"
    lines = _three_record_lines(store_dir, rng)
    store = EpisodicStore.open(store_dir)
    # Another store's log, whose lines sit where these did: ids 7, 8 and 9
    _write_log(tmp_path, [line.replace(f'{{"id":{n},', f'{{"id":{n + 6},', 1)
                          for n, line in enumerate(lines, 1)])
    os.replace(tmp_path / "episodic.jsonl", store_dir / "episodic.jsonl")
    with pytest.raises(StorageError) as excinfo:
        store.get_record(2)
    assert str(excinfo.value) == _log_corrupt(store_dir, 2) + "id 8 where the line starts with id 2"
    with pytest.raises(StorageError) as excinfo:
        store.records
    assert str(excinfo.value) == _log_corrupt(store_dir, 1) + "id 7 where the line starts with id 1"


def test_lines_a_second_handle_appends_leave_every_old_record_readable(tmp_path, rng):
    store_dir = tmp_path / "s"
    _three_record_lines(store_dir, rng)
    store = EpisodicStore.open(store_dir)
    second = EpisodicStore.open(store_dir)
    for _ in range(2):
        second.store_record(make_record(rng))
    assert store.get_record(2) == second.get_record(2)
    assert store.records == EpisodicStore.open(store_dir).records[:3]


def _commit_long_records(store, rng):
    """``store`` after 200 commits of records of about 11 kB each."""
    for _ in range(200):
        record = make_record(rng)
        situation = replace(record.situation, description="a long situation " * 600)
        store.store_record(replace(record, situation=situation))
    return store


def _retained(call):
    """``call()``, and the bytes it left allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = call()
        gc.collect()  # so what is left is held, not garbage awaiting the collector
        return value, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_an_open_store_keeps_each_records_place_in_the_log_not_its_text(tmp_path, rng):
    store_dir = tmp_path / "s"
    _commit_long_records(EpisodicStore.open(store_dir), rng)
    log_bytes = (store_dir / "episodic.jsonl").stat().st_size
    store, retained = _retained(lambda: EpisodicStore.open(store_dir))
    assert log_bytes > 2_000_000 and retained < log_bytes / 20
    assert store.records[0].situation.description.startswith("a long situation")


def test_an_open_store_keeps_no_record_it_reads_back(tmp_path, rng):
    _commit_long_records(EpisodicStore.open(tmp_path / "s"), rng)
    store = EpisodicStore.open(tmp_path / "s")
    count, retained = _retained(lambda: len(store.records))
    assert count == 200 and retained < store.log_path.stat().st_size / 20


def test_a_handle_keeps_no_record_it_commits(tmp_path, rng):
    store, retained = _retained(
        lambda: _commit_long_records(EpisodicStore.open(tmp_path / "s"), rng))
    log_bytes = store.log_path.stat().st_size
    assert log_bytes > 2_000_000 and retained < log_bytes / 20


def _log_of_records_with_deltas(store_dir, rng, count):
    """A log of ``count`` records, each naming a dozen unheld item ids, written directly."""
    line = serialize_record(replace(make_record(rng), knowledge_delta=tuple(range(300, 312))))
    assert line.startswith('{"id":1,')
    store_dir.mkdir(parents=True, exist_ok=True)
    _write_log(store_dir, [f'{{"id":{n},' + line[len('{"id":1,'):] for n in range(1, count + 1)])


def _open_scratch(store_dir):
    """What an open of ``store_dir`` allocates at its peak beyond what it keeps (tracemalloc)."""
    EpisodicStore.open(store_dir)  # the first open's one-off costs, as regex compiles, are not scratch
    gc.collect()
    tracemalloc.start()
    try:
        store = EpisodicStore.open(store_dir)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        return store, peak - retained
    finally:
        tracemalloc.stop()


def test_the_scratch_memory_of_an_open_does_not_grow_with_the_log(tmp_path, rng):
    """The deltas are folded a chunk of lines at a time, never held for the whole log."""
    scratch = {}
    for count in (1_500, 6_000):
        _log_of_records_with_deltas(tmp_path / str(count), rng, count)
        store, scratch[count] = _open_scratch(tmp_path / str(count))
        assert store.next_record_id() == count + 1
    # about 0.7 MB at both sizes: one chunk's deltas; one ``loads`` of them all took 1.0 and 4.1
    assert scratch[6_000] < scratch[1_500] + 150_000, scratch


def test_torn_final_record_line_fails_the_open(tmp_path, rng):
    store_dir = tmp_path / "s"
    lines = _three_record_lines(store_dir, rng)
    lines[2] = lines[2][:40]
    _write_log(store_dir, lines)
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value).startswith(_log_corrupt(store_dir, 3) + "invalid JSON: ")


@pytest.mark.parametrize("name", [memory.RECORD_LOG_NAME, memory.KNOWLEDGE_FILE_NAME])
def test_a_commit_ends_a_last_line_that_lacks_its_newline(tmp_path, rng, name):
    """As a crash can leave it: the next append must not run on from that line."""
    store_dir = tmp_path / "s"
    store = EpisodicStore.open(store_dir)
    lesson = KnowledgeItem(0, "a lesson", KnowledgeKind.DISTILLED, (), 0.5)
    for _ in range(2):
        store.store_record(make_record(rng), [lesson])
    path = store_dir / name
    path.write_bytes(path.read_bytes()[:-1])
    reopened = EpisodicStore.open(store_dir)
    assert len(reopened.records) == 2 and len(reopened.knowledge) == 2
    record = reopened.store_record(make_record(rng), [lesson])
    assert reopened.get_record(record.id) == record and reopened.records[:2] == store.records
    again = EpisodicStore.open(store_dir)
    assert again.records == reopened.records and len(again.records) == 3
    assert again.knowledge == reopened.knowledge and len(again.knowledge) == 3
    assert path.read_bytes().count(b"\n") == 3 and path.read_bytes().endswith(b"\n")


@pytest.mark.parametrize(
    "change, number", [(lambda log: log + b"\n", 3), (lambda log: log[:-1], 2)],
    ids=["blank-line-2", "last-line-lacks-its-newline"],
)
def test_a_commit_numbers_its_line_by_the_lines_before_it(tmp_path, rng, change, number):
    """A blank line counts; the newline an append adds to end the last line does not."""
    store_dir = tmp_path / "s"
    EpisodicStore.open(store_dir).store_record(make_record(rng))
    path = store_dir / "episodic.jsonl"
    path.write_bytes(change(path.read_bytes()))
    store = EpisodicStore.open(store_dir)
    record = store.store_record(make_record(rng))
    assert path.read_bytes().count(b"\n") == number
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 40)
    with pytest.raises(StorageError) as excinfo:
        store.get_record(record.id)
    assert str(excinfo.value) == (
        _log_corrupt(store_dir, number) + "the log is shorter than when the store was opened"
    )


@pytest.mark.parametrize("blank_lines", [0, 2])
def test_a_first_commit_numbers_its_line_by_the_blank_lines_before_it(tmp_path, rng, blank_lines):
    """A store with no record counts its log's lines from line 1."""
    store_dir = tmp_path / "s"
    store_dir.mkdir()
    path = store_dir / "episodic.jsonl"
    path.write_bytes(b"\n" * blank_lines)
    store = EpisodicStore.open(store_dir)
    record = store.store_record(make_record(rng))
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 40)
    with pytest.raises(StorageError) as excinfo:
        store.get_record(record.id)
    assert str(excinfo.value) == (
        _log_corrupt(store_dir, blank_lines + 1)
        + "the log is shorter than when the store was opened"
    )


def test_a_commit_after_lines_it_did_not_write_counts_them_from_the_last_known_line(tmp_path, rng):
    """The last line the handle knows is not at offset 0: the count starts at its offset."""
    store_dir = tmp_path / "s"
    store = EpisodicStore.open(store_dir)
    for _ in range(2):
        store.store_record(make_record(rng))
    with open(store.log_path, "ab") as fh:
        fh.write(b"\n\n")  # lines 3 and 4
    record = store.store_record(make_record(rng))
    with open(store.log_path, "r+b") as fh:
        fh.truncate(store.log_path.stat().st_size - 40)
    with pytest.raises(StorageError) as excinfo:
        store.get_record(record.id)
    assert str(excinfo.value) == (
        _log_corrupt(store_dir, 5) + "the log is shorter than when the store was opened"
    )


@pytest.mark.parametrize(
    "edit, violation",
    [
        (lambda obj: obj.update(plan=[]), "plan empty: at least one action step is required"),
        (lambda obj: obj["situation"].update(description=""), "situation.description empty"),
        (lambda obj: obj["forecast"].update(success_probability=7.5),
         "forecast.success_probability 7.5 outside [0, 1]"),
    ],
    ids=["empty-plan", "empty-description", "probability-past-1"],
)
def test_a_record_line_that_no_commit_could_write_fails_its_read(
    tmp_path, rng, capsys, edit, violation
):
    """The read-back once checked only each value's type, so such a line opened,
    read back and listed; it fails as ``store_record`` would refuse it."""
    store_dir = tmp_path / "s"
    lines = _three_record_lines(store_dir, rng)
    for number in (2, 3):
        obj = json.loads(lines[number - 1])
        edit(obj)
        edited = [*lines]
        edited[number - 1] = json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
        _write_log(store_dir, edited)
        message = f"{_log_corrupt(store_dir, number)}record failed validation: {violation}"
        with pytest.raises(StorageError) as excinfo:
            EpisodicStore.open(store_dir).get_record(number)  # the open decodes line 3
        assert str(excinfo.value) == message
        assert main(["memory", "show", str(number), "--store", str(store_dir)]) == 2
        out, err = capsys.readouterr()
        assert err == f"neolaf: error: {message}\n" and out == ""


@pytest.mark.parametrize("line", [1, 2], ids=["middle", "last"])
def test_duplicate_id_key_is_caught_at_decode(tmp_path, rng, line):
    """The decoder keeps the last ``id`` key, the open reads the first."""
    store_dir = tmp_path / "s"
    lines = _three_record_lines(store_dir, rng)
    n = line + 1
    lines[line] = lines[line].replace(f'{{"id":{n},', f'{{"id":{n},"id":7,')
    _write_log(store_dir, lines)
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir).records
    assert str(excinfo.value) == (
        f"{_log_corrupt(store_dir, n)}id 7 where the line starts with id {n}"
    )


def test_open_decodes_the_last_record_line_and_a_get_decodes_one_more(tmp_path, rng, monkeypatch):
    store_dir = tmp_path / "s"
    store = EpisodicStore.open(store_dir)
    for _ in range(5):
        store.store_record(make_record(rng))
    decoded = []
    real = memory.deserialize_record
    monkeypatch.setattr(
        memory, "deserialize_record", lambda text: decoded.append(text) or real(text)
    )
    reopened = EpisodicStore.open(store_dir)
    assert len(decoded) == 1 and reopened.next_record_id() == 6
    assert reopened.get_record(2) == store.get_record(2) and len(decoded) == 3
    assert reopened.get_record(2) == reopened.get_record(2) and len(decoded) == 5
    assert reopened.records == store.records and len(decoded) == 15


def _nested_task(depth, cotasks):
    """A chain of subtasks ``depth`` levels below its root."""
    task = TaskSpec("leaf: réduire ½ → 0.5", cotasks=cotasks)
    for level in range(depth):
        task = TaskSpec(f"level {level}: 分解", subtasks=(task,), cotasks=cotasks)
    return task


def _edge_records():
    """Records that between them use every enum member, empty tuples,
    None for observed_output and feedback, the deepest allowed subtask
    tree and non-ASCII text."""
    from datetime import datetime, timedelta, timezone

    when = datetime(2024, 2, 29, 23, 59, 59, 999_999, tzinfo=timezone(timedelta(hours=-5)))
    states = list(CoTaskState)
    steps = (
        ActionStep("self", "plan only", (), StepStatus.PLANNED, None),
        ActionStep("calc", "TOOL calc(expr=\"√2\")", ("exact", "échec"), StepStatus.EXECUTED, "1.414…"),
        ActionStep("self", "retry", ("once",), StepStatus.FAILED, "DivisionByZero: ÷ 0"),
        ActionStep("self", "give up", (), StepStatus.SKIPPED, None),
    )
    records = []
    for i, source in enumerate(SituationSource):
        cotasks = CoTasks(states[i], states[(i + 1) % 3], states[(i + 2) % 3])
        grounded = cotasks.grounding is not CoTaskState.SKIPPED
        success = i != 0
        records.append(KstarRecord(
            id=0,
            timestamp=when + timedelta(days=i),
            knowledge_used=() if i == 0 else (1, i + 1),
            situation=Situation(f"situation {i}: ½ + ⅓ = ?", () if i == 0 else ("math", "ü"), source),
            task=_nested_task(DEFAULT_SUBTASK_DEPTH if i == 0 else i, cotasks),
            plan=steps[: i + 2],
            forecast=Forecast("5/6 — exact", [0.0, 0.5, 1.0][i]),
            outcome=Outcome(
                "5/6" if success else "step failed: ÷ 0",
                success,
                (GroundingEvidence("calc", '{"expr":"½"}', "1/2 ✓"),) if success and grounded else (),
                None if i != 1 else "könnte besser sein",
            ),
            knowledge_delta=() if i == 0 else (i,),
            metrics=EncounterMetrics(0, 0, 0, 0) if i == 0 else EncounterMetrics(i, 7, 1, 2),
        ))
    return records


def test_reopened_store_reproduces_every_line_and_item(tmp_path):
    store_dir = tmp_path / "s"
    store = EpisodicStore.open(store_dir)
    for record in _edge_records():
        store.store_record(record)
    plain = store.add_knowledge(
        KnowledgeItem(0, "vérifier les dénominateurs", KnowledgeKind.CORRECTIVE, (1,), 0.5)
    )
    store.add_knowledge(
        KnowledgeItem(0, "分母を確認", KnowledgeKind.DISTILLED, (2, 3), 0.6)
    )
    store.add_knowledge(
        KnowledgeItem(0, "lesson", KnowledgeKind.REINFORCEMENT, (3,), 0.8)
    )
    store.store_record(replace(_edge_records()[1], knowledge_delta=(plain,)))  # a raise
    assert store.get_knowledge(plain).confidence == pytest.approx(0.6)
    with_embedder = EpisodicStore.open(tmp_path / "e", DeterministicEmbedder(dimension=8))
    with_embedder.add_knowledge(
        KnowledgeItem(0, "embed me ü", KnowledgeKind.DISTILLED, (1,), 0.6)
    )

    log = (store_dir / "episodic.jsonl").read_text(encoding="utf-8").splitlines()
    reopened = EpisodicStore.open(store_dir)
    assert [serialize_record(r) for r in reopened.records] == log
    assert reopened.records == store.records
    assert reopened.knowledge == store.knowledge
    assert EpisodicStore.open(tmp_path / "e").knowledge == with_embedder.knowledge

    # an older store's line, with keys no item has, reopens as the item without them
    older_line = json.dumps({
        "id": 9, "statement": "x", "kind": "distilled", "provenance": [1],
        "confidence": 0.5, "usage_count": 0, "embedding": [float("nan"), 1.0],
    })
    with open(store_dir / "knowledge.jsonl", "a", encoding="utf-8") as fh:
        fh.write(older_line + "\n")
    assert EpisodicStore.open(store_dir).knowledge == (
        *store.knowledge, KnowledgeItem(9, "x", KnowledgeKind.DISTILLED, (1,), 0.5)
    )


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
    for _ in range(3):
        store.boost_confidence([item_id])
        assert 0.0 <= store.get_knowledge(item_id).confidence <= 1.0
    assert store.get_knowledge(item_id).confidence == 1.0
    for confidence in (-2.0, -0.2, 1.7):
        item = replace(store.get_knowledge(item_id), confidence=confidence)
        assert item.confidence == (0.0 if confidence < 0 else 1.0)


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
    store.boost_confidence([2])  # in memory only
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
    assert store.store_record(make_record(rng)).id == 10
    assert store.get_record(10).id == 10


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------


_UNICODE_CORPUS = [
    "\u212a is the Kelvin sign",  # lowers to an ASCII k
    "\u0130stanbul",  # dotted capital I lowers to i and a combining dot
    "cafe\u0301 na\u0308ive \u0345x",  # combining marks
    "\u0661\u0662 \u00b2 \u2468 \uff11\uff12 \u0967 7",  # non-ASCII digits
    "\u01c5ungla \u01c8ubljana",  # titlecase digraphs
    "\ufb01nal o\ufb03ce",  # ligatures
    "snake_case-and.dots,1/2 ALL CAPS",
    "\ud800 lone surrogate",
    "",
]


def test_tokens_match_the_regex_on_unicode_text():
    rng = random.Random(7)
    corpus = _UNICODE_CORPUS + [
        "".join(chr(rng.choice((rng.randrange(128), rng.randrange(0x110000)))) for _ in range(40))
        for _ in range(500)
    ]
    for text in corpus:
        assert memory._tokens(text) == set(re.findall(r"[a-z0-9]+", text.lower())), text
    assert memory._tokens(_UNICODE_CORPUS[0]) == {"k", "is", "the", "kelvin", "sign"}


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


def test_retrieve_and_memory_search_write_nothing(tmp_path, rng, capsys):
    store_dir = tmp_path / "s"
    store = EpisodicStore.open(store_dir)
    store.store_record(make_record(rng), [
        KnowledgeItem(0, statement, KnowledgeKind.DISTILLED, (), 0.6)
        for statement in ("quadratic equation roots", "quadratic sums", "area of a circle")
    ])
    files = (store.log_path, store.knowledge_path)
    before = [path.read_bytes() for path in files]
    assert _ids(store.retrieve("quadratic equation", 3)) == [1, 2, 3]
    assert [path.read_bytes() for path in files] == before
    assert main(["memory", "search", "quadratic", "--store", str(store_dir)]) == 0
    assert "quadratic sums" in capsys.readouterr().out
    assert [path.read_bytes() for path in files] == before


def test_knowledge_line_with_a_usage_count_still_loads(tmp_path):
    store_dir = tmp_path / "s"
    store_dir.mkdir()
    (store_dir / "knowledge.jsonl").write_text(json.dumps({
        "id": 1, "statement": "check denominators", "kind": "corrective",
        "provenance": [1], "confidence": 0.5, "usage_count": 7, "embedding": None,
    }) + "\n", encoding="utf-8")
    assert EpisodicStore.open(store_dir).knowledge == (
        KnowledgeItem(1, "check denominators", KnowledgeKind.CORRECTIVE, (1,), 0.5),
    )


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


def _ids(items):
    return [item.id for item in items]


def test_retrieve_ranks_by_id_when_the_file_is_not_in_id_order(tmp_path):
    store_dir = tmp_path / "s"
    _write_knowledge_file(store_dir, [(5, "alpha beta"), (2, "alpha beta"), (9, "alpha beta")])
    store = EpisodicStore.open(store_dir)
    assert _ids(store.retrieve("alpha", 3)) == [9, 5, 2]
    assert _add_statement(store, "alpha beta") == 10  # after the index is built
    assert _ids(store.retrieve("beta", 4)) == [10, 9, 5, 2]


def test_retrieve_breaks_equal_scores_of_different_overlaps_by_recency(store):
    # query of 4 tokens: c=1 of n=1 and c=2 of n=6 both score 1 / 4 = 2 / 8
    low = _add_statement(store, "a")
    mid = _add_statement(store, "b c u v w x")
    high = _add_statement(store, "d")
    _add_statement(store, "a b u v w x y")  # c=2 of n=7: 2 / 9
    assert similarity("a b c d", "a") == similarity("a b c d", "b c u v w x")
    assert _ids(store.retrieve("a b c d", 3)) == [high, mid, low]


def test_retrieve_counts_query_tokens_no_item_holds(store):
    blank = _add_statement(store, "?!")  # an item with no tokens at all
    assert _ids(store.retrieve("zebra", 2)) == [blank]
    # With "zebra" counted, 2 / (3 + 4 - 2) = 0.4 beats 1 / (3 + 1 - 1);
    # without it they would tie at 0.5 and the newer item would lead.
    wider = _add_statement(store, "p q r s")
    narrow = _add_statement(store, "p")
    assert _ids(store.retrieve("p q zebra", 3)) == [wider, narrow, blank]


def test_retrieve_past_the_matching_items_ranks_them_then_the_rest(store):
    three = _add_statement(store, "alpha beta gamma")
    two = _add_statement(store, "alpha beta")
    one = _add_statement(store, "alpha")
    older = _add_statement(store, "zeta")
    newer = _add_statement(store, "eta")
    assert _ids(store.retrieve("alpha", 10)) == [one, two, three, newer, older]


def test_a_query_with_no_token_builds_no_index(tmp_path):
    """No item can share a token with it, so the newest items are its answer."""
    store_dir = tmp_path / "s"
    _write_knowledge_file(store_dir, [(1, "alpha beta"), (2, "gamma"), (3, "alpha")])
    store = EpisodicStore.open(store_dir)
    assert _ids(store.retrieve("?!", 2)) == [3, 2]
    assert store._index is None
    assert _ids(store.retrieve("alpha", 1)) == [3]
    assert isinstance(store._index, memory._TokenIndex)


def test_retrieve_sees_adds_after_the_index_is_built_and_across_a_reopen(tmp_path):
    store_dir = tmp_path / "s"
    store = EpisodicStore.open(store_dir)
    first = _add_statement(store, "solve sum")
    assert _ids(store.retrieve("solve sum fraction", 1)) == [first]  # builds the index
    # a token count and tokens the index has not seen, then a tie with ``first``
    wide = _add_statement(store, "solve sum fraction root prime")
    tie = _add_statement(store, "sum solve")
    assert _ids(store.retrieve("solve sum fraction", 3)) == [tie, first, wide]
    assert _ids(store.retrieve("root prime", 1)) == [wide]
    reopened = EpisodicStore.open(store_dir)
    later = _add_statement(reopened, "fraction")
    assert _ids(reopened.retrieve("fraction", 2)) == [later, wide]
    assert _add_statement(reopened, "root prime") == later + 1
    assert _ids(reopened.retrieve("root prime", 4)) == [later + 1, wide, later, tie]


def test_boost_confidence_raises_in_memory_and_writes_nothing(store, count_writes):
    for statement in ("alpha", "beta", "gamma"):
        _add_statement(store, statement)
    writes = count_writes()
    store.boost_confidence([1, 3, 99])  # an unknown id is skipped
    assert [item.confidence for item in store.knowledge] == [0.5 + 0.1, 0.5, 0.5 + 0.1]
    assert writes == []
    # only a record makes a raise last
    reopened = EpisodicStore.open(store.log_path.parent)
    assert [item.confidence for item in reopened.knowledge] == [0.5, 0.5, 0.5]


def test_boost_confidence_raises_once_per_repeated_id(tmp_path, rng):
    store = EpisodicStore.open(tmp_path / "s")
    store.store_record(replace(make_record(rng), knowledge_delta=()))
    item_id = _add_statement(store, "alpha", confidence=0.5)  # its provenance names record 1
    store.store_record(replace(make_record(rng), knowledge_delta=(item_id, item_id)))
    assert store.get_knowledge(item_id).confidence == 0.5 + 0.1 + 0.1  # in this order
    assert len((tmp_path / "s" / "knowledge.jsonl").read_text().splitlines()) == 1
    assert EpisodicStore.open(tmp_path / "s").get_knowledge(item_id) == store.get_knowledge(item_id)


def test_item_ids_start_past_every_id_a_record_names(tmp_path, rng):
    """Else an item added after a record, with an id the record names, would be
    raised by it at the next open and not in the store that added it."""
    for reopen in (False, True):
        store_dir = tmp_path / f"s{reopen}"
        store = EpisodicStore.open(store_dir)
        store.store_record(replace(make_record(rng), knowledge_delta=(40,)))
        if reopen:
            store = EpisodicStore.open(store_dir)
        assert _add_statement(store, "alpha") == 41
        assert EpisodicStore.open(store_dir).knowledge == store.knowledge


@pytest.mark.parametrize("delta", ["[true]", '["x"]', "[1.0]"])
@pytest.mark.parametrize("number", [2, 3], ids=["kept", "last"])
def test_a_delta_id_that_is_not_an_int_fails_the_open(tmp_path, rng, delta, number):
    store_dir = tmp_path / "s"
    store = EpisodicStore.open(store_dir)
    for _ in range(3):
        store.store_record(replace(make_record(rng), knowledge_delta=(1,)))
    path = store_dir / "episodic.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[number - 1] = lines[number - 1].replace('"knowledge_delta":[1]',
                                                  f'"knowledge_delta":{delta}')
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(StorageError) as excinfo:
        EpisodicStore.open(store_dir)
    assert str(excinfo.value).startswith(
        _log_corrupt(store_dir, number) + "bad field value at knowledge_delta: expected int, not "
    )


def test_the_fold_reads_a_line_without_the_canonical_tail_by_decoding_it(tmp_path, rng):
    """A ``knowledge_delta`` key nested in ``metrics`` is not the record's delta."""
    store_dir = tmp_path / "s"
    store = EpisodicStore.open(store_dir)
    store.store_record(replace(make_record(rng), knowledge_delta=()))
    first, second = (_add_statement(store, s, confidence=0.5) for s in ("alpha", "beta"))
    record = serialize_record(replace(make_record(rng), id=2, knowledge_delta=(first,)))
    nested = record[:-2] + f',"extra":{{"knowledge_delta":[{second}]}}}}}}'
    last = serialize_record(replace(make_record(rng), id=3, knowledge_delta=()))
    with open(store_dir / "episodic.jsonl", "a", encoding="utf-8") as fh:
        fh.write(nested + "\n" + last + "\n")
    reopened = EpisodicStore.open(store_dir)
    assert [item.confidence for item in reopened.knowledge] == [0.5 + 0.1, 0.5]


def test_a_log_of_several_fold_chunks_reopens_as_a_naive_replay(tmp_path, rng):
    """Deltas that reinforce items made chunks earlier, and name unheld and future ids. The
    last id the second chunk names is the largest, and the last chunk only reinforces: the
    next item id is right only if the fold carries the ids named, held or not, across chunks."""
    store_dir, chunk = tmp_path / "s", memory._FOLD_CHUNK
    lines, items, next_id = [], [], 1
    for record_id in range(1, 2 * chunk + 301):
        delta = [item.id for item in rng.sample(items, min(len(items), rng.randint(0, 3)))]
        if record_id == 2 * chunk:
            delta.append(next_id + 3)
        elif record_id < 2 * chunk and rng.random() < 0.2:  # a held id, a gap or a future id
            delta.append(rng.randint(1, next_id) if rng.random() < 0.5 else next_id + 3)
        next_id = max([next_id - 1, *delta]) + 1
        if record_id < 2 * chunk and rng.random() < 0.5:
            items.append(KnowledgeItem(next_id, f"s{next_id}", KnowledgeKind.DISTILLED,
                                       (record_id,), rng.choice((0.2, 0.5))))
            delta.append(next_id)
            next_id += 1
        record = replace(make_record(rng), id=record_id, knowledge_delta=tuple(delta))
        lines.append((record_id, delta, serialize_record(record)))
    store_dir.mkdir()
    _write_log(store_dir, [line for _, _, line in lines])
    (store_dir / "knowledge.jsonl").write_text(
        "".join(dumps(item) + "\n" for item in items), encoding="utf-8")
    # the naive replay: each record naming a held item that another record made raises it
    confidence = {item.id: item.confidence for item in items}
    maker = {item.id: item.provenance[0] for item in items}
    for record_id, delta, _ in lines:
        for item_id in delta:
            if item_id in maker and maker[item_id] != record_id:
                confidence[item_id] = min(1.0, confidence[item_id] + memory.REINFORCEMENT_BOOST)
    reopened = EpisodicStore.open(store_dir)
    assert {item.id: item.confidence for item in reopened.knowledge} == confidence
    assert _add_statement(reopened, "next") == next_id


def test_retrieve_with_embedder_uses_cached_embeddings(tmp_path, monkeypatch):
    """Each statement's vector is derived once, by the open or the add that holds it."""
    embedder = DeterministicEmbedder()
    derived = []
    derive = embedder.derive
    monkeypatch.setattr(embedder, "derive", lambda text: derived.append(text) or derive(text))
    _add_statement(EpisodicStore.open(tmp_path / "s"), "quadratic equation roots")
    store = EpisodicStore.open(tmp_path / "s", embedder=embedder)
    b = _add_statement(store, "ocean tides")
    assert derived == ["quadratic equation roots", "ocean tides"]
    assert [item.id for item in store.retrieve("quadratic equation", 2)] == [1, b]
    assert [item.id for item in store.retrieve("ocean", 1)] == [b]
    assert derived[2:] == ["quadratic equation", "ocean"]


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
    # an older store's lines carry an "embedding", null or an array, which the open ignores
    store_dir.mkdir()
    (store_dir / "knowledge.jsonl").write_text("".join(
        dumps(KnowledgeItem(i, statement, KnowledgeKind.DISTILLED, (1,), 0.5))[:-1]
        + f',"embedding":{embedding}}}\n'
        for i, statement, embedding in ((1, "solve sum", "null"), (2, "?!", "[1.0]"),
                                        (3, "prime root area", "null"))
    ), encoding="utf-8")

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



def test_stores_sharing_one_embedder_across_threads_rank_exactly(tmp_path):
    """The embedder's memo of each token's bucket and sign is shared by every store
    and query that uses it; concurrent derivations must leave it exact."""
    import sys
    import threading

    embedder = DeterministicEmbedder()
    words = [f"w{n}" for n in range(60)]
    errors = []

    def worker(seed):
        local = random.Random(seed)
        try:
            store = EpisodicStore.open(tmp_path / f"s{seed}", embedder)
            for _ in range(30):
                _add_statement(store, " ".join(local.sample(words, local.randint(1, 6))))
                store.retrieve(" ".join(local.sample(words, 2)), 3)
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
    fresh = DeterministicEmbedder()
    for n in range(4):
        store = EpisodicStore.open(tmp_path / f"s{n}", embedder)
        for query in words[:10]:
            expected = sorted(store.knowledge, key=lambda item: (
                -similarity(query, item.statement, fresh), -item.id))[:5]
            assert [item.id for item in store.retrieve(query, 5)] == [i.id for i in expected]


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


def test_a_forecast_of_exactly_one_half_predicts_success():
    """The forecast predicts success at a probability of at least 0.5."""
    assert memory.forecast_matched(_sample_record(success=True, probability=0.5))
    assert not memory.forecast_matched(_sample_record(success=False, probability=0.5))
    items = extract_knowledge(_sample_record(success=True, probability=0.5))
    assert items[0].kind is KnowledgeKind.REINFORCEMENT


def test_rule_layer_is_pure():
    record = _sample_record()
    first = extract_knowledge(record)
    second = extract_knowledge(record)
    assert first == second


def _distill_request(record):
    return request(
        default_kit(), "distill", query=record.task.goal, plan=render_plan(record.plan),
        expected=record.forecast.expected_result, actual=record.outcome.actual_result,
    )


def test_distilled_item_from_scripted_provider():
    record = _sample_record()
    lesson = "Lesson: check denominators before adding fractions"
    provider = ScriptedProvider({fingerprint(_distill_request(record)): lesson})
    items = extract_knowledge(record, provider.complete(_distill_request(record)).text)
    assert len(items) == 2
    assert items[1].kind is KnowledgeKind.DISTILLED
    assert items[1].statement == lesson
    assert items[1].provenance == (7,)


def test_blank_lesson_adds_no_distilled_item():
    record = _sample_record()
    assert extract_knowledge(record, " \n") == extract_knowledge(record)
    assert [item.kind for item in extract_knowledge(record)] == [KnowledgeKind.REINFORCEMENT]


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


def test_consolidation_line_text(store, tmp_path):
    record = _sample_record(success=True)
    store.store_record(replace(record, situation=replace(
        record.situation, description="add \u00bd and \u2153", context_tags=("fractions", "arith"))))
    out = tmp_path / "data.jsonl"
    store.consolidate(out_path=out)
    assert out.read_text(encoding="utf-8") == (
        '{"prompt":"add \u00bd and \u2153\\ncompute 1/3 + 1/6",'
        '"completion":"1. self | TOOL calc(expr=\\"1/3+1/6\\")\\n1/2",'
        '"source_record":1,"tags":["fractions","arith"]}\n'
    )


def test_corrupt_consolidation_line_names_the_file_and_the_line(store, tmp_path):
    store.store_record(_sample_record(success=True))
    out = tmp_path / "data.jsonl"
    store.consolidate(out_path=out)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write('\n{"prompt": "p", "completion": "c"}\n')
    with pytest.raises(StorageError) as excinfo:
        read_consolidation(out)
    assert str(excinfo.value) == (
        f"consolidation file {out} corrupt at line 3: missing field example.source_record"
    )
    out.write_text(out.read_text(encoding="utf-8").replace('{"prompt": "p"', "{"), "utf-8")
    with pytest.raises(StorageError, match=r"consolidation file .* corrupt at line 3: Expecting"):
        read_consolidation(out)


@pytest.mark.parametrize(
    "line, detail",
    [
        ('{"prompt":"p","completion":"c","source_record":1,"tags":"ab"}',
         "bad field value at tags: expected an array, not 'ab'"),
        ('{"prompt":"p","completion":"c","source_record":1,"tags":[5]}',
         "bad field value at tags: expected str, not 5"),
        ('{"prompt":"p","completion":"c","source_record":"x","tags":[]}',
         "bad field value at source_record: expected int, not 'x'"),
        ('{"prompt":"p","completion":"c","source_record":true,"tags":[]}',
         "bad field value at source_record: expected int, not True"),
        ('{"prompt":null,"completion":"c","source_record":1,"tags":[]}',
         "bad field value at prompt: expected str, not None"),
        ('{"prompt":"p","completion":"c","source_record":1}', "missing field example.tags"),
        ("[1]", "example must be a JSON object"),
    ],
    ids=["string-tags", "number-tag", "string-source", "bool-source", "null-prompt",
         "no-tags", "array"],
)
def test_consolidation_line_of_the_wrong_shape_names_the_file_and_the_line(
    tmp_path, line, detail
):
    """A consolidation line decodes through the record codec, with its type checks."""
    out = tmp_path / "data.jsonl"
    good = '{"prompt":"p","completion":"c","source_record":1,"tags":["a"]}'
    out.write_text(f"{good}\n{line}\n", encoding="utf-8")
    with pytest.raises(StorageError) as excinfo:
        read_consolidation(out)
    assert str(excinfo.value) == f"consolidation file {out} corrupt at line 2: {detail}"


def test_missing_consolidation_file_is_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_consolidation(tmp_path / "absent.jsonl")
