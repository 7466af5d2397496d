"""A seeded random walk over the store's record reads and retrievals.

An open store keeps no record: each read is decoded again from the record's
place in the log. The walk mixes commits, reads, consolidation, retrievals,
reopens and a second read-only handle, and after every step checks that each
record read equals the record its commit returned, that ``next_record_id``
agrees, and that each held item's confidence equals a naive replay of every
committed record from scratch (``_replay``), float for float.
It also cuts the final newline of either file, as a crash can leave it, and
reopens both handles: the next append must end that line first, which every
later reopen checks, of the records and of the items' ids.

Each retrieval, by either handle, must rank the items that handle holds as
brute-force ``similarity`` does, ties going to the higher id. Each item's
statement ends in a number that drifts up as items are made, as a topic
would: a number first held late is held by fewer items than one in
``memory._SLOT_BITS``, so the token index keeps its slots, until later
commits push it over that line into a mask.

Tier-1 walks 300 steps. For a longer walk, give the number of steps per seed
and the seeds:

    PYTHONPATH=src python -W error tests/test_store_walk.py 1500 1 2 3
"""

from __future__ import annotations

import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from neolaf.memory import (
    KNOWLEDGE_FILE_NAME, RECORD_LOG_NAME, REINFORCEMENT_BOOST, EpisodicStore, KnowledgeItem,
    KnowledgeKind, similarity,
)

from conftest import make_record, make_words


def _number(rng, held) -> str:
    return str(len(held) // 8 + rng.randrange(4))


def _commit(store, rng, held, made):
    """Commit a record whose delta names up to two held items, with 0-4 new ones, each
    of which ``made`` maps to the id of that record, its base confidence and statement."""
    delta = tuple(rng.sample(held, min(len(held), rng.randint(0, 2))))
    items = [KnowledgeItem(0, f"{make_words(rng)} {_number(rng, held)}",
                           rng.choice(list(KnowledgeKind)), (), 0.5)
             for _ in range(rng.randint(0, 4))]
    expected_id = store.next_record_id()
    record = store.store_record(replace(make_record(rng), knowledge_delta=delta), items)
    assert record.id == expected_id and record.knowledge_delta[:len(delta)] == delta
    new = record.knowledge_delta[len(delta):]
    made.update((item_id, (record.id, item.confidence, item.statement))
                for item_id, item in zip(new, items))
    held.extend(new)
    return record


def _replay(committed, made):
    """Each item's confidence after the committed records, replayed in order: a new item
    starts at its base confidence, and each later record whose delta names it raises it."""
    confidence = {}
    for record in committed:
        for item_id in record.knowledge_delta:
            maker, base, _ = made[item_id]
            if maker == record.id:
                confidence[item_id] = base
            elif item_id in confidence:
                confidence[item_id] = min(1.0, max(0.0, confidence[item_id] + REINFORCEMENT_BOOST))
    return confidence


def _check_retrieve(store, rng, held, made):
    """``store.retrieve`` of a random query ranks the ``held`` ids as ``similarity`` does."""
    number = _number(rng, held)
    query = rng.choice((make_words(rng, 1, 3), f"{make_words(rng, 1, 3)} {number}", number))
    k = rng.randint(0, len(held) + 2)
    want = sorted(held, key=lambda i: (-similarity(query, made[i][2]), -i))[:k]
    assert [item.id for item in store.retrieve(query, k)] == want, (query, k)


def walk(directory, seed: int, steps: int) -> None:
    rng = random.Random(seed)
    store, second, seen = EpisodicStore.open(directory), None, 0
    # the records the commits returned; the ids of the items they made, and each one's maker
    committed, held, made = [], [], {}
    for step in range(steps):
        kind = rng.choices(
            ("commit", "get", "miss", "records", "consolidate", "reopen", "second", "cut",
             "retrieve"),
            (8, 5, 2, 2, 1, 1, 1, 1, 3))[0]
        if kind == "commit":
            committed.append(_commit(store, rng, held, made))
        elif kind == "get" and committed:
            record = rng.choice(committed)
            assert store.get_record(record.id) == record, (seed, step)
        elif kind == "miss":
            missing = rng.choice((0, -1, len(committed) + 1, len(committed) + 7))
            assert store.get_record(missing) is None, (seed, step)
        elif kind == "records":
            assert store.records == tuple(committed), (seed, step)
        elif kind == "consolidate":
            examples = store.consolidate()
            wins = [record for record in committed if record.outcome.success]
            assert [(e.source_record, e.tags) for e in examples] == [
                (r.id, r.situation.context_tags) for r in wins], (seed, step)
        elif kind == "reopen":
            store = EpisodicStore.open(directory)
            assert store.records == tuple(committed), (seed, step)
            assert [item.id for item in store.knowledge] == held, (seed, step)
        elif kind == "cut":
            path = Path(directory) / rng.choice((RECORD_LOG_NAME, KNOWLEDGE_FILE_NAME))
            if path.exists() and (data := path.read_bytes()).endswith(b"\n"):
                path.write_bytes(data[:-1])
                # a handle's places hold the newline: reopen, as after the crash
                store = EpisodicStore.open(directory)
                if second is not None:
                    second, seen = EpisodicStore.open(directory), len(committed)
        elif kind == "second" and second is None:
            second, seen = EpisodicStore.open(directory), len(committed)
        elif kind == "retrieve":
            _check_retrieve(store, rng, held, made)
            if second is not None:  # it holds the items of the records it saw
                _check_retrieve(second, rng, [i for i in held if made[i][0] <= seen], made)
        assert store.next_record_id() == len(committed) + 1, (seed, step)
        confidence = {item.id: item.confidence for item in store.knowledge}
        assert confidence == _replay(committed, made), (seed, step)
        if second is not None:
            # it reads what was there when it opened, however many lines came after
            assert second.next_record_id() == seen + 1, (seed, step)
            if seen:
                record = rng.choice(committed[:seen])
                assert second.get_record(record.id) == record, (seed, step)
    assert second is not None and second.records == tuple(committed[:seen])
    assert EpisodicStore.open(directory).records == tuple(committed)


def test_every_read_back_equals_its_commit(tmp_path):
    walk(tmp_path / "store", seed=1, steps=300)


if __name__ == "__main__":
    steps, *seeds = map(int, sys.argv[1:])
    for seed in seeds:
        with tempfile.TemporaryDirectory() as scratch:
            walk(Path(scratch) / "store", seed, steps)
        print(f"seed {seed}: {steps} steps, every read back equal to its commit")
