"""A seeded random walk over the store's record reads.

An open store keeps no record: each read is decoded again from the record's
place in the log. The walk mixes commits, reads, consolidation, reopens and a
second read-only handle, and after every step checks that each record read
equals the record its commit returned, and that ``next_record_id`` agrees.
It also cuts the final newline of either file, as a crash can leave it, and
reopens both handles: the next append must end that line first, which every
later reopen checks, of the records and of the items' ids.

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
    KNOWLEDGE_FILE_NAME, RECORD_LOG_NAME, EpisodicStore, KnowledgeItem, KnowledgeKind,
)

from conftest import make_record, make_words


def _commit(store, rng, held):
    """Commit a record whose delta names up to two held items, with 0-2 new ones."""
    delta = tuple(rng.sample(held, min(len(held), rng.randint(0, 2))))
    items = [KnowledgeItem(0, make_words(rng), rng.choice(list(KnowledgeKind)), (), 0.5)
             for _ in range(rng.randint(0, 2))]
    expected_id = store.next_record_id()
    record = store.store_record(replace(make_record(rng), knowledge_delta=delta), items)
    assert record.id == expected_id and record.knowledge_delta[:len(delta)] == delta
    held.extend(record.knowledge_delta[len(delta):])
    return record


def walk(directory, seed: int, steps: int) -> None:
    rng = random.Random(seed)
    store, second, seen = EpisodicStore.open(directory), None, 0
    committed, held = [], []  # the records the commits returned; the items they made
    for step in range(steps):
        kind = rng.choices(
            ("commit", "get", "miss", "records", "consolidate", "reopen", "second", "cut"),
            (8, 5, 2, 2, 1, 1, 1, 1))[0]
        if kind == "commit":
            committed.append(_commit(store, rng, held))
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
        assert store.next_record_id() == len(committed) + 1, (seed, step)
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
