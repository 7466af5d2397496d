"""Differential test of the Jaccard index across the line between its two forms.

``memory._TokenIndex`` keeps a token's slots in an ``array("i")`` until they
reach one in ``memory._SLOT_BITS`` of the slots held, and a bit row after.
The walk builds seeded stores of 33 to 3,000 items whose statements draw
from a Zipf-like vocabulary, plus tokens of one item only, so that tokens
fall on both sides of the line. It queries with rare tokens only, common ones
only, a mix and unknown ones, with k from 0 to past the store. After the
first retrieve it adds items, some of which push a rare token over the line,
and it reopens the store. Every ranking must equal the brute-force
``similarity`` order, ties going to the higher id, and an index built from a
store's items must hold the slots of one grown by adding them one at a time.

Tier-1 walks 60 steps. For a longer walk, give the number of steps per seed
and the seeds:

    PYTHONPATH=src python -W error tests/test_token_index.py 20000 1 2 3
"""

from __future__ import annotations

import random
import sys
import tempfile
import tracemalloc
from array import array
from collections import Counter
from itertools import accumulate
from pathlib import Path

from neolaf import memory
from neolaf.kstar import dumps
from neolaf.memory import EpisodicStore, KnowledgeItem, KnowledgeKind, similarity

VOCABULARY = [f"w{rank}" for rank in range(400)]
ZIPF = list(accumulate(1 / (rank + 1) for rank in range(len(VOCABULARY))))


class Model:
    """One seeded store and its model: each item's statement, by id."""

    def __init__(self, rng: random.Random, directory: Path, size: int):
        self.rng, self.directory, self.singles = rng, directory, 0
        self.statements = {i: self.statement() for i in range(1, size + 1)}
        directory.mkdir(parents=True)
        (directory / memory.KNOWLEDGE_FILE_NAME).write_text("".join(
            dumps(KnowledgeItem(i, s, KnowledgeKind.DISTILLED, (1,), 0.5)) + "\n"
            for i, s in self.statements.items()), encoding="utf-8")
        self.store = EpisodicStore.open(directory)
        self.counts = Counter(t for s in self.statements.values() for t in memory._tokens(s))

    def statement(self, *held: str) -> str:
        words = self.rng.choices(VOCABULARY, cum_weights=ZIPF, k=self.rng.randint(1, 12))
        if self.rng.random() < 0.5:  # a token no other item holds
            self.singles += 1
            words.append(f"u{self.singles}")
        words += held
        self.rng.shuffle(words)
        return " ".join(words)

    def line(self) -> int:
        return len(self.statements) // memory._SLOT_BITS

    def rare(self) -> list[str]:
        return [t for t, c in self.counts.items() if c < self.line()]

    def add(self, *held: str) -> None:
        statement = self.statement(*held)
        item_id = self.store.add_knowledge(
            KnowledgeItem(0, statement, KnowledgeKind.DISTILLED, (1,), 0.5))
        assert item_id == max(self.statements) + 1
        self.statements[item_id] = statement
        self.counts.update(memory._tokens(statement))

    def query(self) -> tuple[str, str]:
        rng, rare = self.rng, self.rare()
        common = [t for t, c in self.counts.items() if c >= self.line()]
        unknown = [f"z{rng.randrange(10**6)}" for _ in range(4)]
        kind = rng.choice(("rare", "common", "mix", "unknown"))
        pools = {"rare": rare, "common": common, "mix": rare + common, "unknown": unknown}
        pool = pools[kind] or common
        words = rng.choices(pool, k=rng.randint(1, 6))
        if kind == "mix":
            words += rng.sample(rare, min(len(rare), 2)) + rng.sample(common, 1)
        return kind, " ".join(words)

    def check(self, query: str) -> None:
        size = len(self.statements)
        k = self.rng.choice((0, self.rng.randint(1, 10), self.rng.randint(1, size), size,
                             size + self.rng.randint(1, 5)))
        want = sorted(self.statements,
                      key=lambda i: (-similarity(query, self.statements[i]), -i))[:k]
        got = [item.id for item in self.store.retrieve(query, k)]
        assert got == want, (query, k, size)


def slots(posting) -> tuple[type, bytes]:
    """A posting's form and the slots it holds: its array's entries, or its row's bytes up to
    the last set bit, so that rows holding the same slots compare equal whatever their width."""
    return type(posting), posting.tobytes() if type(posting) is array else posting.rstrip(b"\0")


def assert_built_as_grown(items: list[KnowledgeItem]) -> None:
    """The index built from ``items`` holds what one grown from none by adding them in id order
    holds: the same ids, sizes, and form and slots of each token (a row's width aside)."""
    built, grown = memory._TokenIndex(items), memory._TokenIndex([])
    for item in sorted(items, key=lambda item: item.id):
        grown.add(item)
    assert built.ids == grown.ids and built.sizes == grown.sizes
    assert built.postings.keys() == grown.postings.keys()
    for token, posting in built.postings.items():
        assert slots(posting) == slots(grown.postings[token]), token


def walk(directory: Path, seed: int, steps: int) -> Counter:
    """``steps`` checked steps over stores of 33-3,000 items; counts of what they reached."""
    rng, reached, step = random.Random(seed), Counter(), 0
    while step < steps:
        size = int(33 * (3000 / 33) ** rng.random())
        model = Model(rng, directory / f"s{step}", size)
        assert_built_as_grown(list(model.store.knowledge))
        for _ in range(rng.randint(5, 30)):
            step += 1
            roll = rng.random()
            if roll < 0.15 and model.store._index is not None and model.rare():
                # push a rare token over the line: it turns from slots into a row
                token = rng.choice(model.rare())
                was_slots = type(model.store._index.postings.get(token)) is array
                while model.counts[token] < model.line():
                    model.add(token)
                if was_slots and type(model.store._index.postings.get(token)) is bytearray:
                    reached["promoted"] += 1
                model.check(f"{token} {rng.choice(VOCABULARY[:5])}")
            elif roll < 0.25:
                model.add()
            elif roll < 0.3:
                model.store = EpisodicStore.open(model.directory)
                reached["reopened"] += 1
            else:
                kind, query = model.query()
                model.check(query)
                forms = model.store._index.postings if model.store._index else {}
                if any(type(forms.get(t)) is array for t in memory._tokens(query)):
                    reached["slots queried"] += 1
                reached[kind] += 1
        assert_built_as_grown(list(model.store.knowledge))
    return reached


def test_rankings_across_the_line_match_similarity(tmp_path):
    reached = walk(tmp_path, seed=0, steps=60)
    assert all(reached[name] > 0 for name in (
        "promoted", "reopened", "slots queried", "rare", "common", "mix", "unknown")), reached


def test_a_token_of_one_item_holds_no_store_wide_mask():
    items = [KnowledgeItem(i, f"own{i} shared common", KnowledgeKind.DISTILLED, (1,), 0.5)
             for i in range(1, 8193)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = memory._TokenIndex(items)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index.ids) == len(items)
    # A mask per token, as wide as its highest slot, made this 5.4 MB; with each
    # token of one item keeping its slot it is 1.6 MB (CPython 3.11), token strings
    # and the dict included.
    assert retained < 3_000_000


if __name__ == "__main__":
    steps, *seeds = map(int, sys.argv[1:])
    for seed in seeds or [0]:
        with tempfile.TemporaryDirectory() as scratch:
            print(f"seed {seed}: {steps} steps agree, {dict(walk(Path(scratch), seed, steps))}")
