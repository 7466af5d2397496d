"""Differential test of the embedder's derivation.

``DeterministicEmbedder.derive`` splits a text with ``provider.tokens``,
memoizes each token's bucket and sign, and gives only the nonzero buckets
and their values; ``embed`` goes through it, and an embedder store's index
scores its items from it. ``reference`` is ``embed`` as it was before: a
regular expression over ``text.lower()``, a dense vector, and its norm over
every bucket. On seeded texts (repeated tokens, non-ASCII letters, text
with no ``[a-z0-9]`` token, tokens whose signs cancel, whitespace-only
text) ``embed`` must equal the reference value for value, ``derive`` must
give the reference's nonzero buckets and values, and the index must rank
items as the reference vectors' ``(cosine + 1) / 2`` do, ties included.

Tier-1 runs 2,000 cases. For a longer run, give the number of cases and,
optionally, the seeds:

    PYTHONPATH=src python -W error tests/test_embedder.py 20000 1
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import sys

from neolaf import memory
from neolaf.memory import KnowledgeItem, KnowledgeKind
from neolaf.provider import DeterministicEmbedder

DIMENSIONS = (1, 2, 3, 8, 64, 64, 64)
_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def _bucket(token: str, dimension: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    return h % dimension, 1.0 if (h >> 63) & 1 == 0 else -1.0


def reference(text: str, dimension: int) -> tuple[float, ...]:
    """``DeterministicEmbedder(dimension).embed(text)`` as it was computed before."""
    if not text:
        raise ValueError("cannot embed empty text")
    tokens = _TOKEN_PATTERN.findall(text.lower()) or [text]
    values = [0.0] * dimension
    for token in tokens:
        index, sign = _bucket(token, dimension)
        values[index] += sign
    norm = math.sqrt(sum(v * v for v in values))
    if norm == 0.0:
        index, sign = _bucket(text, dimension)
        values[index] = sign
        norm = 1.0
    return tuple(v / norm for v in values)


def reference_score(query: str, statement: str, dimension: int) -> float:
    """``(cosine + 1) / 2`` of the reference vectors; 0 for an empty statement."""
    if not statement:
        return 0.0
    a, b = reference(query, dimension), reference(statement, dimension)
    dot = sum(x * y for x, y in zip(a, b))
    return (dot / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))
            + 1.0) / 2.0


def _cancelling_pair(dimension: int) -> str:
    """Two tokens in one bucket with opposite signs, so they sum to 0 there."""
    seen: dict[int, tuple[str, float]] = {}
    for n in range(10_000):
        token = f"w{n}"
        bucket, sign = _bucket(token, dimension)
        if bucket in seen and seen[bucket][1] != sign:
            return f"{seen[bucket][0]} {token}"
        seen.setdefault(bucket, (token, sign))
    raise AssertionError(f"no cancelling pair at dimension {dimension}")


PIECES = (
    "sum", "sum", "prime", "Root", "ROOT", "x1", "42", "a", "the answer",
    "é", "straße", "İ", "K", "ﬁ", "½", "分母", "Ǆ", "\ud800",
    "?!", "-", ".", " ", "  ", "\t", "\n",
)
CANCELLING = {dimension: _cancelling_pair(dimension) for dimension in set(DIMENSIONS)}


def seeded_text(rng: random.Random, dimension: int) -> str:
    pieces = [rng.choice(PIECES) for _ in range(rng.randint(0, 8))]
    if rng.random() < 0.2:  # a pair whose signs cancel, alone or among other tokens
        pieces.insert(rng.randint(0, len(pieces)), CANCELLING[dimension])
    return rng.choice(("", " ", "")).join(pieces)


def outcome(compute, *args):
    """The result's repr (so -0.0 is not 0.0), or the exception's type and text."""
    try:
        return "value", repr(compute(*args))
    except Exception as exc:  # noqa: BLE001 - any exception must match
        return "raised", type(exc), str(exc)


def check_text(embedder: DeterministicEmbedder, text: str) -> bool:
    """Whether ``text`` embeds; asserts that both ways agree."""
    want = outcome(reference, text, embedder.dimension)
    assert outcome(embedder.embed, text) == want, (embedder.dimension, text)
    if want[0] == "raised":
        assert outcome(embedder.derive, text) == want, (embedder.dimension, text)
        return False
    vector = reference(text, embedder.dimension)
    nonzero = [bucket for bucket, value in enumerate(vector) if value]
    assert embedder.derive(text) == (nonzero, [vector[bucket] for bucket in nonzero]), text
    return True


def check_ranking(embedder: DeterministicEmbedder, query: str, statements: list[str]) -> None:
    items = [KnowledgeItem(i, text, KnowledgeKind.DISTILLED, (1,), 0.5)
             for i, text in enumerate(statements, 1)]
    dimension = embedder.dimension
    expected = sorted(items, key=lambda it: (-reference_score(query, it.statement, dimension),
                                             -it.id))
    got = memory._VectorIndex(embedder, items).top(query, len(items))
    assert got == [item.id for item in expected], (dimension, query, statements)


def differ(seed: int, cases: int) -> dict[str, int]:
    """Check ``cases`` seeded texts; every tenth is also ranked against nine more."""
    rng = random.Random(seed)
    embedders = {dimension: DeterministicEmbedder(dimension) for dimension in DIMENSIONS}
    counts = {"embedded": 0, "raised": 0, "ranked": 0}
    for n in range(cases):
        embedder = embedders[rng.choice(DIMENSIONS)]
        text = seeded_text(rng, embedder.dimension)
        counts["embedded" if check_text(embedder, text) else "raised"] += 1
        if n % 10 == 0 and text and "\ud800" not in text:
            statements = [seeded_text(rng, embedder.dimension).replace("\ud800", "")
                          for _ in range(9)]
            check_ranking(embedder, text, statements)
            counts["ranked"] += 1
    return counts


def test_derived_vectors_match_the_reference_embedding():
    counts = differ(0, 2000)
    assert counts["embedded"] > 1000 and counts["raised"] > 100 and counts["ranked"] > 100, counts


def test_the_seeded_texts_hold_every_named_case():
    rng = random.Random(0)
    texts = [seeded_text(rng, 64) for _ in range(2000)]
    assert any(text.strip() == "" and text for text in texts)  # whitespace only
    assert any(text and not _TOKEN_PATTERN.search(text.lower()) for text in texts)
    assert any(CANCELLING[64] == text for text in texts)  # every sign cancels
    assert any(len(_TOKEN_PATTERN.findall(text.lower())) > len(set(
        _TOKEN_PATTERN.findall(text.lower()))) for text in texts)  # a repeated token
    assert any(any(ord(c) > 127 for c in text) for text in texts)


if __name__ == "__main__":
    count, *seeds = map(int, sys.argv[1:])
    for seed in seeds or [0]:
        print(f"seed {seed}: {count} cases agree, {differ(seed, count)}")
