"""Differential test of the knowledge-line decoder.

``memory._knowledge_line`` builds items through the slot setters of the
frozen ``KnowledgeItem``, not its constructor. ``oracle`` is the
constructor-based decoder it replaced, given the same checks of each
value's JSON type: an integer id, a string statement, an array provenance,
a number confidence, and an array of finite numbers or null as embedding.
On seeded knowledge lines (valid ones, ones with keys deleted or values
replaced by junk, bad kinds, odd confidences and embeddings, lines that are
not objects or not JSON) both must give the same item, field by field, or
raise the same exception type with the same text.

Tier-1 runs 2,000 cases. For a longer run, give the number of cases and,
optionally, the seeds:

    PYTHONPATH=src python -W error tests/test_knowledge_decoder.py 20000 1
"""

from __future__ import annotations

import json
import math
import random
import sys

from neolaf import memory
from neolaf.kstar import loads
from neolaf.memory import KnowledgeItem, _kind

NAN, INF = float("nan"), float("inf")
CONFIDENCES = (0, 1, True, False, -0.0, 0.0, 1.0, 1.5, -0.5, NAN, INF, -INF, "x", None,
               0.5, 0.8, 1e-300, 0.9999999999999999, 2)
JUNK = (None, True, False, 0, 1, -1, 7.5, -0.0, NAN, INF, "", "x", "corrective", [], [1, 2],
        ["a"], {}, {"a": 1}, 2 ** 70)
KINDS = ("corrective", "reinforcement", "distilled", "Corrective", "CORRECTIVE", "bogus", "")
EMBEDDINGS = (None, [], [0.5, -0.25], [1.0] * 8, [1, 2, 3], [NAN], [INF, 1.0], ["a"], [None],
              [[1.0]], [True], [2 ** 1100], [0.5, NAN, "a"], "ab", 5, 0.5, True, {"x": 1.0})
FIELDS = ("id", "statement", "kind", "provenance", "confidence", "embedding")
NOT_OBJECTS = ("[]", "[1, 2]", "5", "1.5", '"text"', "null", "true", "{", '{"id": 1', "")


def _checked(test, message):
    """``check(value)``: ``value`` if ``test`` holds for it, else ValueError."""
    def check(value):
        if not test(value):
            raise ValueError(f"{message}, not {value!r}")
        return value
    return check


_id = _checked(lambda value: type(value) is int, "id must be an integer")
_text = _checked(lambda value: type(value) is str, "statement must be a string")
_array = _checked(lambda value: type(value) is list, "provenance must be an array")
_number = _checked(lambda value: type(value) in (int, float), "confidence must be a number")
_vector = _checked(lambda value: value is None or type(value) is list,
                   "embedding must be an array of numbers")


def oracle(line: str) -> KnowledgeItem:
    """The decoder as it was: the frozen dataclass's own constructor, which checks
    that an embedding's values are finite numbers, given each value once it is
    checked to have its field's JSON type, in argument order."""
    obj = loads(line)
    embedding = obj.get("embedding")
    return KnowledgeItem(
        _id(obj["id"]), _text(obj["statement"]), _kind(obj["kind"]),
        tuple(_array(obj["provenance"])), _number(obj["confidence"]),
        None if _vector(embedding) is None else tuple(embedding),
    )


def knowledge_object(rng: random.Random) -> dict:
    obj = {
        "id": rng.randint(0, 10 ** 6),
        "statement": f"lesson {rng.randint(0, 99)}",
        "kind": rng.choice(KINDS[:3]),
        "provenance": [rng.randint(1, 99) for _ in range(rng.randint(0, 3))],
        "confidence": rng.choice(CONFIDENCES),
        "embedding": rng.choice(EMBEDDINGS[:4]),
    }
    if rng.random() < 0.3:
        del obj["embedding"]
    return obj


def mutate(obj: dict, rng: random.Random) -> dict:
    """``obj`` with one key deleted, or one value replaced by junk or by a
    bad kind, confidence or embedding."""
    key = rng.choice(FIELDS)
    how = rng.randrange(3)
    if how == 0:
        obj.pop(key, None)
    elif how == 1:
        obj[key] = rng.choice(JUNK)
    else:
        obj["kind"], obj["confidence"], obj["embedding"] = (
            rng.choice(KINDS), rng.choice(CONFIDENCES), rng.choice(EMBEDDINGS)
        )
    return obj


def knowledge_line(rng: random.Random) -> str:
    """A seeded line: a few are not objects, most objects are mutated."""
    if rng.random() < 0.05:
        return rng.choice(NOT_OBJECTS)
    obj = knowledge_object(rng)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        obj = mutate(obj, rng)
    keys = list(obj)
    if rng.random() < 0.2:  # key order does not matter to either decoder
        rng.shuffle(keys)
    return json.dumps({key: obj[key] for key in keys}, separators=(",", ":"))


def outcome(decode, line: str):
    """Each field as its type and repr, or the exception's type and text."""
    try:
        item = decode(line)
    except Exception as exc:  # noqa: BLE001 - any exception must match
        return "raised", type(exc), str(exc)
    fields = tuple((type(getattr(item, name)), repr(getattr(item, name))) for name in FIELDS)
    return "item", type(item), fields, math.copysign(1, item.confidence)


def differ(seed: int, cases: int) -> dict[str, int]:
    """Compare the two decoders on ``cases`` seeded lines; count the outcomes."""
    rng = random.Random(seed)
    counts = {"item": 0, "raised": 0}
    for n in range(cases):
        line = knowledge_line(rng)
        got, want = outcome(memory._knowledge_line, line), outcome(oracle, line)
        assert got == want, (seed, n, line, got, want)
        counts[got[0]] += 1
    return counts


def test_the_decoder_matches_the_constructor():
    counts = differ(0, 2000)
    # both sides are exercised: items built, and errors raised
    assert counts["item"] > 300 and counts["raised"] > 300, counts


if __name__ == "__main__":
    count, *seeds = map(int, sys.argv[1:])
    for seed in seeds or [0]:
        print(f"seed {seed}: {count} cases agree, {differ(seed, count)}")
