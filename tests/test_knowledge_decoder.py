"""Differential test of the knowledge-line decoder.

The open decodes a knowledge line with ``kstar.line_decoder``, which sets each
field of the frozen ``KnowledgeItem`` through its slot and then runs its
``__post_init__``, not through its constructor. ``oracle`` is a
constructor-based decoder, given the same checks of each value's JSON type:
an object line, an integer id, a string statement, a valid kind, an array
provenance of integers and a number confidence, each failing with
the decoder's text. On seeded knowledge lines (valid ones, ones with keys
deleted or values replaced by junk, bad kinds, provenance items, odd
confidences, an older store's ``embedding`` of any value, which both ignore,
lines that are not objects or not JSON) both must give the same item, field
by field, or raise the same exception type with the same text.

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
from neolaf.kstar import MalformedRecord, loads
from neolaf.memory import KnowledgeItem, KnowledgeKind

NAN, INF = float("nan"), float("inf")
CONFIDENCES = (0, 1, True, False, -0.0, 0.0, 1.0, 1.5, -0.5, NAN, INF, -INF, "x", None,
               0.5, 0.8, 1e-300, 0.9999999999999999, 2)
JUNK = (None, True, False, 0, 1, -1, 7.5, -0.0, NAN, INF, "", "x", "corrective", [], [1, 2],
        ["a"], {}, {"a": 1}, 2 ** 70)
KINDS = ("corrective", "reinforcement", "distilled", "Corrective", "CORRECTIVE", "bogus", "")
FIELDS = ("id", "statement", "kind", "provenance", "confidence")
NOT_OBJECTS = ("[]", "[1, 2]", "5", "1.5", '"text"', "null", "true", "{", '{"id": 1', "")


def _checked(test, expected):
    """``check(value)``: ``value`` if ``test`` holds for it, else TypeError."""
    def check(value):
        if not test(value):
            raise TypeError(f"expected {expected}, not {value!r}")
        return value
    return check


_integer = _checked(lambda value: type(value) is int, "int")
_array = _checked(lambda value: type(value) is list, "an array")
CHECKS = (
    _integer,
    _checked(lambda value: type(value) is str, "str"),
    KnowledgeKind,
    lambda value: tuple([_integer(item) for item in _array(value)]),
    _checked(lambda value: type(value) in (int, float), "float"),
)


def oracle(line: str) -> KnowledgeItem:
    """A decoder by the frozen dataclass's own constructor, given each value once
    it is checked to have its field's JSON type, in argument order."""
    if type(obj := loads(line)) is not dict:
        raise MalformedRecord("item must be a JSON object")
    values = []
    for name, check in zip(FIELDS, CHECKS):
        if name not in obj:
            raise MalformedRecord(f"missing field item.{name}")
        try:
            values.append(check(obj[name]))
        except (TypeError, ValueError) as exc:
            raise MalformedRecord(f"bad field value at {name}: {exc}") from exc
    return KnowledgeItem(*values)


def knowledge_object(rng: random.Random) -> dict:
    obj = {
        "id": rng.randint(0, 10 ** 6),
        "statement": f"lesson {rng.randint(0, 99)}",
        "kind": rng.choice(KINDS[:3]),
        "provenance": [rng.randint(1, 99) for _ in range(rng.randint(0, 3))],
        "confidence": rng.choice(CONFIDENCES),
    }
    if rng.random() < 0.3:  # an older store's key, ignored whatever it holds
        obj["embedding"] = rng.choice(JUNK)
    return obj


def mutate(obj: dict, rng: random.Random) -> dict:
    """``obj`` with one key deleted, or one value replaced by junk, by a bad kind or
    confidence, or by a provenance holding junk."""
    key = rng.choice(FIELDS)
    how = rng.randrange(4)
    if how == 0:
        obj.pop(key, None)
    elif how == 1:
        obj[key] = rng.choice(JUNK)
    elif how == 2:
        obj["kind"], obj["confidence"] = rng.choice(KINDS), rng.choice(CONFIDENCES)
    else:
        provenance = [rng.randint(1, 99) for _ in range(rng.randint(0, 2))]
        provenance.insert(rng.randint(0, len(provenance)), rng.choice(JUNK))
        obj["provenance"] = provenance
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
        got, want = outcome(memory._item_line, line), outcome(oracle, line)
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
