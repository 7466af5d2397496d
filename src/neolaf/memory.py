"""Episodic memory: append-only record log, knowledge retrieval,
knowledge extraction, and consolidation export. Nothing here talks to a
model: extraction turns a record, and the lesson the agent distilled
from it, into knowledge items.

The two JSON Lines files under a store directory are the single source
of truth; the in-memory indexes are rebuildable caches. Both files are
append-only, and a knowledge line is written once: the open raises the items each
record's ``knowledge_delta`` reinforced (an older store's version lines load, the last wins).
``kstar.dumps`` writes every line. ``kstar._build`` reads record and consolidation lines,
checking each value against its field's type hint; a record must meet ``validate_record``
too. A knowledge line has a decoder of its own, with like checks, that sets each field by
slot, as an open builds every item: a generic slot-setting ``_build`` took 2.3-2.8 times as
long on the 10k items below. It holds no vector (an older store's ``embedding`` is ignored).

Opening a store scans every line of both files, the knowledge file first. It decodes every
knowledge line, but a record line only when it lacks the canonical ``{"id":N,`` prefix or
``knowledge_delta`` tail, or is the last; it checks that ids increase, and folds in the
other lines' deltas from their tails, ``_FOLD_CHUNK`` lines to a ``loads``, as it streams
the log. Of each record, the ones it commits too, it keeps only its line's place in the log
(line number, byte offset, length), as Bitcask's keydir does: an open store's memory grows
with the number of records, not their bytes, and the open's scratch is one chunk's. Each
``iter_records``, ``records``, ``get_record`` or ``consolidate`` call reads the records
back from the log (opened once per call), decodes them, checks each id against the
prefix's, and keeps none. Read by ``errors.read_lines``, a corrupt line (one nested too
deeply to decode too), or one cut or replaced since the open, fails the open, or that call,
with a StorageError naming its file and line. The benchmark's seed-0 store (10k items, 5k
records, 9.0 MB) opens in a median 48 ms (8 runs of 15 in-process opens on one pinned core
of a shared 2-vCPU VM, Python 3.11) and then holds 4.14 MiB (tracemalloc), as much after a
``consolidate``; it peaks at 4.35 MiB, where one ``loads`` of every delta peaked at 5.25.

Retrieval keeps one more rebuildable cache. For embedder scoring the open builds it: it
derives each item's vector from its statement, and keeps in flat arrays the values of its
nonzero buckets, their places by bucket, and the item's norm. For Jaccard scoring, built by
the first ``retrieve`` whose query has a token, it gives each item a slot, in id order, and
keeps an int bitmask per token-set size and per token, but a token's slots stay in an
``array("i")`` until they reach one in 32 of the slots held: on the seed-0 store 1,694 of
1,807 tokens are in fewer than 32 items, and the index retains 0.67 MiB (tracemalloc), not
2.19. A query adds its tokens' masks into bit-sliced overlap counts, and as a Jaccard score
depends only on the overlap and the item's size, it ranks whole masks of equal score at a
time, taking the highest slots (the newest ids) first. Updates never change an item's
statement, and new items take the next id, so an add only sets, or appends, the top slot.

An encounter is one commit, ``store_record(record, items)``: the record and its
new items are numbered, checked and encoded; then the record line is appended,
and then the new items in one more append. The record is the commit point: a
crash between the two appends leaves a record whose ``knowledge_delta`` names
unwritten items, never an item whose provenance names a missing record. New
item ids start past every id a record names.

The store makes its directory when opened. Each append is one ``os.write`` of
whole UTF-8 lines to a descriptor opened ``O_APPEND`` for that append alone (a
short write is finished by another), led by a newline when the file's last line
lacks one, as a crash can leave it; nothing is fsynced. Writes, and reads of the log,
serialize on the store lock.
"""

from __future__ import annotations

import heapq
import math
import os
import re
import threading
from array import array
from bisect import bisect_left, insort
from collections import defaultdict
from contextlib import ExitStack
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial, reduce
from itertools import chain
from operator import attrgetter, or_
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from .errors import BAD_INPUT, NeolafError, read_lines
from .kstar import (
    KstarRecord, _build, deserialize_record, dumps, enum_decoder, loads, serialize_record,
    validate_record,
)
from .provider import DeterministicEmbedder, cosine, tokens

# Fixed starter-kit constants for the knowledge update rules.
CORRECTIVE_CONFIDENCE = 0.5
REINFORCEMENT_CONFIDENCE = 0.8
DISTILLED_CONFIDENCE = 0.6
REINFORCEMENT_BOOST = 0.1

RECORD_LOG_NAME = "episodic.jsonl"
KNOWLEDGE_FILE_NAME = "knowledge.jsonl"


class ValidationFailed(NeolafError):
    def __init__(self, violations: list[str]):
        super().__init__("record failed validation: " + "; ".join(violations))
        self.violations = violations


class StorageError(NeolafError):
    pass


class KnowledgeKind(str, Enum):
    CORRECTIVE = "corrective"
    REINFORCEMENT = "reinforcement"
    DISTILLED = "distilled"


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


@dataclass(frozen=True, slots=True)
class KnowledgeItem:
    """An encoded lesson with provenance back to the records it came from."""

    id: int
    statement: str
    kind: KnowledgeKind
    provenance: tuple[int, ...]
    confidence: float

    def __post_init__(self):
        object.__setattr__(self, "confidence", _clamp(self.confidence))


_kind = enum_decoder(KnowledgeKind)
# Each field's slot setter: a frozen instance's ``__setattr__`` does not guard it
_set_id, _set_statement, _set_kind, _set_provenance, _set_confidence = (
    KnowledgeItem.__dict__[name].__set__ for name in KnowledgeItem.__slots__
)


def _knowledge_line(line: str) -> KnowledgeItem:
    """``KnowledgeItem(...)`` of the line's fields, each checked and set by slot in its
    argument order: the open's hot path, written out as ``kstar._build`` is over twice as slow.
    Any other key, as the ``embedding`` an older store wrote, is ignored."""
    if type(obj := loads(line)) is not dict:
        raise ValueError("knowledge line must be a JSON object")
    item = object.__new__(KnowledgeItem)
    # A string id breaks the comparisons of id order, a float one (or a bool) the next id
    if type(item_id := obj["id"]) is not int:
        raise ValueError(f"id must be an integer, not {item_id!r}")
    _set_id(item, item_id)
    statement = obj["statement"]
    if type(statement) is not str:  # retrieval tokenizes every statement
        raise ValueError(f"statement must be a string, not {statement!r}")
    _set_statement(item, statement)
    _set_kind(item, _kind(obj["kind"]))
    if type(provenance := obj["provenance"]) is not list:
        raise ValueError(f"provenance must be an array, not {provenance!r}")
    _set_provenance(item, tuple(provenance))
    # ``_clamp`` keeps such a float; it makes an int a float, and NaN and -0.0 0.0
    if not (type(confidence := obj["confidence"]) is float and 0.0 < confidence <= 1.0):
        if type(confidence) not in (int, float):
            raise ValueError(f"confidence must be a number, not {confidence!r}")
        confidence = _clamp(confidence)
    _set_confidence(item, confidence)
    return item


@dataclass(frozen=True)
class ConsolidationExample:
    """One instruction-completion pair exported for offline tuning."""

    prompt: str
    completion: str
    source_record: int
    tags: tuple[str, ...] = ()


def read_consolidation(path) -> list[ConsolidationExample]:
    """The examples of a consolidation file; a corrupt line raises
    StorageError naming the file and the line."""
    lines = read_lines(path, _consolidation_line, _corrupt(f"consolidation file {path}"))
    return [example for _, example, _, _ in lines]


# --------------------------------------------------------------------------
# Similarity
# --------------------------------------------------------------------------

def _tokens(text: str) -> set[str]:
    return set(tokens(text))


def similarity(a: str, b: str, embedder: Optional[DeterministicEmbedder] = None) -> float:
    """Text similarity in [0, 1].

    With an embedder: cosine similarity mapped through (c + 1) / 2.
    Without: Jaccard overlap of lowercase alphanumeric token sets.
    Pairs where either side has no tokens score 0.
    """
    if embedder is not None:
        if not a or not b:
            return 0.0
        return (cosine(embedder.embed(a), embedder.embed(b)) + 1.0) / 2.0
    ta, tb = _tokens(a), _tokens(b)
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


# The two retrieval indexes below rank exactly as ``similarity`` does,
# ties included, from per-item state computed once per store lifetime.
# Both return ids of the best k items, best first, with ties broken
# toward the higher id; ``top`` may return fewer than k.


# A slot takes this many bits in an ``array("i")`` and one in a mask, so a token's two forms
# break even when it holds one slot in this many.
_SLOT_BITS = 8 * array("i").itemsize


def _row(slots: Iterable[int], count: int) -> bytearray:
    """The little-endian bit row of ``count`` slots with each of ``slots`` set."""
    row = bytearray((count >> 3) + 1)
    for slot in slots:
        row[slot >> 3] |= 1 << (slot & 7)
    return row


def _masks(rows: dict) -> dict:
    """Each little-endian bit row as an int; a row is freed once converted."""
    masks = {}
    while rows:
        key, row = rows.popitem()
        masks[key] = int.from_bytes(row, "little")
    return masks


class _TokenIndex:
    """Jaccard top-k over slots, one slot per item, in id order.

    ``postings[token]`` holds the slots of the items holding the token, in an ``array("i")``
    until they reach one in ``_SLOT_BITS`` of the slots held, then as an int mask whose bit
    s is set when slot s holds it. A mask stays a mask; the build promotes as adding its
    items one by one would. Bit s of ``sizes[n]`` is set when the item in slot s has n
    distinct tokens. As slots follow ids, a mask's highest set bit is its newest item.
    """

    def __init__(self, items: Iterable[KnowledgeItem]):
        items = sorted(items, key=attrgetter("id"))
        self.ids = [item.id for item in items]  # item id per slot, ascending
        # A promoted token's bits are set in a bytearray row, each made an int once: OR-ing
        # them into an int one at a time would copy a growing int per bit.
        self.postings = postings = defaultdict(partial(array, "i"))  # str -> array | int
        rows: dict[str, bytearray] = {}
        new_row = partial(bytearray, (len(items) >> 3) + 1)
        size_rows: defaultdict[int, bytearray] = defaultdict(new_row)
        for slot, item in enumerate(items):
            byte, bit, line = slot >> 3, 1 << (slot & 7), (slot + 1) // _SLOT_BITS
            tokens = _tokens(item.statement)
            for token in tokens:
                if token in rows:
                    rows[token][byte] |= bit
                elif len(held := postings[token]) + 1 >= line:
                    rows[token] = _row([*postings.pop(token), slot], len(items))
                else:
                    held.append(slot)
            if tokens:
                size_rows[len(tokens)][byte] |= bit
        postings.update(_masks(rows))
        self.sizes: dict[int, int] = _masks(size_rows)
        self.size_order = sorted(self.sizes)

    def add(self, item: KnowledgeItem) -> None:
        """Put ``item``, whose id is above every id held, in the top slot."""
        slot, bit = len(self.ids), 1 << len(self.ids)
        self.ids.append(item.id)
        tokens = _tokens(item.statement)
        for token in tokens:
            if type(held := self.postings[token]) is int:
                self.postings[token] = held | bit
            elif len(held) + 1 >= (slot + 1) // _SLOT_BITS:
                self.postings[token] = int.from_bytes(_row([*held, slot], slot + 1), "little")
            else:
                held.append(slot)
        if n := len(tokens):
            if n not in self.sizes:
                insort(self.size_order, n)
            self.sizes[n] = self.sizes.get(n, 0) | bit

    def top(self, query: str, k: int) -> list[int]:
        """Only items sharing a token with the query; all others score 0."""
        query_tokens = _tokens(query)
        # Bit-sliced overlap counts (O'Neil & Quass, SIGMOD 1997): bit s of
        # planes[i] is bit i of c, the number of query tokens slot s holds.
        # Each token's mask (made from its slots if it has none) is added into
        # the planes with a ripple carry.
        planes: list[int] = []
        for token in query_tokens:
            if type(carry := self.postings.get(token, 0)) is array:
                carry = int.from_bytes(_row(carry, len(self.ids)), "little")
            for i, plane in enumerate(planes):
                if not carry:
                    break
                planes[i], carry = plane ^ carry, plane & carry
            if carry:
                planes.append(carry)
        if not planes:  # no item holds a query token
            return []
        # Split the items with c >= 1 by c, one plane at a time from the top.
        groups = [(0, reduce(or_, planes, 0))]
        for i in reversed(range(len(planes))):
            split = []
            for c, group in groups:
                if ones := group & planes[i]:
                    split.append((c | 1 << i, ones))
                if zeros := group ^ ones:
                    split.append((c, zeros))
            groups = split
        # A score depends only on (c, n), n = the item's token count, and for
        # a fixed c it falls as n grows: walk each c's sizes in a heap, best
        # score first. c / (|q| + n - c) is the same int/int division as
        # |q & t| / |q | t|, so equal scores are equal floats.
        nq, sizes, order = len(query_tokens), self.sizes, self.size_order
        left = dict(groups)  # items not yet ranked, by c
        heap = []
        for c, _ in groups:
            j = bisect_left(order, c)  # an item holding c query tokens has n >= c
            heap.append((-(c / (nq + order[j] - c)), c, j))
        heapq.heapify(heap)
        ranked: list[int] = []
        while heap and len(ranked) < k:
            score, hits = heap[0][0], 0
            while heap and heap[0][0] == score:  # every (c, n) pair of this score
                _, c, j = heapq.heappop(heap)
                found = left[c] & sizes[order[j]]
                hits |= found
                left[c] ^= found
                if left[c]:
                    heapq.heappush(heap, (-(c / (nq + order[j + 1] - c)), c, j + 1))
            while hits and len(ranked) < k:  # ties: the higher slot, so id, first
                slot = hits.bit_length() - 1
                ranked.append(self.ids[slot])
                hits ^= 1 << slot
        return ranked


class _VectorIndex:
    """Embedder top-k over each item's vector, derived from its statement: the values of
    its nonzero buckets, flat in slot order and within a slot in bucket order (slot s holds
    ``ends[s - 1]:ends[s]``), the places of each bucket's values, and each item's norm."""

    def __init__(self, embedder: DeterministicEmbedder, items: Iterable[KnowledgeItem]):
        self.derive = embedder.derive
        self.ids, self.ends, self.norms = array("q"), array("q"), array("d")
        self.values = array("d")
        self.places: defaultdict[int, array] = defaultdict(partial(array, "q"))
        for item in items:
            self.add(item)

    def add(self, item: KnowledgeItem) -> None:
        # an empty statement has norm 0, and scores 0 as ``similarity`` has it
        buckets, values = self.derive(item.statement) if item.statement else ((), ())
        for place, bucket in enumerate(buckets, len(self.values)):
            self.places[bucket].append(place)
        self.values.extend(values)
        self.ids.append(item.id)
        self.ends.append(len(self.values))
        # ``cosine``'s norm without its 0.0 terms: leaving one out never changes a float sum
        self.norms.append(math.sqrt(sum([x * x for x in values])))

    def top(self, query: str, k: int) -> list[int]:
        """Every item, scored ``(cosine + 1) / 2``."""
        buckets, values = self.derive(query)
        nq = math.sqrt(sum([x * x for x in values]))
        # ``cosine``'s dot products, each over its item's buckets in bucket order, as 0.0
        # where the query's bucket is 0.0: a 0.0 term, like one left out, changes no sum
        products, item_values = array("d", [0.0]) * len(self.values), self.values
        for bucket, x in zip(buckets, values):
            for place in self.places.get(bucket, ()):
                products[place] = x * item_values[place]
        starts = chain((0,), self.ends)
        scores = (((sum(products[start:end]) / (nq * na) + 1.0) / 2.0 if na else 0.0, item_id)
                  for item_id, start, end, na in zip(self.ids, starts, self.ends, self.norms))
        return [item_id for _, item_id in heapq.nlargest(k, scores)]  # ties: the higher id


# --------------------------------------------------------------------------
# Store
# --------------------------------------------------------------------------


_ID_PREFIX = re.compile(r'\{"id":(0|[1-9][0-9]*),')
# A canonical line's end: a top-level ``knowledge_delta`` of JSON ints short enough that one
# ``loads`` reads them all, then ``metrics``, an object holding none, that ends the line. A
# quote in a JSON string is escaped, so ``rfind`` of the key finds a key, the one JSON reads.
_DELTA_TAIL = re.compile(
    r'"knowledge_delta":(\[(?:[1-9]\d{0,17}(?:,[1-9]\d{0,17})*)?\]),"metrics":\{[^}]*\}\}', re.A)
_FOLD_CHUNK = 1024  # the record lines an open reads, at most, before it folds their deltas


def _record_entry(line: str) -> tuple[int, str]:
    """The id and the ``knowledge_delta`` as JSON text; a line that lacks the canonical
    prefix or tail is decoded for them (no key: a match from 0)."""
    if (match := _ID_PREFIX.match(line)) and (
        tail := _DELTA_TAIL.fullmatch(line, line.rfind('"knowledge_delta":['))
    ):
        return int(match[1]), tail[1]
    record = deserialize_record(line)
    return record.id, dumps(record.knowledge_delta)


def _consolidation_line(line: str) -> ConsolidationExample:
    return _build(ConsolidationExample, loads(line), "", "example")


def _knowledge_bytes(items: list[KnowledgeItem]) -> bytes:
    return "".join([dumps(item) + "\n" for item in items]).encode("utf-8")


def _corrupt(what: str) -> Callable[[Any, int], StorageError]:
    """The ``read_lines`` failure of line ``number`` of the file ``what``, as ``exc`` says."""
    return lambda exc, number: StorageError(f"{what} corrupt at line {number}: {exc}")


class EpisodicStore:
    """Append-only store of encounter records plus the knowledge index."""

    def __init__(self, directory, embedder: Optional[DeterministicEmbedder] = None):
        Path(directory).mkdir(parents=True, exist_ok=True)
        self.log_path = Path(directory) / RECORD_LOG_NAME
        self.knowledge_path = Path(directory) / KNOWLEDGE_FILE_NAME
        self.embedder = embedder
        self._log_corrupt = _corrupt(f"record log {self.log_path}")
        self.lock = threading.RLock()
        self._ids: list[int] = []  # in log order
        # The keydir: each record's line number, byte offset and byte length in the log
        self._places = array("q")
        self._knowledge: dict[int, KnowledgeItem] = {}
        self._next_knowledge_id = 1
        self._index: _TokenIndex | _VectorIndex | None = None  # built by _load or retrieve
        self._load()

    @classmethod
    def open(cls, directory, embedder: Optional[DeterministicEmbedder] = None) -> "EpisodicStore":
        return cls(directory, embedder)

    def _load(self) -> None:
        corrupt = _corrupt(f"knowledge file {self.knowledge_path}")
        for _, item, _, _ in read_lines(self.knowledge_path, _knowledge_line, corrupt, True):
            self._knowledge[item.id] = item
        self._next_knowledge_id = max(self._knowledge, default=0) + 1
        last_id, deltas = 0, []
        lines = read_lines(self.log_path, _record_entry, self._log_corrupt, True)
        for number, (record_id, delta), offset, length in lines:
            if record_id <= last_id:
                raise self._log_corrupt(f"id {record_id} after {last_id}", number)
            last_id = record_id
            self._ids.append(record_id)
            self._places.extend((number, offset, length))
            deltas.append(delta)
            if len(deltas) == _FOLD_CHUNK:
                self._fold(deltas)
                deltas.clear()
        self._fold(deltas)
        if self._ids:  # a torn last line fails here, not under the next append
            next(self._read_back([len(self._ids) - 1]))
        if self.embedder is not None:  # after the log, which may fail the open faster
            self._index = _VectorIndex(self.embedder, self._knowledge.values())

    def _read_back(self, indexes: Iterable[int]) -> Iterator[KstarRecord]:
        """Each record at ``indexes``, read back from its place in the log, which is opened
        once for them all, and decoded; iterate with the lock held."""
        with ExitStack() as stack:
            log = None
            for index in indexes:
                number, offset, length = self._places[3 * index:3 * index + 3]
                try:
                    log = log or stack.enter_context(open(self.log_path, "rb"))
                    log.seek(offset)
                    if len(line := log.read(length)) < length:
                        raise ValueError("the log is shorter than when the store was opened")
                    record = deserialize_record(line.decode("utf-8").strip())
                    if record.id != (prefix_id := self._ids[index]):
                        raise ValueError(
                            f"id {record.id} where the line starts with id {prefix_id}")
                except (OSError, *BAD_INPUT) as exc:
                    raise self._log_corrupt(exc, number) from exc
                yield record

    def _append(self, path: Path, data: bytes) -> int:
        """Append ``data``, after a newline if the file's last line lacks one; return where
        it ends, under ``O_APPEND`` whatever others append."""
        try:
            fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                if (end := os.lseek(fd, 0, os.SEEK_END)) and os.pread(fd, 1, end - 1) != b"\n":
                    data = b"\n" + data  # else the first line would run on from that one
                while data:
                    data = data[os.write(fd, data):]
                return os.lseek(fd, 0, os.SEEK_CUR)
            finally:
                os.close(fd)
        except OSError as exc:
            raise StorageError(f"cannot append to {path}: {exc}") from exc

    def _write_knowledge(self, items: list[KnowledgeItem], data: bytes = b"") -> None:
        """Append a line per new item (``data``, if encoded) in one write, then hold them."""
        if not items:
            return
        self._append(self.knowledge_path, data or _knowledge_bytes(items))
        for item in items:
            if self._index is not None:
                self._index.add(item)
            self._knowledge[item.id] = item
        self._next_knowledge_id = items[-1].id + 1

    def _fold(self, deltas: list[str]) -> None:
        """Fold in the last ``len(deltas)`` records' ``knowledge_delta`` JSON texts, in one
        ``loads``: each id of a held item whose provenance lacks that record raises it; new ids
        start past them all."""
        held, raised, named = self._knowledge.get, [], self._next_knowledge_id - 1
        ids = self._ids[len(self._ids) - len(deltas):]
        for record_id, item_ids in zip(ids, loads(f"[{','.join(deltas)}]")):
            for item_id in item_ids:
                if (item := held(item_id)) is not None and record_id not in item.provenance:
                    raised.append(item_id)
                named = item_id if item_id > named else named
        self.boost_confidence(raised)
        self._next_knowledge_id = named + 1

    def _new_item(self, item: KnowledgeItem, item_id: int, provenance: tuple) -> KnowledgeItem:
        """``item`` checked and numbered ``item_id`` with ``provenance``."""
        if not item.statement.strip():
            raise ValueError("knowledge statement must be non-empty")
        if not provenance:
            raise ValueError("knowledge provenance must be non-empty")
        return replace(item, id=item_id, provenance=provenance)

    # -- records ------------------------------------------------------

    def iter_records(self) -> Iterator[KstarRecord]:
        """Each record in log order, read back one at a time: a corrupt line fails when it is
        reached, after the records before it. The lock is held until the iteration ends."""
        with self.lock:
            yield from self._read_back(range(len(self._ids)))

    @property
    def records(self) -> tuple[KstarRecord, ...]:
        return tuple(self.iter_records())

    def get_record(self, record_id: int) -> Optional[KstarRecord]:
        with self.lock:
            i = bisect_left(self._ids, record_id)
            if i < len(self._ids) and self._ids[i] == record_id:
                return next(self._read_back([i]))
        return None

    def next_record_id(self) -> int:
        with self.lock:
            return self._ids[-1] + 1 if self._ids else 1

    def store_record(self, record: KstarRecord, items: Iterable[KnowledgeItem] = ()) -> KstarRecord:
        """Commit one encounter, whose ``knowledge_delta`` names the held items it
        reinforced, and return the record written. The record takes the next id, and
        ``items``, its new knowledge, the next item ids past every id it names, with
        the record as provenance, appended to its ``knowledge_delta``. All is checked
        and encoded; then the record line is appended, and the items in one more."""
        with self.lock:
            record_id = self.next_record_id()  # a delta id that is not an int fails the check
            named = max([i for i in record.knowledge_delta if type(i) is int], default=0)
            first = max(self._next_knowledge_id, named + 1)
            new = [self._new_item(item, first + i, (record_id,)) for i, item in enumerate(items)]
            delta = record.knowledge_delta + tuple(item.id for item in new)
            record = replace(record, id=record_id, knowledge_delta=delta)
            if violations := validate_record(record):
                raise ValidationFailed(violations)
            data, line = _knowledge_bytes(new), (serialize_record(record) + "\n").encode("utf-8")
            start = self._append(self.log_path, line) - len(line)
            number, offset, length = self._places[-3:] if self._ids else (1, 0, 0)
            if self._ids and start == offset + length:
                number += 1  # right after the last known line
            else:  # count the newlines of blank lines, other handles' lines or the append's
                with open(self.log_path, "rb") as log:
                    number += os.pread(log.fileno(), max(start - offset, 0), offset).count(b"\n")
            self._places.extend((number, start, len(line)))
            self._ids.append(record.id)
            self._fold([dumps(delta)])
            self._write_knowledge(new, data)
            return record

    # -- knowledge ----------------------------------------------------

    @property
    def knowledge(self) -> tuple[KnowledgeItem, ...]:
        with self.lock:
            return tuple(self._knowledge.values())

    def get_knowledge(self, item_id: int) -> Optional[KnowledgeItem]:
        with self.lock:
            return self._knowledge.get(item_id)

    def add_knowledge(self, item: KnowledgeItem) -> int:
        """Assign the next item id, and append."""
        with self.lock:
            stored = self._new_item(item, self._next_knowledge_id, item.provenance)
            self._write_knowledge([stored])
            return stored.id

    def boost_confidence(self, item_ids: Iterable[int]) -> None:
        """Raise each held item's confidence by ``REINFORCEMENT_BOOST``, once per repeat
        of its id, in memory: the record whose ``knowledge_delta`` names it keeps it."""
        with self.lock:
            for item_id in item_ids:
                if item := self._knowledge.get(item_id):
                    raised = item.confidence + REINFORCEMENT_BOOST
                    self._knowledge[item_id] = replace(item, confidence=raised)

    def retrieve(self, query: str, k: int) -> list[KnowledgeItem]:
        """Top-k knowledge items by similarity to the query.

        Ties break toward the higher item id (recency). Writes nothing.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        with self.lock:
            if k == 0 or not self._knowledge:
                return []
            ranked = []
            if self._index is None and _tokens(query):
                self._index = _TokenIndex(self._knowledge.values())
            if query and self._index is not None:
                ranked = self._index.top(query, k)
            if len(ranked) < k:
                # the rest score 0: most recent first
                taken = set(ranked)
                ranked += heapq.nlargest(
                    k - len(ranked), (i for i in self._knowledge if i not in taken)
                )
            return [self._knowledge[i] for i in ranked]

    # -- consolidation --------------------------------------------------

    def consolidate(self, out_path=None) -> list[ConsolidationExample]:
        """Export one instruction-completion example per successful record.

        When ``out_path`` is given, examples are written as one JSON object
        per line.
        """
        examples = []
        for record in self.iter_records():
            if not record.outcome.success:
                continue
            prompt = f"{record.situation.description}\n{record.task.goal}"
            completion = f"{render_plan(record.plan)}\n{record.outcome.actual_result}"
            examples.append(ConsolidationExample(
                prompt, completion, record.id, record.situation.context_tags
            ))
        if out_path is not None:
            try:
                text = "".join([dumps(example) + "\n" for example in examples])
                Path(out_path).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise StorageError(f"cannot write consolidation file: {exc}") from exc
        return examples


# --------------------------------------------------------------------------
# Knowledge extraction
# --------------------------------------------------------------------------


def step_line(step) -> str:
    """One step as ``agent | skill | c1, c2`` (no constraints part if none)."""
    parts = [step.agent, step.skill]
    if step.constraints:
        parts.append(", ".join(step.constraints))
    return " | ".join(parts)


def render_plan(plan) -> str:
    """Human-readable one-line-per-step rendering of a plan."""
    return "\n".join(f"{i}. {step_line(step)}" for i, step in enumerate(plan, 1))


def forecast_matched(record: KstarRecord) -> bool:
    """Whether the forecast agreed with what actually happened.

    The forecast predicts success when its probability is at least 0.5;
    it matched when that prediction agrees with the actual outcome.
    """
    predicted = record.forecast.success_probability >= 0.5
    return predicted == record.outcome.success


def extract_knowledge(record: KstarRecord, lesson: str = "") -> list[KnowledgeItem]:
    """Turn one evaluated encounter into knowledge items.

    The rule layer is a pure function of the record: a success whose
    forecast held produces one reinforcement item; anything else
    produces one corrective item stating expected vs actual. A non-blank
    ``lesson`` (the agent's distillation of the encounter) adds one
    distilled item.

    Item ids are assigned by the store; provenance always points at the
    source record.
    """
    situation = record.situation.description.strip()
    if record.outcome.success and forecast_matched(record):
        statement = (
            f"Confirmed for '{situation}': the plan "
            f"[{'; '.join(s.skill for s in record.plan)}] "
            f"produced {record.outcome.actual_result}"
        )
        kind, confidence = KnowledgeKind.REINFORCEMENT, REINFORCEMENT_CONFIDENCE
    else:
        statement = (
            f"Correction for '{situation}': expected "
            f"{record.forecast.expected_result} but got {record.outcome.actual_result}"
        )
        kind, confidence = KnowledgeKind.CORRECTIVE, CORRECTIVE_CONFIDENCE
    items = [KnowledgeItem(0, statement, kind, (record.id,), confidence)]
    if lesson.strip():
        items.append(KnowledgeItem(
            0, lesson.strip(), KnowledgeKind.DISTILLED, (record.id,), DISTILLED_CONFIDENCE
        ))
    return items
