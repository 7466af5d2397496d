"""Span recorder for the traced run.

``instrument`` wraps the program's public functions where the calling
module looks them up (``neolaf.toolkit.eval_expression``,
``neolaf.memory.serialize_record``, methods on their classes, ...).
Each call becomes a span: name, start, end, parent span and op id, kept
in memory and written once when the run ends. Nothing inside ``src/``
changes, so the program sees the same prompts traced or not.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from neolaf import calculator, cognition, harness, memory, provider, toolkit

FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "extra")
NAME, START, END, PARENT, OP, EXTRA = range(len(FIELDS))
# A top-level span with one of these names starts the next op; other
# spans carry the id of the op that started last.
OP_STARTS = frozenset({"cognition.solve", "memory.retrieve"})


def _open_lines(_args, store) -> int:
    lines = len(store.records)
    if store.knowledge_path.exists():
        with open(store.knowledge_path, "rb") as fh:
            lines += sum(1 for _ in fh)
    return lines


# (owner, attribute, span name, extra(args, result) recorded after the span).
# Extras must be cheap: they run inside the parent span. The retrieve
# extra counts items on the private dict because the public ``knowledge``
# property copies all of them.
TARGETS = (
    (cognition, "solve", "cognition.solve", None),
    (cognition, "run_system2", "cognition.run_system2",
     lambda args, result: result[1].metrics.replans),
    (memory.EpisodicStore, "open", "memory.open", _open_lines),
    (memory.EpisodicStore, "retrieve", "memory.retrieve",
     lambda args, result: len(args[0]._knowledge)),
    (memory.EpisodicStore, "store_record", "memory.store_record", None),
    (memory.EpisodicStore, "add_knowledge", "memory.add_knowledge", None),
    (memory.EpisodicStore, "boost_confidence", "memory.boost_confidence", None),
    (memory, "validate_record", "kstar.validate_record", None),
    (memory, "serialize_record", "kstar.serialize_record", None),
    (memory, "deserialize_record", "kstar.deserialize_record", None),
    (provider.ScriptedProvider, "complete", "provider.complete",
     lambda args, result: result.prompt_tokens),
    (provider.DeterministicEmbedder, "embed", "provider.embed", None),
    (toolkit.ToolRegistry, "invoke", "toolkit.invoke", None),
    (cognition, "parse_tool_directive", "toolkit.parse_tool_directive", None),
    (toolkit, "eval_expression", "calculator.eval_expression", None),
    (calculator, "eval_expression", "calculator.eval_expression", None),
    (harness, "answers_equal", "harness.answers_equal", None),
)


class Tracer:
    """Spans of one run, in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        starts_op = name in OP_STARTS

        def traced(*args, **kwargs):
            if starts_op and not stack:
                self.op += 1
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for owner, attribute, name, extra in TARGETS:
            raw = owner.__dict__[attribute]
            saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(tracer.wrap(name, raw.__func__, extra)))
            else:
                setattr(owner, attribute, tracer.wrap(name, raw, extra))
        yield tracer
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)


def self_ns(spans) -> list[int]:
    """Each span's duration minus the time its child spans cover. One
    thread, so children never overlap."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer metrics from the spans of a run of ``ops`` ops.

    Times are means per call; counts are per op.
    """
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def calls(name):
        return len(by_name.get(name, ())) / ops

    def mean_us(name):
        found = by_name.get(name)
        return statistics.fmean(s[END] - s[START] for s in found) / 1e3 if found else 0.0

    def extras(name):
        return [s[EXTRA] for s in by_name.get(name, ())]

    own = self_ns(spans)
    cognition_self = sum(t for s, t in zip(spans, own) if s[NAME].startswith("cognition."))
    solves = len(by_name.get("cognition.solve", ()))
    opens = extras("memory.open")
    scored = extras("memory.retrieve")
    return {
        "memory.retrieve_us": mean_us("memory.retrieve"),
        "memory.retrieve_calls": calls("memory.retrieve"),
        "memory.items_scored": statistics.fmean(scored) if scored else 0.0,
        "memory.open_ms": mean_us("memory.open") / 1e3,
        "memory.open_lines": statistics.fmean(opens) if opens else 0.0,
        "memory.store_record_us": mean_us("memory.store_record"),
        "memory.add_knowledge_us": mean_us("memory.add_knowledge"),
        "memory.boost_us": mean_us("memory.boost_confidence"),
        "kstar.validate_us": mean_us("kstar.validate_record"),
        "kstar.serialize_us": mean_us("kstar.serialize_record"),
        "kstar.deserialize_us": mean_us("kstar.deserialize_record"),
        "provider.complete_us": mean_us("provider.complete"),
        "provider.complete_calls": calls("provider.complete"),
        "provider.prompt_tokens": sum(extras("provider.complete")) / ops,
        "provider.embed_calls": calls("provider.embed"),
        "provider.embed_us": mean_us("provider.embed"),
        "toolkit.invoke_us": mean_us("toolkit.invoke"),
        "toolkit.parse_calls": calls("toolkit.parse_tool_directive"),
        "toolkit.parse_us": mean_us("toolkit.parse_tool_directive"),
        "calculator.eval_calls": calls("calculator.eval_expression"),
        "calculator.eval_us": mean_us("calculator.eval_expression"),
        "cognition.self_ms": cognition_self / 1e6 / ops,
        "cognition.system2_share": (
            len(by_name.get("cognition.run_system2", ())) / solves if solves else 0.0
        ),
        "cognition.replans": sum(extras("cognition.run_system2")) / ops,
        "harness.answers_equal_us": mean_us("harness.answers_equal"),
    }


def self_ms_by_layer(spans, ops: int) -> dict:
    """Self time per op of each layer, the module part of a span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_ns(spans)):
        layer = span[NAME].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own / 1e6 / ops
    return totals
