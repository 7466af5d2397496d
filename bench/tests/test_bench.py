"""Tests of the benchmark itself, at tiny store sizes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
import weakref
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._require_program()

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"items": 60, "records": 30}
SPEC = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_has_no_failed_ops(tmp_path, name, trace):
    result, extras = run.measure(name, seed=3, seconds=0.3, trace=trace, work=tmp_path, sizes=TINY)
    assert result["failed"] == 0, extras["failures"]
    assert result["correct"] and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_other_store_is_live_at_an_open(tmp_path, monkeypatch, name):
    # A CLI process holds one store, so peak_rss_mb must count one.
    store_type = workloads.memory.EpisodicStore
    raw = store_type.__dict__["open"].__func__
    live = weakref.WeakSet()
    live_at_open = []

    def counting_open(cls, *args, **kwargs):
        live_at_open.append(len(live))
        store = raw(cls, *args, **kwargs)
        live.add(store)
        return store

    monkeypatch.setattr(store_type, "open", classmethod(counting_open))
    workload = workloads.WORKLOADS[name](tmp_path, seed=0, **TINY)
    workload.setup()
    workload.verify(workload.run(0.3))
    assert live_at_open and max(live_at_open) == 0


def test_fresh_digest_matches_the_recorded_one_for_any_seed(tmp_path):
    workload = workloads.Math20Fresh(tmp_path, seed=11)
    workload.setup()
    assert workload.digest == run._expected()["digests"]["math20-fresh"]


@pytest.mark.parametrize(
    "tamper",
    [
        lambda script: {k: v.replace("ANSWER: 81", "ANSWER: 82") for k, v in script.items()},
        lambda script: {k: v for k, v in script.items() if "ANSWER: 81" not in v},
    ],
    ids=["corrupted-answer", "unscripted-prompt"],
)
def test_tampered_script_counts_as_failed(tmp_path, tamper):
    workload = workloads.Math20Fresh(tmp_path, seed=0)
    workload.setup()
    workload.script = tamper(workload.script)
    tally = workload.run(0.5)
    correct, failed = run.judge(tally, workload.digest, None)
    assert not correct
    assert 1 <= failed < tally.attempted
    assert all(f.startswith("algebra/1:") for f in tally.failures)


def test_changed_digest_counts_every_op_as_failed(tmp_path):
    workload = workloads.Math20Shared(tmp_path, seed=0, **TINY)
    workload.setup()
    tally = workload.run(0.2)
    assert run.judge(tally, workload.digest, workload.digest) == (True, 0)
    correct, failed = run.judge(tally, workload.digest, "0" * 64)
    assert not correct
    assert failed == tally.attempted > 0


def test_recall_oracle_catches_a_wrong_ranking(tmp_path):
    workload = workloads.RecallEmbed(tmp_path, seed=0, **TINY)
    workload.setup()
    tally = workload.run(0)
    workload.verify(tally)
    assert tally.failed == 0
    query, ids = workload.first_session[0]
    workload.first_session[0] = (query, ids[::-1])
    workload.verify(tally)
    assert tally.failed == 1


def test_self_time_subtracts_children():
    # name, start, end, parent, op, extra
    trace = [
        ["cognition.solve", 0, 100, -1, 1, None],
        ["memory.retrieve", 10, 40, 0, 1, None],
        ["provider.complete", 50, 60, 0, 1, None],
        ["kstar.serialize_record", 15, 20, 1, 1, None],
    ]
    assert spans.self_ns(trace) == [60, 25, 10, 5]
    assert spans.self_ms_by_layer(trace, 1)["cognition"] == pytest.approx(60e-6)
