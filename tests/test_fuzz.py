"""A seeded reply fuzzer: no model reply may crash an encounter.

``fuzz`` runs ``solve`` on the math20 problems against a provider that
answers every request with a fixture reply: the scripted one for the
request's fingerprint, or a random one. Half the replies are mutated into
text that has broken the agent before, or is built to: deep nesting, a
directive number too long to convert, lone surrogates, non-finite numbers,
stray labels, an empty reply, a result too long to render. One call in ten
raises ``ProviderError`` instead, in whichever phase it falls. After every
encounter it checks that ``solve`` returned a Solution, that exactly one
record was added, that the store reopens with the same records, and that
``answers_equal`` on the answer returns a bool.

Tier-1 runs 300 encounters. For a longer run, give the number of
encounters per seed and the seeds:

    PYTHONPATH=src python -W error tests/test_fuzz.py 700 1 2 3
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

from neolaf.cognition import Solution, default_kit, solve
from neolaf.harness import answers_equal, load_dataset
from neolaf.memory import EpisodicStore
from neolaf.provider import (
    Completion,
    CompletionProvider,
    ProviderError,
    fingerprint,
    load_script,
)
from neolaf.toolkit import default_registry

FIXTURES = Path(__file__).parent / "fixtures"

PAYLOADS = (
    "(" * 200 + "1" + ")" * 200,
    "-" * 3000 + "1",
    "^".join("2" * 1501),
    "TOOL calc(expr=" + "9" * 4400 + ")",
    "\ud800",
    "4 \udcff 2",
    "nan",
    "inf",
    "1e999",
    "ANSWER:",
    "CONFIDENCE:",
    "STEP 1:",
    "PROBABILITY: PROBABILITY:",
    "VERDICT:",
    "",
    "2^14300",
)


def mutate(reply: str, rng: random.Random) -> str:
    """``reply`` with one payload as the whole reply, as a labelled value,
    or as a stray line."""
    payload = rng.choice(PAYLOADS)
    lines = reply.splitlines() or [""]
    i = rng.randrange(len(lines))
    label, colon, _ = lines[i].partition(":")
    where = rng.randrange(3)
    if where == 0:
        return payload
    if where == 1 and colon:
        lines[i] = f"{label}: {payload}"
    else:
        lines.insert(i, payload)
    return "\n".join(lines)


class FuzzProvider(CompletionProvider):
    """Fixture replies, by fingerprint when scripted, else at random; half
    mutated. One call in ten fails."""

    def __init__(self, script: dict[str, str], rng: random.Random):
        self.script, self.replies, self.rng = script, list(script.values()), rng

    def complete(self, request):
        if self.rng.random() < 0.1:
            raise ProviderError("fuzzed provider failure")
        key = fingerprint(request)
        text = self.script[key] if key in self.script else self.rng.choice(self.replies)
        if self.rng.random() < 0.5:
            text = mutate(text, self.rng)
        return Completion(text, 1, 1)


# Encounters per store: each check reopens the store and compares every
# record, so a store that grew for the whole run would make it quadratic.
PASS = 20


def fuzz(directory, seed: int, encounters: int) -> None:
    """Run ``encounters`` fuzzed encounters into new stores under
    ``directory``, ``PASS`` to a store, checking the property after each."""
    rng = random.Random(seed)
    provider = FuzzProvider(load_script(FIXTURES / "script.json"), rng)
    problems = load_dataset(FIXTURES / "math20", "math_dir")
    kit, registry = default_kit(), default_registry()
    for n in range(encounters):
        if n % PASS == 0:
            path = Path(directory) / str(n // PASS)
            store = EpisodicStore.open(path)
        problem = rng.choice(problems)
        solution = solve(problem.statement, kit, provider, registry, store)
        assert isinstance(solution, Solution), (seed, n)
        records = store.records
        assert len(records) == n % PASS + 1 and solution.record_id == records[-1].id, (seed, n)
        assert EpisodicStore.open(path).records == records, (seed, n)
        assert type(answers_equal(solution.answer, problem.reference_answer)) is bool, (seed, n)


def test_no_reply_crashes_an_encounter(tmp_path):
    fuzz(tmp_path / "store", seed=0, encounters=300)


if __name__ == "__main__":
    count, *seeds = map(int, sys.argv[1:])
    for seed in seeds:
        with tempfile.TemporaryDirectory() as scratch:
            fuzz(Path(scratch) / "store", seed, count)
        print(f"seed {seed}: {count} encounters, no crash")
