"""Regenerate the scripted fixtures.

Builds the 20-problem dataset in the math directory layout, then runs
the real agent pipeline against a deterministic responder, capturing
every prompt fingerprint and its response into script.json. Because the
capture passes run the same code paths the tests replay (shared-store
eval, system1-only eval, fresh-store routing pair, fresh-store replan
scenario), the script stays in lockstep with the prompt templates: if
templates change, rerun this file.

Usage:  python3 tests/fixtures/generate_fixtures.py
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
from pathlib import Path

from neolaf.cognition import default_kit, solve
from neolaf.harness import EvalConfig, load_dataset, run_eval
from neolaf.memory import EpisodicStore
from neolaf.provider import Completion, CompletionProvider, fingerprint, save_script
from neolaf.templates import DEFAULT_TEMPLATES
from neolaf.toolkit import default_registry

FIXTURE_DIR = Path(__file__).resolve().parent
DATASET_DIR = FIXTURE_DIR / "math20"
SCRIPT_PATH = FIXTURE_DIR / "script.json"
META_PATH = FIXTURE_DIR / "meta.json"

# (subject, statement, kind, boxed_answer, calc_expr)
PROBLEMS = [
    ("algebra", "What is 9 squared?", "easy", "81", None),
    ("algebra", "What is half of 50?", "easy", "25", None),
    ("algebra", "Compute 1/3 + 1/6 as a fraction in lowest terms.", "tool",
     "\\frac{1}{2}", "1/3 + 1/6"),
    ("algebra", "Evaluate (3/4) * (8/9) as a reduced fraction.", "tool",
     "\\frac{2}{3}", "(3/4) * (8/9)"),
    ("arithmetic", "What is 2+2?", "easy", "4", None),
    ("arithmetic", "What is 7 times 8?", "easy", "56", None),
    ("arithmetic", "What is 100 - 37?", "easy", "63", None),
    ("arithmetic", "What is 12 divided by 4?", "easy", "3", None),
    ("arithmetic", "What is floor(22/7)?", "tool", "3", "floor(22/7)"),
    ("geometry", "How many sides does a hexagon have?", "easy", "6", None),
    ("geometry", "How many degrees are in a right angle?", "easy", "90", None),
    ("geometry", "Compute sqrt(2)^2 to float precision.", "tool", "2", "sqrt(2)^2"),
    ("number_theory", "What is the smallest prime number?", "easy", "2", None),
    ("number_theory", "What is the next even number after 8?", "easy", "10", None),
    ("number_theory", "Find the greatest common divisor of 84 and 126.", "tool",
     "42", "gcd(84, 126)"),
    ("number_theory", "What is 2^10? Give the exact integer.", "tool",
     "1024", "2^10"),
    ("prealgebra", "What is 15% of 200?", "easy", "30", None),
    ("prealgebra", "What is 5 factorial?", "easy", "120", None),
    ("prealgebra", "What is one third of 99?", "easy", "33", None),
    ("prealgebra", "How many minutes are in two hours?", "easy", "120", None),
]

REPLAN = {
    "statement": "Compute 5/6 - 1/3 and give an exact fraction.",
    "kind": "replan",
    "expr": "5/6 - 1/3",
}

_QUERY_LINE = re.compile(r"^(?:Problem|Task):\s*(.*)$", re.MULTILINE)
# a reinforcement item in a context block: its situation and its result
_CONFIRMED = re.compile(r"^- \[[\d.]+\] Confirmed for '(.*)': .* produced (.*)$", re.MULTILINE)


def _solution_text(kind: str, boxed: str) -> str:
    if kind == "easy":
        return f"This is immediate from the definition. The answer is $\\boxed{{{boxed}}}$."
    return (
        "Carry out the computation exactly, keeping rational arithmetic "
        f"throughout, which gives $\\boxed{{{boxed}}}$."
    )


def write_dataset() -> None:
    if DATASET_DIR.exists():
        shutil.rmtree(DATASET_DIR)
    counters: dict[str, int] = {}
    for subject, statement, kind, boxed, _expr in PROBLEMS:
        counters[subject] = counters.get(subject, 0) + 1
        target = DATASET_DIR / subject / f"{counters[subject]}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(
                {
                    "problem": statement,
                    "level": "Level 1",
                    "type": subject,
                    "solution": _solution_text(kind, boxed),
                },
                ensure_ascii=False,
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )


def make_responder():
    by_statement = {
        statement: {"subject": subject, "kind": kind, "answer_text": boxed, "expr": expr}
        for subject, statement, kind, boxed, expr in PROBLEMS
    }
    by_statement[REPLAN["statement"]] = {
        "subject": "algebra",
        "kind": "replan",
        "answer_text": "\\frac{1}{2}",
        "expr": REPLAN["expr"],
    }
    markers = {name: t.splitlines()[0] for name, t in DEFAULT_TEMPLATES.items()}

    def easy_answer(meta):
        # system-1 answers easy problems with the plain boxed value
        return meta["answer_text"].replace("\\frac{1}{2}", "1/2")

    def responder(request) -> str:
        body = request.messages[-1].content
        first_line = body.splitlines()[0]
        phase = next(name for name, marker in markers.items() if marker == first_line)
        queries = _QUERY_LINE.findall(body)
        assert len(queries) == 1, f"expected one query line in {phase} prompt"
        meta = by_statement[queries[0]]
        if phase == "confidence":
            if meta["kind"] == "easy":
                return (
                    f"ANSWER: {easy_answer(meta)}\n"
                    "EXPLANATION: recalled directly\n"
                    "CONFIDENCE: 0.9"
                )
            return (
                "ANSWER: not sure yet\n"
                "EXPLANATION: this needs exact computation\n"
                "CONFIDENCE: 0.3"
            )
        if phase == "situation":
            return f"A {meta['subject']} problem posed for exact solution: {queries[0]}"
        if phase == "decompose":
            return "- restate what is being asked\n- compute the exact value"
        if phase == "plan":
            if meta["kind"] == "replan" and "Previous attempt failed" not in body:
                return 'STEP 1: self | TOOL calc(expr="1/0") | exact arithmetic'
            return (
                "STEP 1: self | restate the computation carefully | stay exact\n"
                f'STEP 2: self | TOOL calc(expr="{meta["expr"]}") | exact arithmetic'
            )
        if phase == "forecast":
            return (
                "EXPECTED: the exact value computed by the calculator\n"
                "PROBABILITY: 0.8"
            )
        if phase == "execute":
            return "Restating the computation; the calculator will ground the exact result."
        if phase == "evaluate":
            return "VERDICT: success\nFEEDBACK: the grounded result matches the expectation"
        if phase == "distill":
            return "Lesson: ground arithmetic with the exact calculator before answering."
        raise AssertionError(f"unhandled phase {phase}")

    return responder


def make_learner():
    """The responder, plus recall of its own experience.

    A fast-path prompt whose context holds a reinforcement item
    (``Confirmed for '...<query>...': ... produced X``) is answered X at
    confidence 0.9; every other prompt goes to the responder. So a
    problem solved once on the slow path takes the fast path when it
    comes again with that item retrieved.
    """
    responder = make_responder()
    marker = DEFAULT_TEMPLATES["confidence"].splitlines()[0]

    def learner(request) -> str:
        body = request.messages[-1].content
        if body.splitlines()[0] == marker:
            query = _QUERY_LINE.search(body).group(1)
            for situation, result in _CONFIRMED.findall(body):
                if query in situation:
                    return (
                        f"ANSWER: {result}\n"
                        "EXPLANATION: recalled from experience\n"
                        "CONFIDENCE: 0.9"
                    )
        return responder(request)

    return learner


class CapturingProvider(CompletionProvider):
    """Answers via the responder and records fingerprint -> text."""

    def __init__(self, responder, script: dict):
        self.responder = responder
        self.script = script

    def complete(self, request):
        text = self.responder(request)
        key = fingerprint(request)
        if key in self.script and self.script[key] != text:
            raise AssertionError(f"conflicting responses for fingerprint {key}")
        self.script[key] = text
        return Completion(
            text=text,
            prompt_tokens=sum(len(m.content.split()) for m in request.messages),
            completion_tokens=len(text.split()),
        )


def capture() -> dict:
    kit = default_kit()
    script: dict = {}
    provider = CapturingProvider(make_responder(), script)
    problems = load_dataset(DATASET_DIR, "math_dir")
    assert len(problems) == 20

    # pass 1: full configuration, shared store (the criterion-5 run)
    report = run_eval(EvalConfig(name="full", kit=kit, provider=provider), problems)
    assert report.aggregate.accuracy == 1.0, report

    # pass 2: system1-only baseline over the same problems
    run_eval(
        EvalConfig(name="system1-only", kit=kit, provider=provider, system1_only=True),
        problems,
    )

    # pass 3: routing pair and memory closure on fresh stores
    first_easy = next(p for p in PROBLEMS if p[2] == "easy")
    first_tool = next(p for p in PROBLEMS if p[2] == "tool")
    for _subject, statement, _kind, _boxed, _expr in (first_easy, first_tool):
        with tempfile.TemporaryDirectory() as scratch:
            store = EpisodicStore.open(scratch)
            solve(statement, kit, provider, default_registry(), store)

    # pass 4: the failure-then-replan scenario on a fresh store
    with tempfile.TemporaryDirectory() as scratch:
        store = EpisodicStore.open(scratch)
        solution = solve(REPLAN["statement"], kit, provider, default_registry(), store)
        record = store.get_record(solution.record_id)
        assert record.metrics.replans == 1, record.metrics

    return script


def write_meta() -> None:
    first_easy = next(p for p in PROBLEMS if p[2] == "easy")
    first_tool = next(p for p in PROBLEMS if p[2] == "tool")
    META_PATH.write_text(
        json.dumps(
            {
                "routing_easy_statement": first_easy[1],
                "routing_tool_statement": first_tool[1],
                "replan_statement": REPLAN["statement"],
                "n_problems": len(PROBLEMS),
                "n_tool_problems": sum(1 for p in PROBLEMS if p[2] == "tool"),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def main() -> None:
    write_dataset()
    script = capture()
    save_script(script, SCRIPT_PATH)
    write_meta()
    print(f"wrote {len(list(DATASET_DIR.rglob('*.json')))} problems to {DATASET_DIR}")
    print(f"wrote {len(script)} scripted responses to {SCRIPT_PATH}")


if __name__ == "__main__":
    main()
