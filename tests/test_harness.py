"""Answer extraction, normalization, dataset loading, eval and compare."""

import json
import random
import re
import time
from pathlib import Path

import pytest

from neolaf.cognition import default_kit, request
from neolaf.harness import (
    Aggregate,
    EvalConfig,
    EvalReport,
    FormatError,
    NoFinalAnswer,
    Problem,
    ProblemResult,
    answers_equal,
    compare,
    extract_final_answer,
    load_dataset,
    normalize_answer,
    render_comparison,
    report_to_dict,
    run_eval,
    save_report,
)
from neolaf.memory import EpisodicStore
from neolaf.provider import ScriptedProvider, fingerprint


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def test_extract_simple_boxed():
    assert extract_final_answer("so the answer is $\\boxed{42}$.") == "42"


def test_extract_nested_braces():
    assert extract_final_answer("\\boxed{\\frac{1}{2}}") == "1/2"


def test_extract_takes_last_boxed():
    text = "first \\boxed{1} then finally \\boxed{2}"
    assert extract_final_answer(text) == "2"


def test_extract_no_box_raises():
    with pytest.raises(NoFinalAnswer):
        extract_final_answer("no box here")


def test_extract_skips_unbalanced_final_box():
    text = "good \\boxed{7} bad \\boxed{unclosed"
    assert extract_final_answer(text) == "7"


def test_a_long_run_of_unclosed_boxes_loads_in_linear_time(tmp_path):
    # a scan to the end of the text from each unclosed box would take seconds
    path = tmp_path / "problems.jsonl"
    solution = "\\boxed{1} " + "\\boxed{" * (100_000 // len("\\boxed{"))
    path.write_text(json.dumps({"problem": "x", "solution": solution}) + "\n", encoding="utf-8")
    started = time.perf_counter()
    assert [p.reference_answer for p in load_dataset(path, "jsonl")] == ["1"]
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# Normalization and equality
# ---------------------------------------------------------------------------


CASES = [
    ("$42$", "42"),
    ("  42  ", "42"),
    ("The answer is 42", "42"),
    ("the final answer is: 7", "7"),
    ("\\frac{1}{2}", "1/2"),
    ("\\frac{x+1}{2}", "(x+1)/2"),
    ("\\frac{\\frac{1}{2}}{3}", "(1/2)/3"),
    ("\\sqrt{2}", "sqrt(2)"),
    ("\\sqrt{\\frac{1}{4}}", "sqrt(1/4)"),
    ("\\left( 1, 2 \\right)", "( 1, 2 )"),
    ("a   b\t c", "a b c"),
    ("\\frac{1}{2} + \\frac{1}{3}", "1/2 + 1/3"),
    ("\\pi", "\\pi"),
    ("\\dfrac{9}{7}", "9/7"),
    ("\\tfrac{3}{4}", "3/4"),
    ("\\$18", "18"),
    ("$\\$5$", "5"),
    ("the answer is the answer is 5", "5"),
    ("answer is $answer is 2", "2"),
    ("$ answer is 5", "5"),
    ("\\left answer is 5", "5"),
    ("\\lef\\leftt 1", "\\lef\\leftt 1"),  # \leftt is no \left
    ("x \\rightarrow y", "x \\rightarrow y"),
    ("\\lef\\frac{t}{2}", "/2"),  # the rewrite glues \lef and t into \left
    ("answer isotope", "answer isotope"),  # "is" is a whole word
    ("The answer island", "The answer island"),
    ("the answer is answer isotope", "answer isotope"),
    ("\\frac{1}2", "\\frac{1}2"),  # a missing group: the command stays as written
    ("\\frac{1}", "\\frac{1}"),
    ("\\frac{1}{2", "\\frac{1}{2"),  # an unbalanced group: the rest stays as written
    ("\\frac{(a+b)}{c}", "(a+b)/c"),  # a parenthesized part is not wrapped again
]


@pytest.mark.parametrize("raw,expected", CASES)
def test_normalize_cases(raw, expected):
    assert normalize_answer(raw) == expected


def test_an_answer_that_starts_with_a_word_in_is_keeps_it():
    """The "answer is" prefix once took the "is" of "island" and "isotope"."""
    assert not answers_equal("answer island", "land")
    assert answers_equal("the answer is: island", "island")


def test_normalize_idempotent_on_curated_cases():
    for raw, _ in CASES:
        once = normalize_answer(raw)
        assert normalize_answer(once) == once


def test_normalize_reaches_its_fixed_point_in_one_linear_pass():
    """Each pass of a fixed-point loop would uncover one more \\left here."""
    raw = "\\lef" * 20_000 + "\\left" + "t" * 20_000  # 100 kB
    started = time.perf_counter()
    once = normalize_answer(raw)
    assert time.perf_counter() - started < 1.0
    assert normalize_answer(once) == once


def test_normalize_idempotent_on_random_strings():
    rng = random.Random(555)
    alphabet = "0123456789+-*/^(){}\\$ .fracqstbox eh"
    for _ in range(300):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        once = normalize_answer(raw)
        assert normalize_answer(once) == once


@pytest.mark.parametrize("raw", [
    "\\frac{1}{2}+" * 1000,  # once one stack frame per occurrence
    "\\frac{" * 500 + "1" + "}{2}" * 500,  # past calculator.MAX_NESTING: kept as written
], ids=["sequential", "nested"])
def test_normalize_takes_many_and_deeply_nested_groups(raw):
    once = normalize_answer(raw)
    assert normalize_answer(once) == once
    assert answers_equal(raw, raw)
    assert extract_final_answer(f"\\boxed{{{raw}}}") == once


def test_answers_equal_rational_decimal_agreement():
    assert answers_equal("0.5", "\\frac{1}{2}")
    assert answers_equal("\\frac{1}{2}", "0.5")  # symmetric
    assert answers_equal("42", "42")
    assert answers_equal("2.0", "2")
    assert answers_equal("$\\frac{7}{4}$", "7/4")


def test_answers_equal_rejects_symbolic_equivalence():
    assert not answers_equal("x+1", "1+x")
    assert not answers_equal("apple", "orange")
    assert not answers_equal("1/3", "0.3333")


def test_answers_equal_float_tolerance():
    assert answers_equal("sqrt(2)", "1.41421356")
    assert not answers_equal("1.0", "1.01")


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------


def _write_problem(path, statement="What is 2+2?", solution="Easy: $\\boxed{4}$",
                   level="Level 1", subject=None):
    obj = {"problem": statement, "level": level, "solution": solution}
    if subject:
        obj["type"] = subject
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj), encoding="utf-8")


def test_load_math_dir(tmp_path):
    root = tmp_path / "dataset"
    _write_problem(root / "algebra" / "1.json")
    _write_problem(root / "algebra" / "2.json", solution="$\\boxed{\\frac{1}{2}}$")
    _write_problem(root / "arithmetic" / "1.json", subject="Arithmetic")
    problems = load_dataset(root, "math_dir")
    assert [p.id for p in problems] == ["algebra/1", "algebra/2", "arithmetic/1"]
    assert all(p.reference_answer for p in problems)
    assert problems[1].reference_answer == "1/2"
    assert problems[0].subject == "algebra"  # directory fallback
    assert problems[2].subject == "Arithmetic"  # explicit field wins


def test_load_math_dir_missing_solution_names_file(tmp_path):
    root = tmp_path / "dataset"
    bad = root / "algebra" / "1.json"
    bad.parent.mkdir(parents=True)
    bad.write_text(json.dumps({"problem": "x"}), encoding="utf-8")
    with pytest.raises(FormatError) as excinfo:
        load_dataset(root, "math_dir")
    assert "1.json" in str(excinfo.value)


def test_load_math_dir_names_a_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "dataset" / "algebra" / "1.json"
    bad.parent.mkdir(parents=True)
    bad.write_bytes(b'{"problem": "\xff", "solution": "$\\boxed{1}$"}')
    with pytest.raises(FormatError, match=f"^{re.escape(str(bad))}: 'utf-8' codec"):
        load_dataset(tmp_path / "dataset", "math_dir")


def test_load_math_dir_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope", "math_dir")


def test_unextractable_reference_flagged_empty(tmp_path):
    root = tmp_path / "dataset"
    _write_problem(root / "algebra" / "1.json", solution="no box at all")
    problems = load_dataset(root, "math_dir")
    assert problems[0].reference_answer == ""


def test_load_jsonl(tmp_path):
    path = tmp_path / "problems.jsonl"
    rows = [
        {"id": "p1", "problem": "What is 1+1?", "solution": "$\\boxed{2}$"},
        {"problem": "What is 2+2?", "solution": "$\\boxed{4}$", "level": "L2"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    problems = load_dataset(path, "jsonl")
    assert [p.id for p in problems] == ["p1", "line2"]
    assert problems[1].level == "L2"


def test_load_jsonl_reports_line_numbers(tmp_path):
    path = tmp_path / "problems.jsonl"
    path.write_text('{"problem": "x", "solution": "$\\\\boxed{1}$"}\nnot json\n',
                    encoding="utf-8")
    with pytest.raises(FormatError) as excinfo:
        load_dataset(path, "jsonl")
    assert excinfo.value.line == 2


def test_load_jsonl_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "problems.jsonl"
    row = b'{"problem": "x", "solution": "$\\boxed{1}$"}\n'
    path.write_bytes(row + row.replace(b"x", b"\xff") + row)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: 'utf-8' codec"):
        load_dataset(path, "jsonl")


@pytest.mark.parametrize("row", ["5", '["problem", "solution"]'])
def test_load_jsonl_refuses_a_line_that_is_not_an_object(tmp_path, row):
    path = tmp_path / "problems.jsonl"
    path.write_text('{"problem": "x", "solution": "$\\\\boxed{1}$"}\n' + row + "\n",
                    encoding="utf-8")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: must hold a JSON object$"):
        load_dataset(path, "jsonl")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_dataset(tmp_path, "csv")


def test_shipped_fixture_set_fully_extractable():
    from pathlib import Path

    fixtures = Path(__file__).parent / "fixtures" / "math20"
    problems = load_dataset(fixtures, "math_dir")
    assert len(problems) == 20
    assert all(p.reference_answer for p in problems)


# ---------------------------------------------------------------------------
# Eval runs
# ---------------------------------------------------------------------------


def _problems():
    return [
        Problem(id="a", statement="What is 2+2?", reference_solution="$\\boxed{4}$",
                reference_answer="4"),
        Problem(id="b", statement="What is 3+3?", reference_solution="$\\boxed{6}$",
                reference_answer="6"),
    ]


def _confident_config(name="test", wrong=()):
    kit = default_kit()
    script = {}
    for problem in _problems():
        answer = "0" if problem.id in wrong else problem.reference_answer
        script[fingerprint(request(kit, "confidence", query=problem.statement, context=""))] = (
            f"ANSWER: {answer}\nEXPLANATION: known\nCONFIDENCE: 0.9"
        )
    return EvalConfig(name=name, kit=kit, provider=ScriptedProvider(script))


def test_run_eval_scores_and_aggregates(no_network):
    report = run_eval(_confident_config(), _problems())
    assert report.aggregate.n == 2
    assert report.aggregate.n_correct == 2
    assert report.aggregate.accuracy == 1.0
    assert [r.problem_id for r in report.per_problem] == ["a", "b"]
    assert all(r.route == "system1" for r in report.per_problem)


def test_run_eval_limit_zero_gives_empty_report():
    report = run_eval(_confident_config(), _problems(), limit=0)
    assert report.aggregate.n == 0
    assert report.aggregate.accuracy == 0.0
    assert report.per_problem == ()


def test_run_eval_skips_unextractable_references():
    problems = _problems() + [
        Problem(id="c", statement="odd one", reference_solution="none",
                reference_answer="")
    ]
    report = run_eval(_confident_config(), problems)
    assert report.aggregate.n == 2


def test_run_eval_limit_below_zero_is_rejected():
    with pytest.raises(ValueError, match="limit must be >= 0"):
        run_eval(_confident_config(), _problems(), limit=-1)


def test_run_eval_records_provider_failures_and_continues(tmp_path):
    # every call fails: each problem is a failed slow-path encounter, encoded
    config = _confident_config()
    config = EvalConfig(name=config.name, kit=config.kit, provider=ScriptedProvider({}))
    report = run_eval(config, _problems(), store_dir=tmp_path / "s")
    assert report.aggregate.n == 2
    assert report.aggregate.n_correct == 0
    assert all(r.route == "system2" and not r.correct for r in report.per_problem)
    assert all("provider error" in r.explanation for r in report.per_problem)
    records = EpisodicStore.open(tmp_path / "s").records
    assert len(records) == len(_problems())
    assert [r.provider_calls for r in report.per_problem] == [
        record.metrics.provider_calls for record in records
    ] == [1, 1]


def test_run_eval_scores_a_deeply_nested_fast_path_answer_after_writing_its_record(tmp_path):
    kit, deep = default_kit(), "(" * 200 + "4" + ")" * 200
    script = {
        fingerprint(request(kit, "confidence", query=problem.statement, context="")):
            f"ANSWER: {answer}\nEXPLANATION: known\nCONFIDENCE: 0.9"
        for problem, answer in zip(_problems(), (deep, "6"))
    }
    report = run_eval(EvalConfig("deep", kit, ScriptedProvider(script)), _problems(),
                      store_dir=tmp_path / "s")
    assert [(r.answer, r.correct) for r in report.per_problem] == [(deep, False), ("6", True)]
    store = EpisodicStore.open(tmp_path / "s")
    assert [r.outcome.actual_result for r in store.records] == [deep, "6"]


def test_run_eval_wrong_answers_counted():
    report = run_eval(_confident_config(wrong=("b",)), _problems())
    assert report.aggregate.n_correct == 1
    assert report.aggregate.accuracy == 0.5


def test_report_round_trip(tmp_path):
    report = run_eval(_confident_config(), _problems())
    save_report(report, tmp_path / "r.json")
    written = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert written == json.loads(json.dumps(report_to_dict(report)))


def test_report_file_text(tmp_path):
    report = EvalReport(
        config_name="golden",
        per_problem=(
            ProblemResult("a", "\u00bd", True, "system1", 3, 1, 0, "known"),
            ProblemResult("b", "", False, "system2", 0, 1, 0, "provider error: x"),
        ),
        aggregate=Aggregate(n=2, n_correct=1, accuracy=0.5,
                            mean_elapsed_ms=1.5, median_elapsed_ms=1.5),
    )
    path = tmp_path / "r.json"
    save_report(report, path)
    assert path.read_text(encoding="utf-8") == """\
{
  "config_name": "golden",
  "per_problem": [
    {
      "problem_id": "a",
      "answer": "\u00bd",
      "correct": true,
      "route": "system1",
      "elapsed_ms": 3,
      "provider_calls": 1,
      "tool_calls": 0,
      "explanation": "known"
    },
    {
      "problem_id": "b",
      "answer": "",
      "correct": false,
      "route": "system2",
      "elapsed_ms": 0,
      "provider_calls": 1,
      "tool_calls": 0,
      "explanation": "provider error: x"
    }
  ],
  "aggregate": {
    "n": 2,
    "n_correct": 1,
    "accuracy": 0.5,
    "mean_elapsed_ms": 1.5,
    "median_elapsed_ms": 1.5
  }
}
"""


@pytest.mark.parametrize("fresh_store", [False, True])
@pytest.mark.parametrize("persistent", [False, True])
def test_run_eval_store_layouts(tmp_path, monkeypatch, fresh_store, persistent):
    opened = []
    real_open = EpisodicStore.open

    def recording_open(directory):
        opened.append(Path(directory))
        return real_open(directory)

    monkeypatch.setattr(EpisodicStore, "open", recording_open)
    store_dir = tmp_path / "stores" if persistent else None
    report = run_eval(_confident_config(), _problems(), fresh_store=fresh_store,
                      store_dir=store_dir)
    assert report.aggregate.accuracy == 1.0
    base = store_dir if persistent else opened[0].parent
    if not persistent:
        assert base.name.startswith("neolaf-eval-")
        assert not base.exists()  # the temporary directory is removed
    if fresh_store:
        assert opened == [base / "problem-0", base / "problem-1"]
    else:
        assert opened == [base if persistent else base / "shared"]


def test_fresh_store_isolation(tmp_path):
    report = run_eval(_confident_config(), _problems(), fresh_store=True,
                      store_dir=tmp_path / "stores")
    assert report.aggregate.accuracy == 1.0
    assert (tmp_path / "stores" / "problem-0").is_dir()
    assert (tmp_path / "stores" / "problem-1").is_dir()


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------


def test_compare_single_config_matches_run_eval():
    rows = compare([_confident_config("solo")], _problems())
    assert len(rows) == 1
    assert rows[0].config_name == "solo"
    assert rows[0].accuracy == 1.0


def test_compare_empty_configs_rejected():
    with pytest.raises(ValueError):
        compare([], _problems())


def test_compare_limit_below_zero_is_rejected():
    with pytest.raises(ValueError, match="limit must be >= 0"):
        compare([_confident_config()], _problems(), limit=-1)


def test_compare_fails_as_its_failing_config_does():
    """No row hides a failure behind a count of zero: a bug is a traceback."""
    class ExplodingProvider(ScriptedProvider):
        def complete(self, request):
            raise RuntimeError("boom")  # not a ProviderError: run_eval dies

    broken = EvalConfig(name="broken", kit=default_kit(),
                        provider=ExplodingProvider({}))
    with pytest.raises(RuntimeError, match="boom"):
        compare([_confident_config("fine"), broken], _problems())


def test_render_comparison_table():
    rows = compare([_confident_config("solo")], _problems())
    table = render_comparison(rows)
    assert "config" in table.splitlines()[0]
    assert "solo" in table
