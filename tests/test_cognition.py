"""Agent loop tests with scripted providers.

Scripts are built with the same request builders the loop uses, so each
test states exactly which prompts it expects the agent to make.
"""

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from neolaf.cognition import (
    ReviewRejected,
    Route,
    Solution,
    StarterKit,
    default_kit,
    kit_from_dict,
    knowledge_context,
    load_kit,
    parse_forecast,
    parse_labeled_sections,
    parse_plan,
    parse_subtasks,
    parse_system1,
    parse_verdict,
    request,
    route,
    run_system2,
    save_kit,
    solve,
)
from neolaf.harness import answers_equal, load_dataset
from neolaf.kstar import CoTaskState, GroundingEvidence, StepStatus
from neolaf.memory import (
    EpisodicStore,
    KnowledgeItem,
    KnowledgeKind,
    ValidationFailed,
    render_plan,
    step_line,
)
from neolaf.provider import (
    ProviderError,
    ScriptedProvider,
    fingerprint,
    load_script,
)
from neolaf.templates import DEFAULT_TEMPLATES
from neolaf.toolkit import ToolRegistry, default_registry

from conftest import make_record
from fixtures.generate_fixtures import CapturingProvider, make_learner, make_responder


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def kit():
    return default_kit()


@pytest.fixture
def store(tmp_path):
    return EpisodicStore.open(tmp_path / "store")


def fp(request) -> str:
    return fingerprint(request)


def happy_system2_script(kit, query, expr, context=""):
    """Transcript for a two-step slow path whose second step grounds the
    answer with the calculator."""
    from neolaf.calculator import eval_expression, render_value

    answer = render_value(eval_expression(expr))
    plan_text = (
        "STEP 1: self | restate the expression | keep fractions exact\n"
        f'STEP 2: self | TOOL calc(expr="{expr}") | exact arithmetic'
    )
    steps = parse_plan(plan_text)
    expected = f"the exact value of {expr}"
    script = {
        fp(request(kit, "situation", query=query, context=context)): f"A math question: {query}",
        fp(request(kit, "decompose", query=query, context=context)): (
            "- understand the expression\n- compute the exact value"
        ),
        fp(request(kit, "plan", query=query, context=context)): plan_text,
        fp(request(kit, "forecast", query=query, plan=render_plan(steps))): (
            f"EXPECTED: {expected}\nPROBABILITY: 0.8"
        ),
        fp(request(kit, "execute", query=query, context=context, plan=step_line(steps[0]),
                   step_output="(none yet)")): (
            "The expression is restated; ready to compute."
        ),
        fp(request(kit, "distill", query=query, plan=render_plan(steps), expected=expected,
                   actual=answer)): (
            "Lesson: ground arithmetic with the exact calculator."
        ),
    }
    return script, answer, steps


# ---------------------------------------------------------------------------
# Context block, fast path, routing
# ---------------------------------------------------------------------------


def _item(statement, item_id=1, confidence=0.5):
    return KnowledgeItem(item_id, statement, KnowledgeKind.DISTILLED, (1,), confidence)


def test_knowledge_context_empty_and_budget():
    assert knowledge_context([], 100) == ""
    with pytest.raises(ValueError):
        knowledge_context([], 0)


def test_knowledge_context_with_a_budget_of_one_word_holds_no_item():
    """A budget of 1 is a budget: no item line fits it, and it raises nothing."""
    assert knowledge_context([_item("x")], 1) == ""


def test_parse_subtasks_keeps_only_the_bullet_lines():
    reply = "Subtasks:\n- add the parts\nthen check them\n-\n-  \n-x y\n  - reduce  \n"
    assert [task.goal for task in parse_subtasks(reply)] == ["add the parts", "reduce"]


def test_knowledge_context_truncates_at_whole_items():
    items = [
        _item("one two three", 1),  # 5 words with the prefix
        _item("four five six", 2),
        _item("seven eight nine", 3),
    ]
    block = knowledge_context(items, 10)  # fits exactly two items
    lines = block.splitlines()
    assert len(lines) == 2
    assert "one two three" in lines[0] and "four five six" in lines[1]
    # never splits an item mid-statement
    assert all(line.startswith("- [") for line in lines)


def test_system1_parses_sections():
    assert parse_system1("ANSWER: 4\nEXPLANATION: sum\nCONFIDENCE: 0.9") == ("4", "sum", 0.9)


def test_system1_missing_confidence_defaults_to_zero():
    assert parse_system1("ANSWER: maybe\nEXPLANATION: unsure")[2] == 0.0


@pytest.mark.parametrize("stated, route_taken", [
    ("50%", Route.SYSTEM2), ("1e-5", Route.SYSTEM2), ("90%", Route.SYSTEM1),
    ("0.9", Route.SYSTEM1), ("7.5e-1", Route.SYSTEM1), ("80 %", Route.SYSTEM1),
])
def test_system1_reads_the_whole_confidence_literal(kit, stated, route_taken):
    _answer, _explanation, confidence = parse_system1(f"ANSWER: 4\nCONFIDENCE: {stated}")
    assert route(confidence, kit) is route_taken


def test_solve_rejects_empty_query(kit, store):
    with pytest.raises(ValueError):
        solve("  ", kit, ScriptedProvider({}), default_registry(), store)
    assert store.records == ()


def test_route_threshold_boundary(kit):
    assert route(0.9, kit) is Route.SYSTEM1
    assert route(0.3, kit) is Route.SYSTEM2
    assert route(kit.route_threshold, kit) is Route.SYSTEM1  # inclusive


def test_route_is_monotone(kit):
    accepted = False
    for i in range(101):
        decision = route(i / 100, kit)
        if decision is Route.SYSTEM1:
            accepted = True
        elif accepted:
            pytest.fail("raising confidence flipped accept back to escalate")


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------


def test_parse_plan_step_lines():
    steps = parse_plan(
        "Here is my plan:\n"
        "STEP 1: self | recall the formula | none\n"
        "STEP 2: calc | TOOL calc(expr=\"1+1\") | exact, fast\n"
    )
    assert len(steps) == 2
    assert steps[0].agent == "self" and steps[0].constraints == ("none",)
    assert steps[1].constraints == ("exact", "fast")


def test_parse_plan_free_text_fallback():
    steps = parse_plan("I will just think about it carefully.")
    assert len(steps) == 1
    assert steps[0].agent == "self"
    assert "think about it" in steps[0].skill


def test_parse_forecast_and_defaults():
    forecast = parse_forecast("EXPECTED: the value 3\nPROBABILITY: 0.8")
    assert forecast.expected_result == "the value 3"
    assert forecast.success_probability == 0.8
    assert parse_forecast("EXPECTED: 3\nPROBABILITY: 5e-1").success_probability == 0.5
    assert parse_forecast("EXPECTED: 3\nPROBABILITY: 25%").success_probability == 0.25
    fallback = parse_forecast("no sections at all")
    assert fallback.success_probability == 0.5
    assert fallback.expected_result == "no sections at all"


def test_parse_verdict():
    assert parse_verdict("VERDICT: success\nFEEDBACK: fine") == (True, "fine")
    assert parse_verdict("VERDICT: failure\nFEEDBACK: wrong sign") == (False, "wrong sign")
    assert parse_verdict("gibberish")[0] is False


def test_parse_labeled_sections_multiline():
    sections = parse_labeled_sections(
        "ANSWER: 42\nEXPLANATION: long\nstory here\nCONFIDENCE: 0.5",
        ("ANSWER", "EXPLANATION", "CONFIDENCE"),
    )
    assert sections["EXPLANATION"] == "long\nstory here"


# ---------------------------------------------------------------------------
# Starter kit
# ---------------------------------------------------------------------------


def test_kit_validation():
    with pytest.raises(ValueError):
        default_kit(route_threshold=1.5)
    with pytest.raises(ValueError):
        default_kit(context_token_budget=0)
    with pytest.raises(ValueError, match="^prompt_templates missing slots: confidence, "
                       "situation, decompose, forecast, execute, evaluate, distill$"):
        StarterKit(prompt_templates={"plan": "only one slot"})


def test_kit_refuses_a_template_that_renders_blank_with_an_empty_context():
    """{context} is the one placeholder the loop may fill with "": on an empty
    store such a template would fail its first request, not the kit's load."""
    templates = default_kit().prompt_templates
    with pytest.raises(ValueError, match="^kit text must not be blank: confidence, plan$"):
        StarterKit(prompt_templates={**templates, "confidence": "{context}",
                                     "plan": " {context}\n"})
    kit = StarterKit(prompt_templates={**templates, "confidence": "{context}{query}"})
    assert request(kit, "confidence", query="q", context="").user == "q"


def test_kit_file_round_trip(tmp_path, kit):
    path = tmp_path / "kit.json"
    save_kit(kit, path)
    assert load_kit(path) == kit
    partial = kit_from_dict({"route_threshold": 0.5})
    assert partial.route_threshold == 0.5
    assert partial.prompt_templates == kit.prompt_templates


def test_default_kit_file_text(tmp_path):
    path = tmp_path / "kit.json"
    save_kit(default_kit(), path)
    templates = ",\n".join(
        f"    {json.dumps(name)}: {json.dumps(text, ensure_ascii=False)}"
        for name, text in DEFAULT_TEMPLATES.items()
    )
    assert path.read_text(encoding="utf-8") == (
        '{\n'
        '  "system_prompt": "You are a careful problem-solving agent. '
        'Follow the requested output format exactly.",\n'
        '  "route_threshold": 0.75,\n'
        '  "r_max": 2,\n'
        '  "retrieval_k": 4,\n'
        '  "context_token_budget": 256,\n'
        '  "tool_allowlist": [\n'
        '    "calc"\n'
        '  ],\n'
        '  "prompt_templates": {\n' + templates + '\n'
        '  }\n'
        '}\n'
    )


def test_kit_from_dict_ignores_unknown_keys_and_merges_templates():
    # agent_name and d_max were kit fields once: older kit files still load
    kit = kit_from_dict({
        "agent_name": "tuned",
        "d_max": 3,
        "not_a_kit_field": 1,
        "prompt_templates": {"plan": "PLAN {query}", "extra": "x"},
    })
    assert kit.prompt_templates == {**DEFAULT_TEMPLATES, "plan": "PLAN {query}", "extra": "x"}
    assert list(kit.prompt_templates) == [*DEFAULT_TEMPLATES, "extra"]
    assert replace(kit, prompt_templates=DEFAULT_TEMPLATES) == default_kit()


@pytest.mark.parametrize("name, value", [
    ("system_prompt", 5),
    ("route_threshold", "x"),
    ("route_threshold", True),
    ("r_max", "2"),
    ("r_max", 2.0),
    ("retrieval_k", None),
    ("context_token_budget", [256]),
    ("tool_allowlist", "calc"),
])
def test_kit_from_dict_names_a_field_of_the_wrong_type(name, value):
    with pytest.raises(ValueError, match=f"kit field '{name}' must be"):
        kit_from_dict({name: value})


@pytest.mark.parametrize("obj, named", [
    ({"prompt_templates": {"plan": 5}}, "kit field 'prompt_templates' entry 'plan' must be text"),
    ({"prompt_templates": {"extra": None}}, "entry 'extra' must be text"),
    ({"tool_allowlist": ["calc", 5]}, "kit field 'tool_allowlist' entry 1 must be text"),
])
def test_kit_from_dict_names_an_entry_that_is_not_text(obj, named):
    with pytest.raises(ValueError, match=named):
        kit_from_dict(obj)


def test_kit_from_dict_takes_an_integer_for_a_float_field():
    assert kit_from_dict({"route_threshold": 1}).route_threshold == 1


def test_readme_kit_example_names_every_kit_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Starter kit files", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert list(json.loads(block)) == [f.name for f in fields(StarterKit)]


# ---------------------------------------------------------------------------
# The prompt surface: one request per template slot
# ---------------------------------------------------------------------------


PROMPT_SUBS = {"query": "What is 2+2?", "plan": "STEP 1: self | add the numbers",
               "step_output": "4", "expected": "the number 4", "actual": "4"}
KNOWN = "- [0.90] two plus two is four"

# Each slot's default request, by fingerprint, with an empty and a non-empty
# context: a prompt byte that drifts changes one. A slot whose template has
# no {context} reads the same with both.
PROMPT_FINGERPRINTS = {
    ("confidence", ""): "fbf4ee5424d571f5",
    ("situation", ""): "c3e4fc501948f62a",
    ("decompose", ""): "24f35e4dbcf0aef1",
    ("plan", ""): "27ad9ccb688cfcd9",
    ("forecast", ""): "27bf63b83bdd1b39",
    ("execute", ""): "4eccbb6763f24d3a",
    ("evaluate", ""): "d927c8d51120a2f6",
    ("distill", ""): "b2292a2191a73fe1",
    ("confidence", KNOWN): "d41d9261b17af965",
    ("situation", KNOWN): "aaae896cb4ab6a4f",
    ("decompose", KNOWN): "f3a8c638dab458ad",
    ("plan", KNOWN): "2d0fd96deecb86e8",
    ("forecast", KNOWN): "27bf63b83bdd1b39",
    ("execute", KNOWN): "4eccbb6763f24d3a",
    ("evaluate", KNOWN): "d927c8d51120a2f6",
    ("distill", KNOWN): "b2292a2191a73fe1",
}


@pytest.mark.parametrize("slot, context", PROMPT_FINGERPRINTS)
def test_each_slot_request_is_pinned(kit, slot, context):
    got = fp(request(kit, slot, context=context, **PROMPT_SUBS))
    assert got == PROMPT_FINGERPRINTS[slot, context]


# ---------------------------------------------------------------------------
# Slow path, end to end with scripts
# ---------------------------------------------------------------------------


def test_run_system2_grounds_answer_with_tool(kit, store, no_network):
    query = "Compute 1/3 + 1/6 exactly."
    script, answer, _steps = happy_system2_script(kit, query, "1/3+1/6")
    solution, record = run_system2(
        query, kit, ScriptedProvider(script), default_registry(), store
    )
    assert answer == "1/2"
    assert solution.route is Route.SYSTEM2
    assert solution.answer == "1/2"
    assert solution.record_id == record.id == 1
    assert record.metrics.tool_calls == 1
    assert len(record.outcome.grounding_evidence) == 1
    assert record.outcome.grounding_evidence[0].output == "1/2"
    assert record.outcome.success
    assert record.task.cotasks.grounding is CoTaskState.DONE
    assert record.metrics.replans == 0
    # the encounter stayed inside its provider budget: 4 + 2 * steps
    assert record.metrics.provider_calls <= 4 + 2 * len(record.plan)
    # reinforcement + distilled knowledge both captured
    kinds = sorted(item.kind.value for item in store.knowledge)
    assert kinds == ["distilled", "reinforcement"]
    assert record.knowledge_delta == tuple(item.id for item in store.knowledge)


def test_run_system2_unscripted_distill_still_encodes(kit, store, tmp_path, no_network):
    query = "Compute 1/3 + 1/6 exactly."
    script, _answer, steps = happy_system2_script(kit, query, "1/3+1/6")
    _, full = run_system2(
        query, kit, ScriptedProvider(script), default_registry(),
        EpisodicStore.open(tmp_path / "full"),
    )
    del script[fp(request(kit, "distill", query=query, plan=render_plan(steps),
                          expected="the exact value of 1/3+1/6", actual="1/2"))]
    solution, record = run_system2(
        query, kit, ScriptedProvider(script), default_registry(), store
    )
    assert solution.answer == "1/2" and record.outcome.success
    assert store.records == (record,)
    # the rule item alone, and the failed distill call still counted
    assert [item.kind for item in store.knowledge] == [KnowledgeKind.REINFORCEMENT]
    assert record.knowledge_delta == (store.knowledge[0].id,)
    assert record.metrics.provider_calls == full.metrics.provider_calls == 6


def test_run_system2_failure_then_replan(kit, store, no_network):
    query = "Compute 5/8 - 1/8."
    context = ""
    bad_plan = 'STEP 1: self | TOOL calc(expr="1/0") | exact'
    bad_steps = parse_plan(bad_plan)
    failure_note = "DivisionByZero: division by zero"
    retry_context = f"Previous attempt failed: {failure_note}"
    good_plan = 'STEP 1: self | TOOL calc(expr="5/8-1/8") | exact'
    good_steps = parse_plan(good_plan)
    script = {
        fp(request(kit, "situation", query=query, context=context)): (
            f"A subtraction task: {query}"
        ),
        fp(request(kit, "decompose", query=query, context=context)): "- compute the difference",
        fp(request(kit, "plan", query=query, context=context)): bad_plan,
        fp(request(kit, "forecast", query=query, plan=render_plan(bad_steps))): (
            "EXPECTED: an exact fraction\nPROBABILITY: 0.8"
        ),
        fp(request(kit, "plan", query=query, context=retry_context)): good_plan,
        fp(request(kit, "forecast", query=query, plan=render_plan(good_steps))): (
            "EXPECTED: an exact fraction\nPROBABILITY: 0.8"
        ),
        fp(request(kit, "distill", query=query, plan=render_plan(good_steps),
                   expected="an exact fraction", actual="1/2")): (
            "Lesson: never divide by zero."
        ),
    }
    solution, record = run_system2(
        query, kit, ScriptedProvider(script), default_registry(), store
    )
    assert solution.answer == "1/2"
    assert record.metrics.replans == 1
    assert record.outcome.success
    correctives = [i for i in store.knowledge if i.kind is KnowledgeKind.CORRECTIVE]
    reinforcements = [i for i in store.knowledge if i.kind is KnowledgeKind.REINFORCEMENT]
    assert len(correctives) == 1
    assert len(reinforcements) == 1
    assert correctives[0].provenance == (record.id,)
    # superseded segments are gone: the final record holds the good plan,
    # while id and situation survived the replan cycle
    assert record.plan[0].skill == good_steps[0].skill
    assert "1/0" not in record.plan[0].skill
    assert record.situation.description == f"A subtraction task: {query}"
    assert len(store.records) == 1
    # provider budget for a replanning transcript
    steps = len(record.plan)
    budget = 4 + 2 * steps + record.metrics.replans * (2 + 2 * steps)
    assert record.metrics.provider_calls <= budget


def test_run_system2_budget_exhausted_encodes_failure(kit, store, no_network):
    query = "Divide something by zero."
    context = ""
    bad_plan = 'STEP 1: self | TOOL calc(expr="1/0") | exact'
    bad_steps = parse_plan(bad_plan)
    failure_note = "DivisionByZero: division by zero"
    retry_context = f"Previous attempt failed: {failure_note}"
    forecast_text = "EXPECTED: a number\nPROBABILITY: 0.8"
    script = {
        fp(request(kit, "situation", query=query, context=context)): "An impossible division.",
        fp(request(kit, "decompose", query=query, context=context)): "- divide",
        fp(request(kit, "plan", query=query, context=context)): bad_plan,
        fp(request(kit, "plan", query=query, context=retry_context)): bad_plan,
        fp(request(kit, "forecast", query=query, plan=render_plan(bad_steps))): forecast_text,
        fp(
            request(
                kit, "distill", query=query, plan=render_plan(bad_steps), expected="a number",
                actual=f"step '{bad_steps[0].skill}' failed: {failure_note}",
            )
        ): "Lesson: division by zero cannot be repaired by retrying.",
    }
    solution, record = run_system2(
        query, kit, ScriptedProvider(script), default_registry(), store
    )
    assert not record.outcome.success
    assert record.metrics.replans == kit.r_max == 2
    assert solution.route is Route.SYSTEM2
    assert record.plan[0].status is StepStatus.FAILED
    # every failed attempt left a corrective lesson
    correctives = [i for i in store.knowledge if i.kind is KnowledgeKind.CORRECTIVE]
    assert len(correctives) == kit.r_max + 1


def test_run_system2_review_rejection(kit, store):
    query = "Compute 1/3 + 1/6 exactly."
    script, _, _ = happy_system2_script(kit, query, "1/3+1/6")
    with pytest.raises(ReviewRejected):
        run_system2(
            query, kit, ScriptedProvider(script), default_registry(), store,
            plan_review=lambda steps: False,
        )
    assert store.records == ()  # nothing executed, nothing encoded


def test_run_system2_approved_review_sees_each_attempt(kit, store, no_network):
    # the replanning transcript of test_run_system2_failure_then_replan
    query = "Compute 5/8 - 1/8."
    bad_plan = 'STEP 1: self | TOOL calc(expr="1/0") | exact'
    bad_steps = parse_plan(bad_plan)
    retry_context = "Previous attempt failed: DivisionByZero: division by zero"
    good_plan = 'STEP 1: self | TOOL calc(expr="5/8-1/8") | exact'
    good_steps = parse_plan(good_plan)
    forecast_text = "EXPECTED: an exact fraction\nPROBABILITY: 0.8"
    script = {
        fp(request(kit, "situation", query=query, context="")): f"A subtraction task: {query}",
        fp(request(kit, "decompose", query=query, context="")): "- compute the difference",
        fp(request(kit, "plan", query=query, context="")): bad_plan,
        fp(request(kit, "forecast", query=query, plan=render_plan(bad_steps))): forecast_text,
        fp(request(kit, "plan", query=query, context=retry_context)): good_plan,
        fp(request(kit, "forecast", query=query, plan=render_plan(good_steps))): forecast_text,
        fp(request(kit, "distill", query=query, plan=render_plan(good_steps),
                   expected="an exact fraction", actual="1/2")): (
            "Lesson: never divide by zero."
        ),
    }
    reviewed = []

    def approve(steps):
        reviewed.append(steps)
        return True

    solution, record = run_system2(
        query, kit, ScriptedProvider(script), default_registry(), store, plan_review=approve
    )
    assert reviewed == [bad_steps, good_steps]  # each attempt's plan, in order
    assert solution.answer == "1/2" and record.metrics.replans == 1
    # the record holds the plan approved last, as executed
    assert [(s.agent, s.skill, s.constraints) for s in record.plan] == [
        (s.agent, s.skill, s.constraints) for s in reviewed[-1]
    ]
    assert record.plan[0].status is StepStatus.EXECUTED


# ---------------------------------------------------------------------------
# solve(): routing, records, determinism
# ---------------------------------------------------------------------------


def confident_script(kit, query, answer):
    return {
        fp(request(kit, "confidence", query=query, context="")): (
            f"ANSWER: {answer}\nEXPLANATION: directly known\nCONFIDENCE: 0.9"
        )
    }


def test_solve_accepts_confident_fast_answer(kit, store, no_network):
    query = "What is 2+2?"
    solution = solve(
        query, kit, ScriptedProvider(confident_script(kit, query, "4")),
        default_registry(), store,
    )
    assert solution.route is Route.SYSTEM1
    assert solution.answer == "4"
    assert solution.provider_calls == 1
    assert solution.tool_calls == 0
    assert solution.record_id == 1
    # the lightweight record is a full, valid encounter
    record = store.get_record(1)
    assert record.outcome.actual_result == "4"
    assert record.task.cotasks.grounding is CoTaskState.SKIPPED
    assert len(record.plan) == 1


def test_solve_escalates_low_confidence(kit, store, no_network):
    query = "Compute 1/3 + 1/6 exactly."
    script, _, _ = happy_system2_script(kit, query, "1/3+1/6")
    script[fp(request(kit, "confidence", query=query, context=""))] = (
        "ANSWER: unsure\nEXPLANATION: needs tools\nCONFIDENCE: 0.3"
    )
    solution = solve(
        query, kit, ScriptedProvider(script), default_registry(), store
    )
    assert solution.route is Route.SYSTEM2
    assert solution.record_id is not None
    assert solution.answer == "1/2"
    assert solution.provider_calls >= 4
    assert len(store.records) == 1
    assert_record_matches(store, solution)


class RecordingProvider(ScriptedProvider):
    """A scripted provider that keeps every request it is asked."""

    def __init__(self, script):
        super().__init__(script)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return super().complete(request)


@pytest.mark.parametrize("way_in", ("fast solve", "escalated solve", "run_system2"))
def test_one_retrieve_per_encounter(kit, store, monkeypatch, no_network, way_in):
    query = "Compute 1/3 + 1/6 exactly."
    script, _, _ = happy_system2_script(kit, query, "1/3+1/6")
    run_system2(query, kit, ScriptedProvider(script), default_registry(), store)
    context = knowledge_context(store.retrieve(query, kit.retrieval_k), kit.context_token_budget)
    assert context  # the first encounter left knowledge to retrieve
    script, answer, _ = happy_system2_script(kit, query, "1/3+1/6", context)
    confidence = 0.9 if way_in == "fast solve" else 0.3
    script[fp(request(kit, "confidence", query=query, context=context))] = (
        f"ANSWER: {answer}\nEXPLANATION: known\nCONFIDENCE: {confidence}"
    )
    provider = RecordingProvider(script)
    retrieves, retrieve = [], EpisodicStore.retrieve

    def counting(self, *args):
        retrieves.append(args)
        return retrieve(self, *args)

    monkeypatch.setattr(EpisodicStore, "retrieve", counting)
    if way_in == "run_system2":
        solution, _ = run_system2(query, kit, provider, default_registry(), store)
    else:
        solution = solve(query, kit, provider, default_registry(), store)
    assert retrieves == [(query, kit.retrieval_k)]
    assert solution.answer == answer
    seen = [fp(request) for request in provider.requests]
    fast = fp(request(kit, "confidence", query=query, context=context))
    slow = fp(request(kit, "situation", query=query, context=context))
    assert seen[:2] == {
        "fast solve": [fast],
        "escalated solve": [fast, slow],  # the slow path reads the fast path's context
        "run_system2": [slow, fp(request(kit, "decompose", query=query, context=context))],
    }[way_in]


def assert_record_matches(store, solution):
    """The stored record counts and times the encounter as its Solution does."""
    metrics = store.get_record(solution.record_id).metrics
    assert (metrics.provider_calls, metrics.tool_calls, metrics.latency_ms) == (
        solution.provider_calls, solution.tool_calls, solution.elapsed_ms
    )


@pytest.mark.parametrize("system1_only", (False, True))
def test_solve_records_carry_their_solution_counts(kit, store, system1_only, no_network):
    provider = ScriptedProvider(load_script(FIXTURES / "script.json"))
    kit = replace(kit, route_threshold=0.0) if system1_only else kit
    routes = []
    for problem in load_dataset(FIXTURES / "math20", "math_dir"):
        solution = solve(problem.statement, kit, provider, default_registry(), store)
        assert_record_matches(store, solution)
        routes.append(solution.route)
    # the fixture escalates its six tool problems unless system1_only
    assert routes.count(Route.SYSTEM2) == (0 if system1_only else 6)
    assert len(store.records) == 20


def test_experience_moves_repeat_problems_to_the_fast_path(kit, store, no_network):
    # encode -> retrieve -> context -> route: a model that reads its
    # retrieved experience answers a problem it solved before on the
    # fast path, in one call
    provider = CapturingProvider(make_learner(), {})
    problems = load_dataset(FIXTURES / "math20", "math_dir")
    passes = []
    for _ in range(2):
        solutions = [
            (solve(p.statement, kit, provider, default_registry(), store), p) for p in problems
        ]
        passes.append((
            sum(s.provider_calls for s, _ in solutions),
            sum(answers_equal(s.answer, p.reference_answer) for s, p in solutions),
            sum(s.route is Route.SYSTEM2 for s, _ in solutions),
        ))
    assert passes == [(56, 20, 6), (20, 20, 0)]


def test_solve_system1_only_accepts_anything(kit, store):
    query = "Compute 1/3 + 1/6 exactly."
    script = {
        fp(request(kit, "confidence", query=query, context="")): (
            "ANSWER: 2/6\nEXPLANATION: guessing\nCONFIDENCE: 0.1"
        )
    }
    fast_only = replace(kit, route_threshold=0.0)
    solution = solve(query, fast_only, ScriptedProvider(script), default_registry(), store)
    assert solution.route is Route.SYSTEM1
    assert solution.answer == "2/6"


def test_solve_deterministic_modulo_elapsed(kit, tmp_path, no_network):
    query = "Compute 1/3 + 1/6 exactly."
    script, _, _ = happy_system2_script(kit, query, "1/3+1/6")
    script[fp(request(kit, "confidence", query=query, context=""))] = (
        "ANSWER: unsure\nEXPLANATION: needs tools\nCONFIDENCE: 0.3"
    )
    solutions = []
    for name in ("a", "b"):
        store = EpisodicStore.open(tmp_path / name)
        solution = solve(query, kit, ScriptedProvider(script), default_registry(), store)
        solutions.append(replace(solution, elapsed_ms=0))
    assert solutions[0] == solutions[1]


def test_memory_closure_exact_repeat_retrieval(kit, store, no_network):
    query = "Compute 1/3 + 1/6 exactly."
    script, _, _ = happy_system2_script(kit, query, "1/3+1/6")
    _solution, record = run_system2(
        query, kit, ScriptedProvider(script), default_registry(), store
    )
    hits = store.retrieve(record.situation.description, 3)
    assert any(record.id in item.provenance for item in hits)


def test_store_grows_by_one_per_solve(kit, store, no_network):
    queries = ("What is 2+2?", "What is 3+3?")
    script = {}
    for query, answer in zip(queries, ("4", "6")):
        script.update(confident_script(kit, query, answer))
    provider = ScriptedProvider(script)
    solve(queries[0], kit, provider, default_registry(), store)
    assert len(store.records) == 1
    # second solve retrieves nothing (no knowledge from system-1 records)
    solve(queries[1], kit, provider, default_registry(), store)
    assert len(store.records) == 2


# ---------------------------------------------------------------------------
# The tool path: plan-step directives, directive lines in execute replies,
# and the calc check of the final answer
# ---------------------------------------------------------------------------

def calc_evidence(expr, output):
    return GroundingEvidence("calc", json.dumps({"expr": expr}), output)


def one_attempt(kit, store, plan_text, replies=(), registry=None):
    """Run one slow-path attempt (no replans) on ``plan_text``.

    ``replies`` answers the execute requests of prose steps, as
    (step index, prior outputs, reply text). Evaluate and distill are
    unscripted, so they fail and are caught."""
    query, steps = "Work out the sum.", parse_plan(plan_text)
    script = {
        fp(request(kit, "situation", query=query, context="")): "A sum.",
        fp(request(kit, "decompose", query=query, context="")): "- add",
        fp(request(kit, "plan", query=query, context="")): plan_text,
        fp(request(kit, "forecast", query=query, plan=render_plan(steps))): (
            "EXPECTED: a number\nPROBABILITY: 0.8"
        ),
    }
    for index, prior, reply in replies:
        script[fp(request(kit, "execute", query=query, context="", plan=step_line(steps[index]),
                          step_output=prior or "(none yet)"))] = reply
    registry = registry or default_registry()
    return run_system2(query, replace(kit, r_max=0), ScriptedProvider(script), registry, store)


def step_results(record):
    return [(step.status, step.observed_output) for step in record.plan]


EXECUTED, FAILED, SKIPPED = StepStatus.EXECUTED, StepStatus.FAILED, StepStatus.SKIPPED


@pytest.mark.parametrize("allowlist, expr, steps, evidence, success", [
    (("calc",), "2+3", [(EXECUTED, "5")], (calc_evidence("2+3", "5"),), True),
    ((), "2+3", [(FAILED, "ToolNotAllowed: 'calc' is not in the kit allowlist"), (SKIPPED, None)],
     (), False),
    (("calc",), "1/0", [(FAILED, "DivisionByZero: division by zero"), (SKIPPED, None)],
     (), False),
], ids=["succeeds", "refused-by-the-allowlist", "fails"])
def test_plan_step_directive(kit, store, no_network, allowlist, expr, steps, evidence, success):
    plan = f'STEP 1: self | TOOL calc(expr="{expr}") | exact'
    if len(steps) == 2:
        plan += "\nSTEP 2: self | report the sum"
    solution, record = one_attempt(replace(kit, tool_allowlist=allowlist), store, plan)
    assert step_results(record) == steps
    assert record.outcome.grounding_evidence == evidence
    assert record.outcome.success is success
    # a refused tool is a tool call too
    assert record.metrics.tool_calls == solution.tool_calls == 1
    assert solution.answer == ("5" if success else "")


def test_execute_reply_directives_all_run(kit, store, no_network):
    reply = 'Two sums.\nTOOL calc(expr="1+1")\nTOOL calc (expr="9")\nTOOL calc(expr="2*3")'
    observed = f"{reply}\n[calc] 2\n[calc] 6"
    solution, record = one_attempt(
        kit, store, "STEP 1: self | work it out\nSTEP 2: self | report the result",
        replies=[(0, "", reply), (1, observed, "ANSWER: 6")],
    )
    # the near-miss line is prose; the other two are invoked in order
    assert step_results(record) == [(EXECUTED, observed), (EXECUTED, "ANSWER: 6")]
    assert record.outcome.grounding_evidence == (
        calc_evidence("1+1", "2"), calc_evidence("2*3", "6"),
    )
    assert record.metrics.tool_calls == solution.tool_calls == 2
    assert record.outcome.success and solution.answer == "6"
    assert record.task.cotasks.grounding is CoTaskState.DONE


def test_execute_reply_failing_directive_stops_the_step(kit, store, no_network):
    reply = 'Two sums.\nTOOL calc(expr="1+1")\nTOOL calc(expr="1/0")\nTOOL calc(expr="3+3")'
    solution, record = one_attempt(
        kit, store, "STEP 1: self | work it out\nSTEP 2: self | report the result",
        replies=[(0, "", reply)],
    )
    failed = f"{reply}\n[calc] 2\n[calc] failed: DivisionByZero: division by zero"
    assert step_results(record) == [(FAILED, failed), (SKIPPED, None)]
    # the line after the failure was not invoked
    assert record.outcome.grounding_evidence == (calc_evidence("1+1", "2"),)
    assert record.metrics.tool_calls == solution.tool_calls == 2
    assert not record.outcome.success
    assert record.outcome.feedback == failed


def test_execute_reply_line_with_an_over_long_number_is_prose(kit, store, no_network):
    # more digits than int() converts: a malformed directive, so prose
    reply = f"TOOL calc(expr={'1' * 5000})\nANSWER: 2+3"
    solution, record = one_attempt(
        kit, store, "STEP 1: self | add the numbers", replies=[(0, "", reply)]
    )
    assert step_results(record) == [(EXECUTED, reply)]
    # the one tool call is the calc check of the answer
    assert record.outcome.grounding_evidence == (calc_evidence("2+3", "5"),)
    assert record.metrics.tool_calls == solution.tool_calls == 1
    assert solution.answer == "5"


def _failing_calc_registry():
    def offline(args):
        raise RuntimeError("offline")

    return ToolRegistry({"calc": (offline, ("expr",))})


def test_calc_check_grounds_a_bare_numeric_answer(kit, store, no_network):
    solution, record = one_attempt(
        kit, store, "STEP 1: self | add the numbers", replies=[(0, "", "ANSWER: 2+3")]
    )
    assert step_results(record) == [(EXECUTED, "ANSWER: 2+3")]
    assert record.outcome.grounding_evidence == (calc_evidence("2+3", "5"),)
    assert record.outcome.actual_result == "5" and record.outcome.success
    assert record.metrics.tool_calls == solution.tool_calls == 1
    assert solution.answer == "5"
    assert record.task.cotasks.grounding is CoTaskState.DONE


def test_calc_check_that_fails_fails_the_outcome(kit, store, no_network):
    solution, record = one_attempt(
        kit, store, "STEP 1: self | add the numbers", replies=[(0, "", "ANSWER: 2+3")],
        registry=_failing_calc_registry(),
    )
    assert step_results(record) == [(EXECUTED, "ANSWER: 2+3")]
    assert record.outcome.grounding_evidence == ()
    assert record.outcome.actual_result == "answer '2+3' failed grounding"
    assert record.outcome.feedback == "RuntimeError: offline"
    assert not record.outcome.success
    assert record.metrics.tool_calls == solution.tool_calls == 1
    assert solution.answer == "2+3"
    assert record.task.cotasks.grounding is CoTaskState.DONE


def test_no_calc_check_without_calc_in_the_allowlist(kit, store, no_network):
    solution, record = one_attempt(
        replace(kit, tool_allowlist=()), store, "STEP 1: self | add the numbers",
        replies=[(0, "", "ANSWER: 2+3")],
    )
    assert record.outcome.grounding_evidence == ()
    assert record.outcome.feedback.startswith("evaluation unavailable: ")
    assert record.metrics.tool_calls == solution.tool_calls == 0
    assert record.task.cotasks.grounding is CoTaskState.SKIPPED


# ---------------------------------------------------------------------------
# Encoding: every encounter is encoded, and validation fails one way
# ---------------------------------------------------------------------------


def test_lone_surrogate_in_a_fast_reply_is_encoded(kit, tmp_path, no_network):
    query = "What is 2+2?"
    script = {
        fp(request(kit, "confidence", query=query, context="")): (
            "ANSWER: 4 \ud800\nEXPLANATION: sum\nCONFIDENCE: 0.9"
        )
    }
    store = EpisodicStore.open(tmp_path / "store")
    solution = solve(query, kit, ScriptedProvider(script), default_registry(), store)
    assert solution.answer == "4 \ufffd"
    reopened = EpisodicStore.open(tmp_path / "store")
    assert reopened.records == store.records
    assert reopened.get_record(solution.record_id).outcome.actual_result == "4 \ufffd"


def test_lone_surrogate_in_a_slow_path_lesson_is_encoded(kit, tmp_path, no_network):
    query = "Compute 1/3 + 1/6 exactly."
    script, _answer, steps = happy_system2_script(kit, query, "1/3+1/6")
    lesson = fp(request(kit, "distill", query=query, plan=render_plan(steps),
                        expected="the exact value of 1/3+1/6", actual="1/2"))
    script[lesson] = "Lesson: ground \udfff arithmetic with the calculator."
    store = EpisodicStore.open(tmp_path / "store")
    _solution, record = run_system2(query, kit, ScriptedProvider(script), default_registry(), store)
    reopened = EpisodicStore.open(tmp_path / "store")
    assert reopened.records == (record,)
    assert reopened.knowledge == store.knowledge
    assert any("ground \ufffd arithmetic" in item.statement for item in reopened.knowledge)


@pytest.mark.parametrize("confidence", ["0.9", "0.3"], ids=["fast-path", "slow-path"])
def test_record_failing_validation_raises_validation_failed(
    kit, store, monkeypatch, no_network, confidence, rng
):
    query = "Compute 1/3 + 1/6 exactly."
    script, _, _ = happy_system2_script(kit, query, "1/3+1/6")
    script[fp(request(kit, "confidence", query=query, context=""))] = (
        f"ANSWER: 1/2\nEXPLANATION: sum\nCONFIDENCE: {confidence}"
    )
    # A store that already holds a record and an item; with retrieval_k 0
    # the item is not retrieved, so the prompts carry no context, as scripted.
    seeded = store.store_record(make_record(rng))
    store.add_knowledge(KnowledgeItem(0, "exact sums", KnowledgeKind.DISTILLED, (1,), 0.6))
    files = (store.log_path, store.knowledge_path)
    before = [path.read_bytes() for path in files]
    monkeypatch.setattr("neolaf.memory.validate_record", lambda record: ["forced violation"])
    with pytest.raises(ValidationFailed, match="forced violation"):
        solve(query, replace(kit, retrieval_k=0), ScriptedProvider(script), default_registry(),
              store)
    assert store.records == (seeded,)
    # the commit checks before it writes: no record, and no knowledge naming one
    assert [path.read_bytes() for path in files] == before


@pytest.mark.parametrize("system1_only", (False, True))
def test_each_encounter_is_one_commit(kit, store, count_writes, system1_only, no_network):
    """A fast-path encounter makes one write, its record; a slow-path one
    makes two, its record and then its new knowledge, also when it reinforced
    what it used. The retrieve writes nothing, whether or not it ranks anything."""
    provider = ScriptedProvider(load_script(FIXTURES / "script.json"))
    kit = replace(kit, route_threshold=0.0) if system1_only else kit
    writes = count_writes()
    seen, reinforced = set(), 0
    for problem in load_dataset(FIXTURES / "math20", "math_dir"):
        before = len(writes)
        solution = solve(problem.statement, kit, provider, default_registry(), store)
        record = store.get_record(solution.record_id)
        used = bool(record.knowledge_used)
        assert len(writes) - before == (1 if solution.route is Route.SYSTEM1 else 2), problem.id
        seen.add((solution.route, used))
        reinforced += bool(set(record.knowledge_used) & set(record.knowledge_delta))
    # every case occurs: both routes, with and without retrieved knowledge
    every = {(route_taken, used) for route_taken in Route for used in (False, True)}
    assert seen == ({(Route.SYSTEM1, False)} if system1_only else every)
    assert reinforced == (0 if system1_only else 5)


def test_passes_on_one_store_write_each_knowledge_line_once(kit, tmp_path, no_network):
    """A reinforcement is a fact of its record: five slow-path passes write one
    line per item, and the open folds the same confidences back in."""
    provider = CapturingProvider(make_responder(), {})
    store = EpisodicStore.open(tmp_path / "s")
    for _ in range(5):
        for problem in load_dataset(FIXTURES / "math20", "math_dir"):
            solve(problem.statement, kit, provider, default_registry(), store)
    lines = (tmp_path / "s" / "knowledge.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(store.knowledge) == 60  # six slow-path problems, two items each
    assert any(item.confidence > 0.8 for item in store.knowledge)  # some were reinforced
    reopened = EpisodicStore.open(tmp_path / "s")
    assert [(i.id, i.confidence) for i in reopened.knowledge] == [
        (i.id, i.confidence) for i in store.knowledge
    ]
    assert reopened.knowledge == store.knowledge


@pytest.mark.parametrize("path", ["solve", "run_system2"])
def test_lone_surrogate_in_the_query_is_encoded(kit, tmp_path, no_network, path):
    query, cleaned = "Compute 1/3 + 1/6 \udcff exactly.", "Compute 1/3 + 1/6 \ufffd exactly."
    store = EpisodicStore.open(tmp_path / "store")
    if path == "solve":
        script = confident_script(kit, cleaned, "1/2")
        solution = solve(query, kit, ScriptedProvider(script), default_registry(), store)
        record = store.get_record(solution.record_id)
    else:
        script, _answer, _steps = happy_system2_script(kit, cleaned, "1/3+1/6")
        _solution, record = run_system2(
            query, kit, ScriptedProvider(script), default_registry(), store
        )
    assert record.task.goal == cleaned and record.outcome.success
    assert EpisodicStore.open(tmp_path / "store").records == store.records


# ---------------------------------------------------------------------------
# Provider failures: a failed call reads as an empty reply, and so does
# every later call of the encounter, which is not made
# ---------------------------------------------------------------------------

PHASES = ("confidence", "situation", "decompose", "plan", "forecast", "execute", "evaluate",
          "distill")


def every_phase_script(kit, query):
    """A slow-path encounter that calls each template once, in ``PHASES``
    order: its requests by phase, and the script answering them."""
    plan_text = "STEP 1: self | name the colour"
    steps = parse_plan(plan_text)
    plan = render_plan(steps)
    replies = {
        "confidence": (request(kit, "confidence", query=query, context=""),
                       "ANSWER: ?\nCONFIDENCE: 0.1"),
        "situation": (request(kit, "situation", query=query, context=""), "A colour question."),
        "decompose": (request(kit, "decompose", query=query, context=""), "- name it"),
        "plan": (request(kit, "plan", query=query, context=""), plan_text),
        "forecast": (request(kit, "forecast", query=query, plan=plan),
                     "EXPECTED: a colour\nPROBABILITY: 0.8"),
        "execute": (request(kit, "execute", query=query, context="", plan=step_line(steps[0]),
                            step_output="(none yet)"), "ANSWER: blue"),
        "evaluate": (request(kit, "evaluate", query=query, expected="a colour", actual="blue"),
                     "VERDICT: success"),
        "distill": (request(kit, "distill", query=query, plan=plan, expected="a colour",
                            actual="blue"), "Lesson: say it."),
    }
    requests = {phase: request for phase, (request, _text) in replies.items()}
    return requests, {fp(request): text for request, text in replies.values()}


class FailingProvider(ScriptedProvider):
    """The script's replies, but a ProviderError on each request that
    ``fails``; counts the calls it gets."""

    def __init__(self, script, fails):
        super().__init__(script)
        self.fails, self.calls = fails, 0

    def complete(self, request):
        self.calls += 1
        if self.fails(request):
            raise ProviderError("endpoint down")
        return super().complete(request)


def test_every_phase_script_makes_one_call_per_phase(kit, store, no_network):
    query = "What colour is the sky?"
    requests, script = every_phase_script(kit, query)
    provider = FailingProvider(script, lambda request: False)
    solution = solve(query, kit, provider, default_registry(), store)
    assert solution.answer == "blue" and store.records[0].outcome.success
    assert solution.provider_calls == provider.calls == len(PHASES) == len(requests)


@pytest.mark.parametrize("phase", PHASES)
def test_a_provider_error_in_any_phase_is_encoded(kit, tmp_path, no_network, phase):
    query = "What colour is the sky?"
    requests, script = every_phase_script(kit, query)
    provider = FailingProvider(script, lambda request: fp(request) == fp(requests[phase]))
    store = EpisodicStore.open(tmp_path / "store")
    solution = solve(query, kit, provider, default_registry(), store)
    assert isinstance(solution, Solution) and solution.route is Route.SYSTEM2
    (record,) = store.records
    assert EpisodicStore.open(tmp_path / "store").records == (record,)
    # the failed attempt counts, and no call is made after it
    assert solution.provider_calls == provider.calls == PHASES.index(phase) + 1
    assert_record_matches(store, solution)
    # only a failed lesson leaves the answer standing
    assert record.outcome.success is (phase == "distill")
    assert record.metrics.replans == 0


@pytest.mark.parametrize("phase", ("confidence", "situation", "decompose", "plan"))
def test_a_failed_plan_is_encoded_without_review(kit, store, no_network, phase):
    query = "What colour is the sky?"
    requests, script = every_phase_script(kit, query)
    provider = FailingProvider(script, lambda request: fp(request) == fp(requests[phase]))
    reviewed = []
    solution = solve(query, kit, provider, default_registry(), store,
                     plan_review=lambda steps: reviewed.append(steps) or False)
    assert reviewed == []  # the placeholder plan of a failed call is not proposed
    (record,) = store.records
    assert solution.route is Route.SYSTEM2 and solution.record_id == record.id
    assert not record.outcome.success and record.metrics.replans == 0
    assert "provider error: endpoint down" in solution.explanation


@pytest.mark.parametrize("system1_only", (False, True))
def test_a_dead_provider_costs_one_call_per_encounter(kit, store, no_network, system1_only):
    provider = FailingProvider({}, lambda request: True)
    kit = replace(kit, route_threshold=0.0) if system1_only else kit
    for n, query in enumerate(("What is 2+2?", "What colour is the sky?"), 1):
        solution = solve(query, kit, provider, default_registry(), store)
        assert solution.route is Route.SYSTEM2
        assert solution.provider_calls == 1 and provider.calls == n
        assert "provider error: endpoint down" in solution.explanation
        record = store.get_record(solution.record_id)
        assert not record.outcome.success and record.metrics.replans == 0
        (item,) = [store.get_knowledge(i) for i in record.knowledge_delta]
        assert item.kind is KnowledgeKind.CORRECTIVE
    assert len(store.records) == 2
