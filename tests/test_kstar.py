"""State machine, validation, and canonical codec tests."""

import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from neolaf.kstar import (
    ActionStep,
    CoTasks,
    CoTaskState,
    EncounterEvent,
    EncounterMetrics,
    EncounterPhase,
    EncounterState,
    Forecast,
    GroundingEvidence,
    IllegalTransition,
    KstarRecord,
    MalformedRecord,
    Outcome,
    ReplanBudgetExhausted,
    Situation,
    SituationSource,
    StepStatus,
    TRANSITIONS,
    TaskSpec,
    advance,
    deserialize_record,
    dumps,
    serialize_record,
    validate_record,
)

from conftest import make_record

from dataclasses import replace


LEGAL = {
    (EncounterPhase.CREATED, EncounterEvent.IDENTIFY): EncounterPhase.SITUATION_IDENTIFIED,
    (EncounterPhase.SITUATION_IDENTIFIED, EncounterEvent.DEFINE_TASK): EncounterPhase.TASK_DEFINED,
    (EncounterPhase.TASK_DEFINED, EncounterEvent.PLAN): EncounterPhase.PLANNED,
    (EncounterPhase.PLANNED, EncounterEvent.FORECAST): EncounterPhase.FORECASTED,
    (EncounterPhase.FORECASTED, EncounterEvent.BEGIN_EXECUTION): EncounterPhase.EXECUTING,
    (EncounterPhase.EXECUTING, EncounterEvent.EVALUATE): EncounterPhase.EVALUATED,
    (EncounterPhase.EVALUATED, EncounterEvent.REPLAN): EncounterPhase.PLANNED,
    (EncounterPhase.EVALUATED, EncounterEvent.ENCODE): EncounterPhase.ENCODED,
}


def test_transition_table_matches_expected_pairs():
    assert TRANSITIONS == LEGAL


def test_exhaustive_state_event_grid():
    # all 8 states x 9 events behave per the table
    checked = 0
    for phase in EncounterPhase:
        for event in EncounterEvent:
            state = EncounterState(phase=phase, replan_count=0)
            if (phase, event) in LEGAL:
                assert advance(state, event).phase is LEGAL[(phase, event)]
            else:
                with pytest.raises(IllegalTransition):
                    advance(state, event)
            checked += 1
    assert checked == 72


def test_finish_execution_is_never_legal():
    for phase in EncounterPhase:
        with pytest.raises(IllegalTransition):
            advance(EncounterState(phase=phase), EncounterEvent.FINISH_EXECUTION)


def test_execution_before_forecast_rejected():
    state = EncounterState(phase=EncounterPhase.PLANNED)
    with pytest.raises(IllegalTransition):
        advance(state, EncounterEvent.BEGIN_EXECUTION)


def test_unknown_event_value_rejected():
    with pytest.raises(ValueError):
        advance(EncounterState(), "Bogus")


def test_replan_increments_and_respects_budget():
    state = EncounterState(phase=EncounterPhase.EVALUATED, replan_count=0)
    state = advance(state, EncounterEvent.REPLAN, replan_budget=2)
    assert state == EncounterState(EncounterPhase.PLANNED, 1)
    state = EncounterState(phase=EncounterPhase.EVALUATED, replan_count=2)
    with pytest.raises(ReplanBudgetExhausted):
        advance(state, EncounterEvent.REPLAN, replan_budget=2)


def test_encoded_only_reachable_through_forecasted_and_evaluated():
    # breadth-first search over the transition graph, tracking whether a
    # path has passed Forecasted and Evaluated before reaching Encoded
    start = (EncounterPhase.CREATED, False, False)
    seen = {start}
    frontier = [start]
    while frontier:
        phase, saw_forecasted, saw_evaluated = frontier.pop()
        for (from_phase, _event), to_phase in TRANSITIONS.items():
            if from_phase is not phase:
                continue
            node = (
                to_phase,
                saw_forecasted or to_phase is EncounterPhase.FORECASTED,
                saw_evaluated or to_phase is EncounterPhase.EVALUATED,
            )
            if to_phase is EncounterPhase.ENCODED:
                assert node[1] and node[2], "Encoded reached without forecast/evaluation"
            if node not in seen:
                seen.add(node)
                frontier.append(node)


def _valid_record():
    return make_record(random.Random(7), record_id=3)


def test_validate_accepts_fully_populated_record():
    assert validate_record(_valid_record()) == []


def test_validate_reports_empty_situation_description():
    record = _valid_record()
    record = replace(record, situation=replace(record.situation, description="  "))
    assert "situation.description empty" in validate_record(record)


def test_validate_reports_grounding_evidence_missing():
    record = _valid_record()
    task = replace(record.task, cotasks=CoTasks(grounding=CoTaskState.DONE))
    record = replace(
        record,
        task=task,
        outcome=Outcome(actual_result="done", success=True, grounding_evidence=()),
    )
    violations = validate_record(record)
    assert any("grounding_evidence" in v for v in violations)


def test_validate_collects_every_violation_not_just_first():
    record = _valid_record()
    record = replace(
        record,
        id=-4,
        situation=replace(record.situation, description=""),
        forecast=Forecast(expected_result="", success_probability=1.5),
        plan=(ActionStep(agent="", skill="", status=StepStatus.EXECUTED),),
    )
    violations = validate_record(record)
    assert len(violations) >= 5


def test_validate_rejects_observed_output_on_planned_step():
    record = _valid_record()
    record = replace(
        record,
        plan=(ActionStep(agent="self", skill="s", status=StepStatus.PLANNED,
                         observed_output="x"),),
    )
    assert any("observed_output present" in v for v in validate_record(record))


def test_validate_rejects_deep_subtask_tree():
    deep = TaskSpec(goal="d4")
    for name in ("d3", "d2", "d1", "root"):
        deep = TaskSpec(goal=name, subtasks=(deep,))
    record = replace(_valid_record(), task=deep)
    assert any("depth" in v for v in validate_record(record))


def test_validate_ends_the_walk_of_a_task_that_contains_itself():
    task = TaskSpec("loop")
    object.__setattr__(task, "subtasks", (task,))
    record = replace(_valid_record(), task=task)
    assert validate_record(record) == [
        "task.subtasks[0].subtasks[0].subtasks[0].subtasks[0] exceeds subtask depth 3"
    ]


def test_validate_rejects_uppercase_or_duplicate_tags():
    record = _valid_record()
    record = replace(record, situation=replace(record.situation, context_tags=("Math",)))
    assert any("lowercase" in v for v in validate_record(record))
    record = replace(record, situation=replace(record.situation, context_tags=("a", "a")))
    assert any("deduplicated" in v for v in validate_record(record))


def test_roundtrip_identity_randomized():
    rng = random.Random(42)
    for i in range(500):
        record = make_record(rng, record_id=i + 1)
        assert validate_record(record) == []
        assert deserialize_record(serialize_record(record)) == record


def test_equal_records_share_canonical_bytes():
    a = make_record(random.Random(99), record_id=5)
    b = make_record(random.Random(99), record_id=5)
    assert a == b
    assert serialize_record(a) == serialize_record(b)


def test_canonical_key_order_is_fixed():
    keys = list(json.loads(serialize_record(_valid_record())).keys())
    assert keys == [
        "id", "timestamp", "knowledge_used", "situation", "task", "plan",
        "forecast", "outcome", "knowledge_delta", "metrics",
    ]


def test_truncated_text_raises_malformed_with_position():
    text = serialize_record(_valid_record())[:40]
    with pytest.raises(MalformedRecord) as excinfo:
        deserialize_record(text)
    assert excinfo.value.position is not None


def test_missing_field_raises_malformed_naming_field():
    obj = json.loads(serialize_record(_valid_record()))
    del obj["forecast"]
    with pytest.raises(MalformedRecord, match="forecast"):
        deserialize_record(json.dumps(obj))


def test_timestamp_z_suffix_accepted():
    obj = json.loads(serialize_record(_valid_record()))
    obj["timestamp"] = "2024-03-01T12:00:00Z"
    record = deserialize_record(json.dumps(obj))
    assert record.timestamp.utcoffset().total_seconds() == 0


# --------------------------------------------------------------------------
# Decoder contract: every missing, mistyped or unknown field is refused
# with a message naming it.
# --------------------------------------------------------------------------


def _contract_record():
    """Two plan steps, one grounding evidence item and a nested subtask."""
    done = CoTasks(CoTaskState.DONE, CoTaskState.DONE, CoTaskState.DONE)
    return KstarRecord(
        id=4,
        timestamp=datetime(2024, 3, 1, 12, 0, tzinfo=timezone.utc),
        knowledge_used=(1, 2),
        situation=Situation("add two fractions", ("math",), SituationSource.HARNESS),
        task=TaskSpec(
            "compute 1/3 + 1/6",
            subtasks=(TaskSpec("find a common denominator", cotasks=done),),
            cotasks=done,
        ),
        plan=(
            ActionStep("self", "restate the sum", ("stay exact",), StepStatus.EXECUTED, "1/3 + 1/6"),
            ActionStep("self", 'TOOL calc(expr="1/3+1/6")'),
        ),
        forecast=Forecast("1/2", 0.9),
        outcome=Outcome("1/2", True, (GroundingEvidence("calc", '{"expr":"1/3+1/6"}', "1/2"),)),
        knowledge_delta=(3,),
        metrics=EncounterMetrics(12, 4, 1, 0),
    )


_TASK_KEYS = ("goal", "subtasks", "cotasks")
_COTASK_KEYS = ("planning", "forecasting", "grounding")
_STEP_KEYS = ("agent", "skill", "constraints", "status")

# (where a sub-object sits in the record dict, the name errors give it,
# its required keys)
_SUB_OBJECTS = [
    ((), "record", (
        "id", "timestamp", "knowledge_used", "situation", "task", "plan",
        "forecast", "outcome", "knowledge_delta", "metrics",
    )),
    (("situation",), "situation", ("description", "context_tags", "source")),
    (("task",), "task", _TASK_KEYS),
    (("task", "cotasks"), "task.cotasks", _COTASK_KEYS),
    (("task", "subtasks", 0), "task.subtasks[0]", _TASK_KEYS),
    (("task", "subtasks", 0, "cotasks"), "task.subtasks[0].cotasks", _COTASK_KEYS),
    (("plan", 0), "plan[0]", _STEP_KEYS),
    (("plan", 1), "plan[1]", _STEP_KEYS),
    (("forecast",), "forecast", ("expected_result", "success_probability")),
    (("outcome",), "outcome", ("actual_result", "success", "grounding_evidence")),
    (("outcome", "grounding_evidence", 0), "outcome.grounding_evidence[0]",
     ("tool_name", "input", "output")),
    (("metrics",), "metrics", ("latency_ms", "provider_calls", "tool_calls", "replans")),
]
_OPTIONAL = {("plan", 0, "observed_output"), ("plan", 1, "observed_output"), ("outcome", "feedback")}
_REQUIRED = [
    (where + (key,), f"missing field {name}.{key}")
    for where, name, keys in _SUB_OBJECTS
    for key in keys
]


def _key_paths(obj, where=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield where + (key,)
            yield from _key_paths(value, where + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, where + (i,))


def _edited(path, value=None, delete=False):
    """The contract record as JSON text, with one field replaced or deleted."""
    obj = json.loads(serialize_record(_contract_record()))
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(obj)


def _decode_error(text):
    with pytest.raises(MalformedRecord) as excinfo:
        deserialize_record(text)
    return str(excinfo.value)


def test_contract_covers_every_key_of_the_record():
    paths = set(_key_paths(json.loads(serialize_record(_contract_record()))))
    assert paths == {path for path, _ in _REQUIRED} | _OPTIONAL


@pytest.mark.parametrize(
    "path, message", _REQUIRED, ids=[message.split()[-1] for _, message in _REQUIRED]
)
def test_each_missing_field_is_named(path, message):
    assert _decode_error(_edited(path, delete=True)) == message


@pytest.mark.parametrize("path", sorted(_OPTIONAL))
def test_missing_optional_field_decodes_as_none(path):
    record = deserialize_record(_edited(path, delete=True))
    step_or_outcome = record.plan[path[1]] if path[0] == "plan" else record.outcome
    assert getattr(step_or_outcome, path[-1]) is None


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("situation", "source"), "bogus",
         "bad field value at situation.source: 'bogus' is not a valid SituationSource"),
        (("plan", 1, "status"), "bogus",
         "bad field value at plan[1].status: 'bogus' is not a valid StepStatus"),
        (("plan", 0, "status"), ["executed"],
         "bad field value at plan[0].status: ['executed'] is not a valid StepStatus"),
        (("task", "cotasks", "planning"), "bogus",
         "bad field value at task.cotasks.planning: 'bogus' is not a valid CoTaskState"),
        (("task", "subtasks", 0, "cotasks", "grounding"), "bogus",
         "bad field value at task.subtasks[0].cotasks.grounding: "
         "'bogus' is not a valid CoTaskState"),
    ],
    ids=["situation.source", "plan[1].status", "plan[0].status-unhashable",
         "task.cotasks.planning", "task.subtasks[0].cotasks.grounding"],
)
def test_unknown_enum_value_is_named(path, value, message):
    assert _decode_error(_edited(path, value)) == message


@pytest.mark.parametrize(
    "path, value",
    [
        (("plan",), [3]),
        (("situation",), "x"),
        (("timestamp",), 5),
        (("task", "subtasks"), [[]]),
        (("outcome", "grounding_evidence"), [None]),
        (("metrics",), []),
    ],
)
def test_mistyped_field_raises_malformed(path, value):
    assert _decode_error(_edited(path, value))


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("plan",), [3], "bad field value at plan[0]: expected an object, not int"),
        (("outcome", "grounding_evidence"), [None],
         "bad field value at outcome.grounding_evidence[0]: expected an object, not NoneType"),
        (("task", "subtasks", 0, "subtasks"), 5,
         "bad field value at task.subtasks[0].subtasks: expected an array, not 5"),
        (("timestamp",), "2024-03-01T12:00:00",
         "bad field value at timestamp: timestamp missing timezone offset"),
        (("id",), True, "bad field value at id: expected int, not True"),
        (("knowledge_used",), [1, 2.0], "bad field value at knowledge_used: expected int, not 2.0"),
        (("situation", "description"), None,
         "bad field value at situation.description: expected str, not None"),
        (("situation", "context_tags"), "ab",
         "bad field value at situation.context_tags: expected an array, not 'ab'"),
        (("situation", "context_tags"), ["math", 5],
         "bad field value at situation.context_tags: expected str, not 5"),
        (("plan",), {"agent": "self"},
         "bad field value at plan: expected an array, not {'agent': 'self'}"),
        (("plan", 0, "skill"), None, "bad field value at plan[0].skill: expected str, not None"),
        (("plan", 0, "observed_output"), 5,
         "bad field value at plan[0].observed_output: expected str, not 5"),
        (("forecast", "success_probability"), True,
         "bad field value at forecast.success_probability: expected float, not True"),
        (("forecast", "success_probability"), "0.9",
         "bad field value at forecast.success_probability: expected float, not '0.9'"),
        (("outcome", "success"), 1, "bad field value at outcome.success: expected bool, not 1"),
        (("outcome", "grounding_evidence", 0, "output"), ["1/2"],
         "bad field value at outcome.grounding_evidence[0].output: expected str, not ['1/2']"),
        (("metrics", "latency_ms"), 12.0,
         "bad field value at metrics.latency_ms: expected int, not 12.0"),
    ],
    ids=["plan-step", "evidence", "subtasks", "timestamp", "id-bool", "used-float",
         "description-null", "tags-string", "tags-int", "plan-object", "skill-null",
         "output-int", "probability-bool", "probability-string", "success-int",
         "evidence-list", "latency-float"],
)
def test_mistyped_field_is_named_with_its_path(path, value, message):
    assert _decode_error(_edited(path, value)) == message


@pytest.mark.parametrize("value", [0, 1])
def test_a_float_field_takes_an_int_as_it_is(value):
    text = _edited(("forecast", "success_probability"), value)
    record = deserialize_record(text)
    assert type(record.forecast.success_probability) is int
    assert serialize_record(record) == dumps(json.loads(text))


@pytest.mark.parametrize(
    "paths, message",
    [
        ([("forecast",), ("id",)], "missing field record.id"),
        ([("task", "cotasks"), ("task", "goal")], "missing field task.goal"),
        ([("metrics", "replans"), ("situation", "source")], "missing field situation.source"),
    ],
    ids=["record", "task", "nested"],
)
def test_several_faults_name_the_first_field_in_declaration_order(paths, message):
    obj = json.loads(serialize_record(_contract_record()))
    for path in paths:
        parent = obj
        for step in path[:-1]:
            parent = parent[step]
        del parent[path[-1]]
    assert _decode_error(json.dumps(obj)) == message


def test_record_that_is_not_an_object_is_refused():
    assert _decode_error("[]") == "record must be a JSON object"


# Record text is decoded by the JSON scanner directly when it is one value
# with nothing around it; any other text must decode, or fail, as json.loads.


def _contract_text():
    return serialize_record(_contract_record())


def test_record_text_that_is_not_one_object_fails_as_json_loads_does():
    text = _contract_text()
    n = len(text)
    assert _decode_error(text + " x") == f"invalid JSON: Extra data (at position {n + 1})"
    assert _decode_error(text + "{}") == f"invalid JSON: Extra data (at position {n})"
    assert _decode_error(text[:-1]) == (
        f"invalid JSON: Expecting ',' delimiter (at position {n - 1})"
    )
    assert _decode_error("[1]") == "record must be a JSON object"
    assert _decode_error("NaN") == "record must be a JSON object"


_CONTRACT_LINE = (
    '{"id":4,"timestamp":"2024-03-01T12:00:00+00:00","knowledge_used":[1,2],'
    '"situation":{"description":"add two fractions","context_tags":["math"],"source":"harness"},'
    '"task":{"goal":"compute 1/3 + 1/6","subtasks":[{"goal":"find a common denominator",'
    '"subtasks":[],"cotasks":{"planning":"done","forecasting":"done","grounding":"done"}}],'
    '"cotasks":{"planning":"done","forecasting":"done","grounding":"done"}},'
    '"plan":[{"agent":"self","skill":"restate the sum","constraints":["stay exact"],'
    '"status":"executed","observed_output":"1/3 + 1/6"},'
    '{"agent":"self","skill":"TOOL calc(expr=\\"1/3+1/6\\")","constraints":[],'
    '"status":"planned","observed_output":null}],'
    '"forecast":{"expected_result":"1/2","success_probability":0.9},'
    '"outcome":{"actual_result":"1/2","success":true,"grounding_evidence":[{"tool_name":"calc",'
    '"input":"{\\"expr\\":\\"1/3+1/6\\"}","output":"1/2"}],"feedback":null},'
    '"knowledge_delta":[3],'
    '"metrics":{"latency_ms":12,"provider_calls":4,"tool_calls":1,"replans":0}}'
)


def _non_ascii_record():
    """The contract record with non-ASCII text and a +05:30 timestamp."""
    return replace(
        _contract_record(),
        timestamp=datetime(2024, 2, 29, 23, 30, 15, 250_000,
                           tzinfo=timezone(timedelta(hours=5, minutes=30))),
        situation=Situation("½ + ⅓ = ? — «réduire»", ("maths", "ü"), SituationSource.AGENT),
        outcome=Outcome("5/6", False, (), 'könnte besser sein "zitiert" \\ 分'),
    )


_NON_ASCII_LINE = (
    '{"id":4,"timestamp":"2024-02-29T18:00:15.250000+00:00","knowledge_used":[1,2],'
    '"situation":{"description":"½ + ⅓ = ? — «réduire»","context_tags":["maths","ü"],'
    '"source":"agent"},'
    '"task":{"goal":"compute 1/3 + 1/6","subtasks":[{"goal":"find a common denominator",'
    '"subtasks":[],"cotasks":{"planning":"done","forecasting":"done","grounding":"done"}}],'
    '"cotasks":{"planning":"done","forecasting":"done","grounding":"done"}},'
    '"plan":[{"agent":"self","skill":"restate the sum","constraints":["stay exact"],'
    '"status":"executed","observed_output":"1/3 + 1/6"},'
    '{"agent":"self","skill":"TOOL calc(expr=\\"1/3+1/6\\")","constraints":[],'
    '"status":"planned","observed_output":null}],'
    '"forecast":{"expected_result":"1/2","success_probability":0.9},'
    '"outcome":{"actual_result":"5/6","success":false,"grounding_evidence":[],'
    '"feedback":"könnte besser sein \\"zitiert\\" \\\\ 分"},'
    '"knowledge_delta":[3],'
    '"metrics":{"latency_ms":12,"provider_calls":4,"tool_calls":1,"replans":0}}'
)


@pytest.mark.parametrize(
    "record, line",
    [(_contract_record(), _CONTRACT_LINE), (_non_ascii_record(), _NON_ASCII_LINE)],
    ids=["contract", "non-ascii"],
)
def test_canonical_line_is_pinned(record, line):
    """Key order at every depth, no spaces, UTF-8 text unescaped, UTC timestamps."""
    assert serialize_record(record) == line
    assert deserialize_record(line) == record
    assert deserialize_record(line).timestamp.tzinfo is timezone.utc


@pytest.mark.parametrize("before, after", [(" ", ""), ("\n", " \n"), ("\t", "\r\n")])
def test_record_text_with_whitespace_around_it_decodes(before, after):
    assert deserialize_record(before + _contract_text() + after) == _contract_record()


def _cotasks_edited(**fields):
    """The contract record as JSON text, with the task's co-task fields
    replaced, or deleted where the value is None."""
    obj = json.loads(serialize_record(_contract_record()))
    cotasks = obj["task"]["cotasks"]
    for key, value in fields.items():
        if value is None:
            del cotasks[key]
        else:
            cotasks[key] = value
    return json.dumps(obj)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"planning": []},
         "bad field value at task.cotasks.planning: [] is not a valid CoTaskState"),
        ({"planning": "bogus", "forecasting": None},
         "bad field value at task.cotasks.planning: 'bogus' is not a valid CoTaskState"),
        ({"planning": None, "grounding": "bogus"}, "missing field task.cotasks.planning"),
        ({"grounding": None}, "missing field task.cotasks.grounding"),
        ({"forecasting": 1},
         "bad field value at task.cotasks.forecasting: 1 is not a valid CoTaskState"),
    ],
    ids=["unhashable", "bad-then-missing", "missing-then-bad", "missing", "not-a-string"],
)
def test_cotasks_outside_the_shared_table_fail_in_field_order(fields, message):
    assert _decode_error(_cotasks_edited(**fields)) == message


def test_error_in_a_nested_subtask_names_its_whole_path():
    obj = json.loads(serialize_record(_contract_record()))
    leaf = obj["task"]["subtasks"][0]
    leaf["subtasks"] = [dict(leaf), {"goal": "x", "subtasks": [], "cotasks": {}}]
    assert _decode_error(json.dumps(obj)) == (
        "missing field task.subtasks[0].subtasks[1].cotasks.planning"
    )

