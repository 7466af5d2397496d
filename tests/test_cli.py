"""Command-line surface tests: exit codes and each subcommand."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from neolaf import cognition
from neolaf.cli import main
from neolaf.cognition import default_kit, system1_request
from neolaf.provider import fingerprint, save_script


QUERY = "What is 2+2?"


def _script_path(tmp_path, answer="4", confidence="0.9"):
    kit = default_kit()
    script = {
        fingerprint(system1_request(kit, QUERY, "")): (
            f"ANSWER: {answer}\nEXPLANATION: known\nCONFIDENCE: {confidence}"
        )
    }
    path = tmp_path / "script.json"
    save_script(script, path)
    return path


def _dataset_path(tmp_path):
    root = tmp_path / "dataset" / "arithmetic"
    root.mkdir(parents=True, exist_ok=True)
    (root / "1.json").write_text(
        json.dumps({"problem": QUERY, "level": "Level 1",
                    "solution": "Sum: $\\boxed{4}$"}),
        encoding="utf-8",
    )
    return tmp_path / "dataset"


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["definitely-not-a-command"]) == 1
    assert main(["eval"]) == 1  # missing --dataset
    assert main(["replay", "x"]) == 1  # recorded sessions replay by --script
    assert main(["solve", "x", "--transcript", "t.json"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, option", [
    (["eval", "--dataset", "d", "--limit", "-1"], "--limit"),
    (["compare", "--configs", "c", "--dataset", "d", "--limit", "-1"], "--limit"),
    (["memory", "search", "q", "-k", "-1"], "-k"),
    (["memory", "search", "q", "-k", "two"], "-k"),
])
def test_a_count_below_zero_is_a_usage_error(capsys, argv, option):
    assert main(argv) == 1
    assert f"argument {option}:" in capsys.readouterr().err


def test_solve_with_a_script_missing_a_prompt_encodes_a_failure(tmp_path, capsys):
    script, store = tmp_path / "empty.json", str(tmp_path / "store")
    script.write_text("{}", encoding="utf-8")
    assert main(["solve", QUERY, "--script", str(script), "--store", store]) == 0
    out = capsys.readouterr().out
    assert "route: system2" in out and "provider_calls: 1 " in out
    assert "no scripted response for prompt fingerprint" in out
    assert main(["memory", "list", "--store", store]) == 0
    assert [line.split("\t")[2] for line in capsys.readouterr().out.splitlines()] == ["failed"]


def test_solve_with_script(tmp_path, capsys):
    code = main([
        "solve", QUERY,
        "--script", str(_script_path(tmp_path)),
        "--store", str(tmp_path / "store"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "answer: 4" in out
    assert "route: system1" in out


def test_solve_system1_only_flag(tmp_path, capsys):
    # low confidence would normally escalate; the flag accepts it anyway
    code = main([
        "solve", QUERY, "--system1-only",
        "--script", str(_script_path(tmp_path, answer="maybe 4", confidence="0.1")),
        "--store", str(tmp_path / "store"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "route: system1" in out
    assert "answer: maybe 4" in out


def test_solve_runtime_error_exits_two(tmp_path, capsys):
    code = main([
        "solve", QUERY,
        "--script", str(tmp_path / "missing.json"),
        "--store", str(tmp_path / "store"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solve_review_rejection(tmp_path, capsys, monkeypatch):
    # escalate to system-2 so a plan exists, then reject it
    kit = default_kit()
    script = {
        fingerprint(system1_request(kit, QUERY, "")): (
            "ANSWER: ?\nEXPLANATION: unsure\nCONFIDENCE: 0.1"
        )
    }
    from neolaf.cognition import situation_request, decompose_request, plan_request

    script[fingerprint(situation_request(kit, QUERY, ""))] = "a sum"
    script[fingerprint(decompose_request(kit, QUERY, ""))] = "- add"
    script[fingerprint(plan_request(kit, QUERY, ""))] = (
        'STEP 1: self | TOOL calc(expr="2+2") | exact'
    )
    path = tmp_path / "script.json"
    save_script(script, path)
    monkeypatch.setattr("builtins.input", lambda prompt="": "n")
    code = main([
        "solve", QUERY, "--review",
        "--script", str(path),
        "--store", str(tmp_path / "store"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "rejected" in out


def test_solve_review_at_end_of_input_executes_nothing(tmp_path, capsys, monkeypatch):
    def end_of_input(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", end_of_input)
    store = str(tmp_path / "store")
    code = main([
        "solve", "Compute 1/3 + 1/6 as a fraction in lowest terms.", "--review",
        "--script", str(Path(__file__).parent / "fixtures" / "script.json"),
        "--store", store,
    ])
    assert code == 0
    assert "plan rejected; nothing executed" in capsys.readouterr().out
    assert main(["memory", "list", "--store", store]) == 0
    assert capsys.readouterr().out == ""  # nothing was encoded


def test_eval_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "eval",
        "--dataset", str(_dataset_path(tmp_path)),
        "--script", str(_script_path(tmp_path)),
        "--out", str(report_path),
        "--store", str(tmp_path / "store"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "accuracy=1.000" in out
    report = json.loads(report_path.read_text())
    assert report["aggregate"]["n"] == 1


def test_eval_missing_dataset_exits_two(tmp_path, capsys):
    code = main([
        "eval",
        "--dataset", str(tmp_path / "nowhere"),
        "--script", str(_script_path(tmp_path)),
    ])
    assert code == 2
    capsys.readouterr()


def test_compare_configs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cognition, "time", SimpleNamespace(monotonic=lambda: 0.0))
    script = _script_path(tmp_path)
    configs = []
    for name in ("one", "two"):
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps({
            "name": name,
            "kit": {},
            "provider": {"type": "scripted", "script": str(script)},
            "system1_only": name == "one",
        }), encoding="utf-8")
        configs.append(str(config_path))
    code = main([
        "compare",
        "--configs", ",".join(configs),
        "--dataset", str(_dataset_path(tmp_path)),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "one" in out and "two" in out
    # JSON form
    code = main([
        "compare", "--json",
        "--configs", ",".join(configs),
        "--dataset", str(_dataset_path(tmp_path)),
    ])
    assert code == 0
    assert capsys.readouterr().out == """\
[
  {
    "config_name": "one",
    "accuracy": 1.0,
    "mean_elapsed_ms": 0.0,
    "provider_calls": 1
  },
  {
    "config_name": "two",
    "accuracy": 1.0,
    "mean_elapsed_ms": 0.0,
    "provider_calls": 1
  }
]
"""


def test_compare_config_kit_path(tmp_path, capsys):
    # confidence 0.6 is accepted only under the linked kit's threshold
    script = _script_path(tmp_path, confidence="0.6")
    kit_path = tmp_path / "kit.json"
    kit_path.write_text(json.dumps({"route_threshold": 0.5}), encoding="utf-8")
    config_path = tmp_path / "linked.json"
    config_path.write_text(json.dumps({
        "kit_path": str(kit_path),
        "provider": {"type": "scripted", "script": str(script)},
    }), encoding="utf-8")
    code = main([
        "compare", "--json",
        "--configs", str(config_path),
        "--dataset", str(_dataset_path(tmp_path)),
    ])
    assert code == 0
    [row] = json.loads(capsys.readouterr().out)
    assert row["config_name"] == "linked"
    assert row["accuracy"] == 1.0


@pytest.mark.parametrize("config, field", [
    ({}, "provider"),
    ({"provider": {"type": "scripted"}}, "script"),
    ({"provider": [1]}, "provider"),
    ({"name": 5, "provider": {}}, "name"),
    ({"kit": {"prompt_templates": "plan"}, "provider": {}}, "prompt_templates"),
    ({"kit": {"route_threshold": "x"}, "provider": {}}, "route_threshold"),
    ({"provider": {"type": "remote", "url": 5, "model": "m"}}, "url"),
    ({"provider": {"type": "replay", "transcript": "t.json"}}, "replay"),
])
def test_malformed_compare_config_exits_two(tmp_path, capsys, config, field):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main([
        "compare",
        "--configs", str(config_path),
        "--dataset", str(_dataset_path(tmp_path)),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert str(config_path) in err and repr(field) in err


def test_system1_only_must_be_a_boolean(tmp_path, capsys):
    # a string "false" is truthy: it must not select the fast-path-only baseline
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "provider": {"type": "scripted", "script": str(_script_path(tmp_path))},
        "system1_only": "false",
    }), encoding="utf-8")
    code = main([
        "compare",
        "--configs", str(config_path),
        "--dataset", str(_dataset_path(tmp_path)),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert str(config_path) in err and "'system1_only'" in err


@pytest.mark.parametrize("option", ["--kit", "--script", "--configs"])
def test_non_json_input_file_is_named(tmp_path, capsys, option):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    if option == "--configs":
        argv = ["compare", "--configs", str(bad), "--dataset", str(_dataset_path(tmp_path))]
    else:
        argv = ["solve", QUERY, option, str(bad), "--store", str(tmp_path / "store")]
        if option == "--kit":
            argv += ["--script", str(_script_path(tmp_path))]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert str(bad) in err and "Expecting value" in err


def test_malformed_kit_file_exits_two(tmp_path, capsys):
    kit_path = tmp_path / "kit.json"
    kit_path.write_text("[1]", encoding="utf-8")
    code = main([
        "solve", QUERY,
        "--kit", str(kit_path),
        "--script", str(_script_path(tmp_path)),
        "--store", str(tmp_path / "store"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{kit_path}: a kit must be a JSON object" in err


@pytest.mark.parametrize("kit, blank", [
    ({"system_prompt": ""}, "system_prompt"),
    ({"prompt_templates": {"plan": " \n"}}, "plan"),
])
def test_a_kit_with_blank_text_fails_at_load(tmp_path, capsys, kit, blank):
    """Not at its first request: the error names the kit file, also under compare."""
    kit_path = tmp_path / "kit.json"
    kit_path.write_text(json.dumps(kit), encoding="utf-8")
    code = main([
        "eval", "--kit", str(kit_path),
        "--dataset", str(_dataset_path(tmp_path)),
        "--script", str(_script_path(tmp_path)),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{kit_path}: kit text must not be blank: {blank}" in err
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "kit_path": str(kit_path),
        "provider": {"type": "scripted", "script": str(_script_path(tmp_path))},
    }), encoding="utf-8")
    code = main([
        "compare", "--configs", str(config_path), "--dataset", str(_dataset_path(tmp_path)),
    ])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert str(config_path) in err and f"{kit_path}: kit text must not be blank" in err


def test_kit_template_slot_that_is_not_text_exits_two(tmp_path, capsys):
    kit_path = tmp_path / "kit.json"
    kit_path.write_text(json.dumps({"prompt_templates": {"plan": 5, "confidence": 7}}))
    code = main([
        "solve", QUERY,
        "--kit", str(kit_path),
        "--script", str(_script_path(tmp_path)),
        "--store", str(tmp_path / "store"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{kit_path}: kit field 'prompt_templates' entry 'plan'" in err


def test_script_reply_that_is_not_text_exits_two(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"0123456789abcdef": 5}), encoding="utf-8")
    code = main(["solve", QUERY, "--script", str(script), "--store", str(tmp_path / "store")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{script}: key '0123456789abcdef' must map to text" in err


def test_memory_commands(tmp_path, capsys):
    store_dir = tmp_path / "store"
    main([
        "solve", QUERY,
        "--script", str(_script_path(tmp_path)),
        "--store", str(store_dir),
    ])
    capsys.readouterr()

    assert main(["memory", "list", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert QUERY in out

    assert main(["memory", "show", "1", "--store", str(store_dir)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["id"] == 1

    assert main(["memory", "show", "99", "--store", str(store_dir)]) == 2
    capsys.readouterr()

    assert main(["memory", "search", "2+2", "--store", str(store_dir)]) == 0
    capsys.readouterr()


def test_consolidate_command(tmp_path, capsys):
    store_dir = tmp_path / "store"
    main([
        "solve", QUERY,
        "--script", str(_script_path(tmp_path)),
        "--store", str(store_dir),
    ])
    capsys.readouterr()
    out_path = tmp_path / "data.jsonl"
    code = main(["consolidate", "--out", str(out_path), "--store", str(store_dir)])
    message = capsys.readouterr().out
    assert code == 0
    assert "wrote 1 examples" in message
    assert len(out_path.read_text().strip().splitlines()) == 1
