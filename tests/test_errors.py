"""Every input file is read by ``errors.read_json`` or ``errors.read_lines``,
so each reader names its file, and the line, for one bad value."""

import json

import pytest

from neolaf.cli import _load_eval_config
from neolaf.cognition import load_kit
from neolaf.errors import FormatError, read_lines
from neolaf.harness import load_dataset
from neolaf.memory import EpisodicStore, StorageError, read_consolidation
from neolaf.provider import load_script

# Far past the JSON decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000

# The file written, its read, and the start of the error; a JSON Lines file
# holds the value on line 2, after a blank line
READERS = {
    "kit": ("kit.json", load_kit, "{path}: "),
    "script": ("script.json", load_script, "{path}: "),
    "eval config": ("config.json", _load_eval_config, "{path}: "),
    "math_dir problem file": (
        "d/algebra/1.json", lambda path: load_dataset(path.parents[1], "math_dir"), "{path}: "
    ),
    "jsonl line": ("problems.jsonl", lambda path: load_dataset(path, "jsonl"), "{path}:2: "),
    "record log": (
        "s/episodic.jsonl", lambda path: EpisodicStore.open(path.parent),
        "record log {path} corrupt at line 2: ",
    ),
    "knowledge file": (
        "s/knowledge.jsonl", lambda path: EpisodicStore.open(path.parent),
        "knowledge file {path} corrupt at line 2: ",
    ),
    "consolidation file": (
        "data.jsonl", read_consolidation, "consolidation file {path} corrupt at line 2: "
    ),
}


@pytest.mark.parametrize("reader", READERS)
def test_a_deeply_nested_value_is_a_bad_file_named_with_its_line(tmp_path, reader):
    name, read, prefix = READERS[reader]
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n" + DEEP + "\n" if name.endswith(".jsonl") else DEEP, encoding="utf-8")
    with pytest.raises((FormatError, StorageError)) as excinfo:
        read(path)
    assert str(excinfo.value).startswith(prefix.format(path=path))
    assert isinstance(excinfo.value.__cause__, RecursionError)


def test_read_lines_reports_the_place_of_each_line_in_the_bytes(tmp_path):
    """Blank lines are skipped, a CRLF line and multi-byte UTF-8 count in bytes,
    and the last line needs no newline."""
    raw = b'"a"\n\n  "\xc3\xa9\xe2\x82\xac"\r\n \r\n"\xf0\x9f\x99\x82"'
    path = tmp_path / "lines.jsonl"
    path.write_bytes(raw)
    lines = list(read_lines(path, json.loads, lambda exc, number: FormatError(exc, path, number)))
    assert [(number, value) for number, value, _, _ in lines] == [(1, "a"), (3, "é€"), (5, "🙂")]
    assert [raw[offset:offset + length] for _, _, offset, length in lines] == [
        b'"a"\n', b'  "\xc3\xa9\xe2\x82\xac"\r\n', b'"\xf0\x9f\x99\x82"'
    ]
