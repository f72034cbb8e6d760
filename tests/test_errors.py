from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from kgverify import errors
from kgverify.cli import guarded
from kgverify.errors import KgVerifyError

# The README's exit-code table lists these codes (a test below compares them);
# a new error class must be added here, and so given a code, deliberately.
EXPECTED_EXIT_CODES = {
    "KgVerifyError": 1,
    "ContextOverflow": 1,
    "UnsupportedMediaType": 1,
    "MalformedInput": 3,
    "InsufficientRecords": 3,
    "InvalidExamples": 3,
    "EmptyInput": 3,
    "EndpointUnavailable": 4,
    "ProviderUnavailable": 4,
    "QuotaExceeded": 4,
    "NoDocumentsRetrievable": 4,
    "Unavailable": 4,
    "PermanentlyUnavailable": 4,
    "MalformedResponse": 4,
    "FixtureMissing": 5,
    "NoSitelink": 6,
    "SchemaViolation": 7,
    "TransformFailure": 7,
}


def _error_classes(root: type = KgVerifyError) -> list[type]:
    found = [root]
    for sub in root.__subclasses__():
        found.extend(_error_classes(sub))
    return found


def test_every_error_class_has_an_expected_code():
    assert {cls.__name__ for cls in _error_classes()} == set(EXPECTED_EXIT_CODES)


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_exit_code_matches_table(cls, capsys):
    expected = EXPECTED_EXIT_CODES[cls.__name__]
    assert cls.exit_code == expected
    assert getattr(errors, cls.__name__) is cls

    @guarded
    def command():
        raise cls("boom")

    with pytest.raises(SystemExit) as caught:
        command()
    assert caught.value.code == expected
    assert "error: boom" in capsys.readouterr().err


def test_keyboard_interrupt_exits_130(capsys):
    @guarded
    def command():
        raise KeyboardInterrupt

    with pytest.raises(SystemExit) as caught:
        command()
    assert caught.value.code == 130
    assert "interrupted" in capsys.readouterr().err


def test_readme_exit_code_table_lists_every_code():
    """The README's table lists the codes of the error classes, usage errors'
    2 and an interrupt's 130, and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n### Exit codes\n\n", 1)[1].split("\n\n", 1)[0]
    codes = {int(code) for code in re.findall(r"^\| (\d+) +\|", table, re.MULTILINE)}
    assert codes == {0, 2, 130} | set(EXPECTED_EXIT_CODES.values())


class TestJsonValue:
    """The one JSON decoder: what it passes, every file and request can carry."""

    @pytest.mark.parametrize("text", [
        '{"a": ["b", 1.5, null]}', '"\\u00e9\\ud83d\\ude00"', b'{"a": "\xc3\xa9"}',
        b'\xef\xbb\xbf{"a": 1}', '"\\\\ud800"',
    ], ids=["str", "escaped-pair", "bytes", "bytes-bom", "escaped-backslash"])
    def test_a_value_any_file_can_carry_decodes_as_json_does(self, text):
        assert errors.json_value(text) == json.loads(text)

    @pytest.mark.parametrize("text", [
        '"\\ud800"', b'{"a": ["\\udfff"]}', b'"\xed\xa0\x80"',
    ], ids=["escape", "escape-in-bytes", "encoded-in-bytes"])
    def test_a_lone_surrogate_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            errors.json_value(text)

    @pytest.mark.parametrize("text", ["[" * 100_000, b'{"a": ' * 100_000], ids=["str", "bytes"])
    def test_a_value_nested_too_deeply_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="nested too deeply"):
            errors.json_value(text)


class TestJsonRecords:
    def test_each_non_blank_line_is_converted_in_order(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"n": 1}\n\n  \r\n{"n": "two\xe2\x80\xa8lines"}\r{"n": 3}')
        assert errors.json_records(path, "records", lambda record: record["n"]) == [
            1, "two lines", 3]

    @pytest.mark.parametrize("line", [b'{"m": 2}', b'{"n": "\\ud800"}', b"[" * 100_000],
                             ids=["missing-key", "lone-surrogate", "nested-too-deeply"])
    def test_a_line_of_the_wrong_shape_names_its_line(self, tmp_path, line):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"n": 1}\n' + line + b"\n")
        with pytest.raises(errors.MalformedInput, match=f"{path}:2: "):
            errors.json_records(path, "records", lambda record: record["n"])

    def test_a_file_that_cannot_be_read_is_malformed_input(self, tmp_path):
        with pytest.raises(errors.MalformedInput, match="cannot read records"):
            errors.json_records(tmp_path, "records", dict)
