from __future__ import annotations

import pytest

from kgverify import errors
from kgverify.cli import guarded
from kgverify.errors import KgVerifyError

# Mirrors the exit-code table in the README; a new error class must be added
# here, and so given a code, deliberately.
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
