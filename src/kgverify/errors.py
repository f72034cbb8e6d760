"""Exception hierarchy shared across the pipeline.

Retryable conditions (endpoint hiccups, provider quota) are distinct from
permanent ones (malformed payloads, unsupported media). The transport
(``net.LiveTransport``) has already retried a retryable one by the time it is
raised, so no caller retries it again.

Each class carries the CLI exit code the README documents for it as
``exit_code``. A class without one inherits its parent's; the base class's 1
stands for any other pipeline error.

``malformed`` is the one rule for input of the wrong shape: an answer from a
remote becomes ``MalformedResponse``, a file or recorded fixture
``MalformedInput``, each quoting the input. ``read_input`` and ``json_records``
read the input files, and one that cannot be read is ``MalformedInput`` too.
``json_value`` is the one JSON decoder, for every file, fixture and remote
answer: what it rejects is of the wrong shape.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, TypeVar

# What reading a value of the wrong shape raises: unparseable JSON or number, a
# missing key or index, a value of another type, an empty iterator.
SHAPE_ERRORS = (ValueError, LookupError, TypeError, AttributeError, StopIteration)

_Record = TypeVar("_Record")


class KgVerifyError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class EndpointUnavailable(KgVerifyError):
    """A SPARQL or API endpoint could not be reached; retryable."""

    exit_code = 4


class MalformedResponse(KgVerifyError):
    """An endpoint answered with a payload we cannot interpret.

    The message includes an excerpt of the offending response.
    """

    exit_code = 4


class NoSitelink(KgVerifyError):
    """The entity has no English Wikipedia article linked to it."""

    exit_code = 6


class ProviderUnavailable(KgVerifyError):
    """A search or LLM provider failed transiently; retryable."""

    exit_code = 4


class UnsupportedMediaType(KgVerifyError):
    """The fetched resource is not HTML (e.g. a PDF)."""


class Unavailable(KgVerifyError):
    """The resource could not be fetched (HTTP error or timeout), nor its archived snapshot."""

    exit_code = 4


class PermanentlyUnavailable(Unavailable):
    """The resource answered an HTTP 4xx other than 429: asking again gets the same answer."""


class NoDocumentsRetrievable(KgVerifyError):
    """Every candidate grounding document failed to fetch."""

    exit_code = 4


class ContextOverflow(KgVerifyError):
    """The prompt exceeds the model's configured input budget."""


class FixtureMissing(KgVerifyError):
    """A recorded fixture or replay entry is absent for this request."""

    exit_code = 5


class MalformedInput(KgVerifyError):
    """An input file (dataset, statements list) violates its format."""

    exit_code = 3


class InsufficientRecords(KgVerifyError):
    """A dataset split is too small for the requested sample."""

    exit_code = 3


class InvalidExamples(KgVerifyError):
    """A few-shot example set does not contain exactly one record per class."""

    exit_code = 3


class EmptyInput(KgVerifyError):
    """An operation that needs at least one element received none."""

    exit_code = 3


class SchemaViolation(KgVerifyError):
    """Generated XML failed validation against the bundled schema."""

    exit_code = 7


class TransformFailure(KgVerifyError):
    """The report stylesheet could not be applied to the document."""

    exit_code = 7


class malformed:
    """Turn a value of the wrong shape, read in the block, into ``error``.

    A ``SHAPE_ERRORS`` exception becomes ``error``, naming ``what`` and quoting
    the start of ``quoted``, the input read; the quote is built only then. An
    ``error`` raised in the block, by a check or by a guard nested in this one,
    gets ``what`` as a prefix, so that the message names the file or line too.
    A context manager class rather than a generator: a reader enters one per
    line or record, and this costs a third as much.
    """

    __slots__ = ("_error", "_what", "_quoted")

    def __init__(self, error: type[Exception], what: str, quoted: object):
        self._error, self._what, self._quoted = error, what, quoted

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            return
        if issubclass(exc_type, self._error):
            raise self._error(f"{self._what}: {exc}") from exc
        if issubclass(exc_type, SHAPE_ERRORS):
            quoted = self._quoted
            excerpt = quoted[:200] if isinstance(quoted, (str, bytes)) else quoted
            reason = str(exc) or type(exc).__name__
            raise self._error(f"{self._what}: {excerpt!r:.300} ({reason})") from exc


def read_input(path: Path | str, what: str) -> bytes:
    """The bytes of the input file ``path``; one that cannot be read (missing,
    a directory) raises ``MalformedInput``, naming it as ``what``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise MalformedInput(f"cannot read {what} {path}: {exc.strerror or exc}") from exc


def json_value(text: str | bytes):
    """The JSON value of ``text`` if every prompt, request and output file
    can carry it; else ``ValueError``. The one JSON decoder of the package.

    A value nested too deeply for the decoder raises ``ValueError``, not
    ``RecursionError``. A value holding a lone surrogate raises
    ``UnicodeEncodeError``, a ``ValueError``. Bytes are decoded strictly (the
    json module would pass an encoded surrogate through), and in text only a
    ``\\u`` escape (``"\\ud800"``) decodes to one, so a text without one is
    not searched.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode(json.detect_encoding(text))
        value = json.loads(text)
        if "\\u" in text:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc
    return value


def json_records(path: Path | str, what: str,
                 convert: Callable[[object], _Record]) -> list[_Record]:
    """``convert`` of the JSON value of each non-blank line of the JSON-lines
    input file ``path``, in order; a line of the wrong shape raises
    ``MalformedInput`` naming ``path:line``.

    Lines end at a line feed or carriage return only: a JSON string may hold
    a line separator that ``str.splitlines`` would split at.
    """
    records = []
    for lineno, line in enumerate(read_input(path, what).splitlines(), 1):
        if line.strip():
            with malformed(MalformedInput, f"{path}:{lineno}", line):
                records.append(convert(json_value(line)))
    return records
