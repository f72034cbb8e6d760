"""Provider-agnostic LLM invocation plus response parsing.

The gateway pins the decoding parameters used for evaluation (fixed seed,
low temperature) and appends every live completion to a response log so any
run can be replayed offline. Parsing turns raw completions into one of the
three option verdicts, an NLI class label, or the model's justification; an
unreadable response is a value (unparseable), never an exception.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, Protocol

from .errors import (
    ContextOverflow,
    KgVerifyError,
    MalformedResponse,
    ProviderUnavailable,
    malformed,
)
from .model import NliLabel, VerdictKind
from .net import HttpRequest, SingleFlight, Transport, atomic_write, canonical_json
from .prompting import OPTION_TEXTS, SYSTEM_PROMPT

DEFAULT_MODEL = "meta/meta-llama-3-70b-instruct"

# Characters per token when a provider reports token limits; word/token ratios
# put a token near 4 characters, and character budgeting is deterministic.
CHARS_PER_TOKEN = 4

# A string's JSON encoding: the C escaper ``json.dumps(text, ensure_ascii=False)``
# calls, without the encoder object that call builds each time.
_encode = json.encoder.encode_basestring


@dataclass(frozen=True)
class LlmParams:
    model: str = DEFAULT_MODEL
    seed: int = 42
    top_p: float = 0.9
    temperature: float = 0.1
    max_new_tokens: int = 500
    min_new_tokens: int = -1
    system_prompt: str = SYSTEM_PROMPT

    def __post_init__(self) -> None:
        if not (0 < self.top_p <= 1):
            raise ValueError("top_p must be in (0, 1]")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")

    @functools.cached_property
    def fingerprint_affixes(self) -> tuple[str, str]:
        """The canonical JSON of the fingerprint descriptor (the parameters and
        the prompt) before and after the prompt's encoding."""
        return _around_prompt({**dataclasses.asdict(self), "prompt": None})

    @functools.cached_property
    def request_affixes(self) -> tuple[str, str]:
        """The canonical JSON of a live prediction request's body before and
        after the prompt's encoding."""
        return _around_prompt({"input": {
            "prompt": None,
            "system_prompt": self.system_prompt,
            "seed": self.seed,
            "top_p": self.top_p,
            "temperature": self.temperature,
            "max_new_tokens": self.max_new_tokens,
            "min_new_tokens": self.min_new_tokens,
        }})


def _around_prompt(descriptor: Mapping[str, object]) -> tuple[str, str]:
    """``canonical_json(descriptor)`` split at its one ``"prompt"`` value (None):
    with any prompt's JSON encoding between them, the two halves are the
    canonical JSON of the descriptor holding that prompt. Another value
    cannot hold the split's text, as a string's quotes are escaped."""
    head, _, tail = canonical_json(descriptor).partition('"prompt":null')
    return head + '"prompt":', tail


@dataclass(frozen=True)
class Prompt:
    """A prompt with what a run derives from it, each computed once: its JSON
    string encoding, which the fingerprint and a live request body share,
    and its completion fingerprint under the gateway's parameters."""

    text: str
    encoded: str
    fingerprint: str

    @classmethod
    def of(cls, params: LlmParams, text: str) -> "Prompt":
        encoded = _encode(text)
        head, tail = params.fingerprint_affixes
        digest = hashlib.sha256(f"{head}{encoded}{tail}".encode("utf-8")).hexdigest()
        return cls(text, encoded, digest[:24])


@dataclass(frozen=True)
class LlmResponse:
    raw_text: str
    latency_ms: int


def completion_fingerprint(params: LlmParams, prompt: str) -> str:
    """Deterministic identity of a completion request: the SHA-256 of the
    canonical JSON of the params with the prompt, cut to 24 hex digits."""
    return Prompt.of(params, prompt).fingerprint


class LlmProvider(Protocol):
    def complete(self, params: LlmParams, prompt: Prompt) -> str: ...


class ReplicateHttpProvider:
    """Minimal client for a Replicate-style prediction HTTP API."""

    API_URL = "https://api.replicate.com/v1/models/{model}/predictions"

    def __init__(self, transport: Transport, api_token: str | None = None):
        self._transport = transport
        token = api_token or os.environ.get("KGVERIFY_LLM_TOKEN", "")
        if not token:
            raise ProviderUnavailable("LLM API token is not configured")
        # sorted, as HttpRequest.get sorts a request's headers
        self._headers = tuple(sorted({
            "Authorization": f"Bearer {token}",
            "Content-Type": "application/json",
            "Prefer": "wait",
        }.items()))

    def complete(self, params: LlmParams, prompt: Prompt) -> str:
        head, tail = params.request_affixes
        body = f"{head}{prompt.encoded}{tail}".encode("utf-8")
        req = HttpRequest("POST", self.API_URL.format(model=params.model),
                          headers=self._headers, body=body)
        resp = self._transport.send(req)
        if resp.status not in (200, 201):
            raise ProviderUnavailable(f"LLM API request failed with HTTP {resp.status}")
        with malformed(MalformedResponse, "unexpected prediction payload", resp.body):
            payload = resp.json()
            output = payload.get("output")
            status = payload.get("status", "succeeded")
            if status != "succeeded" or output is None:  # `Prefer: wait` gave up, or it failed
                raise ProviderUnavailable(f"LLM prediction has no output (status {status})")
            return "".join(map(str, output)) if isinstance(output, list) else str(output)


class ResponseLog:
    """Append-only JSON-lines log of completions, keyed by fingerprint.

    Safe to share between workers. Each completion is appended, to each of
    ``paths``, when it arrives, in one unbuffered write of its line's bytes
    (looping on a short write), so under a concurrent session lines are in
    completion order, not call order; replay keys lines by fingerprint, so
    their order does not matter. Timestamps come from ``clock`` (the run's
    clock, which ``--fixed-clock`` pins). Each path is opened at its first
    line, its torn last line cut if a killed run left one, and kept open
    until ``close``. A path that cannot be opened or written raises
    ``KgVerifyError`` (exit code 1) naming it, cuts what it wrote of the
    line, and closes them all; a later line opens them again.
    """

    def __init__(self, *paths: Path | str, clock: Callable[[], datetime] | None = None):
        self.paths = [Path(path) for path in paths]
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._lock = threading.Lock()
        self._handles: list[io.FileIO] = []

    def append(self, prompt: Prompt, params: LlmParams, raw_text: str, latency_ms: int) -> None:
        stamp = self._clock().astimezone(timezone.utc)
        line = (_log_line(prompt, params, raw_text, latency_ms, stamp) + "\n").encode("utf-8")
        with self._lock:
            try:
                if not self._handles:
                    for path in self.paths:
                        self._handles.append(_open_for_append(path))
                for path, handle in zip(self.paths, self._handles):
                    _write_line(handle, line)
            except OSError as exc:
                self._close()
                raise KgVerifyError(f"cannot write {path}: {exc.strerror or exc}") from exc

    def close(self) -> None:
        """Close the open paths; a later line opens them again."""
        with self._lock:
            self._close()

    def _close(self) -> None:
        """Close every open path, a failed one too; call under the lock."""
        handles, self._handles = self._handles, []
        for handle in handles:
            try:
                handle.close()
            except OSError:  # each line was written, or raised, when it was appended
                pass


def _open_for_append(path: Path) -> io.FileIO:
    """Opens ``path`` for appending lines, unbuffered, first cutting a torn last line.

    A run killed while writing a line leaves it unterminated: it is not a
    readable record, and the next line would be glued onto it and lost.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as handle:
        end = line_end = handle.seek(0, os.SEEK_END)
        while line_end > 0:  # back to the last line's newline, a page at a time
            start = handle.seek(max(0, line_end - 4096))
            newline = handle.read(line_end - start).rfind(b"\n")
            if newline >= 0:
                line_end = start + newline + 1
                break
            line_end = start
        if line_end < end:
            handle.truncate(line_end)
    return open(path, "ab", buffering=0)


def _write_line(handle: io.FileIO, line: bytes) -> None:
    """Append ``line`` to ``handle``, looping on a short write. A write that
    fails cuts what was written of the line, so the file ends at a whole line."""
    written = 0
    try:
        while written < len(line):
            written += handle.write(memoryview(line)[written:] if written else line)
    except OSError:
        if written:
            try:  # the handle appends: the line ends where it stands now
                handle.truncate(handle.tell() - written)
            except OSError:  # left torn: the next open cuts it
                pass
        raise


def _log_line(prompt: Prompt, params: LlmParams, raw_text: str, latency_ms: int,
              stamp: datetime) -> str:
    """One response-log record; the single definition of the log format: the
    bytes ``json.dumps(record, ensure_ascii=False)`` gives, its keys in this
    order. The fingerprint, the digest and the timestamp need no escaping."""
    digest = hashlib.sha256(prompt.text.encode("utf-8")).hexdigest()
    timestamp = stamp.strftime("%Y-%m-%dT%H:%M:%SZ")
    return (f'{{"fingerprint": "{prompt.fingerprint}", "model": {_encode(params.model)}, '
            f'"prompt_sha256": "{digest}", "raw_text": {_encode(raw_text)}, '
            f'"latency_ms": {latency_ms}, "timestamp": "{timestamp}"}}')


def write_response_log(path: Path | str, entries: list[tuple[LlmParams, str, str]]) -> None:
    """Write a replayable response log from (params, prompt, raw_text) triples."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    lines = [
        _log_line(Prompt.of(params, prompt), params, raw_text, 0, epoch)
        for params, prompt, raw_text in entries
    ]
    atomic_write(Path(path), ("\n".join(lines) + "\n").encode("utf-8"))


class LlmGateway:
    """Shareable front door to a provider: budget checks, fingerprints, logging.

    Each call JSON-encodes its prompt once (``Prompt``): the fingerprint,
    the provider's request body or replay lookup, and the log line all read
    that one value. Decoding is pinned, so the provider is asked each
    distinct completion (by fingerprint) once per gateway; a judgment that
    asks it again, or waits on it in flight, gets the first answer with its
    latency, and is logged like any other. A raised error is not kept. The
    gateway does not retry: a live provider's transport
    (``net.LiveTransport``) holds the one retry policy, so a failure that
    reaches here is final.
    """

    def __init__(
        self,
        provider: LlmProvider,
        params: LlmParams | None = None,
        context_tokens: int | None = None,
        response_log: ResponseLog | None = None,
    ):
        self.provider = provider
        self.params = params or LlmParams()
        self._budget_chars = context_tokens * CHARS_PER_TOKEN if context_tokens else None
        self._log = response_log
        self._answers: SingleFlight[LlmResponse] = SingleFlight()
        # a replay's lookup takes no time: it reports the recorded latency
        self._recorded_latency_ms = getattr(provider, "recorded_latency_ms", None)

    def complete(self, prompt: str) -> LlmResponse:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        if self._budget_chars is not None:
            used = len(prompt) + len(self.params.system_prompt)
            if used > self._budget_chars:
                raise ContextOverflow(
                    f"prompt of {used} chars exceeds budget of {self._budget_chars} chars"
                )
        asked = Prompt.of(self.params, prompt)
        response = self._answers.get(asked.fingerprint, lambda: self._ask(asked))
        if self._log is not None:
            self._log.append(asked, self.params, response.raw_text, response.latency_ms)
        return response

    def _ask(self, prompt: Prompt) -> LlmResponse:
        start = time.monotonic()
        raw = self.provider.complete(self.params, prompt)
        latency_ms = int((time.monotonic() - start) * 1000)
        if self._recorded_latency_ms is not None:
            latency_ms = self._recorded_latency_ms(prompt.fingerprint)
        return LlmResponse(raw_text=raw, latency_ms=latency_ms)


# -- response parsing ----------------------------------------------------------

# Declaration contexts where an option letter counts as the chosen answer.
_DECLARED_OPTION = [
    # "The correct answer is: a)", "correct label is:c) contradiction", "answer a"
    re.compile(r"\b(?:answer|label)\s*(?:is)?\s*:?\s*\(?([abc])\b\)?", re.IGNORECASE),
    # "I would choose option c)", "the correct option is (b)"
    re.compile(r"\boption\s*(?:is)?\s*:?\s*\(?([abc])\)", re.IGNORECASE),
    # Response that opens with the bare option: "a) The RDF statement ..."
    re.compile(r"^\s*\(?([abc])\)", re.IGNORECASE),
]

def _declared_letters(raw: str) -> list[str]:
    letters: list[str] = []
    for pattern in _DECLARED_OPTION:
        for match in pattern.finditer(raw):
            letter = match.group(1).lower()
            if letter not in letters:
                letters.append(letter)
    return letters


_LETTER_VERDICT = {"a": VerdictKind.DIRECT_PROOF, "b": VerdictKind.INDICATION,
                   "c": VerdictKind.NO_SUPPORT}


def parse_option(raw: str) -> VerdictKind:
    """Extract the chosen option (a/b/c) from a raw completion.

    The letter must appear in an answer-declaration context; incidental
    letters elsewhere never count. Zero or conflicting declarations are
    unparseable.
    """
    letters = _declared_letters(raw)
    if len(letters) != 1:
        return VerdictKind.UNPARSEABLE
    return _LETTER_VERDICT[letters[0]]


_LETTER_NLI = {"a": NliLabel.ENTAILMENT, "b": NliLabel.NEUTRAL, "c": NliLabel.CONTRADICTION}
_CLASS_WORDS = re.compile(r"\b(entailment|neutral|contradiction)\b", re.IGNORECASE)


def parse_nli_label(raw: str) -> NliLabel:
    """Extract the NLI class from a raw completion.

    An unambiguous declared letter wins; otherwise a single distinct literal
    class word decides. Conflicts between letter and word resolve to the
    letter; neither present means unparseable.
    """
    letters = _declared_letters(raw)
    if len(letters) == 1:
        return _LETTER_NLI[letters[0]]
    words = []
    for match in _CLASS_WORDS.finditer(raw):
        word = match.group(1).lower()
        if word not in words:
            words.append(word)
    if len(words) == 1:
        return NliLabel(words[0])
    return NliLabel.UNPARSEABLE


def extract_justification(raw: str) -> str:
    """The model's stated reasoning: text after the option declaration.

    Echoed canonical option wording is stripped so the justification starts
    with the model's own words. If prose precedes the declaration the whole
    response is kept; without any declaration the whole response is returned.
    """
    if not raw:
        return ""
    first = None
    for pattern in _DECLARED_OPTION:
        match = pattern.search(raw)
        if match is not None and (first is None or match.start() < first.start()):
            first = match
    if first is None:
        return raw.strip()
    prefix = raw[: first.start()]
    if any(mark in prefix for mark in (".", "!", "?")):
        # actual reasoning came before the declaration; keep everything
        return raw.strip()
    remainder = raw[first.end():].lstrip(" \t")
    remainder = remainder.lstrip(")").lstrip(" \t")
    for option_text in OPTION_TEXTS.values():
        if remainder.startswith(option_text):
            remainder = remainder[len(option_text):]
            break
    return remainder.strip()
