"""One directory of recorded remote traffic, for replay and for caching.

The layout is the bundled fixtures': ``http/<fingerprint>.json`` (one HTTP
response per request fingerprint, web searches included) and
``llm/responses.jsonl`` (a ``ResponseLog``'s completions, keyed by completion
fingerprint). ``--cache-dir DIR`` writes what ``--replay --fixtures DIR``
reads, so every cached live run replays.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

from .errors import (FixtureMissing, KgVerifyError, MalformedInput, json_records, json_value,
                     malformed, read_input)
from .llm import LlmParams, Prompt
from .net import (
    HttpRequest,
    HttpResponse,
    Transport,
    atomic_write,
    request_fingerprint,
    response_from_record,
    response_to_record,
)


class FixtureStore:
    """Answers HTTP requests and completions from one directory.

    Over no ``live`` side the store replays: it answers only from the
    directory, and a miss raises ``FixtureMissing``. Over a live transport it
    caches through: a record younger than ``ttl_seconds`` (if given) answers,
    anything else is asked live and written back. Error responses are written
    too, so the run replays, but never answer in place of a live request. A
    record answers exactly the request it recorded, so a search recorded at one
    hit limit does not answer another. Completions are only replayed; a live
    run records them with a ``ResponseLog`` on ``response_log_path``. A record
    that cannot be written raises ``KgVerifyError`` (exit 1).
    """

    def __init__(self, directory: Path | str, live: Transport | None = None,
                 ttl_seconds: float | None = None):
        self.directory = Path(directory)
        self._live = live
        self._ttl = ttl_seconds

    @property
    def response_log_path(self) -> Path:
        return self.directory / "llm" / "responses.jsonl"

    def _path(self, req: HttpRequest) -> Path:
        return self.directory / "http" / f"{request_fingerprint(req)}.json"

    def send(self, req: HttpRequest) -> HttpResponse:
        path = self._path(req)
        if path.exists() and (self._ttl is None or time.time() - path.stat().st_mtime <= self._ttl):
            data = read_input(path, "fixture")
            with malformed(MalformedInput, str(path), data):
                recorded = response_from_record(json_value(data))
                if self._live is None or recorded.status < 400:
                    return recorded
        if self._live is None:
            raise FixtureMissing(
                f"no recorded fixture for {req.method} {req.url} (fingerprint {path.stem})"
            )
        resp = self._live.send(req)
        self.record(req, resp, path)
        return resp

    def record(self, req: HttpRequest, resp: HttpResponse, path: Path | None = None) -> Path:
        """Write ``resp`` as the record that answers ``req`` (at ``path``, if the
        caller has it already) and return its path."""
        path = path or self._path(req)
        record = json.dumps(response_to_record(req, resp), indent=2, ensure_ascii=False) + "\n"
        try:
            atomic_write(path, record.encode("utf-8"))
        except OSError as exc:  # a full disk, or a file where http/ should be
            raise KgVerifyError(f"cannot write {path}: {exc.strerror or exc}") from exc
        return path

    @functools.cached_property
    def completions(self) -> dict[str, tuple[str, int]]:
        """Each recorded completion's text and latency (ms) by fingerprint; a
        later line wins."""
        path = self.response_log_path
        if not path.exists():
            return {}
        return dict(json_records(path, "response log", lambda record: (
            record["fingerprint"], (record["raw_text"], record["latency_ms"]))))

    def complete(self, params: LlmParams, prompt: Prompt) -> str:
        if prompt.fingerprint not in self.completions:
            raise FixtureMissing(f"no recorded completion for fingerprint {prompt.fingerprint}"
                                 f" (model {params.model})")
        return self.completions[prompt.fingerprint][0]

    def recorded_latency_ms(self, fingerprint: str) -> int:
        return self.completions[fingerprint][1]
