"""One directory of recorded remote traffic, for replay and for caching.

The layout is the bundled fixtures': ``http/<fingerprint>.json`` (one HTTP
response per request fingerprint), ``search/<query_key>.json`` (the hits of
one web-search query) and ``llm/responses.jsonl`` (a ``ResponseLog``'s
completions, keyed by completion fingerprint). ``--cache-dir DIR`` writes what
``--replay --fixtures DIR`` reads, so every cached live run replays.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from pathlib import Path

from .errors import FixtureMissing
from .llm import LlmParams, completion_fingerprint
from .net import (
    HttpRequest,
    HttpResponse,
    Transport,
    atomic_write,
    request_fingerprint,
    response_from_record,
    write_fixture,
)
from .retrieval import SearchHit, SearchProvider


def query_key(query: str) -> str:
    return hashlib.sha256(query.encode("utf-8")).hexdigest()[:24]


def write_search_fixture(directory: Path | str, query: str, hits: list[dict],
                         limit: int | None = None) -> Path:
    """Write one query's hits; ``limit``, if given, is the hit limit they answered."""
    path = Path(directory) / f"{query_key(query)}.json"
    record = {"query": query, "hits": hits}
    if limit is not None:
        record["limit"] = limit
    atomic_write(path, (json.dumps(record, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))
    return path


class FixtureStore:
    """Answers HTTP requests, searches and completions from one directory.

    Over no ``live`` side the store replays: it answers only from the
    directory, and a miss raises ``FixtureMissing``. Over a live transport or
    search provider it caches through: a record younger than ``ttl_seconds``
    (if given) answers, anything else is asked live and written back. Error
    responses are written too, so the run replays, but never answer in place
    of a live request. A search record answers any limit up to the one it was
    asked with, or up to its hit count if it names none (the bundled fixtures
    do not). Completions are only replayed; a live run records them with a
    ``ResponseLog`` on ``response_log_path``.
    """

    name = "replay"

    def __init__(self, directory: Path | str, live: Transport | SearchProvider | None = None,
                 ttl_seconds: float | None = None):
        self.directory = Path(directory)
        self._live = live
        self._ttl = ttl_seconds

    def over(self, live: Transport | SearchProvider) -> "FixtureStore":
        """A store on the same directory that caches through ``live``."""
        return FixtureStore(self.directory, live, self._ttl)

    @property
    def response_log_path(self) -> Path:
        return self.directory / "llm" / "responses.jsonl"

    def _recorded(self, path: Path) -> dict | None:
        if not path.exists():
            return None
        if self._ttl is not None and time.time() - path.stat().st_mtime > self._ttl:
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def send(self, req: HttpRequest) -> HttpResponse:
        fingerprint = request_fingerprint(req)
        path = self.directory / "http" / f"{fingerprint}.json"
        record = self._recorded(path)
        if record is not None and (self._live is None or record["response"]["status"] < 400):
            return response_from_record(record)
        if self._live is None:
            raise FixtureMissing(
                f"no recorded fixture for {req.method} {req.url} (fingerprint {fingerprint})"
            )
        resp = self._live.send(req)
        write_fixture(path.parent, req, resp)
        return resp

    def search(self, query: str, limit: int) -> list[SearchHit]:
        key = query_key(query)
        record = self._recorded(self.directory / "search" / f"{key}.json")
        if record is not None and (self._live is None
                                   or limit <= max(len(record["hits"]), record.get("limit", 0))):
            return [
                SearchHit(url=h["url"], rank=i + 1, title=h.get("title"))
                for i, h in enumerate(record["hits"][:limit])
            ]
        if self._live is None:
            raise FixtureMissing(f"no recorded search results for query {query!r} (key {key})")
        hits = self._live.search(query, limit)
        write_search_fixture(self.directory / "search", query,
                             [{"url": hit.url, "title": hit.title} for hit in hits], limit)
        return hits

    @functools.cached_property
    def completions(self) -> dict[str, dict]:
        """Recorded completion records by fingerprint; a later line wins."""
        if not self.response_log_path.exists():
            return {}
        lines = self.response_log_path.read_text(encoding="utf-8").splitlines()
        records = (json.loads(line) for line in lines if line.strip())
        return {record["fingerprint"]: record for record in records}

    def complete(self, params: LlmParams, prompt: str) -> str:
        fingerprint = completion_fingerprint(params, prompt)
        if fingerprint not in self.completions:
            raise FixtureMissing(
                f"no recorded completion for fingerprint {fingerprint} (model {params.model})"
            )
        return self.completions[fingerprint]["raw_text"]

    def recorded_latency_ms(self, fingerprint: str) -> int:
        return self.completions[fingerprint]["latency_ms"]
