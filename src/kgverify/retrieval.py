"""Grounding-document retrieval: web search, fetching, and chunking.

Search providers are pluggable (``kgverify.store`` records and replays the
live one's GET like any other request); document fetching extracts paragraph
text from HTML only, falls back to the web archive for dead links, and packs
paragraphs into size-bounded chunks for models with tight input budgets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence, TypeVar

from . import html_text
from .errors import (
    SHAPE_ERRORS,
    MalformedResponse,
    PermanentlyUnavailable,
    ProviderUnavailable,
    Unavailable,
    UnsupportedMediaType,
    malformed,
)
from .model import RetrievalSource
from .net import HttpRequest, HttpResponse, SingleFlight, Transport

MIN_PARAGRAPH_CHARS = 100
DEFAULT_CHUNK_CHARS = 10_000
DEFAULT_HIT_LIMIT = 5
MAX_HIT_LIMIT = 10  # the Custom Search JSON API's largest num
ARCHIVE_AVAILABILITY_API = "https://archive.org/wayback/available"

_HTML_TYPES = {"text/html", "application/xhtml+xml"}

_Parsed = TypeVar("_Parsed")


@dataclass(frozen=True)
class GroundingDocument:
    url: str
    retrieval_source: RetrievalSource
    paragraphs: tuple[str, ...]


class SearchProvider(Protocol):
    def search(self, query: str, limit: int) -> list[str]:
        """The URLs of at most ``limit`` hits, best rank first."""
        ...


class GoogleSearchProvider:
    """Programmatic web search via the Custom Search JSON API.

    Credentials come from the environment (KGVERIFY_SEARCH_KEY,
    KGVERIFY_SEARCH_CX) unless passed explicitly.
    """

    API_URL = "https://www.googleapis.com/customsearch/v1"

    def __init__(self, transport: Transport, api_key: str | None = None, cx: str | None = None):
        self._transport = transport
        self._key = api_key or os.environ.get("KGVERIFY_SEARCH_KEY", "")
        self._cx = cx or os.environ.get("KGVERIFY_SEARCH_CX", "")
        if not self._key or not self._cx:
            raise ProviderUnavailable("search credentials are not configured")

    def search(self, query: str, limit: int) -> list[str]:
        req = HttpRequest.get(
            self.API_URL,
            params={"key": self._key, "cx": self._cx, "q": query, "num": str(limit)},
        )
        resp = self._transport.send(req)
        if resp.status == 429:
            raise ProviderUnavailable("search quota exhausted")
        if resp.status >= 500:
            raise ProviderUnavailable(f"search provider returned HTTP {resp.status}")
        if resp.status != 200:
            raise ProviderUnavailable(f"search request failed with HTTP {resp.status}")
        with malformed(MalformedResponse, "unexpected search payload", resp.body):
            items = resp.json().get("items", []) or []
            urls = [item["link"] for item in items[:limit]]
            if not all(isinstance(url, str) for url in urls):
                raise TypeError("a hit's link is not a string")
        return urls


class DocumentFetcher:
    """Fetches pages and extracts their paragraph text: a run's one memo of pages.

    A single-flight memo keyed by URL and parse (a page's paragraphs, a
    snapshot's, or ``fetch_parsed``'s ``parse``) serves all callers, also at
    once. It keeps each page's outcome, not its body: the parsed value, or
    its ``PermanentlyUnavailable`` or ``UnsupportedMediaType``, raised anew
    for each caller; a 429, a 5xx or a transport error is asked again. A dead
    link's archive lookup is kept alike. A URL reached under two parses (a
    cited page that is also a dead link's snapshot) is asked once per parse.
    """

    def __init__(self, transport: Transport):
        self._transport = transport
        self._outcomes: SingleFlight = SingleFlight()

    def fetch_raw(self, url: str) -> str:
        """Fetch a URL and return its HTML text; non-HTML is rejected."""
        resp = self._transport.send(HttpRequest.get(url))
        if resp.status >= 400:
            permanent = resp.status != 429 and resp.status < 500
            error = PermanentlyUnavailable if permanent else Unavailable
            raise error(f"GET {url} returned HTTP {resp.status}")
        media_type = resp.content_type or _sniff_media_type(url, resp)
        if media_type not in _HTML_TYPES:
            raise UnsupportedMediaType(f"{url}: unsupported media type {media_type or 'unknown'}")
        return resp.text

    def fetch_parsed(self, url: str, parse: Callable[[str], _Parsed]) -> _Parsed:
        """``parse`` of the page at ``url``, fetched and parsed once per fetcher."""
        outcome = self._outcomes.get((url, parse), lambda: self._parse_outcome(url, parse))
        if isinstance(outcome, Exception):  # one instance raised again grows its traceback
            raise type(outcome)(*outcome.args)
        return outcome

    def _parse_outcome(self, url: str, parse: Callable[[str], _Parsed]) -> _Parsed | Exception:
        try:
            return parse(self.fetch_raw(url))
        except (PermanentlyUnavailable, UnsupportedMediaType) as exc:  # the page's answer
            return exc.with_traceback(None)  # kept with no frame, so with no body

    def fetch_document(self, url: str) -> GroundingDocument:
        return GroundingDocument(url, RetrievalSource.DIRECT,
                                 self.fetch_parsed(url, _page_paragraphs))

    def fetch_with_archive_fallback(self, url: str) -> GroundingDocument:
        """Fetch directly; if the resource is gone, use its archived snapshot."""
        try:
            return self.fetch_document(url)
        except Unavailable:
            pass
        try:
            snapshot_url = self._outcomes.get((url, ARCHIVE_AVAILABILITY_API),
                                              lambda: self._nearest_snapshot(url))
        except Unavailable:
            snapshot_url = None
        if snapshot_url is None:
            raise Unavailable(f"{url}: no live copy and no archived snapshot")
        return GroundingDocument(snapshot_url, RetrievalSource.WEB_ARCHIVE,
                                 self.fetch_parsed(snapshot_url, _snapshot_paragraphs))

    def _nearest_snapshot(self, url: str) -> str | None:
        """The archive's closest snapshot of ``url``, or None; a 429 or a 5xx raises."""
        resp = self._transport.send(HttpRequest.get(ARCHIVE_AVAILABILITY_API, params={"url": url}))
        if resp.status == 429 or resp.status >= 500:
            raise Unavailable(f"archive lookup of {url} returned HTTP {resp.status}")
        if resp.status != 200:
            return None
        try:
            closest = resp.json().get("archived_snapshots", {}).get("closest", {})
            url = closest.get("url") if closest.get("available") else None
        except SHAPE_ERRORS:  # an answer of another shape: no snapshot
            return None
        return url if isinstance(url, str) and url else None


def _page_paragraphs(html: str) -> tuple[str, ...]:
    return tuple(html_text.extract_paragraphs(html))


def _snapshot_paragraphs(html: str) -> tuple[str, ...]:
    return _page_paragraphs(html_text.strip_archive_chrome(html))


def _sniff_media_type(url: str, resp: HttpResponse) -> str:
    path = url.split("?", 1)[0].lower()
    if path.endswith(".pdf") or resp.body[:5] == b"%PDF-":
        return "application/pdf"
    head = resp.body[:512].lstrip().lower()
    if head.startswith(b"<!doctype html") or head.startswith(b"<html"):
        return "text/html"
    return ""


def is_valid_paragraph(text: str) -> bool:
    """Whether a paragraph is long enough to be worth querying (at least 100 characters)."""
    return len(text) >= MIN_PARAGRAPH_CHARS


def valid_paragraphs(paragraphs: Iterable[str]) -> list[str]:
    """The paragraphs worth querying, in order."""
    return [p for p in paragraphs if is_valid_paragraph(p)]


def chunk_fill_limit(
    paragraphs: Sequence[str], max_chars: int = DEFAULT_CHUNK_CHARS
) -> list[range]:
    """Greedily pack consecutive paragraphs into chunks of at most ``max_chars``.

    Each chunk is the range of its paragraphs' positions; its text is their
    join with one newline per boundary. A single paragraph longer than the
    budget becomes its own oversize chunk; paragraphs are never split, so the
    chunks cover every position once, in order.
    """
    if max_chars <= 0:
        raise ValueError("max_chars must be positive")
    chunks: list[range] = []
    start = length = 0
    for end, paragraph in enumerate(paragraphs):
        if end > start and length + 1 + len(paragraph) > max_chars:
            chunks.append(range(start, end))
            start, length = end, 0
        length += len(paragraph) + (end > start)
        if length > max_chars:  # a single oversize paragraph, kept whole
            chunks.append(range(start, end + 1))
            start, length = end + 1, 0
    if start < len(paragraphs):
        chunks.append(range(start, len(paragraphs)))
    return chunks
