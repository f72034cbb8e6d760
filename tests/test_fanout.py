"""Session fan-out: a verifier with a worker pool produces the same sessions
as one without, however the concurrent calls interleave. The same holds for
evaluate's instances."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import random
import re
import signal
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from typing import Callable

import pytest

from kgverify.cli import _judge, _verify_statements
from kgverify.datasets import LabeledInstance, Origin, SnliRecord
from kgverify.errors import FixtureMissing, MalformedResponse
from kgverify.llm import LlmGateway, Prompt, ResponseLog, parse_nli_label, parse_option
from kgverify.model import BinaryDecision, DecisionMode, NliLabel, Statement, verdict_to_binary
from kgverify.net import HttpRequest
from kgverify.prompting import (
    OPTION_TEXTS,
    SYSTEM_PROMPT,
    render_nli_prompt,
    render_rdf_prompt,
)
from kgverify.retrieval import ARCHIVE_AVAILABILITY_API, DocumentFetcher, chunk_fill_limit
from kgverify.verifier import (
    Verifier,
    WorkerPool,
    _Tasks,
    map_in_order,
    parse_wikipedia_article,
)
from kgverify.wikidata import WIKIDATA_API, EntityId, WikidataClient

from concurrency import InFlight, Rendezvous, await_thread_blocked_in, interrupt_thread_start
from conftest import DictTransport

STATEMENT = Statement("Subject", "related to", "Thing", subject_id="Q1")
NOW = datetime(2024, 3, 2, 13, 27, 25, tzinfo=timezone.utc)
PROOF, HINT = "zzproofzz", "zzhintzz"

ANSWER = {
    "a": "The correct answer is: a) " + OPTION_TEXTS["a"] + " The snippet says so.",
    "b": "The correct answer is: b) " + OPTION_TEXTS["b"],
    "c": "The correct answer is: c) " + OPTION_TEXTS["c"],
}


def jitter(seed: int, key: str) -> None:
    """Sleep a seeded random 0.2-4 ms, so concurrent calls finish out of order."""
    time.sleep(random.Random(f"{seed}:{key}").uniform(0.0002, 0.004))


class ContentProvider:
    """Thread-safe provider that answers by the snippet's marker words, and
    keeps the prompts it is asked. With a ``rendezvous``, each call meets it
    once it counts as in flight; then ``on_call``, if set, gets the prompt
    and may hold the call or fail it."""

    def __init__(self, seed: int = 1):
        self.seed = seed
        self.calls = 0
        self.prompts: list[str] = []
        self.in_flight = InFlight()
        self.rendezvous: Rendezvous | None = None
        self.on_call: Callable[[str], None] | None = None
        self._lock = threading.Lock()

    @property
    def peak(self) -> int:
        return self.in_flight.peak

    def complete(self, params, asked: Prompt) -> str:
        prompt = asked.text
        with self._lock:
            self.calls += 1
            self.prompts.append(prompt)
        with self.in_flight:
            if self.rendezvous is not None:
                self.rendezvous.meet()
            if self.on_call is not None:
                self.on_call(prompt)
            jitter(self.seed, prompt)
        snippet = prompt.split("Snippet to verify from:", 1)[-1]
        if PROOF in snippet:
            return ANSWER["a"]
        if HINT in snippet:
            return ANSWER["b"]
        return ANSWER["c"]


class SlowTransport(DictTransport):
    """The in-memory transport, with a seeded delay and scripted failures; it
    counts the requests in flight, and ``on_send``, if set, gets each one."""

    def __init__(self, seed: int = 1):
        super().__init__()
        self.seed = seed
        self.failures: dict[str, tuple[float, Exception]] = {}
        self.in_flight = InFlight()
        self.on_send: Callable[[HttpRequest], None] | None = None

    def fail(self, url: str, exc: Exception, after_s: float = 0.0) -> None:
        self.failures[url] = (after_s, exc)

    def send(self, req: HttpRequest):
        with self.in_flight:
            if self.on_send is not None:
                self.on_send(req)
            if req.url in self.failures:
                self.requests.append(req)
                after_s, exc = self.failures[req.url]
                time.sleep(after_s)
                raise exc
            jitter(self.seed, req.url + repr(req.params))
            return super().send(req)


def para(*words: str, n: int = 3) -> str:
    return "<p>" + " ".join(words) + " " + "plain filler words " * (6 * n) + "</p>"


class StubSearch:
    def __init__(self, urls):
        self.urls = urls
        self.queries: list[str] = []

    def search(self, query, limit):
        self.queries.append(query)
        return self.urls[:limit]


def gateway(provider: ContentProvider, response_log=None) -> LlmGateway:
    # room for article chunks and ordinary paragraphs; 3000 characters overflow
    fits = len(render_rdf_prompt(STATEMENT, "x" * 1200)) + len(SYSTEM_PROMPT)
    return LlmGateway(provider, context_tokens=fits // 4, response_log=response_log)


def normalised(session) -> dict:
    """A session's content; trace durations are live timings, so they are zeroed."""
    return {
        "documents": session.documents,
        "skips": session.skips,
        "anchors": session.wikipedia_anchors,
        "traces": [dataclasses.replace(t, duration_ms=0) for t in session.traces],
        "paragraphs_queried": session.paragraphs_queried,
    }


OVERSIZE = "<p>" + "o" * 3000 + "</p>"
WEB_PAGES = {
    "https://a.example/late-proof": para() + para() + para(PROOF) + para(PROOF),
    "https://b.example/report.pdf": None,
    "https://c.example/gone": 404,
    "https://d.example/overflow-hint": OVERSIZE + para(HINT) + para(),
    "https://e.example/first-proof": para(PROOF) + para(),
    "https://f.example/too-short": "<p>short</p><p>tiny</p>",
    "https://g.example/nothing": para() + para() + para() + para(),
    "https://h.example/overflow-proof": para() + OVERSIZE + para(PROOF),
}


def web_verifier(pool, seed=1, urls=None, response_log=None, pages=WEB_PAGES):
    transport = SlowTransport(seed)
    for url, page in pages.items():
        if page is None:
            transport.add(HttpRequest.get(url), body=b"%PDF-1.4", content_type="application/pdf")
        elif isinstance(page, int):
            transport.add(HttpRequest.get(url), status=page, body="gone")
        else:
            transport.add(HttpRequest.get(url), body=page)
    provider = ContentProvider(seed)
    verifier = Verifier(
        gateway=gateway(provider, response_log),
        fetcher=DocumentFetcher(transport),
        search_provider=StubSearch(urls or list(pages)),
        clock=lambda: NOW,
        pool=pool,
    )
    return verifier, provider, transport


ARTICLE_URL = "https://en.wikipedia.org/wiki/Subject"
SNAPSHOT = "https://web.archive.org/web/2020/https://dead.example/archived"
REFERENCES = [
    "https://p1.example/proof",          # 1
    "https://p2.example/nothing",        # 2
    "https://dead.example/archived",     # 3: dead, archived copy proves
    "https://dead.example/lost",         # 4: dead, no snapshot
    "https://p5.example/paper.pdf",      # 5
    "https://p6.example/overflow-proof",  # 6
]
SOURCES = {
    REFERENCES[0]: para() + para(PROOF),
    REFERENCES[1]: para() + para(),
    REFERENCES[5]: OVERSIZE + para(PROOF),
    SNAPSHOT: para(PROOF) + para(),
}


def cite(*numbers: int) -> str:
    return "".join(
        f'<sup class="reference"><a href="#cite_note-{n}">[{n}]</a></sup>' for n in numbers
    )


def article_html() -> str:
    paragraphs = [
        para(),
        para(PROOF, cite(1, 2)),
        para(HINT),
        para(),
        para(PROOF, cite(3, 9)),        # 9 dangles
        para(),
        para(),
        para(PROOF, cite(2, 4, 5)),     # 2 again: examined once
        para(PROOF, cite(6)),
        "<p>short one</p>",
        para(),
        para(PROOF, cite(12, 1)),       # dangling, then a repeat
    ]
    entries = "".join(
        f'<li id="cite_note-{i}"><cite>Source {i}.</cite><a href="{url}">link</a></li>'
        for i, url in enumerate(REFERENCES, start=1)
    )
    return ("<html><body>" + "".join(paragraphs)
            + f'<ol class="references">{entries}</ol></body></html>')


def wiki_verifier(pool, seed=1, chunk_chars=700):
    """A verifier over one fetcher, a run's memo of pages; ``transport`` sees what
    reaches the remote."""
    transport = SlowTransport(seed)
    transport.add(HttpRequest.get(ARTICLE_URL), body=article_html())
    for url, page in SOURCES.items():
        transport.add(HttpRequest.get(url), body=page)
    transport.add(HttpRequest.get(REFERENCES[4]), body=b"%PDF-1.4",
                  content_type="application/pdf")
    for url, snapshot in ((REFERENCES[2], SNAPSHOT), (REFERENCES[3], None)):
        transport.add(HttpRequest.get(url), status=404, body="gone")
        closest = {"closest": {"available": True, "url": snapshot}} if snapshot else {}
        transport.add_json(HttpRequest.get(ARCHIVE_AVAILABILITY_API, params={"url": url}),
                           {"archived_snapshots": closest})
    provider = ContentProvider(seed)
    verifier = Verifier(
        gateway=gateway(provider),
        fetcher=DocumentFetcher(transport),
        chunk_chars=chunk_chars,
        clock=lambda: NOW,
        pool=pool,
    )
    return verifier, provider, transport


@contextlib.contextmanager
def worker_pool(width: int):
    pool = WorkerPool(width)
    try:
        yield pool
    finally:
        pool.close()


@pytest.fixture(params=[1, 4], ids=["width1", "width4"])
def pool(request):
    with worker_pool(request.param) as pool:
        yield pool


class TestDeterminism:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_web_search_session_matches_inline(self, pool, seed):
        expected_verifier, expected_provider, _ = web_verifier(None, seed)
        expected = expected_verifier.verify_via_web_search(STATEMENT, hit_limit=8)
        verifier, provider, _ = web_verifier(pool, seed)
        session = verifier.verify_via_web_search(STATEMENT, hit_limit=8)
        assert normalised(session) == normalised(expected)
        # the same prompts either way, each asked once however often it is judged
        assert provider.calls == expected_provider.calls == len(set(provider.prompts))
        # the fixture exercises every kind of outcome
        assert [t.document_url for t in session.traces] == [
            "https://a.example/late-proof", "https://e.example/first-proof",
            "https://h.example/overflow-proof"]
        assert [s.kind for s in session.skips] == ["context-overflow"] * 2
        assert sorted(d.skip.kind for d in session.documents if d.skip) == [
            "unavailable", "unsupported-media"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wikipedia_session_matches_inline(self, pool, seed):
        expected_verifier, expected_provider, _ = wiki_verifier(None, seed)
        expected = expected_verifier.verify_via_wikipedia(STATEMENT, ARTICLE_URL)
        verifier, provider, _ = wiki_verifier(pool, seed)
        session = verifier.verify_via_wikipedia(STATEMENT, ARTICLE_URL)
        assert normalised(session) == normalised(expected)
        # the same prompts either way, each asked once however often it is judged
        assert provider.calls == expected_provider.calls == len(set(provider.prompts))
        assert [a.ref_numbers for a in session.wikipedia_anchors] == [
            (1, 2), (3, 9), (2, 4, 5), (6,), (12, 1)]
        assert [(s.kind, s.target) for s in session.skips] == [
            ("dangling-reference", "9"),
            ("context-overflow", REFERENCES[5]),
            ("dangling-reference", "12"),
        ]
        assert [d.url for d in session.documents] == [ARTICLE_URL, *REFERENCES]
        assert [t.document_url for t in session.traces] == [
            REFERENCES[0], SNAPSHOT, REFERENCES[5]]
        assert all("wikipedia.org" not in t.document_url for t in session.traces)

    def test_width4_runs_calls_concurrently(self):
        """The first two completions answer only once both are in flight, which
        fails the session unless two documents are judged at once."""
        with worker_pool(4) as pool:
            verifier, provider, _ = web_verifier(pool)
            provider.rendezvous = Rendezvous(2)
            verifier.verify_via_web_search(STATEMENT, hit_limit=8)
        assert provider.peak > 1


class TestArticleOncePerRun:
    def test_one_article_fetch_and_one_entity_lookup(self, pool):
        """As in a verify-wikipedia run, the caller resolves the article once
        and hands its URL to every session; the sessions ask no entity lookup."""
        verifier, _, transport = wiki_verifier(pool)
        lookup = HttpRequest.get(WIKIDATA_API, params={
            "action": "wbgetentities", "ids": "Q1", "props": "info|labels|sitelinks/urls",
            "languages": "en", "sitefilter": "enwiki", "format": "json",
        })
        transport.add_json(lookup, {"entities": {"Q1": {
            "id": "Q1", "lastrevid": 7, "labels": {"en": {"value": "Subject"}},
            "sitelinks": {"enwiki": {"title": "Subject", "url": ARTICLE_URL}}}}})
        article_url = WikidataClient(transport).entity_info(EntityId(1)).wikipedia_url
        statements = [dataclasses.replace(STATEMENT, object_label=f"Thing {i}")
                      for i in range(3)]
        sessions = [verifier.verify_via_wikipedia(s, article_url) for s in statements]
        assert [s.documents[0].url for s in sessions] == [ARTICLE_URL] * 3
        urls = [r.url for r in transport.requests]
        assert urls.count(ARTICLE_URL) == 1
        assert transport.requests.count(lookup) == 1 == urls.count(WIKIDATA_API)  # the caller's

    def test_overlapping_statements_parse_the_article_once(self, pool, monkeypatch):
        """Two statements about one subject, verified at once, fetch and parse
        its article once: the second waits for the first's."""
        import kgverify.verifier as verifier_module

        verifier, _, _ = wiki_verifier(pool)
        parse = verifier_module.parse_wikipedia_article
        parsed = []

        def counting_parse(html):
            parsed.append(html)
            return parse(html)

        fetch_parsed = verifier.fetcher.fetch_parsed
        asked = threading.Semaphore(0)

        def get_article(url, how):
            if url == ARTICLE_URL:
                asked.release()
            return fetch_parsed(url, how)

        fetch_raw = verifier.fetcher.fetch_raw

        def held_fetch_raw(url):
            for _ in range(2 if url == ARTICLE_URL else 0):  # both statements have asked
                assert asked.acquire(timeout=5.0), "the other statement never asked"
            return fetch_raw(url)

        monkeypatch.setattr(verifier_module, "parse_wikipedia_article", counting_parse)
        monkeypatch.setattr(verifier.fetcher, "fetch_parsed", get_article)
        monkeypatch.setattr(verifier.fetcher, "fetch_raw", held_fetch_raw)
        statements = [dataclasses.replace(STATEMENT, object_label=f"Thing {i}")
                      for i in range(2)]
        together = threading.Barrier(2)

        def verify(statement):
            together.wait(timeout=5.0)
            return verifier.verify_via_wikipedia(statement, ARTICLE_URL)

        with ThreadPoolExecutor(max_workers=2) as statements_pool:
            sessions = list(statements_pool.map(verify, statements))
        assert len(parsed) == 1
        assert [s.documents[0].url for s in sessions] == [ARTICLE_URL] * 2


class TestParseOncePerRun:
    """Statements of one run that reach one page share its parse, and a proved
    article paragraph's citations; the sessions stay those of statements
    verified apart, and a failed page is still asked again."""

    STATEMENTS = [dataclasses.replace(STATEMENT, object_label=f"Thing {i}") for i in range(2)]

    @staticmethod
    def count_calls(monkeypatch, module, name: str) -> list:
        """The first argument of each call of ``module.name``, from now on."""
        original, args = getattr(module, name), []

        def counting(first, *rest):
            args.append(first)
            return original(first, *rest)

        monkeypatch.setattr(module, name, counting)
        return args

    def test_statements_sharing_a_hit_parse_it_once(self, pool, monkeypatch):
        import kgverify.html_text as html_text

        busy = "https://i.example/busy"
        pages = {**WEB_PAGES, busy: 503}
        apart = [web_verifier(None, pages=pages)[0].verify_via_web_search(s, hit_limit=9)
                 for s in self.STATEMENTS]
        parsed = self.count_calls(monkeypatch, html_text, "extract_paragraphs")
        verifier, _, transport = web_verifier(pool, pages=pages)
        sessions, _ = _verify_statements(
            pool, self.STATEMENTS, lambda s: verifier.verify_via_web_search(s, hit_limit=9))
        assert [normalised(s) for s in sessions] == [normalised(s) for s in apart]
        html_pages = [page for page in pages.values() if isinstance(page, str)]
        assert sorted(parsed) == sorted(html_pages)  # each distinct page once
        asked = [r.url for r in transport.requests]
        assert asked.count(busy) == 2  # a 503 is not kept: the later statement asks again
        assert all(asked.count(url) == 1 for url in set(asked) - {busy})
        assert [s.documents[-1].skip.detail for s in sessions] == [
            f"GET {busy} returned HTTP 503"] * 2

    def test_statements_rendering_one_query_search_once(self, pool):
        """A subject may hold one value twice under one property, so two
        selected statements can render one search query: it is asked once."""
        apart = web_verifier(None)[0].verify_via_web_search(STATEMENT, hit_limit=9)
        verifier, _, _ = web_verifier(pool)
        sessions, _ = _verify_statements(
            pool, [STATEMENT] * 2, lambda s: verifier.verify_via_web_search(s, hit_limit=9))
        assert [normalised(s) for s in sessions] == [normalised(apart)] * 2
        assert len(verifier.search_provider.queries) == 1

    def test_statements_citing_one_source_parse_it_once(self, pool, monkeypatch):
        import kgverify.html_text as html_text
        import kgverify.verifier as verifier_module

        apart = [wiki_verifier(None)[0].verify_via_wikipedia(s, ARTICLE_URL)
                 for s in self.STATEMENTS]
        parsed = self.count_calls(monkeypatch, html_text, "extract_paragraphs")
        articles = self.count_calls(monkeypatch, verifier_module, "parse_wikipedia_article")
        resolved = self.count_calls(monkeypatch, verifier_module, "resolve_citations")
        verifier, _, _ = wiki_verifier(pool)
        sessions, _ = _verify_statements(
            pool, self.STATEMENTS, lambda s: verifier.verify_via_wikipedia(s, ARTICLE_URL))
        assert [normalised(s) for s in sessions] == [normalised(s) for s in apart]
        assert len(articles) == 1
        # every cited page and the dead link's snapshot, each once
        assert len(parsed) == len(set(parsed)) == len(SOURCES)
        # once per proved paragraph, not once per statement
        assert sorted(map(tuple, resolved)) == sorted(
            anchor.ref_numbers for anchor in sessions[0].wikipedia_anchors)


def article_chunks(chunk_chars: int = 700) -> tuple[list[str], list[list[str]]]:
    """The texts of the test article's chunks, and of each chunk's paragraphs."""
    texts = [p.text for p in parse_wikipedia_article(article_html()).paragraphs]
    members = [[texts[i] for i in positions]
               for positions in chunk_fill_limit(texts, max_chars=chunk_chars)]
    return ["\n".join(chunk) for chunk in members], members


def asks(prompt: str, snippet: str) -> bool:
    """Whether ``prompt`` asks about exactly ``snippet``."""
    return f'Snippet to verify from: "{snippet}" Please' in prompt


class TestStreamedWikipediaSession:
    """A session's stages start per item: a positive chunk's drill-down and a
    proved paragraph's cited sources start while other judgments still run."""

    # chunks of three or four paragraphs: no chunk asks what a paragraph asks
    CHUNK_CHARS = 1200

    def test_drill_down_starts_while_another_chunk_is_held(self):
        chunks, members = article_chunks(self.CHUNK_CHARS)
        first_positive = next(i for i, c in enumerate(chunks) if PROOF in c or HINT in c)
        held = first_positive + 2
        drilled = threading.Event()

        def on_call(prompt):
            if any(asks(prompt, text) for text in members[first_positive]):
                drilled.set()
            elif asks(prompt, chunks[held]):
                assert drilled.wait(5.0), "no drill-down began while a chunk was held"

        with worker_pool(4) as pool:
            verifier, provider, _ = wiki_verifier(pool, chunk_chars=self.CHUNK_CHARS)
            provider.on_call = on_call
            session = verifier.verify_via_wikipedia(STATEMENT, ARTICLE_URL)
        assert drilled.is_set()
        expected, _, _ = wiki_verifier(None, chunk_chars=self.CHUNK_CHARS)
        assert normalised(session) == normalised(
            expected.verify_via_wikipedia(STATEMENT, ARTICLE_URL))

    def test_cited_source_starts_while_a_sibling_paragraph_is_held(self):
        _, members = article_chunks(self.CHUNK_CHARS)
        proved, sibling = next((m[p], m[h]) for m in members for p in range(len(m))
                               for h in range(len(m)) if PROOF in m[p] and HINT in m[h])
        fetched = threading.Event()

        def on_send(req):
            if req.url in REFERENCES:
                fetched.set()

        def on_call(prompt):
            if asks(prompt, sibling):
                assert fetched.wait(5.0), "no cited source was fetched while a paragraph was held"

        with worker_pool(4) as pool:
            verifier, provider, transport = wiki_verifier(pool, chunk_chars=self.CHUNK_CHARS)
            provider.on_call, transport.on_send = on_call, on_send
            session = verifier.verify_via_wikipedia(STATEMENT, ARTICLE_URL)
        assert fetched.is_set()
        assert proved in [a.paragraph_text for a in session.wikipedia_anchors]
        expected, _, _ = wiki_verifier(None, chunk_chars=self.CHUNK_CHARS)
        assert normalised(session) == normalised(
            expected.verify_via_wikipedia(STATEMENT, ARTICLE_URL))

    @pytest.mark.parametrize("width", [1, 4])
    def test_a_failing_chunk_stops_the_session(self, width):
        chunks, members = article_chunks()
        failing = 2
        events = []  # prompts asked and cited sources fetched, in order

        def on_call(prompt):
            events.append(prompt)
            if asks(prompt, chunks[failing]):
                raise MalformedResponse("chunk 3")

        def on_send(req):
            if req.url in REFERENCES:
                events.append(req.url)

        with worker_pool(width) as pool:
            verifier, provider, transport = wiki_verifier(pool)
            provider.on_call, transport.on_send = on_call, on_send
            with pytest.raises(MalformedResponse, match="chunk 3"):
                verifier.verify_via_wikipedia(STATEMENT, ARTICLE_URL)
            assert provider.in_flight.now == transport.in_flight.now == 0
            asked, sent = list(provider.prompts), len(transport.requests)
        # leaving the pool ran every worker it had queued: no call began after the error
        assert provider.prompts == asked and len(transport.requests) == sent
        if width == 1:
            def stage(event: str) -> str:
                if event in REFERENCES:
                    return f"source {REFERENCES.index(event) + 1}"
                for index in range(failing + 1):  # these chunks' texts are their own
                    if asks(event, chunks[index]):
                        return f"chunk {index}"
                for index in range(failing + 1):  # a filler paragraph: its first chunk
                    if any(asks(event, text) for text in members[index]):
                        return f"paragraph of chunk {index}"
                return "paragraph of a source"

            # each chunk's drill-down, and a proved paragraph's cited sources
            # (citations 1 and 2), ran before the next chunk; the failing
            # chunk's drill-down never began
            assert [stage(event) for event in events] == [
                "chunk 0", "paragraph of chunk 0", "paragraph of chunk 0",
                "source 1", "paragraph of a source", "source 2",
                "chunk 1", "paragraph of chunk 1",
                "chunk 2"]

    def test_a_proved_paragraphs_source_is_fetched_before_the_next_chunk(self):
        """At width 1, the sources that the first chunk's proved paragraph
        cites are fetched after that paragraph's judgment, and before the
        next chunk, queued since the session began, is asked."""
        chunks, members = article_chunks()
        proved = next(text for text in members[0] if PROOF in text)
        events = []
        with worker_pool(1) as pool:
            verifier, provider, transport = wiki_verifier(pool)
            provider.on_call = events.append
            transport.on_send = lambda req: events.append(req.url)
            session = verifier.verify_via_wikipedia(STATEMENT, ARTICLE_URL)
        judged = next(i for i, event in enumerate(events) if asks(event, proved))
        next_chunk = next(i for i, event in enumerate(events) if asks(event, chunks[1]))
        assert judged < events.index(REFERENCES[0]) < events.index(REFERENCES[1]) < next_chunk
        expected, _, _ = wiki_verifier(None)
        assert normalised(session) == normalised(
            expected.verify_via_wikipedia(STATEMENT, ARTICLE_URL))

    @pytest.mark.parametrize("width", [1, 2])
    def test_the_lowest_key_among_the_failures_that_ran_is_raised(self, width):
        """The second chunk and the first cited source both fail. At width 1
        the source, the deeper stage, runs first, and its failure stops the
        session before the second chunk is asked. At width 2 both run, the
        chunk held until the source's fetch begins: the chunk's failure has
        the lower key, so it is raised, though the source began first."""
        chunks, _ = article_chunks()
        fetching, chunk_failed = threading.Event(), threading.Event()

        def on_call(prompt):
            if asks(prompt, chunks[1]):
                assert fetching.wait(5.0), "the cited source was never fetched"
                chunk_failed.set()
                raise MalformedResponse("chunk 2")

        def on_send(req):
            if req.url == REFERENCES[0]:
                fetching.set()
                if width > 1:
                    assert chunk_failed.wait(5.0), "the second chunk never failed"

        with worker_pool(width) as pool:
            verifier, provider, transport = wiki_verifier(pool)
            provider.on_call, transport.on_send = on_call, on_send
            transport.fail(REFERENCES[0], FixtureMissing("source 1"))
            raised = MalformedResponse if width > 1 else FixtureMissing
            with pytest.raises(raised):
                verifier.verify_via_wikipedia(STATEMENT, ARTICLE_URL)
        assert chunk_failed.is_set() == (width > 1)
        assert not any(asks(prompt, chunks[2]) for prompt in provider.prompts)

    @pytest.mark.parametrize("width", [1, 4])
    def test_a_failing_cited_source_stops_the_session(self, width):
        with worker_pool(width) as pool:
            verifier, provider, transport = wiki_verifier(pool)
            transport.fail(REFERENCES[0], FixtureMissing("source 1"))
            with pytest.raises(FixtureMissing, match="source 1"):
                verifier.verify_via_wikipedia(STATEMENT, ARTICLE_URL)
            assert provider.in_flight.now == transport.in_flight.now == 0
            asked, sent = list(provider.prompts), list(transport.requests)
        assert provider.prompts == asked and transport.requests == sent
        if width == 1:
            # the first source, of the first proved paragraph: nothing after it began
            assert sent[-1].url == REFERENCES[0]
            assert not any(r.url in REFERENCES[1:] for r in sent)


SHORT = "<p>short</p>"  # not a valid paragraph: never judged
# hits with 1, 3, 0 (a PDF), 3 and 2 valid paragraphs; each paragraph is
# named by its hit and place, and a scan stops at its first proof
RANKED_PAGES = {
    "https://one.example/": SHORT * 3 + para("hit1para1"),
    "https://two.example/": para("hit2para1") + SHORT + para(PROOF, "hit2para2") + para("hit2para3"),
    "https://three.example/paper.pdf": None,
    "https://four.example/": para("hit4para1") + para("hit4para2") + para("hit4para3"),
    "https://five.example/": para(PROOF, "hit5para1") + SHORT + para("hit5para2"),
}
RANKED_URLS = list(RANKED_PAGES)


def paragraph_asked(prompt: str) -> str:
    """The ``hit<n>para<m>`` name of the paragraph that ``prompt`` asks about."""
    return re.search(r"hit\dpara\d", prompt).group()


class TestLongestScanFirst:
    """A web-search session fetches every hit first, then scans the hit with
    the most valid paragraphs first, ties in hit order; the session still
    lists its hits in hit order."""

    @pytest.mark.parametrize("width", [None, 1], ids=["no-pool", "width1"])
    def test_fetches_in_hit_order_then_the_longest_scan_first(self, width):
        events = []
        with contextlib.ExitStack() as stack:
            pool = None if width is None else stack.enter_context(worker_pool(width))
            verifier, provider, transport = web_verifier(pool, pages=RANKED_PAGES)
            transport.on_send = lambda req: events.append(req.url)
            provider.on_call = lambda prompt: events.append(paragraph_asked(prompt))
            session = verifier.verify_via_web_search(STATEMENT)
        assert events == [
            *RANKED_URLS,
            "hit2para1", "hit2para2",  # three paragraphs, the first such hit; stops at its proof
            "hit4para1", "hit4para2", "hit4para3",  # three paragraphs, none proves
            "hit5para1",  # two paragraphs
            "hit1para1",  # one paragraph
        ]
        assert [d.url for d in session.documents] == RANKED_URLS
        assert [d.skip and d.skip.kind for d in session.documents] == [
            None, None, "unsupported-media", None, None]
        assert session.skips == []
        assert [(t.document_url, paragraph_asked(t.paragraph_text)) for t in session.traces] == [
            (RANKED_URLS[1], "hit2para2"), (RANKED_URLS[4], "hit5para1")]
        assert session.paragraphs_queried == 7

    def test_a_failing_scan_beats_a_later_hits_failing_fetch(self):
        """At width 2, hit 4's fetch is held until hit 2's scan, the longest
        one ready, fails on its first paragraph; then the fetch fails too.
        The scan's failure has the lower key, and no further item starts."""
        scan_failed = threading.Event()

        def on_call(prompt):
            scan_failed.set()
            raise MalformedResponse("hit 2")

        def on_send(req):
            if req.url == RANKED_URLS[3]:
                assert scan_failed.wait(5.0), "hit 2 was never scanned"

        with worker_pool(2) as pool:
            verifier, provider, transport = web_verifier(pool, pages=RANKED_PAGES)
            provider.on_call, transport.on_send = on_call, on_send
            transport.fail(RANKED_URLS[3], FixtureMissing("hit 4"))
            with pytest.raises(MalformedResponse, match="hit 2"):
                verifier.verify_via_web_search(STATEMENT)
            assert provider.in_flight.now == transport.in_flight.now == 0
        assert [paragraph_asked(prompt) for prompt in provider.prompts] == ["hit2para1"]
        assert sorted(r.url for r in transport.requests) == sorted(RANKED_URLS)


class TestFailurePropagation:
    def test_queued_tasks_do_not_run_after_a_failure(self):
        started = []

        def task(item):
            started.append(item)
            if item == 2:
                raise ValueError("task 2")
            return item

        with worker_pool(1) as pool:
            with pytest.raises(ValueError, match="task 2"):
                map_in_order(pool, task, list(range(6)))
        assert started == [0, 1, 2]

    def test_first_failure_in_order_wins_and_started_tasks_end(self):
        started, ended = set(), set()
        slow_failure, idled = threading.Event(), threading.Event()
        first_three = Rendezvous(3)

        def task(item):
            started.add(item)
            try:
                first_three.meet()  # tasks 0, 1 and 2 are all in flight
                if item == 0:
                    slow_failure.wait(1.0)
                    raise KeyError("task 0")
                if item == 1:
                    raise ValueError("task 1")
                # task 2 frees its worker only once another worker idles, which
                # one does only after a failure dropped the queued tasks, so
                # that the worker takes no further task
                assert idled.wait(5.0), "no worker idled"
                return item
            finally:
                ended.add(item)
                if item == 1:
                    slow_failure.set()

        with worker_pool(3) as pool:
            wait_for_item = pool._queued.wait

            def idle(*args):
                if started:  # not the wait of a worker that has just started
                    idled.set()
                return wait_for_item(*args)

            pool._queued.wait = idle
            with pytest.raises(KeyError, match="task 0"):
                map_in_order(pool, task, list(range(8)))
            assert ended == started == {0, 1, 2}

    @pytest.mark.parametrize("waiter", ["map_in_order", "session"])
    def test_one_sigint_is_handled_within_a_second(self, waiter):
        """One Ctrl-C, sent once the main thread waits for a fan-out, is handled
        within a second, while the item that sent it is still in flight."""
        handled, first = threading.Event(), threading.Lock()
        delays = []

        def on_sigint(signum, frame):
            handled.set()
            raise KeyboardInterrupt

        def interrupt(*_):
            if not first.acquire(blocking=False):
                return
            await_thread_blocked_in("join")
            sent = time.monotonic()
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            handled.wait(5.0)
            delays.append(time.monotonic() - sent)

        previous = signal.signal(signal.SIGINT, on_sigint)
        try:
            with worker_pool(2) as pool, pytest.raises(KeyboardInterrupt):
                if waiter == "map_in_order":
                    map_in_order(pool, interrupt, [0])
                else:
                    verifier, provider, _ = wiki_verifier(pool)
                    provider.on_call = interrupt
                    verifier.verify_via_wikipedia(STATEMENT, ARTICLE_URL)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert len(delays) == 1 and delays[0] < 1.0, delays

    def test_an_interrupt_inside_add_first_waits_for_the_items_in_flight(self):
        """A Ctrl-C raised while ``add_first`` runs, once its first item has
        started: the queued item never runs, and ``join`` raises the interrupt
        only after the started item has ended."""
        started, ended = threading.Event(), []

        def item(index):
            started.set()
            await_thread_blocked_in("join")  # the caller waits for this item
            ended.append(index)

        def add_first():
            tasks.add(item, [(0, 0), (1, 1)])
            assert started.wait(5.0), "the first item never started"
            raise KeyboardInterrupt

        with worker_pool(1) as pool:
            tasks = _Tasks(pool)
            with pytest.raises(KeyboardInterrupt):
                tasks.join(add_first)
            assert ended == [0]

    def test_a_second_interrupt_ends_the_wait_for_the_items_in_flight(self):
        """A first Ctrl-C while ``join`` waits stops the fan-out and waits on;
        a second one ends the wait at once, with the started item still in
        flight, and the queued item never runs."""
        started, release, ran = threading.Event(), threading.Event(), []

        def item(index):
            ran.append(index)
            started.set()
            assert release.wait(5.0), "the item was never released"

        with worker_pool(1) as pool:
            tasks = _Tasks(pool)
            wait_for, waits = tasks._done.wait_for, itertools.count(1)

            def interrupted(predicate, timeout):
                wait = next(waits)
                if wait <= 2:  # a Ctrl-C lands in each of the first two waits
                    raise KeyboardInterrupt(wait)
                return wait_for(predicate, timeout)

            def add_first():
                tasks.add(item, [(0, 0), (1, 1)])
                assert started.wait(5.0), "the first item never started"
                tasks._done.wait_for = interrupted

            try:
                with pytest.raises(KeyboardInterrupt) as raised:
                    tasks.join(add_first)
                assert raised.value.args == (2,) and tasks.in_flight == 1
            finally:
                release.set()
        assert ran == [0]

    def test_inline_mapping_stops_at_the_failure(self):
        started = []

        def task(item):
            started.append(item)
            if item == 1:
                raise ValueError("task 1")

        with pytest.raises(ValueError):
            map_in_order(None, task, [0, 1, 2])
        assert started == [0, 1]

    @pytest.mark.parametrize("width", [1, 4])
    def test_session_raises_the_first_failing_hit(self, width):
        urls = list(WEB_PAGES)
        with worker_pool(width) as pool:
            verifier, _, transport = web_verifier(pool, urls=urls)
            # the later hit fails first; the earlier one still decides
            transport.fail(urls[2], FixtureMissing("hit 3"), after_s=0.03)
            transport.fail(urls[4], MalformedResponse("hit 5"))
            with pytest.raises(FixtureMissing, match="hit 3"):
                verifier.verify_via_web_search(STATEMENT, hit_limit=8)
        fetched = {r.url for r in transport.requests}
        if width == 1:
            assert fetched == set(urls[:3])
        else:
            assert urls[2] in fetched


class TestRunWideScheduler:
    """One pool serves every statement of a run: a free worker takes the ready
    item of the oldest statement first, and the next statement starts only
    when no ready item is left, so that a worker would idle."""

    def test_an_older_statements_follow_up_runs_before_a_newer_statements_item(self):
        order = []
        three_in_flight = Rendezvous(3)
        follow_up_began = threading.Event()

        def follow_up(_):
            order.append("0.follow-up")
            follow_up_began.set()

        def newer(index):
            order.append(f"1.{index}")
            if index < 2:
                three_in_flight.meet()
                assert follow_up_began.wait(5.0), "the follow-up never began"

        def statement(rank):
            if rank == 1:
                map_in_order(pool, newer, range(4))
                return
            tasks = _Tasks(pool)

            def first(_):
                # statement 1's first two items run, so its other two are queued
                three_in_flight.meet()
                tasks.add(follow_up, [(1, None)])

            tasks.join(lambda: tasks.add(first, [(0, None)]))

        with worker_pool(3) as pool:
            pool.run_statements(statement, 2)
        # the worker that statement 0's first item frees takes its follow-up
        assert order.index("0.follow-up") < min(order.index("1.2"), order.index("1.3"))

    def test_the_next_statement_starts_once_queued_and_no_item_waits(self):
        """Statement 1 starts only once statement 0 has queued its items and
        no ready item is left: the next worker that frees would idle."""
        queued, worker_freed, release = threading.Event(), threading.Event(), threading.Event()
        four_in_flight = Rendezvous(4)
        seen = {}

        def held(index):
            if index == 4:  # taken by the first worker that frees
                return
            four_in_flight.meet()  # every worker is busy, and item 4 waits
            if index == 0:
                await_thread_blocked_in("run_when_admitted", any_thread=True)
                worker_freed.set()
            else:
                assert release.wait(5.0), "the second statement never started"

        def statement(rank):
            if rank == 1:
                seen.update(queued=queued.is_set(), worker_freed=worker_freed.is_set())
                release.set()
                return
            # nothing is queued yet: statement 1 waits to be admitted
            await_thread_blocked_in("run_when_admitted", any_thread=True)
            queued.set()
            map_in_order(pool, held, range(5))

        with worker_pool(4) as pool:
            pool.run_statements(statement, 2)
        assert seen == {"queued": True, "worker_freed": True}

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_at_most_width_less_one_statements_run_at_once(self, width):
        """At most ``max(1, width - 1)`` statements run, so one at a time at
        widths 1 and 2; the first that many meet, each with a worker idle."""
        cap = max(1, width - 1)
        running, together = InFlight(), Rendezvous(cap)
        started = []

        def statement(rank):
            with running:
                started.append(rank)
                map_in_order(pool, lambda item: item, [rank])  # leaves its worker idle
                together.meet()

        with worker_pool(width) as pool:
            pool.run_statements(statement, 8)
        assert running.peak == cap
        assert started == list(range(8))

    def test_a_failing_statement_stops_the_one_waiting_to_start(self):
        """Statement 1 waits to start, as statement 0 has a ready item left;
        statement 0 then fails, and statement 1 never runs."""
        ran, release = [], threading.Event()

        def statement(rank):
            ran.append(rank)
            tasks = _Tasks(pool)  # three items hold every worker, the fourth waits
            tasks.add(lambda _: release.wait(5.0), [(index, None) for index in range(4)])
            await_thread_blocked_in("run_when_admitted", any_thread=True)
            raise ValueError("statement 0")

        with worker_pool(3) as pool:
            try:
                with pytest.raises(ValueError, match="statement 0"):
                    pool.run_statements(statement, 2)
            finally:
                release.set()
        assert ran == [0]

    @pytest.mark.parametrize("start", [False, True], ids=["before-start", "after-start"])
    def test_an_interrupt_while_the_statement_pool_starts(self, monkeypatch, start):
        """A Ctrl-C inside the ``Thread.start`` of the statements' second
        worker: no statement runs, and the workers already started stop."""
        ran = []
        with worker_pool(4) as pool:
            before = set(threading.enumerate())
            interrupt_thread_start(monkeypatch, "kgverify", 2, start=start)
            with pytest.raises(KeyboardInterrupt):
                pool.run_statements(ran.append, 4)
            monkeypatch.undo()
            assert ran == []
            assert [thread for thread in threading.enumerate()
                    if thread.name == "kgverify" and thread not in before] == []


def test_stress_statements_say_verifying_in_order(capsys):
    """More workers than cores, with frequent thread switches: statements whose
    items take seeded times say ``verifying: …`` in statement order, and their
    sessions come back in that order, each with all of its items."""
    statements = [dataclasses.replace(STATEMENT, object_label=f"Thing {i}") for i in range(30)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        started = time.monotonic()
        with worker_pool(8) as pool:
            def verify(statement):
                label = statement.object_label
                return label, map_in_order(pool, lambda i: jitter(i, label) or i, range(5))

            sessions, interrupted = _verify_statements(pool, statements, verify)
        assert time.monotonic() - started < 30
    finally:
        sys.setswitchinterval(interval)
    assert not interrupted
    assert sessions == [(s.object_label, list(range(5))) for s in statements]
    assert capsys.readouterr().err.splitlines() == [
        f"verifying: {' / '.join(s.labels())}" for s in statements]


def marked_texts(seed: int, n: int = 24) -> list[str]:
    """Texts carrying a proof, a hint or neither marker, in a seeded order."""
    rng = random.Random(seed)
    return [f"Text {i} reads {rng.choice([PROOF, HINT, 'nothing'])} here." for i in range(n)]


def judge_triples(pool, provider, texts):
    instances = [
        LabeledInstance(
            statement=dataclasses.replace(STATEMENT, object_label=f"Thing {i}"),
            grounding_text=text, gold=BinaryDecision.SUPPORTED,
            concept_pair=("GeneOrGeneProduct", "Disease"), relation_type="Association",
            origin=Origin.GROUND_TRUTH, doc_id=f"doc{i}", tail_type="Disease",
        )
        for i, text in enumerate(texts)
    ]
    runtime = types.SimpleNamespace(pool=pool, gateway=gateway(provider))
    predictions = _judge(
        runtime, instances, lambda i: render_rdf_prompt(i.statement, i.grounding_text),
        lambda text: verdict_to_binary(parse_option(text), DecisionMode.FAVOR_PRECISION))
    expected = [BinaryDecision.SUPPORTED if PROOF in text else BinaryDecision.NOT_SUPPORTED
                for text in texts]
    return predictions, expected


def judge_nli(pool, provider, texts):
    records = [SnliRecord(premise=text, hypothesis="A claim.", gold=NliLabel.NEUTRAL)
               for text in texts]
    examples = [SnliRecord(premise="An example.", hypothesis="A claim.", gold=label)
                for label in (NliLabel.ENTAILMENT, NliLabel.NEUTRAL, NliLabel.CONTRADICTION)]
    runtime = types.SimpleNamespace(pool=pool, gateway=gateway(provider))
    predictions = _judge(runtime, records,
                         lambda r: render_nli_prompt(r.premise, r.hypothesis, examples),
                         parse_nli_label)
    # ContentProvider answers a) for a proof and b) for a hint anywhere in the prompt
    expected = [NliLabel.ENTAILMENT if PROOF in text else
                NliLabel.NEUTRAL if HINT in text else NliLabel.CONTRADICTION for text in texts]
    return predictions, expected


class TestEvaluateFanOut:
    @pytest.mark.parametrize("judge", [judge_triples, judge_nli], ids=["triples", "nli"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_width4_predictions_match_width1_in_instance_order(self, judge, seed):
        texts = marked_texts(seed)
        results = {}
        for width in (1, 4):
            provider = ContentProvider(seed)
            if width > 1:
                provider.rendezvous = Rendezvous(2)
            with worker_pool(width) as pool:
                results[width] = judge(pool, provider, texts)
            assert provider.calls == len(texts)
            assert (provider.peak > 1) == (width > 1)
        (width1, expected), (width4, _) = results[1], results[4]
        assert width4 == width1 == expected
        assert len(set(expected)) > 1  # the order is visible in the predictions


class TestLookAhead:
    """The pool starts its ``width`` workers with it, and each worker takes
    the next item in order, so at most ``width`` items are in flight."""

    @pytest.mark.parametrize("width, n", [(1, 20), (3, 20), (3, 2)])
    def test_submits_one_worker_per_item_in_flight(self, width, n):
        with worker_pool(width) as pool:
            for _ in range(2):  # the second call reuses the same workers
                assert map_in_order(pool, lambda i: i * i, list(range(n))) == [
                    i * i for i in range(n)]
                assert len(pool._threads) == width

    @pytest.mark.parametrize("width", [1, 3])
    def test_at_most_width_items_in_flight_and_results_in_order(self, width):
        """The first ``width`` items meet before any ends, and the first item
        ends last of them."""
        in_flight = InFlight()
        first_batch = Rendezvous(width)
        others_ended = threading.Semaphore(0)

        def task(item):
            with in_flight:
                if item < width:
                    first_batch.meet()
                if item == 0:
                    for _ in range(width - 1):
                        assert others_ended.acquire(timeout=5.0), "item 0 waited in vain"
                elif item < width:
                    others_ended.release()
                return item * item

        with worker_pool(width) as pool:
            results = map_in_order(pool, task, list(range(20)))
            assert len(pool._threads) == width
        assert results == [i * i for i in range(20)]
        assert in_flight.peak == width

    def test_queued_tasks_do_not_run_after_a_failure(self):
        started = []

        def task(item):
            started.append(item)
            if item == 2:
                raise ValueError("task 2")
            return item

        with worker_pool(1) as pool:
            with pytest.raises(ValueError, match="task 2"):
                map_in_order(pool, task, list(range(12)))
        assert started == [0, 1, 2]

    def test_first_failure_in_order_wins(self):
        slow_failure = threading.Event()
        first_two = Rendezvous(2)

        def task(item):
            if item in (0, 1):
                first_two.meet()  # task 0 has started before task 1 fails
            if item == 0:
                slow_failure.wait(1.0)
                raise KeyError("task 0")
            if item == 1:
                slow_failure.set()
                raise ValueError("task 1")
            return item

        with worker_pool(2) as pool:
            with pytest.raises(KeyError, match="task 0"):
                map_in_order(pool, task, list(range(12)))

    @pytest.mark.parametrize("judge", [judge_triples, judge_nli], ids=["triples", "nli"])
    def test_evaluate_keeps_its_width_inside_the_window(self, judge):
        texts = marked_texts(5)
        provider = ContentProvider(5)
        provider.rendezvous = Rendezvous(2)
        with worker_pool(4) as pool:
            predictions, expected = judge(pool, provider, texts)
        assert predictions == expected
        assert provider.calls == len(texts)
        assert provider.peak > 1


def test_stress_shared_response_log(tmp_path):
    """More workers than cores, with frequent thread switches: the shared
    response log keeps every judgment as one whole line."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        started = time.monotonic()
        with worker_pool(8) as pool:
            log = ResponseLog(tmp_path / "responses.jsonl", clock=lambda: NOW)
            verifier, provider, _ = web_verifier(pool, response_log=log)
            sessions = [verifier.verify_via_web_search(STATEMENT, hit_limit=8)
                        for _ in range(5)]
            log.close()
        assert time.monotonic() - started < 30
    finally:
        sys.setswitchinterval(interval)
    lines = (tmp_path / "responses.jsonl").read_text().splitlines()
    assert len(lines) == sum(s.paragraphs_queried for s in sessions)
    assert provider.calls == len(set(provider.prompts))  # later sessions reuse every answer
    assert all(json.loads(line)["timestamp"] == "2024-03-02T13:27:25Z" for line in lines)
    assert all(normalised(s) == normalised(sessions[0]) for s in sessions)
