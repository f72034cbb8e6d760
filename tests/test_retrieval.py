from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgverify.errors import (
    FixtureMissing,
    MalformedResponse,
    PermanentlyUnavailable,
    Unavailable,
    UnsupportedMediaType,
)
from kgverify.model import RetrievalSource
from kgverify.net import HttpRequest, HttpResponse
from kgverify.retrieval import (
    ARCHIVE_AVAILABILITY_API,
    DocumentFetcher,
    GoogleSearchProvider,
    GroundingDocument,
    chunk_fill_limit,
    valid_paragraphs,
)
from kgverify.store import FixtureStore

from concurrency import GatedTransport, ask_in_flight


class SearchApi:
    """A transport answering the search API's GET with the first ``num`` URLs,
    or with every URL when ``honour_num`` is false."""

    def __init__(self, urls, honour_num=True):
        self.urls = urls
        self.honour_num = honour_num
        self.calls = 0

    def send(self, req):
        self.calls += 1
        num = int(dict(req.params)["num"]) if self.honour_num else None
        items = [{"link": url} for url in self.urls[:num]]
        return HttpResponse(200, {"content-type": "application/json"},
                            json.dumps({"items": items}).encode("utf-8"))


def search_through(store: FixtureStore) -> GoogleSearchProvider:
    return GoogleSearchProvider(store, api_key="key", cx="cx")


class TestWebSearch:
    def test_an_api_answering_more_items_than_num_is_cut_to_the_limit(self):
        urls = [f"https://x.example/{i}" for i in range(10)]
        assert search_through(SearchApi(urls, honour_num=False)).search("q", limit=5) == urls[:5]

    def test_fewer_than_limit(self):
        api = SearchApi(["https://a.example", "https://b.example"])
        assert len(search_through(api).search("q", limit=5)) == 2

    def test_fixture_provider_round_trip(self, tmp_path):
        """A search cached in http/ replays with no credentials of its own."""
        hits = GoogleSearchProvider(FixtureStore(tmp_path, SearchApi(["https://a.example"])),
                                    api_key="k", cx="c").search("some query", limit=5)
        replay = GoogleSearchProvider(FixtureStore(tmp_path), api_key="other", cx="other")
        assert replay.search("some query", limit=5) == hits == ["https://a.example"]
        with pytest.raises(FixtureMissing):
            replay.search("unknown query", limit=5)

    def test_fixture_store_caches_search_until_ttl_expiry(self, tmp_path):
        live = SearchApi(["https://a.example", "https://b.example"])
        caching = search_through(FixtureStore(tmp_path, live, ttl_seconds=0.05))
        first = caching.search("some query", limit=2)
        assert caching.search("some query", limit=2) == first
        assert live.calls == 1
        assert search_through(FixtureStore(tmp_path)).search("some query", limit=2) == first
        time.sleep(0.1)
        assert caching.search("some query", limit=2) == first
        assert live.calls == 2

    def test_fixture_store_short_search_record_is_a_live_miss(self, tmp_path):
        """A record cached at a smaller --hit-limit does not answer a larger one."""
        urls = [f"https://x.example/{i}" for i in range(5)]
        live = SearchApi(urls)
        caching = search_through(FixtureStore(tmp_path, live))
        assert len(caching.search("some query", limit=2)) == 2
        assert caching.search("some query", limit=5) == urls
        assert live.calls == 2
        # each limit has its own record
        assert len(caching.search("some query", limit=2)) == 2
        assert len(caching.search("some query", limit=5)) == 5
        assert live.calls == 2

    def test_fixture_store_search_record_answers_only_its_limit(self, tmp_path):
        """A record answers the request it recorded, ``num`` included: a smaller
        limit is asked live, and replay at another limit is a missing fixture."""
        live = SearchApi(["https://a.example", "https://b.example"])
        caching = search_through(FixtureStore(tmp_path, live))
        first = caching.search("some query", limit=5)
        assert len(first) == 2
        assert caching.search("some query", limit=5) == first
        assert live.calls == 1
        assert caching.search("some query", limit=3) == first
        assert live.calls == 2
        replay = search_through(FixtureStore(tmp_path))
        assert replay.search("some query", limit=3) == first
        with pytest.raises(FixtureMissing, match="fingerprint"):
            replay.search("some query", limit=4)

    @pytest.mark.parametrize("body", [
        b"<html><body>Service temporarily unavailable</body></html>",
        b'{"items": [{"title": "a hit without its link"}]}',
        b'[{"link": "https://a.example"}]',
        b'{"items": [{"link": null}]}',
        b'{"items": {"link": "https://a.example"}}',
        b'{"items": [{"link": "https://a.example/\\ud800"}]}',
        b"[" * 100_000,
    ], ids=["html", "no-link", "json-list", "null-link", "items-object", "lone-surrogate-link",
            "nested-too-deeply"])
    def test_malformed_answer_is_a_malformed_response(self, body):
        """A 200 whose body is not the search API's JSON raises the package's
        error (exit code 4), with an excerpt of the body, never a raw one."""

        class Answer:
            def send(self, req):
                return HttpResponse(200, {"content-type": "application/json"}, body)

        provider = GoogleSearchProvider(Answer(), api_key="key", cx="cx")
        with pytest.raises(MalformedResponse, match="unexpected search payload") as caught:
            provider.search("some query", limit=5)
        assert repr(body[:20])[2:-1] in str(caught.value)
        assert caught.value.exit_code == 4


HTML_PAGE = "<html><body><p>one paragraph</p><p>two paragraph</p><p>three</p></body></html>"


class TestFetchDocument:
    def test_html_paragraphs_extracted_in_order(self, dict_transport):
        url = "https://site.example/page"
        dict_transport.add(HttpRequest.get(url), body=HTML_PAGE)
        fetcher = DocumentFetcher(dict_transport)
        doc = fetcher.fetch_document(url)
        assert doc.paragraphs == ("one paragraph", "two paragraph", "three")
        assert doc.retrieval_source is RetrievalSource.DIRECT

    def test_pdf_rejected(self, dict_transport):
        url = "https://site.example/report.pdf"
        dict_transport.add(HttpRequest.get(url), body=b"%PDF-1.4",
                           content_type="application/pdf")
        with pytest.raises(UnsupportedMediaType, match="application/pdf"):
            DocumentFetcher(dict_transport).fetch_document(url)

    def test_http_404_unavailable(self, dict_transport):
        url = "https://site.example/missing"
        dict_transport.add(HttpRequest.get(url), status=404, body="gone")
        with pytest.raises(Unavailable):
            DocumentFetcher(dict_transport).fetch_document(url)


class TestArchiveFallback:
    URL = "https://dead.example/article"
    SNAPSHOT = "https://web.archive.org/web/2019/https://dead.example/article"

    def test_live_fetch_needs_no_fallback(self, dict_transport):
        dict_transport.add(HttpRequest.get(self.URL), body=HTML_PAGE)
        doc = DocumentFetcher(dict_transport).fetch_with_archive_fallback(self.URL)
        assert doc.retrieval_source is RetrievalSource.DIRECT

    def test_dead_url_with_snapshot(self, dict_transport):
        dict_transport.add(HttpRequest.get(self.URL), status=404, body="gone")
        dict_transport.add_json(
            HttpRequest.get(ARCHIVE_AVAILABILITY_API, params={"url": self.URL}),
            {"archived_snapshots": {"closest": {"available": True, "url": self.SNAPSHOT}}},
        )
        dict_transport.add(
            HttpRequest.get(self.SNAPSHOT),
            body="<!-- BEGIN WAYBACK TOOLBAR INSERT --><div id=\"wm-ipp\"><p>chrome chrome</p>"
                 "</div><!-- END WAYBACK TOOLBAR INSERT --><p>archived body text</p>",
        )
        doc = DocumentFetcher(dict_transport).fetch_with_archive_fallback(self.URL)
        assert doc.retrieval_source is RetrievalSource.WEB_ARCHIVE
        assert doc.url == self.SNAPSHOT
        assert doc.paragraphs == ("archived body text",)

    def test_dead_url_without_snapshot(self, dict_transport):
        dict_transport.add(HttpRequest.get(self.URL), status=404, body="gone")
        dict_transport.add_json(
            HttpRequest.get(ARCHIVE_AVAILABILITY_API, params={"url": self.URL}),
            {"archived_snapshots": {}},
        )
        with pytest.raises(Unavailable, match="no archived snapshot"):
            DocumentFetcher(dict_transport).fetch_with_archive_fallback(self.URL)

    @pytest.mark.parametrize("payload", [
        ["not", "an", "object"],
        {"archived_snapshots": ["closest"]},
        {"archived_snapshots": {"closest": ["x"]}},
        {"archived_snapshots": {"closest": {"available": True, "url": 5}}},
        # json.dumps writes a lone surrogate as its escape, "\ud800"
        {"archived_snapshots": {"closest": {"available": True, "url": SNAPSHOT + "\ud800"}}},
        "[" * 100_000,
    ], ids=["list", "snapshots-list", "closest-list", "url-number", "lone-surrogate-url",
            "nested-too-deeply"])
    def test_malformed_availability_answer_means_no_snapshot(self, dict_transport, payload):
        dict_transport.add(HttpRequest.get(self.URL), status=404, body="gone")
        dict_transport.add(HttpRequest.get(ARCHIVE_AVAILABILITY_API, params={"url": self.URL}),
                           body=payload if isinstance(payload, str) else json.dumps(payload),
                           content_type="application/json")
        with pytest.raises(Unavailable, match="no archived snapshot"):
            DocumentFetcher(dict_transport).fetch_with_archive_fallback(self.URL)


def page(status: int = 200, body: str | bytes = HTML_PAGE,
         content_type: str = "text/html") -> HttpResponse:
    if isinstance(body, str):
        body = body.encode("utf-8")
    return HttpResponse(status, {"content-type": content_type}, body)


class ScriptedTransport:
    """Answers each URL with its scripted answers in turn, the last one from
    then on; an answer may be an error to raise. Keeps the URLs asked."""

    def __init__(self, script: dict):
        self.script = {url: list(answers) for url, answers in script.items()}
        self.asked: list[str] = []

    def send(self, req):
        self.asked.append(req.url)
        answers = self.script[req.url]
        answer = answers.pop(0) if len(answers) > 1 else answers[0]
        if isinstance(answer, BaseException):
            raise answer
        return answer


class TestPageMemo:
    """A fetcher keeps each page's outcome: its parse, or the failure that is
    the page's answer for the run. A failure that may pass is asked again."""

    URL = "https://site.example/page"
    PARAGRAPHS = ("one paragraph", "two paragraph", "three")

    def test_a_404_page_is_asked_once_and_each_ask_raises_its_own_error(self):
        transport = ScriptedTransport({self.URL: [page(404, "gone")]})
        fetcher = DocumentFetcher(transport)
        raised = []
        for _ in range(3):
            with pytest.raises(Unavailable) as caught:
                fetcher.fetch_document(self.URL)
            raised.append(caught.value)
        assert transport.asked == [self.URL]
        assert [str(exc) for exc in raised] == [f"GET {self.URL} returned HTTP 404"] * 3
        assert len(set(map(id, raised))) == 3

    def test_a_pdf_is_asked_once(self):
        url = "https://site.example/report.pdf"
        transport = ScriptedTransport({url: [page(body=b"%PDF-1.4",
                                                  content_type="application/pdf")]})
        fetcher = DocumentFetcher(transport)
        for _ in range(3):
            with pytest.raises(UnsupportedMediaType, match="application/pdf"):
                fetcher.fetch_document(url)
        assert transport.asked == [url]

    @pytest.mark.parametrize("failure", [page(429, "slow down"), page(503, "busy"),
                                         Unavailable("connection reset")],
                             ids=["429", "503", "raised"])
    def test_a_failure_that_may_pass_is_asked_again(self, failure):
        transport = ScriptedTransport({self.URL: [failure, page()]})
        fetcher = DocumentFetcher(transport)
        with pytest.raises(Unavailable):
            fetcher.fetch_document(self.URL)
        for _ in range(2):
            assert fetcher.fetch_document(self.URL).paragraphs == self.PARAGRAPHS
        assert transport.asked == [self.URL] * 2

    DEAD, SNAPSHOT = TestArchiveFallback.URL, TestArchiveFallback.SNAPSHOT

    def dead_link(self, *lookups: HttpResponse) -> ScriptedTransport:
        """A dead link whose archive lookups answer ``lookups`` in turn, and its snapshot."""
        return ScriptedTransport({self.DEAD: [page(404, "gone")],
                                  ARCHIVE_AVAILABILITY_API: list(lookups),
                                  self.SNAPSHOT: [page(body="<p>archived body text</p>")]})

    @staticmethod
    def lookup(snapshot: str | None) -> HttpResponse:
        closest = {"closest": {"available": True, "url": snapshot}} if snapshot else {}
        return page(body=json.dumps({"archived_snapshots": closest}),
                    content_type="application/json")

    @pytest.mark.parametrize("snapshot", [SNAPSHOT, None], ids=["snapshot", "none"])
    def test_a_dead_links_archive_lookup_is_asked_once(self, snapshot):
        transport = self.dead_link(self.lookup(snapshot))
        fetcher = DocumentFetcher(transport)
        for _ in range(3):
            if snapshot:
                assert fetcher.fetch_with_archive_fallback(self.DEAD).url == snapshot
            else:
                with pytest.raises(Unavailable, match="no archived snapshot"):
                    fetcher.fetch_with_archive_fallback(self.DEAD)
        asked = [self.DEAD, ARCHIVE_AVAILABILITY_API] + ([snapshot] if snapshot else [])
        assert transport.asked == asked

    def test_a_failed_archive_lookup_is_asked_again(self):
        transport = self.dead_link(page(503, "busy"), self.lookup(self.SNAPSHOT))
        fetcher = DocumentFetcher(transport)
        with pytest.raises(Unavailable, match="no archived snapshot"):
            fetcher.fetch_with_archive_fallback(self.DEAD)
        for _ in range(2):
            assert fetcher.fetch_with_archive_fallback(self.DEAD).url == self.SNAPSHOT
        assert transport.asked == [self.DEAD, ARCHIVE_AVAILABILITY_API,
                                   ARCHIVE_AVAILABILITY_API, self.SNAPSHOT]

    def test_a_page_that_is_also_a_snapshot_is_asked_once_per_parse(self):
        """The memo keys by URL and parse: a cited page that is also a dead
        link's snapshot is asked as a page and again as a snapshot."""
        transport = self.dead_link(self.lookup(self.SNAPSHOT))
        fetcher = DocumentFetcher(transport)
        for _ in range(2):
            assert fetcher.fetch_document(self.SNAPSHOT).paragraphs == ("archived body text",)
            assert fetcher.fetch_with_archive_fallback(self.DEAD).url == self.SNAPSHOT
        assert transport.asked == [self.SNAPSHOT, self.DEAD, ARCHIVE_AVAILABILITY_API,
                                   self.SNAPSHOT]


class TestPageMemoInFlight:
    """Callers that ask for a page while it is in flight wait for its outcome."""

    URL = TestPageMemo.URL

    def test_concurrent_callers_fetch_and_parse_a_page_once(self, monkeypatch):
        import kgverify.html_text as html_text

        parsed = []
        extract = html_text.extract_paragraphs
        monkeypatch.setattr(html_text, "extract_paragraphs",
                            lambda html: parsed.append(html) or extract(html))
        gated = GatedTransport(page())
        fetcher = DocumentFetcher(gated)
        results = ask_in_flight(lambda: fetcher.fetch_document(self.URL).paragraphs, gated)
        assert gated.calls == 1
        assert len(parsed) == 1
        assert results == [TestPageMemo.PARAGRAPHS] * 8

    def test_concurrent_callers_of_a_404_each_raise_its_own_error(self):
        gated = GatedTransport(page(404, "gone"))
        fetcher = DocumentFetcher(gated)
        results = ask_in_flight(lambda: fetcher.fetch_document(self.URL), gated)
        with pytest.raises(Unavailable) as caught:
            fetcher.fetch_document(self.URL)
        assert gated.calls == 1
        results.append(caught.value)
        assert all(type(exc) is PermanentlyUnavailable for exc in results)
        assert {str(exc) for exc in results} == {f"GET {self.URL} returned HTTP 404"}
        assert len(set(map(id, results))) == 9

    def test_a_503_reaches_the_callers_in_flight_and_is_asked_again(self):
        gated = GatedTransport(page(503, "busy"), page())
        fetcher = DocumentFetcher(gated)
        results = ask_in_flight(lambda: fetcher.fetch_document(self.URL), gated)
        assert gated.calls == 1
        assert [str(exc) for exc in results] == [f"GET {self.URL} returned HTTP 503"] * 8
        assert fetcher.fetch_document(self.URL).paragraphs == TestPageMemo.PARAGRAPHS
        assert fetcher.fetch_document(self.URL).paragraphs == TestPageMemo.PARAGRAPHS
        assert gated.calls == 2


def make_doc(paragraphs) -> GroundingDocument:
    return GroundingDocument(
        url="https://doc.example",
        retrieval_source=RetrievalSource.DIRECT,
        paragraphs=tuple(paragraphs),
    )


class TestValidParagraphs:
    def test_length_filter(self):
        doc = make_doc(["x" * 50, "y" * 150, "z" * 200])
        result = valid_paragraphs(doc.paragraphs)
        assert result == ["y" * 150, "z" * 200]

    def test_boundary_inclusive(self):
        assert valid_paragraphs(make_doc(["b" * 100]).paragraphs) == ["b" * 100]
        assert valid_paragraphs(make_doc(["b" * 99]).paragraphs) == []

    def test_all_short(self):
        assert valid_paragraphs(make_doc(["short", "tiny"]).paragraphs) == []

    def test_idempotent_filter(self):
        paragraphs = ["a" * 99, "b" * 100, "c" * 500]
        once = valid_paragraphs(paragraphs)
        assert valid_paragraphs(once) == once
        assert all(p in paragraphs for p in once)


def oracle_greedy(paragraphs, max_chars):
    """Independent greedy packer computing lengths by sum plus separators."""
    out, current = [], []

    def cur_len(extra=None):
        items = current + ([extra] if extra is not None else [])
        return sum(len(p) for p in items) + max(0, len(items) - 1)

    for p in paragraphs:
        if current and cur_len(p) > max_chars:
            out.append(current)
            current = []
        current.append(p)
        if cur_len() > max_chars:
            out.append(current)
            current = []
    if current:
        out.append(current)
    return out


def packed(paragraphs, max_chars):
    """``chunk_fill_limit``'s chunks, each as the list of its paragraphs."""
    return [[paragraphs[i] for i in positions]
            for positions in chunk_fill_limit(paragraphs, max_chars=max_chars)]


class TestChunker:
    def test_three_fours_split(self):
        paragraphs = ["a" * 4000, "b" * 4000, "c" * 4000]
        assert chunk_fill_limit(paragraphs, max_chars=10_000) == [range(0, 2), range(2, 3)]
        assert len("\n".join(packed(paragraphs, 10_000)[0])) == 8001

    def test_single_oversize_paragraph(self):
        assert chunk_fill_limit(["x" * 12_000], max_chars=10_000) == [range(0, 1)]

    def test_oversize_between_normals(self):
        chunks = chunk_fill_limit(["a" * 10, "b" * 20_000, "c" * 10], max_chars=10_000)
        assert chunks == [range(0, 1), range(1, 2), range(2, 3)]

    def test_empty_input(self):
        assert chunk_fill_limit([]) == []

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            chunk_fill_limit(["x"], max_chars=0)

    def test_char_length_matches_joined_text(self):
        """One character per boundary: "ab" and "cd" fill a budget of 5 exactly."""
        chunks = packed(["ab", "cd", "ef"], 5)
        assert chunks == [["ab", "cd"], ["ef"]]
        assert [len("\n".join(chunk)) for chunk in chunks] == [5, 2]

    @given(
        st.lists(st.text(alphabet="ab \n", max_size=40), max_size=30),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=300)
    def test_matches_oracle_and_round_trips(self, paragraphs, max_chars):
        chunks = packed(paragraphs, max_chars)
        assert chunks == oracle_greedy(paragraphs, max_chars)
        flattened = [p for c in chunks for p in c]
        assert flattened == list(paragraphs)
        for i, chunk in enumerate(chunks):
            length = len("\n".join(chunk))
            oversize = len(chunk) == 1 and len(chunk[0]) > max_chars
            if not oversize:
                assert length <= max_chars
            if i + 1 < len(chunks):
                # greedy maximality: the next paragraph would not have fit
                would_be = length + 1 + len(chunks[i + 1][0])
                assert oversize or would_be > max_chars

    def test_thousand_random_lists_match_oracle(self):
        rng = random.Random(42)
        for _ in range(1000):
            paragraphs = [
                "p" * rng.randrange(0, 300) for _ in range(rng.randrange(0, 12))
            ]
            max_chars = rng.randrange(1, 500)
            chunks = packed(paragraphs, max_chars)
            assert chunks == oracle_greedy(paragraphs, max_chars)
            assert [p for c in chunks for p in c] == paragraphs
