from __future__ import annotations

import string
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgverify import html_text
from kgverify.errors import NoDocumentsRetrievable, Unavailable
from kgverify.llm import LlmGateway
from kgverify.model import RetrievalSource, Statement, VerdictKind
from kgverify.net import HttpRequest, HttpResponse, request_fingerprint
from kgverify.prompting import OPTION_TEXTS, SYSTEM_PROMPT, render_rdf_prompt
from kgverify.retrieval import (
    ARCHIVE_AVAILABILITY_API,
    DocumentFetcher,
    GroundingDocument,
    chunk_fill_limit,
    is_valid_paragraph,
)
from kgverify.verifier import (
    VerificationMode,
    Verifier,
    extract_reference_numbers,
    parse_wikipedia_article,
    resolve_citations,
)

from conftest import DictTransport, ScriptedProvider

STATEMENT = Statement("Václav Havel", "award received", "Gottlieb Duttweiler Prize")

ANSWER = {
    "a": "The correct answer is: a) " + OPTION_TEXTS["a"] + " The paragraph names both.",
    "b": "The correct answer is: b) " + OPTION_TEXTS["b"],
    "c": "The correct answer is: c) " + OPTION_TEXTS["c"],
}


def make_doc(paragraphs, url="https://doc.example/page"):
    return GroundingDocument(
        url=url,
        retrieval_source=RetrievalSource.DIRECT,
        paragraphs=tuple(paragraphs),
    )


def make_verifier(responses, **kwargs):
    provider = ScriptedProvider(responses)
    gateway = LlmGateway(provider)
    verifier = Verifier(gateway=gateway, fetcher=kwargs.pop("fetcher", None), **kwargs)
    return verifier, provider


class OneHit:
    """A search that finds one document, and a fetcher that serves it."""

    def __init__(self, doc: GroundingDocument):
        self.doc = doc

    def search(self, query, limit):
        return [self.doc.url]

    def fetch_document(self, url):
        return self.doc


def first_proof(responses, doc: GroundingDocument):
    """Verify STATEMENT against ``doc`` as the one search hit: the trace of its
    first paragraph that proves the statement (or None), and the provider."""
    hit = OneHit(doc)
    verifier, provider = make_verifier(responses, fetcher=hit, search_provider=hit)
    session = verifier.verify_via_web_search(STATEMENT, hit_limit=1)
    assert len(session.traces) <= 1
    return (session.traces[0] if session.traces else None), provider


class TestEarlyExit:
    @pytest.mark.parametrize("position", range(1, 11))
    def test_stops_at_first_proof(self, position):
        paragraphs = [f"paragraph number {i} " + "x" * 100 for i in range(1, 11)]
        responses = [ANSWER["c"]] * (position - 1) + [ANSWER["a"]]
        trace, provider = first_proof(responses, make_doc(paragraphs))
        assert provider.calls == position
        assert trace is not None
        assert trace.paragraph_text == paragraphs[position - 1]
        assert trace.verdict is VerdictKind.DIRECT_PROOF

    def test_no_proof_processes_all(self):
        paragraphs = [f"paragraph number {i} " + "p" * 150 for i in range(10)]
        trace, provider = first_proof([ANSWER["c"]] * 10, make_doc(paragraphs))
        assert trace is None
        assert provider.calls == 10

    def test_zero_valid_paragraphs(self):
        trace, provider = first_proof([], make_doc(["too short"]))
        assert trace is None
        assert provider.calls == 0

    def test_short_paragraphs_skipped_entirely(self):
        paragraphs = ["tiny", "y" * 120, "small"]
        trace, provider = first_proof([ANSWER["a"]], make_doc(paragraphs))
        assert provider.calls == 1
        assert trace.paragraph_text == "y" * 120

    def test_trace_paragraph_is_verbatim_member(self):
        paragraphs = ["z" * 140, "q" * 200]
        doc = make_doc(paragraphs)
        trace, _ = first_proof([ANSWER["c"], ANSWER["a"]], doc)
        assert trace.paragraph_text in doc.paragraphs
        assert trace.document_url == doc.url


PAGE_A = "<p>" + "a" * 150 + "</p><p>" + "b" * 150 + "</p>"
PAGE_B = "<p>" + "c" * 150 + "</p>"


class StubSearch:
    def __init__(self, urls):
        self.urls = urls

    def search(self, query, limit):
        return self.urls[:limit]


class TestWebSearchFlow:
    def test_traces_collected_per_confirming_document(self, dict_transport):
        urls = [
            "https://one.example/page",
            "https://two.example/report.pdf",
            "https://three.example/page",
        ]
        dict_transport.add(HttpRequest.get(urls[0]), body=PAGE_A)
        dict_transport.add(HttpRequest.get(urls[1]), body=b"%PDF-1.4",
                           content_type="application/pdf")
        dict_transport.add(HttpRequest.get(urls[2]), body=PAGE_B)
        # doc1: c then a; doc3: a
        responses = [ANSWER["c"], ANSWER["a"], ANSWER["a"]]
        verifier, provider = make_verifier(
            responses,
            fetcher=DocumentFetcher(dict_transport),
            search_provider=StubSearch(urls),
        )
        session = verifier.verify_via_web_search(STATEMENT)
        assert session.mode is VerificationMode.WEB_SEARCH
        assert [t.document_url for t in session.traces] == [urls[0], urls[2]]
        assert provider.calls == 3
        assert session.paragraphs_queried == 3
        assert session.documents_examined == 2
        skipped = [d for d in session.documents if d.skip is not None]
        assert len(skipped) == 1 and skipped[0].url == urls[1]
        assert skipped[0].skip.kind == "unsupported-media"
        assert session.ended_at >= session.started_at

    def test_a_url_listed_twice_is_one_document_at_its_first_rank(self, dict_transport):
        urls = ["https://one.example/page", "https://two.example/page", "https://one.example/page"]
        dict_transport.add(HttpRequest.get(urls[0]), body=PAGE_B)
        dict_transport.add(HttpRequest.get(urls[1]), body="<p>" + "d" * 150 + "</p>")
        verifier, provider = make_verifier(
            [ANSWER["a"], ANSWER["c"]],
            fetcher=DocumentFetcher(dict_transport),
            search_provider=StubSearch(urls),
        )
        session = verifier.verify_via_web_search(STATEMENT)
        assert [d.url for d in session.documents] == urls[:2]
        assert [t.document_url for t in session.traces] == [urls[0]]
        assert provider.calls == 2 and session.paragraphs_queried == 2

    def test_zero_hits_is_empty_session(self, dict_transport):
        verifier, _ = make_verifier(
            [], fetcher=DocumentFetcher(dict_transport), search_provider=StubSearch([])
        )
        session = verifier.verify_via_web_search(STATEMENT)
        assert session.traces == []
        assert session.documents == []

    def test_all_documents_unfetchable(self, dict_transport):
        urls = ["https://a.example/x.pdf", "https://b.example/y.pdf"]
        for url in urls:
            dict_transport.add(HttpRequest.get(url), body=b"%PDF-",
                               content_type="application/pdf")
        verifier, _ = make_verifier(
            [], fetcher=DocumentFetcher(dict_transport), search_provider=StubSearch(urls)
        )
        with pytest.raises(NoDocumentsRetrievable):
            verifier.verify_via_web_search(STATEMENT)

    @pytest.mark.parametrize("url,body,sniffed", [
        ("https://x.example/Paper.PDF?download=1", b"<html><body></body></html>",
         "application/pdf"),
        ("https://x.example/paper", b"%PDF-1.7 ...", "application/pdf"),
        ("https://x.example/page", b"\n <!DOCTYPE html><html><body>" + PAGE_B.encode(), None),
        ("https://x.example/page", b"<HTML><body>" + PAGE_B.encode(), None),
        ("https://x.example/data", b"col1,col2\n1,2\n", "unknown"),
    ], ids=["pdf-url", "pdf-body", "doctype", "html-tag", "other"])
    def test_a_page_without_a_content_type_is_sniffed(self, dict_transport, url, body, sniffed):
        """With no Content-Type, a PDF (by its URL or its body) and anything
        that is not HTML are unsupported-media skips; an HTML body is parsed."""
        plain = "https://plain.example/page"
        dict_transport.responses[request_fingerprint(HttpRequest.get(url))] = HttpResponse(
            200, {}, body, url)
        dict_transport.add(HttpRequest.get(plain), body="<p>too short to query</p>")
        verifier, provider = make_verifier(
            [ANSWER["a"]], fetcher=DocumentFetcher(dict_transport),
            search_provider=StubSearch([url, plain]),
        )
        session = verifier.verify_via_web_search(STATEMENT)
        record = session.documents[0]
        if sniffed is None:
            assert record.skip is None
            assert [(t.document_url, t.paragraph_text) for t in session.traces] == [
                (url, "c" * 150)]
        else:
            assert (record.skip.kind, record.skip.target) == ("unsupported-media", url)
            assert record.skip.detail == f"{url}: unsupported media type {sniffed}"
            assert provider.calls == 0 and session.traces == []


class TestReferenceNumbers:
    def test_sup_markers(self):
        html = ('text<sup class="reference"><a href="#cite_note-x-12">[12]</a></sup> more'
                '<sup class="reference"><a href="#cite_note-y-14">[14]</a></sup>')
        assert extract_reference_numbers(html) == [12, 14]

    def test_repeated_marker_distinct(self):
        html = ('<sup class="reference"><a href="#c-7">[7]</a></sup>'
                '<sup class="reference"><a href="#c-7">[7]</a></sup>')
        assert extract_reference_numbers(html) == [7]

    def test_plain_text_without_markers(self):
        assert extract_reference_numbers("no citations in this text") == []

    def test_bracketed_numbers_outside_a_marker_are_not_citations(self):
        assert extract_reference_numbers("the closed interval [3] holds, as in [12]") == []
        html = ('the interval [3] holds<sup class="reference">'
                '<a href="#cite_note-x-5">[5]</a></sup>')
        assert extract_reference_numbers(html) == [5]

    def test_href_fallback_when_sup_text_empty(self):
        html = '<sup class="reference"><a href="#cite_note-source-9"></a></sup>'
        assert extract_reference_numbers(html) == [9]


REFERENCES_HTML = (
    '<ol class="references">'
    '<li id="cite_note-1"><cite>First source.</cite></li>'
    '<li id="cite_note-2"><cite>Second source.</cite>'
    '<a href="https://second.example/paper">link</a>'
    '<a href="https://mirror.example/paper">mirror</a></li>'
    '<li id="cite_note-3"><cite>Third source.</cite>'
    '<a href="#internal">anchor</a>'
    '<a href="https://third.example/article">article</a></li>'
    "</ol>"
)
REFERENCES = html_text.capture_elements(REFERENCES_HTML, "li")


class TestResolveCitations:
    def test_resolves_with_external_urls(self):
        citations, dangling = resolve_citations([2, 3], REFERENCES)
        assert dangling == []
        assert citations == [
            ("https://second.example/paper", "https://mirror.example/paper"),
            ("https://third.example/article",),
        ]

    def test_dangling_number(self):
        citations, dangling = resolve_citations([1, 9], REFERENCES)
        assert citations == [()]  # entry 1 cites no external URL
        assert dangling == [9]

    def test_empty_numbers(self):
        assert resolve_citations([], REFERENCES) == ([], [])


WIKI_HTML = (
    "<html><body>"
    "<p>" + "lead paragraph about the subject " * 5 + "</p>"
    '<p>supported claim paragraph ' + "with detail " * 10 +
    '<sup class="reference"><a href="#cite_note-2">[2]</a></sup></p>'
    "<h2>References</h2>"
    '<ol class="references">'
    '<li id="cite_note-1"><cite>No URL here.</cite></li>'
    '<li id="cite_note-2"><cite>Primary.</cite>'
    '<a href="https://primary.example/article">article</a>'
    '<a href="https://dead.example/mirror">mirror</a></li>'
    "</ol>"
    "</body></html>"
)

PRIMARY_HTML = "<p>" + "primary source paragraph content " * 6 + "</p>"


ARTICLE = "https://en.wikipedia.org/wiki/Subject"


class TestWikipediaFlow:
    def test_drilldown_and_primary_trace(self, dict_transport):
        dict_transport.add(HttpRequest.get("https://en.wikipedia.org/wiki/Subject"),
                           body=WIKI_HTML)
        dict_transport.add(HttpRequest.get("https://primary.example/article"),
                           body=PRIMARY_HTML)
        # dead mirror with no snapshot: exercises the skip path
        dict_transport.add(HttpRequest.get("https://dead.example/mirror"),
                           status=404, body="gone")
        dict_transport.add_json(
            HttpRequest.get(ARCHIVE_AVAILABILITY_API,
                            params={"url": "https://dead.example/mirror"}),
            {"archived_snapshots": {}},
        )
        responses = [
            ANSWER["b"],  # chunk is positive (indication triggers drill-down)
            ANSWER["c"],  # lead paragraph
            ANSWER["a"],  # claim paragraph -> anchor with refs [2]
            ANSWER["a"],  # primary source paragraph confirms
        ]
        verifier, provider = make_verifier(
            responses,
            fetcher=DocumentFetcher(dict_transport),
        )
        statement = Statement("Subject", "related to", "Thing", subject_id="Q1")
        session = verifier.verify_via_wikipedia(statement, ARTICLE)
        assert session.mode is VerificationMode.WIKIPEDIA
        assert provider.calls == 4
        assert len(session.wikipedia_anchors) == 1
        assert session.wikipedia_anchors[0].ref_numbers == (2,)
        assert len(session.traces) == 1
        trace = session.traces[0]
        assert trace.document_url == "https://primary.example/article"
        assert trace.retrieval_source is RetrievalSource.DIRECT
        # the dead mirror is recorded as a skipped document
        skipped = [d for d in session.documents if d.skip is not None]
        assert [d.url for d in skipped] == ["https://dead.example/mirror"]
        # a trace never cites the Wikipedia article itself
        assert all(
            "wikipedia.org" not in t.document_url for t in session.traces
        )

    @pytest.mark.parametrize("lookup", ["unavailable", 503, 404])
    def test_a_dead_citation_whose_archive_lookup_fails_is_a_skip(self, dict_transport,
                                                                   lookup):
        """An archive lookup that raises ``Unavailable`` or answers other than
        200 means no snapshot: the dead cited link is an ``unavailable`` skip,
        and the session goes on to its live source."""
        dead = "https://dead.example/mirror"
        dict_transport.add(HttpRequest.get("https://en.wikipedia.org/wiki/Subject"),
                           body=WIKI_HTML)
        dict_transport.add(HttpRequest.get("https://primary.example/article"),
                           body=PRIMARY_HTML)
        dict_transport.add(HttpRequest.get(dead), status=404, body="gone")
        lookup_req = HttpRequest.get(ARCHIVE_AVAILABILITY_API, params={"url": dead})
        if lookup == "unavailable":
            answer = dict_transport.send

            def send(req):
                if req == lookup_req:
                    raise Unavailable("archive.org: connection refused")
                return answer(req)

            dict_transport.send = send
        else:  # a failed lookup's body is not read, even one that names a snapshot
            snapshot = {"available": True, "url": "https://web.archive.org/web/2020/" + dead}
            dict_transport.add_json(lookup_req, {"archived_snapshots": {"closest": snapshot}},
                                    status=lookup)
        verifier, _ = make_verifier(
            [ANSWER["b"], ANSWER["c"], ANSWER["a"], ANSWER["a"]],
            fetcher=DocumentFetcher(dict_transport),
        )
        session = verifier.verify_via_wikipedia(
            Statement("Subject", "related to", "Thing", subject_id="Q1"), ARTICLE)
        (skipped,) = [d for d in session.documents if d.skip is not None]
        assert (skipped.url, skipped.skip.kind) == (dead, "unavailable")
        assert "no live copy and no archived snapshot" in skipped.skip.detail
        assert [t.document_url for t in session.traces] == ["https://primary.example/article"]

    def test_chunk_over_the_context_budget_is_a_skip(self, dict_transport):
        """A chunk whose prompt exceeds the context budget becomes a skip and is
        not counted as queried; the other chunks are still judged."""
        oversize = "<p>" + "o" * 3000 + "</p>"
        dict_transport.add(HttpRequest.get("https://en.wikipedia.org/wiki/Subject"),
                           body=WIKI_HTML.replace("<body>", "<body>" + oversize))
        statement = Statement("Subject", "related to", "Thing", subject_id="Q1")
        fits = len(render_rdf_prompt(statement, "x" * 1200)) + len(SYSTEM_PROMPT)
        provider = ScriptedProvider([ANSWER["c"]])
        verifier = Verifier(
            gateway=LlmGateway(provider, context_tokens=fits // 4),
            fetcher=DocumentFetcher(dict_transport),
            chunk_chars=1000,  # the oversize paragraph is a chunk of its own
        )
        session = verifier.verify_via_wikipedia(statement, ARTICLE)
        assert provider.calls == 1
        assert session.paragraphs_queried == 1
        assert [(skip.kind, skip.target) for skip in session.skips] == [
            ("context-overflow", "https://en.wikipedia.org/wiki/Subject")]
        assert "exceeds budget" in session.skips[0].detail
        assert session.traces == [] and session.wikipedia_anchors == []

    def test_negative_chunk_skips_drilldown(self, dict_transport):
        dict_transport.add(HttpRequest.get("https://en.wikipedia.org/wiki/Subject"),
                           body=WIKI_HTML)
        verifier, provider = make_verifier(
            [ANSWER["c"]],
            fetcher=DocumentFetcher(dict_transport),
        )
        statement = Statement("Subject", "related to", "Thing", subject_id="Q1")
        session = verifier.verify_via_wikipedia(statement, ARTICLE)
        assert provider.calls == 1
        assert session.traces == []
        assert session.wikipedia_anchors == []

    def test_shared_citation_verified_once(self, dict_transport):
        # two confirming paragraphs cite the same source: verify it only once
        html = (
            "<html><body>"
            "<p>" + "first supported paragraph with plenty of detail " * 4 +
            '<sup class="reference"><a href="#cite_note-2">[2]</a></sup></p>'
            "<p>" + "second supported paragraph with plenty of detail " * 4 +
            '<sup class="reference"><a href="#cite_note-2">[2]</a></sup></p>'
            '<ol class="references">'
            '<li id="cite_note-1"><cite>Unused.</cite></li>'
            '<li id="cite_note-2"><cite>Shared.</cite>'
            '<a href="https://primary.example/article">article</a></li>'
            "</ol></body></html>"
        )
        dict_transport.add(HttpRequest.get("https://en.wikipedia.org/wiki/Subject"),
                           body=html)
        dict_transport.add(HttpRequest.get("https://primary.example/article"),
                           body=PRIMARY_HTML)
        responses = [
            ANSWER["b"],  # chunk
            ANSWER["a"],  # first paragraph -> citation 2
            ANSWER["a"],  # second paragraph -> citation 2 again (no refetch)
            ANSWER["a"],  # primary source confirms
        ]
        verifier, provider = make_verifier(
            responses,
            fetcher=DocumentFetcher(dict_transport),
        )
        session = verifier.verify_via_wikipedia(
            Statement("Subject", "related to", "Thing", subject_id="Q1"), ARTICLE
        )
        assert provider.calls == 4
        assert len(session.traces) == 1
        assert len(session.wikipedia_anchors) == 2
        primary_records = [d for d in session.documents
                           if d.url == "https://primary.example/article"]
        assert len(primary_records) == 1


class RecordingGateway(LlmGateway):
    """A gateway that keeps every prompt it is asked, also one over its budget."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prompts: list[str] = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return super().complete(prompt)


class AlwaysIndication:
    def complete(self, params, prompt):
        return ANSWER["b"]


@settings(deadline=None)
@given(lengths=st.lists(st.integers(1, 400), min_size=1, max_size=8),
       chunk_chars=st.integers(50, 1500), slack=st.integers(0, 1600))
def test_only_chunks_overflow_the_context_budget(lengths, chunk_chars, slack):
    """With every chunk answered "indication", the ``context-overflow`` skips
    are exactly the chunks over the budget, and every drill-down prompt fits:
    a paragraph is one of its chunk's paragraphs."""
    statement = Statement("Subject", "related to", "Thing", subject_id="Q1")
    texts = [letter * n for letter, n in zip(string.ascii_letters, lengths)]
    transport = DictTransport()
    transport.add(HttpRequest.get("https://en.wikipedia.org/wiki/Subject"),
                  body="<html><body>" + "".join(f"<p>{t}</p>" for t in texts) + "</body></html>")

    def prompt(snippet):
        return render_rdf_prompt(statement, snippet)

    tokens = (len(prompt("x")) - 1 + len(SYSTEM_PROMPT) + slack) // 4
    budget = tokens * 4
    gateway = RecordingGateway(AlwaysIndication(), context_tokens=tokens)
    verifier = Verifier(gateway=gateway, fetcher=DocumentFetcher(transport),
                        chunk_chars=chunk_chars)
    session = verifier.verify_via_wikipedia(statement, ARTICLE)

    def used(snippet):
        return len(prompt(snippet)) + len(SYSTEM_PROMPT)

    chunks = [[texts[i] for i in positions]
              for positions in chunk_fill_limit(texts, max_chars=chunk_chars)]
    fitting = [chunk for chunk in chunks if used("\n".join(chunk)) <= budget]
    assert [(skip.kind, skip.detail) for skip in session.skips] == [
        ("context-overflow", f"prompt of {used(text)} chars exceeds budget of {budget} chars")
        for text in map("\n".join, chunks) if used(text) > budget]
    drilled = [p for chunk in fitting for p in chunk if is_valid_paragraph(p)]
    assert all(used(paragraph) <= budget for paragraph in drilled)
    assert Counter(gateway.prompts) == Counter(
        [prompt("\n".join(chunk)) for chunk in chunks] + [prompt(p) for p in drilled])
    assert session.paragraphs_queried == len(fitting) + len(drilled)


def test_parse_wikipedia_article_structure():
    article = parse_wikipedia_article(WIKI_HTML)
    assert len(article.paragraphs) == 2
    assert "cite_note-2" in article.paragraphs[1].html
    assert len(article.references) == 2
    assert "Primary." in article.references[1].text
