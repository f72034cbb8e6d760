"""End-to-end verification sessions.

Two modes: web search (query built from the triple, each retrieved document
scanned paragraph by paragraph) and Wikipedia (two-phase drill-down through
the subject's article, then verification against the primary sources its
references point to). The caller resolves the article's URL once per run;
this module asks nothing of Wikidata. A confirmation always carries an
evidence trace; what was skipped (PDFs, dead links, dangling references,
prompts over the context budget) is recorded too.

Within a session, independent documents (search hits, cited sources) and
independent judgments (article chunks, drill-down paragraphs) can run
concurrently on an optional worker pool that a run's statements share; the
statements themselves are the items of a smaller pool of their own. A
web-search session fetches every hit first; each fetched hit then adds the
scan of its paragraphs, and a free worker takes the oldest statement's
longest scan first (the most valid paragraphs, ties in hit order). A
Wikipedia session streams: a chunk that comes back positive adds its
paragraphs' judgments, and a paragraph that finds a direct proof adds its
cited sources, as soon as that verdict arrives. A free worker takes the
oldest statement's deepest ready stage first (cited sources, then
paragraphs, then chunks). So the calls, and the lines of a live run's
``responses.jsonl``, follow these orders, not the hits' or the article's,
even at width 1. Failures still rank by key (hit, then fetch before scan;
stage, then place in the article). Each task builds its own result and
never touches the session; the calling thread waits once for all of them
and assembles the results in rank or article order, so a session is the
same whatever the pool's width. Paragraphs of one document are still judged
one after another, stopping at the first proof.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import re
import threading
from contextlib import closing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Callable, Iterable, Sequence, TypeVar

from . import html_text
from .errors import (
    ContextOverflow,
    KgVerifyError,
    NoDocumentsRetrievable,
    Unavailable,
    UnsupportedMediaType,
)
from .llm import LlmGateway, extract_justification, parse_option
from .model import (
    EvidenceTrace,
    Statement,
    VerdictKind,
    statement_to_search_query,
)
from .net import SingleFlight
from .prompting import render_rdf_prompt
from .retrieval import (
    DEFAULT_CHUNK_CHARS,
    DEFAULT_HIT_LIMIT,
    DocumentFetcher,
    GroundingDocument,
    SearchProvider,
    chunk_fill_limit,
    is_valid_paragraph,
    valid_paragraphs,
)

logger = logging.getLogger(__name__)

# Chunk verdicts that trigger the per-paragraph drill-down. Final confirmation
# still requires direct proof at the paragraph and primary-source levels.
DRILLDOWN_POSITIVE = frozenset({VerdictKind.DIRECT_PROOF, VerdictKind.INDICATION})

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


class WorkerPool:
    """``width`` worker threads named ``kgverify``, started with the pool. A
    free worker takes the ready item of the oldest statement first (the rank
    of the statement that queued it, ``run_statements``; 0 outside one), and
    of that statement's oldest fan-out, its deepest item (``_Tasks.add``'s
    ``depth``) in key order. Failures still rank by key alone, but the order
    of the calls, and so of a live run's ``responses.jsonl`` lines, follows
    the depths, even at width 1. At width 0 the caller of ``_Tasks.join``
    runs the items itself. ``run_statements`` runs a verify run's statements
    on a pool of their own."""

    def __init__(self, width: int):
        self.width = width
        self._lock = threading.RLock()  # guards the pool and every _Tasks on it
        self._queued = threading.Condition(self._lock)  # idle workers wait here
        self._changed = threading.Condition(self._lock)  # run_statements waits here
        self._ready: list = []  # heap of (rank, group, -depth, key, tasks, fn, arg)
        self._closed = False
        self._groups = itertools.count()  # orders the fan-outs of one rank
        self._local = threading.local()  # .rank: the statement its thread runs
        self._statements: dict[int, bool] = {}  # running, by rank: queued items yet?
        self._threads = [threading.Thread(target=self._work, name="kgverify", daemon=True)
                         for _ in range(width)]
        try:
            for thread in self._threads:
                thread.start()
        except BaseException as exc:  # a Ctrl-C inside a start, or no thread left
            self.close()  # stop the workers that started
            if isinstance(exc, RuntimeError):  # a thread or process limit
                raise KgVerifyError(f"cannot start a worker thread: {exc}") from exc
            raise

    def _work(self) -> None:
        """Run ready items, lowest first; a worker then waits for more until
        the pool closes, an inline caller returns."""
        tasks = key = failure = None
        while True:
            with self._lock:
                if tasks is not None:
                    tasks.end(key, failure)
                while self.width and not (self._ready or self._closed):
                    self._queued.wait()
                if self._closed or not self._ready:
                    return
                *_, key, tasks, fn, arg = heapq.heappop(self._ready)
                if not self._ready:
                    self._changed.notify_all()  # the next free worker would idle
                tasks.queued -= 1
                tasks.in_flight += 1
            failure = None
            try:
                fn(arg)
            except BaseException as exc:
                failure = exc

    def run_statements(self, fn: Callable[[int], object], count: int) -> None:
        """Call ``fn(rank)`` for each rank of ``range(count)``: the items of one
        ``_Tasks`` on ``max(1, width - 1)`` workers of their own, which start
        here and stop on return. Statements start in rank order: the next when
        none runs, or when a worker of this pool would idle (no ready item is
        left) and every running statement has queued items."""
        running, next_rank = self._statements, 0

        def run_when_admitted(rank: int) -> None:
            nonlocal next_rank
            with self._lock:
                while not (statements.stopped or rank == next_rank and (
                        not running or all(running.values()) and not self._ready)):
                    self._changed.wait(0.1)  # in slices: a stop is not notified here
                if statements.stopped:
                    return
                running[rank], next_rank = False, rank + 1
            self._local.rank = rank
            try:
                fn(rank)
            except BaseException:
                statements.stop()  # before the next statement can see this one end
                raise
            finally:
                with self._lock:
                    del running[rank]
                    self._changed.notify_all()  # the next statement may start

        with closing(WorkerPool(max(1, self.width - 1))) as pool:
            statements = _Tasks(pool)
            statements.join(lambda: statements.add(
                run_when_admitted, ((rank, rank) for rank in range(count))))

    def close(self) -> None:
        """Start no further item, and wait for the items in flight to end."""
        with self._lock:
            self._closed = True
            self._queued.notify_all()
        for thread in filter(threading.Thread.is_alive, self._threads):  # started ones
            thread.join()


class _Tasks:
    """The items of one fan-out, each with a key, on a worker pool or run by
    the caller (``pool`` None). After the items of older statements, a free
    worker takes the deepest item first, items of one depth lowest key
    first; so at width 1 too the calls, and a live run's ``responses.jsonl``
    lines, come in that order, not in key order.

    An item may add follow-up items, but never waits on one, so the pool
    cannot deadlock. Once an item fails no further item starts, and the
    failure with the lowest key, whatever its stage, propagates once every
    item in flight has ended. An interrupt of the caller, while it adds or
    waits, does the same.
    """

    def __init__(self, pool: WorkerPool | None):
        self._pool = pool or WorkerPool(0)
        self.rank = getattr(self._pool._local, "rank", 0)
        self.group = next(self._pool._groups)
        self.queued = self.in_flight = 0  # items not taken yet; taken and not ended
        self.stopped = False  # an item failed, or the caller was interrupted
        self._ended = False  # no item runs or can start
        self._done = threading.Condition(self._pool._lock)  # its caller waits here
        self._failures: dict = {}

    def add(self, fn: Callable, items: Iterable[tuple], depth: float = 0) -> None:
        """Queue ``fn(arg)`` for each ``(key, arg)`` of ``items`` at ``depth``,
        and wake an idle worker for each. A free worker takes this fan-out's
        deepest items first: a later stage (a Wikipedia session's cited
        sources), or a longer scan (a search hit's count of valid
        paragraphs), or ``math.inf`` for what must run before any of them."""
        pool = self._pool
        with pool._lock:
            for key, arg in () if self.stopped else items:
                heapq.heappush(pool._ready, (self.rank, self.group, -depth, key, self, fn, arg))
                self.queued += 1
                pool._queued.notify()
            if pool._statements.get(self.rank) is False:  # its statement's first items
                pool._statements[self.rank] = True
                pool._changed.notify_all()

    def _settle(self) -> None:
        """Mark the fan-out ended if no item runs or can start; call under the lock."""
        if (self.stopped or not self.queued) and not self.in_flight and not self._ended:
            self._ended = True
            self._done.notify_all()

    def stop(self) -> None:
        """Drop the items not taken yet, and start no further one."""
        pool = self._pool
        with pool._lock:
            if self.queued and not self.stopped:
                pool._ready = [entry for entry in pool._ready if entry[4] is not self]
                heapq.heapify(pool._ready)
            self.stopped, self.queued = True, 0
            self._settle()

    def end(self, key, failure: BaseException | None) -> None:
        """End an item taken, which raised ``failure`` or None; call under the lock."""
        self.in_flight -= 1
        if failure is not None:
            self._failures[key] = failure
            self.stop()
        self._settle()

    def join(self, add_first: Callable[[], object]) -> None:
        """Call ``add_first``, which queues the first items in one ``add`` (an
        item may end before a second one), then wait until no item is left and
        raise the failure with the lowest key."""
        pool, interrupt = self._pool, None
        try:
            add_first()
            with pool._lock:
                self._settle()  # add_first may have queued nothing
            if not pool.width:
                pool._work()
        except BaseException as exc:  # a Ctrl-C
            interrupt = exc
            self.stop()
        while not self._ended:
            try:
                with pool._lock:
                    # in slices: a Ctrl-C that lands as a slice begins waits one slice
                    self._done.wait_for(lambda: self._ended, 0.1)
            except BaseException as exc:
                if interrupt is not None:
                    raise  # a second Ctrl-C ends the wait
                interrupt = exc
                self.stop()
        if interrupt is not None:
            raise interrupt
        if self._failures:
            raise self._failures[min(self._failures)]


def map_in_order(
    pool: WorkerPool | None, fn: Callable[[_Item], _Result], items: Sequence[_Item]
) -> list[_Result]:
    """Apply ``fn`` to every item and return the results in item order.

    The items queue keyed by index, on the pool's workers, or without a pool
    for the caller to run one after another. Failures and interrupts follow
    ``_Tasks``: the first failure in item order propagates once every started
    item has ended.
    """
    results: list = [None] * len(items)
    tasks = _Tasks(pool)

    def store(index: int) -> None:
        results[index] = fn(items[index])

    tasks.join(lambda: tasks.add(store, ((index, index) for index in range(len(items)))))
    return results


class VerificationMode(Enum):
    WEB_SEARCH = "web-search"
    WIKIPEDIA = "wikipedia"


@dataclass(frozen=True)
class SkipRecord:
    kind: str
    target: str
    detail: str = ""


@dataclass
class DocumentRecord:
    url: str
    retrieval_source: str | None = None
    skip: SkipRecord | None = None


@dataclass(frozen=True)
class WikipediaAnchor:
    """Where in the Wikipedia article the statement appeared supported."""

    paragraph_text: str
    ref_numbers: tuple[int, ...]


@dataclass
class VerificationSession:
    statement: Statement
    mode: VerificationMode
    traces: list[EvidenceTrace] = field(default_factory=list)
    documents: list[DocumentRecord] = field(default_factory=list)
    skips: list[SkipRecord] = field(default_factory=list)
    wikipedia_anchors: list[WikipediaAnchor] = field(default_factory=list)
    paragraphs_queried: int = 0
    started_at: datetime | None = None
    ended_at: datetime | None = None

    @property
    def documents_examined(self) -> int:
        return sum(1 for d in self.documents if d.skip is None)


@dataclass
class _DocumentScan:
    """What one document contributes to a session, built apart from it."""

    record: DocumentRecord
    trace: EvidenceTrace | None = None
    skips: list[SkipRecord] = field(default_factory=list)
    paragraphs_queried: int = 0

    def add_to(self, session: VerificationSession) -> None:
        session.documents.append(self.record)
        session.skips.extend(self.skips)
        session.paragraphs_queried += self.paragraphs_queried
        if self.trace is not None:
            session.traces.append(self.trace)


_BRACKET_MARKER = re.compile(r"\[(\d+)\]")
_NOTE_HREF = re.compile(r"#cite_note[^\"']*?-(\d+)\s*$")


def extract_reference_numbers(paragraph_html: str) -> list[int]:
    """Distinct citation indices of a paragraph's reference markers
    (``<sup class="reference">``), in appearance order. A bracketed number
    outside a marker is not a citation."""
    numbers: list[int] = []

    def add(value: int) -> None:
        if value > 0 and value not in numbers:
            numbers.append(value)

    for sup in html_text.capture_elements(paragraph_html, "sup", class_filter="reference"):
        match = _BRACKET_MARKER.search(sup.text)
        if match:
            add(int(match.group(1)))
            continue
        for href in html_text.extract_links(sup.html):
            note = _NOTE_HREF.search(href)
            if note:
                add(int(note.group(1)))
                break
    return numbers


def resolve_citations(
    ref_numbers: Sequence[int], references: Sequence[html_text.CapturedElement]
) -> tuple[list[tuple[str, ...]], list[int]]:
    """Map citation indices to entries of the references list.

    ``references`` are the list's ``<li>`` entries in order (entry n is
    citation n). Returns, in the order of ``ref_numbers``, the external URLs
    of each resolvable citation's entry, and the dangling indices that have
    no entry.
    """
    citations: list[tuple[str, ...]] = []
    dangling: list[int] = []
    for number in ref_numbers:
        if number < 1 or number > len(references):
            dangling.append(number)
            continue
        links = html_text.extract_links(references[number - 1].html)
        citations.append(tuple(href for href in links if href.startswith("http")))
    return citations, dangling


# A paragraph's citation numbers, the external URLs of each resolvable
# citation, and its dangling numbers (``resolve_citations``).
_Citations = tuple[tuple[int, ...], list[tuple[str, ...]], list[int]]


@dataclass(frozen=True)
class _WikipediaArticle:
    paragraphs: tuple[html_text.CapturedElement, ...]
    references: tuple[html_text.CapturedElement, ...]
    _citations: dict[int, _Citations] = field(default_factory=dict, compare=False, repr=False)

    def citations(self, position: int) -> _Citations:
        """The citations of the paragraph at ``position``, derived once per
        article, whichever statement proves the paragraph first."""
        found = self._citations.get(position)
        if found is None:
            numbers = extract_reference_numbers(self.paragraphs[position].html)
            found = self._citations.setdefault(
                position, (tuple(numbers), *resolve_citations(numbers, self.references)))
        return found


def parse_wikipedia_article(html: str) -> _WikipediaArticle:
    """Paragraphs of an article plus the entries of its (first) references list."""
    paragraphs = tuple(html_text.extract_paragraph_elements(html))
    reference_lists = html_text.capture_elements(html, "ol", class_filter="references")
    references = (
        tuple(html_text.capture_elements(reference_lists[0].html, "li"))
        if reference_lists else ()
    )
    return _WikipediaArticle(paragraphs=paragraphs, references=references)


class Verifier:
    """Drives verification sessions over a gateway, a fetcher and, for web
    search, a search provider; a Wikipedia session is handed its article URL.

    ``pool`` (optional) runs a session's independent documents and judgments
    concurrently; sessions come out the same with or without it. Every
    statement about a subject reuses its Wikipedia article, also statements
    verified at once; each search hit or cited source is fetched and parsed
    once (``DocumentFetcher``), each proved article paragraph's citations are
    resolved once (``_WikipediaArticle.citations``), and each search query's
    hits are asked once, as a subject may hold one value twice under a property.
    """

    def __init__(
        self,
        gateway: LlmGateway,
        fetcher: DocumentFetcher,
        search_provider: SearchProvider | None = None,
        chunk_chars: int = DEFAULT_CHUNK_CHARS,
        clock: Callable[[], datetime] | None = None,
        pool: WorkerPool | None = None,
    ):
        self.gateway = gateway
        self.fetcher = fetcher
        self.search_provider = search_provider
        self.chunk_chars = chunk_chars
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self.pool = pool
        self._hits: SingleFlight[list[str]] = SingleFlight()

    # -- building blocks --------------------------------------------------------

    def _judge(self, statement: Statement, snippet: str, source: str):
        """The verdict on a snippet of ``source`` and its response, or the
        ``context-overflow`` skip of a prompt over the context budget."""
        try:
            response = self.gateway.complete(render_rdf_prompt(statement, snippet))
        except ContextOverflow as exc:
            logger.warning("skipping a snippet of %s: %s", source, exc)
            return SkipRecord(kind="context-overflow", target=source, detail=str(exc))
        return parse_option(response.raw_text), response

    def _scan(
        self, statement: Statement, doc: GroundingDocument, record: DocumentRecord
    ) -> _DocumentScan:
        """Scan a document's valid paragraphs in order; stop at the first proof.

        The remaining content of a confirmed document is not processed, to
        conserve model calls.
        """
        scan = _DocumentScan(record)
        for paragraph in valid_paragraphs(doc.paragraphs):
            judged = self._judge(statement, paragraph, doc.url)
            if isinstance(judged, SkipRecord):
                scan.skips.append(judged)
                continue
            verdict, response = judged
            scan.paragraphs_queried += 1
            if verdict is VerdictKind.DIRECT_PROOF:
                scan.trace = EvidenceTrace(
                    document_url=doc.url,
                    retrieval_source=doc.retrieval_source,
                    paragraph_text=paragraph,
                    verdict=verdict,
                    justification=extract_justification(response.raw_text),
                    llm_model=self.gateway.params.model,
                    timestamp=self._clock(),
                    duration_ms=response.latency_ms,
                )
                break
        return scan

    @staticmethod
    def _fetch(
        url: str, fetch: Callable[[str], GroundingDocument]
    ) -> tuple[DocumentRecord, GroundingDocument | None]:
        """Fetch one document: its record, and the document to scan, or None
        for a skip (a PDF or a dead link), which the record carries."""
        record = DocumentRecord(url=url)
        try:
            doc = fetch(url)
        except UnsupportedMediaType as exc:
            record.skip = SkipRecord("unsupported-media", url, str(exc))
            return record, None
        except Unavailable as exc:
            record.skip = SkipRecord("unavailable", url, str(exc))
            return record, None
        record.retrieval_source = doc.retrieval_source.value
        return record, doc

    # -- use case: web search ---------------------------------------------------

    def verify_via_web_search(
        self, statement: Statement, hit_limit: int = DEFAULT_HIT_LIMIT
    ) -> VerificationSession:
        """Search the web for the triple and verify against each hit; the
        session lists the hits in rank order."""
        session = VerificationSession(
            statement=statement, mode=VerificationMode.WEB_SEARCH, started_at=self._clock()
        )
        query = statement_to_search_query(statement)
        search = self.search_provider.search
        urls = self._hits.get(  # each URL once, at its best rank
            (query, hit_limit), lambda: list(dict.fromkeys(search(query, hit_limit))))
        fetch = self.fetcher.fetch_document

        # Every hit's fetch runs first. A fetched hit then queues its scan at
        # the depth of its valid paragraphs, the most calls the scan can make,
        # so a free worker starts the longest scan left first. Failures rank
        # by hit, a fetch before its own scan.
        tasks = _Tasks(self.pool)
        scans: list = [None] * len(urls)

        def fetch_hit(index: int) -> None:
            record, doc = self._fetch(urls[index], fetch)
            if doc is None:
                scans[index] = _DocumentScan(record)
                return
            tasks.add(scan_hit, [((index, 1), (index, doc, record))],
                      depth=len(valid_paragraphs(doc.paragraphs)))

        def scan_hit(arg: tuple[int, GroundingDocument, DocumentRecord]) -> None:
            index, doc, record = arg
            scans[index] = self._scan(statement, doc, record)

        tasks.join(lambda: tasks.add(
            fetch_hit, (((index, 0), index) for index in range(len(urls))), depth=math.inf))
        for scan in scans:
            scan.add_to(session)
        if urls and session.documents_examined == 0:
            raise NoDocumentsRetrievable(
                f"none of the {len(urls)} search hits could be retrieved"
            )
        session.ended_at = self._clock()
        return session

    # -- use case: Wikipedia ----------------------------------------------------

    def verify_via_wikipedia(self, statement: Statement, article_url: str) -> VerificationSession:
        """Verify through the subject's Wikipedia article, at ``article_url``,
        and its cited sources.

        Phase 1 scans size-bounded chunks of the article; positive chunks are
        re-examined paragraph by paragraph. A paragraph confirmed by direct
        proof contributes its citations, and only the cited primary sources
        can produce evidence traces; the article itself is never treated as
        an authority, so its confirming paragraphs are recorded only as
        intermediate anchors. A chunk whose prompt exceeds the context budget
        becomes a ``context-overflow`` skip and is not queried. The caller
        resolves ``article_url`` once per run (``EntityInfo.wikipedia_url``).
        """
        session = VerificationSession(
            statement=statement, mode=VerificationMode.WIKIPEDIA, started_at=self._clock()
        )
        try:
            article = self.fetcher.fetch_parsed(article_url, parse_wikipedia_article)
        except (Unavailable, UnsupportedMediaType) as exc:
            raise NoDocumentsRetrievable(f"cannot fetch article {article_url}: {exc}") from exc
        session.documents.append(
            DocumentRecord(url=article_url, retrieval_source="direct")
        )

        # Each judgment starts as soon as the verdict it depends on arrives:
        # a positive chunk adds its paragraphs, a proved paragraph its cited
        # sources. A free worker takes the deepest stage first, as the longest
        # chain left is a source's fetch and scan. Failures rank by stage,
        # then by place in the article.
        tasks = _Tasks(self.pool)
        texts = [p.text for p in article.paragraphs]
        chunks = chunk_fill_limit(texts, max_chars=self.chunk_chars)
        chunk_verdicts: list = [None] * len(chunks)
        drilled: list[int] = []  # the positions of the paragraphs judged
        citations: dict[int, _Citations] = {}
        scans: dict[str, _DocumentScan] = {}
        started_urls: set[str] = set()
        started_lock = threading.Lock()
        fetch = self.fetcher.fetch_with_archive_fallback

        def judge_chunk(index: int) -> None:
            text = "\n".join(texts[position] for position in chunks[index])
            judged = self._judge(statement, text, article_url)
            chunk_verdicts[index] = judged
            if not isinstance(judged, SkipRecord) and judged[0] in DRILLDOWN_POSITIVE:
                tasks.add(judge_paragraph, (
                    ((1, position), position) for position in chunks[index]
                    if is_valid_paragraph(texts[position])), depth=1)

        def judge_paragraph(position: int) -> None:
            paragraph = article.paragraphs[position]
            # never a skip: a paragraph's prompt is no longer than its chunk's, which fit
            verdict, _ = self._judge(statement, paragraph.text, article_url)
            drilled.append(position)
            if verdict is not VerdictKind.DIRECT_PROOF:
                return
            citations[position] = article.citations(position)
            _, cited, _ = citations[position]
            sources = []
            with started_lock:  # a URL cited again is examined only once
                for url in (url for urls in cited for url in urls):
                    if url not in started_urls:
                        started_urls.add(url)
                        sources.append(((2, position, len(sources)), url))
            tasks.add(examine, sources, depth=2)

        def examine(url: str) -> None:
            record, doc = self._fetch(url, fetch)
            scans[url] = self._scan(statement, doc, record) if doc else _DocumentScan(record)

        tasks.join(lambda: tasks.add(judge_chunk, (((0, i), i) for i in range(len(chunks)))))

        # Assemble in article order: chunk skips, then per proved paragraph its
        # anchor, dangling references and cited sources, each source at its
        # first citation.
        session.skips.extend(j for j in chunk_verdicts if isinstance(j, SkipRecord))
        session.paragraphs_queried += len(drilled) + sum(
            not isinstance(judged, SkipRecord) for judged in chunk_verdicts)
        added: set[str] = set()
        for position in sorted(citations):
            numbers, cited, dangling = citations[position]
            session.wikipedia_anchors.append(WikipediaAnchor(
                paragraph_text=article.paragraphs[position].text, ref_numbers=numbers))
            session.skips.extend(
                SkipRecord("dangling-reference", str(number), "no entry in references list")
                for number in dangling
            )
            for urls in cited:
                for url in urls:
                    if url not in added:
                        added.add(url)
                        scans[url].add_to(session)
        session.ended_at = self._clock()
        return session
