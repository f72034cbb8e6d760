from __future__ import annotations

import contextlib
import dataclasses
import email.utils
import gzip
import http.client
import io
import json
import queue
import socket
import sys
import threading
import time
import types
from datetime import datetime, timedelta, timezone

import pytest
import requests
import urllib3

from kgverify import net
from kgverify.errors import FixtureMissing, MalformedInput, ProviderUnavailable, Unavailable
from kgverify.llm import LlmGateway, ReplicateHttpProvider
from kgverify.model import Statement
from kgverify.retrieval import DocumentFetcher, GoogleSearchProvider
from kgverify.store import FixtureStore
from kgverify.verifier import Verifier
from kgverify.wikidata import EntityId, WikidataClient
from kgverify.net import (
    HttpRequest,
    HttpResponse,
    LiveTransport,
    RequestGate,
    SingleFlight,
    USER_AGENT,
    request_fingerprint,
    response_from_record,
    response_to_record,
)

from concurrency import GatedTransport, ask_in_flight, await_thread_blocked_in
from conftest import ScriptedProvider


class CountingTransport:
    def __init__(self, body=b"payload", status=200):
        self.calls = 0
        self.body = body
        self.status = status

    def send(self, req):
        self.calls += 1
        return HttpResponse(status=self.status,
                            headers={"content-type": "text/plain"},
                            body=self.body, url=req.url)


class TestFingerprint:
    def test_stable_and_param_order_independent(self):
        a = HttpRequest.get("https://x.example", params={"b": "2", "a": "1"})
        b = HttpRequest.get("https://x.example", params={"a": "1", "b": "2"})
        assert request_fingerprint(a) == request_fingerprint(b)

    def test_headers_excluded(self):
        a = HttpRequest.get("https://x.example", headers={"Accept": "text/html"})
        b = HttpRequest.get("https://x.example")
        assert request_fingerprint(a) == request_fingerprint(b)

    def test_credentials_excluded(self):
        a = HttpRequest.get("https://x.example", params={"q": "1", "key": "k1", "cx": "c1"})
        b = HttpRequest.get("https://x.example", params={"q": "1", "key": "k2", "cx": "c2"})
        assert request_fingerprint(a) == request_fingerprint(b)
        assert request_fingerprint(a) == request_fingerprint(
            HttpRequest.get("https://x.example", params={"q": "1"}))

    def test_sensitive_to_url_params_and_body(self):
        base = HttpRequest.get("https://x.example")
        assert request_fingerprint(base) != request_fingerprint(
            HttpRequest.get("https://x.example/other")
        )
        assert request_fingerprint(base) != request_fingerprint(
            HttpRequest.get("https://x.example", params={"q": "1"})
        )
        assert request_fingerprint(base) != request_fingerprint(
            HttpRequest("POST", "https://x.example", body=b"data")
        )
        assert request_fingerprint(base) != request_fingerprint(
            HttpRequest("POST", "https://x.example", body=b"")
        )


class TestRecordSerialization:
    def test_text_body_round_trip(self):
        req = HttpRequest.get("https://x.example")
        resp = HttpResponse(status=200, headers={"content-type": "text/html"},
                            body="héllo".encode("utf-8"), url=req.url)
        assert response_from_record(response_to_record(req, resp)) == resp

    def test_binary_body_round_trip(self):
        req = HttpRequest.get("https://x.example/bin")
        resp = HttpResponse(status=200, headers={"content-type": "application/pdf"},
                            body=b"\xff\xfe%PDF", url=req.url)
        restored = response_from_record(response_to_record(req, resp))
        assert restored.body == b"\xff\xfe%PDF"

    def test_charset_parsing(self):
        resp = HttpResponse(status=200,
                            headers={"content-type": "text/html; charset=latin-1"},
                            body="café".encode("latin-1"))
        assert resp.content_type == "text/html"
        assert resp.text == "café"

    def test_bogus_charset_falls_back_to_utf8(self):
        resp = HttpResponse(status=200,
                            headers={"content-type": "text/html; charset=not-a-codec"},
                            body="plain".encode("utf-8"))
        assert resp.text == "plain"


class TestFixtureTransport:
    """The fixture store replaying ``http/``."""

    def test_round_trip_via_files(self, tmp_path):
        req = HttpRequest.get("https://x.example", params={"q": "1"})
        resp = HttpResponse(status=201, headers={"content-type": "application/json"},
                            body=b'{"ok": true}', url=req.url)
        FixtureStore(tmp_path).record(req, resp)
        replayed = FixtureStore(tmp_path).send(req)
        assert replayed == resp

    def test_missing_fixture_names_request(self, tmp_path):
        req = HttpRequest.get("https://missing.example")
        with pytest.raises(FixtureMissing, match="missing.example"):
            FixtureStore(tmp_path).send(req)

    @pytest.mark.parametrize("change", [
        lambda record: record.pop("response"),
        lambda record: record["response"].update(headers=["content-type"]),
        lambda record: record["response"].update(status="ok"),
    ], ids=["no-response", "headers-list", "status-word"])
    def test_malformed_record_is_malformed_input(self, tmp_path, change):
        req = HttpRequest.get("https://x.example")
        path = FixtureStore(tmp_path).record(req, HttpResponse(200, body=b"ok"))
        record = json.loads(path.read_text(encoding="utf-8"))
        change(record)
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(MalformedInput, match=path.name) as caught:
            FixtureStore(tmp_path).send(req)
        assert caught.value.exit_code == 3

    def test_cache_miss_writes_replayable_fixture(self, tmp_path):
        for url, body in [("https://record.example/text", b"<p>hi</p>"),
                          ("https://record.example/binary", b"\x89PNG\r\n\x1a\n\xff\x00")]:
            inner = CountingTransport(body=body)
            req = HttpRequest.get(url)
            live = FixtureStore(tmp_path, inner).send(req)
            assert inner.calls == 1
            replayed = FixtureStore(tmp_path).send(req)
            assert replayed == live
            assert replayed.body == body


class TestCachingTransport:
    """The fixture store caching ``http/`` through a live side."""

    def test_search_credentials_never_reach_the_cache(self, tmp_path):
        class SearchAdapter(requests.adapters.BaseAdapter):
            """Answers every request like the search API, echoing the final URL."""

            calls = 0

            def send(self, request, **kwargs):
                SearchAdapter.calls += 1
                resp = requests.Response()
                resp.status_code = 200
                resp.headers["Content-Type"] = "application/json"
                resp._content = b'{"items": [{"link": "https://hit.example", "title": "Hit"}]}'
                resp.url = request.url
                resp.request = request
                return resp

            def close(self):
                pass

        session = requests.Session()
        session.mount("https://", SearchAdapter())
        live = LiveTransport(session=session, retries=0)
        # as a --cache-dir run wires it: the search API's GET is read through http/
        first = GoogleSearchProvider(
            FixtureStore(tmp_path, live), api_key="secret-key-123", cx="engine-456"
        ).search("havel playwright", 1)
        assert first == ["https://hit.example"]
        # a run with other credentials hits the same record
        assert GoogleSearchProvider(
            FixtureStore(tmp_path, live), api_key="another-key", cx="another-cx"
        ).search("havel playwright", 1) == first
        assert SearchAdapter.calls == 1
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert [p.parent.name for p in files] == ["http"]
        record = json.loads(files[0].read_text())
        assert dict(record["request"]["params"]) == {
            "key": "<redacted>", "cx": "<redacted>", "q": "havel playwright", "num": "1"}
        assert record["response"]["url"] == GoogleSearchProvider.API_URL
        data = files[0].read_bytes()
        assert b"secret-key-123" not in data and b"engine-456" not in data

    def test_caches_successful_responses(self, tmp_path):
        inner = CountingTransport()
        caching = FixtureStore(tmp_path, inner)
        req = HttpRequest.get("https://cache.example")
        first = caching.send(req)
        second = caching.send(req)
        assert inner.calls == 1
        assert first == second

    def test_ttl_expiry_refetches(self, tmp_path):
        inner = CountingTransport()
        caching = FixtureStore(tmp_path, inner, ttl_seconds=0.01)
        req = HttpRequest.get("https://cache.example")
        caching.send(req)
        time.sleep(0.05)
        caching.send(req)
        assert inner.calls == 2

    def test_errors_not_cached(self, tmp_path):
        inner = CountingTransport(status=503)
        caching = FixtureStore(tmp_path, inner)
        req = HttpRequest.get("https://cache.example")
        caching.send(req)
        caching.send(req)
        assert inner.calls == 2
        # recorded all the same, so the run that saw the error replays
        assert FixtureStore(tmp_path).send(req).status == 503


def reply(status: int, body: bytes = b"{}", **headers: str) -> tuple:
    return status, headers, body


class ScriptedAdapter(requests.adapters.BaseAdapter):
    """Answers the n-th request with the n-th scripted reply, or raises it if
    it is an exception; the last repeats."""

    def __init__(self, *replies):
        super().__init__()
        self.replies = replies
        self.requests = []

    def send(self, request, **kwargs):
        self.requests.append((request.method, request.url))
        scripted = self.replies[min(len(self.requests), len(self.replies)) - 1]
        if isinstance(scripted, Exception):
            raise scripted
        status, headers, body = scripted
        resp = requests.Response()
        resp.status_code = status
        resp.headers.update({"Content-Type": "application/json", **headers})
        resp._content = body
        resp.url = request.url
        resp.request = request
        return resp

    def close(self):
        pass


def transport_over(adapter, **kwargs):
    """A LiveTransport over a session with ``adapter`` mounted; sleeps are recorded."""
    session = requests.Session()
    session.mount("https://", adapter)
    sleeps = []
    return LiveTransport(session=session, sleeper=sleeps.append, **kwargs), sleeps


def scripted_transport(*replies):
    """A LiveTransport over a session that answers from ``replies``."""
    adapter = ScriptedAdapter(*replies)
    transport, sleeps = transport_over(adapter)
    return transport, adapter, sleeps


class TestLiveTransportRetry:
    def test_retries_connection_errors_then_succeeds(self):
        transport, adapter, sleeps = scripted_transport(
            requests.ConnectionError("refused"), requests.ConnectionError("refused"),
            reply(200, b"ok"))
        resp = transport.send(HttpRequest.get("https://flaky.example"))
        assert resp.status == 200 and resp.body == b"ok"
        assert len(adapter.requests) == 3
        assert sleeps == [1.0, 2.0]

    def test_exhausted_retries_raise_unavailable(self):
        transport, _ = transport_over(ScriptedAdapter(requests.ConnectionError("refused")),
                                      retries=1)
        with pytest.raises(Unavailable, match="refused"):
            transport.send(HttpRequest.get("https://dead.example"))

    def test_5xx_retried_with_backoff(self):
        transport, adapter, sleeps = scripted_transport(reply(503), reply(503), reply(200, b"ok"))
        resp = transport.send(HttpRequest.get("https://busy.example/page"))
        assert (resp.status, resp.body) == (200, b"ok")
        assert len(adapter.requests) == 3
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize("retry_after, slept", [("3", 3.0), ("120", 8.0)])
    def test_429_honours_retry_after_up_to_the_cap(self, retry_after, slept):
        transport, adapter, sleeps = scripted_transport(
            reply(429, **{"Retry-After": retry_after}), reply(200))
        assert transport.send(HttpRequest.get("https://busy.example/page")).status == 200
        assert len(adapter.requests) == 2
        assert sleeps == [slept]

    @pytest.mark.parametrize("status", [404, 401])
    def test_client_errors_are_not_retried(self, status):
        transport, adapter, sleeps = scripted_transport(reply(status), reply(200))
        assert transport.send(HttpRequest.get("https://gone.example/page")).status == status
        assert len(adapter.requests) == 1
        assert sleeps == []

    def test_last_failing_response_is_returned(self):
        transport, adapter, sleeps = scripted_transport(reply(503, b"down"))
        resp = transport.send(HttpRequest.get("https://down.example/page"))
        assert (resp.status, resp.body) == (503, b"down")
        assert len(adapter.requests) == 3
        assert sleeps == [1.0, 2.0]

    def test_backoff_sleep_holds_no_gate_slot(self):
        """At gate width 1, another request completes while the first backs off."""
        adapter = ScriptedAdapter(reply(503), reply(200), reply(200))
        session = requests.Session()
        session.mount("https://", adapter)
        others = []

        def sleeper(seconds):
            other = threading.Thread(
                target=transport.send, args=(HttpRequest.get("https://other.example/b"),))
            other.start()
            other.join(timeout=2)
            others.append(other)

        transport = LiveTransport(session=session, gate=RequestGate(1), sleeper=sleeper)
        assert transport.send(HttpRequest.get("https://first.example/a")).status == 200
        others[0].join(timeout=5)
        assert not others[0].is_alive()
        assert adapter.requests == [("GET", "https://first.example/a"),
                                    ("GET", "https://other.example/b"),
                                    ("GET", "https://first.example/a")]

    # -- the clients' status mappings over the retrying transport -------------------

    def test_llm_5xx_retried_with_backoff_then_raises(self):
        transport, adapter, sleeps = scripted_transport(reply(503))
        gateway = LlmGateway(ReplicateHttpProvider(transport, api_token="token"))
        with pytest.raises(ProviderUnavailable, match="503"):
            gateway.complete("p")
        assert [method for method, _ in adapter.requests] == ["POST"] * 3
        assert sleeps == [1.0, 2.0]

    def test_llm_recovers_after_transient_failure(self):
        transport, adapter, sleeps = scripted_transport(
            reply(503), reply(201, b'{"output": ["recov", "ered"]}'))
        gateway = LlmGateway(ReplicateHttpProvider(transport, api_token="token"))
        assert gateway.complete("p").raw_text == "recovered"
        assert len(adapter.requests) == 2
        assert sleeps == [1.0]

    def test_llm_401_is_not_retried(self):
        transport, adapter, sleeps = scripted_transport(reply(401))
        gateway = LlmGateway(ReplicateHttpProvider(transport, api_token="token"))
        with pytest.raises(ProviderUnavailable, match="401"):
            gateway.complete("p")
        assert len(adapter.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("payload", [
        b'{"status": "starting", "output": null}', b'{"status": "processing"}',
        b'{"status": "failed", "output": ["partial"]}', b'{}',
    ], ids=["starting", "processing", "failed", "empty"])
    def test_llm_prediction_without_output_is_unavailable(self, payload):
        """A prediction that `Prefer: wait` gave up on, or that failed, is no
        answer: it raises, so a memo never keeps it."""
        transport, adapter, sleeps = scripted_transport(reply(201, payload))
        gateway = LlmGateway(ReplicateHttpProvider(transport, api_token="token"))
        with pytest.raises(ProviderUnavailable, match="no output"):
            gateway.complete("p")
        assert len(adapter.requests) == 1

    def test_search_429_then_200_returns_hits(self):
        transport, adapter, sleeps = scripted_transport(
            reply(429), reply(200, b'{"items": [{"link": "https://hit.example", "title": "Hit"}]}'))
        provider = GoogleSearchProvider(transport, api_key="key", cx="cx")
        assert provider.search("havel", 5) == ["https://hit.example"]
        assert len(adapter.requests) == 2
        assert sleeps == [1.0]

    def test_sparql_503_then_200_returns_rows(self):
        binding = {"prop": {"value": "http://www.wikidata.org/entity/P166"},
                   "object": {"type": "literal", "value": "Prize"},
                   "subjectLabel": {"value": "Havel"}}
        payload = json.dumps({"results": {"bindings": [binding]}}).encode("utf-8")
        transport, adapter, sleeps = scripted_transport(reply(503), reply(200, payload))
        rows = WikidataClient(transport).fetch_unsourced_statements(EntityId(36233))
        assert [row.predicate_id for row in rows] == ["P166"]
        assert len(adapter.requests) == 2
        assert sleeps == [1.0]


class KwargsAdapter(requests.adapters.BaseAdapter):
    """Records the proxies and CA bundle each request reaches it with."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        self.seen.append((request.url, proxies, verify))
        resp = requests.Response()
        resp.status_code, resp._content, resp.url, resp.request = 200, b"ok", request.url, request
        return resp

    def close(self):
        pass


class TestLiveTransportEnvironment:
    @pytest.mark.parametrize("with_bundle", [True, False], ids=["ca-bundle", "no-ca-bundle"])
    def test_adapter_gets_what_a_session_trusting_the_environment_gives(self, monkeypatch,
                                                                       tmp_path, with_bundle):
        """Proxies and the CA bundle are those a plain requests session reads from
        the environment on every request, for a proxied and a bypassed host."""
        bundle = tmp_path / "bundle.pem"
        monkeypatch.setenv("HTTPS_PROXY", "http://proxy.example:3128")
        monkeypatch.setenv("NO_PROXY", "bypassed.example")
        for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
        if with_bundle:
            monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(bundle))
        urls = ["https://proxied.example/a", "https://bypassed.example/b",
                "https://proxied.example/c"]
        reference, adapter = KwargsAdapter(), KwargsAdapter()
        plain = requests.Session()
        plain.mount("https://", reference)
        session = requests.Session()
        session.mount("https://", adapter)
        transport = LiveTransport(session=session)
        for url in urls:
            plain.request("GET", url, timeout=1)
            assert transport.send(HttpRequest.get(url)).status == 200
        assert adapter.seen == reference.seen
        proxied, bypassed, _ = adapter.seen
        assert proxied[1]["https"] == "http://proxy.example:3128"
        assert "https" not in bypassed[1]
        assert proxied[2] == bypassed[2] == (str(bundle) if with_bundle else True)


class RecordingAdapter(requests.adapters.BaseAdapter):
    """Records the wire form of each request."""

    def __init__(self):
        super().__init__()
        self.wire = []

    def send(self, request, **kwargs):
        self.wire.append((request.method, request.url, dict(request.headers), request.body))
        resp = requests.Response()
        resp.status_code, resp._content = 201, b'{"output": ["a"]}'
        resp.url, resp.request = request.url, request
        resp.headers["Content-Type"] = "application/json"
        return resp

    def close(self):
        pass


def asked_by_clients():
    """The search GET and the LLM POST, as their clients build them."""
    asked = []

    class Capture:
        def send(self, req):
            asked.append(req)
            return HttpResponse(200 if req.method == "GET" else 201,
                                {"content-type": "application/json"},
                                b'{"items": [], "output": ["a"]}', req.url)

    GoogleSearchProvider(Capture(), api_key="key", cx="cx").search("havel prize", 5)
    LlmGateway(ReplicateHttpProvider(Capture(), api_token="token")).complete("a prompt")
    return asked


class StreamingAdapter(requests.adapters.BaseAdapter):
    """Answers through a real urllib3 response that streams ``make_body()``,
    as ``HTTPAdapter`` does for a socket."""

    def __init__(self, make_body, **headers):
        super().__init__()
        self.make_body = make_body
        self.headers = headers
        self.requests = []
        self.bodies = []
        self._builder = requests.adapters.HTTPAdapter()

    def send(self, request, stream=False, **kwargs):
        assert stream
        self.requests.append((request.method, request.url))
        self.bodies.append(self.make_body())
        raw = urllib3.HTTPResponse(body=self.bodies[-1], headers=self.headers, status=200,
                                   preload_content=False, decode_content=False)
        return self._builder.build_response(request, raw)

    def close(self):
        self._builder.close()


class RedirectAdapter(requests.adapters.BaseAdapter):
    """Redirects each URL in ``hops`` to its Location (303 for a GET, 307
    otherwise) and answers any other URL with its page in ``pages``, or a
    short default page; each answer takes ``delay`` seconds."""

    def __init__(self, hops, pages=None, delay=0.0):
        super().__init__()
        self.hops = hops
        self.pages = pages or {}
        self.delay = delay
        self.requests = []
        self.timeouts = []

    def send(self, request, timeout=None, **kwargs):
        self.requests.append((request.method, request.url))
        self.timeouts.append(timeout)
        time.sleep(self.delay)
        resp = requests.Response()
        resp.url, resp.request = request.url, request
        resp.headers["Content-Type"] = "text/html"
        if request.url in self.hops:
            resp.status_code = 303 if request.method == "GET" else 307
            resp.headers["Location"] = self.hops[request.url]
            resp._content = b""
        else:
            resp.status_code = 200
            resp._content = self.pages.get(request.url, b"<p>arrived</p>")
        return resp

    def close(self):
        pass


class WireSocket:
    """A socket that has received ``data``, for ``http.client`` to parse."""

    def __init__(self, data: bytes):
        self._file = io.BytesIO(data)

    def makefile(self, mode):
        return self._file


class CookieCheckAdapter(requests.adapters.BaseAdapter):
    """A consent hop, parsed from the wire as ``HTTPAdapter`` parses a socket:
    ``/start`` sets a cookie and redirects to ``/check``, which answers a
    request carrying the cookie and sends any other back to ``/start``."""

    def __init__(self):
        super().__init__()
        self.cookies_sent = []
        self._builder = requests.adapters.HTTPAdapter()

    def send(self, request, **kwargs):
        self.cookies_sent.append((request.path_url, request.headers.get("Cookie")))
        if request.path_url == "/start":
            head = b"302 Found\r\nLocation: /check\r\nSet-Cookie: consent=yes; Path=/"
        elif request.headers.get("Cookie") != "consent=yes":
            head = b"302 Found\r\nLocation: /start"
        else:
            head = b"200 OK"
        body = b"" if head.startswith(b"302") else b"<p>consented</p>"
        original = http.client.HTTPResponse(WireSocket(
            b"HTTP/1.1 %s\r\nContent-Length: %d\r\n\r\n%s" % (head, len(body), body)))
        original.begin()
        raw = urllib3.HTTPResponse(body=original, headers=original.msg.items(),
                                   status=original.status, preload_content=False,
                                   original_response=original)
        return self._builder.build_response(request, raw)

    def close(self):
        self._builder.close()


class TrickleBody(io.BytesIO):
    """A body whose every read waits 10 ms and returns one byte."""

    reads = 0

    def read1(self, size=-1):
        self.reads += 1
        time.sleep(0.01)
        return super().read1(1)


class TestThinTransport:
    def test_the_adapter_gets_what_a_session_sends_less_cookies(self):
        """Method, URL, headers and body match a plain session's request, for the
        search GET and the LLM POST; the session's cookies are not sent."""
        reference, adapter = RecordingAdapter(), RecordingAdapter()
        plain = requests.Session()
        plain.mount("https://", reference)
        transport, _ = transport_over(adapter)
        for session in (plain, transport._session):
            session.cookies.set("visit", "1")
        for req in asked_by_clients():
            plain.request(req.method, req.url, params=dict(req.params) or None, data=req.body,
                          headers={"User-Agent": USER_AGENT, **dict(req.headers)}, timeout=1)
            transport.send(req)
        assert [method for method, *_ in adapter.wire] == ["GET", "POST"]
        assert "key=key" in adapter.wire[0][1] and adapter.wire[1][3].startswith(b"{")
        for (method, url, headers, body), sent in zip(reference.wire, adapter.wire):
            assert headers.pop("Cookie") == "visit=1"
            assert sent == (method, url, headers, body)
            assert list(sent[2]) == list(headers)  # in the same order, too

    def test_a_streamed_gzip_body_is_decoded(self):
        page = b"<p>" + b"bioluminescence " * 5000 + b"</p>"
        adapter = StreamingAdapter(lambda: io.BytesIO(gzip.compress(page)),
                                   **{"Content-Encoding": "gzip", "Content-Type": "text/html"})
        transport, sleeps = transport_over(adapter)
        resp = transport.send(HttpRequest.get("https://zipped.example/page"))
        assert (resp.status, resp.body, resp.url) == (200, page, "https://zipped.example/page")
        assert resp.content_type == "text/html"
        assert len(adapter.requests) == 1 and sleeps == []

    @pytest.mark.parametrize("start, hops, final", [
        ("https://en.wikipedia.org/wiki/Havel",
         {"https://en.wikipedia.org/wiki/Havel": "/wiki/V%C3%A1clav_Havel"},
         "https://en.wikipedia.org/wiki/V%C3%A1clav_Havel"),
        ("https://web.archive.org/web/2019/https://dead.example/a",
         {"https://web.archive.org/web/2019/https://dead.example/a":
          "https://web.archive.org/web/20190501200443/https://dead.example/a"},
         "https://web.archive.org/web/20190501200443/https://dead.example/a"),
        # a Location header in raw UTF-8, which http.client decodes as Latin-1
        ("https://en.wikipedia.org/wiki/Havel",
         {"https://en.wikipedia.org/wiki/Havel":
          "/wiki/Václav_Havel".encode("utf-8").decode("latin-1")},
         "https://en.wikipedia.org/wiki/V%C3%A1clav_Havel"),
    ], ids=["article", "archive-snapshot", "unquoted-utf8-location"])
    def test_a_get_follows_redirects_to_the_final_url(self, start, hops, final):
        adapter = RedirectAdapter(hops)
        transport, sleeps = transport_over(adapter)
        resp = transport.send(HttpRequest.get(start))
        assert (resp.status, resp.url, resp.body) == (200, final, b"<p>arrived</p>")
        assert adapter.requests == [("GET", start), ("GET", final)]
        assert sleeps == []

    def test_a_post_redirect_is_not_followed(self):
        adapter = RedirectAdapter({"https://llm.example/predictions": "/elsewhere"})
        transport, _ = transport_over(adapter)
        resp = transport.send(HttpRequest("POST", "https://llm.example/predictions", body=b"{}"))
        assert (resp.status, resp.headers["location"]) == (307, "/elsewhere")
        assert adapter.requests == [("POST", "https://llm.example/predictions")]

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-the-cap", "one-past"])
    def test_redirects_past_the_cap_are_unavailable(self, extra):
        """The cap is the session's, as many redirects as ``Session.request`` follows."""
        limit = requests.models.DEFAULT_REDIRECT_LIMIT
        chain = [f"https://loop.example/{i}" for i in range(limit + extra + 1)]
        adapter = RedirectAdapter(dict(zip(chain, chain[1:])))
        transport, sleeps = transport_over(adapter)
        assert transport._session.max_redirects == limit
        if extra:
            with pytest.raises(Unavailable, match=f"more than {limit} redirects"):
                transport.send(HttpRequest.get(chain[0]))
            assert len(adapter.requests) == limit + 1
        else:
            assert transport.send(HttpRequest.get(chain[0])).url == chain[-1]
        assert sleeps == []

    def test_a_cookie_set_by_a_redirect_is_sent_on_its_chain_only(self):
        adapter = CookieCheckAdapter()
        transport, sleeps = transport_over(adapter)
        for _ in range(2):
            resp = transport.send(HttpRequest.get("https://consent.example/start"))
            assert (resp.status, resp.body) == (200, b"<p>consented</p>")
            assert resp.url == "https://consent.example/check"
        # the second chain starts without the first one's cookie
        assert adapter.cookies_sent == [("/start", None), ("/check", "consent=yes")] * 2
        assert len(transport._session.cookies) == 0 and sleeps == []

    @pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "set-by-adapter"])
    def test_an_oversize_body_is_unavailable_without_a_retry(self, monkeypatch, streamed):
        monkeypatch.setattr(net, "MAX_BODY_BYTES", 1000)
        body = b"x" * 1001
        if streamed:
            adapter = StreamingAdapter(lambda: io.BytesIO(body))
        else:
            adapter = ScriptedAdapter(reply(200, body))
        transport, sleeps = transport_over(adapter)
        with pytest.raises(Unavailable, match="over 1000 bytes"):
            transport.send(HttpRequest.get("https://huge.example/page"))
        assert len(adapter.requests) == 1
        assert sleeps == []
        monkeypatch.setattr(net, "MAX_BODY_BYTES", 1001)
        assert transport.send(HttpRequest.get("https://huge.example/page")).body == body

    def test_an_oversize_page_is_a_skip_of_the_verify_run(self, monkeypatch):
        monkeypatch.setattr(net, "MAX_BODY_BYTES", 1000)
        huge, small = "https://huge.example/page", "https://small.example/page"
        adapter = RedirectAdapter({}, pages={huge: b"<p>" + b"x" * 1000})
        transport, sleeps = transport_over(adapter)

        class TwoHits:
            def search(self, query, limit):
                return [huge, small]

        verifier = Verifier(gateway=LlmGateway(ScriptedProvider([])),
                            fetcher=DocumentFetcher(transport), search_provider=TwoHits())
        session = verifier.verify_via_web_search(
            Statement("Václav Havel", "award received", "Prize"), hit_limit=2)
        oversize, fetched = session.documents
        assert (oversize.url, oversize.skip.kind) == (huge, "unavailable")
        assert "over 1000 bytes" in oversize.skip.detail
        assert (fetched.url, fetched.skip) == (small, None)
        assert adapter.requests == [("GET", huge), ("GET", small)]
        assert session.traces == [] and sleeps == []

    def test_a_trickling_body_meets_the_deadline_and_is_retried(self):
        adapter = StreamingAdapter(lambda: TrickleBody(b"x" * 20))
        transport, sleeps = transport_over(adapter, total_timeout=0.05, retries=1)
        with pytest.raises(Unavailable, match="deadline"):
            transport.send(HttpRequest.get("https://slow.example/page"))
        assert len(adapter.requests) == 2 and sleeps == [1.0]
        assert all(body.reads < 20 for body in adapter.bodies)  # neither was read to its end

    def test_a_slow_redirect_chain_meets_the_deadline_and_is_retried(self):
        """Each hop gets the time left as its timeouts, and no hop is sent once
        the deadline has passed, whatever its body."""
        chain = [f"https://slow.example/{i}" for i in range(20)]
        adapter = RedirectAdapter(dict(zip(chain, chain[1:])), delay=0.02)
        transport, sleeps = transport_over(adapter, total_timeout=0.1, retries=1)
        with pytest.raises(Unavailable, match="deadline"):
            transport.send(HttpRequest.get(chain[0]))
        assert sleeps == [1.0]
        second = adapter.requests.index(("GET", chain[0]), 1)
        for hops, timeouts in ((adapter.requests[:second], adapter.timeouts[:second]),
                               (adapter.requests[second:], adapter.timeouts[second:])):
            assert hops == [("GET", url) for url in chain[:len(hops)]]
            assert 2 <= len(hops) <= 6  # 5 hops of 20 ms fit in 100 ms
            assert all(connect == read <= 0.1 for connect, read in timeouts)
            reads = [read for _, read in timeouts]
            assert reads == sorted(reads, reverse=True)

    def test_no_hop_is_sent_once_the_deadline_has_passed(self, monkeypatch):
        """A hop that arrives at the deadline's instant is read, but the
        redirect it names is not asked: no time is left for it."""
        now = [0.0]
        monkeypatch.setattr(net, "time", types.SimpleNamespace(monotonic=lambda: now[0]))

        class AtTheDeadline(RedirectAdapter):
            def send(self, request, **kwargs):
                now[0] = 1.0  # the attempt's deadline, as total_timeout is 1 s
                return super().send(request, **kwargs)

        adapter = AtTheDeadline({"https://slow.example/0": "https://slow.example/1"})
        transport, sleeps = transport_over(adapter, total_timeout=1.0, retries=0)
        with pytest.raises(Unavailable, match="deadline"):
            transport.send(HttpRequest.get("https://slow.example/0"))
        assert adapter.requests == [("GET", "https://slow.example/0")] and sleeps == []

    @pytest.mark.parametrize("body", [None, b""], ids=["none", "empty"])
    def test_a_post_without_a_body_sends_a_zero_length(self, body):
        """As ``requests`` prepares a POST without a body."""
        adapter = RecordingAdapter()
        transport, _ = transport_over(adapter)
        transport.send(HttpRequest("POST", "https://llm.example/predictions", body=body))
        [(method, _, headers, sent)] = adapter.wire
        expected = requests.Request("POST", "https://llm.example/predictions").prepare()
        assert (method, sent) == ("POST", expected.body)
        assert headers["Content-Length"] == expected.headers["Content-Length"] == "0"

    def test_a_body_cut_short_is_retried(self):
        adapter = StreamingAdapter(lambda: io.BytesIO(b"cut"), **{"Content-Length": "10"})
        transport, sleeps = transport_over(adapter, retries=1)
        with pytest.raises(Unavailable, match="IncompleteRead"):
            transport.send(HttpRequest.get("https://short.example/page"))
        assert len(adapter.requests) == 2 and sleeps == [1.0]



class WireCookieCheckAdapter(CookieCheckAdapter):
    """The consent hop, recording the wire form of each request."""

    def __init__(self):
        super().__init__()
        self.wire = []

    def send(self, request, **kwargs):
        self.wire.append((request.method, request.url, list(request.headers.items()),
                          request.body))
        return super().send(request, **kwargs)


class TestRequestTemplates:
    """A request shape is prepared once and copied for each attempt."""

    def test_a_redirect_cookie_stays_off_the_next_request_of_its_shape(self):
        adapter = WireCookieCheckAdapter()
        transport, _ = transport_over(adapter)
        start = "https://consent.example/start"
        for _ in range(2):
            assert transport.send(HttpRequest.get(start)).body == b"<p>consented</p>"
        first_chain, second_chain = adapter.wire[:2], adapter.wire[2:]
        assert second_chain == first_chain
        method, url, headers, _ = second_chain[0]
        assert (method, url) == ("GET", start) and "Cookie" not in dict(headers)
        template, _ = transport._template("GET", start, (), ())
        assert template.url == start and "Cookie" not in template.headers

    def test_more_shapes_than_the_memo_keeps_leave_it_at_its_bound(self):
        transport, adapter, _ = scripted_transport(reply(200, b"ok"))
        post = asked_by_clients()[1]
        for i in range(net._TEMPLATES + 10):
            transport.send(HttpRequest.get(f"https://pages.example/{i}"))
            transport.send(post)
        memo = transport._template.cache_info()
        assert memo.currsize == memo.maxsize == net._TEMPLATES
        # every completion after the first is prepared from the memo
        assert memo.misses == net._TEMPLATES + 10 + 1
        assert len(adapter.requests) == 2 * (net._TEMPLATES + 10)

    def test_stress_one_shape_from_many_threads_prepares_identical_requests(self):
        """More threads than cores, with frequent thread switches: each request
        of one shape reaches the adapter as a transport of its own sends it."""
        post = asked_by_clients()[1]
        posts = [dataclasses.replace(post, body=post.body.replace(
            b"a prompt", f"prompt {thread}-{i}".encode())) for thread in range(8)
            for i in range(50)]
        expected = RecordingAdapter()
        for req in posts:
            transport_over(expected)[0].send(req)
        adapter = RecordingAdapter()
        transport, _ = transport_over(adapter)

        def send(reqs):
            for req in reqs:
                transport.send(req)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=send, args=(posts[i::8],), daemon=True)
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        def in_order(wire):  # headers in their order, requests by body
            return sorted(((method, url, list(headers.items()), body)
                           for method, url, headers, body in wire), key=lambda sent: sent[3])

        assert in_order(adapter.wire) == in_order(expected.wire)
        assert len({body for *_, body in adapter.wire}) == len(posts)


class WireServer:
    """A loopback HTTP/1.1 server for the live transport. Each request, on
    whichever connection, gets the next of ``responses``: bytes to send, or a
    function that writes to the connection itself. ``connections`` counts the
    connections it accepted, and ``requests`` holds each request's head."""

    def __init__(self):
        self.responses: list = []
        self.connections = 0
        self.requests: list[bytes] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)  # the accept loop looks for close() this often
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._closed = threading.Event()
        self._accepted: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._acceptor = threading.Thread(target=self._accept)
        self._acceptor.start()

    def _accept(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(None)
            self.connections += 1
            self._accepted.append(conn)
            thread = threading.Thread(target=self._serve, args=(conn,))
            thread.start()
            self._threads.append(thread)

    def _serve(self, conn: socket.socket) -> None:
        with conn:
            pending = b""
            while True:
                try:
                    while b"\r\n\r\n" not in pending:  # a GET has no body
                        data = conn.recv(65536)
                        if not data:  # the client closed the connection
                            return
                        pending += data
                    head, pending = pending.split(b"\r\n\r\n", 1)
                    self.requests.append(head)
                    response = self.responses.pop(0)
                    if callable(response):
                        response(conn)
                    else:
                        conn.sendall(response)
                except OSError:  # the client has gone
                    return

    def close(self) -> None:
        self._closed.set()
        self._acceptor.join(10.0)
        for conn in self._accepted:  # ends a wait for a request that will not come
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        for thread in self._threads:
            thread.join(10.0)
        self._listener.close()
        assert not any(t.is_alive() for t in [self._acceptor, *self._threads])


def html_response(body: bytes, status: bytes = b"200 OK", **headers: str) -> bytes:
    lines = b"".join(b"%s: %s\r\n" % (name.replace("_", "-").encode(), value.encode())
                     for name, value in headers.items())
    return (b"HTTP/1.1 %s\r\nContent-Type: text/html\r\n%sContent-Length: %d\r\n\r\n%s"
            % (status, lines, len(body), body))


def redirect(location: str, **headers: str) -> bytes:
    return html_response(b"", b"302 Found", Location=location, **headers)


@pytest.fixture
def wire_server(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = WireServer()
    try:
        yield server
    finally:
        server.close()


class TestOnTheWire:
    """The live transport against a server on the loopback interface."""

    def test_a_trickle_then_a_stall_ends_at_the_attempt_deadline(self, wire_server):
        """Headers at once, one body byte at 1.9 s, then nothing: the attempt
        ends at its 2 s deadline, not a read timeout after that byte."""
        given_up = threading.Event()

        def trickle(conn):
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                         b"Content-Length: 10\r\n\r\n")
            if not given_up.wait(1.9):
                conn.sendall(b"<")
            given_up.wait(10.0)  # stall until the client gives up

        wire_server.responses = [trickle]
        with requests.Session() as session:
            transport = LiveTransport(total_timeout=2.0, retries=0, session=session)
            started = time.monotonic()
            try:
                with pytest.raises(Unavailable):
                    transport.send(HttpRequest.get(f"{wire_server.url}/trickle"))
                elapsed = time.monotonic() - started
            finally:
                given_up.set()
        assert elapsed < 2.0 + 0.25, elapsed

    def test_sequential_gets_share_one_connection(self, wire_server):
        bodies = [b"<p>%d</p>" % n for n in range(3)]
        wire_server.responses = [html_response(body) for body in bodies]
        with requests.Session() as session:
            transport = LiveTransport(retries=0, session=session)
            got = [transport.send(HttpRequest.get(f"{wire_server.url}/{n}")).body
                   for n in range(3)]
        assert got == bodies
        assert wire_server.connections == 1

    def test_a_body_left_unread_is_not_read_by_the_next_request(self, wire_server,
                                                                 monkeypatch):
        """A body over the cap is left mostly unread, so its connection is
        closed: the next GET opens another and gets its own body."""
        monkeypatch.setattr(net, "MAX_BODY_BYTES", 1000)
        wire_server.responses = [html_response(b"x" * 300_000), html_response(b"<p>next</p>")]
        with requests.Session() as session:
            transport = LiveTransport(retries=0, session=session)
            with pytest.raises(Unavailable, match="body over 1000 bytes"):
                transport.send(HttpRequest.get(f"{wire_server.url}/large"))
            assert transport.send(HttpRequest.get(f"{wire_server.url}/next")).body == (
                b"<p>next</p>")
        assert wire_server.connections == 2

    def test_a_gzip_body_is_decoded(self, wire_server):
        page = b"<p>" + b"bioluminescence " * 5000 + b"</p>"
        wire_server.responses = [html_response(gzip.compress(page), Content_Encoding="gzip")]
        with requests.Session() as session:
            transport = LiveTransport(retries=0, session=session)
            resp = transport.send(HttpRequest.get(f"{wire_server.url}/zipped"))
        assert (resp.status, resp.body) == (200, page)
        assert b"accept-encoding: gzip" in wire_server.requests[0].lower()

    def test_the_redirect_cap_and_a_cookie_on_one_chain_only(self, wire_server):
        """The first chain sets a cookie on its first hop and ends after 30
        redirects, at the cap; the second, one hop longer, is unavailable and
        never sends the first chain's cookie."""
        hops = [f"/hop/{n}" for n in range(32)]
        wire_server.responses = [
            redirect(hops[1], Set_Cookie="chain=first; Path=/"),
            *(redirect(hop) for hop in hops[2:31]), html_response(b"<p>arrived</p>"),
            *(redirect(hop) for hop in hops[1:32]),
        ]
        with requests.Session() as session:
            transport = LiveTransport(retries=0, session=session)
            resp = transport.send(HttpRequest.get(wire_server.url + hops[0]))
            assert (resp.status, resp.body, resp.url) == (
                200, b"<p>arrived</p>", wire_server.url + hops[30])
            with pytest.raises(Unavailable, match="more than 30 redirects"):
                transport.send(HttpRequest.get(wire_server.url + hops[0]))
        assert len(wire_server.requests) == 31 + 31
        paths = [head.split(b" ")[1].decode() for head in wire_server.requests]
        assert paths == hops[:31] * 2
        cookies = [b"cookie: chain=first" in head.lower() for head in wire_server.requests]
        assert cookies == [False] + [True] * 30 + [False] * 31

    def test_a_429_waits_its_retry_after(self, wire_server):
        wire_server.responses = [html_response(b"slow down", b"429 Too Many Requests",
                                               Retry_After="3"),
                                 html_response(b"<p>served</p>")]
        sleeps = []
        with requests.Session() as session:
            transport = LiveTransport(retries=1, session=session, sleeper=sleeps.append)
            resp = transport.send(HttpRequest.get(f"{wire_server.url}/busy"))
        assert (resp.status, resp.body) == (200, b"<p>served</p>")
        assert sleeps == [3.0] and len(wire_server.requests) == 2

    @pytest.mark.parametrize("offset_s, slept", [(3600, 8.0), (-3600, 0.0)],
                             ids=["future", "past"])
    @pytest.mark.parametrize("form", ["imf-fixdate", "asctime"])
    def test_a_503_waits_its_retry_after_date(self, wire_server, offset_s, slept, form):
        """An HTTP-date ``Retry-After`` waits until that date, capped at 8 s;
        a date in the past waits 0 s. Each of the two retries waits so."""
        when = datetime.now(timezone.utc) + timedelta(seconds=offset_s)
        date = (email.utils.format_datetime(when, usegmt=True) if form == "imf-fixdate"
                else time.asctime(when.utctimetuple()))
        busy = html_response(b"busy", b"503 Service Unavailable", Retry_After=date)
        wire_server.responses = [busy, busy, html_response(b"<p>served</p>")]
        sleeps = []
        with requests.Session() as session:
            transport = LiveTransport(retries=2, session=session, sleeper=sleeps.append)
            resp = transport.send(HttpRequest.get(f"{wire_server.url}/busy"))
        assert (resp.status, resp.body) == (200, b"<p>served</p>")
        assert sleeps == [slept, slept] and len(wire_server.requests) == 3

    def test_a_refused_connection_is_retried_then_unavailable(self, wire_server):
        """A port on which nothing listens refuses each attempt: two retries
        after backing off 1 and 2 s, then ``Unavailable``."""
        sleeps = []
        with socket.socket() as closed, requests.Session() as session:
            closed.bind(("127.0.0.1", 0))  # held, so that no other socket takes the port
            url = "http://127.0.0.1:%d/refused" % closed.getsockname()[1]
            transport = LiveTransport(retries=2, session=session, sleeper=sleeps.append)
            with pytest.raises(Unavailable, match=f"GET {url}: .*[Rr]efused"):
                transport.send(HttpRequest.get(url))
        assert sleeps == [1.0, 2.0]
        assert wire_server.connections == 0


class TestRequestGate:
    def test_bounds_in_flight_requests(self):
        gate = RequestGate(2)
        active = 0
        peak = 0
        lock = threading.Lock()

        def worker():
            nonlocal active, peak
            with gate:
                with lock:
                    active += 1
                    peak = max(peak, active)
                time.sleep(0.01)
                with lock:
                    active -= 1

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak <= 2

    def test_stress_counts_stay_exact(self):
        """More threads than cores, with frequent thread switches: the bound
        holds, and once every request has left, every slot is free."""
        gate = RequestGate(3)
        lock = threading.Lock()
        seen = {"active": 0, "peak": 0}

        def worker():
            for _ in range(200):
                with gate:
                    with lock:
                        seen["active"] += 1
                        seen["peak"] = max(seen["peak"], seen["active"])
                    with lock:
                        seen["active"] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, daemon=True) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert seen["peak"] <= 3

        def take_slot() -> bool:
            try:
                gate._slots.get(block=False)
            except queue.Empty:
                return False
            return True

        # every slot was given back: all three can be taken without blocking, a fourth not
        assert [take_slot() for _ in range(4)] == [True] * 3 + [False]


def answer(status, body=b"ok"):
    return HttpResponse(status=status, headers={"content-type": "text/plain"}, body=body)


class TestSingleFlight:
    def test_concurrent_callers_compute_once(self):
        inner = GatedTransport(answer(200, b"shared"))
        memo = SingleFlight()
        req = HttpRequest.get("https://x.example")
        results = ask_in_flight(lambda: memo.get("key", lambda: inner.send(req)), inner)
        assert inner.calls == 1
        assert results == [answer(200, b"shared")] * 8

    def test_an_error_reaches_every_waiting_caller_and_a_later_caller_computes_again(self):
        failure = Unavailable("reset")
        inner = GatedTransport(failure, answer(200, b"later"))
        memo = SingleFlight()
        req = HttpRequest.get("https://flaky.example")
        results = ask_in_flight(lambda: memo.get("key", lambda: inner.send(req)), inner)
        assert inner.calls == 1
        assert all(result is failure for result in results)
        assert memo.get("key", lambda: inner.send(req)) == answer(200, b"later")
        assert memo.get("key", lambda: inner.send(req)) == answer(200, b"later")
        assert inner.calls == 2

    def test_a_waiter_that_arrives_as_the_owner_stores_its_value_gets_it(self):
        """The owner has computed its value and is about to store it when a
        second caller asks: that caller waits, and gets the stored value."""
        memo = SingleFlight()
        lock, owner, entered, got = memo._lock, threading.current_thread(), [], []
        waiter = threading.Thread(target=lambda: got.append(memo.get("key", lambda: "again")),
                                  daemon=True)

        class StoreHook:
            """The memo's lock; a waiter comes as the owner takes it to store."""

            def __enter__(self):
                if threading.current_thread() is owner:
                    entered.append(None)
                    if len(entered) == 2:  # the owner's store, after its lookup
                        waiter.start()
                        await_thread_blocked_in("get", any_thread=True)
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)

        memo._lock = StoreHook()
        assert memo.get("key", lambda: "value") == "value"
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert got == ["value"]

    def test_an_owner_that_fails_after_a_waiter_arrived_fails_the_waiter_too(self):
        memo = SingleFlight()
        failure = Unavailable("reset")
        waited = []

        def wait():
            try:
                memo.get("key", lambda: "computed by the waiter")
            except Unavailable as exc:
                waited.append(exc)

        waiter = threading.Thread(target=wait)

        def fail_once_waited_on():
            waiter.start()
            await_thread_blocked_in("get", any_thread=True)
            raise failure

        with pytest.raises(Unavailable) as caught:
            memo.get("key", fail_once_waited_on)
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert caught.value is failure and waited == [failure]
        assert memo.get("key", lambda: "again") == "again"

    def test_a_none_value_is_computed_once(self):
        memo = SingleFlight()
        calls = []
        for _ in range(3):
            assert memo.get("key", lambda: calls.append("computed")) is None
        assert calls == ["computed"]


class TestRequestMemo:
    """The ``--cache-dir`` store as a run's per-request memo: it keys each
    response by ``request_fingerprint``, so a repeated request is answered from
    disk and a request that differs in any part the fingerprint covers is asked."""

    def test_requests_differing_only_in_body_are_distinct(self, tmp_path):
        inner = CountingTransport()
        memo = FixtureStore(tmp_path, inner)
        first = HttpRequest("POST", "https://llm.example/predictions", body=b'{"prompt": "a"}')
        second = HttpRequest("POST", "https://llm.example/predictions", body=b'{"prompt": "b"}')
        for req in (first, second, first, second):
            memo.send(req)
        assert inner.calls == 2

    def test_requests_differing_in_params_or_method_are_distinct(self, tmp_path):
        inner = CountingTransport()
        memo = FixtureStore(tmp_path, inner)
        for req in (HttpRequest.get("https://x.example", params={"q": "1"}),
                    HttpRequest.get("https://x.example", params={"q": "2"}),
                    HttpRequest("POST", "https://x.example", body=b""),
                    HttpRequest.get("https://x.example", params={"q": "1"})):
            memo.send(req)
        assert inner.calls == 3
