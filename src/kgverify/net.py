"""HTTP transport and the record format of recorded responses.

Every outbound request is described by a canonical fingerprint so a live
response can be recorded once and replayed forever (``kgverify.store`` keeps
the records). Replay mode builds no live transport at all, which makes "no
network access" a structural property rather than a convention; nor does it
import ``requests`` or ``urllib3``, which the first ``LiveTransport`` imports.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import os
import queue
import secrets
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Generic, Hashable, Protocol, TypeVar
from urllib.parse import urlencode, urljoin, urlsplit

from .errors import Unavailable, json_value

DEFAULT_CONNECT_TIMEOUT = 15.0
# One attempt's deadline, from sending the request to the body's last byte, its
# redirects included. No connection or read waits longer than the time left.
DEFAULT_TOTAL_TIMEOUT = 30.0
DEFAULT_RETRIES = 2
# How many requests a run has in flight at once, unless configured otherwise.
DEFAULT_REQUESTS_IN_FLIGHT = 4
MAX_BACKOFF_SECONDS = 8.0
# A longer (decoded) body is not read to its end: the request raises Unavailable.
MAX_BODY_BYTES = 16 * 2**20
_READ_BYTES = 64 * 1024
# Request shapes whose prepared template a LiveTransport keeps, the most recently
# sent: every completion has the same shape, a page GET mostly its own.
_TEMPLATES = 64
USER_AGENT = "kgverify/0.1 (statement verification pipeline)"

_Value = TypeVar("_Value")
_ABSENT = object()  # a SingleFlight key with no value yet


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@dataclass(frozen=True)
class HttpRequest:
    method: str
    url: str
    params: tuple[tuple[str, str], ...] = ()
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes | None = None

    @classmethod
    def get(cls, url: str, params: dict | None = None, headers: dict | None = None) -> "HttpRequest":
        return cls(
            method="GET",
            url=url,
            params=tuple(sorted((params or {}).items())),
            headers=tuple(sorted((headers or {}).items())),
        )


@dataclass(frozen=True)
class HttpResponse:
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    url: str = ""

    @property
    def content_type(self) -> str:
        return self.headers.get("content-type", "").split(";")[0].strip().lower()

    @property
    def charset(self) -> str:
        for part in self.headers.get("content-type", "").split(";")[1:]:
            key, _, value = part.partition("=")
            if key.strip().lower() == "charset" and value.strip():
                return value.strip()
        return "utf-8"

    @property
    def text(self) -> str:
        try:
            return self.body.decode(self.charset, errors="replace")
        except LookupError:  # server advertised a bogus charset
            return self.body.decode("utf-8", errors="replace")

    def json(self):
        return json_value(self.body.decode("utf-8"))


# Query parameters that carry credentials (the search API's key and engine id).
# A request's fingerprint leaves them out, so replay needs no credentials and a
# record answers whatever credentials a run has; records keep their names only.
CREDENTIAL_PARAMS = frozenset({"key", "cx"})


def request_fingerprint(req: HttpRequest) -> str:
    """Stable identity for a request: method, url, params less credentials, and body."""
    descriptor = {
        "method": req.method.upper(),
        "url": req.url,
        "params": [param for param in req.params if param[0] not in CREDENTIAL_PARAMS],
        "body": base64.b64encode(req.body).decode("ascii") if req.body else None,
    }
    return hashlib.sha256(canonical_json(descriptor).encode("utf-8")).hexdigest()[:24]


class Transport(Protocol):
    def send(self, req: HttpRequest) -> HttpResponse: ...


class RequestGate:
    """Bounds the number of in-flight requests sharing this gate.

    Its free slots are items of a C ``queue.SimpleQueue``: taking and giving
    one back runs no Python code, where a semaphore runs a ``Condition``."""

    def __init__(self, max_in_flight: int):
        self._slots: queue.SimpleQueue[None] = queue.SimpleQueue()
        for _ in range(max_in_flight):
            self._slots.put(None)

    def __enter__(self):
        self._slots.get()
        return self

    def __exit__(self, *exc):
        self._slots.put(None)
        return False


class _InFlight:
    """A SingleFlight key's value while it is computed."""

    waiters: Future | None = None  # made by the first caller that waits


class SingleFlight(Generic[_Value]):
    """Computes each key's value once: a single-flight memo.

    A caller that asks for a key already in flight waits for that value,
    holding nothing else. A value, None too, is kept for the memo's life; a
    raised error reaches the callers already waiting and is then dropped, so
    a later caller computes it again.
    """

    def __init__(self):
        self._values: dict[Hashable, _Value | _InFlight] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], _Value]) -> _Value:
        with self._lock:
            value = self._values.get(key, _ABSENT)
            if value is _ABSENT:
                flight = self._values[key] = _InFlight()
            elif type(value) is _InFlight:
                if value.waiters is None:
                    value.waiters = Future()
                value = value.waiters
        if value is not _ABSENT:  # kept, or in flight: wait for the caller computing it
            return value.result() if type(value) is Future else value
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                del self._values[key]
            if flight.waiters is not None:
                flight.waiters.set_exception(exc)
            raise
        with self._lock:
            self._values[key] = value
        if flight.waiters is not None:
            flight.waiters.set_result(value)
        return value


# Imported by the first LiveTransport (``_import_live``): a replay, ``report`` and
# ``build-dataset`` never pay for them.
requests = urllib3 = None
# What an attempt raises when the remote could not be reached or did not answer
# in time: requests' errors from the adapter, and urllib3's from reading a body.
_TRANSIENT: tuple[type[BaseException], ...] = ()


def _import_live() -> None:
    """Import ``requests`` and ``urllib3``, and name their transient errors."""
    global requests, urllib3, _TRANSIENT
    import requests
    import urllib3

    _TRANSIENT = (requests.RequestException, urllib3.exceptions.HTTPError)


def _retry_delay(retry_after: str, attempt: int) -> float:
    """Seconds to wait for a ``Retry-After`` value (delay-seconds or an
    HTTP-date; a date in the past is 0), or ``2**attempt`` without a valid one."""
    if retry_after.isdecimal():
        return float(retry_after)
    import email.utils  # only an HTTP-date needs it: kept off the start-up path

    try:
        when = email.utils.parsedate_to_datetime(retry_after)
    except (TypeError, ValueError):
        return 2.0**attempt
    if when.tzinfo is None:  # the asctime form names no zone: an HTTP-date is in UTC
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class LiveTransport:
    """Sends requests through a ``requests`` session's mounted adapters, with
    bounded concurrency: the one retry policy.

    A connection error, a read timeout, an HTTP 429 or an HTTP 5xx is
    retried, ``retries`` times at most, after ``min(2**attempt, 8)`` seconds or
    after the response's ``Retry-After`` (RFC 9110 §10.2.3): a number of
    seconds, or an HTTP-date less now and at least 0, also capped at 8 s. The
    sleep holds no gate slot. After the last attempt a failing status is
    returned for the caller to map, and a connection error or timeout raises
    ``Unavailable``. A body over ``MAX_BODY_BYTES``, or a GET redirected more
    than the session's ``max_redirects`` times, raises ``Unavailable`` at
    once: asking again would get the same answer.

    Each request is prepared here and handed to the adapter the session has
    mounted for its URL, so none of the session's per-request machinery runs:
    the session's cookie jar is neither read nor filled, and no hooks or auth
    apply. An attempt, its redirects included, has a total deadline of
    ``total_timeout``. A request's method, URL and headers are prepared once
    per shape (method, URL, params and headers) and kept for the
    ``_TEMPLATES`` shapes sent last, so the session's headers are those it
    had when the shape was first sent. A GET without a body sends its
    template as it is; any other request sends a copy that carries its body.

    The environment is read once, not on every request as a ``requests``
    session trusting it would: proxies (``HTTPS_PROXY``, ``NO_PROXY``, ...)
    once per scheme and host, the CA bundle (``REQUESTS_CA_BUNDLE``, then
    ``CURL_CA_BUNDLE``) at construction. ``~/.netrc`` is not read, and a
    redirect keeps the proxies of the URL first asked.
    """

    def __init__(
        self,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        total_timeout: float = DEFAULT_TOTAL_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        gate: RequestGate | None = None,
        session: requests.Session | None = None,
        sleeper=time.sleep,
    ):
        _import_live()
        self._connect_timeout = connect_timeout
        self._total_timeout = total_timeout
        self._retries = retries
        self._gate = gate or RequestGate(DEFAULT_REQUESTS_IN_FLIGHT)
        self._session = session or requests.Session()
        self._verify = (os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
                        or self._session.verify)
        self._proxies: dict[tuple[str, str], dict[str, str]] = {}
        self._template = functools.lru_cache(maxsize=_TEMPLATES)(self._prepare_template)
        self._sleep = sleeper

    def send(self, req: HttpRequest) -> HttpResponse:
        for attempt in range(self._retries):
            try:
                resp = self._attempt(req)
            except _TRANSIENT:
                retry_after = ""
            else:
                if resp.status != 429 and resp.status < 500:
                    return resp
                retry_after = resp.headers.get("retry-after", "").strip()
            self._sleep(min(_retry_delay(retry_after, attempt), MAX_BACKOFF_SECONDS))
        try:
            return self._attempt(req)
        except _TRANSIENT as exc:
            raise Unavailable(f"{req.method} {req.url}: {exc}") from exc

    def _proxies_for(self, url: str) -> dict[str, str]:
        """The environment's proxies for ``url``, resolved once per scheme and host."""
        origin = urlsplit(url)[:2]  # the host with its port, which NO_PROXY may name
        proxies = self._proxies.get(origin)
        if proxies is None:
            proxies = self._proxies[origin] = requests.utils.get_environ_proxies(url)
        return proxies

    def _prepare_template(self, method: str, url: str, params: tuple[tuple[str, str], ...],
                          headers: tuple[tuple[str, str], ...],
                          ) -> tuple[requests.PreparedRequest, dict[str, str]]:
        """A request shape's prepared method, URL and headers, and its URL's proxies."""
        template = requests.PreparedRequest()
        template.prepare_method(method)
        # encoded here, as requests would encode them: its own encoder costs
        # more than the rest of the request's preparation
        template.prepare_url(url, urlencode(params))
        template.prepare_headers(
            {**self._session.headers, "User-Agent": USER_AGENT, **dict(headers)})
        return template, self._proxies_for(url)

    def _attempt(self, req: HttpRequest) -> HttpResponse:
        """One attempt, holding a gate slot; a GET follows its redirects.

        A connection error or a timeout raises one of ``_TRANSIENT``, an
        oversize body or a redirect past the cap ``Unavailable``. A cookie set
        by a redirect is sent on the rest of its chain, as a session would send
        it, and then forgotten.
        """
        template, proxies = self._template(req.method, req.url, req.params, req.headers)
        if req.body is None and req.method == "GET":
            prepared = template  # the adapter only reads it, and a redirect changes a copy
        else:
            prepared = _with_body(template, req.body)
        redirects = self._session.max_redirects
        jar = None
        with self._gate:
            deadline = time.monotonic() + self._total_timeout
            for _ in range(redirects + 1):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise _overdue()
                timeout = (min(self._connect_timeout, remaining), remaining)
                resp = self._session.get_adapter(prepared.url).send(
                    prepared, stream=True, timeout=timeout, proxies=proxies, verify=self._verify,
                    cert=None)
                body = _read_body(resp, deadline, f"{req.method} {req.url}")
                location = self._session.get_redirect_target(resp) if req.method == "GET" else None
                if location is None:
                    return HttpResponse(
                        status=resp.status_code,
                        headers=dict(resp.headers.lower_items()),
                        body=body,
                        url=str(resp.url),
                    )
                if jar is None:
                    jar = requests.cookies.RequestsCookieJar()
                requests.cookies.extract_cookies_to_jar(jar, prepared, resp.raw)
                prepared = prepared.copy()
                prepared.prepare_url(urljoin(prepared.url, location), None)
                prepared.headers.pop("Cookie", None)
                prepared.prepare_cookies(jar)
        raise Unavailable(f"{req.method} {req.url}: more than {redirects} redirects")


def _with_body(template: requests.PreparedRequest, body: bytes | None,
               ) -> requests.PreparedRequest:
    """``template`` with ``body``: what ``template.copy()`` then
    ``prepare_body(body, None)`` gives, for bytes, without their other work."""
    prepared = requests.PreparedRequest()
    prepared.method, prepared.url = template.method, template.url
    prepared.headers = template.headers.copy()
    if body:
        prepared.body = body
        prepared.headers["Content-Length"] = str(len(body))
    else:
        prepared.prepare_content_length(None)
    return prepared


def _overdue() -> requests.ReadTimeout:
    return requests.ReadTimeout("not answered by the attempt's deadline")


def _read_body(resp: requests.Response, deadline: float, asked: str) -> bytes:
    """The response's body, at most ``MAX_BODY_BYTES`` of it, read by ``deadline``.

    An adapter that answered with no ``raw`` stream has set the body itself.
    Otherwise the stream is decoded as ``Response.content`` would decode it, and
    its connection goes back to the pool, or is closed if the body was left
    unread. The deadline is checked once the response has arrived, and again
    after every read, and no read waits on the socket past it.
    """
    raw = resp.raw
    if raw is None:
        if time.monotonic() > deadline:
            raise _overdue()
        body = resp.content or b""
        if len(body) > MAX_BODY_BYTES:
            raise Unavailable(f"{asked}: body over {MAX_BODY_BYTES} bytes")
        return body
    fp = getattr(getattr(raw, "_fp", None), "fp", None)  # http.client's buffered socket file
    sock = getattr(getattr(fp, "raw", None), "_sock", None)  # None for a stream with no socket
    chunks: list[bytes] = []
    size = 0
    complete = False
    try:
        while (left := deadline - time.monotonic()) >= 0:
            if sock is not None:
                sock.settimeout(max(left, 0.001))  # the next request sets its own again
            # read1 (urllib3 >= 2.2) returns what one read of the socket gives, so a
            # body that trickles in still meets the deadline check between reads
            chunk = raw.read1(_READ_BYTES, decode_content=True)
            if not chunk:
                complete = True
                return b"".join(chunks)
            size += len(chunk)
            if size > MAX_BODY_BYTES:
                raise Unavailable(f"{asked}: body over {MAX_BODY_BYTES} bytes")
            chunks.append(chunk)
        raise _overdue()
    finally:
        if not complete:
            raw.close()  # unread bytes would reach the connection's next request
        raw.release_conn()


# -- fixture serialization -----------------------------------------------------


def response_to_record(req: HttpRequest, resp: HttpResponse) -> dict:
    secret = any(name in CREDENTIAL_PARAMS for name, _ in req.params)
    record = {
        "request": {
            "method": req.method,
            "url": req.url,
            "params": [
                [name, "<redacted>" if name in CREDENTIAL_PARAMS else value]
                for name, value in req.params
            ],
        },
        "response": {
            "status": resp.status,
            "headers": resp.headers,
            # a live response's URL repeats the encoded query, credentials too
            "url": req.url if secret else resp.url or req.url,
        },
    }
    try:
        record["response"]["body_text"] = resp.body.decode("utf-8")
    except UnicodeDecodeError:
        record["response"]["body_b64"] = base64.b64encode(resp.body).decode("ascii")
    return record


def response_from_record(record: dict) -> HttpResponse:
    payload = record["response"]
    if "body_text" in payload:
        body = payload["body_text"].encode("utf-8")
    else:
        body = base64.b64decode(payload.get("body_b64", ""))
    return HttpResponse(
        status=int(payload["status"]),
        headers={k.lower(): v for k, v in payload.get("headers", {}).items()},
        body=body,
        url=payload.get("url", ""),
    )


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` by ``data`` at once, through ``.<name>.<random>`` beside
    it: a reader sees the old file or the whole new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}")
    # exclusive, as tempfile.mkstemp creates, but with the mode open() gives a
    # new file (0o666 less the umask), not mkstemp's 0o600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
