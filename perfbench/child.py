"""One timed command invocation: ``python3 child.py SPEC.json``.

Runs a kgverify CLI command in the live code path with every HTTP request
answered by the fake remote side. The fake is mounted through requests' own
adapter extension point (``Session.mount``) on every session the program
creates; the stock HTTP adapter and raw sockets are replaced by guards, so a
request can never leave the process. At exit the child writes its counters,
item latencies and (when tracing) its spans to the stats file named in the
spec.

Benchmark overhead (loading the corpus, installing hooks, writing stats) is
timed and reported so the parent can subtract it from set-up and wall time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Recorder:
    """Counters, item latencies and spans that the hooks fill in."""

    def __init__(self, probe: bool):
        self.probe = probe
        self.overhead_s = 0.0  # benchmark time spent before the first request
        self.first_request: float | None = None
        self.cpu_at_first: float | None = None
        self.adapter_cpu = 0.0
        self.kinds = {}
        self.seen: set[bytes] = set()
        self.violations: list[str] = []
        self.items: list[float] = []
        self.item_calls: dict[str, int] = {}
        self.current_item = threading.local()
        self.spans: list | None = None  # a list only when tracing
        self._stack = threading.local()
        self.lock = threading.Lock()

    def kind(self, name: str) -> dict:
        return self.kinds.setdefault(
            name, {"requests": 0, "wait_s": 0.0, "failed": 0, "repeats": 0})

    def open_span(self, name: str) -> list:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        return [index, name, time.monotonic(), parent]

    def close_span(self, span: list, measure=0) -> None:
        index, name, start, parent = span
        self._stack.ids.pop()
        item = getattr(self.current_item, "id", -1)
        self.spans[index] = (name, start, time.monotonic(), parent, item, measure)


def _install_fake(recorder: Recorder, remote, spec: dict) -> None:
    import socket

    import requests
    from requests.adapters import BaseAdapter, HTTPAdapter
    from requests.models import Response
    from requests.structures import CaseInsensitiveDict

    import fake

    class FakeAdapter(BaseAdapter):
        """Serves a request from the corpus and sleeps for its modelled latency."""

        def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
            entered = time.monotonic()
            cpu0 = time.thread_time()
            if recorder.first_request is None:
                recorder.first_request = entered
                recorder.cpu_at_first = _cpu()
                if recorder.probe:
                    _write_stats(recorder, spec)
                    os._exit(0)
            span = recorder.open_span("fake.send") if recorder.spans is not None else None
            body = request.body.encode("utf-8") if isinstance(request.body, str) else request.body
            try:
                reply = remote.handle(request.method, request.url, body)
            except fake.UnknownRequest as exc:
                recorder.violations.append(f"fake saw a request the corpus does not know: {exc}")
                raise
            with recorder.lock:
                counters = recorder.kind(reply.kind)
                counters["requests"] += 1
                if reply.status >= 400:
                    counters["failed"] += 1
                if reply.identity in recorder.seen:
                    counters["repeats"] += 1
                recorder.seen.add(reply.identity)
            response = Response()
            response.status_code = reply.status
            response.headers = CaseInsensitiveDict(
                {"Content-Type": reply.content_type, "Content-Length": str(len(reply.body))})
            response._content = reply.body
            response.url = request.url
            response.request = request
            response.reason = "OK" if reply.status < 400 else "Error"
            response.encoding = None
            response.connection = self
            remaining = reply.delay_s - (time.monotonic() - entered)
            if remaining > 0:
                time.sleep(remaining)
            with recorder.lock:
                counters["wait_s"] += time.monotonic() - entered
                # the sleep's own kernel time belongs to the fake, not the program
                recorder.adapter_cpu += time.thread_time() - cpu0
            if span is not None:
                recorder.close_span(span)
            return response

        def close(self):
            pass

    adapter = FakeAdapter()
    session_init = requests.Session.__init__

    def mounting_init(self, *args, **kwargs):
        session_init(self, *args, **kwargs)
        self.mount("https://", adapter)
        self.mount("http://", adapter)

    def bypassed(self, request, *args, **kwargs):
        recorder.violations.append(f"request reached a real HTTP adapter: {request.method} {request.url}")
        raise RuntimeError("benchmark hook bypassed: request reached requests' HTTPAdapter")

    def no_socket(self, address, *args, **kwargs):
        recorder.violations.append(f"socket connect attempted to {address!r}")
        raise RuntimeError("benchmark hook bypassed: socket connect attempted")

    if not spec["bypass_fake"]:
        requests.Session.__init__ = mounting_init
    HTTPAdapter.send = bypassed
    socket.socket.connect = no_socket
    socket.socket.connect_ex = no_socket


# -- item timers and spans -------------------------------------------------------


def _resolve(path: str):
    """``module:Qual.name`` -> (owner, attribute name, current value)."""
    import importlib

    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(f"kgverify.{module_name}")
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _replace(owner, attr: str, original, wrapper) -> None:
    """Install a wrapper on its owner and on every kgverify module that imported it by name."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("kgverify") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _install_item_timer(recorder: Recorder, path: str) -> None:
    import functools

    owner, attr, original = _resolve(path)
    counter = recorder.current_item

    @functools.wraps(original)
    def timed(*args, **kwargs):
        slot = counter.id = len(recorder.items)
        recorder.items.append(-1.0)
        start = time.monotonic()
        try:
            return original(*args, **kwargs)
        finally:
            recorder.items[slot] = time.monotonic() - start
            recorder.item_calls[path] = recorder.item_calls.get(path, 0) + 1

    _replace(owner, attr, original, timed)


def _install_tracer(recorder: Recorder) -> None:
    import functools

    import layers

    def wrap(original, name, measure):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = recorder.open_span(name)
            result, failed = None, True
            try:
                result = original(*args, **kwargs)
                failed = False
                return result
            finally:
                recorder.close_span(span, measure(args, result, failed))

        return traced

    recorder.spans = []
    for path, name, measure in layers.TARGETS:
        owner, attr, original = _resolve(path)
        _replace(owner, attr, original, wrap(original, name, layers.MEASURES[measure]))


# -- stats -------------------------------------------------------------------------


def _write_stats(recorder: Recorder, spec: dict, ended: float | None = None) -> None:
    """Write the stats as one JSON line, then a second line timing that write."""
    start = time.monotonic()
    cpu0 = _cpu()
    stats = {
        "first_request": recorder.first_request,
        "cpu_at_first": recorder.cpu_at_first,
        "adapter_cpu_s": recorder.adapter_cpu,
        "ended": ended,
        "kinds": recorder.kinds,
        "violations": recorder.violations,
        "items": recorder.items,
        "item_calls": recorder.item_calls,
        "overhead_before_s": recorder.overhead_s,
    }
    if recorder.spans is not None:
        stats["spans"] = recorder.spans
    with open(spec["stats_path"], "w", encoding="utf-8") as handle:
        handle.write(json.dumps(stats) + "\n")
        handle.flush()
        tail = {"overhead_after_s": time.monotonic() - start, "cpu_after_s": _cpu() - cpu0}
        handle.write(json.dumps(tail) + "\n")


def main() -> int:
    began = time.monotonic()
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    recorder = Recorder(spec["probe"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    with open(spec["corpus_path"], encoding="utf-8") as handle:
        corpus_remote = json.load(handle)
    import fake

    remote = fake.FakeRemote(corpus_remote, spec["tail_key"], spec["latency_scale"])
    del corpus_remote
    recorder.overhead_s += time.monotonic() - began

    import requests  # noqa: F401  (program set-up: kgverify imports it too)

    began = time.monotonic()
    _install_fake(recorder, remote, spec)
    recorder.overhead_s += time.monotonic() - began

    import kgverify.cli

    began = time.monotonic()
    try:
        if spec["trace"]:
            _install_tracer(recorder)
        _install_item_timer(recorder, spec["item_function"])
    except (ImportError, AttributeError) as exc:
        recorder.violations.append(f"timed function missing: {exc}")
        _write_stats(recorder, spec)
        return 70
    recorder.overhead_s += time.monotonic() - began

    code = 0
    try:
        kgverify.cli.main.main(args=spec["argv"], prog_name="kgverify", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        # also on an uncaught exception, which then ends the child with a traceback
        _write_stats(recorder, spec, ended=time.monotonic())
    return code


if __name__ == "__main__":
    sys.exit(main())
