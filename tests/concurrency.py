"""Test helpers for concurrent code: handshakes, not sleeps, make calls overlap,
and counters show how many calls overlapped."""

from __future__ import annotations

import concurrent.futures
import itertools
import sys
import threading
import time


class Rendezvous:
    """Holds each of the first ``n`` calls of ``meet`` until all n are in
    flight; later calls pass. Fails with a clear message if they never meet."""

    def __init__(self, n: int, timeout_s: float = 10.0):
        self._barrier = threading.Barrier(n)
        self._timeout_s = timeout_s
        self._arrived = 0
        self._lock = threading.Lock()

    def meet(self) -> None:
        with self._lock:
            self._arrived += 1
            if self._arrived > self._barrier.parties:
                return
        try:
            self._barrier.wait(self._timeout_s)
        except threading.BrokenBarrierError:
            raise AssertionError(f"{self._barrier.parties} calls were never in flight at once "
                                 f"within {self._timeout_s} s") from None


class InFlight:
    """Counts the calls inside its ``with`` block, now and at the peak."""

    def __init__(self):
        self.now = 0
        self.peak = 0
        self._lock = threading.Lock()

    def __enter__(self):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
        return self

    def __exit__(self, *exc):
        with self._lock:
            self.now -= 1
        return False


def interrupt_thread_start(monkeypatch, name: str, nth: int, start: bool,
                           error: BaseException | None = None) -> None:
    """Make ``threading.Thread.start`` raise KeyboardInterrupt at the ``nth``
    thread named ``name``, as a Ctrl-C that lands inside that call does, or
    ``error`` if given. With ``start`` the thread has started by then; without
    it, it never starts."""
    original = threading.Thread.start
    calls = itertools.count(1)

    def start_thread(thread):
        if thread.name != name or next(calls) != nth:
            return original(thread)
        if start:
            original(thread)
        raise error or KeyboardInterrupt

    monkeypatch.setattr(threading.Thread, "start", start_thread)


def await_thread_blocked_in(function_name: str, timeout_s: float = 5.0,
                            any_thread: bool = False, threads: int = 1) -> None:
    """Return once the main thread (with ``any_thread``, any ``threads``
    threads) waits in a ``threading`` call (on a lock or a condition), directly
    or through a ``Future``, that ``function_name`` made itself, not one made
    deeper down. Fail if fewer do within ``timeout_s``."""
    library = {threading.__file__, concurrent.futures._base.__file__}
    main = threading.main_thread().ident
    deadline = time.monotonic() + timeout_s
    while True:
        waiting = 0
        for ident, innermost in sys._current_frames().items():
            if not any_thread and ident != main:
                continue
            frame = innermost
            while frame is not None and frame.f_code.co_filename in library:
                frame = frame.f_back
            if (frame is not innermost and frame is not None
                    and frame.f_code.co_name == function_name):
                waiting += 1
        if waiting >= threads:
            return
        assert time.monotonic() < deadline, (
            f"only {waiting} of {threads} threads waited in {function_name}")
        time.sleep(0.001)


class GatedTransport:
    """Answers from a script, each answer once ``release`` is set; counts calls."""

    def __init__(self, *answers):
        self.answers = list(answers)
        self.calls = 0
        self.release = threading.Event()
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            self.calls += 1
            answer = self.answers.pop(0)
        assert self.release.wait(5.0)
        if isinstance(answer, BaseException):
            raise answer
        return answer


def ask_in_flight(ask, gated: GatedTransport, callers: int = 8) -> list:
    """What each of ``callers`` threads gets from ``ask()`` (a value, or the
    error it raised), where ``ask`` goes through a ``SingleFlight``: ``gated``
    answers the first caller once every other one waits in ``SingleFlight.get``
    for that answer."""
    results = [None] * callers

    def call(i):
        try:
            results[i] = ask()
        except Exception as exc:
            results[i] = exc

    threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
    for thread in threads:
        thread.start()
    await_thread_blocked_in("get", any_thread=True, threads=callers - 1)
    gated.release.set()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    return results
