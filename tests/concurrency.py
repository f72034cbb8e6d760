"""Test helpers for concurrent code: handshakes, not sleeps, make calls overlap,
and counters show how many calls overlapped."""

from __future__ import annotations

import concurrent.futures
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor


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


class CountingExecutor(ThreadPoolExecutor):
    """A thread pool that counts the tasks submitted to it."""

    def __init__(self, max_workers: int):
        super().__init__(max_workers=max_workers)
        self.submitted = 0
        self._count_lock = threading.Lock()

    def submit(self, fn, /, *args, **kwargs):
        with self._count_lock:
            self.submitted += 1
        return super().submit(fn, *args, **kwargs)


class InterruptingExecutor(ThreadPoolExecutor):
    """A thread pool whose ``submit`` queues the work and then raises
    KeyboardInterrupt, as a Ctrl-C that lands inside ``submit`` does: the
    caller never gets the future. It raises once ``began`` is set, so the work
    has taken its item by then."""

    def __init__(self, max_workers: int, began: threading.Event):
        super().__init__(max_workers=max_workers)
        self._began = began

    def submit(self, fn, /, *args, **kwargs):
        super().submit(fn, *args, **kwargs)
        assert self._began.wait(10.0), "the submitted work never began"
        raise KeyboardInterrupt


def await_main_thread_blocked_in(function_name: str, timeout_s: float = 5.0) -> None:
    """Return once the main thread waits in a ``threading`` call (on a lock or
    a condition), directly or through a ``Future``, that ``function_name``
    made itself, not one made deeper down (starting a thread, say); fail if
    it does not within ``timeout_s``."""
    library = {threading.__file__, concurrent.futures._base.__file__}
    deadline = time.monotonic() + timeout_s
    while True:
        innermost = frame = sys._current_frames().get(threading.main_thread().ident)
        while frame is not None and frame.f_code.co_filename in library:
            frame = frame.f_back
        if frame is not innermost and frame is not None and frame.f_code.co_name == function_name:
            return
        assert time.monotonic() < deadline, f"the main thread never waited in {function_name}"
        time.sleep(0.001)
