"""Test helpers for concurrent code: handshakes, not sleeps, make calls overlap,
and counters show how many calls overlapped."""

from __future__ import annotations

import threading
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
