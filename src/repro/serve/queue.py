"""Request coalescing, per-model serialization, and backpressure.

The server handles each HTTP request on its own thread
(``ThreadingHTTPServer``); this module decides which of those threads
actually drive the engine:

* **Coalescing (single-flight).**  Concurrent requests for the same
  draw key — and, by construction of the key, the same
  ``(model, version, n, seed, format)`` — collapse onto one render: the
  first arrival runs it, the rest wait on its completion event and
  share the result.  The engine never renders the same response twice
  concurrently.
* **Per-model serialization.**  One render at a time per
  ``(name, version)``: stacking concurrent draws of one model
  multiplies memory for zero throughput.  Distinct models render in
  parallel.
* **Backpressure.**  ``max_pending`` bounds how many distinct renders
  may be queued or running; past it, :class:`QueueFullError` (HTTP
  429).  ``timeout`` bounds how long any request waits for its result;
  past it, :class:`DrawTimeoutError` (HTTP 503).  Bounded queue +
  bounded wait ⇒ bounded memory, instead of an unbounded pile-up of
  draw threads.
"""

from __future__ import annotations

import threading


class QueueFullError(RuntimeError):
    """Too many distinct renders in flight — shed load (HTTP 429)."""


class DrawTimeoutError(RuntimeError):
    """The render did not complete within the request timeout (503)."""


class _Job:
    __slots__ = ("event", "result", "error", "waiters")

    def __init__(self):
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        self.waiters = 0


class DrawExecutor:
    """Runs render callables with coalescing and backpressure."""

    def __init__(self, max_pending: int = 16, timeout: float = 120.0):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.max_pending = int(max_pending)
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._model_locks: dict[tuple, threading.Lock] = {}
        self.coalesced = 0   # requests that attached to an existing job
        self.rejected = 0    # QueueFullError count
        self.timeouts = 0    # DrawTimeoutError count

    @property
    def depth(self) -> int:
        """Distinct renders currently queued or running."""
        with self._lock:
            return len(self._jobs)

    def run(self, key: str, model_key: tuple, fn, *,
            timeout: float | None = None):
        """Render ``key`` via ``fn()`` — or wait for whoever already is.

        ``model_key`` scopes the per-model serialization lock.  Returns
        ``fn()``'s result; raises :class:`QueueFullError`,
        :class:`DrawTimeoutError`, or whatever ``fn`` raised (also
        re-raised in every coalesced waiter).
        """
        wait = self.timeout if timeout is None else float(timeout)
        with self._lock:
            job = self._jobs.get(key)
            owner = job is None
            if owner:
                if len(self._jobs) >= self.max_pending:
                    self.rejected += 1
                    raise QueueFullError(
                        f"draw queue full ({self.max_pending} renders "
                        f"in flight)")
                job = _Job()
                self._jobs[key] = job
                model_lock = self._model_locks.setdefault(
                    model_key, threading.Lock())
            else:
                job.waiters += 1
                self.coalesced += 1
        if not owner:
            return self._await(job, wait)
        # This thread owns the render.
        try:
            if not model_lock.acquire(timeout=wait):
                with self._lock:
                    self.timeouts += 1
                raise DrawTimeoutError(
                    f"model {model_key} is busy; gave up after {wait:g}s")
            try:
                job.result = fn()
            finally:
                model_lock.release()
        except BaseException as exc:
            job.error = exc
            raise
        finally:
            with self._lock:
                self._jobs.pop(key, None)
            job.event.set()
        return job.result

    def _await(self, job: _Job, wait: float):
        if not job.event.wait(wait):
            with self._lock:
                self.timeouts += 1
            raise DrawTimeoutError(
                f"coalesced draw did not finish within {wait:g}s")
        if job.error is not None:
            raise job.error
        return job.result

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._jobs),
                "max_pending": self.max_pending,
                "coalesced": self.coalesced,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
            }
