"""An open-loop HTTP load generator.

Requests go out on a fixed schedule whether or not earlier ones have
answered, over at most ``connections`` keep-alive connections.  Each
request's latency is timed from when it was *due*, so a stall also
charges the requests that queued behind it.  The lag list records how
late the generator itself put each request on the wire queue.
"""

from __future__ import annotations

import http.client
import queue
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Request:
    #: Seconds after the schedule starts.
    due: float
    path: str
    headers: dict = field(default_factory=dict)
    #: The caller's label, passed through untouched.
    tag: object = None


@dataclass
class Outcome:
    request: Request
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    headers: dict = field(default_factory=dict)
    body: bytes = b""
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        """Milliseconds from the due time to the last response byte."""
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        """Milliseconds from sending to the last response byte."""
        return (self.done - self.sent) * 1e3


def run_open_loop(host: str, port: int, schedule, connections: int = 2,
                  timeout: float = 30.0, start_delay: float = 0.05):
    """Send ``schedule`` (a list of :class:`Request`); returns the
    outcomes, in schedule order, and the generator's lag per request in
    seconds."""
    due_queue: queue.Queue = queue.Queue()
    outcomes = [Outcome(request) for request in schedule]

    def sender():
        conn = None
        while True:
            index = due_queue.get()
            if index is None:
                break
            out = outcomes[index]
            try:
                if conn is None:
                    conn = http.client.HTTPConnection(host, port,
                                                      timeout=timeout)
                out.sent = time.perf_counter()
                conn.request("GET", out.request.path,
                             headers=out.request.headers)
                response = conn.getresponse()
                out.body = response.read()
                out.status = response.status
                out.headers = dict(response.getheaders())
                if response.will_close:
                    conn.close()
                    conn = None
            except (OSError, http.client.HTTPException) as exc:
                out.error = f"{type(exc).__name__}: {exc}"
                if conn is not None:
                    conn.close()
                    conn = None
            out.done = time.perf_counter()
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    lags = []
    start = time.perf_counter() + start_delay
    try:
        for index, request in enumerate(schedule):
            due = outcomes[index].due = start + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - due)
            due_queue.put(index)
    finally:
        for _ in threads:
            due_queue.put(None)
        for thread in threads:
            thread.join(timeout * 2)
    for out in outcomes:
        if not out.done and out.error is None:
            out.error = "not answered before the generator gave up"
    return outcomes, lags
