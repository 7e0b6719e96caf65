"""Shared pieces of the benchmark: metric names, statistics, digests,
correctness checks, spans, environment metadata and the result line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: ``nproc`` of the machine the seed numbers in README.md were taken on;
#: a run on another core count prints a warning.
BASELINE_NPROC = 2

#: Metric names: a letter or digit, then letters, digits, ``_ . -``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: End-to-end metrics ``(name, unit, better)``.  Every workload reports
#: every one of them; README.md says what each means on each workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("request_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)

LANES = ("unconstrained", "num-blocked", "num-sequential", "cat-fd-lane",
         "cat-generic", "cat-sharded", "num-sharded")
HOT_COLUMNS = (("adult", "cap_gain"), ("tax", "salary"), ("br2000", "a5"))
ENGINE_COUNTERS = ("blocks", "rescored_rows", "sequential_rows",
                   "forced_rows", "shards", "stitch_us", "pool_broken")
INDEX_PROBES = ("probe_block_codes", "probe_det_codes", "probe_pair",
                "probe_many", "candidate_counts")

#: Each workload's own headline numbers ``(name, unit, better)``: fit_s
#: on fit, the draw rates on draw, stream_rows_per_s on stream and the
#: p95 latency with its sample count on serve.  The traced run reports
#: them from its first, untraced pass; another workload reports 0.
HEADLINE_METRICS = (
    ("fit_s", "s", "lower"),
    ("draw_rows_per_s", "rows/s", "higher"),
    ("draw_w2_rows_per_s", "rows/s", "higher"),
    ("stream_rows_per_s", "rows/s", "higher"),
    ("request_p95_ms", "ms", "lower"),
    ("bench.latency_samples", "count", "higher"),
)
HEADLINES = tuple(name for name, _, _ in HEADLINE_METRICS)

#: Per-layer metrics ``(name, unit, better)``, reported by the traced
#: run.  A layer a workload leaves idle reports 0.
PER_LAYER = (
    *HEADLINE_METRICS,
    # fit phases, per round
    ("core.sequencing.s", "s", "lower"),
    ("core.params.search_s", "s", "lower"),
    ("core.training.dp_sgd_s", "s", "lower"),
    ("core.weights.s", "s", "lower"),
    ("core.model_io.save_s", "s", "lower"),
    ("core.fit.phase_coverage", "ratio", "higher"),
    ("core.fit.runtrace_gap", "ratio", "lower"),
    # accountant and DP-SGD, per round
    ("privacy.rdp.rdp_sgm.calls", "count", "lower"),
    ("privacy.rdp.rdp_sgm.s", "s", "lower"),
    ("privacy.rdp.kamino_epsilon.calls", "count", "lower"),
    ("privacy.dpsgd.steps", "count", "lower"),
    ("privacy.dpsgd.step_ms", "ms", "lower"),
    # engine lanes, hot columns and counters, per round
    *((f"core.engine.lane.{lane}_s", "s", "lower") for lane in LANES),
    *((f"core.engine.col.{ds}.{col}_s", "s", "lower")
      for ds, col in HOT_COLUMNS),
    *((f"core.engine.{key}", "count", "lower") for key in ENGINE_COUNTERS),
    ("core.engine.pool.w2_over_w1", "ratio", "lower"),
    ("core.engine.lane_coverage", "ratio", "higher"),
    *((f"constraints.index.{probe}", "count", "lower")
      for probe in INDEX_PROBES),
    ("constraints.forced_violations", "count", "lower"),
    # streaming, per round
    ("core.engine.stream.chunk_s", "s", "lower"),
    ("core.engine.stream.first_chunk_s", "s", "lower"),
    ("io.stream.write_s", "s", "lower"),
    ("io.stream.chunks", "count", "lower"),
    ("io.stream.bytes", "bytes", "lower"),
    # serve, client side
    ("serve.client.hit_ms_p50", "ms", "lower"),
    ("serve.client.revalidate_ms_p50", "ms", "lower"),
    ("serve.client.miss_ms_p50", "ms", "lower"),
    ("serve.client.miss_ms_p95", "ms", "lower"),
    ("serve.client.misses", "count", "higher"),
    # serve, server side (medians per request)
    ("serve.queue.wait_ms", "ms", "lower"),
    ("serve.server.render_ms", "ms", "lower"),
    ("serve.server.render_engine_ms", "ms", "lower"),
    ("serve.server.render_write_ms", "ms", "lower"),
    ("serve.cache.get_ms", "ms", "lower"),
    ("serve.cache.put_ms", "ms", "lower"),
    ("serve.registry.get_ms", "ms", "lower"),
    ("serve.registry.loads", "count", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.lookups", "count", "higher"),
    ("serve.queue.coalesced", "count", "higher"),
    ("serve.queue.rejected", "count", "lower"),
    ("serve.queue.timeouts", "count", "lower"),
    ("serve.server.unattributed_ms", "ms", "lower"),
    ("bench.gen_lag_ms_p95", "ms", "lower"),
    # host speed: median calibration over its quiet seconds
    ("bench.host_slowdown", "ratio", "lower"),
    # tracing cost: traced main timing over untraced
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: A serve run whose generator fell this far behind its schedule (p95)
#: is invalid: its latencies would measure the generator, not the server.
MAX_GEN_LAG_MS = 25.0


# -- statistics -----------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = (len(data) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (rank - lo))


def tail_percentile(count: int) -> float | None:
    """The highest of p99.9, p99, p95, p90, p75 and p50 with at least
    ten of ``count`` samples beyond it; ``None`` when even the median
    has fewer than ten above it."""
    for permille in (999, 990, 950, 900, 750, 500):
        if count * (1000 - permille) >= 10 * 1000:
            return permille / 10
    return None


def another_round(rounds, started: float, seconds: float,
                  min_rounds: int = 1) -> bool:
    """Should a workload that measures whole rounds for ``seconds``
    (from ``started``) run another?  Always up to ``min_rounds``; after
    that only while at least half of one more, at the median round's
    length, falls inside the window, so a run overruns ``seconds`` by at
    most half a round (draw rounds take most of the window on their
    own).  Without a minimum, a slowed host would leave fit two rounds,
    whose median cannot drop the slower one."""
    if len(rounds) < min_rounds:
        return True
    return time.perf_counter() - started + median(rounds) / 2 <= seconds


# -- host speed -------------------------------------------------------------
#: Seconds :func:`calibrate` takes on the reference machine (2 cores,
#: x86_64, Python 3.11, numpy 2.4) when its host is quiet.
CALIBRATION_S = 0.1


def calibrate() -> float:
    """Time a fixed piece of the benchmark's own work, about 0.1 s: a
    pure-Python dict and integer loop, small dense numpy layers and
    sorts of a 65,536-element column, in equal parts.

    The host is shared, and other tenants slow it in spells from under a
    second to minutes, by up to 1.8 times, the program and this work
    alike (CPU time grows with wall time).  Set-up and the rounds of
    fit, draw and stream run a calibration before and after each piece
    of program work and report it at the host's quiet speed: see
    :func:`steady_seconds`.  No program code runs here, so a change to
    the program moves the program's seconds and not these.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 128))
    b = rng.standard_normal((128, 32))
    column = rng.standard_normal(1 << 16)
    t0 = time.perf_counter()
    counts: dict = {}
    acc = 0
    for i in range(250_000):
        key = i % 997
        counts[key] = counts.get(key, 0) + 1
        acc ^= i * 31
    for _ in range(1800):
        y = np.tanh(a @ b)
        y.sum(axis=0)
        np.exp(-np.abs(y))
    for _ in range(20):
        np.take(column, np.argsort(column)).cumsum()
    return time.perf_counter() - t0


def slowdown(calibrations) -> float:
    """How much slower than quiet the host ran: the median calibration
    over :data:`CALIBRATION_S`."""
    return median(calibrations) / CALIBRATION_S


def steady_seconds(pieces, calibrations) -> float:
    """Seconds of program work at the host's quiet speed.  Piece ``i``
    ran between calibrations ``i`` and ``i + 1``, and is divided by the
    host's slowdown over those two: their mean over
    :data:`CALIBRATION_S`."""
    if len(calibrations) != len(pieces) + 1:
        raise ValueError(f"{len(pieces)} pieces need {len(pieces) + 1} "
                         f"calibrations, not {len(calibrations)}")
    return sum(2 * CALIBRATION_S * piece / (before + after)
               for piece, before, after
               in zip(pieces, calibrations, calibrations[1:]))


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- digests and correctness checks ---------------------------------------
def table_digest(table) -> str:
    """sha256 over every column's name, dtype and bytes, in schema order."""
    import numpy as np
    digest = hashlib.sha256()
    for name in table.relation.names:
        col = np.ascontiguousarray(table.column(name))
        digest.update(name.encode())
        digest.update(str(col.dtype).encode())
        digest.update(col.tobytes())
    return digest.hexdigest()


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_digest(path: str) -> str:
    """sha256 of a saved model's content: every npz member in name
    order, minus the two parts that record *when* it was written (the
    zip timestamps and the wall-clock ``fit_timings``)."""
    import numpy as np
    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as data:
        for name in sorted(data.files):
            value = data[name]
            if name == "meta.json":
                meta = json.loads(str(value))
                meta.get("fitted", {}).pop("fit_timings", None)
                payload = json.dumps(meta, sort_keys=True).encode()
            else:
                payload = (str(value.dtype).encode() + str(value.shape)
                           .encode() + np.ascontiguousarray(value).tobytes())
            digest.update(name.encode())
            digest.update(payload)
    return digest.hexdigest()


def hard_violations(table, dcs, sequence) -> tuple[int, int]:
    """Violating tuples/pairs of the hard DCs on a draw, split into
    ``(avoidable, forced)``.

    A violation is *forced* when no satisfying value existed as the
    draw was made: see :func:`_fd_violations_forced`.  Every other
    violation is avoidable, and a correct draw has none.
    """
    from repro.constraints.violations import count_violations
    avoidable = forced = 0
    for dc in dcs:
        if not dc.hard:
            continue
        count = count_violations(dc, table)
        if count and _fd_violations_forced(table, dc.as_fd(), sequence):
            forced += count
        else:
            avoidable += count
    return avoidable, forced


def _fd_violations_forced(table, fd, sequence) -> bool:
    """Were all violations of the FD ``x -> y`` forced?

    Only a single-attribute determinant ``x`` drawn *after* ``y`` can be
    forced: rows are drawn in row order, and a value of ``x`` satisfies
    row ``i`` when no earlier row pairs it with a ``y`` other than row
    ``i``'s.  Once every ``x`` value is used and none is paired with
    row ``i``'s ``y`` alone, row ``i`` must violate the FD.
    """
    if fd is None:
        return False
    lhs, rhs = fd
    if (len(lhs) != 1 or lhs[0] not in sequence or rhs not in sequence
            or sequence.index(lhs[0]) < sequence.index(rhs)):
        return False
    size = table.relation[lhs[0]].domain.size
    seen: dict = {}   # x -> the set of y values earlier rows paired with it
    pure: dict = {}   # y -> how many x values are paired with y alone
    for x, y in zip(table.column(lhs[0]).tolist(),
                    table.column(rhs).tolist()):
        ys = seen.get(x)
        if ys is None:
            seen[x] = {y}
            pure[y] = pure.get(y, 0) + 1
            continue
        if ys != {y}:
            if len(seen) < size or pure.get(y, 0) > 0:
                return False
            if len(ys) == 1:
                (only,) = ys
                pure[only] -= 1
            ys.add(y)
    return True


class Checks:
    """Counts operations and the correctness checks they failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self) -> None:
        self.attempted += 1

    def expect(self, ok: bool, message: str) -> bool:
        """Record a failed check (once per operation is enough)."""
        if not ok:
            self.failures.append(message)
        return ok

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


# -- spans ----------------------------------------------------------------
class Spans:
    """In-memory span store: name, start, end, parent, request id.

    Spans nest per thread; a child inherits its parent's request id.
    Nothing is written until :meth:`dump`.
    """

    def __init__(self, records=()):
        self.records: list[dict] = list(records)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = max((r["id"] for r in self.records), default=0)

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str, rid=None):
        parent = getattr(self._local, "current", None)
        parent_rid = getattr(self._local, "rid", None)
        rid = parent_rid if rid is None else rid
        sid = self._new_id()
        self._local.current, self._local.rid = sid, rid
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._local.current, self._local.rid = parent, parent_rid
            with self._lock:
                self.records.append({"id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "rid": rid})

    def add(self, name: str, start: float, end: float, parent=None,
            rid=None) -> int:
        """Record a span measured elsewhere (another thread or a child
        process: ``perf_counter`` is the system-wide monotonic clock)."""
        sid = self._new_id()
        with self._lock:
            self.records.append({"id": sid, "name": name, "start": start,
                                 "end": end, "parent": parent, "rid": rid})
        return sid

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def dump(self, path: str, **extra) -> None:
        """Write every span, with its self time, as one JSON document."""
        own = self_times(self.records)
        spans = [dict(rec, self=own[rec["id"]]) for rec in self.records]
        with open(path, "w") as f:
            json.dump({"spans": spans, **extra}, f)


def self_times(records) -> dict:
    """Span id -> its duration minus the part its children cover."""
    children: dict = {}
    for rec in records:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(
                (rec["start"], rec["end"]))
    out = {}
    for rec in records:
        covered, cursor = 0.0, rec["start"]
        for start, end in sorted(children.get(rec["id"], ())):
            start, end = max(start, cursor), min(end, rec["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[rec["id"]] = (rec["end"] - rec["start"]) - covered
    return out


# -- run context and measurement record -----------------------------------
@dataclass
class Context:
    """One run: the checkout root, a private work directory inside it,
    the workload seed and how long to measure."""

    root: str
    work: str
    seed: int
    seconds: float

    def path(self, *parts: str) -> str:
        path = os.path.join(self.work, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def child_env(self) -> dict:
        """Environment for the benchmark's own child processes: the
        checkout's ``src/`` and the benchmark package, nothing else."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src"), self.root])
        return env


@dataclass
class Measurement:
    """What one measuring pass of a workload produced."""

    #: End-to-end metric values (END_TO_END but setup_s and ok_ratio).
    e2e: dict
    #: Per-layer values (names from PER_LAYER; missing names read 0).
    layers: dict = field(default_factory=dict)
    #: The workload's main timing in seconds, for trace.overhead_ratio.
    main_s: float = 0.0
    checks: Checks = field(default_factory=Checks)
    spans: Spans = field(default_factory=Spans)
    #: A run that measured the harness instead of the program.
    invalid: str | None = None


# -- environment and output -----------------------------------------------
def src_line_count(root: str) -> int:
    """Lines of python under ``src/`` (the ROADMAP's tracked LOC)."""
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += sum(1 for _ in f)
    return total


def environment(root: str) -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_line_count(root),
    }


def result_line(correct: bool, attempted: int, failed: int,
                values: dict, units) -> str:
    """The final stdout line: ``correct``, ``attempted``, ``failed`` and
    every metric of ``units`` ((name, unit, better) triples)."""
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit, _ in units}
    return json.dumps({"correct": bool(correct),
                       "attempted": int(max(attempted, 1)),
                       "failed": int(failed), "metrics": metrics})


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
