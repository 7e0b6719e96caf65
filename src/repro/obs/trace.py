"""Run telemetry: phase timers, counters, and gauges for fit/sample.

One :class:`RunTrace` records everything a pipeline run did and how
long each part took:

* **fit phases** — sequencing (Algorithm 4), parameter search
  (Algorithm 6), DP-SGD model training (Algorithm 2), and DC-weight
  learning (Algorithm 5), timed via :meth:`RunTrace.phase`;
* **sample runs** — one :class:`SampleTrace` per draw or stream,
  holding a :class:`ColumnTrace` per sampled working column (a
  stream's summed over its chunks): wall-clock, rows/sec, the engine
  lane the column ran on (``mode``), scheduling counters (blocks,
  block sizes, re-scored rows, per-row-pass rows), and
  violation-index probe counts.

The collector is threaded through :meth:`repro.core.kamino.Kamino.fit`,
:meth:`repro.core.kamino.FittedKamino.sample` and ``sample_stream``,
the sampling engine
(:mod:`repro.core.engine`), and the
violation indexes (:mod:`repro.constraints.index`) behind a
zero-cost-when-off hook: every instrumentation site is guarded by an
``if trace is not None`` (or, inside the index probes, ``if
self.counters is not None``) so the untraced hot path does no extra
work — and tracing itself never touches an rng, so a traced draw is
bit-identical to an untraced one.

Serialisation is **stable-keyed JSON**: :meth:`RunTrace.to_json` dumps
with sorted keys, counters included, so two runs of the same workload
produce byte-comparable structure (only the timing values differ).
:meth:`RunTrace.summary` renders the same data as a human-readable
report; the CLI surfaces both via ``repro-kamino fit/sample/synthesize
--trace out.json``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: Format version of the emitted JSON document.
TRACE_VERSION = 1

#: Canonical fit-phase names, in pipeline order.
FIT_PHASES = ("sequencing", "params", "dp_sgd", "weights")


def _rps(rows: int, seconds: float) -> float:
    return round(rows / max(seconds, 1e-9), 1)


class ColumnTrace:
    """Telemetry of one sampled working column: its engine passes,
    summed over a stream's chunks."""

    __slots__ = ("name", "mode", "seconds", "rows", "counters", "probes")

    def __init__(self, name: str):
        self.name = name
        #: Engine lane the pass ran on: ``unconstrained``,
        #: ``cat-fd-lane``, ``cat-generic``, ``num-blocked``,
        #: ``num-sequential``, ``cat-sharded`` or ``num-sharded``.
        self.mode = ""
        self.seconds = 0.0
        self.rows = 0
        #: Scheduling counters, whichever the lane produces:
        #: ``blocks``, ``block_rows_max``, ``rescored_rows``,
        #: ``sequential_rows``; ``shards`` (1 for an
        #: unconstrained column, which always draws inline, else the
        #: worker shards of a sharded lane) with ``stitch_us`` and, if
        #: a worker died, ``pool_broken``; the ``hard_violation_pairs``
        #: of every lane but the shard passes; and ``forward_rows``,
        #: the rows the column's sub-model ran (one per distinct context
        #: tuple, or every row; none for a histogram column).
        self.counters: dict[str, int] = {}
        #: Violation-index probe counts, keyed by probe method name
        #: (``probe_block_codes``, ``probe_det_codes``, ``probe_pair``,
        #: ``probe_many``, ``candidate_counts``).  An FD count table's
        #: lane calls count under the probe they stand in for: a block's
        #: counts as ``probe_det_codes`` when its candidates are
        #: determinant codes, else ``probe_block_codes``, and a row's
        #: count at its pick as ``probe_pair``.
        #: The engine attaches this dict to every index it probes.
        self.probes: dict[str, int] = {}

    def count(self, key: str, inc: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + inc

    def observe_block(self, size: int) -> None:
        """Record one scheduled block of ``size`` rows."""
        self.count("blocks")
        self.count("block_rows", size)
        if size > self.counters.get("block_rows_max", 0):
            self.counters["block_rows_max"] = size

    def finish(self, seconds: float, rows: int) -> None:
        """Add one pass's wall clock and rows (a streamed column runs
        one pass per chunk)."""
        self.seconds += float(seconds)
        self.rows += int(rows)

    @property
    def sequential_fallback_rate(self) -> float:
        """Fraction of rows drawn on a per-row path (sequential lane
        plus in-block re-scores) instead of a vectorized block."""
        if not self.rows:
            return 0.0
        slow = (self.counters.get("sequential_rows", 0)
                + self.counters.get("rescored_rows", 0))
        return min(slow / self.rows, 1.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "seconds": round(self.seconds, 6),
            "rows": self.rows,
            "rows_per_sec": _rps(self.rows, self.seconds),
            "sequential_fallback_rate": round(
                self.sequential_fallback_rate, 4),
            "counters": dict(sorted(self.counters.items())),
            "probes": dict(sorted(self.probes.items())),
        }


class SampleTrace:
    """Telemetry of one :meth:`FittedKamino.sample`, ``sample_stream``
    or ``sample_ar`` run: draw parameters, total wall-clock, and
    per-column passes (none for ``sample_ar``)."""

    def __init__(self, engine: str, n: int, seed, workers: int = 1):
        self.engine = engine
        self.n = int(n)
        self.seed = None if seed is None else int(seed)
        self.workers = int(workers)
        self.seconds = 0.0
        self.columns: list[ColumnTrace] = []

    def column(self, name: str) -> ColumnTrace:
        """Open (and return) the trace of the next column pass."""
        col = ColumnTrace(name)
        self.columns.append(col)
        return col

    def finish(self, seconds: float) -> None:
        self.seconds = float(seconds)

    def aggregate_counters(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for col in self.columns:
            for key, value in col.counters.items():
                if key == "block_rows_max":
                    out[key] = max(out.get(key, 0), value)
                else:
                    out[key] = out.get(key, 0) + value
            for key, value in col.probes.items():
                out[key] = out.get(key, 0) + value
        return out

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "n": self.n,
            "seed": self.seed,
            "workers": self.workers,
            "seconds": round(self.seconds, 6),
            "rows_per_sec": _rps(self.n, self.seconds),
            "columns": [col.to_dict() for col in self.columns],
        }


class RunTrace:
    """The root collector one pipeline run (fit and/or draws) writes to.

    Create one, pass it to ``fit(..., trace=)`` and/or
    ``sample(..., trace=)``, then read :meth:`to_dict`/:meth:`to_json`
    or print :meth:`summary`.  A single trace may span one fit plus any
    number of sample runs (the ``synthesize`` CLI records both in one
    document).
    """

    def __init__(self, label: str | None = None):
        self.label = label
        #: Fit-phase wall-clock seconds, in execution order.
        self.fit_phases: dict[str, float] = {}
        self.samples: list[SampleTrace] = []

    # -- recording ------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Time a fit phase; re-entering a name accumulates."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self.fit_phases[name] = self.fit_phases.get(name, 0.0) + elapsed

    def begin_sample(self, engine: str, n: int, seed,
                     workers: int = 1) -> SampleTrace:
        run = SampleTrace(engine, n, seed, workers)
        self.samples.append(run)
        return run

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        doc: dict = {
            "version": TRACE_VERSION,
            "label": self.label,
            "fit": {
                "phases": {name: round(sec, 6)
                           for name, sec in self.fit_phases.items()},
                "seconds": round(sum(self.fit_phases.values()), 6),
            },
            "samples": [run.to_dict() for run in self.samples],
        }
        return doc

    def to_json(self, indent: int = 2) -> str:
        """Stable-keyed JSON (sorted keys at every level)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    # -- human-readable summary ----------------------------------------
    def summary(self) -> str:
        """A compact, readable report of everything the trace holds."""
        lines: list[str] = []
        title = "run trace" + (f" [{self.label}]" if self.label else "")
        lines.append(title)
        if self.fit_phases:
            total = sum(self.fit_phases.values())
            lines.append(f"  fit: {total:.2f}s")
            for name, sec in self.fit_phases.items():
                share = 100.0 * sec / max(total, 1e-9)
                lines.append(f"    {name:<12s} {sec:8.3f}s {share:5.1f}%")
        for k, run in enumerate(self.samples):
            seed = "-" if run.seed is None else run.seed
            lines.append(
                f"  sample[{k}]: engine={run.engine} n={run.n} "
                f"seed={seed} workers={run.workers} — "
                f"{run.seconds:.2f}s ({_rps(run.n, run.seconds):,.0f} "
                f"rows/s)")
            if not run.columns:
                continue
            lines.append(f"    {'column':<16s} {'mode':<16s} "
                         f"{'seconds':>8s} {'rows/s':>10s} {'blocks':>7s} "
                         f"{'probes':>7s} {'fallback':>8s}")
            for col in run.columns:
                blocks = col.counters.get("blocks", 0)
                probes = sum(col.probes.values())
                lines.append(
                    f"    {col.name:<16s} {col.mode:<16s} "
                    f"{col.seconds:8.3f} "
                    f"{_rps(col.rows, col.seconds):10,.0f} "
                    f"{blocks:7d} {probes:7d} "
                    f"{col.sequential_fallback_rate:7.1%}")
        return "\n".join(lines)
