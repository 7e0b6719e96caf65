"""Block-scheduled vectorized sampling engine: every draw runs here.

Algorithm 3 is sequential by definition: every cell's violation penalty
is counted against the prefix of already-sampled rows.  Run literally —
the per-row reference loop in ``tests/row_reference.py`` — that is a
Python loop per constrained cell, and at production ``n`` the sampler
is bounded by interpreter overhead, not by the index math.  This module
restructures the same computation around two observations:

1.  **Conflict-free blocks.**  Within one column pass, a row's penalty
    only depends on prefix rows in the *same* constraint group (an FD's
    determinant group, an order DC's equality group) — groups whose
    keys are fully determined by earlier columns.  Consecutive rows
    whose group keys are pairwise disjoint cannot influence each
    other's penalties, so an entire block can be scored and drawn in
    one shot: batched candidate matrices, batched index probes
    (``probe_many`` / ``probe_block_codes`` on the violation indexes),
    and a single gumbel-argmax per block.  Columns where a group key
    cannot be determined up front (the target feeds a determinant, an
    eq-less order DC, a generic binary DC) degrade to singleton blocks
    — exactly the sequential semantics, minus the per-row rng calls.
    Columns whose DCs are all FDs counted in dense tables go further:
    a block of rows that may share groups is scored in one shot, and
    the prefix a row-at-a-time pass would keep folds in bulk
    (:meth:`_ColumnPass.fill_cat`, :meth:`_ColumnPass._fill_num_fd_lane`).

2.  **Counter-based per-cell noise.**  All randomness comes from
    :class:`numpy.random.Philox` streams keyed by ``(seed, column,
    row-chunk)`` with a fixed per-row slot layout, so each cell reads
    the *same* uniforms no matter how rows are grouped into blocks or
    sharded across workers.  The drawn instance is a pure function of
    ``(model, DCs, weights, n, seed)`` — block size and worker count
    are scheduling details.  That property is what makes **sharded
    parallel draws** safe: ``workers=k`` fans the unconstrained-column
    row ranges out over a thread pool and stitches shards bit-identical
    to ``workers=1``.

Selection itself uses the Gumbel-max trick: ``argmax(logp - penalty +
gumbel)`` draws from exactly the normalised-product distribution of
Algorithm 3 line 10, so the engine samples from the *same law* as the
per-row reference loop (their draws differ only through the rng
scheme).

Built on those two properties, three further execution lanes (all
bit-identical to the plain single-worker draw, pinned by
``tests/test_engine_blocked.py``):

3.  **Group-disjoint constrained sub-schedules.**  Rows in different
    determinant / equality groups provably cannot interact, so a
    constrained column whose group keys are determined up front can be
    partitioned into *group-closed* row shards (:func:`_shard_rows`,
    union-find over the per-DC group ids) and each shard run as its own
    sub-schedule with shard-local violation indexes — the same pass,
    gathered onto the shard's rows.

4.  **A process-pool lane** (``pool="process"``): shards ship to worker
    processes as compact picklable specs (row indices + gathered
    context slices + the noise key); each worker holds one
    :class:`_ColumnSampler` built from the model payload at pool init
    and recomputes its base conditional locally (the conditional is
    row-pure).  Outputs stitch back by row index — bit-identical to
    ``workers=1`` because every cell's noise is position-pure.

5.  **Streaming chunked draws** (:func:`synthesize_stream`): the same
    column passes run chunk-major with per-column state (violation
    indexes, FD lookups, used-value sets, noise streams) persisting
    across chunks, yielding bounded-memory row chunks whose
    concatenation equals the single-shot draw bit for bit.  DC shapes
    that would need the full sampled prefix raise
    :class:`~repro.core.sampling.PrefixScanRequired` instead of
    silently degrading.

Entry points: :func:`synthesize_engine`, behind
:meth:`repro.core.kamino.FittedKamino.sample`, and
:func:`synthesize_stream`, behind
:meth:`~repro.core.kamino.FittedKamino.sample_stream`.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro.core.hyper import HyperSpec
from repro.faults import fault_point
from repro.core.sampling import (
    CONSISTENT_LIMIT,
    PrefixScanRequired,
    _allocate_columns,
    _allocate_working,
    _append_row,
    _ColumnSampler,
    _forced_value,
    _mcmc_resample,
    _record_fd,
)
from repro.constraints.index import (
    MAX_GRID_CELLS, ArrayFDViolationIndex, FDViolationIndex,
)
from repro.constraints.violations import multi_candidate_violation_counts
from repro.schema.table import Table

_LOG = logging.getLogger("repro.engine")

#: Fixed row-chunk of the counter-based noise streams.  Part of the
#: persisted rng spec (model format v2): draws reproduce only under the
#: chunking they were made with.
NOISE_CHUNK = 2048

#: Default cap on conflict-free block length (bounds peak probe width).
MAX_BLOCK_ROWS = 512

#: Smallest window of the numerical FD lane, which otherwise sizes each
#: window at twice the rows the last one kept (capped at the block cap).
_MIN_WINDOW_ROWS = 32

#: Rows below which sharding an unconstrained column is not worth the
#: thread handoff.
_MIN_SHARD_ROWS = 2048

#: Default row-chunk of a streaming draw (``sample_stream``); a pure
#: scheduling knob — chunk boundaries never change a cell.
STREAM_CHUNK_ROWS = 65536

#: Bounds on the per-column chunk caches (noise matrices and base
#: candidate matrices).  Small LRUs: a streaming n=10M draw touches
#: thousands of chunks but only ever needs the last few.
_NOISE_CACHE_CHUNKS = 4
_BASE_CACHE_CHUNKS = 2

#: The rng spec persisted with every fitted model.
ENGINE_RNG_SPEC = {"scheme": "philox-cell", "chunk": NOISE_CHUNK}

#: Per-row uniform slots consumed by one fresh-value draw sequence.
_FRESH_TRIES = 24
#: Candidate-slot bounds mirrored from the per-row helpers' limits:
#: ``_consistent_values`` yields at most 4 dependents + 2 order
#: endpoints per DC; ``_fresh_values`` at most 2 values per row.
_CONSISTENT_SLOTS = 6
_FRESH_SLOTS = 2

_EMPTY = np.empty(0, dtype=np.float64)


def _gumbel(u: np.ndarray) -> np.ndarray:
    """Gumbel noise from uniforms (same guards as
    :func:`repro.core.sampling._gumbel_argmax`)."""
    return -np.log(-np.log(u + 1e-300) + 1e-300)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniform pairs, fixed two-per-normal.

    ``u`` has shape (B, 2d); the result has shape (B, d).  Inverse-free
    and exactly reproducible everywhere (no ziggurat, whose rejection
    loop consumes a data-dependent number of words).
    """
    d = u.shape[1] // 2
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, :d]))
    return r * np.cos(2.0 * np.pi * u[:, d:])


class _LRU:
    """A tiny bounded mapping with least-recently-used eviction.

    Backs the per-column chunk caches (regenerated noise matrices, base
    candidate matrices): hits move the chunk to the back, inserts evict
    from the front once ``cap`` entries are held — so long draws and
    streaming runs hold O(cap) chunks regardless of n.
    """

    __slots__ = ("cap", "_data")

    def __init__(self, cap: int):
        self.cap = int(cap)
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.cap:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data


class _CellNoise:
    """Counter-based per-cell uniform streams for one column.

    Row ``i``'s noise is row ``i % chunk`` of the ``(chunk, stride)``
    matrix drawn from the Philox stream keyed ``(seed, tag, i //
    chunk)``.  Chunks are fixed, so any row range regenerates the same
    values regardless of block boundaries or which worker asks.
    """

    def __init__(self, seed: int, tag: int, stride: int,
                 chunk: int = NOISE_CHUNK, n_rows: int | None = None):
        self.seed = seed
        self.tag = tag
        self.stride = max(int(stride), 1)
        self.chunk = int(chunk)
        self.n_rows = n_rows
        self._cache = _LRU(_NOISE_CACHE_CHUNKS)

    def _chunk_rows(self, c: int) -> np.ndarray:
        cached = self._cache.get(c)
        if cached is None:
            rows = self.chunk
            if self.n_rows is not None:
                # Generating only the needed prefix of the final chunk
                # yields the same values (Generator.random fills the
                # matrix row-major from one stream), just cheaper.
                rows = min(rows, self.n_rows - c * self.chunk)
            bitgen = np.random.Philox(
                np.random.SeedSequence([self.seed, self.tag, c]))
            cached = np.random.Generator(bitgen).random(
                (rows, self.stride))
            self._cache.put(c, cached)
        return cached

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The (hi - lo, stride) noise matrix for rows [lo, hi)."""
        if hi <= lo:
            return np.empty((0, self.stride))
        first, last = lo // self.chunk, (hi - 1) // self.chunk
        if first == last:
            block = self._chunk_rows(first)
            return block[lo - first * self.chunk:hi - first * self.chunk]
        parts = []
        for c in range(first, last + 1):
            block = self._chunk_rows(c)
            base = c * self.chunk
            parts.append(block[max(lo - base, 0):min(hi - base, self.chunk)])
        return np.concatenate(parts, axis=0)


class _OffsetNoise:
    """A noise view shifted by a fixed global row offset.

    Streaming chunks (and contiguous shard specs) work on chunk-local
    arrays but every cell must read the uniforms of its *global* row —
    local row ``r`` maps to ``offset + r`` of the inner stream.
    """

    __slots__ = ("inner", "offset", "stride", "chunk")

    def __init__(self, inner, offset: int):
        self.inner = inner
        self.offset = int(offset)
        self.stride = inner.stride
        self.chunk = inner.chunk

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self.inner.rows(lo + self.offset, hi + self.offset)


class _GatherNoise:
    """A noise view over an arbitrary (sorted) global row selection.

    Group-closed shards gather non-contiguous rows; local row ``r``
    maps to global row ``rows[r]``.  Rows are fetched chunk by chunk so
    regeneration cost matches the contiguous path.
    """

    __slots__ = ("inner", "_rows", "stride", "chunk")

    def __init__(self, inner, rows: np.ndarray):
        self.inner = inner
        self._rows = np.asarray(rows, dtype=np.int64)
        self.stride = inner.stride
        self.chunk = inner.chunk

    def rows(self, lo: int, hi: int) -> np.ndarray:
        sel = self._rows[lo:hi]
        if sel.shape[0] == 0:
            return np.empty((0, self.stride))
        out = np.empty((sel.shape[0], self.stride))
        chunks = sel // self.chunk
        for c in np.unique(chunks):
            mask = chunks == c
            block = self.inner._chunk_rows(int(c))
            out[mask] = block[sel[mask] - int(c) * self.chunk]
        return out


@dataclass
class _Layout:
    """Per-row noise slot layout of one column."""

    kind: str          # "cat" | "num" | "numhist"
    d: int             # base candidate count (V, d, or q)
    extras: int        # worst-case appended candidates per row
    fresh_off: int     # offset of the fresh-value uniforms (or -1)
    gumbel_off: int    # offset of the gumbel slots
    stride: int

    @property
    def width(self) -> int:
        """Widest candidate vector any row can present."""
        return self.d + self.extras


def _layout_for(sampler: _ColumnSampler, j: int, base) -> _Layout:
    w = sampler.wseq[j]
    hard_binary = sum(
        1 for dc in sampler.active_at[j]
        if dc.hard and not dc.is_unary and w in dc.attributes)
    track_fresh = sampler.fresh_value_tracker(j) is not None
    if base[0] == "cat":
        d = sampler.wrel[w].domain.size
        return _Layout("cat", d, 0, -1, 0, d)
    if base[0] == "num":
        d = sampler.params.num_candidates
        value_slots = 2 * d          # box-muller pairs
    else:
        d = base[1].probs.shape[0]
        value_slots = d              # one in-bin decode uniform per bin
    extras = (_CONSISTENT_SLOTS * hard_binary
              + (_FRESH_SLOTS if track_fresh else 0))
    fresh = _FRESH_TRIES if track_fresh else 0
    gumbel_off = value_slots
    fresh_off = value_slots + d + extras if fresh else -1
    stride = value_slots + d + extras + fresh
    return _Layout(base[0], d, extras, fresh_off, gumbel_off, stride)


# ----------------------------------------------------------------------
# Unconstrained columns: fully vectorized, shardable across workers
# ----------------------------------------------------------------------
def _draw_unconstrained(sampler: _ColumnSampler, j: int, base,
                        layout: _Layout, noise: _CellNoise, cols: dict,
                        wcols: dict, lo: int, hi: int) -> None:
    w = sampler.wseq[j]
    wattr = sampler.wrel[w]
    u = noise.rows(lo, hi)
    if layout.kind == "cat":
        codes = np.argmax(base[1][lo:hi] + _gumbel(u[:, :layout.d]), axis=1)
        wcols[w][lo:hi] = codes
        if sampler.hyper.is_hyper(w):
            for attr, values in sampler.hyper.decode_codes(w, codes).items():
                cols[attr][lo:hi] = values
    elif layout.kind == "num":
        d = layout.d
        mu, sigma = base[1][lo:hi], base[2][lo:hi]
        z = _box_muller(u[:, :2 * d])
        cand = sampler.snap(
            w, wattr.domain.clip(mu[:, None] + sigma[:, None] * z))
        logp = -0.5 * ((cand - mu[:, None]) / sigma[:, None]) ** 2
        pick = np.argmax(
            logp + _gumbel(u[:, layout.gumbel_off:layout.gumbel_off + d]),
            axis=1)
        wcols[w][lo:hi] = cand[np.arange(hi - lo), pick]
    else:
        hist = base[1]
        q = layout.d
        logp = hist.log_prob_codes()[None, :]
        bins = np.argmax(
            logp + _gumbel(u[:, layout.gumbel_off:layout.gumbel_off + q]),
            axis=1)
        edges = hist.quantizer.edges
        dec = u[np.arange(hi - lo), bins]
        values = edges[bins] + dec * (edges[bins + 1] - edges[bins])
        wcols[w][lo:hi] = sampler.snap(
            w, hist.quantizer.domain.clip(values))


def _fill_unconstrained(sampler: _ColumnSampler, j: int, base,
                        layout: _Layout, noise_key: tuple, cols: dict,
                        wcols: dict, n: int,
                        pool: ThreadPoolExecutor | None,
                        workers: int, tracer=None) -> None:
    def run(lo: int, hi: int) -> None:
        # Each shard builds its own noise view: streams are keyed by
        # fixed chunks, so regeneration is bit-identical and the shard
        # split never shows in the output.
        _draw_unconstrained(sampler, j, base, layout,
                            _CellNoise(*noise_key), cols, wcols, lo, hi)

    if pool is None or n < max(2 * _MIN_SHARD_ROWS, workers):
        if tracer is not None:
            tracer.count("shards")
        run(0, n)
        return
    bounds = np.linspace(0, n, workers + 1).astype(int)
    spans = [(int(bounds[k]), int(bounds[k + 1]))
             for k in range(workers) if bounds[k] < bounds[k + 1]]
    if tracer is not None:
        tracer.count("shards", len(spans))
    list(pool.map(lambda se: run(se[0], se[1]), spans))


# ----------------------------------------------------------------------
# Constrained columns: conflict-aware blocks
# ----------------------------------------------------------------------
def _conflict_keys(sampler: _ColumnSampler, j: int) -> list | None:
    """Per-DC group-key attribute tuples, or None for conflict-all.

    A column can be block-scheduled only when every active non-unary DC
    has a group key (FD determinant / order equality attributes) fully
    determined by earlier positions and untouched by the target —
    otherwise any candidate could move a row into any group and every
    pair of rows potentially interacts.
    """
    w = sampler.wseq[j]
    if sampler.hyper.is_hyper(w):
        target_attrs = set(sampler.hyper.original_attrs(w))
    else:
        target_attrs = {w}
    earlier = sampler.covered_after[j - 1] if j > 0 else set()
    specs = []
    for dc in sampler.active_at[j]:
        if dc.is_unary:
            continue  # penalties depend on the row alone: no conflicts
        fd = dc.as_fd()
        if fd is not None:
            key = tuple(fd[0])
        else:
            shape = dc.as_conditional_order()
            if shape is None or not shape[0]:
                return None  # generic binary / eq-less order: one group
            key = tuple(shape[0])
        if any(a in target_attrs for a in key) or not set(key) <= earlier:
            return None
        specs.append(key)
    return specs


def _conflict_blocks(specs: list, cols: dict, n: int, max_block: int):
    """Greedy partition of 0..n into conflict-free consecutive blocks."""
    if not specs:
        # Only unary DCs: rows never interact; cap block width anyway to
        # bound the penalty-matrix memory.
        for lo in range(0, n, max_block):
            yield (lo, min(lo + max_block, n))
        return
    key_rows = []
    for s, key in enumerate(specs):
        columns = [cols[a].tolist() for a in key]
        key_rows.append(list(zip(*columns)) if len(columns) > 1
                        else columns[0])
    seen: set = set()
    start = 0
    for i in range(n):
        row_keys = [(s, key_rows[s][i]) for s in range(len(specs))]
        if (i - start) >= max_block or any(k in seen for k in row_keys):
            yield (start, i)
            seen.clear()
            start = i
        seen.update(row_keys)
    if n > start:
        yield (start, n)


def _python_keys(mode: str, side) -> list:
    """An FD-lane side as per-row python keys: determinant key tuples
    (``dep`` mode) or dependent values (``det`` mode).  A list already
    is; a code array (count-table lane) becomes one, a determinant code
    ``c`` the key ``(c,)`` (see ``ArrayFDViolationIndex._key_code``)."""
    if isinstance(side, list):
        return side
    codes = side.tolist()
    return [(v,) for v in codes] if mode == "dep" else codes


def _first_conflict(group: np.ndarray, dep: np.ndarray,
                    fresh: np.ndarray | None = None) -> int:
    """First row with an earlier row of the same group holding another
    dependent, or ``len(group)`` when there is none.

    Within a group (rows in order), the first such row is the first
    whose dependent differs from the group's first row's.  ``fresh``
    (optional) marks rows whose dependent is new to their group; a row
    after such a row of its group conflicts too.
    """
    n = group.shape[0]
    order = np.argsort(group, kind="stable")
    g, d = group[order], dep[order]
    starts = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
    lengths = np.diff(np.append(starts, n))
    bad = d != np.repeat(d[starts], lengths)
    if fresh is not None:
        f = fresh[order].astype(np.int64)
        before = np.cumsum(f) - f
        bad |= before > np.repeat(before[starts], lengths)
    bad = order[bad]
    return int(bad.min()) if bad.size else n


# ----------------------------------------------------------------------
# Group-disjoint sub-schedules: partition rows into closed shards
# ----------------------------------------------------------------------
def _group_components(specs: list, cols: dict, n: int) -> np.ndarray:
    """Connected-component id per row under the group-key relation.

    Two rows interact iff they share a group under *some* active DC, so
    the closed units are the connected components of the union of the
    per-spec group partitions — computed with a union-find over the
    per-spec group ids (unions only over the distinct co-occurring
    pairs, not per row).
    """
    inv = []
    for key in specs:
        if len(key) == 1:
            _, ids = np.unique(cols[key[0]][:n], return_inverse=True)
        else:
            stack = np.stack([cols[a][:n] for a in key], axis=1)
            _, ids = np.unique(stack, axis=0, return_inverse=True)
        inv.append(ids.astype(np.int64))
    if len(inv) == 1:
        return inv[0]
    offsets = np.cumsum([0] + [int(ids.max()) + 1 for ids in inv[:-1]])
    parent = np.arange(offsets[-1] + int(inv[-1].max()) + 1,
                       dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    base = inv[0]
    for s in range(1, len(inv)):
        pairs = np.unique(np.stack(
            [base, inv[s] + offsets[s]], axis=1), axis=0)
        for a, b in pairs:
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                # Deterministic: the smaller root id wins.
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
    roots = np.array([find(int(g)) for g in range(offsets[1])],
                     dtype=np.int64)
    _, comp = np.unique(roots[base], return_inverse=True)
    return comp


def _shard_rows(specs: list | None, cols: dict, n: int,
                k: int) -> list[np.ndarray] | None:
    """Partition rows 0..n into ≤ ``k`` group-closed shards, or None.

    Rows sharing a constraint group always land in the same shard, so
    shard-local sub-schedules (with shard-local indexes) compute the
    exact same penalties as the sequential pass — the partition is pure
    scheduling.  Components are balanced greedily (largest first onto
    the lightest shard; deterministic tie-breaks).  Returns None when
    sharding cannot pay off: too few rows, a single dominating
    component, or no spec structure at all (``specs is None``).
    """
    if specs is None or k <= 1 or n < max(2 * _MIN_SHARD_ROWS, k):
        return None
    if not specs:
        # Unary-only column: every row is its own component.
        bounds = np.linspace(0, n, k + 1).astype(int)
        return [np.arange(bounds[t], bounds[t + 1], dtype=np.int64)
                for t in range(k) if bounds[t] < bounds[t + 1]]
    comp = _group_components(specs, cols, n)
    sizes = np.bincount(comp)
    if int(sizes.max()) > n - _MIN_SHARD_ROWS:
        return None  # one component dominates: sharding buys nothing
    order = np.lexsort((np.arange(sizes.shape[0]), -sizes))
    load = np.zeros(k, dtype=np.int64)
    shard_of_comp = np.empty(sizes.shape[0], dtype=np.int64)
    for comp_id in order:
        t = int(np.argmin(load))  # first minimum: deterministic
        shard_of_comp[comp_id] = t
        load[t] += sizes[comp_id]
    shard_of_row = shard_of_comp[comp]
    shards = [np.flatnonzero(shard_of_row == t) for t in range(k)]
    shards = [s for s in shards if s.shape[0]]
    return shards if len(shards) > 1 else None


@dataclass
class _PassState:
    """Per-column incremental state that outlives one chunk.

    A single-shot pass creates (and discards) this implicitly; a
    streaming draw keeps one per column so the violation indexes, FD
    lookups, and used-value sets accumulate across chunks exactly as
    they would over one long pass.
    """

    vio: dict
    fd_indexes: list
    used: set | None


class _ColumnPass:
    """Shared state of one constrained column pass.

    ``state`` carries persistent per-column indexes across streaming
    chunks (None builds fresh ones — the single-shot case).  ``strict``
    raises :class:`PrefixScanRequired` instead of scanning the local
    prefix (which, in a chunk, is not the global prefix).
    ``row_offset`` is the global index of local row 0, used only for
    the "is the global prefix empty" guards of the candidate
    augmentation — never for array indexing.
    """

    def __init__(self, sampler: _ColumnSampler, j: int, base,
                 layout: _Layout, noise, cols: dict,
                 wcols: dict, fd_indexes: list | None = None,
                 tracer=None, state: _PassState | None = None,
                 strict: bool = False, row_offset: int = 0):
        self.sampler = sampler
        self.j = j
        self.base = base
        self.layout = layout
        self.noise = noise
        self.cols = cols
        self.wcols = wcols
        self.strict = strict
        self.row_offset = int(row_offset)
        self.w = sampler.wseq[j]
        if state is not None:
            self.vio = state.vio
            self.fd_indexes = state.fd_indexes
            self.used = state.used
        else:
            self.vio = sampler.violation_indexes_for(j)
            self.fd_indexes = (fd_indexes if fd_indexes is not None
                               else sampler.fd_indexes_for(j))
            self.used = sampler.fresh_value_tracker(j)
        self.tracer = tracer
        if tracer is not None:
            # Route every index probe into the column's probe counters;
            # constrained passes are single-threaded, so a plain dict
            # is race-free.
            for index in self.vio.values():
                index.counters = tracer.probes
        self.active = sampler.active_at[j]
        if layout.kind == "cat":
            codes = np.arange(layout.d, dtype=np.int64)
            if sampler.hyper.is_hyper(self.w):
                self.decoded = sampler.hyper.decode_codes(self.w, codes)
                self.decoded_is_codes = False
            else:
                self.decoded = {self.w: codes}
                self.decoded_is_codes = True
        else:
            self.decoded = None
            self.decoded_is_codes = False
        self._active_specs = [
            (dc, sampler.weight_of(dc),
             tuple(a for a in (self.decoded or {}) if a in dc.attributes))
            for dc in self.active]
        self._chunk_cache = _LRU(_BASE_CACHE_CHUNKS)
        self._n_rows = next(iter(cols.values())).shape[0]

    # -- penalties -----------------------------------------------------
    def _penalty(self, rows: np.ndarray, target_values,
                 per_row_tv: list | None,
                 prefix_upto: int | None = None) -> np.ndarray:
        """(B, width) weighted violation counts for the scored rows.

        ``target_values`` is the shared candidate decode (categorical)
        or None; ``per_row_tv`` lists per-row candidate dicts
        (numerical).  Probes go through the violation indexes
        (``probe_many``); DCs without one fall back to the scan engine
        — over the prefix ``[:prefix_upto]`` (the block start, matching
        the index state) or each row's own prefix when None.  Counts
        agree bit for bit, so ``use_violation_index`` never changes the
        draw.
        """
        cols = self.cols
        width = (next(iter(target_values.values())).shape[0]
                 if target_values is not None
                 else per_row_tv[0][self.w].shape[0])
        penalty = np.zeros((rows.shape[0], width))
        for dc, weight, tattrs in self._active_specs:
            fast = None
            if target_values is not None:
                fast = self._fd_block_counts(dc, tattrs, rows,
                                             target_values)
            if fast is not None:
                penalty += weight * fast
                continue
            if target_values is not None:
                tv = {a: target_values[a] for a in tattrs}
                tv_arg = tv
            else:
                tv_arg = [{a: v for a, v in row_tv.items()
                           if a in dc.attributes}
                          for row_tv in per_row_tv]
                tv = tv_arg[0]
            ctx_attrs = [a for a in dc.attributes if a not in tv]
            contexts = [{a: cols[a][i] for a in ctx_attrs} for i in rows]
            counts = None
            index = self.vio.get(dc.name)
            if index is not None:
                counts = index.probe_many(tv_arg, contexts)
            if counts is None:
                self._check_scan_allowed(dc)
                counts = np.vstack([
                    multi_candidate_violation_counts(
                        dc,
                        tv_arg if isinstance(tv_arg, dict) else tv_arg[r],
                        contexts[r],
                        {a: cols[a][:(prefix_upto if prefix_upto
                                      is not None else i)]
                         for a in dc.attributes})
                    for r, i in enumerate(rows)])
            penalty += weight * counts
        return penalty

    def _check_scan_allowed(self, dc) -> None:
        """Strict mode refuses prefix scans for non-unary DCs.

        A streaming chunk's local prefix is not the global one, so a
        scan would silently change the draw; unary penalties ignore the
        prefix entirely and always scan safely.
        """
        if self.strict and not dc.is_unary:
            raise PrefixScanRequired(
                f"DC {dc.name!r} needs a prefix scan at column "
                f"{self.w!r}; streaming draws require an index-served "
                f"probe path (use_violation_index=True, and a DC whose "
                f"predicates each compare one attribute over a value "
                f"grid of at most {MAX_GRID_CELLS} cells)")

    def _fd_block_counts(self, dc, tattrs: tuple, rows: np.ndarray,
                         target_values: dict) -> np.ndarray | None:
        """Vectorized block counts for the two hot FD probe layouts.

        Dependent-target (determinant known): one histogram subtraction
        per row via ``probe_block_codes``.  Determinant-target (single
        determinant attribute, dependent known): one det-major cache
        subtraction per row via ``probe_det_codes``.  None on any other
        layout — the caller takes the generic path.
        """
        index = self.vio.get(dc.name)
        if not isinstance(index, FDViolationIndex) \
                or not self.decoded_is_codes:
            return None
        cols, size = self.cols, self.layout.d
        if tattrs == (index.dependent,):
            det_cols = [cols[a][rows].tolist() for a in index.determinant]
            if len(det_cols) == 1:
                keys = [(v,) for v in det_cols[0]]
            else:
                keys = list(zip(*det_cols))
            return index.probe_block_codes(keys, size)
        if (len(index.determinant) == 1
                and tattrs == (index.determinant[0],)):
            deps = cols[index.dependent][rows].tolist()
            out = np.empty((rows.shape[0], size), dtype=np.int64)
            for r, dep in enumerate(deps):
                counts = index.probe_det_codes(dep, size)
                if counts is None:
                    return None
                out[r] = counts
            return out
        return None

    # -- scoring -------------------------------------------------------
    def _pen_at(self, i: int, pick: int) -> float:
        """Row ``i``'s penalty at candidate ``pick`` vs the live state.

        Same per-DC accumulation order (and hence bitwise-identical
        float result) as :meth:`_penalty` restricted to one candidate,
        so equality against the block-start matrix entry means "nothing
        this row depends on changed".
        """
        total = 0.0
        cols = self.cols
        for dc, weight, tattrs in self._active_specs:
            row = {a: cols[a][i] for a in dc.attributes if a not in tattrs}
            for a in tattrs:
                row[a] = self.decoded[a][pick]
            counts = None
            index = self.vio.get(dc.name)
            if index is not None:
                counts = index.candidate_counts(None, row)
            if counts is None:
                self._check_scan_allowed(dc)
                tv = {a: self.decoded[a][pick:pick + 1] for a in tattrs}
                context = {a: row[a] for a in dc.attributes
                           if a not in tattrs}
                counts = multi_candidate_violation_counts(
                    dc, tv, context,
                    {a: cols[a][:i] for a in dc.attributes})
            total += weight * counts[0]
        return total

    def _rescore_cat_row(self, i: int, logp_row: np.ndarray,
                         g_row: np.ndarray) -> int:
        """Sequential-exact re-score of one row against the live state."""
        rows = np.asarray([i], dtype=np.int64)
        penalty = self._penalty(rows, self.decoded, None)[0]
        return int(np.argmax(logp_row - penalty + g_row))

    def _write_cat(self, i: int, pick: int) -> None:
        self.wcols[self.w][i] = pick
        if self.sampler.hyper.is_hyper(self.w):
            for attr, values in self.decoded.items():
                self.cols[attr][i] = values[pick]

    def fill_cat(self, n: int, max_block: int) -> None:
        """Optimistic fixed blocks with per-row validation (cat target).

        Every block is scored in one shot against the block-start index
        state; rows are then validated in order against the live state.
        A row is kept iff its picked candidate's penalty is unchanged —
        exact, because in-block penalties are monotone nondecreasing
        (groups only grow), so other candidates' scores can only have
        fallen and the original first-index argmax still wins.  Rows
        that fail the check (an earlier in-block row entered one of
        their groups disruptively) are re-scored sequentially with the
        same per-cell noise, which is exactly the singleton-block
        computation.

        Columns whose active DCs are all FD-shaped (plus any unary) run
        the allocation-free pair-probe lane; anything else goes through
        the generic probe machinery.  Both lanes produce the same draws
        for any block size.
        """
        specs = self._fd_lane_specs()
        if self.tracer is not None:
            self.tracer.mode = ("cat-fd-lane" if specs is not None
                                else "cat-generic")
        if specs is not None:
            self._fill_cat_fd_lane(n, max_block, specs)
        else:
            self._fill_cat_generic(n, max_block)

    def _fill_cat_generic(self, n: int, max_block: int) -> None:
        cols, w = self.cols, self.w
        tracer = self.tracer
        V = self.layout.d
        for lo in range(0, n, max_block):
            hi = min(lo + max_block, n)
            if tracer is not None:
                tracer.observe_block(hi - lo)
            rows = np.arange(lo, hi, dtype=np.int64)
            u = self.noise.rows(lo, hi)
            logp = self.base[1][lo:hi]
            g = _gumbel(u[:, :V])
            penalty = self._penalty(rows, self.decoded, None,
                                    prefix_upto=lo)
            picks = np.argmax(logp - penalty + g, axis=1)
            for i in range(lo, hi):
                r = i - lo
                if self.fd_indexes:
                    forced = _forced_value(self.fd_indexes, cols, i)
                    if forced is not None:
                        if tracer is not None:
                            tracer.count("forced_rows")
                        self.wcols[w][i] = forced
                        self._fold_row(i)
                        continue
                pick = int(picks[r])
                if self._pen_at(i, pick) != penalty[r, pick]:
                    if tracer is not None:
                        tracer.count("rescored_rows")
                    pick = self._rescore_cat_row(i, logp[r], g[r])
                self._write_cat(i, pick)
                self._fold_row(i)

    def _fd_lane_specs(self) -> list | None:
        """Per-DC ``(weight, index, mode, source_attrs)`` for the pure-
        FD fast lane, or None when any active non-unary DC doesn't fit
        (no index, non-FD shape, hyper target, composite det target).
        """
        if not self.decoded_is_codes:
            return None
        specs = []
        for dc, weight, tattrs in self._active_specs:
            if dc.is_unary:
                continue
            index = self.vio.get(dc.name)
            if not isinstance(index, FDViolationIndex):
                return None
            if tattrs == (index.dependent,):
                specs.append((weight, index, "dep", index.determinant))
            elif (len(index.determinant) == 1
                    and tattrs == (index.determinant[0],)):
                specs.append((weight, index, "det", (index.dependent,)))
            else:
                return None
        return specs

    def _unary_penalty(self, lo: int, hi: int) -> np.ndarray | None:
        """(B, V) weighted unary counts (prefix-independent), or None."""
        unary = [(dc, wt) for dc, wt, _ in self._active_specs
                 if dc.is_unary]
        if not unary:
            return None
        cols, V = self.cols, self.layout.d
        penalty = np.zeros((hi - lo, V))
        for dc, weight in unary:
            tv = {a: self.decoded[a] for a in dc.attributes
                  if a in self.decoded}
            ctx_attrs = [a for a in dc.attributes if a not in tv]
            counts = np.vstack([
                multi_candidate_violation_counts(
                    dc, tv, {a: cols[a][i] for a in ctx_attrs}, {})
                for i in range(lo, hi)])
            penalty += weight * counts
        return penalty

    def _fill_cat_fd_lane(self, n: int, max_block: int,
                          specs: list) -> None:
        """The hot lane: FD-only columns, integer-exact validation.

        Per block: one vectorized probe per DC, one gumbel-argmax, then
        the rows are kept or re-scored exactly as a row-at-a-time pass
        would.  A row's live count at its pick exceeds the block-start
        count only by the earlier in-block rows of its FD group that
        hold another dependent.  So when every index is an
        :class:`ArrayFDViolationIndex`, the rows before the first such
        row (and before the first FD-lookup forced row) keep their
        picks and fold in with one ``add_codes`` per DC.  From there on,
        rows are validated one at a time with O(1) pair probes and
        re-scored against the live state when a count moved.
        Validation compares raw per-DC counts (integers), so keep/
        rescore decisions carry no float subtleties at all.

        Traced, the lane counts ``hard_violation_pairs``: the violating
        pairs its picks add under hard FDs, nonzero only where no
        zero-violation code existed.
        """
        cols = self.cols
        tracer = self.tracer
        V = self.layout.d
        logp_all = self.base[1]
        tables = all(isinstance(index, ArrayFDViolationIndex)
                     for _, index, _, _ in specs)
        for lo in range(0, n, max_block):
            hi = min(lo + max_block, n)
            B = hi - lo
            if tracer is not None:
                tracer.observe_block(B)
            u = self.noise.rows(lo, hi)
            g = _gumbel(u[:, :V])
            scores = logp_all[lo:hi] + g
            per_dc = []
            for weight, index, mode, src in specs:
                if tables and mode == "dep":
                    side = index.group_codes(cols, slice(lo, hi))
                    counts = index.dep_counts(side)
                elif tables:
                    side = cols[src[0]][lo:hi]
                    counts = index.det_counts(side)
                elif mode == "dep":
                    src_cols = [cols[a][lo:hi].tolist() for a in src]
                    side = ([(v,) for v in src_cols[0]]
                            if len(src_cols) == 1 else list(zip(*src_cols)))
                    counts = index.probe_block_codes(side, V)
                else:
                    side = cols[src[0]][lo:hi].tolist()
                    counts = np.empty((B, V), dtype=np.int64)
                    for r, dep in enumerate(side):
                        index.probe_det_codes(dep, V, out=counts[r])
                per_dc.append((weight, index, mode, side, counts))
                scores -= weight * counts
            pen_unary = self._unary_penalty(lo, hi)
            if pen_unary is not None:
                scores -= pen_unary
            picks = np.argmax(scores, axis=1)
            stop = self._fold_kept_prefix(per_dc, picks, lo) if tables else 0
            hard_pairs = 0
            if tracer is not None and stop:
                kept = np.arange(stop)
                hard_pairs = sum(int(counts[kept, picks[:stop]].sum())
                                 for _, index, _, _, counts in per_dc
                                 if index.dc.hard)
            if stop < B:
                hard_pairs += self._fill_fd_rows(per_dc, picks.tolist(),
                                                 pen_unary, g, lo, stop, B)
            if tracer is not None and hard_pairs:
                tracer.count("hard_violation_pairs", hard_pairs)

    def _fold_kept_prefix(self, per_dc: list, picks: np.ndarray, lo: int,
                          values: np.ndarray | None = None,
                          fresh: list | None = None) -> int:
        """Write and fold the block rows a row-at-a-time pass would keep
        as picked; returns how many (a prefix of the block).

        ``picks`` are the picked table columns (codes, or the dependent's
        grid ranks) and ``values`` the working values written (default:
        the picks).  The prefix ends at the first row with an earlier
        in-block row of one of its FD groups holding another dependent,
        or one new to the group where that DC's ``fresh`` mask is given
        (see :func:`_first_conflict`), or at the first row an FD lookup
        forces.
        """
        values = picks if values is None else values
        stop = picks.shape[0]
        for s, (_, _, mode, side, _) in enumerate(per_dc):
            group, dep = (side, picks) if mode == "dep" else (picks, side)
            new = None if fresh is None else fresh[s]
            stop = _first_conflict(group[:stop], dep[:stop],
                                   None if new is None else new[:stop])
        if self.fd_indexes:
            # Forced values depend on the rows recorded before them, so
            # this check walks the prefix row by row.
            for r in range(stop):
                i = lo + r
                if _forced_value(self.fd_indexes, self.cols, i) is not None:
                    stop = r
                    break
                self.wcols[self.w][i] = values[r]
                _record_fd(self.fd_indexes, self.cols, i)
        self.wcols[self.w][lo:lo + stop] = values[:stop]
        for _, index, mode, side, _ in per_dc:
            if mode == "dep":
                index.add_codes(side[:stop], picks[:stop])
            else:
                index.add_codes(picks[:stop], side[:stop])
        return stop

    def _fill_fd_rows(self, per_dc: list, picks: list, pen_unary,
                      g: np.ndarray, lo: int, start: int, B: int) -> int:
        """Validate, re-score and fold block rows ``start..B`` one at a
        time; returns the violating pairs the picks add under hard FDs.

        ``per_dc`` sides are per-row python keys, or a count-table
        index's code array, turned into keys here.
        """
        cols, w = self.cols, self.w
        tracer = self.tracer
        V = self.layout.d
        logp_all = self.base[1]
        per_dc = [(weight, index, mode, _python_keys(mode, side), counts)
                  for weight, index, mode, side, counts in per_dc]
        hard_pairs = 0
        for r in range(start, B):
            i = lo + r
            forced = (_forced_value(self.fd_indexes, cols, i)
                      if self.fd_indexes else None)
            if forced is not None:
                if tracer is not None:
                    tracer.count("forced_rows")
                self.wcols[w][i] = forced
                pick = int(cols[w][i])
            else:
                pick = picks[r]
                valid = True
                for weight, index, mode, side, counts in per_dc:
                    now = (index.probe_pair(side[r], pick)
                           if mode == "dep"
                           else index.probe_pair((pick,), side[r]))
                    if now != counts[r, pick]:
                        valid = False
                        break
                if not valid:
                    # Re-score vs the live state, same op order as the
                    # block pass so kept and re-scored rows are the
                    # same computation at B=1.
                    if tracer is not None:
                        tracer.count("rescored_rows")
                    s = logp_all[i] + g[r]
                    for weight, index, mode, side, counts in per_dc:
                        if mode == "dep":
                            c = index.probe_block_codes([side[r]], V)[0]
                        else:
                            c = index.probe_det_codes(side[r], V)
                        s = s - weight * c
                    if pen_unary is not None:
                        s = s - pen_unary[r]
                    pick = int(np.argmax(s))
                self.wcols[w][i] = pick
            for weight, index, mode, side, counts in per_dc:
                created = (index.add_pair(side[r], pick) if mode == "dep"
                           else index.add_pair((pick,), side[r]))
                if index.dc.hard:
                    hard_pairs += created
            _record_fd(self.fd_indexes, cols, i)
        return hard_pairs

    def _fold_row(self, i: int) -> None:
        _record_fd(self.fd_indexes, self.cols, i)
        _append_row(self.vio, self.cols, i)
        if self.used is not None:
            self.used.add(float(self.cols[self.w][i]))

    def _base_candidates(self, lo: int, hi: int):
        """(cand, logp) base candidate matrices for rows [lo, hi).

        The d base candidates of a numerical target depend only on the
        row's conditional and its noise slots — never on the sampled
        prefix — so they are computed in noise-chunk-sized vectorized
        batches and cached, independent of how the scheduler groups
        rows.
        """
        chunk = self.noise.chunk
        first, last = lo // chunk, (hi - 1) // chunk
        parts = [self._base_chunk(c) for c in range(first, last + 1)]
        base = first * chunk
        if len(parts) == 1:
            cand, logp = parts[0]
            return cand[lo - base:hi - base], logp[lo - base:hi - base]
        cand = np.concatenate([p[0] for p in parts], axis=0)
        logp = np.concatenate([p[1] for p in parts], axis=0)
        return cand[lo - base:hi - base], logp[lo - base:hi - base]

    def _base_chunk(self, c: int):
        cached = self._chunk_cache.get(c)
        if cached is not None:
            return cached
        sampler, layout = self.sampler, self.layout
        w = self.w
        wattr = sampler.wrel[w]
        d = layout.d
        lo = c * self.noise.chunk
        hi = min(lo + self.noise.chunk, self._n_rows)
        u = self.noise.rows(lo, hi)
        if layout.kind == "num":
            mu, sigma = self.base[1][lo:hi], self.base[2][lo:hi]
            z = _box_muller(u[:, :2 * d])
            cand = sampler.snap(
                w, wattr.domain.clip(mu[:, None] + sigma[:, None] * z))
            logp = -0.5 * ((cand - mu[:, None]) / sigma[:, None]) ** 2
        else:
            hist = self.base[1]
            edges = hist.quantizer.edges
            dec = u[:, :d]
            raw = edges[:-1][None, :] + dec * np.diff(edges)[None, :]
            cand = sampler.snap(w, hist.quantizer.domain.clip(raw))
            logp = np.broadcast_to(hist.log_prob_codes()[None, :],
                                   (hi - lo, d)).copy()
        self._chunk_cache.put(c, (cand, logp))
        return cand, logp

    def _score_numeric(self, rows: np.ndarray, u: np.ndarray,
                       lo: int) -> None:
        sampler, layout = self.sampler, self.layout
        w, cols = self.w, self.cols
        d, width = layout.d, layout.width
        sel = rows - lo
        B = rows.shape[0]
        hi = int(rows[-1]) + 1
        cand_all, logp_all = self._base_candidates(lo, hi)
        cand, logp = cand_all[sel], logp_all[sel]
        cmat = np.empty((B, width))
        cmat[:, :d] = cand
        if width > d:
            cmat[:, d:] = cand[:, :1]  # valid pad, masked by -inf below
        lpm = np.full((B, width), -np.inf)
        lpm[:, :d] = logp
        if layout.extras:
            for r, i in enumerate(rows):
                extra = sampler._consistent_values(
                    self.j, w, cols, int(i), indexes=self.vio,
                    strict=self.strict,
                    prefix_rows=self.row_offset + int(i))
                fresh = np.empty(0)
                if layout.fresh_off >= 0:
                    fresh = sampler._fresh_values(
                        self.j, w, cols, int(i), used=self.used,
                        uniforms=u[i - lo][layout.fresh_off:
                                           layout.fresh_off + _FRESH_TRIES],
                        prefix_rows=self.row_offset + int(i))
                added = np.concatenate([extra, fresh])
                k = added.shape[0]
                if not k:
                    continue
                cmat[r, d:d + k] = added
                if layout.kind == "num":
                    lpm[r, d:d + k] = (-0.5 * ((added - self.base[1][i])
                                               / self.base[2][i]) ** 2)
                else:
                    hist = self.base[1]
                    lpm[r, d:d + k] = hist.log_prob_codes()[
                        hist.quantizer.encode(added)]
        per_row_tv = [{w: cmat[r]} for r in range(B)]
        penalty = self._penalty(rows, None, per_row_tv, prefix_upto=lo)
        g = _gumbel(u[sel][:, layout.gumbel_off:layout.gumbel_off + width])
        pick = np.argmax(lpm - penalty + g, axis=1)
        self.wcols[w][rows] = cmat[np.arange(B), pick]

    # -- numerical FD window lane ----------------------------------------
    def _num_fd_specs(self) -> list | None:
        """``(dc, weight, index)`` per active DC (``index`` None for a
        unary DC) when every non-unary one is an FD onto this numerical
        target counted in an :class:`ArrayFDViolationIndex` over its
        value grid; else None."""
        if self.layout.kind == "cat" or self.used is not None:
            return None
        specs = []
        for dc, weight, _ in self._active_specs:
            index = None
            if not dc.is_unary:
                index = self.vio.get(dc.name)
                if (not isinstance(index, ArrayFDViolationIndex)
                        or index.dependent != self.w
                        or index.dep_universe is None):
                    return None
            specs.append((dc, weight, index))
        return specs

    def _fill_num_fd_lane(self, n: int, max_block: int,
                          specs: list) -> None:
        """Windows of rows scored in one shot against the FD tables.

        A window gathers each row's base candidates, its hard FDs' first
        prefix dependents (the extras of ``_consistent_values``), their
        log-probabilities, the penalties ``weight * (size - count)`` in
        :meth:`_penalty`'s DC order and the gumbel slots, and takes one
        argmax — the conflict-free block computation, over rows that may
        share groups.  A row keeps its pick unless an earlier row of the
        window in one of its FD groups picked another value, or (hard
        FDs, whose groups feed the extras) a value its group did not
        hold at the window start: otherwise its candidates and the
        penalty at its pick are unchanged, and since penalties only grow
        as groups grow, the same first-index argmax wins (the argument
        of :meth:`fill_cat`).  The kept prefix folds with one
        ``add_codes`` per DC and the next window starts at the first row
        not kept, sized from the prefix just kept.  FD-lookup forced
        rows end the prefix and are written one at a time.

        Traced, each window counts as a block, its scored rows beyond
        the kept prefix as ``rescored_rows``, and the violating pairs
        the picks add under hard FDs as ``hard_violation_pairs``.
        """
        cols, w, tracer = self.cols, self.w, self.tracer
        layout, base = self.layout, self.base
        d, width = layout.d, layout.width
        gum = layout.gumbel_off
        fds = [index for _, _, index in specs if index is not None]
        hard = [s for s, index in enumerate(fds) if index.dc.hard]
        grid = fds[0].dep_universe
        window, lo = max_block, 0
        while lo < n:
            if self.fd_indexes:
                forced = _forced_value(self.fd_indexes, cols, lo)
                if forced is not None:
                    self._write_forced_num(lo, forced, fds)
                    lo += 1
                    continue
            hi = min(lo + window, n)
            B = hi - lo
            rows = np.arange(B)
            groups = [index.group_codes(cols, slice(lo, hi))
                      for index in fds]
            cand, logp = self._base_candidates(lo, hi)
            cmat = np.empty((B, width))
            cmat[:, :d] = cand
            cmat[:, d:] = cand[:, :1]  # valid pad, masked by -inf below
            lpm = np.full((B, width), -np.inf)
            lpm[:, :d] = logp
            holds = {s: fds[s].holds(groups[s]) for s in hard}
            if holds:
                extra = np.zeros((B, grid.shape[0]), dtype=bool)
                for held in holds.values():
                    extra |= held & (np.cumsum(held, axis=1)
                                     <= CONSISTENT_LIMIT)
                r_idx, rank = np.nonzero(extra)
                pos = d + np.cumsum(extra, axis=1)[r_idx, rank] - 1
                added = grid[rank]
                cmat[r_idx, pos] = added
                if layout.kind == "num":
                    mu, sigma = base[1][lo + r_idx], base[2][lo + r_idx]
                    lpm[r_idx, pos] = -0.5 * ((added - mu) / sigma) ** 2
                else:
                    hist = base[1]
                    lpm[r_idx, pos] = hist.log_prob_codes()[
                        hist.quantizer.encode(added)]
            ranks = fds[0].dep_ranks(cmat)
            penalty = np.zeros((B, width))
            per_dc = []
            fd_groups = iter(groups)
            for dc, weight, index in specs:
                if index is None:
                    counts = np.vstack([
                        multi_candidate_violation_counts(
                            dc, {w: cmat[r]},
                            {a: cols[a][lo + r] for a in dc.attributes
                             if a != w}, {})
                        for r in range(B)])
                else:
                    group = next(fd_groups)
                    counts = index.counts_at(group, ranks)
                    per_dc.append((weight, index, "dep", group, counts))
                penalty += weight * counts
            u = self.noise.rows(lo, hi)
            g = _gumbel(u[:, gum:gum + width])
            picks = np.argmax(lpm - penalty + g, axis=1)
            pick_ranks = ranks[rows, picks]
            fresh = [~holds[s][rows, pick_ranks] if s in holds else None
                     for s in range(len(fds))]
            stop = self._fold_kept_prefix(per_dc, pick_ranks, lo,
                                          values=cmat[rows, picks],
                                          fresh=fresh)
            if tracer is not None:
                tracer.observe_block(B)
                if stop < B:
                    tracer.count("rescored_rows", B - stop)
                pairs = sum(int(counts[rows[:stop], picks[:stop]].sum())
                            for _, index, _, _, counts in per_dc
                            if index.dc.hard)
                if pairs:
                    tracer.count("hard_violation_pairs", pairs)
            lo += stop
            window = min(max_block, max(_MIN_WINDOW_ROWS, 2 * stop))

    def _write_forced_num(self, i: int, forced, fds: list) -> None:
        """Write and fold one FD-lookup forced row of the window lane."""
        cols, tracer = self.cols, self.tracer
        self.wcols[self.w][i] = forced
        _record_fd(self.fd_indexes, cols, i)
        pairs = 0
        for index in fds:
            created = index.add_pair(
                tuple(cols[a][i] for a in index.determinant), cols[self.w][i])
            if index.dc.hard:
                pairs += created
        if tracer is not None:
            tracer.count("forced_rows")
            if pairs:
                tracer.count("hard_violation_pairs", pairs)

    # -- sequential numeric driver (conflict-all columns) --------------
    def fill_numeric_sequential(self, n: int) -> None:
        """Per-row pass for columns whose rows all potentially interact
        (eq-less order DCs, determinant-feeding targets, generic binary
        DCs).  Candidates and noise still come from the vectorized
        chunk machinery; only extras, penalty probes, and the argmax
        run per row — strictly less per-row Python than the reference
        loop (no per-row rng, no normalise-and-choice).
        """
        sampler, layout = self.sampler, self.layout
        w, cols = self.w, self.cols
        tracer = self.tracer
        if tracer is not None:
            tracer.count("sequential_rows", n)
        d = layout.d
        j = self.j
        gum_off, fresh_off = layout.gumbel_off, layout.fresh_off
        hist = self.base[1] if layout.kind == "numhist" else None
        for i in range(n):
            if self.fd_indexes:
                forced = _forced_value(self.fd_indexes, cols, i)
                if forced is not None:
                    if tracer is not None:
                        tracer.count("forced_rows")
                    self.wcols[w][i] = forced
                    self._fold_row(i)
                    continue
            cand_base, logp_base = self._base_candidates(i, i + 1)
            cand, logp = cand_base[0], logp_base[0]
            u_row = self.noise.rows(i, i + 1)[0]
            if layout.extras:
                extra = sampler._consistent_values(
                    j, w, cols, i, indexes=self.vio, strict=self.strict,
                    prefix_rows=self.row_offset + i)
                fresh = _EMPTY
                if fresh_off >= 0:
                    fresh = sampler._fresh_values(
                        j, w, cols, i, used=self.used,
                        uniforms=u_row[fresh_off:fresh_off + _FRESH_TRIES],
                        prefix_rows=self.row_offset + i)
                if extra.size or fresh.size:
                    added = np.concatenate([extra, fresh])
                    cand = np.concatenate([cand, added])
                    if layout.kind == "num":
                        added_lp = (-0.5 * ((added - self.base[1][i])
                                            / self.base[2][i]) ** 2)
                    else:
                        added_lp = hist.log_prob_codes()[
                            hist.quantizer.encode(added)]
                    logp = np.concatenate([logp, added_lp])
            k = cand.shape[0]
            pen = None
            for dc, weight, _ in self._active_specs:
                tv = {w: cand}
                context = {a: cols[a][i] for a in dc.attributes if a != w}
                counts = None
                index = self.vio.get(dc.name)
                if index is not None:
                    counts = index.candidate_counts(tv, context)
                if counts is None:
                    self._check_scan_allowed(dc)
                    counts = multi_candidate_violation_counts(
                        dc, tv, context,
                        {a: cols[a][:i] for a in dc.attributes})
                pen = (weight * counts if pen is None
                       else pen + weight * counts)
            g = _gumbel(u_row[gum_off:gum_off + k])
            scores = logp + g if pen is None else logp - pen + g
            pick = int(np.argmax(scores))
            self.wcols[w][i] = cand[pick]
            self._fold_row(i)

    # -- lane dispatch ---------------------------------------------------
    def fill(self, n: int, specs: list | None, max_block: int) -> None:
        """Draw rows ``0..n`` of this constrained column on its lane.

        ``specs`` are the column's group keys (:func:`_conflict_keys`).
        A categorical target scores fixed blocks (:meth:`fill_cat`); a
        numerical one runs per row when its rows all interact
        (``specs`` None), in windows when its DCs are FDs counted on
        its value grid, else in conflict-free blocks.  The numerical
        lanes trace as ``num-sequential`` and ``num-blocked``.
        """
        if self.layout.kind == "cat":
            self.fill_cat(n, max_block)
            return
        if self.tracer is not None:
            self.tracer.mode = ("num-sequential" if specs is None
                                else "num-blocked")
        fd_specs = self._num_fd_specs() if specs is not None else None
        if specs is None:
            self.fill_numeric_sequential(n)
        elif fd_specs is not None:
            self._fill_num_fd_lane(n, max_block, fd_specs)
        else:
            for lo, hi in _conflict_blocks(specs, self.cols, n, max_block):
                self.process_block(lo, hi)

    # -- block driver (numerical targets) ------------------------------
    def process_block(self, lo: int, hi: int) -> None:
        cols, w = self.cols, self.w
        tracer = self.tracer
        if tracer is not None:
            tracer.observe_block(hi - lo)
        score_rows = []
        if self.fd_indexes:
            for i in range(lo, hi):
                forced = _forced_value(self.fd_indexes, cols, i)
                if forced is not None:
                    if tracer is not None:
                        tracer.count("forced_rows")
                    self.wcols[w][i] = forced
                else:
                    score_rows.append(i)
        else:
            score_rows = list(range(lo, hi))
        if score_rows:
            rows = np.asarray(score_rows, dtype=np.int64)
            u = self.noise.rows(lo, hi)
            self._score_numeric(rows, u, lo)
        for i in range(lo, hi):
            self._fold_row(i)


# ----------------------------------------------------------------------
# Shard execution: gathered sub-schedules (thread and process lanes)
# ----------------------------------------------------------------------
def _shard_attrs(sampler: _ColumnSampler, j: int) -> list[str]:
    """Earlier-column attributes a constrained shard must gather: every
    active DC's attributes plus the FD-lookup determinants, minus the
    target's own (not yet sampled) attributes."""
    w = sampler.wseq[j]
    if sampler.hyper.is_hyper(w):
        tattrs = set(sampler.hyper.original_attrs(w))
    else:
        tattrs = {w}
    need: set[str] = set()
    for dc in sampler.active_at[j]:
        need |= set(dc.attributes)
    for fdx in sampler.fd_indexes_for(j):
        need |= set(fdx.determinant)
        need.add(fdx.dependent)
    return sorted(need - tattrs)


def _shard_buffers(sampler: _ColumnSampler, j: int, m: int):
    """Fresh target output buffers for an ``m``-row shard.

    Returns ``(tcols, gw)``: the original-attribute buffers the pass
    writes (aliasing ``gw`` for non-hyper targets, exactly like
    ``_allocate_working``) and the working-column buffer itself.
    """
    w = sampler.wseq[j]
    tcols: dict[str, np.ndarray] = {}
    if sampler.hyper.is_hyper(w):
        gw = np.zeros(m, dtype=np.int64)
        for a in sampler.hyper.original_attrs(w):
            attr = sampler.relation[a]
            tcols[a] = (np.zeros(m, dtype=np.int64)
                        if attr.is_categorical
                        else np.full(m, attr.domain.low, dtype=np.float64))
    else:
        attr = sampler.relation[w]
        gw = (np.zeros(m, dtype=np.int64) if attr.is_categorical
              else np.full(m, attr.domain.low, dtype=np.float64))
        tcols[w] = gw
    return tcols, gw


def _gather_base(base, rows):
    """Row-select a base conditional (numhist bases carry no rows)."""
    if base[0] == "cat":
        return ("cat", base[1][rows])
    if base[0] == "num":
        return ("num", base[1][rows], base[2][rows])
    return base


def _run_shard_pass(sampler: _ColumnSampler, j: int, base, layout,
                    noise, gcols: dict, gw: np.ndarray,
                    specs: list, m: int, max_block: int) -> None:
    """One gathered constrained sub-schedule, writing ``gw``/``gcols``.

    The pass builds its own (shard-local) violation and FD-lookup
    indexes: rows outside the shard share no group with rows inside it,
    so the local indexes answer every probe with exactly the global
    counts.
    """
    wcols_g = {sampler.wseq[j]: gw}
    _ColumnPass(sampler, j, base, layout, noise, gcols,
                wcols_g).fill(m, specs, max_block)


def _context_attrs(sampler: _ColumnSampler, j: int) -> list:
    """Working attributes the base conditional of position ``j`` reads."""
    w = sampler.wseq[j]
    if j == 0 or w in sampler.model.independent:
        return []
    return list(sampler.model.context_attrs[w])


# ----------------------------------------------------------------------
# Process-pool lane
# ----------------------------------------------------------------------
#: The per-process sampler, built once per worker from the pickled
#: model payload by :func:`_pool_init`.
_POOL_SAMPLER: _ColumnSampler | None = None


def _pool_context():
    """Prefer fork (cheap, payload inherited); fall back to default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _pool_init(model, relation, dcs, weights, params, hyper,
               use_fd_lookup: bool, use_violation_index: bool) -> None:
    global _POOL_SAMPLER
    _POOL_SAMPLER = _ColumnSampler(
        model, relation, hyper, dcs, weights, params,
        rng=np.random.default_rng(0), use_fd_lookup=use_fd_lookup,
        use_violation_index=use_violation_index)


def _pool_unconstrained(j: int, lo: int, hi: int, noise_key: tuple,
                        wctx: dict):
    """Worker-side contiguous unconstrained shard.

    The base conditional is row-pure, so recomputing it over the
    gathered context slices equals the parent's full-table slice; the
    noise key addresses global rows, so the draw is position-exact.
    """
    fault_point("engine.worker")
    s = _POOL_SAMPLER
    m = hi - lo
    base = s.base_distribution(j, wctx, m)
    layout = _layout_for(s, j, base)
    tcols, gw = _shard_buffers(s, j, m)
    noise = _OffsetNoise(_CellNoise(*noise_key), lo)
    _draw_unconstrained(s, j, base, layout, noise, tcols,
                        {s.wseq[j]: gw}, 0, m)
    w = s.wseq[j]
    members = tcols if s.hyper.is_hyper(w) else {}
    return gw, members


def _pool_constrained(j: int, rows: np.ndarray, noise_key: tuple,
                      wctx: dict, gctx: dict, specs: list,
                      max_block: int):
    """Worker-side group-closed constrained shard (compact spec in,
    target column slices out)."""
    fault_point("engine.worker")
    s = _POOL_SAMPLER
    m = rows.shape[0]
    base = s.base_distribution(j, wctx, m)
    layout = _layout_for(s, j, base)
    tcols, gw = _shard_buffers(s, j, m)
    gcols = dict(gctx)
    gcols.update(tcols)
    noise = _GatherNoise(_CellNoise(*noise_key), rows)
    _run_shard_pass(s, j, base, layout, noise, gcols, gw, specs, m,
                    max_block)
    w = s.wseq[j]
    members = ({a: tcols[a] for a in tcols if a != w}
               if s.hyper.is_hyper(w) else {})
    return gw, members


# ----------------------------------------------------------------------
# Sharded dispatch (parent side)
# ----------------------------------------------------------------------
def _heal_pool(ppool, workers: int, tpool, tracer=None):
    """Retire a broken process pool; return the thread-pool fallback.

    Safe to call mid-draw: both process dispatchers collect *every*
    shard future before stitching a single byte, so a worker death
    leaves the output columns untouched and the whole column pass can
    re-run on the surviving lane — bit-identical, because the draw is a
    pure function of ``(model, n, seed)`` and the lane is scheduling.
    The degrade is recorded on the column trace (``pool_broken``) and
    the ``repro.engine`` logger.
    """
    _LOG.warning("process-pool worker died; degrading this draw to the "
                 "thread pool (output unchanged)")
    ppool.shutdown(wait=False)
    if tracer is not None:
        tracer.count("pool_broken", 1)
    if tpool is None:
        tpool = ThreadPoolExecutor(max_workers=workers)
    return tpool


def _fd_shard_closed(specs: list, fd_indexes: list) -> bool:
    """True when every FD-lookup determinant group is shard-closed.

    The component partition joins the *spec* partitions, so an FD
    lookup's forced-value semantics survive sharding iff some spec key
    is a subset of its determinant (then determinant groups refine that
    spec's groups and never straddle shards).
    """
    return all(
        any(set(key) <= set(fdx.determinant) for key in specs)
        for fdx in fd_indexes)


def _fill_unconstrained_process(sampler: _ColumnSampler, j: int,
                                noise_key: tuple, cols: dict,
                                wcols: dict, n: int, ppool, workers: int,
                                tracer=None) -> None:
    """Contiguous unconstrained shards dispatched to worker processes."""
    ctx = _context_attrs(sampler, j)
    bounds = np.linspace(0, n, workers + 1).astype(int)
    spans = [(int(bounds[k]), int(bounds[k + 1]))
             for k in range(workers) if bounds[k] < bounds[k + 1]]
    futs = [ppool.submit(_pool_unconstrained, j, lo, hi, noise_key,
                         {a: wcols[a][lo:hi] for a in ctx})
            for lo, hi in spans]
    if tracer is not None:
        tracer.count("shards", len(spans))
    results = [f.result() for f in futs]
    w = sampler.wseq[j]
    t0 = time.perf_counter()
    for (lo, hi), (gw, members) in zip(spans, results):
        wcols[w][lo:hi] = gw
        for a, vals in members.items():
            cols[a][lo:hi] = vals
    if tracer is not None:
        tracer.count("stitch_us", int((time.perf_counter() - t0) * 1e6))


def _run_sharded(sampler: _ColumnSampler, j: int, base, layout,
                 noise_key: tuple, cols: dict, wcols: dict, specs: list,
                 shards: list, max_block: int, tpool, ppool,
                 tracer=None) -> None:
    """Group-closed constrained shards on the thread or process lane.

    Shard outputs are stitched back by their (disjoint) global row
    indices; completion order cannot matter.
    """
    w = sampler.wseq[j]
    need = _shard_attrs(sampler, j)
    ctx = _context_attrs(sampler, j)
    if ppool is not None:
        futs = [ppool.submit(_pool_constrained, j, rows, noise_key,
                             {a: wcols[a][rows] for a in ctx},
                             {a: cols[a][rows] for a in need},
                             specs, max_block)
                for rows in shards]
        results = [f.result() for f in futs]
    else:
        def run(rows: np.ndarray):
            m = rows.shape[0]
            gcols = {a: cols[a][rows] for a in need}
            tcols, gw = _shard_buffers(sampler, j, m)
            gcols.update(tcols)
            noise = _GatherNoise(_CellNoise(*noise_key), rows)
            _run_shard_pass(sampler, j, _gather_base(base, rows),
                            layout, noise, gcols, gw, specs, m,
                            max_block)
            return gw, {a: v for a, v in tcols.items() if a != w}

        results = list(tpool.map(run, shards))
    t0 = time.perf_counter()
    for rows, (gw, members) in zip(shards, results):
        wcols[w][rows] = gw
        for a, vals in members.items():
            cols[a][rows] = vals
    if tracer is not None:
        tracer.count("stitch_us", int((time.perf_counter() - t0) * 1e6))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def synthesize_engine(model, relation, dcs, weights, n: int, params,
                      seed: int, hyper: HyperSpec | None = None,
                      use_fd_lookup: bool = False,
                      use_violation_index: bool = True,
                      workers: int = 1, pool: str = "thread",
                      max_block_rows: int = MAX_BLOCK_ROWS,
                      noise_chunk: int = NOISE_CHUNK,
                      trace=None) -> Table:
    """Algorithm 3: draw a synthetic instance of ``n`` rows.

    The output is a deterministic function of the arguments — in
    particular it does **not** depend on ``workers``, ``pool``, or
    ``max_block_rows`` (scheduling knobs only).  ``seed`` keys every
    per-cell noise stream; ``noise_chunk`` is the persisted chunking of
    those streams (model format v2 records it so reloaded models replay
    their draws).

    ``pool`` selects the execution lane for ``workers > 1``:
    ``"thread"`` shares the parent's arrays (GIL-bound, cheap to start)
    while ``"process"`` ships each shard as a compact picklable spec to
    a :class:`~concurrent.futures.ProcessPoolExecutor` whose workers
    hold their own ``_ColumnSampler`` (built once per worker by
    :func:`_pool_init`).  Constrained columns additionally shard when
    their active DCs expose group keys: :func:`_shard_rows` partitions
    rows into group-closed components, each shard runs a gathered
    sub-schedule with shard-local indexes, and outputs stitch back by
    row index — bit-identical to ``workers=1`` because no two rows in
    different shards can interact and every cell's noise is addressed
    by its global position.

    ``trace`` (a :class:`repro.obs.trace.SampleTrace`) records one
    :class:`~repro.obs.trace.ColumnTrace` per working column: wall
    clock, lane (``unconstrained``/``cat-fd-lane``/``cat-generic``/
    ``num-blocked``/``num-sequential``, plus ``cat-sharded``/
    ``num-sharded`` with ``shards``/``stitch_us`` counters when a
    constrained column splits), block sizes, re-scored/forced rows, and
    index probe counts.  Tracing reads no randomness — a traced draw is
    bit-identical to an untraced one — and ``None`` costs nothing.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if pool not in ("thread", "process"):
        raise ValueError(f"pool must be 'thread' or 'process', got {pool!r}")
    if hyper is None:
        hyper = HyperSpec.trivial(relation, model.sequence)
    master = int(seed)
    sampler = _ColumnSampler(
        model, relation, hyper, dcs, weights, params,
        rng=np.random.default_rng(0), use_fd_lookup=use_fd_lookup,
        use_violation_index=use_violation_index)
    cols = _allocate_columns(relation, n)
    wcols = _allocate_working(sampler, cols, n)

    # Pools only pay off past the sharding floor; below it every column
    # runs inline regardless of ``workers``.
    pooled = workers > 1 and n >= max(2 * _MIN_SHARD_ROWS, workers)
    tpool = ppool = None
    if pooled:
        if pool == "process":
            ppool = ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context(),
                initializer=_pool_init,
                initargs=(model, relation, dcs, weights, params, hyper,
                          use_fd_lookup, use_violation_index))
        else:
            tpool = ThreadPoolExecutor(max_workers=workers)
    try:
        for j in range(len(sampler.wseq)):
            col_trace = None
            if trace is not None:
                col_trace = trace.column(sampler.wseq[j])
                col_start = time.perf_counter()
            base = sampler.base_distribution(j, wcols, n)
            layout = _layout_for(sampler, j, base)
            noise_key = (master, 2 * j, layout.stride, noise_chunk, n)
            active = sampler.active_at[j]
            fd_indexes = sampler.fd_indexes_for(j)
            if not active and not fd_indexes:
                if col_trace is not None:
                    col_trace.mode = "unconstrained"
                if ppool is not None:
                    try:
                        _fill_unconstrained_process(
                            sampler, j, noise_key, cols, wcols, n, ppool,
                            workers, tracer=col_trace)
                    except BrokenProcessPool:
                        tpool = _heal_pool(ppool, workers, tpool,
                                           tracer=col_trace)
                        ppool = None
                        _fill_unconstrained(sampler, j, base, layout,
                                            noise_key, cols, wcols, n,
                                            tpool, workers,
                                            tracer=col_trace)
                else:
                    _fill_unconstrained(sampler, j, base, layout,
                                        noise_key, cols, wcols, n,
                                        tpool, workers, tracer=col_trace)
            elif n > 0:
                specs = _conflict_keys(sampler, j)
                shards = None
                if (pooled and params.mcmc_m == 0 and specs is not None
                        and sampler.fresh_value_tracker(j) is None
                        and _fd_shard_closed(specs, fd_indexes)):
                    shards = _shard_rows(specs, cols, n, workers)
                if shards is not None:
                    if col_trace is not None:
                        col_trace.mode = (
                            "cat-sharded" if layout.kind == "cat"
                            else "num-sharded")
                        col_trace.count("shards", len(shards))
                    try:
                        _run_sharded(sampler, j, base, layout, noise_key,
                                     cols, wcols, specs, shards,
                                     max_block_rows, tpool, ppool,
                                     tracer=col_trace)
                    except BrokenProcessPool:
                        if ppool is None:
                            raise
                        tpool = _heal_pool(ppool, workers, tpool,
                                           tracer=col_trace)
                        ppool = None
                        _run_sharded(sampler, j, base, layout, noise_key,
                                     cols, wcols, specs, shards,
                                     max_block_rows, tpool, None,
                                     tracer=col_trace)
                else:
                    _ColumnPass(sampler, j, base, layout,
                                _CellNoise(*noise_key), cols, wcols,
                                fd_indexes, tracer=col_trace,
                                ).fill(n, specs, max_block_rows)
            if col_trace is not None:
                col_trace.finish(time.perf_counter() - col_start, n)
            if params.mcmc_m > 0:
                # The refinement is inherently sequential; it draws from
                # its own keyed stream so the column passes above stay
                # schedule-invariant.
                sampler.rng = np.random.Generator(np.random.Philox(
                    np.random.SeedSequence([master, 2 * j + 1])))
                _mcmc_resample(sampler, j, cols, wcols, n, params.mcmc_m)
    finally:
        if tpool is not None:
            tpool.shutdown(wait=True)
        if ppool is not None:
            ppool.shutdown(wait=True)
    return Table(relation, cols, validate=False)


# ----------------------------------------------------------------------
# Streaming entry point
# ----------------------------------------------------------------------
def synthesize_stream(model, relation, dcs, weights, n: int, params,
                      seed: int, hyper: HyperSpec | None = None,
                      use_fd_lookup: bool = False,
                      use_violation_index: bool = True,
                      chunk_rows: int = STREAM_CHUNK_ROWS,
                      max_block_rows: int = MAX_BLOCK_ROWS,
                      noise_chunk: int = NOISE_CHUNK):
    """Yield the blocked-engine draw of ``n`` rows in bounded chunks.

    Concatenating the yielded :class:`Table` chunks (in order) is
    bit-identical to ``synthesize_engine(..., workers=1)`` with the
    same arguments: each cell's noise is addressed by its *global* row
    (``_OffsetNoise`` over the same keyed streams), chunk and block
    boundaries are pure scheduling, and the per-column constraint state
    (:class:`_PassState`: violation indexes, FD lookups, used-value
    sets) persists across chunks exactly as one long pass would build
    it.  Peak memory holds one ``chunk_rows``-row table plus that
    per-column index state — never the full ``n`` rows.

    Columns run in ``strict`` mode: a DC whose exact answer would need
    the full sampled prefix (no violation index, non-unary) raises
    :class:`~repro.core.sampling.PrefixScanRequired` instead of
    silently answering from the chunk-local prefix — streaming never
    trades exactness for memory.  ``mcmc_m > 0`` is rejected for the
    same reason (the refinement re-reads the whole instance).
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if params.mcmc_m > 0:
        raise ValueError(
            "streaming draws require mcmc_m == 0: the MCMC refinement "
            "re-reads the full instance")
    if hyper is None:
        hyper = HyperSpec.trivial(relation, model.sequence)
    master = int(seed)
    sampler = _ColumnSampler(
        model, relation, hyper, dcs, weights, params,
        rng=np.random.default_rng(0), use_fd_lookup=use_fd_lookup,
        use_violation_index=use_violation_index)
    ncols = len(sampler.wseq)
    states: list[_PassState | None] = []
    for j in range(ncols):
        fd_indexes = sampler.fd_indexes_for(j)
        if sampler.active_at[j] or fd_indexes:
            states.append(_PassState(
                vio=sampler.violation_indexes_for(j),
                fd_indexes=fd_indexes,
                used=sampler.fresh_value_tracker(j)))
        else:
            states.append(None)
    specs_of = [_conflict_keys(sampler, j) for j in range(ncols)]
    layouts: list[_Layout | None] = [None] * ncols
    noises: list[_CellNoise | None] = [None] * ncols
    for off in range(0, n, chunk_rows):
        m = min(chunk_rows, n - off)
        cols = _allocate_columns(relation, m)
        wcols = _allocate_working(sampler, cols, m)
        for j in range(ncols):
            base = sampler.base_distribution(j, wcols, m)
            if layouts[j] is None:
                layouts[j] = _layout_for(sampler, j, base)
                noises[j] = _CellNoise(master, 2 * j, layouts[j].stride,
                                       noise_chunk, n)
            layout = layouts[j]
            noise = _OffsetNoise(noises[j], off)
            if states[j] is None:
                _draw_unconstrained(sampler, j, base, layout, noise,
                                    cols, wcols, 0, m)
            else:
                _ColumnPass(sampler, j, base, layout, noise, cols, wcols,
                            state=states[j], strict=True, row_offset=off,
                            ).fill(m, specs_of[j], max_block_rows)
        yield Table(relation, cols, validate=False)
