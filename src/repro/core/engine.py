"""Block-scheduled vectorized sampling engine: every draw runs here.

Algorithm 3 is sequential by definition: every cell's violation penalty
is counted against the prefix of already-sampled rows.  Run literally —
the per-row reference loop in ``tests/row_reference.py`` — that is a
Python loop per constrained cell, and at production ``n`` the sampler
is bounded by interpreter overhead, not by the index math.  This module
restructures the same computation around two observations:

1.  **Blocks and windows.**  Every categorical column, whatever the
    shape of its DCs, scores a block of rows in one shot against the
    block-start index state (one ``(B, V)`` count matrix per DC, one
    gumbel-argmax per block) and then keeps each row's pick exactly
    when a row-at-a-time pass would, re-scoring the rest
    (:meth:`_ColumnPass.fill_cat`).  A numerical column whose DCs are
    FDs onto it counted on its value grid (or unary DCs alone) works in
    windows the same way (:meth:`_ColumnPass._fill_num_fd_lane`).  Both
    lanes ask the violation indexes through one protocol
    (:class:`~repro.constraints.index.ViolationIndex`), never for their
    class; where every index names a block's kept prefix (the FD count
    tables) it folds in bulk.  Every other numerical column runs the
    per-row pass
    (:meth:`_ColumnPass.fill_numeric_sequential`): base candidates and
    noise come a chunk at a time, and only the extras, the probes and
    the argmax run per row — the sequential semantics, minus the
    per-row rng calls.

2.  **Counter-based per-cell noise.**  All randomness comes from
    :class:`numpy.random.Philox` streams keyed by ``(seed, column,
    row-chunk)`` with a fixed per-row slot layout, so each cell reads
    the *same* uniforms no matter how rows are grouped into blocks or
    sharded across workers.  The drawn instance is a pure function of
    ``(model, DCs, weights, n, seed)`` — block size and worker count
    are scheduling details.  That property is what makes **sharded
    parallel draws** safe (item 5): shards stitch back bit-identical
    to ``workers=1``.

Selection itself uses the Gumbel-max trick: ``argmax(logp - penalty +
gumbel)`` draws from exactly the normalised-product distribution of
Algorithm 3 line 10, so the engine samples from the *same law* as the
per-row reference loop (their draws differ only through the rng
scheme).

Built on those two properties, the draw has one lane dispatch, one
driver and one parallel schedule (pinned by
``tests/test_engine_blocked.py``):

3.  **One lane dispatch.**  Every column runs :meth:`_ColumnPass.fill`:
    the one categorical block lane, the numerical window lane or the
    per-row pass.  A column no DC constrains is the zero-penalty case
    of the first two, in noise-chunk-sized blocks that keep every row
    (a hyper target writes its member columns in bulk), and is traced
    ``unconstrained``.

4.  **One draw driver** (:func:`_draw`): chunk-major column passes over
    row ranges.  A column's :class:`_PassState` (violation indexes,
    used-value set) lives from its first chunk to its last,
    so its indexes accumulate exactly as one long pass would build
    them; its base, noise view and scratch live for one chunk, and
    each cell reads the noise of its *global* row.  Every DC shape
    streams: each binary DC counts in its violation index, never in a
    scan of the sampled prefix.  :func:`synthesize_stream` yields the
    chunks and :func:`synthesize_engine` is the one-chunk call, so a
    one-chunk stream is the single-shot draw by construction.  Longer
    streams equal it bit for bit except in numerical columns drawn
    from a sub-model head, whose last bits depend on the batch size
    (ROADMAP item 1).

5.  **Group-disjoint constrained shards on worker processes**
    (``workers > 1``, single-shot draws only, like the MCMC
    refinement).  Rows in different determinant / equality groups
    provably cannot interact, so a constrained column whose group keys
    are determined up front partitions into *group-closed* row shards
    (:func:`_shard_rows`, union-find over the per-DC group ids).  Each
    shard ships to a worker process as a compact picklable spec (row
    indices + gathered context slices + the noise key) and runs the
    same pass with shard-local violation indexes; each worker holds one
    :class:`_ColumnSampler` built from the model payload at pool init
    and recomputes a categorical base conditional locally, which is
    row-pure.  A numerical target's base ships as the parent's rows of
    ``(mu, sigma)`` instead, because its head's last bits depend on the
    batch size.  Outputs stitch back by row index — bit-identical to
    ``workers=1`` (pinned) because every cell's noise is
    position-pure.  DC-free columns always draw in the parent.

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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro.core.hyper import HyperSpec
from repro.faults import fault_point
from repro.core.sampling import (
    CONSISTENT_LIMIT,
    _allocate_columns,
    _allocate_working,
    _append_row,
    _ColumnSampler,
    _mcmc_resample,
)
from repro.constraints.violations import multi_candidate_violation_counts
from repro.schema.table import Table

_LOG = logging.getLogger("repro.engine")

#: Fixed row-chunk of the counter-based noise streams.  Part of the
#: persisted rng spec (model format v2): draws reproduce only under the
#: chunking they were made with.
NOISE_CHUNK = 2048

#: Cap on the length of a categorical block and a numerical FD window
#: (bounds peak probe width); pure scheduling — any value draws the
#: same table.
MAX_BLOCK_ROWS = 512

#: Smallest window of the numerical FD lane, which otherwise sizes each
#: window at twice the rows the last one kept (capped at the block cap).
_MIN_WINDOW_ROWS = 32

#: A draw starts worker processes only at ``n >= 2 * _MIN_SHARD_ROWS``,
#: and a constrained column shards only when no group component holds
#: more than ``n - _MIN_SHARD_ROWS`` rows.
_MIN_SHARD_ROWS = 2048

#: Default row-chunk of a streaming draw (``sample_stream``); scheduling,
#: except in the numerical sub-model heads (item 4 above).
STREAM_CHUNK_ROWS = 65536

#: Bounds on the per-column chunk caches (noise matrices and base
#: candidate matrices).  Small LRUs: lanes walk rows forward, and a
#: contiguous block or window spans at most two chunks.
_NOISE_CACHE_CHUNKS = 2
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

    Global row ``i``'s noise is row ``i % chunk`` of the ``(chunk,
    stride)`` matrix drawn from the Philox stream keyed ``(seed, tag, i
    // chunk)``.  Chunks are fixed, so any row range regenerates the
    same values regardless of block boundaries or which worker asks.
    :meth:`rows` reads local rows: local row ``r`` is global row
    ``offset + r`` (a streamed chunk's first row).
    """

    def __init__(self, seed: int, tag: int, stride: int,
                 chunk: int = NOISE_CHUNK, n_rows: int | None = None,
                 offset: int = 0):
        self.seed = seed
        self.tag = tag
        self.stride = max(int(stride), 1)
        self.chunk = int(chunk)
        self.n_rows = n_rows
        self.offset = int(offset)
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
        """The (hi - lo, stride) noise matrix for local rows [lo, hi)."""
        if hi <= lo:
            return np.empty((0, self.stride))
        lo, hi = lo + self.offset, hi + self.offset
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


class _GatherNoise:
    """A noise view over an arbitrary (sorted) global row selection.

    Group-closed shards gather non-contiguous rows; local row ``r``
    maps to global row ``rows[r]`` of ``inner`` (a :class:`_CellNoise`
    at offset 0).  Rows are fetched chunk by chunk so regeneration cost
    matches the contiguous path.
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
# Constrained columns: group keys (for sharding) and the FD-lane helpers
# ----------------------------------------------------------------------
def _conflict_keys(sampler: _ColumnSampler, j: int) -> list | None:
    """Per-DC group-key attribute tuples, or None for conflict-all.

    Only sharding reads these (:func:`_shard_rows`): a column can split
    into group-closed shards only when every active non-unary DC has a
    group key (FD determinant / order equality attributes) fully
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
    sharding cannot pay off: a single dominating component, or no spec
    structure at all (``specs is None``).  Callers shard only past the
    pool floor (``n >= 2 * _MIN_SHARD_ROWS``, ``k >= 2``).
    """
    if specs is None:
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
    """Per-column incremental state: the violation indexes and
    used-value set a column's pass folds its rows into.

    It lives from the column's first chunk to its last, so its indexes
    accumulate across chunks exactly as over one long pass; a shard's
    pass starts one over its own rows.
    """

    vio: dict
    used: set | None

    @classmethod
    def start(cls, sampler: _ColumnSampler, j: int) -> "_PassState":
        """Empty state for position ``j``: no row folded yet."""
        return cls(sampler.violation_indexes_for(j),
                   sampler.fresh_value_tracker(j))


class _ColumnPass:
    """One column's pass over one chunk of rows.

    ``state`` holds the column's indexes (:class:`_PassState`).  Every
    binary DC counts in its index, so a chunk never needs the rows
    before it.  ``row_offset`` is the global index of local row 0, used
    only for the "is the global prefix empty" guards of the candidate
    augmentation — never for array indexing.
    """

    def __init__(self, sampler: _ColumnSampler, j: int, base,
                 layout: _Layout, noise, cols: dict, wcols: dict,
                 state: _PassState, tracer=None, row_offset: int = 0):
        self.sampler = sampler
        self.j = j
        self.base = base
        self.layout = layout
        self.noise = noise
        self.cols = cols
        self.wcols = wcols
        self.row_offset = int(row_offset)
        self.w = sampler.wseq[j]
        self.vio = state.vio
        self.used = state.used
        self.tracer = tracer
        if tracer is not None:
            # Route every index probe into the column's probe counters.
            for index in self.vio.values():
                index.counters = tracer.probes
        self.active = sampler.active_at[j]
        self.decoded = None
        #: A hyper target's member columns, by working code.
        self._members = {}
        if layout.kind == "cat":
            codes = np.arange(layout.d, dtype=np.int64)
            self.decoded = {self.w: codes}
            if sampler.hyper.is_hyper(self.w):
                self.decoded = self._members = sampler.hyper.decode_codes(
                    self.w, codes)
        self._active_specs = [
            (dc, sampler.weight_of(dc),
             tuple(a for a in (self.decoded or {}) if a in dc.attributes))
            for dc in self.active]
        self._chunk_cache = _LRU(_BASE_CACHE_CHUNKS)
        self._n_rows = next(iter(cols.values())).shape[0]

    def _write_cat(self, rows, picks) -> None:
        """Write picked codes at ``rows`` (a row, or a slice with one
        pick per row), and a hyper target's member columns."""
        self.wcols[self.w][rows] = picks
        for attr, values in self._members.items():
            self.cols[attr][rows] = values[picks]

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

    def fill_cat(self, n: int, max_block: int) -> None:
        """The categorical block lane: every categorical column, hyper
        targets included.

        Each block is scored in one shot against the block-start index
        state: ``logp + gumbel`` minus each binary DC's weighted
        ``(B, V)`` counts (DC order), minus the unary DCs' penalty.
        Rows are then kept exactly when a row-at-a-time pass would keep
        them.  Where every index names the block's *kept prefix* (the
        rows before its first in-block conflict, whose counts at their
        picks cannot have moved) those rows write and fold in bulk.
        From there on each row is validated against the live state on
        its per-DC integer counts at its pick, and re-scored with the
        same noise and the same operation order when a count moved.
        Keeping a row is exact because in-block counts only grow (groups
        only grow): the other candidates' scores can only have fallen,
        so the first-index argmax still wins.  So every block size draws
        the same table.

        The indexes answer through one protocol
        (:class:`~repro.constraints.index.ViolationIndex`: ``lane_keys``,
        ``block_counts``, ``count_at``, ``fold``, ``kept_prefix``), and
        keys and codes are computed once per block.  The lane is traced
        ``cat-fd-lane`` when every index names kept prefixes (the FD
        count tables) and ``cat-generic`` otherwise, and counts
        ``hard_violation_pairs``: the violating pairs its picks add
        under hard binary DCs, nonzero only where no zero-violation code
        existed.
        """
        cols, tracer = self.cols, self.tracer
        V = self.layout.d
        logp_all = self.base[1]
        binary = [(weight, self.vio[dc.name],
                   {a: self.decoded[a] for a in tattrs}, dc.hard)
                  for dc, weight, tattrs in self._active_specs
                  if not dc.is_unary]
        self._trace_lane(
            "cat-fd-lane" if all(index.keeps_prefixes
                                 for _, index, _, _ in binary)
            else "cat-generic")
        for lo in range(0, n, max_block):
            hi = min(lo + max_block, n)
            B = hi - lo
            if tracer is not None:
                tracer.observe_block(B)
            g = _gumbel(self.noise.rows(lo, hi)[:, :V])
            scores = logp_all[lo:hi] + g
            per_dc = []
            for weight, index, target, hard in binary:
                keys = index.lane_keys(target, cols, lo, hi)
                counts = index.block_counts(keys)
                scores -= weight * counts
                per_dc.append((weight, index, keys, counts, hard))
            pen_unary = self._unary_penalty(lo, hi)
            if pen_unary is not None:
                scores -= pen_unary
            picks = np.argmax(scores, axis=1)
            stop = min((index.kept_prefix(keys, picks)
                        for _, index, keys, _, _ in per_dc), default=B)
            self._write_cat(slice(lo, lo + stop), picks[:stop])
            hard_pairs = 0
            for _, index, keys, counts, hard in per_dc:
                index.fold(keys, picks[:stop])
                if hard and tracer is not None:
                    hard_pairs += int(
                        counts[np.arange(stop), picks[:stop]].sum())
            picks = picks.tolist() if stop < B else None
            for r in range(stop, B):
                pick, live = picks[r], None
                for _, index, keys, counts, _ in per_dc:
                    if index.count_at(keys, r, pick) != counts[r, pick]:
                        pick, live = self._rescore_cat(
                            per_dc, r, logp_all[lo + r] + g[r], pen_unary)
                        break
                self._write_cat(lo + r, pick)
                for s, (_, index, keys, counts, hard) in enumerate(per_dc):
                    index.fold(keys, (pick,), r)
                    if hard:
                        hard_pairs += int(counts[r, pick] if live is None
                                          else live[s][pick])
            if tracer is not None and hard_pairs:
                tracer.count("hard_violation_pairs", hard_pairs)

    def _rescore_cat(self, per_dc: list, r: int, scores: np.ndarray,
                     pen_unary) -> tuple:
        """Re-score block row ``r`` (``scores``: its ``logp + gumbel``)
        against the live state, in the block's operation order, so a
        kept and a re-scored row are the same computation at B=1;
        returns the pick and each DC's counts of the row."""
        if self.tracer is not None:
            self.tracer.count("rescored_rows")
        live = []
        for weight, index, keys, _, _ in per_dc:
            counts = index.block_counts(keys, slice(r, r + 1))[0]
            scores = scores - weight * counts
            live.append(counts)
        if pen_unary is not None:
            scores = scores - pen_unary[r]
        return int(np.argmax(scores)), live

    def _fold_row(self, i: int) -> None:
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

    # -- numerical FD window lane ----------------------------------------
    def _num_fd_specs(self) -> list | None:
        """``(dc, weight, index)`` per active DC (``index`` None for a
        unary DC) when every non-unary one is an FD onto this numerical
        target whose index counts it on its value grid
        (``dependent_grid``), else None.  Unary DCs alone qualify too."""
        if self.layout.kind == "cat" or self.used is not None:
            return None
        specs = []
        for dc, weight, _ in self._active_specs:
            index = None
            if not dc.is_unary:
                index = self.vio[dc.name]
                if index.dependent_grid(self.w) is None:
                    return None
            specs.append((dc, weight, index))
        return specs

    def _fill_num_fd_lane(self, n: int, max_block: int,
                          specs: list) -> None:
        """Windows of rows scored in one shot against the FD tables.

        A window gathers each row's base candidates, its hard FDs' first
        prefix dependents (the extras of ``_consistent_values``), their
        log-probabilities, the penalties ``weight * (size - count)`` in
        the DC order of the per-row pass and the gumbel slots, and takes
        one argmax.  A row keeps its pick unless an earlier row of the
        window in one of its FD groups picked another value, or (hard
        FDs, whose groups feed the extras) a value its group did not
        hold at the window start: otherwise its candidates and the
        penalty at its pick are unchanged, and since penalties only grow
        as groups grow, the same first-index argmax wins (the argument
        of :meth:`fill_cat`).  The indexes name that kept prefix and
        fold it in bulk (``kept_prefix``, ``fold``), and the next window
        starts at the first row not kept, sized from the prefix just
        kept.  With no FD (unary
        DCs only) rows never interact, and every window keeps all its
        rows.

        Traced, each window counts as a block, its scored rows beyond
        the kept prefix as ``rescored_rows``, and the violating pairs
        the picks add under hard FDs as ``hard_violation_pairs``.
        """
        cols, w, tracer = self.cols, self.w, self.tracer
        layout, base = self.layout, self.base
        d, width = layout.d, layout.width
        gum = layout.gumbel_off
        fds = [index for _, _, index in specs if index is not None]
        hard = [index for index in fds if index.dc.hard]
        grid = fds[0].dependent_grid(w) if fds else None
        window, lo = max_block, 0
        while lo < n:
            hi = min(lo + window, n)
            B = hi - lo
            rows = np.arange(B)
            cmat, lpm = self._base_candidates(lo, hi)
            if hard:
                # Slots for the hard FDs' extras, masked until filled.
                cmat = np.concatenate(
                    [cmat, np.repeat(cmat[:, :1], width - d, axis=1)], axis=1)
                lpm = np.concatenate(
                    [lpm, np.full((B, width - d), -np.inf)], axis=1)
                extra = np.zeros((B, grid.shape[0]), dtype=bool)
                for index in hard:
                    held = index.holds(index.group_codes(cols,
                                                         slice(lo, hi)))
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
            penalty = None
            per_dc = []
            for dc, weight, index in specs:
                if index is None:
                    counts = np.vstack([
                        multi_candidate_violation_counts(
                            dc, {w: cmat[r]},
                            {a: cols[a][lo + r] for a in dc.attributes
                             if a != w}, {})
                        for r in range(B)])
                else:
                    keys = index.lane_keys({w: cmat}, cols, lo, hi)
                    counts = index.block_counts(keys)
                    per_dc.append((index, keys, counts))
                penalty = (weight * counts if penalty is None
                           else penalty + weight * counts)
            u = self.noise.rows(lo, hi)
            g = _gumbel(u[:, gum:gum + width])
            picks = np.argmax(lpm + g if penalty is None
                              else lpm - penalty + g, axis=1)
            # Hard FDs' groups feed the extras: a value new to a group
            # ends the prefix too.
            stop = min((index.kept_prefix(keys, picks,
                                          held_only=index.dc.hard)
                        for index, keys, _ in per_dc), default=B)
            self.wcols[w][lo:lo + stop] = cmat[rows[:stop], picks[:stop]]
            for index, keys, _ in per_dc:
                index.fold(keys, picks[:stop])
            if tracer is not None:
                tracer.observe_block(B)
                if stop < B:
                    tracer.count("rescored_rows", B - stop)
                pairs = sum(int(counts[rows[:stop], picks[:stop]].sum())
                            for index, _, counts in per_dc
                            if index.dc.hard)
                if pairs:
                    tracer.count("hard_violation_pairs", pairs)
            lo += stop
            window = min(max_block, max(_MIN_WINDOW_ROWS, 2 * stop))

    # -- the per-row pass ------------------------------------------------
    def fill_numeric_sequential(self, n: int) -> None:
        """The per-row pass: every numerical column the window lane does
        not take (order and generic DCs, FDs on the dict index, targets
        that take fresh values).  Base candidates and uniforms come a
        noise chunk at a time from the vectorized machinery; only
        extras, penalty probes, and the argmax run per row — strictly
        less per-row Python than the reference loop (no per-row rng, no
        normalise-and-choice).

        Traced, the pass counts ``hard_violation_pairs``: the violating
        pairs its rows add under hard binary DCs.
        """
        sampler, layout = self.sampler, self.layout
        w, cols, j = self.w, self.cols, self.j
        tracer = self.tracer
        if tracer is not None:
            tracer.count("sequential_rows", n)
        gum_off, fresh_off = layout.gumbel_off, layout.fresh_off
        hist = self.base[1] if layout.kind == "numhist" else None
        # (dc, weight, index or None if unary, context attrs, counted)
        probes = [(dc, weight, None if dc.is_unary else self.vio[dc.name],
                   [a for a in dc.attributes if a != w],
                   tracer is not None and dc.hard and not dc.is_unary)
                  for dc, weight, _ in self._active_specs]
        hard_pairs = 0
        chunk = self.noise.chunk
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            cand_rows, logp_rows = self._base_candidates(lo, hi)
            u_rows = self.noise.rows(lo, hi)
            g_rows = _gumbel(u_rows[:, gum_off:gum_off + layout.width])
            for r in range(hi - lo):
                i = lo + r
                cand, logp = cand_rows[r], logp_rows[r]
                if layout.extras:
                    extra = sampler._consistent_values(
                        j, w, cols, i, indexes=self.vio,
                        prefix_rows=self.row_offset + i)
                    fresh = _EMPTY
                    if fresh_off >= 0:
                        fresh = sampler._fresh_values(
                            j, w, cols, i, used=self.used,
                            uniforms=u_rows[r, fresh_off:
                                            fresh_off + _FRESH_TRIES],
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
                pen = None
                hard_counts = []
                for dc, weight, index, ctx_attrs, counted in probes:
                    tv = {w: cand}
                    context = {a: cols[a][i] for a in ctx_attrs}
                    counts = (multi_candidate_violation_counts(dc, tv,
                                                               context, {})
                              if index is None
                              else index.candidate_counts(tv, context))
                    pen = (weight * counts if pen is None
                           else pen + weight * counts)
                    if counted:
                        hard_counts.append(counts)
                g = g_rows[r, :cand.shape[0]]
                scores = logp + g if pen is None else logp - pen + g
                pick = int(np.argmax(scores))
                self.wcols[w][i] = cand[pick]
                for counts in hard_counts:
                    hard_pairs += int(counts[pick])
                self._fold_row(i)
        if hard_pairs:
            tracer.count("hard_violation_pairs", hard_pairs)

    # -- lane dispatch ---------------------------------------------------
    def fill(self, n: int, max_block: int) -> None:
        """Draw rows ``0..n`` of this column on its lane: the one lane
        dispatch.

        A categorical target scores blocks of up to ``max_block`` rows
        (:meth:`fill_cat`).  A numerical one runs in windows of up to
        ``max_block`` rows when its DCs are FDs counted on its value
        grid or unary DCs alone (:meth:`_fill_num_fd_lane`, traced as
        ``num-blocked``), and per row otherwise
        (:meth:`fill_numeric_sequential`, ``num-sequential``).  A
        DC-free column is the zero-penalty case of the first and the
        window lane: blocks of one noise chunk, each kept whole, traced
        ``unconstrained``.
        """
        if not self.active:
            max_block = self.noise.chunk
        if self.layout.kind == "cat":
            self.fill_cat(n, max_block)
            return
        specs = self._num_fd_specs()
        self._trace_lane("num-sequential" if specs is None
                         else "num-blocked")
        if specs is None:
            self.fill_numeric_sequential(n)
        else:
            self._fill_num_fd_lane(n, max_block, specs)

    def _trace_lane(self, lane: str) -> None:
        """Name the lane on the column trace; a column with no active DC
        reads ``unconstrained``."""
        if self.tracer is not None:
            self.tracer.mode = lane if self.active else "unconstrained"


# ----------------------------------------------------------------------
# Process-pool lane: group-closed constrained shards
# ----------------------------------------------------------------------
def _shard_attrs(sampler: _ColumnSampler, j: int) -> list[str]:
    """Earlier-column attributes a constrained shard must gather: every
    active DC's attributes minus the target's own (not yet sampled)
    attributes."""
    w = sampler.wseq[j]
    if sampler.hyper.is_hyper(w):
        tattrs = set(sampler.hyper.original_attrs(w))
    else:
        tattrs = {w}
    need: set[str] = set()
    for dc in sampler.active_at[j]:
        need |= set(dc.attributes)
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


def _shard_base(sampler: _ColumnSampler, j: int, base, wcols: dict,
                rows) -> tuple:
    """What a worker needs for a shard's base: ``(wctx, shipped)``.

    A numerical base ships as its rows (``wctx`` empty): its head's last
    bits depend on the batch size, so a worker must not recompute it.
    Every other base is row-pure and cheaper to recompute than to ship,
    so it ships as the context slices its sub-model reads (none for a
    histogram).
    """
    if base[0] == "num":
        return {}, ("num", base[1][rows], base[2][rows])
    w = sampler.wseq[j]
    if j == 0 or w in sampler.model.independent:
        return {}, None
    return {a: wcols[a][rows] for a in sampler.model.context_attrs[w]}, None


#: The per-process sampler, built once per worker from the pickled
#: model payload by :func:`_pool_init`.
_POOL_SAMPLER: _ColumnSampler | None = None


def _pool_context():
    """Prefer fork (cheap, payload inherited); fall back to default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _pool_init(model, relation, dcs, weights, params, hyper) -> None:
    global _POOL_SAMPLER
    _POOL_SAMPLER = _ColumnSampler(
        model, relation, hyper, dcs, weights, params,
        rng=np.random.default_rng(0))


def _pool_constrained(j: int, rows: np.ndarray, noise_key: tuple,
                      wctx: dict, shipped, gctx: dict, max_block: int):
    """Worker-side group-closed constrained shard: compact spec in,
    target column slices out.

    A categorical base is row-pure, so recomputing it over the gathered
    context slices equals the parent's rows; a numerical base arrives
    as the parent's rows (``shipped``).  The noise view addresses
    global rows, so the draw is position-exact.  The pass starts its
    own (shard-local) :class:`_PassState`, as the driver does: rows
    outside the shard share no group with rows inside it, so the local
    indexes answer every probe with exactly the global counts.
    """
    fault_point("engine.worker")
    s = _POOL_SAMPLER
    m = rows.shape[0]
    base = (shipped if shipped is not None
            else s.base_distribution(j, wctx, m))
    tcols, gw = _shard_buffers(s, j, m)
    gcols = dict(gctx)
    gcols.update(tcols)
    w = s.wseq[j]
    noise = _GatherNoise(_CellNoise(*noise_key), rows)
    _ColumnPass(s, j, base, _layout_for(s, j, base), noise, gcols,
                {w: gw}, _PassState.start(s, j)).fill(m, max_block)
    return gw, {a: vals for a, vals in tcols.items() if a != w}


def _run_sharded(sampler: _ColumnSampler, j: int, base, noise_key: tuple,
                 cols: dict, wcols: dict, shards: list, max_block: int,
                 ppool, tracer=None) -> None:
    """Group-closed constrained shards on the worker processes.

    Every shard's result is collected before a byte is stitched, so a
    dead worker leaves the output columns untouched.  Shard outputs
    stitch back by their (disjoint) global row indices; completion
    order cannot matter.
    """
    need = _shard_attrs(sampler, j)
    futs = [ppool.submit(_pool_constrained, j, rows, noise_key,
                         *_shard_base(sampler, j, base, wcols, rows),
                         {a: cols[a][rows] for a in need}, max_block)
            for rows in shards]
    results = [f.result() for f in futs]
    w = sampler.wseq[j]
    t0 = time.perf_counter()
    for rows, (gw, members) in zip(shards, results):
        wcols[w][rows] = gw
        for a, vals in members.items():
            cols[a][rows] = vals
    if tracer is not None:
        tracer.count("stitch_us", int((time.perf_counter() - t0) * 1e6))


def _heal_pool(ppool, tracer=None) -> None:
    """Retire a broken process pool: the rest of the draw runs inline.

    Safe to call mid-draw: :func:`_run_sharded` collects *every* shard
    future before stitching a single byte, so a worker death leaves the
    output columns untouched and the column re-runs inline —
    bit-identical, because the draw is a pure function of ``(model, n,
    seed)`` and sharding is scheduling.  The degrade is recorded on the
    column trace (``pool_broken``) and the ``repro.engine`` logger.
    """
    _LOG.warning("process-pool worker died; drawing the rest of this "
                 "draw inline (output unchanged)")
    ppool.shutdown(wait=False)
    if tracer is not None:
        tracer.count("pool_broken", 1)


# ----------------------------------------------------------------------
# The draw driver and its two entry points
# ----------------------------------------------------------------------
def _draw(model, relation, dcs, weights, n: int, params, seed: int,
          hyper: HyperSpec | None, chunk_rows: int, noise_chunk: int,
          workers: int = 1, trace=None):
    """Yield the draw of ``n`` rows in chunks of ``chunk_rows`` rows (one
    empty chunk when ``n`` is 0).

    Each chunk runs every column's pass over its row range.  A column's
    :class:`_PassState` starts with its first chunk and is dropped
    after its last; its base, layout, noise view and pass live for one
    chunk, and the noise view reads global rows.  ``workers > 1`` (at
    ``n >= 2 * _MIN_SHARD_ROWS``, no MCMC) shards constrained columns
    onto worker processes and ``mcmc_m > 0`` refines each column after
    its pass; both need the whole draw in one chunk, so only
    :func:`synthesize_engine` asks for them.

    ``trace`` (a :class:`repro.obs.trace.SampleTrace`) gets one
    :class:`~repro.obs.trace.ColumnTrace` per working column, summed
    over the chunks, and is finished with the drain's wall clock.
    """
    start = time.perf_counter()
    if hyper is None:
        hyper = HyperSpec.trivial(relation, model.sequence)
    master = int(seed)
    sampler = _ColumnSampler(
        model, relation, hyper, dcs, weights, params,
        rng=np.random.default_rng(0))
    ncols = len(sampler.wseq)
    states: list[_PassState | None] = [None] * ncols
    col_traces = [None] * ncols
    # Workers only pay off past the sharding floor; below it, and under
    # the (sequential) MCMC refinement, every column runs inline.
    ppool = None
    if (workers > 1 and params.mcmc_m == 0
            and n >= max(2 * _MIN_SHARD_ROWS, workers)):
        ppool = ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context(),
            initializer=_pool_init,
            initargs=(model, relation, dcs, weights, params, hyper))
    try:
        for off in range(0, max(n, 1), chunk_rows):
            m = min(chunk_rows, n - off)
            cols = _allocate_columns(relation, m)
            wcols = _allocate_working(sampler, cols, m)
            for j in range(ncols):
                col_trace = col_traces[j]
                if trace is not None:
                    if col_trace is None:
                        col_trace = col_traces[j] = trace.column(
                            sampler.wseq[j])
                        if not sampler.active_at[j]:
                            col_trace.count("shards")  # always inline
                    col_start = time.perf_counter()
                base = sampler.base_distribution(j, wcols, m,
                                                 tracer=col_trace)
                layout = _layout_for(sampler, j, base)
                noise_key = (master, 2 * j, layout.stride, noise_chunk, n)
                shards = None
                if ppool is not None and sampler.active_at[j]:
                    shards = _column_shards(sampler, j, cols, m, workers)
                if shards is not None:
                    if col_trace is not None:
                        col_trace.mode = (
                            "cat-sharded" if layout.kind == "cat"
                            else "num-sharded")
                        col_trace.count("shards", len(shards))
                    try:
                        _run_sharded(sampler, j, base, noise_key, cols,
                                     wcols, shards, MAX_BLOCK_ROWS, ppool,
                                     tracer=col_trace)
                    except BrokenProcessPool:
                        _heal_pool(ppool, tracer=col_trace)
                        ppool = shards = None
                if shards is None:
                    state = states[j] or _PassState.start(sampler, j)
                    states[j] = state if off + m < n else None
                    _ColumnPass(sampler, j, base, layout,
                                _CellNoise(*noise_key, offset=off), cols,
                                wcols, state, tracer=col_trace,
                                row_offset=off).fill(m, MAX_BLOCK_ROWS)
                if col_trace is not None:
                    col_trace.finish(time.perf_counter() - col_start, m)
                if params.mcmc_m > 0:
                    # The refinement is inherently sequential; it draws
                    # from its own keyed stream so the column passes
                    # above stay schedule-invariant.
                    sampler.rng = np.random.Generator(np.random.Philox(
                        np.random.SeedSequence([master, 2 * j + 1])))
                    _mcmc_resample(sampler, j, cols, wcols, m,
                                   params.mcmc_m)
            yield Table(relation, cols, validate=False)
    finally:
        if ppool is not None:
            ppool.shutdown(wait=True)
    if trace is not None:
        trace.finish(time.perf_counter() - start)


def _column_shards(sampler: _ColumnSampler, j: int, cols: dict, n: int,
                   workers: int) -> list[np.ndarray] | None:
    """Group-closed row shards of constrained position ``j``, or None
    when it cannot shard (see :func:`_shard_rows`)."""
    specs = _conflict_keys(sampler, j)
    if specs is None or sampler.fresh_value_tracker(j) is not None:
        return None
    return _shard_rows(specs, cols, n, workers)


def synthesize_engine(model, relation, dcs, weights, n: int, params,
                      seed: int, hyper: HyperSpec | None = None,
                      workers: int = 1, noise_chunk: int = NOISE_CHUNK,
                      trace=None) -> Table:
    """Algorithm 3: draw a synthetic instance of ``n`` rows — the
    one-chunk call of the draw driver (:func:`_draw`).

    The output is a deterministic function of the arguments — in
    particular it does **not** depend on ``workers`` (a scheduling knob
    only), nor on the block cap :data:`MAX_BLOCK_ROWS`.  ``seed`` keys
    every per-cell noise stream; ``noise_chunk`` is the persisted
    chunking of those streams (model format v2 records it so reloaded
    models replay their draws).

    ``workers > 1`` (at ``n >= 2 * _MIN_SHARD_ROWS``, without MCMC)
    runs the group-closed shards of constrained columns on a
    :class:`~concurrent.futures.ProcessPoolExecutor` (item 5 of the
    module docstring); every other column draws inline.  If a worker
    dies, its column re-runs inline and so does the rest of the draw
    (:func:`_heal_pool`).

    ``trace`` (a :class:`repro.obs.trace.SampleTrace`) records one
    :class:`~repro.obs.trace.ColumnTrace` per working column: wall
    clock, lane (``unconstrained``; the categorical block lane as
    ``cat-fd-lane`` where every index folds kept prefixes in bulk, else
    ``cat-generic``; ``num-blocked``/``num-sequential``; plus
    ``cat-sharded``/``num-sharded`` with ``shards``/``stitch_us``
    counters when a constrained column splits), block sizes, re-scored
    rows, ``hard_violation_pairs`` and index probe counts.  Tracing reads no randomness — a traced draw is
    bit-identical to an untraced one — and ``None`` costs nothing.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    (table,) = _draw(model, relation, dcs, weights, n, params, seed, hyper,
                     max(n, 1), noise_chunk, workers=workers, trace=trace)
    return table


def synthesize_stream(model, relation, dcs, weights, n: int, params,
                      seed: int, hyper: HyperSpec | None = None,
                      chunk_rows: int = STREAM_CHUNK_ROWS,
                      noise_chunk: int = NOISE_CHUNK, trace=None):
    """Yield the draw of ``n`` rows in chunks of ``chunk_rows`` rows.

    The chunks come from the draw driver (:func:`_draw`) that
    :func:`synthesize_engine` calls with one chunk, so a stream whose
    ``chunk_rows`` covers ``n`` is the single-shot draw by
    construction.  With more chunks, each cell still reads the noise of
    its *global* row and each column's constraint state
    (:class:`_PassState`: violation indexes, used-value set) persists
    across chunks exactly as one long pass would build it, so the concatenated chunks equal the single-shot draw bit for
    bit — except in numerical columns drawn from a sub-model head,
    whose last bits depend on the batch size (ROADMAP item 1: tpch
    ``o_totalprice`` and adult ``fnlwgt`` move in a few hundred cells
    of a 70,000-row draw in 65,536-row chunks).

    Peak memory holds one ``chunk_rows``-row table, each categorical
    column's (chunk_rows, V) base and the (k, V) rows of its chunk's k
    distinct context tuples it is gathered from (k is at most half the
    chunk), a numerical target's (chunk_rows, d) context vectors and
    the index state of the columns drawn so far; every other scratch
    array is one inference tile or noise chunk — never the full ``n``
    rows.  Every DC shape streams.  ``mcmc_m > 0`` is rejected: the
    refinement re-reads the whole instance.  ``trace`` (a
    :class:`~repro.obs.trace.SampleTrace`) gets per-column traces
    summed over the chunks.  ``n = 0`` yields no chunk.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if params.mcmc_m > 0:
        raise ValueError(
            "streaming draws require mcmc_m == 0: the MCMC refinement "
            "re-reads the full instance")
    if n > 0:
        yield from _draw(model, relation, dcs, weights, n, params, seed,
                         hyper, chunk_rows, noise_chunk, trace=trace)
