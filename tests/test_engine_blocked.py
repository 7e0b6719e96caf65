"""Tests for the block-scheduled vectorized sampling engine.

Pins the engine's contract:

* scheduling invariance — the draw is a pure function of
  ``(model, DCs, weights, n, seed)``: block size and worker count
  never change a cell;
* statistical equivalence with the per-row reference loop
  (``row_reference``) — same marginals and violation behaviour (they
  share a sampling law and differ only in rng scheme);
* hard-DC enforcement, the ``workers``/``pool`` surface, and
  model-format round-trips (counter-rng spec persisted; files written
  for the retired row engine, or recording a retired switch, draw on
  the blocked engine);
* two hard FDs onto one dependent, each kept by its own violation
  index: a row joining two groups takes the value both hold.
"""

import copy
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.constraints import count_violations, parse_dc
from repro.core import FittedKamino, Kamino, KaminoConfig
from repro.core.engine import (
    _NOISE_CACHE_CHUNKS, MAX_BLOCK_ROWS, _CellNoise, _ColumnPass, _LRU,
    _layout_for, _PassState, synthesize_engine, synthesize_stream,
)
from repro.core.hyper import HyperSpec
from repro.core.sampling import (
    _allocate_columns, _allocate_working, _ColumnSampler,
)
from repro.obs.trace import RunTrace
from repro.datasets import load
from repro.evaluation import total_variation_distance
from repro.schema import (
    Attribute, CategoricalDomain, NumericalDomain, Relation, Table,
)
from row_reference import _fill_column, sample_rows


def _cap(params):
    params.iterations = min(params.iterations, 10)
    params.embed_dim = 6


def _assert_tables_equal(a, b, msg=""):
    for name in a.relation.names:
        np.testing.assert_array_equal(a.column(name), b.column(name),
                                      err_msg=f"{msg}:{name}")


@pytest.fixture(scope="module", params=["tpch", "adult", "tax"])
def fitted(request):
    ds = load(request.param, n=160, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    return ds, Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)


# ----------------------------------------------------------------------
# Scheduling invariance
# ----------------------------------------------------------------------
def test_block_size_invariance(fitted, monkeypatch):
    ds, model = fitted
    args = (model.model, ds.relation, model.dcs, model.weights, 120,
            model.params, 11)

    def draw():
        trace = RunTrace().begin_sample("blocked", 120, 11)
        table = synthesize_engine(*args, hyper=model.hyper, trace=trace)
        return table, trace.aggregate_counters().get("blocks", 0)

    default, default_blocks = draw()
    for cap in (1, 17):
        monkeypatch.setattr(engine_mod, "MAX_BLOCK_ROWS", cap)
        table, blocks = draw()
        # The patched cap really schedules smaller blocks...
        assert blocks > default_blocks
        # ...and never changes a cell.
        _assert_tables_equal(table, default, f"{cap}-vs-default")


def test_workers_bit_identical(fitted):
    ds, model = fitted
    one = model.sample(n=200, seed=5, workers=1)
    four = model.sample(n=200, seed=5, workers=4)
    _assert_tables_equal(one.table, four.table, "workers")


def test_same_seed_same_draw_and_seeds_differ(fitted):
    ds, model = fitted
    a = model.sample(n=100, seed=3)
    b = model.sample(n=100, seed=3)
    c = model.sample(n=100, seed=4)
    _assert_tables_equal(a.table, b.table, "repeat")
    assert any(not np.array_equal(a.table.column(x), c.table.column(x))
               for x in ds.relation.names)


# ----------------------------------------------------------------------
# Semantics
# ----------------------------------------------------------------------
def test_blocked_enforces_hard_dcs(fitted):
    ds, model = fitted
    result = model.sample(n=150, seed=9)
    for dc in ds.dcs:
        if dc.hard:
            assert count_violations(dc, result.table) == 0, dc.name


def test_blocked_row_statistical_equivalence():
    """Same law, different rng scheme: the engine's marginals must
    agree closely with the per-row reference loop's.

    Hard-FD *dependents* are excluded from the marginal comparison —
    their marginal is dominated by one draw per determinant group (two
    reference-loop seeds differ just as much), so the meaningful check
    there is FD consistency, asserted for both below.
    """
    ds = load("adult", n=500, seed=1)
    cfg = KaminoConfig(epsilon=float("inf"), seed=0, params_override=_cap)
    model = Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)
    blocked = model.sample(n=500, seed=2).table
    row = sample_rows(model, 500, 2)
    row_b = sample_rows(model, 500, 3)
    hard_attrs: set = set()
    for dc in ds.dcs:
        if dc.hard and not dc.is_unary:
            hard_attrs |= dc.attributes
    for attr in ds.relation.names:
        cross = total_variation_distance(blocked, row, (attr,))
        if attr in hard_attrs:
            # Hard-DC attributes are constraint-dominated: a few early
            # draws pin whole groups, so even two reference-loop seeds
            # differ substantially.  Demand no more divergence across
            # samplers than across seeds within one.
            floor = total_variation_distance(row, row_b, (attr,))
            assert cross < floor + 0.15, \
                f"{attr}: TVD {cross:.3f} vs seed-noise {floor:.3f}"
        else:
            assert cross < 0.3, f"{attr}: TVD {cross:.3f}"
    for dc in ds.dcs:
        if dc.hard:
            assert count_violations(dc, blocked) == 0
            assert count_violations(dc, row) == 0


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def test_model_io_persists_engine_and_rng_spec(tmp_path):
    ds = load("tpch", n=80, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    model = Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)
    path = str(tmp_path / "m.npz")
    model.save(path)
    reloaded = FittedKamino.load(path, ds.relation, ds.dcs)
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta.json"]))
    # The record feeds every artifact digest and checkpoint key: the
    # retired entries (engine, then draw scheduling) keep their places
    # as the constants they always held.
    assert list(meta["fitted"]["config"].items()) == [
        ("epsilon", 1.0), ("delta", 1e-06), ("seed", 0),
        ("group_max_domain", None), ("large_domain_threshold", 1000),
        ("use_fd_lookup", False), ("use_violation_index", True),
        ("parallel_training", False), ("random_sequence", False),
        ("constraint_aware_sampling", True),
        ("weight_estimator", "matrix"), ("engine", "blocked"),
        ("workers", 1), ("pool", "thread"), ("max_block_rows", 512),
        ("stream_chunk_rows", 65536)]
    assert reloaded.rng_spec == model.rng_spec
    assert reloaded.rng_spec["scheme"] == "philox-cell"
    _assert_tables_equal(model.sample(n=70, seed=4).table,
                         reloaded.sample(n=70, seed=4).table, "roundtrip")


@pytest.mark.parametrize("written_for",
                         ["no-engine-entry", "row", "scheduling",
                          "scan-probes", "fd-lookup"])
def test_legacy_model_files_draw_on_the_blocked_engine(tmp_path,
                                                       written_for):
    """Files written for the retired row engine — an ``engine`` entry
    reading ``"row"``, or none at all (written before the entry
    existed, with no rng spec either) — and files recording draw
    scheduling, prefix-scan probes or the hard-FD lookup in their
    config load and draw what the fresh artifact draws: seeded, at the
    default seed, and streamed."""
    ds = load("tpch", n=80, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    model = Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)
    path = str(tmp_path / "m.npz")
    model.save(path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(str(arrays["meta.json"]))
    if written_for == "row":
        meta["fitted"]["config"]["engine"] = "row"
    elif written_for == "scheduling":
        meta["fitted"]["config"].update(workers=4, pool="process",
                                        max_block_rows=64,
                                        stream_chunk_rows=1000)
    elif written_for == "scan-probes":
        meta["fitted"]["config"]["use_violation_index"] = False
    elif written_for == "fd-lookup":
        meta["fitted"]["config"]["use_fd_lookup"] = True
    else:
        del meta["fitted"]["config"]["engine"]
        del meta["fitted"]["rng_spec"]
    arrays["meta.json"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    legacy = FittedKamino.load(path, ds.relation, ds.dcs)
    assert legacy.config == cfg.replace(params_override=None)
    _assert_tables_equal(model.sample(n=70, seed=4).table,
                         legacy.sample(n=70, seed=4).table, "seeded")
    _assert_tables_equal(model.sample().table, legacy.sample().table,
                         "default-seed")
    fresh = list(model.sample_stream(n=2500, seed=4))
    old = list(legacy.sample_stream(n=2500, seed=4))
    assert len(old) == len(fresh) == 1
    _assert_tables_equal(fresh[0], old[0], "streamed")


# ----------------------------------------------------------------------
# Process pool, group-disjoint sub-schedules, streaming
# ----------------------------------------------------------------------
#: Above the sharding floor (2 x _MIN_SHARD_ROWS) so constrained
#: columns actually split into group-disjoint sub-schedules.
_SHARD_N = 4608


def test_process_pool_bit_identical(fitted):
    ds, model = fitted
    one = model.sample(n=_SHARD_N, seed=5, workers=1)
    proc = model.sample(n=_SHARD_N, seed=5, workers=4, pool="process")
    _assert_tables_equal(one.table, proc.table, "process-pool")


def test_sharded_lanes_engage_and_stitch(fitted):
    """Every benchmark dataset has >= 1 constrained column that splits
    into group-disjoint sub-schedules at this n, and the stitch timer
    records the scatter; unconstrained columns draw inline, one shard
    each."""
    ds, model = fitted
    trace = RunTrace()
    model.sample(n=_SHARD_N, seed=6, workers=4, trace=trace)
    columns = trace.samples[0].columns
    sharded = [c for c in columns
               if c.mode in ("cat-sharded", "num-sharded")]
    assert sharded, [c.mode for c in columns]
    for col in sharded:
        assert col.counters.get("shards", 0) >= 2
        assert "stitch_us" in col.counters
    for col in columns:
        if col.mode == "unconstrained":
            assert col.counters["shards"] == 1, (col.name, col.counters)
            assert "stitch_us" not in col.counters


def test_stream_concat_bit_identical(fitted):
    ds, model = fitted
    single = model.sample(n=1500, seed=8).table
    chunks = list(model.sample_stream(n=1500, seed=8, chunk_rows=367))
    assert sum(c.n for c in chunks) == 1500
    for name in ds.relation.names:
        np.testing.assert_array_equal(
            single.column(name),
            np.concatenate([c.column(name) for c in chunks]),
            err_msg=f"stream:{name}")


def test_stream_chunk_size_invariance(fitted):
    ds, model = fitted
    single = model.sample(n=60, seed=12).table
    for chunk_rows in (1, 23, 1000):
        chunks = list(model.sample_stream(n=60, seed=12,
                                          chunk_rows=chunk_rows))
        for name in ds.relation.names:
            np.testing.assert_array_equal(
                single.column(name),
                np.concatenate([c.column(name) for c in chunks]),
                err_msg=f"chunk_rows={chunk_rows}:{name}")


def test_workers_auto_resolves_at_draw_time(fitted):
    ds, model = fitted
    trace = RunTrace()
    auto = model.sample(n=64, seed=2, workers=0, trace=trace)
    assert trace.samples[0].workers == (os.cpu_count() or 1)
    one = model.sample(n=64, seed=2, workers=1)
    _assert_tables_equal(auto.table, one.table, "auto-workers")
    with pytest.raises(ValueError, match="workers"):
        model.sample(n=20, seed=2, workers=-1)


def test_pool_knob_validated(fitted):
    """``pool`` names the one lane: ``None`` and ``"process"`` draw the
    ``workers=1`` table; the retired thread lane raises."""
    ds, model = fitted
    with pytest.raises(ValueError, match="thread lane is retired"):
        model.sample(n=10, seed=0, pool="thread")
    with pytest.raises(ValueError, match="pool"):
        model.sample(n=10, seed=0, pool="fiber")
    one = model.sample(n=_SHARD_N, seed=6, workers=1).table
    for pool in (None, "process"):
        table = model.sample(n=_SHARD_N, seed=6, workers=3, pool=pool).table
        _assert_tables_equal(one, table, f"pool={pool}")


def test_dc_free_hyper_column_folds_in_bulk():
    """A DC-free grouped column (adult at ``group_max_domain=128``) keeps
    every row of its blocks and writes its member columns in bulk: it
    never takes the lane's per-row path, and it draws what writing each
    row on its own draws."""
    ds = load("adult", n=300, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, group_max_domain=128,
                       params_override=_cap)
    model = Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)
    hyper = {w for w in model.hyper.working_sequence
             if model.hyper.is_hyper(w)}
    assert hyper
    pass_cls = engine_mod._ColumnPass
    write = pass_cls._write_cat
    bulk_rows, row_writes = {}, []

    def spy(self, rows, picks):
        if isinstance(rows, slice):
            bulk_rows[self.w] = (bulk_rows.get(self.w, 0)
                                 + rows.stop - rows.start)
        else:
            row_writes.append(self.w)
        return write(self, rows, picks)

    trace = RunTrace()
    with mock.patch.object(pass_cls, "_write_cat", spy):
        bulk = model.sample(n=3000, seed=4, trace=trace).table
    assert not hyper & set(row_writes), row_writes
    assert {w: bulk_rows[w] for w in hyper} == dict.fromkeys(hyper, 3000)
    assert {c.name: c.mode for c in trace.samples[0].columns
            if c.name in hyper} == dict.fromkeys(hyper, "unconstrained")

    def one_by_one(self, rows, picks):
        if not isinstance(rows, slice):
            return write(self, rows, picks)
        for i, pick in zip(range(rows.start, rows.stop),
                           np.asarray(picks).tolist()):
            write(self, i, pick)

    with mock.patch.object(pass_cls, "_write_cat", one_by_one):
        per_row = model.sample(n=3000, seed=4).table
    _assert_tables_equal(bulk, per_row, "hyper")


def test_stream_rejects_mcmc(fitted):
    ds, model = fitted
    params = copy.copy(model.params)
    params.mcmc_m = 2
    with pytest.raises(ValueError, match="mcmc"):
        list(synthesize_stream(model.model, ds.relation, model.dcs,
                               model.weights, 10, params, 3,
                               hyper=model.hyper))


@pytest.mark.slow
def test_stream_bounded_memory():
    """A streamed draw's peak allocation is set by the chunk size, not
    by n (the n=10M enabler): quadrupling the row count leaves the
    peak essentially flat, where a materialized table would quadruple.

    Marked slow (tracemalloc over adult's per-row lane): the default
    run deselects it and CI runs it with ``-m slow``.
    """
    ds = load("adult", n=300, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    model = Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)

    def stream_peak(n):
        stream = model.sample_stream(n=n, seed=3, chunk_rows=2048)
        tracemalloc.start()
        rows = sum(chunk.n for chunk in stream)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert rows == n
        return peak

    small, large = stream_peak(12_000), stream_peak(48_000)
    # Slack for the per-column index state, the one O(n) structure the
    # constrained lanes genuinely need; it is dwarfed by the fixed
    # chunk-sized working set (model activations + noise cache).
    assert large < small * 1.25 + 4 * 12_000 * 8, (
        f"peak grew with n: {small} -> {large}")


def test_stream_chunk_scratch_is_tile_sized():
    """Each 65,536-row chunk of a tpch stream allocates under 64 MB
    above what was traced when the stream started: histogram bases are
    broadcast views, and the forward and the unconstrained lane run a
    tile at a time, so no scratch array spans the chunk (the chunk's
    columns and each categorical column's (n, V) base still do).
    Allocation sizes are deterministic, so the bound cannot flake;
    whole-chunk scratch arrays put each chunk's peak above 330 MB."""
    ds = load("tpch", n=800, seed=1)
    fitted = Kamino(ds.relation, ds.dcs, epsilon=1.0, delta=1e-6,
                    seed=1).fit(ds.table)
    tracemalloc.start()
    try:
        stream = fitted.sample_stream(n=131_072, seed=1000,
                                      chunk_rows=65_536)
        start = tracemalloc.get_traced_memory()[0]
        peaks = []
        while True:
            tracemalloc.reset_peak()
            chunk = next(stream, None)
            if chunk is None:
                break
            assert chunk.n == 65_536
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            del chunk
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2
    assert max(peaks) < 64 * 2**20, [p / 2**20 for p in peaks]


def test_lru_bounds_noise_and_base_caches():
    lru = _LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1     # refresh a
    lru.put("c", 3)              # evicts b, the least recent
    assert "b" not in lru and "a" in lru and "c" in lru
    assert len(lru) == 2

    noise = _CellNoise(123, 4, 6, 32, 10_000)
    first = noise.rows(0, 32).copy()
    for lo in range(0, 10_000, 32):
        noise.rows(lo, min(lo + 32, 10_000))
    assert len(noise._cache) <= _NOISE_CACHE_CHUNKS
    # Regeneration after eviction is bit-identical (counter-based).
    np.testing.assert_array_equal(noise.rows(0, 32), first)


@pytest.fixture(scope="module")
def tpch_fitted():
    ds = load("tpch", n=120, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    return ds, Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 220), chunk_rows=st.integers(1, 97),
       workers=st.integers(1, 4))
def test_schedule_sweep_bit_identical(tpch_fitted, n, chunk_rows,
                                      workers):
    """Hypothesis sweep over (n, chunk_rows, workers): chunked streams
    and sharded draws (floor lowered so tiny n shards too) always equal
    the sequential single-shot draw."""
    ds, model = tpch_fitted
    args = (model.model, ds.relation, model.dcs, model.weights, n,
            model.params, 13)
    single = synthesize_engine(*args, hyper=model.hyper)
    with mock.patch.object(engine_mod, "_MIN_SHARD_ROWS", 8):
        sharded = synthesize_engine(*args, hyper=model.hyper,
                                    workers=workers)
    chunks = list(synthesize_stream(*args, hyper=model.hyper,
                                    chunk_rows=chunk_rows))
    for name in ds.relation.names:
        np.testing.assert_array_equal(
            single.column(name), sharded.column(name),
            err_msg=f"sharded:{name}")
        np.testing.assert_array_equal(
            single.column(name),
            np.concatenate([c.column(name) for c in chunks]),
            err_msg=f"stream:{name}")


# ----------------------------------------------------------------------
# Two hard FDs onto one dependent
# ----------------------------------------------------------------------
def _shared_dependent_dataset(n=80, seed=0):
    rng = np.random.default_rng(seed)
    relation = Relation([
        Attribute("x", CategoricalDomain([f"x{i}" for i in range(12)])),
        Attribute("y", CategoricalDomain([f"y{i}" for i in range(12)])),
        Attribute("z", NumericalDomain(0, 30, integer=True, bins=16)),
    ])
    x = rng.integers(0, 10, n)
    y = (x + 1) % 10          # x <-> y aligned, so both FDs can hold
    z = (x * 3 % 30).astype(np.float64)
    table = Table(relation, {"x": x, "y": y, "z": z})
    dcs = [
        parse_dc("not(ti.x == tj.x and ti.z != tj.z)", name="fd_xz",
                 hard=True, relation=relation),
        parse_dc("not(ti.y == tj.y and ti.z != tj.z)", name="fd_yz",
                 hard=True, relation=relation),
    ]
    return relation, table, dcs


def test_two_hard_fds_onto_one_dependent_hold():
    """``x -> z`` and ``y -> z`` are hard and share the dependent.  Row 1
    shares row 0's ``x`` but brings a new ``y``; row 2 brings an unseen
    ``x`` and row 1's ``y``.  Each FD's violation index alone makes
    both rows take the value their groups hold, so the table draws with
    no violation, in the engine's pass and in the per-row reference."""
    relation, table, dcs = _shared_dependent_dataset()
    cfg = KaminoConfig(epsilon=float("inf"), seed=0, params_override=_cap)
    model = Kamino(relation, dcs, config=cfg).fit(table)
    # Impose x, y, z order so both FD determinants precede the shared
    # dependent (the sampler accepts any sequence whose contexts the
    # model can serve; z's context is a subset of {x, y}).
    hyper = HyperSpec.trivial(relation, ["x", "y", "z"])
    sampler = _ColumnSampler(
        model.model, relation, hyper, model.dcs, model.weights,
        model.params, np.random.default_rng(0))
    j, n = 2, 3

    def engine_pass(cols, wcols):
        base = sampler.base_distribution(j, wcols, n)
        layout = _layout_for(sampler, j, base)
        _ColumnPass(sampler, j, base, layout,
                    _CellNoise(0, 2 * j, layout.stride, n_rows=n), cols,
                    wcols, _PassState.start(sampler, j)
                    ).fill(n, MAX_BLOCK_ROWS)

    def reference(cols, wcols):
        _fill_column(sampler, j, cols, wcols, n)

    for fill in (engine_pass, reference):
        cols = _allocate_columns(relation, n)
        wcols = _allocate_working(sampler, cols, n)
        cols["x"][:] = [0, 0, 7]
        cols["y"][:] = [1, 4, 4]
        fill(cols, wcols)
        z = cols["z"]
        assert z[0] == z[1] == z[2], (fill.__name__, z)
        for dc in model.dcs:
            assert count_violations(dc, Table(relation, cols,
                                              validate=False)) == 0
