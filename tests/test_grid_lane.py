"""The sampler's numerical lanes over value-grid count tables.

Order DCs (adult ``phi_a2``, tax ``phi_t6``, br2000 ``phi_b1``) and
br2000's generic soft DCs (``phi_b2``, ``phi_b3``) count in
:class:`~repro.constraints.index.GridViolationIndex` tables.  Pins:

* draw digests recorded before the tables replaced the dense-grid /
  Fenwick order groups and the generic DCs' prefix scans: the four
  benchmark datasets at two seeds, a ``workers=2`` process-pool draw and
  MCMC draws over order and generic DCs (large shapes are ``slow``);
* draws of 2,049 and 4,097 rows, whose last inference and noise tiles
  hold one row, recorded before those tiles existed, at ``workers=1``
  and ``2``;
* br2000 streams — its generic DCs needed the sampled prefix before —
  and the streamed draw equals the single-shot one;
* the shapes a prefix scan or the sorted order index answered before
  every DC was index-served — a DC comparing two attributes (soft and
  hard), an order DC over a categorical grid past ``MAX_GRID_CELLS``,
  hyper-attribute targets carrying an order DC and a two-attribute DC:
  single-shot, accept-reject and MCMC digests recorded before, and
  streams equal to the single-shot draw;
* the engine's schedule: per constrained column of a traced draw of
  each dataset, its lane, scheduling counters and index probe counts,
  and per column the rows its sub-model's forward ran; a traced one-chunk stream reports
  the same, and a traced stream of three chunks traces every column
  over all its rows;
* the per-row pass counts ``hard_violation_pairs`` when traced: the
  count equals the rise of the hard DCs' index totals, on random
  relations under order and two-attribute DCs with violating history.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import GridViolationIndex, count_violations, parse_dc
from repro.core import Kamino
from repro.core.engine import (
    MAX_BLOCK_ROWS, _CellNoise, _ColumnPass, _layout_for, _PassState,
)
from repro.core.hyper import HyperSpec
from repro.core.params import KaminoParams
from repro.core.sampling import (
    _allocate_columns, _allocate_working, _ColumnSampler,
)
from repro.datasets import load
from repro.obs.trace import ColumnTrace, RunTrace
from repro.schema import (
    Attribute, CategoricalDomain, NumericalDomain, Relation, Table,
)


def _digest(relation, columns: dict) -> str:
    h = hashlib.sha256()
    for name in relation.names:
        c = np.ascontiguousarray(columns[name])
        h.update(name.encode() + str(c.dtype).encode() + c.tobytes())
    return h.hexdigest()[:16]


def _table_digest(table: Table) -> str:
    return _digest(table.relation,
                   {a: table.column(a) for a in table.relation.names})


def _fit(name: str, mcmc_m: int = 0):
    ds = load(name, n=800, seed=1)

    def override(params):
        params.mcmc_m = mcmc_m

    return Kamino(ds.relation, ds.dcs, epsilon=1.0, delta=1e-6, seed=1,
                  params_override=override if mcmc_m else None
                  ).fit(ds.table)


@pytest.fixture(scope="module")
def fits():
    cache = {}

    def get(name, mcmc_m=0):
        if (name, mcmc_m) not in cache:
            cache[name, mcmc_m] = _fit(name, mcmc_m)
        return cache[name, mcmc_m]
    return get


def test_sampler_indexes_order_and_generic_dcs_on_grids(fits):
    grid = {}
    for name in ("adult", "tax", "br2000"):
        fitted = fits(name)
        sampler = _ColumnSampler(
            fitted.model, fitted.relation, fitted.hyper, fitted.dcs,
            fitted.weights, fitted.params, np.random.default_rng(0))
        for j in range(len(sampler.wseq)):
            for dc_name, index in sampler.violation_indexes_for(j).items():
                if isinstance(index, GridViolationIndex):
                    grid[dc_name] = index.axes
    assert grid == {"phi_a2": ("cap_gain", "cap_loss"),
                    "phi_t6": ("rate", "salary"),
                    "phi_b1": ("a11", "a3"),
                    "phi_b2": ("a12", "a13", "a5"),
                    "phi_b3": ("a11", "a12", "a3", "a5")}


_SLOW = pytest.mark.slow


@pytest.mark.parametrize("name, n, seed, digest", [
    ("adult", 1500, 1000, "c82b7343b709a030"),
    ("adult", 1500, 2000, "8f6a0a8c1e1147c2"),
    ("tax", 1500, 1000, "4c4ef9d65c8826c8"),
    ("tax", 1500, 2000, "07aece867e02aef3"),
    ("tpch", 1500, 1000, "bf54c77759fc3f05"),
    ("tpch", 1500, 2000, "15679e25ee5387f2"),
    ("br2000", 1500, 1000, "9c83c70dfbf6fe80"),
    ("br2000", 1500, 2000, "2b61ed3a96f7006e"),
    pytest.param("adult", 10_000, 1000, "379cf0df50a563bd", marks=_SLOW),
    pytest.param("adult", 10_000, 2000, "8d41503791463178", marks=_SLOW),
    pytest.param("tax", 10_000, 1000, "80050b2241c7c53e", marks=_SLOW),
    pytest.param("tax", 10_000, 2000, "07645175d7440f49", marks=_SLOW),
    pytest.param("tpch", 50_000, 1000, "172897539155a41f", marks=_SLOW),
    pytest.param("tpch", 50_000, 2000, "15330a3b61d6d7ca", marks=_SLOW),
    pytest.param("br2000", 5_000, 1000, "c7d34da2e9979acb", marks=_SLOW),
    pytest.param("br2000", 5_000, 2000, "2000fad6ba6e162c", marks=_SLOW),
])
def test_draw_digests_pinned(fits, name, n, seed, digest):
    assert _table_digest(fits(name).sample(n=n, seed=seed).table) == digest


@pytest.mark.parametrize("name, n, digest", [
    ("adult", 2049, "441aa80ec242d29c"),
    ("adult", 4097, "5b74efff9b35c07b"),
    ("tax", 2049, "df3b5c277e01956e"),
    ("tax", 4097, "d9e747ae3d80c29b"),
    ("tpch", 2049, "1a7cd2eb3ee1cf74"),
    ("tpch", 4097, "7073ab099c66e45b"),
    ("br2000", 2049, "aeca64f7f9460de6"),
    ("br2000", 4097, "5fc53f676be69c7d"),
])
def test_one_row_last_tile_pinned(fits, name, n, digest):
    """Draws whose last inference tile and last noise tile hold one row,
    pinned before the forward and the unconstrained lane were tiled.
    Run unpadded, adult's 1-row last tile moves the 4,097-row draw; at
    ``workers=2`` it runs on worker processes."""
    fitted = fits(name)
    assert _table_digest(fitted.sample(n=n, seed=1004).table) == digest
    table = fitted.sample(n=n, seed=1004, workers=2).table
    assert _table_digest(table) == digest


@pytest.mark.parametrize("n, digest", [
    (5_000, "b63004956c1dacee"),
    pytest.param(10_000, "80050b2241c7c53e", marks=_SLOW),
])
def test_process_pool_draw_pinned(fits, n, digest):
    table = fits("tax").sample(n=n, seed=1000, workers=2,
                               pool="process").table
    assert _table_digest(table) == digest


@pytest.mark.parametrize("name, mcmc_m, n, digest", [
    ("adult", 300, 600, "4942b14992c17b84"),    # eq-less order DC
    ("tax", 200, 600, "ba4e674735036114"),      # order DC in state groups
    ("br2000", 200, 600, "76c67ef34de9689b"),   # generic DCs
])
def test_mcmc_draw_pinned(fits, name, mcmc_m, n, digest):
    table = fits(name, mcmc_m).sample(n=n, seed=5).table
    assert _table_digest(table) == digest


@pytest.mark.parametrize("n, digest", [
    (1_500, "9c83c70dfbf6fe80"),
    pytest.param(5_000, "c7d34da2e9979acb", marks=_SLOW),
])
def test_br2000_streams_equal_the_single_shot_draw(fits, n, digest):
    """The digests are the single-shot draws' pinned above."""
    fitted = fits("br2000")
    for chunk_rows in (777, None):
        chunks = list(fitted.sample_stream(n=n, seed=1000,
                                           chunk_rows=chunk_rows))
        columns = {a: np.concatenate([c.column(a) for c in chunks])
                   for a in fitted.relation.names}
        assert _digest(fitted.relation, columns) == digest, chunk_rows


# ----------------------------------------------------------------------
# Shapes that were scanned (or sort-indexed) before every DC had an index
# ----------------------------------------------------------------------
def _cap(params):
    params.iterations = min(params.iterations, 10)
    params.embed_dim = 6


def _fit_shape(shape: str):
    knobs = {}
    if shape.startswith("adult-cross"):
        ds = load("adult", n=400, seed=1)
        extra = [parse_dc("not(ti.age < tj.hours and ti.hours < tj.age)",
                          "cross", hard=shape.endswith("hard"),
                          relation=ds.relation)]
    elif shape == "tax-wide-order":
        ds = load("tax", n=400, seed=1)
        extra = [parse_dc("not(ti.areacode > tj.areacode and "
                          "ti.city < tj.city)", "wide", hard=True,
                          relation=ds.relation)]
    else:
        ds = load("br2000", n=400, seed=1)
        extra = [parse_dc("not(ti.a12 > tj.a12 and ti.a10 < tj.a10)",
                          "ord_h", hard=True),
                 parse_dc("not(ti.a1 < tj.a2 and ti.a2 < tj.a1)",
                          "cross_h", hard=False)]
        knobs["group_max_domain"] = 128
    return Kamino(ds.relation, ds.dcs + extra, epsilon=1.0, seed=1,
                  params_override=_cap, **knobs).fit(ds.table)


@pytest.fixture(scope="module")
def shapes():
    cache = {}

    def get(shape):
        if shape not in cache:
            cache[shape] = _fit_shape(shape)
        return cache[shape]
    return get


_SHAPE_DRAWS = {
    "single": lambda f: f.sample(n=600, seed=3).table,
    "ar": lambda f: f.sample_ar(n=60, seed=3).table,
    "mcmc": lambda f: dataclasses.replace(
        f, params=dataclasses.replace(f.params, mcmc_m=60)
    ).sample(n=400, seed=7).table,
}

#: Recorded while a prefix scan answered the two-attribute DCs and the
#: sorted order index the wide order DC.
_SHAPE_DIGESTS = {
    "adult-cross-soft": {"single": "49f821d140686931",
                         "ar": "8309137f66d49a0f",
                         "mcmc": "3397f2c6e9c0ce4e"},
    "adult-cross-hard": {"single": "66d879df0a09b274",
                         "ar": "239fb3c56c8730c4",
                         "mcmc": "761410ff96893b68"},
    "tax-wide-order": {"single": "d7663ef322f118fe",
                       "ar": "eb4c184dcfe9c087",
                       "mcmc": "f6ed39147dd8c24a"},
    "br2000-hyper": {"single": "0a150d62bcf72e0a",
                     "ar": "5117cbc06528d0de",
                     "mcmc": "9b5e2969b1efaa01"},
}


@pytest.mark.parametrize("shape, path, digest", [
    (shape, path, digest)
    for shape, digests in _SHAPE_DIGESTS.items()
    for path, digest in digests.items()])
def test_index_served_shape_digests_pinned(shapes, shape, path, digest):
    assert _table_digest(_SHAPE_DRAWS[path](shapes(shape))) == digest


@pytest.mark.parametrize("shape", sorted(_SHAPE_DIGESTS))
def test_index_served_shapes_stream_the_single_shot_draw(shapes, shape):
    fitted = shapes(shape)
    chunks = list(fitted.sample_stream(n=600, seed=3, chunk_rows=128))
    columns = {a: np.concatenate([c.column(a) for c in chunks])
               for a in fitted.relation.names}
    assert _digest(fitted.relation, columns) == \
        _SHAPE_DIGESTS[shape]["single"]


@pytest.mark.parametrize("shape, n, seed", [
    (shape, 600, 3) for shape in sorted(_SHAPE_DIGESTS)] + [
    ("tax-wide-order", 3000, 5)])
def test_index_served_shapes_count_hard_violation_pairs(shapes, shape, n,
                                                        seed):
    """Traced, every column counts ``hard_violation_pairs``, the pairs
    its picks add under its hard binary DCs: the scan count over the
    drawn table (each pass starts from empty indexes).  The categorical
    lane counts them whatever its indexes, so tax-wide-order's ``city``
    (an FD table and an order DC on point arrays) reads its 12 pairs at
    n=600, not 0; the traced draw is the pinned one."""
    fitted = shapes(shape)
    trace = RunTrace()
    table = fitted.sample(n=n, seed=seed, trace=trace).table
    if n == 600:
        assert _table_digest(table) == _SHAPE_DIGESTS[shape]["single"]
    sampler = _ColumnSampler(
        fitted.model, fitted.relation, fitted.hyper, fitted.dcs,
        fitted.weights, fitted.params, np.random.default_rng(0))
    counted = {}
    for col in trace.samples[0].columns:
        active = sampler.active_at[sampler.wseq.index(col.name)]
        counted[col.name] = col.counters.get("hard_violation_pairs", 0)
        assert counted[col.name] == sum(
            count_violations(dc, table) for dc in active
            if dc.hard and not dc.is_unary), col.name
    if shape == "tax-wide-order":
        assert counted["city"] == {600: 12, 3000: 3384}[n]


def test_index_served_shapes_take_the_retired_paths(shapes):
    """Each shape runs a path a prefix scan or the sorted order index
    served before: groups on point arrays (a two-attribute DC, the
    200 x 400 areacode/city grid past the cell cap) or a
    hyper-attribute target."""
    points = {}
    for shape in _SHAPE_DIGESTS:
        fitted = shapes(shape)
        sampler = _ColumnSampler(
            fitted.model, fitted.relation, fitted.hyper, fitted.dcs,
            fitted.weights, fitted.params, np.random.default_rng(0))
        for j, w in enumerate(sampler.wseq):
            for name, index in sampler.violation_indexes_for(j).items():
                if isinstance(index, GridViolationIndex) and (
                        index._ranks is None or "+" in w):
                    points[name] = (w, index._ranks is None)
    assert points == {"cross": ("age", True),
                      "wide": ("city", True),
                      "ord_h": ("a12+a10", False),
                      "cross_h": ("a1+a2+a4+a6+a7+a8+a9", True)}


# ----------------------------------------------------------------------
# The engine's schedule
# ----------------------------------------------------------------------
_SCHEDULE_KEYS = ("blocks", "rescored_rows", "sequential_rows",
                  "hard_violation_pairs")

_BLOCK, _DET, _PAIR, _ROW = ("probe_block_codes", "probe_det_codes",
                              "probe_pair", "candidate_counts")

#: Per constrained column of a traced n=1,500 draw at seed 1,000: the
#: lane, the counters of ``_SCHEDULE_KEYS`` and the index probes.  A
#: block lane probes once per block plus once per re-scored row, and
#: validates rows past the kept prefix one ``probe_pair`` per DC up to
#: the first moved count; the per-row pass probes every row.
_SCHEDULES = {
    "adult": {"edu_num": ("num-blocked", 13, 670, 0, 0, {_BLOCK: 13}),
              "cap_gain": ("num-sequential", 0, 0, 1500, 0, {_ROW: 1500})},
    "tax": {"child_exemp": ("num-blocked", 17, 1003, 0, 0, {_BLOCK: 17}),
            "single_exemp": ("num-blocked", 27, 1272, 0, 0,
                             {_BLOCK: 27}),
            "areacode": ("cat-fd-lane", 3, 441, 0, 59,
                         {_DET: 444, _PAIR: 1328}),
            "zip": ("cat-fd-lane", 3, 612, 0, 0, {_DET: 615, _PAIR: 1419}),
            "city": ("cat-fd-lane", 3, 46, 0, 0, {_BLOCK: 49, _PAIR: 1124}),
            "salary": ("num-sequential", 0, 0, 1500, 0, {_ROW: 1500})},
    "tpch": {"n_name": ("cat-fd-lane", 3, 436, 0, 0,
                        {_BLOCK: 439, _PAIR: 991}),
             "n_regionkey": ("cat-fd-lane", 3, 368, 0, 0,
                             {_BLOCK: 371, _PAIR: 511}),
             "c_mktsegment": ("cat-fd-lane", 3, 343, 0, 0,
                              {_BLOCK: 346, _PAIR: 986}),
             "c_nationkey": ("cat-fd-lane", 3, 435, 0, 0,
                             {_BLOCK: 438, _PAIR: 991})},
    "br2000": {"a11": ("num-sequential", 0, 0, 1500, 0, {_ROW: 1500}),
               "a5": ("num-sequential", 0, 0, 1500, 0, {_ROW: 3000})},
}

#: Per working column of the same draws: the rows its sub-model's
#: encoders and attention ran (``forward_rows``) — one per distinct
#: context tuple, or all 1,500 once more than half are distinct — and
#: None for a histogram column, which runs no forward.
_FORWARD_ROWS = {
    "adult": {"edu": None, "edu_num": 16, "income": 16, "sex": 32,
              "race": 64, "relationship": 289, "marital": 1500,
              "workclass": 1500, "country": 1500, "occupation": 1500,
              "cap_loss": 1500, "hours": 1500, "age": 1500,
              "cap_gain": 1500, "fnlwgt": 1500},
    "tax": {"has_child": None, "state": 2, "child_exemp": 100,
            "marital": 100, "single_exemp": 389, "areacode": 389,
            "zip": None, "city": 1500, "gender": 1500, "occupation": 1500,
            "rate": 1500, "salary": 1500},
    "tpch": {"c_custkey": None, "n_name": 71, "n_regionkey": 71,
             "c_mktsegment": 71, "c_nationkey": 71, "o_orderstatus": 71,
             "o_orderpriority": 194, "o_orderdate": 554,
             "o_totalprice": 1500},
    "br2000": {"a1": None, "a2": 2, "a4": 4, "a6": 8, "a7": 16, "a8": 32,
               "a9": 64, "a12": 128, "a10": 365, "a3": 1500, "a13": 1500,
               "a14": 1500, "a11": 1500, "a5": 1500},
}

#: The untraced draws' digests, pinned in ``test_draw_digests_pinned``.
_SEED_1000_DIGESTS = {"adult": "c82b7343b709a030",
                      "tax": "4c4ef9d65c8826c8",
                      "tpch": "bf54c77759fc3f05",
                      "br2000": "9c83c70dfbf6fe80"}


@pytest.mark.parametrize("name", sorted(_SCHEDULES))
def test_engine_schedule_pinned(fits, name):
    """Lanes, scheduling counters and index probes are pure functions of
    the model, n and seed.  Every lane's ``hard_violation_pairs`` equals the scan
    engine's count of its column's hard binary DCs in the drawn table
    (each pass starts from empty indexes); every column's
    ``forward_rows``, unconstrained ones included, is the count of
    distinct context tuples in the drawn table (n when more than half
    are distinct); and the traced draw is the untraced one.  A traced
    stream of one 1,500-row chunk runs the same driver call: the same
    table and, column by column, the same lanes, counters and probes.
    A traced stream of 512-row chunks traces every column once, on the
    same lane, over all 1,500 rows; a DC-free column counts one
    shard."""
    fitted = fits(name)
    trace = RunTrace()
    table = fitted.sample(n=1500, seed=1000, trace=trace).table
    assert _table_digest(table) == _SEED_1000_DIGESTS[name]
    sampler = _ColumnSampler(
        fitted.model, fitted.relation, fitted.hyper, fitted.dcs,
        fitted.weights, fitted.params, np.random.default_rng(0))
    got = {}
    for col in trace.samples[0].columns:
        if col.mode == "unconstrained":
            continue
        got[col.name] = (col.mode,) + tuple(
            col.counters.get(key, 0) for key in _SCHEDULE_KEYS) + (
            col.probes,)
        active = sampler.active_at[sampler.wseq.index(col.name)]
        assert col.counters.get("hard_violation_pairs", 0) == sum(
            count_violations(dc, table) for dc in active
            if dc.hard and not dc.is_unary), col.name
    assert got == _SCHEDULES[name]
    forward = {col.name: col.counters.get("forward_rows")
               for col in trace.samples[0].columns}
    assert forward == _FORWARD_ROWS[name]
    for w, context in fitted.model.context_attrs.items():
        k = np.unique(np.stack([table.column(a).astype(np.float64)
                                for a in context], axis=1), axis=0).shape[0]
        assert forward[w] == (k if 2 * k <= 1500 else 1500), w

    stream = RunTrace()
    (chunk,) = fitted.sample_stream(n=1500, seed=1000, chunk_rows=1500,
                                    trace=stream)
    assert _table_digest(chunk) == _SEED_1000_DIGESTS[name]
    (run,) = stream.samples
    assert run.engine == "blocked-stream"
    assert _column_schedule(run) == _column_schedule(trace.samples[0])

    multi = RunTrace()
    chunks = list(fitted.sample_stream(n=1500, seed=1000, chunk_rows=512,
                                       trace=multi))
    assert [chunk.n for chunk in chunks] == [512, 512, 476]
    (run,) = multi.samples
    assert run.seconds > 0
    assert [(col.name, col.mode, col.rows) for col in run.columns] == \
        [(col.name, col.mode, 1500) for col in trace.samples[0].columns]
    for col in run.columns:
        if col.mode == "unconstrained":
            assert col.counters["shards"] == 1, col.name


def _column_schedule(run) -> list:
    return [(col.name, col.mode, col.rows, col.counters, col.probes)
            for col in run.columns]


# ----------------------------------------------------------------------
# The per-row pass counts hard_violation_pairs
# ----------------------------------------------------------------------
_PER_ROW_DCS = {
    "ord": "not(ti.e == tj.e and ti.y > tj.y and ti.p < tj.p)",
    "ord0": "not(ti.y > tj.y and ti.p < tj.p)",
    "cross": "not(ti.y < tj.p and ti.p < tj.y)",
    "un": "not(ti.y > 20)",
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_per_row_pass_counts_hard_violation_pairs(data):
    """Traced, the per-row pass counts the violating pairs its rows add
    under hard binary DCs — the rise of their index totals over the
    pass — and draws what the untraced pass draws."""
    names = data.draw(st.lists(st.sampled_from(["cross", "ord", "ord0"]),
                               min_size=1, max_size=3, unique=True),
                      label="binary dcs")
    if data.draw(st.booleans(), label="unary"):
        names.append("un")
    hard = {name: data.draw(st.booleans(), label=f"{name} hard")
            for name in names}
    width = data.draw(st.integers(1, 40), label="width")
    n = data.draw(st.integers(1, 80), label="rows")
    h = data.draw(st.integers(0, 30), label="history")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    relation = Relation([
        Attribute("e", CategoricalDomain(["a", "b", "c"])),
        Attribute("p", NumericalDomain(0, width, integer=True)),
        Attribute("y", NumericalDomain(0, width, integer=True))])
    dcs = [parse_dc(_PER_ROW_DCS[name], name=name, hard=hard[name],
                    relation=relation) for name in names]
    params = KaminoParams(epsilon=1.0, delta=1e-6, num_candidates=data.draw(
        st.integers(1, 6), label="candidates"))
    hyper = HyperSpec.trivial(relation, ["e", "p", "y"])
    rng = np.random.default_rng(seed)
    cols0 = _allocate_columns(relation, n)
    cols0["e"][:] = rng.integers(0, 3, n)
    cols0["p"][:] = rng.integers(0, width + 1, n)
    base = ("num", rng.uniform(0, width, n),
            rng.uniform(0.05, 0.5, n) * width)
    # Earlier rows with random values, violations included.
    hist = {"e": rng.integers(0, 3, h), "p": rng.integers(0, width + 1, h),
            "y": rng.integers(0, width + 1, h).astype(np.float64)}

    def run(tracer):
        sampler = _ColumnSampler(None, relation, hyper, dcs,
                                 {name: 1.5 for name in names}, params,
                                 np.random.default_rng(0))
        cols = {a: c.copy() for a, c in cols0.items()}
        wcols = _allocate_working(sampler, cols, n)
        layout = _layout_for(sampler, 2, base)
        col = _ColumnPass(sampler, 2, base, layout,
                          _CellNoise(seed, 4, layout.stride, 16, n),
                          cols, wcols, _PassState.start(sampler, 2),
                          tracer=tracer, row_offset=h)
        for i in range(h):
            for index in col.vio.values():
                index.append_from(hist, i)
        before = {name: index.total() for name, index in col.vio.items()}
        col.fill(n, MAX_BLOCK_ROWS)
        rise = sum(index.total() - before[name]
                   for name, index in col.vio.items() if hard[name])
        return cols["y"], rise

    trace = ColumnTrace("y")
    drawn, rise = run(trace)
    assert trace.mode == "num-sequential"
    assert trace.counters["sequential_rows"] == n
    assert trace.counters.get("hard_violation_pairs", 0) == rise
    untraced, _ = run(None)
    np.testing.assert_array_equal(drawn, untraced)
