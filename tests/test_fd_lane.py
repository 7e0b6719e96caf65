"""The blocked engine's FD lane over array-backed FD count tables.

Pins four things:

* the block-at-a-time lane (bulk fold of the kept prefix, per-row
  validation from the first in-block conflict on) writes the same column
  and leaves the same index state as the row-at-a-time reference loop
  below (the scan engine's counts against the drawn prefix), on random
  blocks with conflicts, two FDs onto one target and a unary DC — and
  the lane over dict-backed indexes writes that column too;
* the one categorical lane over every index kind (table and dict FDs,
  order DCs on tables and point arrays, two-attribute and unary DCs,
  plain and hyper targets) draws the same column at any block size,
  and leaves index totals and ``hard_violation_pairs`` equal to the
  scan engine's counts;
* the ``hard_violation_pairs`` trace counter equals the hard-FD
  violations of the drawn table;
* draw digests (single-shot, process pool, streamed) recorded before
  the lane was rewritten, and tpch process-pool draws equal to the
  single-worker draw at sizes where a worker's numerical head drifted.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    ArrayFDViolationIndex, FDViolationIndex, count_violations,
    multi_candidate_violation_counts, parse_dc,
)
from repro.constraints import index as index_mod
from repro.core import Kamino
from repro.core import sampling as sampling_mod
from repro.core.engine import (
    _CellNoise, _ColumnPass, _gumbel, _layout_for, _PassState,
)
from repro.core.hyper import HyperSpec
from repro.core.sampling import (
    _allocate_columns, _allocate_working, _ColumnSampler,
)
from repro.datasets import load
from repro.obs.trace import ColumnTrace, RunTrace
from repro.schema import Attribute, CategoricalDomain, Relation, Table


# ----------------------------------------------------------------------
# Reference: the row-at-a-time FD lane
# ----------------------------------------------------------------------
def reference_fd_lane(col: _ColumnPass, n: int, max_block: int) -> None:
    """Score each block against its start state, then validate, re-score
    and fold every row one at a time (the lane before bulk folding).
    Every count is the scan engine's against the drawn prefix
    (``multi_candidate_violation_counts``), so no index answers one;
    rows still join the pass's indexes (``append_from``), whose state
    the test compares."""
    cols, w = col.cols, col.w
    tracer = col.tracer
    V = col.layout.d
    codes = np.arange(V, dtype=np.int64)
    logp_all = col.base[1]
    specs = [(dc, col.sampler.weight_of(dc),
              [a for a in dc.attributes if a != w])
             for dc in col.active if not dc.is_unary]

    def scan(dc, ctx, i, upto, cands):
        """Row ``i``'s counts at ``cands`` against the rows ``:upto``."""
        return multi_candidate_violation_counts(
            dc, {w: cands}, {a: cols[a][i] for a in ctx},
            {a: cols[a][:upto] for a in dc.attributes})

    for lo in range(0, n, max_block):
        hi = min(lo + max_block, n)
        B = hi - lo
        if tracer is not None:
            tracer.observe_block(B)
        u = col.noise.rows(lo, hi)
        g = _gumbel(u[:, :V])
        scores = logp_all[lo:hi] + g
        per_dc = []
        for dc, weight, ctx in specs:
            counts = np.vstack([scan(dc, ctx, i, lo, codes)
                                for i in range(lo, hi)])
            per_dc.append((dc, weight, ctx, counts))
            scores -= weight * counts
        pen_unary = col._unary_penalty(lo, hi)
        if pen_unary is not None:
            scores -= pen_unary
        picks = np.argmax(scores, axis=1).tolist()
        for r in range(B):
            i = lo + r
            pick = picks[r]
            if any(scan(dc, ctx, i, i, codes[pick:pick + 1])[0]
                   != counts[r, pick] for dc, _, ctx, counts in per_dc):
                if tracer is not None:
                    tracer.count("rescored_rows")
                s = logp_all[i] + g[r]
                for dc, weight, ctx, _ in per_dc:
                    s = s - weight * scan(dc, ctx, i, i, codes)
                if pen_unary is not None:
                    s = s - pen_unary[r]
                pick = int(np.argmax(s))
            col.wcols[w][i] = pick
            for index in col.vio.values():
                index.append_from(cols, i)


# ----------------------------------------------------------------------
# Random FD-lane scenarios
# ----------------------------------------------------------------------
def _lane_relation(k: int, v: int) -> Relation:
    return Relation([
        Attribute("x", CategoricalDomain([f"x{i}" for i in range(k)])),
        Attribute("z", CategoricalDomain([f"z{i}" for i in range(3)])),
        Attribute("y", CategoricalDomain([f"y{i}" for i in range(v)])),
    ])


@st.composite
def lane_scenarios(draw):
    k = draw(st.integers(1, 6))
    v = draw(st.integers(2, 7))
    n = draw(st.integers(1, 90))
    target = draw(st.sampled_from(["y", "x"]))
    hard = draw(st.booleans())
    return {
        "k": k, "v": v, "n": n, "target": target, "hard": hard,
        "weight": draw(st.sampled_from([0.3, 1.0, 4.0])),
        "second_fd": draw(st.booleans()),
        "composite": draw(st.booleans()),
        "unary": draw(st.booleans()),
        "max_block": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 2 ** 16)),
        "peaky": draw(st.booleans()),
    }


def _lane_pass(sc: dict, tracer: ColumnTrace) -> _ColumnPass:
    """A fresh FD-lane pass over random earlier columns and logits."""
    relation = _lane_relation(sc["k"], sc["v"])
    dcs = [parse_dc("not(ti.x == tj.x and ti.y != tj.y)", name="fd_xy",
                    hard=sc["hard"], relation=relation)]
    if sc["second_fd"] and sc["target"] == "y":
        # Composite: (x, z) -> y counts by one mixed-radix group code.
        det = ("ti.x == tj.x and ti.z == tj.z" if sc["composite"]
               else "ti.z == tj.z")
        dcs.append(parse_dc(f"not({det} and ti.y != tj.y)",
                            name="fd_zy", hard=sc["hard"],
                            relation=relation))
    if sc["unary"]:
        dcs.append(parse_dc(f"not(ti.{sc['target']} == "
                            f"'{sc['target']}0')", name="un",
                            hard=False, relation=relation))
    weights = {dc.name: sc["weight"] for dc in dcs}
    order = (["x", "z", "y"] if sc["target"] == "y" else ["y", "z", "x"])
    hyper = HyperSpec.trivial(relation, order)
    sampler = _ColumnSampler(None, relation, hyper, dcs, weights, None,
                             np.random.default_rng(0))
    n, j = sc["n"], 2
    rng = np.random.default_rng(sc["seed"])
    cols = _allocate_columns(relation, n)
    for attr in order[:2]:
        # Few distinct earlier values: FD groups repeat within blocks.
        size = relation[attr].domain.size
        cols[attr][:] = rng.integers(0, min(size, 3), n)
    wcols = _allocate_working(sampler, cols, n)
    V = relation[sc["target"]].domain.size
    logits = rng.normal(size=(n, V)) * (6.0 if sc["peaky"] else 1.0)
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    base = ("cat", logp)
    layout = _layout_for(sampler, j, base)
    noise = _CellNoise(sc["seed"], 2 * j, layout.stride, 16, n)
    return _ColumnPass(sampler, j, base, layout, noise, cols, wcols,
                       _PassState.start(sampler, j), tracer=tracer)


def _index_state(index):
    return (index._table.copy(), index._sizes.copy(), len(index))


@settings(max_examples=80, deadline=None)
@given(sc=lane_scenarios())
def test_block_lane_equals_row_at_a_time_reference(sc):
    new_trace, ref_trace = ColumnTrace("new"), ColumnTrace("ref")
    new = _lane_pass(sc, new_trace)
    ref = _lane_pass(sc, ref_trace)
    assert all(isinstance(index, ArrayFDViolationIndex)
               and index.keeps_prefixes for index in new.vio.values())
    new.fill_cat(sc["n"], sc["max_block"])
    assert new_trace.mode == "cat-fd-lane"
    reference_fd_lane(ref, sc["n"], sc["max_block"])
    t = sc["target"]
    np.testing.assert_array_equal(new.cols[t], ref.cols[t])
    for name, index in new.vio.items():
        for a, b in zip(_index_state(index), _index_state(ref.vio[name])):
            np.testing.assert_array_equal(a, b)
    for key in ("blocks", "rescored_rows"):
        assert new_trace.counters.get(key) == ref_trace.counters.get(key)

    # The lane over the dict-backed indexes draws the same column: the
    # count tables change no count.
    with mock.patch.object(sampling_mod, "build_fd_table_index",
                           return_value=None):
        legacy = _lane_pass(sc, None)
    assert all(type(index) is FDViolationIndex
               for index in legacy.vio.values())
    legacy.fill_cat(sc["n"], sc["max_block"])
    np.testing.assert_array_equal(new.cols[t], legacy.cols[t])


# ----------------------------------------------------------------------
# One categorical lane over every index kind
# ----------------------------------------------------------------------
#: DCs on target ``T`` with ``O`` the other code attribute: table FDs
#: with ``T`` as dependent, as determinant and under a composite
#: determinant, an order DC (value-grid tables or point arrays), a
#: two-attribute DC (point arrays) and a unary DC; ``fd_member`` (the
#: hyper target only) holds both its attributes in the target.
_MIXED_DCS = {
    "fd_member": "not(ti.t == tj.t and ti.T != tj.T)",
    "fd_dep": "not(ti.O == tj.O and ti.T != tj.T)",
    "fd_det": "not(ti.T == tj.T and ti.O != tj.O)",
    "fd_comp": "not(ti.O == tj.O and ti.z == tj.z and ti.T != tj.T)",
    "order": "not(ti.z == tj.z and ti.O > tj.O and ti.T < tj.T)",
    "cross": "not(ti.O < tj.T and ti.T < tj.O)",
    "unary": "not(ti.T == 'T0')",
}


@st.composite
def mixed_scenarios(draw):
    target = draw(st.sampled_from(["y", "x", "hyper"]))
    names = draw(st.lists(st.sampled_from(
        [name for name in sorted(_MIXED_DCS)
         if target == "hyper" or name != "fd_member"]),
        min_size=1, max_size=4, unique=True))
    fds = [name for name in names if name.startswith("fd")]
    return {
        "k": draw(st.integers(1, 5)), "v": draw(st.integers(2, 6)),
        "n": draw(st.integers(1, 70)),
        "target": target,
        "names": names,
        "hard": {name: draw(st.booleans()) for name in names},
        "weight": draw(st.sampled_from([0.3, 1.0, 4.0])),
        "dict_fds": draw(st.lists(st.sampled_from(fds), unique=True))
        if fds else [],
        "grid_tables": draw(st.booleans()),
        "max_block": draw(st.integers(2, 40)),
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def _mixed_pass(sc: dict, tracer) -> tuple:
    """A fresh pass drawing ``y``, ``x`` or the hyper target ``y+t``
    under the scenario's DCs, its indexes built as the sampler builds
    them (an FD in ``dict_fds`` on the dict-backed index, point arrays
    for every group without ``grid_tables``)."""
    k, v, n = sc["k"], sc["v"], sc["n"]
    relation = Relation([
        Attribute("x", CategoricalDomain([f"x{i}" for i in range(k)])),
        Attribute("z", CategoricalDomain([f"z{i}" for i in range(3)])),
        Attribute("y", CategoricalDomain([f"y{i}" for i in range(v)])),
        Attribute("t", CategoricalDomain(["t0", "t1"])),
    ])
    T, O = ("x", "y") if sc["target"] == "x" else ("y", "x")
    dcs = [parse_dc(_MIXED_DCS[name].replace("T", T).replace("O", O),
                    name=name, hard=sc["hard"][name], relation=relation)
           for name in sc["names"]]
    if sc["target"] == "hyper":
        groups = [["x"], ["z"], ["y", "t"]]
    else:
        groups = [[O], ["z"], [T], ["t"]]
    hyper = HyperSpec(relation, groups)
    sampler = _ColumnSampler(None, relation, hyper, dcs,
                             {dc.name: sc["weight"] for dc in dcs}, None,
                             np.random.default_rng(0))
    build = sampling_mod.build_fd_table_index
    with mock.patch.object(
            sampling_mod, "build_fd_table_index",
            lambda dc, *a, **kw: (None if dc.name in sc["dict_fds"]
                                  else build(dc, *a, **kw))), \
            mock.patch.object(index_mod, "MAX_GRID_CELLS",
                              index_mod.MAX_GRID_CELLS
                              if sc["grid_tables"] else 0):
        state = _PassState.start(sampler, 2)
    rng = np.random.default_rng(sc["seed"])
    cols = _allocate_columns(relation, n)
    for attr in ("x", "y", "z") if sc["target"] == "hyper" else (O, "z"):
        size = relation[attr].domain.size
        cols[attr][:] = rng.integers(0, min(size, 3), n)
    wcols = _allocate_working(sampler, cols, n)
    V = hyper.working_relation[sampler.wseq[2]].domain.size
    logits = rng.normal(size=(n, V)) * 3.0
    base = ("cat", logits - np.log(np.exp(logits).sum(axis=1,
                                                      keepdims=True)))
    layout = _layout_for(sampler, 2, base)
    noise = _CellNoise(sc["seed"], 4, layout.stride, 16, n)
    return (_ColumnPass(sampler, 2, base, layout, noise, cols, wcols,
                        state, tracer=tracer), relation, dcs)


@settings(max_examples=60, deadline=None)
@given(sc=mixed_scenarios())
def test_one_lane_over_every_index_kind(sc):
    """One categorical block lane draws under table FDs (the target as
    dependent, as determinant, under a composite determinant), dict FDs,
    order DCs on value-grid tables and on point arrays, two-attribute
    and unary DCs, for plain and hyper targets: a random block size
    draws what one-row blocks draw, each index ends holding the drawn
    rows' violations, and the traced ``hard_violation_pairs`` is the
    scan count of the hard binary DCs."""
    trace = ColumnTrace("col")
    col, relation, dcs = _mixed_pass(sc, trace)
    col.fill_cat(sc["n"], sc["max_block"])
    one, _, _ = _mixed_pass(sc, None)
    one.fill_cat(sc["n"], 1)
    for a in relation.names:
        np.testing.assert_array_equal(col.cols[a], one.cols[a], err_msg=a)
    np.testing.assert_array_equal(col.wcols[col.w], one.wcols[one.w])
    table = Table(relation, col.cols, validate=False)
    for name, index in col.vio.items():
        dc = next(dc for dc in dcs if dc.name == name)
        assert index.total() == count_violations(dc, table), name
    assert trace.counters.get("hard_violation_pairs", 0) == sum(
        count_violations(dc, table) for dc in dcs
        if dc.hard and not dc.is_unary)
    assert trace.mode == ("cat-fd-lane" if all(
        index.keeps_prefixes for index in col.vio.values())
        else "cat-generic")


# ----------------------------------------------------------------------
# Forced hard-FD violations in the trace
# ----------------------------------------------------------------------
def _fit(name: str, seed: int, rows: int = 800):
    ds = load(name, n=rows, seed=seed)
    return Kamino(ds.relation, ds.dcs, epsilon=1.0, delta=1e-6,
                  seed=seed).fit(ds.table)


@pytest.mark.parametrize("seed, pairs", [
    (1, 385),
    pytest.param(2, 184, marks=pytest.mark.slow),
    pytest.param(3, 0, marks=pytest.mark.slow),
])
def test_trace_counts_forced_hard_fd_violations(seed, pairs):
    fitted = _fit("tax", seed)
    trace = RunTrace()
    table = fitted.sample(n=10_000, seed=seed * 1000, trace=trace).table
    counted = {col.name: col.counters.get("hard_violation_pairs", 0)
               for col in trace.samples[0].columns}
    assert sum(counted.values()) == pairs
    assert counted["areacode"] == pairs
    phi_t2 = next(dc for dc in fitted.dcs if dc.name == "phi_t2")
    assert count_violations(phi_t2, table) == pairs
    assert sum(count_violations(dc, table) for dc in fitted.dcs) == pairs


# ----------------------------------------------------------------------
# Draw digests recorded before the lane was rewritten
# ----------------------------------------------------------------------
def _digest(relation, columns: dict) -> str:
    h = hashlib.sha256()
    for name in relation.names:
        c = np.ascontiguousarray(columns[name])
        h.update(name.encode() + str(c.dtype).encode() + c.tobytes())
    return h.hexdigest()[:16]


def _table_digest(table: Table) -> str:
    return _digest(table.relation,
                   {a: table.column(a) for a in table.relation.names})


@pytest.fixture(scope="module")
def fits():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _fit(name, 1)
        return cache[name]
    return get


_SLOW = pytest.mark.slow


@pytest.mark.parametrize("name, n, workers, digest", [
    ("tpch", 500, 1, "59f14b0260dded44"),
    ("tax", 500, 1, "3a9d1368de8bdcc8"),
    ("tax", 500, 2, "3a9d1368de8bdcc8"),
    pytest.param("tpch", 50_000, 1, "172897539155a41f", marks=_SLOW),
    pytest.param("tax", 10_000, 1, "80050b2241c7c53e", marks=_SLOW),
    pytest.param("tax", 10_000, 2, "80050b2241c7c53e", marks=_SLOW),
])
def test_draw_digests_pinned(fits, name, n, workers, digest):
    table = fits(name).sample(n=n, seed=1000, workers=workers,
                              pool="process").table
    assert _table_digest(table) == digest


@pytest.mark.parametrize("n", [32_768, pytest.param(50_000, marks=_SLOW)])
def test_process_pool_draw_equals_one_worker(fits, n):
    """Process workers take a numerical base's rows from the parent: a
    shard-sized ``o_totalprice`` head moved thousands of cells at these
    sizes, so the workers=2 process draw differed from workers=1."""
    fitted = fits("tpch")
    one = fitted.sample(n=n, seed=1000).table
    two = fitted.sample(n=n, seed=1000, workers=2, pool="process").table
    for a in fitted.relation.names:
        np.testing.assert_array_equal(one.column(a), two.column(a),
                                      err_msg=a)


@pytest.mark.parametrize("n, chunk_rows, digest", [
    (5_000, 777, "f22e7ce0967627fe"),
    pytest.param(70_000, 65_536, "cc707585d05600fd", marks=_SLOW),
    pytest.param(131_072, 65_536, "348a939ec0a72d39", marks=_SLOW),
])
def test_stream_digests_pinned(fits, n, chunk_rows, digest):
    fitted = fits("tpch")
    chunks = list(fitted.sample_stream(n=n, seed=1000,
                                       chunk_rows=chunk_rows))
    columns = {a: np.concatenate([c.column(a) for c in chunks])
               for a in fitted.relation.names}
    assert _digest(fitted.relation, columns) == digest
