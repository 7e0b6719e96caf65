"""The blocked engine's FD lane over array-backed FD count tables.

Pins three things:

* the block-at-a-time lane (bulk fold of the kept prefix, per-row
  validation from the first in-block conflict on) writes the same column
  and leaves the same index state as the row-at-a-time reference loop
  below, on random blocks with conflicts, FD-lookup forced rows and a
  unary DC — and the same column as that loop over dict-backed indexes;
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
    ArrayFDViolationIndex, FDViolationIndex, count_violations, parse_dc,
)
from repro.core import Kamino
from repro.core import sampling as sampling_mod
from repro.core.engine import (
    _CellNoise, _ColumnPass, _gumbel, _layout_for, _PassState,
)
from repro.core.hyper import HyperSpec
from repro.core.sampling import (
    _allocate_columns, _allocate_working, _ColumnSampler, _forced_value,
    _record_fd,
)
from repro.datasets import load
from repro.obs.trace import ColumnTrace, RunTrace
from repro.schema import Attribute, CategoricalDomain, Relation, Table


# ----------------------------------------------------------------------
# Reference: the row-at-a-time FD lane
# ----------------------------------------------------------------------
def reference_fd_lane(col: _ColumnPass, n: int, max_block: int) -> None:
    """Score each block against its start state, then validate, re-score
    and fold every row one at a time (the lane before bulk folding)."""
    specs = col._fd_lane_specs()
    cols, w = col.cols, col.w
    tracer = col.tracer
    V = col.layout.d
    logp_all = col.base[1]
    for lo in range(0, n, max_block):
        hi = min(lo + max_block, n)
        B = hi - lo
        if tracer is not None:
            tracer.observe_block(B)
        u = col.noise.rows(lo, hi)
        g = _gumbel(u[:, :V])
        scores = logp_all[lo:hi] + g
        per_dc = []
        for weight, index, mode, src in specs:
            if mode == "dep":
                src_cols = [cols[a][lo:hi].tolist() for a in src]
                keys = ([(v,) for v in src_cols[0]]
                        if len(src_cols) == 1 else list(zip(*src_cols)))
                counts = index.probe_block_codes(keys, V)
                per_dc.append((weight, index, mode, keys, counts))
            else:
                deps = cols[src[0]][lo:hi].tolist()
                counts = np.empty((B, V), dtype=np.int64)
                for r, dep in enumerate(deps):
                    index.probe_det_codes(dep, V, out=counts[r])
                per_dc.append((weight, index, mode, deps, counts))
            scores -= weight * counts
        pen_unary = col._unary_penalty(lo, hi)
        if pen_unary is not None:
            scores -= pen_unary
        picks = np.argmax(scores, axis=1).tolist()
        for r in range(B):
            i = lo + r
            if col.fd_indexes:
                forced = _forced_value(col.fd_indexes, cols, i)
                if forced is not None:
                    if tracer is not None:
                        tracer.count("forced_rows")
                    col.wcols[w][i] = forced
                    pick = int(cols[w][i])
                    for weight, index, mode, side, counts in per_dc:
                        if mode == "dep":
                            index.add_pair(side[r], pick)
                        else:
                            index.add_pair((pick,), side[r])
                    _record_fd(col.fd_indexes, cols, i)
                    continue
            pick = picks[r]
            valid = True
            for weight, index, mode, side, counts in per_dc:
                now = (index.probe_pair(side[r], pick) if mode == "dep"
                       else index.probe_pair((pick,), side[r]))
                if now != counts[r, pick]:
                    valid = False
                    break
            if not valid:
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
            col.wcols[w][i] = pick
            for weight, index, mode, side, counts in per_dc:
                if mode == "dep":
                    index.add_pair(side[r], pick)
                else:
                    index.add_pair((pick,), side[r])
            _record_fd(col.fd_indexes, cols, i)


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
        "fd_lookup": hard and target == "y" and draw(st.booleans()),
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
                             np.random.default_rng(0),
                             use_fd_lookup=sc["fd_lookup"])
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
    assert new._fd_lane_specs() is not None
    assert all(isinstance(index, ArrayFDViolationIndex)
               for index in new.vio.values())
    new.fill_cat(sc["n"], sc["max_block"])
    reference_fd_lane(ref, sc["n"], sc["max_block"])
    t = sc["target"]
    np.testing.assert_array_equal(new.cols[t], ref.cols[t])
    for name, index in new.vio.items():
        for a, b in zip(_index_state(index), _index_state(ref.vio[name])):
            np.testing.assert_array_equal(a, b)
    for fdx, fdx_ref in zip(new.fd_indexes, ref.fd_indexes):
        assert fdx._forced == fdx_ref._forced
    for key in ("blocks", "rescored_rows", "forced_rows"):
        assert new_trace.counters.get(key) == ref_trace.counters.get(key)

    # The same reference over the dict-backed indexes draws the same
    # column: the count tables change no count.
    with mock.patch.object(sampling_mod, "build_fd_table_index",
                           return_value=None):
        legacy = _lane_pass(sc, None)
    assert all(type(index) is FDViolationIndex
               for index in legacy.vio.values())
    reference_fd_lane(legacy, sc["n"], sc["max_block"])
    np.testing.assert_array_equal(new.cols[t], legacy.cols[t])


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
