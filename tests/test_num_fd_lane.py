"""FDs onto a numerical column: value-grid FD tables and the window lane.

Pins four things:

* the extended :class:`ArrayFDViolationIndex` (composite determinants
  by mixed-radix code, numerical dependents by rank on their value
  grid) counts like the dict-backed index and the scan engine, through
  ``lane_keys`` + ``block_counts`` for a block and for one row, and
  ``count_at``;
* the window lane draws the same column as the per-row pass over
  dict-backed indexes (the reference), in one pass and across streamed
  ``_PassState`` chunks, on random relations with hard and soft FDs,
  a unary DC and groups already holding several values, and both count
  ``hard_violation_pairs`` when traced;
* draw digests recorded before the lane replaced those blocks (adult
  ``edu_num``, tax ``child_exemp``/``single_exemp``): single-shot,
  sharded, MCMC, accept-reject and per-row reference-loop
  (``row_reference``) draws; large shapes are ``slow``;
* adult and tax streams in full chunks equal their single-shot draws;
* a numerical column under unary DCs alone runs the window lane with no
  FD table, and draws what the per-row pass draws;
* a numerical dependent that also takes fresh values (the determinant
  of a hard FD) keeps its FDs on the dict index, and draws through
  every path as it did there.
"""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    ArrayFDViolationIndex, DenialConstraint, FDViolationIndex,
    count_violations, parse_dc,
)
from repro.constraints import index as index_mod
from repro.constraints.index import build_fd_table_index
from repro.constraints.violations import multi_candidate_violation_counts
from repro.core import Kamino
from repro.core import sampling as sampling_mod
from repro.core.engine import (
    _CellNoise, _ColumnPass, _layout_for, _PassState,
)
from repro.core.hyper import HyperSpec
from repro.core.params import KaminoParams
from repro.core.sampling import (
    _allocate_columns, _allocate_working, _ColumnSampler,
)
from repro.core.training import HistogramModel
from repro.datasets import load
from repro.obs.trace import ColumnTrace, RunTrace
from repro.schema import (
    Attribute, CategoricalDomain, NumericalDomain, Relation, Table,
)
from repro.schema.quantize import Quantizer
from row_reference import sample_rows


# ----------------------------------------------------------------------
# The extended count table against the dict index and the scan engine
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_fd_table_matches_dict_index_and_scan(data):
    det_sizes = data.draw(st.lists(st.integers(1, 4), min_size=1,
                                   max_size=3), label="det code sizes")
    numeric = data.draw(st.booleans(), label="numerical dependent")
    dets = [f"x{p}" for p in range(len(det_sizes))]
    code_sizes = dict(zip(dets, det_sizes))
    if numeric:
        universe = np.unique(np.asarray(data.draw(st.lists(
            st.integers(-20, 20), min_size=1, max_size=6)),
            dtype=np.float64) * 0.5)
        values = universe
        off = np.array([universe[0] - 1.0, universe[-1] + 0.25,
                        universe[0] + 0.125])
        ydom = NumericalDomain(-20.0, 20.0)
    else:
        v = data.draw(st.integers(1, 5), label="dep codes")
        code_sizes["y"] = v
        universe, values, off = None, np.arange(v), np.empty(0)
        ydom = CategoricalDomain([f"y{i}" for i in range(v)])
    rel = Relation([Attribute(a, CategoricalDomain(
        [f"c{i}" for i in range(s)])) for a, s in zip(dets, det_sizes)]
        + [Attribute("y", ydom)])
    dc = DenialConstraint.fd("fd", dets, "y",
                             hard=data.draw(st.booleans(), label="hard"))
    index = build_fd_table_index(dc, code_sizes, target="y",
                                 universe=lambda name: universe)
    assert isinstance(index, ArrayFDViolationIndex)
    cells = int(np.prod(det_sizes)) * values.shape[0]
    with mock.patch.object(index_mod, "MAX_FD_TABLE_CELLS", cells - 1):
        assert build_fd_table_index(dc, code_sizes, target="y",
                                    universe=lambda name: universe) is None
    if numeric or len(dets) > 1:
        # Built only when the dependent is the drawn attribute.
        assert build_fd_table_index(dc, code_sizes, target=dets[0],
                                    universe=lambda name: universe) is None

    n = data.draw(st.integers(0, 30), label="rows")
    cols = {a: np.asarray(data.draw(st.lists(
        st.integers(0, s - 1), min_size=n, max_size=n)), dtype=np.int64)
        for a, s in zip(dets, det_sizes)}
    picks = data.draw(st.lists(st.integers(0, values.shape[0] - 1),
                               min_size=n, max_size=n))
    cols["y"] = values[np.asarray(picks, dtype=np.int64)]
    bulk = data.draw(st.integers(0, n), label="bulk-folded rows")
    removed = [i for i in data.draw(st.lists(
        st.integers(0, max(n - 1, 0)), max_size=n, unique=True),
        label="removed") if i < n]
    live = [i for i in range(n) if i not in set(removed)]

    dict_index = FDViolationIndex(dc)
    index.add_codes(index.group_codes(cols, slice(0, bulk)),
                    index.dep_ranks(cols["y"][:bulk]))
    for i in range(bulk):
        dict_index.append_from(cols, i)
    for i in range(bulk, n):
        index.append_from(cols, i)
        dict_index.append_from(cols, i)
    for i in removed:
        index.remove_from(cols, i)
        dict_index.remove_from(cols, i)
    prefix = {a: c[live] for a, c in cols.items()}
    assert len(index) == len(dict_index) == len(live)
    assert index.total() == dict_index.total() == \
        count_violations(dc, Table(rel, prefix, validate=False))

    # Off-grid candidates (numerical) count the whole group.  One block
    # holds a row of every group, then each row is asked alone.
    cands = np.concatenate([values, off]).astype(cols["y"].dtype)
    groups = {a: np.asarray(codes, dtype=np.int64) for a, codes in zip(
        dets, zip(*np.ndindex(*det_sizes)))}
    tv = {"y": cands}
    want = np.vstack([multi_candidate_violation_counts(
        dc, tv, {a: groups[a][r] for a in dets}, prefix)
        for r in range(len(groups[dets[0]]))])
    for fd in (index, dict_index):
        np.testing.assert_array_equal(
            fd.block_counts(fd.lane_keys(tv, groups, 0, want.shape[0])),
            want)
    for r, counts in enumerate(want):
        ctx = {a: groups[a][r] for a in dets}
        assert index.dependents_of(ctx) == dict_index.dependents_of(ctx)
        for fd in (index, dict_index):
            keys = fd.lane_keys(tv, groups, r, r + 1)
            np.testing.assert_array_equal(fd.block_counts(keys)[0], counts)
            assert [fd.count_at(keys, 0, c)
                    for c in range(cands.shape[0])] == counts.tolist()
    if off.size:
        bad = {a: np.array([0]) for a in dets}
        bad["y"] = off[:1]
        with pytest.raises(ValueError, match="fd"):
            index.append_from(bad, 0)
        with pytest.raises(ValueError, match="fd"):
            index.add_codes(np.array([0]), index.dep_ranks(off[:1]))
        assert len(index) == len(live)


# ----------------------------------------------------------------------
# The window lane against its reference: the per-row pass over
# dict-backed indexes
# ----------------------------------------------------------------------
@st.composite
def num_fd_scenarios(draw):
    det_sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    fds = []
    for _ in range(draw(st.integers(1, 2))):
        det = draw(st.lists(st.integers(0, len(det_sizes) - 1),
                            min_size=1, max_size=len(det_sizes),
                            unique=True))
        fds.append((sorted(det), draw(st.booleans()),
                    draw(st.sampled_from([0.3, 1.0, 5.0]))))
    return {
        "det_sizes": det_sizes,
        "fds": fds,
        "integer": draw(st.booleans()),
        "width": draw(st.integers(1, 63)),
        "quant_bins": draw(st.integers(2, 16)),
        "num_candidates": draw(st.integers(1, 6)),
        "hist": draw(st.booleans()),
        "unary": draw(st.booleans()),
        "n": draw(st.integers(1, 120)),
        "max_block": draw(st.integers(1, 64)),
        "chunk": draw(st.integers(1, 50)),
        "history": draw(st.integers(0, 40)),
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def _num_fd_case(sc: dict):
    """A random relation, its sampler and earlier columns, and the base
    conditional of the numerical target ``y``."""
    dets = [f"x{p}" for p in range(len(sc["det_sizes"]))]
    ydom = (NumericalDomain(0, sc["width"], integer=True)
            if sc["integer"] else NumericalDomain(0.0, 10.0))
    relation = Relation(
        [Attribute(a, CategoricalDomain([f"c{i}" for i in range(s)]))
         for a, s in zip(dets, sc["det_sizes"])]
        + [Attribute("y", ydom)])
    dcs = [DenialConstraint.fd(f"fd{k}", [dets[p] for p in det], "y",
                               hard=hard)
           for k, (det, hard, _) in enumerate(sc["fds"])]
    if sc["unary"]:
        dcs.append(parse_dc(f"not(ti.y > {ydom.high / 2})", name="un",
                            hard=False, relation=relation))
    weights = {f"fd{k}": w for k, (_, _, w) in enumerate(sc["fds"])}
    weights["un"] = 2.0
    params = KaminoParams(epsilon=1.0, delta=1e-6,
                          quant_bins=sc["quant_bins"],
                          num_candidates=sc["num_candidates"])
    hyper = HyperSpec.trivial(relation, dets + ["y"])
    rng = np.random.default_rng(sc["seed"])
    n = sc["n"]
    cols = _allocate_columns(relation, n)
    for a, s in zip(dets, sc["det_sizes"]):
        cols[a][:] = rng.integers(0, s, n)
    if sc["hist"]:
        q = sc["quant_bins"]
        probs = rng.dirichlet(np.ones(q))
        base = ("numhist", HistogramModel(relation["y"], probs,
                                          Quantizer(ydom, q)))
    else:
        mu = rng.uniform(ydom.low, ydom.high, n)
        sigma = rng.uniform(0.05, 0.5, n) * (ydom.high - ydom.low)
        base = ("num", mu, sigma)
    return relation, dcs, weights, params, hyper, cols, base


def _sampler(case):
    relation, dcs, weights, params, hyper, _, _ = case
    return _ColumnSampler(None, relation, hyper, dcs, weights, params,
                          np.random.default_rng(0))


def _rows(base, lo, hi):
    if base[0] == "num":
        return ("num", base[1][lo:hi], base[2][lo:hi])
    return base


def _fold_history(sc, sampler, vio: dict) -> None:
    """Fold earlier rows with random dependents (FD violations included)
    into fresh indexes, so groups start out holding several values."""
    rng = np.random.default_rng(sc["seed"] + 1)
    h = sc["history"]
    grid = sampler.value_universe("y")
    hist = {f"x{p}": rng.integers(0, s, h)
            for p, s in enumerate(sc["det_sizes"])}
    hist["y"] = grid[rng.integers(0, grid.shape[0], h)]
    for i in range(h):
        for index in vio.values():
            index.append_from(hist, i)


def _hard_pairs_added(specs, before: dict) -> int:
    """The rise of the hard FDs' index totals since ``before``."""
    return sum(index.total() - before[dc.name]
               for dc, _, index in specs if index is not None and dc.hard)


@settings(max_examples=80, deadline=None)
@given(sc=num_fd_scenarios())
def test_window_lane_equals_the_per_row_pass(sc):
    case = _num_fd_case(sc)
    relation, cols0, base = case[0], case[5], case[6]
    n, j = sc["n"], len(sc["det_sizes"])

    def fresh_pass(tracer=None):
        sampler = _sampler(case)
        cols = {a: c.copy() for a, c in cols0.items()}
        wcols = _allocate_working(sampler, cols, n)
        layout = _layout_for(sampler, j, base)
        noise = _CellNoise(sc["seed"], 2 * j, layout.stride, 16, n)
        col = _ColumnPass(sampler, j, base, layout, noise, cols, wcols,
                          _PassState.start(sampler, j), tracer=tracer)
        _fold_history(sc, sampler, col.vio)
        return col

    trace = ColumnTrace("y")
    lane = fresh_pass(trace)
    specs = lane._num_fd_specs()
    assert specs is not None
    before = {name: index.total() for name, index in lane.vio.items()}
    lane.fill(n, sc["max_block"])
    assert trace.mode == "num-blocked"

    ref_trace = ColumnTrace("y")
    with mock.patch.object(sampling_mod, "build_fd_table_index",
                           return_value=None):
        ref = fresh_pass(ref_trace)
    assert all(type(index) is FDViolationIndex for index in ref.vio.values())
    assert ref._num_fd_specs() is None
    ref_specs = [(dc, weight, ref.vio.get(dc.name))
                 for dc, weight, _ in specs]
    ref_before = {name: index.total() for name, index in ref.vio.items()}
    ref.fill(n, sc["max_block"])
    assert ref_trace.mode == "num-sequential"
    np.testing.assert_array_equal(lane.cols["y"], ref.cols["y"])
    for name, index in lane.vio.items():
        assert index.total() == ref.vio[name].total()
        assert len(index) == len(ref.vio[name]) == n + sc["history"]
    hard_pairs = _hard_pairs_added(specs, before)
    assert _hard_pairs_added(ref_specs, ref_before) == hard_pairs
    assert trace.counters.get("hard_violation_pairs", 0) == hard_pairs
    assert ref_trace.counters.get("hard_violation_pairs", 0) == hard_pairs
    assert ref_trace.counters["block_rows"] == n
    assert trace.counters.get("block_rows", 0) == \
        n + trace.counters.get("rescored_rows", 0)

    # Streamed: chunk-local arrays, global noise, persistent tables.
    sampler = _sampler(case)
    layout = _layout_for(sampler, j, base)
    state = _PassState(vio=sampler.violation_indexes_for(j), used=None)
    _fold_history(sc, sampler, state.vio)
    out = []
    for off in range(0, n, sc["chunk"]):
        m = min(sc["chunk"], n - off)
        ccols = _allocate_columns(relation, m)
        for a in ccols:
            if a != "y":
                ccols[a][:] = cols0[a][off:off + m]
        cwcols = _allocate_working(sampler, ccols, m)
        _ColumnPass(sampler, j, _rows(base, off, off + m), layout,
                    _CellNoise(sc["seed"], 2 * j, layout.stride, 16, n,
                               off), ccols, cwcols,
                    state=state).fill(m, sc["max_block"])
        out.append(ccols["y"])
    np.testing.assert_array_equal(np.concatenate(out), ref.cols["y"])


# ----------------------------------------------------------------------
# Draw digests recorded before the window lane
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


def _fitted_sampler(fitted) -> _ColumnSampler:
    return _ColumnSampler(fitted.model, fitted.relation, fitted.hyper,
                          fitted.dcs, fitted.weights, fitted.params,
                          np.random.default_rng(0))


def test_sampler_counts_numerical_fds_on_their_grids(fits):
    tables = {}
    for name in ("adult", "tax"):
        fitted = fits(name)
        sampler = _fitted_sampler(fitted)
        for j in range(len(sampler.wseq)):
            for dc_name, index in sampler.violation_indexes_for(j).items():
                if (isinstance(index, ArrayFDViolationIndex)
                        and index.dep_universe is not None):
                    tables[dc_name] = (index.det_sizes, index.dep_size)
    assert tables == {"phi_a1": ((16,), 16),
                      "phi_t4": ((2, 50), 16),
                      "phi_t5": ((4, 50), 16)}


_SLOW = pytest.mark.slow


@pytest.mark.parametrize("name, n, seed, digest", [
    ("adult", 1500, 3000, "e437c1a9feca74bc"),
    ("adult", 1500, 4000, "0b8684f79bde0f00"),
    ("tax", 1500, 3000, "81f1512cf8410280"),
    ("tax", 1500, 4000, "81f07777e0ebefe7"),
    pytest.param("adult", 10_000, 3000, "ce700a17975939be", marks=_SLOW),
    pytest.param("adult", 10_000, 4000, "3a9e9ef41f6c4856", marks=_SLOW),
    pytest.param("tax", 10_000, 3000, "1ccc470d3323bc67", marks=_SLOW),
    pytest.param("tax", 10_000, 4000, "9737ba8605a6a02d", marks=_SLOW),
])
def test_draw_digests_pinned(fits, name, n, seed, digest):
    assert _table_digest(fits(name).sample(n=n, seed=seed).table) == digest


@pytest.mark.parametrize("n, digest", [
    (5_000, "76680655ed738b06"),
    pytest.param(10_000, "1ccc470d3323bc67", marks=_SLOW),
])
def test_sharded_draws_pinned(fits, n, digest):
    table = fits("tax").sample(n=n, seed=3000, workers=2).table
    assert _table_digest(table) == digest


@pytest.mark.parametrize("name, mcmc_m, digest", [
    ("adult", 300, "700337fe6f345a24"),
    ("tax", 200, "5590fb3525fe730b"),
])
def test_mcmc_draws_pinned(fits, name, mcmc_m, digest):
    table = fits(name, mcmc_m).sample(n=800, seed=7).table
    assert _table_digest(table) == digest


def test_accept_reject_and_row_engine_draws_pinned(fits):
    tax = fits("tax")
    assert _table_digest(tax.sample_ar(n=300, seed=3000).table) == \
        "75d0d30b31ea6719"
    assert _table_digest(sample_rows(tax, 600, 3000)) == \
        "c1ae7c7b1d6bc7e9"


def test_soft_fd_draw_pinned():
    """Tax with ``phi_t4``/``phi_t5`` soft (learned weight 5): windows
    keep short prefixes, the draw is unchanged."""
    ds = load("tax", n=800, seed=1)
    dcs = [DenialConstraint(dc.name, dc.predicates, hard=False)
           if dc.name in ("phi_t4", "phi_t5") else dc for dc in ds.dcs]
    fitted = Kamino(ds.relation, dcs, epsilon=1.0, delta=1e-6,
                    seed=1).fit(ds.table)
    assert fitted.weights["phi_t4"] == fitted.weights["phi_t5"] == 5.0
    assert _table_digest(fitted.sample(n=1500, seed=3000).table) == \
        "960265fa2a5fe8ec"


@pytest.mark.parametrize("name, digest", [
    ("adult", "be0be00af0a4fb8f"),
    ("tax", "79a5b17285517590"),
])
def test_streams_in_full_chunks_equal_the_single_shot_draw(fits, name,
                                                           digest):
    fitted = fits(name)
    assert _table_digest(fitted.sample(n=3 * 1024, seed=3000).table) == \
        digest
    chunks = list(fitted.sample_stream(n=3 * 1024, seed=3000,
                                       chunk_rows=1024))
    columns = {a: np.concatenate([c.column(a) for c in chunks])
               for a in fitted.relation.names}
    assert _digest(fitted.relation, columns) == digest


# ----------------------------------------------------------------------
# Unary DCs alone: the window lane with no FD
# ----------------------------------------------------------------------
def _hours_column_trace(trace: RunTrace):
    (col,) = [c for c in trace.samples[0].columns if c.name == "hours"]
    return col


@pytest.mark.parametrize("hard", [True, False])
def test_unary_only_numerical_column_runs_full_windows(fits, hard):
    """Adult ``hours`` under one unary DC: every window keeps all its
    rows, a 777-row-chunk stream equals the single-shot draw, the
    per-row pass draws the same column, and the hard DC holds."""
    fitted = fits("adult")
    dc = parse_dc("not(ti.hours > 60)", name="u_hours", hard=hard,
                  relation=fitted.relation)
    unary = dataclasses.replace(fitted, dcs=[*fitted.dcs, dc],
                                weights={**fitted.weights, "u_hours": 2.0})
    trace = RunTrace()
    table = unary.sample(n=3000, seed=5, trace=trace).table
    col = _hours_column_trace(trace)
    assert col.mode == "num-blocked"
    assert col.counters == {"blocks": 6, "block_rows": 3000,
                            "block_rows_max": 512, "forward_rows": 3000}
    digest = _table_digest(table)
    chunks = list(unary.sample_stream(n=3000, seed=5, chunk_rows=777))
    assert _digest(unary.relation, {
        a: np.concatenate([c.column(a) for c in chunks])
        for a in unary.relation.names}) == digest

    window_specs = _ColumnPass._num_fd_specs

    def per_row_hours(self):
        return None if self.w == "hours" else window_specs(self)

    ref_trace = RunTrace()
    with mock.patch.object(_ColumnPass, "_num_fd_specs", per_row_hours):
        ref = unary.sample(n=3000, seed=5, trace=ref_trace).table
    assert _hours_column_trace(ref_trace).mode == "num-sequential"
    assert _table_digest(ref) == digest
    violations = count_violations(dc, table)
    assert violations == 0 if hard else violations > 0


# ----------------------------------------------------------------------
# A dependent that also takes fresh values keeps the dict index
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fresh_fit():
    """Float ``y`` with a soft ``x -> y`` and a hard ``y -> z``, ``z``
    drawn before ``y``: ``y`` is the determinant of a hard FD, so it
    takes fresh (unsnapped) values, which fall off its snap grid."""
    relation = Relation([
        Attribute("x", CategoricalDomain(["a", "b", "c", "d"])),
        Attribute("y", NumericalDomain(0.0, 10.0)),
        Attribute("z", CategoricalDomain(["p", "q", "r"]))])
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, 400)
    y = np.round(x * 2.5 + rng.normal(0, 0.3, 400), 1).clip(0, 10)
    z = (y > 5).astype(np.int64) + (y > 8)
    dcs = [DenialConstraint.fd("fd_xy", ["x"], "y", hard=False),
           DenialConstraint.fd("fd_yz", ["y"], "z", hard=True)]
    fitted = Kamino(relation, dcs, epsilon=1.0, delta=1e-6, seed=0,
                    random_sequence=True).fit(
                        Table(relation, {"x": x, "y": y, "z": z}))
    assert fitted.sequence == ["x", "z", "y"]
    return fitted


def test_fresh_valued_dependent_keeps_the_dict_index(fresh_fit):
    sampler = _fitted_sampler(fresh_fit)
    j = sampler.wseq.index("y")
    assert sampler.fresh_value_tracker(j) is not None
    index = sampler.violation_indexes_for(j)["fd_xy"]
    assert type(index) is FDViolationIndex


def _mcmc(fitted, m: int = 200):
    return dataclasses.replace(
        fitted, params=dataclasses.replace(fitted.params, mcmc_m=m))


def _streamed(fitted, n: int, seed: int) -> Table:
    chunks = list(fitted.sample_stream(n=n, seed=seed, chunk_rows=200))
    return Table(fitted.relation,
                 {a: np.concatenate([c.column(a) for c in chunks])
                  for a in fitted.relation.names}, validate=False)


_FRESH_DRAWS = {
    "blocked": lambda f: f.sample(n=600, seed=3).table,
    "workers2": lambda f: f.sample(n=600, seed=3, workers=2).table,
    "stream": lambda f: _streamed(f, 600, 3),
    "row": lambda f: sample_rows(f, 600, 2),
    "ar": lambda f: f.sample_ar(n=200, seed=3).table,
    "mcmc-blocked": lambda f: _mcmc(f).sample(n=400, seed=7).table,
    "mcmc-row": lambda f: sample_rows(_mcmc(f), 400, 7),
}


@pytest.mark.parametrize("path, digest", [
    ("blocked", "36785e85bf8f491b"),
    ("workers2", "36785e85bf8f491b"),
    ("stream", "36785e85bf8f491b"),
    ("row", "57375aef4a14f87d"),
    ("ar", "a4d951b8093d3f15"),
    ("mcmc-blocked", "5bb21a23f7cea28b"),
    ("mcmc-row", "adfce3f32f3a8852"),
])
def test_fresh_valued_dependent_draws_like_the_dict_index(fresh_fit, path,
                                                         digest):
    """Each draw picks fresh ``y`` values and equals the digest
    recorded while ``x -> y`` was on the dict index."""
    draw = _FRESH_DRAWS[path]
    table = draw(fresh_fit)
    grid = _fitted_sampler(fresh_fit).value_universe("y")
    assert not np.isin(table.column("y"), grid).all()
    assert _table_digest(table) == digest
