"""The per-row pass's waves against a row-at-a-time scan reference.

``_ColumnPass.fill_numeric_sequential`` draws each noise chunk in waves
of rows from different group components, all rows of a wave in one
step.  The reference below draws the same column one row at a time, in
row order, from the pass's own base candidates and noise slots, with
hints from the prefix scans (``_consistent_values`` without indexes)
and counts from the scan engine against the drawn prefix: it shares no
index code.  The pass must equal it bit for bit — values, index totals
and ``hard_violation_pairs`` — on generated relations: order and
generic value-grid DCs, 1-60 equality groups, hard and soft DCs, two
order DCs whose keys merge components, groups on point arrays and
groups pushed off the universe, history folded in first, and noise and
driver chunk boundaries inside groups.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import count_violations, parse_dc
from repro.constraints.violations import multi_candidate_violation_counts
from repro.core import engine as engine_mod
from repro.core.engine import (
    _CellNoise, _ColumnPass, _gumbel, _layout_for, _PassState,
)
from repro.core.hyper import HyperSpec
from repro.core.params import KaminoParams
from repro.core.sampling import (
    _allocate_columns, _allocate_working, _ColumnSampler,
)
from repro.core.training import HistogramModel
from repro.obs.trace import ColumnTrace
from repro.schema import (
    Attribute, CategoricalDomain, NumericalDomain, Relation, Table,
)
from repro.schema.quantize import Quantizer

#: DCs on the target ``y``: order DCs keyed on ``e`` and on ``f`` (the
#: two merge components), an eq-less order DC, a generic value-grid DC,
#: an FD onto ``y`` (a count table ranked on its grid) and a unary DC.
_DCS = {
    "fd_f": "not(ti.f == tj.f and ti.y != tj.y)",
    "ord_e": "not(ti.e == tj.e and ti.y > tj.y and ti.p < tj.p)",
    "ord_f": "not(ti.f == tj.f and ti.y < tj.y and ti.q > tj.q)",
    "ord0": "not(ti.y > tj.y and ti.q < tj.q)",
    "gen": ("not(ti.e == tj.e and ti.y >= tj.y and ti.p != tj.p "
            "and ti.q <= tj.q)"),
    "un": "not(ti.y > 30)",
}
_ORDER = ["e", "f", "p", "q", "y"]


@st.composite
def scenarios(draw):
    names = draw(st.lists(st.sampled_from(sorted(_DCS)), min_size=1,
                          max_size=3, unique=True))
    if not {"ord_e", "ord_f", "ord0", "gen"} & set(names):
        names.append("ord_e")   # FDs and unary DCs alone: window lane
    return {
        "names": names,
        "hard": {name: draw(st.booleans()) for name in names},
        "groups": draw(st.integers(1, 60)),
        "width": draw(st.integers(2, 40)),
        "integer": draw(st.booleans()),
        "hist": draw(st.booleans()),
        "candidates": draw(st.integers(1, 6)),
        "n": draw(st.integers(1, 150)),
        "history": draw(st.integers(0, 40)),
        "off_grid": draw(st.booleans()),
        "noise_chunk": draw(st.integers(3, 64)),
        "chunk_rows": draw(st.integers(1, 150)),
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def _case(sc: dict) -> dict:
    """The relation, sampler inputs, earlier columns, history and base
    conditional of one scenario."""
    width = sc["width"]
    ydom = (NumericalDomain(0, width, integer=True) if sc["integer"]
            else NumericalDomain(0.0, float(width)))
    relation = Relation([
        Attribute("e", CategoricalDomain(
            [f"e{i}" for i in range(sc["groups"])])),
        Attribute("f", CategoricalDomain(["f0", "f1", "f2"])),
        Attribute("p", NumericalDomain(0, 9, integer=True)),
        Attribute("q", NumericalDomain(0, 5, integer=True)),
        Attribute("y", ydom)])
    dcs = [parse_dc(_DCS[name], name=name, hard=sc["hard"][name],
                    relation=relation) for name in sc["names"]]
    params = KaminoParams(epsilon=1.0, delta=1e-6, quant_bins=8,
                          num_candidates=sc["candidates"])
    rng = np.random.default_rng(sc["seed"])
    n, h = sc["n"], sc["history"]

    def earlier(m):
        return {"e": rng.integers(0, sc["groups"], m),
                "f": rng.integers(0, 3, m),
                "p": rng.integers(0, 10, m).astype(np.float64),
                "q": rng.integers(0, 6, m).astype(np.float64)}

    cols0 = earlier(n)
    hist = earlier(h)
    if sc["hist"]:
        q = 8
        base = ("numhist", HistogramModel(
            relation["y"], rng.dirichlet(np.ones(q)), Quantizer(ydom, q)))
    else:
        base = ("num", rng.uniform(0, width, n),
                rng.uniform(0.05, 0.5, n) * width)
    return {"relation": relation, "dcs": dcs, "params": params,
            "cols0": cols0, "hist": hist, "base": base, "rng": rng}


def _sampler(case: dict) -> _ColumnSampler:
    return _ColumnSampler(
        None, case["relation"], HyperSpec.trivial(case["relation"], _ORDER),
        case["dcs"], {dc.name: 1.5 for dc in case["dcs"]}, case["params"],
        np.random.default_rng(0))


def _history(sc: dict, case: dict, sampler: _ColumnSampler) -> dict:
    """History rows with target values on the snap grid, some pushed
    off it (their groups leave the tables for good)."""
    hist = dict(case["hist"])
    h = sc["history"]
    grid = sampler.value_universe("y")
    y = grid[case["rng"].integers(0, grid.shape[0], h)]
    if sc["off_grid"] and h and "fd_f" not in sc["names"]:
        y[::3] += 0.25   # (an FD table takes no value off its grid)
    hist["y"] = y
    return hist


def _pass(sampler, case: dict, sc: dict, lo: int, hi: int, state,
          tracer) -> _ColumnPass:
    """The pass over rows ``lo..hi`` (a driver chunk) with ``state``."""
    m, base = hi - lo, case["base"]
    if base[0] == "num":
        base = ("num", base[1][lo:hi], base[2][lo:hi])
    cols = _allocate_columns(case["relation"], m)
    for a, c in case["cols0"].items():
        cols[a][:] = c[lo:hi]
    layout = _layout_for(sampler, 4, base)
    noise = _CellNoise(sc["seed"], 8, layout.stride, sc["noise_chunk"],
                       sc["n"], offset=lo)
    return _ColumnPass(sampler, 4, base, layout, noise, cols,
                       _allocate_working(sampler, cols, m), state,
                       tracer=tracer)


def reference_pass(col: _ColumnPass, hist: dict, n: int) -> tuple:
    """Draw rows ``0..n`` of ``col``'s target one at a time against
    ``hist`` plus the rows drawn so far: returns the prefix columns
    (history, then the drawn rows) and the violating pairs the picks
    add under hard binary DCs."""
    sampler, layout, w, j = col.sampler, col.layout, col.w, col.j
    h = hist["y"].shape[0]
    prefix = {a: np.concatenate([hist[a], col.cols[a].astype(np.float64)
                                 if a == w else col.cols[a]])
              for a in _ORDER}
    gum = layout.gumbel_off
    pairs = 0
    for i in range(n):
        cand, logp = (a[0] for a in col._base_candidates(i, i + 1))
        u = col.noise.rows(i, i + 1)[0]
        if layout.extras:
            added = sampler._consistent_values(j, w, prefix, h + i)
            if added.size:
                cand = np.concatenate([cand, added])
                if col.base[0] == "num":
                    added_lp = -0.5 * ((added - col.base[1][i])
                                       / col.base[2][i]) ** 2
                else:
                    hist_model = col.base[1]
                    added_lp = hist_model.log_prob_codes()[
                        hist_model.quantizer.encode(added)]
                logp = np.concatenate([logp, added_lp])
        pen, hard = None, []
        for dc in col.active:
            counts = multi_candidate_violation_counts(
                dc, {w: cand},
                {a: prefix[a][h + i] for a in dc.attributes if a != w},
                {} if dc.is_unary else
                {a: prefix[a][:h + i] for a in dc.attributes})
            weight = sampler.weight_of(dc)
            pen = weight * counts if pen is None else pen + weight * counts
            if dc.hard and not dc.is_unary:
                hard.append(counts)
        g = _gumbel(u[gum:gum + cand.shape[0]])
        pick = int(np.argmax(logp - pen + g))
        prefix[w][h + i] = cand[pick]
        pairs += sum(int(counts[pick]) for counts in hard)
    return prefix, pairs


def _check(sc: dict) -> None:
    case = _case(sc)
    n = sc["n"]
    sampler = _sampler(case)
    hist = _history(sc, case, sampler)
    state = _PassState.start(sampler, 4)
    for index in state.vio.values():
        for i in range(sc["history"]):
            index.append_from(hist, i)
    trace = ColumnTrace("y")
    col = _pass(sampler, case, sc, 0, n, state, trace)
    col.fill(n, 512)
    assert trace.mode == "num-sequential"
    assert trace.counters["block_rows"] == n

    ref_col = _pass(_sampler(case), case, sc, 0, n,
                    _PassState.start(sampler, 4), None)
    prefix, pairs = reference_pass(ref_col, hist, n)
    np.testing.assert_array_equal(col.cols["y"], prefix["y"][-n:])
    table = Table(case["relation"], prefix, validate=False)
    for dc in case["dcs"]:
        if not dc.is_unary:
            assert state.vio[dc.name].total() == count_violations(
                dc, table), dc.name
    assert trace.counters.get("hard_violation_pairs", 0) == pairs

    # Driver chunks: chunk-local columns, global noise, one state.
    state = _PassState.start(sampler, 4)
    for index in state.vio.values():
        for i in range(sc["history"]):
            index.append_from(hist, i)
    out = []
    for lo in range(0, n, sc["chunk_rows"]):
        hi = min(lo + sc["chunk_rows"], n)
        part = _pass(sampler, case, sc, lo, hi, state, None)
        part.fill(hi - lo, 512)
        out.append(part.cols["y"])
    np.testing.assert_array_equal(np.concatenate(out), prefix["y"][-n:])


@settings(max_examples=35, deadline=None)
@given(sc=scenarios())
def test_waves_equal_the_row_at_a_time_reference(sc):
    _check(sc)


#: Many groups, a hard order DC keyed on ``e`` and few values: rows of
#: one group interact in nearly every wave.
_INTERACTING = {
    "names": ["ord_e"], "hard": {"ord_e": True}, "groups": 3,
    "width": 6, "integer": True, "hist": False, "candidates": 2,
    "n": 120, "history": 0, "off_grid": False, "noise_chunk": 64,
    "chunk_rows": 120, "seed": 5,
}


def test_reference_catches_a_wave_holding_two_rows_of_one_component():
    """A wave that holds two rows of one component lets the second row
    miss the first's fold: the comparison above must catch it."""
    _check(_INTERACTING)
    real = engine_mod._waves

    def merged(specs, cols, lo, hi):
        waves = real(specs, cols, lo, hi)
        if len(waves) < 2:
            return waves
        return [np.concatenate(waves[:2])] + waves[2:]

    with mock.patch.object(engine_mod, "_waves", merged):
        try:
            _check(_INTERACTING)
        except AssertionError:
            return
    raise AssertionError("a merged wave drew what the reference draws")
