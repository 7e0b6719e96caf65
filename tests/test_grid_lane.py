"""The sampler's numerical lanes over value-grid count tables.

Order DCs (adult ``phi_a2``, tax ``phi_t6``, br2000 ``phi_b1``) and
br2000's generic soft DCs (``phi_b2``, ``phi_b3``) count in
:class:`~repro.constraints.index.GridViolationIndex` tables.  Pins:

* draw digests recorded before the tables replaced the dense-grid /
  Fenwick order groups and the generic DCs' prefix scans: the four
  benchmark datasets at two seeds, a ``workers=2`` process-pool draw and
  MCMC draws over order and generic DCs (large shapes are ``slow``);
* br2000 streams — its generic DCs needed the sampled prefix before —
  and the streamed draw equals the single-shot one;
* the shapes a prefix scan or the sorted order index answered before
  every DC was index-served — a DC comparing two attributes (soft and
  hard), an order DC over a categorical grid past ``MAX_GRID_CELLS``,
  hyper-attribute targets carrying an order DC and a two-attribute DC:
  single-shot, accept-reject and MCMC digests recorded before, and
  streams equal to the single-shot draw.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.constraints import GridViolationIndex, parse_dc
from repro.core import Kamino
from repro.core.sampling import _ColumnSampler
from repro.datasets import load
from repro.schema import Table


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
