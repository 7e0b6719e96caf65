"""The sampler's numerical lanes over value-grid count tables.

Order DCs (adult ``phi_a2``, tax ``phi_t6``, br2000 ``phi_b1``) and
br2000's generic soft DCs (``phi_b2``, ``phi_b3``) count in
:class:`~repro.constraints.index.GridViolationIndex` tables.  Pins:

* draw digests recorded before the tables replaced the dense-grid /
  Fenwick order groups and the generic DCs' prefix scans: the four
  benchmark datasets at two seeds, a ``workers=2`` process-pool draw and
  MCMC draws over order and generic DCs (large shapes are ``slow``);
* br2000 streams — its generic DCs needed the sampled prefix before —
  and the streamed draw equals the single-shot one.
"""

import hashlib

import numpy as np
import pytest

from repro.constraints import GridViolationIndex
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
