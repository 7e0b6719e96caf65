"""The per-row reference loop of Algorithm 3.

Walks the working sequence column by column and the rows one at a
time: each cell scores its candidates against the sampled prefix
(:meth:`~repro.core.sampling._ColumnSampler.violation_penalty`) and
draws from the normalised product with one numpy stream.  The engine
(:mod:`repro.core.engine`) draws the same law block by block with
counter-based noise; the tests compare the two statistically, pin this
loop's draws, and drive the shared per-row helpers through it.

Not collected by pytest (no ``test_`` prefix); tests import it as
``row_reference``.
"""

from __future__ import annotations

import numpy as np

from repro.core.hyper import HyperSpec
from repro.core.sampling import (
    _allocate_columns, _allocate_working, _append_row, _ColumnSampler,
    _fill_column_vectorized, _log_normalise_sample, _mcmc_resample,
    _write_cell,
)
from repro.schema.table import Table


def synthesize(model, relation, dcs, weights, n: int, params,
               rng: np.random.Generator, hyper: HyperSpec | None = None
               ) -> Table:
    """Algorithm 3: sample a synthetic instance of ``n`` rows.

    ``dcs``/``weights`` are the bound denial constraints and their
    weights (hard DCs are enforced regardless of their entry);
    ``params`` supplies the candidate counts and the MCMC budget
    ``mcmc_m``; ``hyper`` defaults to the trivial grouping.
    """
    if hyper is None:
        hyper = HyperSpec.trivial(relation, model.sequence)
    sampler = _ColumnSampler(model, relation, hyper, dcs, weights, params,
                             rng)
    cols = _allocate_columns(relation, n)
    wcols = _allocate_working(sampler, cols, n)
    for j in range(len(sampler.wseq)):
        _fill_column(sampler, j, cols, wcols, n)
        if params.mcmc_m > 0:
            _mcmc_resample(sampler, j, cols, wcols, n, params.mcmc_m)
    return Table(relation, cols, validate=False)


def sample_rows(fitted, n: int, seed: int) -> Table:
    """The reference loop's draw from a fitted model, with its config's
    ``constraint_aware_sampling`` and the numpy stream
    ``default_rng(seed)``."""
    cfg = fitted.config
    return synthesize(
        fitted.model, fitted.relation,
        fitted.dcs if cfg.constraint_aware_sampling else [],
        fitted.weights, n, fitted.params, np.random.default_rng(seed),
        hyper=fitted.hyper)


def _fill_column(sampler: _ColumnSampler, j: int, cols: dict, wcols: dict,
                 n: int) -> None:
    rng = sampler.rng
    base = sampler.base_distribution(j, wcols, n)
    if not sampler.active_at[j]:
        _fill_column_vectorized(sampler, j, base, cols, wcols, n)
        return

    w = sampler.wseq[j]
    vio_indexes = sampler.violation_indexes_for(j)
    used = sampler.fresh_value_tracker(j)
    for i in range(n):
        cand, decode, logp = sampler.candidates_for_row(
            j, base, i, cols, indexes=vio_indexes, used=used)
        penalty = sampler.violation_penalty(j, decode, cols, i,
                                            indexes=vio_indexes)
        choice = _log_normalise_sample(logp - penalty, rng)
        _write_cell(sampler, j, i, choice, cand, decode, cols, wcols)
        _append_row(vio_indexes, cols, i)
        if used is not None:
            used.add(float(cols[w][i]))
