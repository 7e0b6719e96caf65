"""Algorithm 3 — constraint-aware database instance sampling: the
per-cell machinery.

Algorithm 3 walks the working schema sequence attribute by attribute and
tuple by tuple.  For each cell it combines

* the learned conditional ``p_{v|c}`` from the probabilistic data model
  (it does not depend on the DC state, so each attribute's sub-model
  runs once per draw or stream chunk, over one row per distinct
  context tuple, one inference tile at a time —
  :data:`repro.aimnet.model.INFERENCE_TILE`), and
* the violation penalty ``exp(- sum_phi w_phi * vio_phi,v)`` against the
  already-sampled prefix (Algorithm 3, lines 7-10),

and samples from the normalised product.  Hard DCs use an effectively
infinite weight: any candidate that would create a violation is
excluded unless *every* candidate violates, in which case the sampler
falls back to the minimum-violation candidates (the probabilistic-
database semantics: all remaining instances are "almost surely" ruled
out, so we pick the least bad).

:class:`_ColumnSampler` holds that machinery — base conditionals,
candidate sets, violation penalties and the violation indexes — and
the block-scheduled engine of :mod:`repro.core.engine` draws every
instance with it.  The loop that
walks it one cell at a time is the tests' reference
(``tests/row_reference.py``).

Also implemented here:

* the constrained MCMC refinement (line 12): after a column is filled,
  ``m`` random cells are re-sampled conditioned on *all* other cells;
* :func:`ar_sample` — the accept-reject alternative of Experiment 6.

The violation counts themselves come from the incremental violation
indexes of :mod:`repro.constraints.index`: as each row is sampled it is
folded into a per-DC index, and the per-candidate count at line 8
becomes an O(group) probe instead of an O(prefix) broadcast rescan.
Every binary DC has an index; unary DCs count on the row alone.  The
counts are the scan engine's, bit for bit.  A hard FD is kept by its
index alone: at :data:`HARD_WEIGHT` the group's dependent wins whenever
a consistent one exists, which is what Experiment 10's hard-FD lookup
(§7.3.6) forced, without a second index.

Every draw is pure post-processing over a trained model: it reads only
the model, the (public) DCs and weights, and an rng.  Each draw builds
its own fresh violation-index state, so one
:class:`~repro.core.kamino.FittedKamino` can serve arbitrarily many
concurrent draws at different sizes and seeds — the train-once /
sample-many service shape.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constraints.index import (
    ViolationIndex, build_fd_table_index, build_grid_index, build_index,
)
from repro.constraints.violations import multi_candidate_violation_counts
from repro.core.hyper import HyperSpec
from repro.schema.table import Table

#: Weight standing in for "infinitely large" on hard DCs; applied in
#: log space, it zeroes every violating candidate's probability.
HARD_WEIGHT = 1e9

#: Prefix values per hard DC that :meth:`_ColumnSampler._consistent_values`
#: adds to a numerical target's candidates.
CONSISTENT_LIMIT = 4


def _log_normalise_sample(log_p: np.ndarray, rng: np.random.Generator) -> int:
    """Sample an index from unnormalised log probabilities."""
    shifted = log_p - log_p.max()
    probs = np.exp(shifted)
    total = probs.sum()
    if not np.isfinite(total) or total <= 0:
        # Every candidate is excluded: fall back to the least-penalised.
        best = np.flatnonzero(log_p == log_p.max())
        return int(rng.choice(best))
    return int(rng.choice(log_p.shape[0], p=probs / total))


def _gumbel_argmax(log_p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized categorical sampling: one draw per row of ``log_p``."""
    gumbel = -np.log(-np.log(rng.random(log_p.shape) + 1e-300) + 1e-300)
    return np.argmax(log_p + gumbel, axis=1)


class _ColumnSampler:
    """Shared per-cell machinery of the engine, the MCMC refinement
    and accept-reject."""

    def __init__(self, model, relation, hyper: HyperSpec, dcs, weights,
                 params, rng):
        self.model = model
        self.relation = relation
        self.hyper = hyper
        self.dcs = list(dcs)
        self.weights = dict(weights)
        self.params = params
        self.rng = rng

        self.wseq = hyper.working_sequence
        self.wrel = hyper.working_relation
        #: Code-domain size of every categorical attribute.
        self.code_sizes = {attr.name: attr.domain.size
                           for attr in relation if attr.is_categorical}
        # Original attributes covered after each working position.
        self.covered_after: list[set[str]] = []
        covered: set[str] = set()
        for w in self.wseq:
            covered |= set(hyper.original_attrs(w))
            self.covered_after.append(set(covered))
        # Assign each DC to the first working position covering it.
        self.active_at: dict[int, list] = {j: [] for j in range(len(self.wseq))}
        for dc in self.dcs:
            for j, cov in enumerate(self.covered_after):
                if dc.attributes <= cov:
                    self.active_at[j].append(dc)
                    break
            else:
                raise ValueError(
                    f"DC {dc.name} references attributes outside the schema")
        # Numerical attributes participating in DCs get their candidates
        # snapped to a coarse grid: order constraints (hard or soft) are
        # only satisfiable/cheap when values collide (as they do in real
        # data), and a continuous column is almost-surely collision
        # free.  Mirrors the paper's quantized numeric handling.  Small
        # integer domains snap to the integers themselves.
        self.snap_grids: dict[str, np.ndarray] = {}
        dc_attrs: set[str] = set()
        for dc in self.dcs:
            dc_attrs |= dc.attributes
        for name in dc_attrs:
            attr = relation[name]
            if attr.is_numerical:
                domain = attr.domain
                if domain.integer and domain.width <= 64:
                    grid = np.arange(domain.low, domain.high + 1)
                else:
                    from repro.schema.quantize import Quantizer
                    grid = Quantizer(domain, params.quant_bins).centers()
                    # Integer domains must stay integral after snapping.
                    grid = np.unique(domain.clip(grid))
                self.snap_grids[name] = grid

    def snap(self, name: str, values: np.ndarray) -> np.ndarray:
        """Snap values to the attribute's grid if it has one."""
        grid = self.snap_grids.get(name)
        if grid is None:
            return values
        idx = np.clip(np.searchsorted(grid, values), 0, grid.size - 1)
        left = np.clip(idx - 1, 0, grid.size - 1)
        nearer_left = (np.abs(grid[left] - values)
                       < np.abs(grid[idx] - values))
        return np.where(nearer_left, grid[left], grid[idx])

    # ------------------------------------------------------------------
    def weight_of(self, dc) -> float:
        if dc.hard:
            return HARD_WEIGHT
        w = self.weights.get(dc.name, 0.0)
        return HARD_WEIGHT if math.isinf(w) else float(w)

    def base_distribution(self, j: int, wcols: dict, n: int,
                          tracer=None):
        """Per-row base conditional for working position ``j``.

        Returns ``("cat", logp)`` with ``logp`` of shape (n, V), or
        ``("num", mu, sigma)`` for numerical sub-model targets, or
        ``("numhist", hist)`` for histogram-modeled numerical targets.
        A first or independent categorical column's ``logp`` is a
        read-only broadcast view of its one histogram row, so no lane
        may write into a base: lanes score into arrays of their own.

        A sub-model runs once per distinct context tuple
        (:meth:`~repro.aimnet.AimNet.distinct_rows`) and its output is
        gathered back to the ``n`` rows, except a numerical head, which
        runs over all ``n`` gathered context vectors.  A ``tracer``
        counts the rows the forward ran as ``forward_rows``.
        """
        w = self.wseq[j]
        wattr = self.wrel[w]
        if j == 0 or w in self.model.independent:
            hist = self.model.first if j == 0 else self.model.independent[w]
            if wattr.is_categorical:
                row = hist.log_prob_codes()
                return ("cat", np.broadcast_to(row, (n, row.shape[0])))
            return ("numhist", hist)
        sub = self.model.submodels[w]
        batch_cols = {a: wcols[a] for a in self.model.context_attrs[w]}
        rows, inverse = sub.distinct_rows(batch_cols) or (None, None)
        if rows is not None:
            batch_cols = {a: c[rows] for a, c in batch_cols.items()}
        if tracer is not None:
            tracer.count("forward_rows",
                         n if rows is None else rows.shape[0])
        if wattr.is_categorical:
            logp = sub.predict_proba(batch_cols)
            np.maximum(logp, 1e-300, out=logp)
            np.log(logp, out=logp)
            return ("cat", logp if inverse is None else logp[inverse])
        mu, sigma = sub.predict_gaussian(batch_cols, inverse)
        return ("num", mu, np.maximum(sigma, 1e-9))

    def candidates_for_row(self, j: int, base, i: int,
                           cols: dict | None = None,
                           indexes: dict[str, ViolationIndex] | None = None,
                           used: set | None = None):
        """(working_values, original_decodes, base_logp) for row ``i``.

        ``working_values`` is the length-d candidate vector in working
        space; ``original_decodes`` maps each member attribute to its
        length-d decoded candidate column.

        For *numerical* targets the Gaussian candidate draw is augmented
        with values copied from prefix rows that agree with row ``i`` on
        the other attributes of each active hard DC.  A categorical
        target always contains its zero-violation value (the full domain
        is enumerated) — the augmentation restores the same guarantee
        for continuous domains, where a finite draw can miss the single
        consistent value (e.g. the dependent of a hard FD).
        """
        w = self.wseq[j]
        wattr = self.wrel[w]
        if base[0] == "cat":
            cand = np.arange(wattr.domain.size, dtype=np.int64)
            logp = base[1][i]
        elif base[0] == "num":
            _, mu, sigma = base
            d = self.params.num_candidates
            cand = self.rng.normal(mu[i], sigma[i], size=d)
            cand = self.snap(w, wattr.domain.clip(cand))
            if cols is not None:
                extra = self._consistent_values(j, w, cols, i,
                                                indexes=indexes)
                fresh = self._fresh_values(j, w, cols, i, used=used)
                if extra.size or fresh.size:
                    cand = np.concatenate([cand, extra, fresh])
            logp = -0.5 * ((cand - mu[i]) / sigma[i]) ** 2
        else:  # numerical histogram
            hist = base[1]
            bins = np.arange(hist.probs.shape[0])
            cand = self.snap(w, hist.quantizer.decode(bins, self.rng))
            logp = hist.log_prob_codes()
            if cols is not None:
                extra = self._consistent_values(j, w, cols, i,
                                                indexes=indexes)
                fresh = self._fresh_values(j, w, cols, i, used=used)
                if extra.size or fresh.size:
                    added = np.concatenate([extra, fresh])
                    cand = np.concatenate([cand, added])
                    logp = np.concatenate(
                        [logp, hist.log_prob_codes()[
                            hist.quantizer.encode(added)]])
        if self.hyper.is_hyper(w):
            decode = self.hyper.decode_codes(w, cand)
        else:
            decode = {w: cand}
        return cand, decode, logp

    def _consistent_values(self, j: int, target: str, cols: dict,
                           i: int, limit: int = CONSISTENT_LIMIT,
                           indexes: dict[str, ViolationIndex] | None = None,
                           prefix_rows: int | None = None) -> np.ndarray:
        """Target values of prefix rows matching row ``i`` on the other
        attributes of each active hard DC (always violation-free for
        two-tuple DCs against those rows), plus the feasible-interval
        endpoints of conditional-order DCs.

        ``indexes`` — every active binary DC's violation index, covering
        the prefix — answers exactly what the prefix scans return, each
        through its ``hint_values``: an FD's determinant group (or its
        reverse lookup when the target sits *inside* the determinant),
        or a :class:`~repro.constraints.index.GridViolationIndex`
        group's matches and order endpoints.  Without indexes (the MCMC
        refinement) the rows ``[:i]`` of ``cols`` are scanned as the
        prefix.
        ``prefix_rows`` is the number of rows already sampled *globally*
        when it differs from ``i`` (chunked draws).
        """
        hist = i if prefix_rows is None else prefix_rows
        values: list[float] = []
        for dc in self.active_at[j]:
            if not dc.hard or dc.is_unary or target not in dc.attributes:
                continue
            others = [a for a in dc.attributes if a != target]
            if not others or hist == 0:
                continue
            if indexes is None:
                mask = np.ones(i, dtype=bool)
                for a in others:
                    mask &= cols[a][:i] == cols[a][i]
                values.extend(np.unique(
                    cols[target][:i][mask])[:limit].tolist())
                values.extend(self._order_interval(dc, target, cols, i))
                continue
            values.extend(indexes[dc.name].hint_values(
                target, {a: cols[a][i] for a in dc.attributes}, limit))
        if not values:
            return np.empty(0, dtype=np.float64)
        # sorted-distinct == np.unique, without the array machinery
        # (the list rarely exceeds a dozen values).
        return np.array(sorted({float(v) for v in values}),
                        dtype=np.float64)

    def fresh_value_tracker(self, j: int) -> set | None:
        """Incrementally maintained used-value set for position ``j``.

        :meth:`_fresh_values` needs the set of target values already
        present in the prefix; re-deriving it with ``np.unique`` per row
        is O(prefix) per numerical candidate row.  When the target is
        the (numerical, non-hyper) determinant of an active hard FD, the
        fill loops maintain this set instead — add the written value
        after every row — and membership matches the scan exactly.
        Returns None when tracking is unnecessary for this position.
        """
        w = self.wseq[j]
        if self.hyper.is_hyper(w) or not self.wrel[w].is_numerical:
            return None
        is_fd_det = any(
            dc.hard and (shape := dc.as_fd()) is not None
            and w in shape[0]
            for dc in self.active_at[j])
        return set() if is_fd_det else None

    def _fresh_values(self, j: int, target: str, cols: dict, i: int,
                      limit: int = 2, tries: int = 24,
                      used: set | None = None,
                      uniforms: np.ndarray | None = None,
                      prefix_rows: int | None = None) -> np.ndarray:
        """Unused domain values for determinants of active hard FDs.

        A key-like numerical attribute (e.g. TPC-H's ``c_custkey``) gets
        its Gaussian candidates snapped to a coarse grid; once every
        grid value is bound to a dependent value, a row carrying a new
        dependent has no feasible snapped candidate.  Values *absent*
        from the prefix are always violation-free for FD-shaped DCs, so
        a few fresh draws (deliberately not snapped) keep the hard
        constraint satisfiable.

        ``used`` is the incrementally maintained prefix-value set from
        :meth:`fresh_value_tracker` (None re-scans the prefix, the
        legacy behaviour).  ``uniforms`` supplies ``tries`` pre-drawn
        uniform variates in [0, 1) instead of consuming ``self.rng`` —
        the counter-based stream hook of the blocked engine.
        """
        is_fd_det = any(
            dc.hard and (shape := dc.as_fd()) is not None
            and target in shape[0]
            for dc in self.active_at[j])
        hist = i if prefix_rows is None else prefix_rows
        if not is_fd_det or hist == 0:
            return np.empty(0, dtype=np.float64)
        attr = self.relation[target]
        if not attr.is_numerical:
            return np.empty(0, dtype=np.float64)
        domain = attr.domain
        if used is None:
            used = set(np.unique(cols[target][:i]).tolist())
            drawn = used
        else:
            drawn: set = set()
        out: list[float] = []
        for t in range(tries):
            if len(out) >= limit:
                break
            if uniforms is None:
                if domain.integer:
                    v = float(self.rng.integers(int(domain.low),
                                                int(domain.high) + 1))
                else:
                    v = float(self.rng.uniform(domain.low, domain.high))
            else:
                u = float(uniforms[t])
                if domain.integer:
                    span = int(domain.high) - int(domain.low) + 1
                    v = float(int(domain.low) + min(int(u * span), span - 1))
                else:
                    v = float(domain.low + u * (domain.high - domain.low))
            if v not in used and v not in drawn:
                out.append(v)
                drawn.add(v)
        return np.asarray(out, dtype=np.float64)

    def _order_interval(self, dc, target: str, cols: dict,
                        i: int) -> list[float]:
        """Feasible-interval endpoints for conditional-order hard DCs.

        For ``not(E= and A> and B<)`` with the prefix consistent, the
        zero-violation values of the target given the already-set
        partner attribute form the closed interval
        ``[max{t_p : partner_p "below"}, min{t_p : partner_p "above"}]``
        within the equality group, and both endpoints are feasible.
        Scans the rows ``[:i]`` of ``cols``.
        """
        shape = dc.as_conditional_order()
        if shape is None:
            return []
        eq_attrs, greater_attr, less_attr = shape
        if target == greater_attr:
            partner = less_attr
        elif target == less_attr:
            partner = greater_attr
        else:
            return []
        p_now = cols[partner][i]
        mask = np.ones(i, dtype=bool)
        for a in eq_attrs:
            mask &= cols[a][:i] == cols[a][i]
        if not mask.any():
            return []
        t_vals = cols[target][:i][mask]
        p_vals = cols[partner][:i][mask]
        # For target = greater_attr (A), partner below means B_p < b_i
        # under orientation "new as i"; for target = less_attr the
        # inequalities mirror, and the same below/above split applies.
        # Both orientations reduce to: the target must lie at or above
        # every group row whose partner is below the current one, and at
        # or below every group row whose partner is above it.
        below = t_vals[p_vals < p_now]
        above = t_vals[p_vals > p_now]
        out = []
        if below.size:
            out.append(float(below.max()))
        if above.size:
            out.append(float(above.min()))
        return out

    def violation_penalty(self, j: int, decode: dict, cols: dict, i: int,
                          indexes: dict[str, ViolationIndex]) -> np.ndarray:
        """Weighted violation counts per candidate (Algorithm 3 line 8).

        ``indexes`` maps every active binary DC to an incremental
        violation index whose state covers exactly the rows the probe
        should count against (the prefix, or every other row for the
        MCMC re-sampling conditional); unary DCs count on the row
        alone.
        """
        d = next(iter(decode.values())).shape[0]
        penalty = np.zeros(d)
        for dc in self.active_at[j]:
            target_values = {a: decode[a] for a in dc.attributes
                             if a in decode}
            context = {a: cols[a][i] for a in dc.attributes
                       if a not in target_values}
            if dc.is_unary:
                counts = multi_candidate_violation_counts(
                    dc, target_values, context, {})
            else:
                counts = indexes[dc.name].candidate_counts(target_values,
                                                           context)
            penalty = penalty + self.weight_of(dc) * counts
        return penalty

    def violation_indexes_for(self, j: int) -> dict[str, ViolationIndex]:
        """Fresh (empty) incremental indexes for the DCs active at ``j``.

        Every binary DC is indexed; unary probes are already O(d)
        without a prefix.  FDs over categorical determinants count in a
        dense table (a numerical dependent, when it is the target, by
        rank on its snap grid), other FDs in the dict-backed index, and
        every other binary DC in a
        :class:`~repro.constraints.index.GridViolationIndex`, with
        value-grid tables where the attributes' universes
        (:meth:`value_universe`) allow.
        """
        # A target that takes fresh values (:meth:`_fresh_values`, not
        # snapped) keeps its FDs on the dict index: they fall off the
        # grid.
        universe = (self.value_universe
                    if self.fresh_value_tracker(j) is None else None)
        out: dict[str, ViolationIndex] = {}
        for dc in self.active_at[j]:
            if dc.is_unary:
                continue
            if dc.as_fd() is None:
                out[dc.name] = build_grid_index(dc, self.value_universe)
                continue
            index = build_fd_table_index(dc, self.code_sizes,
                                         target=self.wseq[j],
                                         universe=universe)
            out[dc.name] = build_index(dc) if index is None else index
        return out

    def value_universe(self, name: str) -> np.ndarray | None:
        """Every value attribute ``name`` can take in sampled output
        (codes for categoricals, the snap grid for DC numericals), or
        None when the value set is not enumerable."""
        attr = self.relation[name]
        if attr.is_categorical:
            return np.arange(attr.domain.size, dtype=np.float64)
        return self.snap_grids.get(name)


def _allocate_columns(relation, n: int) -> dict:
    cols = {}
    for attr in relation:
        if attr.is_categorical:
            cols[attr.name] = np.zeros(n, dtype=np.int64)
        else:
            cols[attr.name] = np.full(n, attr.domain.low, dtype=np.float64)
    return cols


def _allocate_working(sampler: _ColumnSampler, cols: dict, n: int) -> dict:
    """Working columns; singletons alias the original column arrays."""
    wcols = {}
    for w in sampler.wseq:
        if sampler.hyper.is_hyper(w):
            wcols[w] = np.zeros(n, dtype=np.int64)
        else:
            wcols[w] = cols[w]
    return wcols


def _write_cell(sampler: _ColumnSampler, j: int, i: int, cand_idx: int,
                working_values: np.ndarray, decode: dict, cols: dict,
                wcols: dict) -> None:
    w = sampler.wseq[j]
    wcols[w][i] = working_values[cand_idx]
    if sampler.hyper.is_hyper(w):
        for attr, values in decode.items():
            cols[attr][i] = values[cand_idx]


def _append_row(vio_indexes: dict, cols: dict, i: int) -> None:
    """Fold the freshly written row ``i`` into the violation indexes."""
    for index in vio_indexes.values():
        index.append_from(cols, i)


def _fill_column_vectorized(sampler: _ColumnSampler, j: int, base,
                            cols: dict, wcols: dict, n: int) -> None:
    """No active DCs at this position: i.i.d. sampling, fully batched."""
    rng = sampler.rng
    w = sampler.wseq[j]
    if base[0] == "cat":
        codes = _gumbel_argmax(base[1], rng)
        wcols[w][:] = codes
        if sampler.hyper.is_hyper(w):
            for attr, values in sampler.hyper.decode_codes(w, codes).items():
                cols[attr][:] = values
    elif base[0] == "num":
        _, mu, sigma = base
        # Candidate-and-reweight (paper §4.2): d draws per row, chosen
        # with probability proportional to the Gaussian density.
        d = sampler.params.num_candidates
        cand = rng.normal(mu[:, None], sigma[:, None], size=(n, d))
        cand = sampler.snap(w, sampler.wrel[w].domain.clip(cand))
        logp = -0.5 * ((cand - mu[:, None]) / sigma[:, None]) ** 2
        pick = _gumbel_argmax(logp, rng)
        wcols[w][:] = cand[np.arange(n), pick]
    else:  # numerical histogram
        hist = base[1]
        wcols[w][:] = sampler.snap(w, hist.sample(n, rng))


def _mcmc_resample(sampler: _ColumnSampler, j: int, cols: dict, wcols: dict,
                   n: int, m: int) -> None:
    """Constrained MCMC (Algorithm 3 line 12): re-sample ``m`` random
    cells of column ``j`` conditioned on every other cell."""
    rng = sampler.rng
    base = sampler.base_distribution(j, wcols, n)
    vio_indexes = sampler.violation_indexes_for(j)
    for index in vio_indexes.values():
        index.build(cols, n)
    for _ in range(m):
        i = int(rng.integers(0, n))
        # The conditional counts against all *other* rows: lift row i
        # out of the indexes, probe, then fold the re-sampled row back.
        for index in vio_indexes.values():
            index.remove_from(cols, i)
        cand, decode, logp = sampler.candidates_for_row(j, base, i, cols)
        penalty = sampler.violation_penalty(j, decode, cols, i,
                                            indexes=vio_indexes)
        choice = _log_normalise_sample(logp - penalty, rng)
        _write_cell(sampler, j, i, choice, cand, decode, cols, wcols)
        _append_row(vio_indexes, cols, i)


def ar_sample(model, relation, dcs, weights, n: int, params,
              rng: np.random.Generator, hyper: HyperSpec | None = None,
              max_tries: int = 300) -> Table:
    """Experiment 6's accept-reject sampler.

    Each cell repeatedly draws a value from the base conditional and
    accepts it with probability ``exp(-sum w * vio)``; after
    ``max_tries`` rejections the last draw is kept (so hard-DC
    violations *can* occur — the behaviour the paper reports).
    """
    if hyper is None:
        hyper = HyperSpec.trivial(relation, model.sequence)
    sampler = _ColumnSampler(model, relation, hyper, dcs, weights, params,
                             rng)
    cols = _allocate_columns(relation, n)
    wcols = _allocate_working(sampler, cols, n)

    for j in range(len(sampler.wseq)):
        base = sampler.base_distribution(j, wcols, n)
        active = sampler.active_at[j]
        if not active:
            _fill_column_vectorized(sampler, j, base, cols, wcols, n)
            continue
        vio_indexes = sampler.violation_indexes_for(j)
        used = sampler.fresh_value_tracker(j)
        for i in range(n):
            cand, decode, logp = sampler.candidates_for_row(
                j, base, i, cols, indexes=vio_indexes, used=used)
            shifted = np.exp(logp - logp.max())
            probs = shifted / shifted.sum()
            choice = None
            for _ in range(max_tries):
                draw = int(rng.choice(probs.shape[0], p=probs))
                one = {a: v[draw:draw + 1] for a, v in decode.items()}
                penalty = sampler.violation_penalty(j, one, cols, i,
                                                    indexes=vio_indexes)[0]
                if penalty <= 0 or rng.random() < math.exp(-min(penalty, 700)):
                    choice = draw
                    break
                choice = draw  # keep the last draw if all rejected
            _write_cell(sampler, j, i, choice, cand, decode, cols, wcols)
            _append_row(vio_indexes, cols, i)
            if used is not None:
                used.add(float(cols[sampler.wseq[j]][i]))
    return Table(relation, cols, validate=False)
