"""Algorithm 3 — constraint-aware database instance sampling: the
per-cell machinery.

Algorithm 3 walks the working schema sequence attribute by attribute and
tuple by tuple.  For each cell it combines

* the learned conditional ``p_{v|c}`` from the probabilistic data model
  (batched over all rows — the conditional does not depend on the DC
  state, so one forward pass per attribute suffices), and
* the violation penalty ``exp(- sum_phi w_phi * vio_phi,v)`` against the
  already-sampled prefix (Algorithm 3, lines 7-10),

and samples from the normalised product.  Hard DCs use an effectively
infinite weight: any candidate that would create a violation is
excluded unless *every* candidate violates, in which case the sampler
falls back to the minimum-violation candidates (the probabilistic-
database semantics: all remaining instances are "almost surely" ruled
out, so we pick the least bad).

:class:`_ColumnSampler` holds that machinery — base conditionals,
candidate sets, violation penalties, the violation indexes and the
hard-FD lookup indexes — and the block-scheduled engine of
:mod:`repro.core.engine` draws every instance with it.  The loop that
walks it one cell at a time is the tests' reference
(``tests/row_reference.py``).

Also implemented here:

* the constrained MCMC refinement (line 12): after a column is filled,
  ``m`` random cells are re-sampled conditioned on *all* other cells;
* :func:`ar_sample` — the accept-reject alternative of Experiment 6;
* the hard-FD lookup fast path of Experiment 10 (``use_fd_lookup``):
  when the target is the dependent of a hard FD whose determinant is
  already sampled, the forced value is read from an incremental index
  instead of scanning the prefix.

The violation counts themselves come from the incremental violation
indexes of :mod:`repro.constraints.index` (``use_violation_index``,
default on): as each row is sampled it is folded into a per-DC index,
and the per-candidate count at line 8 becomes an O(group) probe instead
of an O(prefix) broadcast rescan.  DC shapes without an indexable
structure fall back to the scan engine; counts are bit-identical in
both modes.

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

from repro.constraints.fd import FDIndex, extract_fds
from repro.constraints.index import (
    FDViolationIndex, GridViolationIndex, OrderViolationIndex,
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


class PrefixScanRequired(RuntimeError):
    """An exact answer would need the full sampled prefix arrays.

    Raised in *strict* mode (streaming chunked draws, which retain only
    the incremental violation indexes — not the prefix itself) when a
    DC shape has no index-served path.  Single-shot draws never strict
    and simply scan.
    """


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
                 params, rng, use_fd_lookup: bool = False,
                 use_violation_index: bool = True):
        self.model = model
        self.relation = relation
        self.hyper = hyper
        self.dcs = list(dcs)
        self.weights = dict(weights)
        self.params = params
        self.rng = rng
        self.use_fd_lookup = use_fd_lookup
        self.use_violation_index = use_violation_index

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

    def base_distribution(self, j: int, wcols: dict, n: int):
        """Per-row base conditional for working position ``j``.

        Returns ``("cat", logp)`` with ``logp`` of shape (n, V), or
        ``("num", mu, sigma)`` for numerical sub-model targets, or
        ``("numhist", hist)`` for histogram-modeled numerical targets.
        """
        w = self.wseq[j]
        wattr = self.wrel[w]
        if j == 0 or w in self.model.independent:
            hist = self.model.first if j == 0 else self.model.independent[w]
            if wattr.is_categorical:
                logp = np.tile(hist.log_prob_codes(), (n, 1))
                return ("cat", logp)
            return ("numhist", hist)
        batch_cols = {a: wcols[a] for a in self.model.context_attrs[w]}
        # BLAS routes a 1-row batch through a different kernel (gemv)
        # whose reduction order can drift an ulp from the row-sliced
        # gemm of a larger batch.  Duplicate the row so every schedule
        # (single-shot, sharded, streamed) sees the same row-pure gemm.
        pad = n == 1
        if pad:
            batch_cols = {a: np.repeat(c[:1], 2)
                          for a, c in batch_cols.items()}
        if wattr.is_categorical:
            probs = self.model.conditional(w, batch_cols)
            if pad:
                probs = probs[:1]
            return ("cat", np.log(np.maximum(probs, 1e-300)))
        mu, sigma = self.model.conditional(w, batch_cols)
        if pad:
            mu, sigma = mu[:1], sigma[:1]
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
                           strict: bool = False,
                           prefix_rows: int | None = None) -> np.ndarray:
        """Target values of prefix rows matching row ``i`` on the other
        attributes of each active hard DC (always violation-free for
        two-tuple DCs against those rows).

        When a violation index covering the prefix is available it
        replaces the scan exactly: an FD determinant group (or its
        reverse histogram lookup when the target sits *inside* the
        determinant), a value-grid group's ``hist`` and an order
        group's point arrays yield the same sorted-distinct sets as
        ``np.unique`` over the prefix.  In ``strict`` mode (streaming —
        the prefix arrays are gone) a DC with no index-served path
        raises :class:`PrefixScanRequired`.
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
            index = indexes.get(dc.name) if indexes else None
            if isinstance(index, GridViolationIndex):
                # The matched values and (order shape) the interval
                # endpoints, identical to the scans below.
                values.extend(index.hint_values(
                    target, {a: cols[a][i] for a in dc.attributes}, limit))
                continue
            matched: list | None = None
            if (isinstance(index, OrderViolationIndex)
                    and target in (index.greater_attr, index.less_attr)):
                partner = (index.less_attr
                           if target == index.greater_attr
                           else index.greater_attr)
                points = index.group_points(
                    {a: cols[a][i] for a in index.eq_attrs})
                if points is None:
                    matched = []  # empty group == empty scan mask
                else:
                    t_vals, p_vals = ((points[0], points[1])
                                      if target == index.greater_attr
                                      else (points[1], points[0]))
                    sel = np.asarray(p_vals) == cols[partner][i]
                    matched = np.unique(
                        np.asarray(t_vals)[sel])[:limit].tolist()
            elif isinstance(index, FDViolationIndex):
                if index.dependent == target:
                    key_row = {a: cols[a][i] for a in index.determinant}
                    matched = index.dependents_of(key_row)[:limit]
                else:
                    row = {a: cols[a][i] for a in dc.attributes}
                    matched = index.matched_det_values(target,
                                                       row)[:limit]
            if matched is None:
                if strict:
                    raise PrefixScanRequired(
                        f"DC {dc.name!r} (target {target!r}) has no "
                        f"index-served consistent-value path")
                mask = np.ones(i, dtype=bool)
                for a in others:
                    mask &= cols[a][:i] == cols[a][i]
                matched = np.unique(
                    cols[target][:i][mask])[:limit].tolist()
            values.extend(matched)
            values.extend(self._order_interval(dc, target, cols, i,
                                               index=index,
                                               strict=strict))
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

    def _order_interval(self, dc, target: str, cols: dict, i: int,
                        index: ViolationIndex | None = None,
                        strict: bool = False) -> list[float]:
        """Feasible-interval endpoints for conditional-order hard DCs.

        For ``not(E= and A> and B<)`` with the prefix consistent, the
        zero-violation values of the target given the already-set
        partner attribute form the closed interval
        ``[max{t_p : partner_p "below"}, min{t_p : partner_p "above"}]``
        within the equality group, and both endpoints are feasible.

        With an order violation index covering the prefix the group's
        point arrays replace the O(prefix) equality scan.
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
        if isinstance(index, OrderViolationIndex):
            points = index.group_points(
                {a: cols[a][i] for a in eq_attrs})
            if points is None:
                return []
            a_vals, b_vals = points
            t_vals = a_vals if target == greater_attr else b_vals
            p_vals = b_vals if target == greater_attr else a_vals
        else:
            if strict:
                raise PrefixScanRequired(
                    f"DC {dc.name!r} (target {target!r}) has no order "
                    f"index covering the prefix")
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

    def violation_penalty(self, j: int, decode: dict, cols: dict,
                          i: int, exclude_self: bool = False,
                          indexes: dict[str, ViolationIndex] | None = None,
                          ) -> np.ndarray:
        """Weighted violation counts per candidate (Algorithm 3 line 8).

        ``exclude_self`` switches from prefix counting (rows < i) to
        all-other-rows counting (the MCMC re-sampling conditional).
        ``indexes`` maps DC names to incremental violation indexes whose
        state covers exactly the rows the probe should count against;
        DCs without an index (or probes an index cannot answer) fall
        back to the O(prefix) scan engine.
        """
        d = next(iter(decode.values())).shape[0]
        penalty = np.zeros(d)
        for dc in self.active_at[j]:
            target_values = {a: decode[a] for a in dc.attributes
                             if a in decode}
            context = {a: cols[a][i] for a in dc.attributes
                       if a not in target_values}
            counts = None
            if indexes is not None:
                index = indexes.get(dc.name)
                if index is not None:
                    counts = index.candidate_counts(target_values, context)
            if counts is None:
                if exclude_self:
                    prefix = {a: np.concatenate([cols[a][:i],
                                                 cols[a][i + 1:]])
                              for a in dc.attributes}
                else:
                    prefix = {a: cols[a][:i] for a in dc.attributes}
                counts = multi_candidate_violation_counts(
                    dc, target_values, context, prefix)
            penalty = penalty + self.weight_of(dc) * counts
        return penalty

    def violation_indexes_for(self, j: int,
                              removable: bool = False,
                              ) -> dict[str, ViolationIndex]:
        """Fresh (empty) incremental indexes for the DCs active at ``j``.

        Only shapes with a probe are indexed: unary probes are already
        O(d) without a prefix.  FDs over categorical determinants count
        in a dense table (a numerical dependent, when it is the target,
        by rank on its snap grid), other binary DCs whose predicates
        each read one attribute in value-grid tables over the
        attributes' known universes (:meth:`value_universe`); the rest
        keep the FD, order and generic indexes of :func:`build_index`.
        ``removable`` additionally requires remove support (the MCMC
        all-but-one conditional).
        """
        if not self.use_violation_index:
            return {}
        # A target that takes fresh values (:meth:`_fresh_values`, not
        # snapped) keeps its FDs on the dict index: they fall off the
        # grid.
        universe = (self.value_universe
                    if self.fresh_value_tracker(j) is None else None)
        out: dict[str, ViolationIndex] = {}
        for dc in self.active_at[j]:
            if dc.is_unary:
                continue
            index = build_fd_table_index(dc, self.code_sizes,
                                         target=self.wseq[j],
                                         universe=universe)
            if index is None:
                index = build_grid_index(dc, self.value_universe)
            if index is None:
                index = build_index(dc)
            if not index.supports_candidates:
                continue
            if removable and not index.supports_removal:
                continue
            out[dc.name] = index
        return out

    def value_universe(self, name: str) -> np.ndarray | None:
        """Every value attribute ``name`` can take in sampled output
        (codes for categoricals, the snap grid for DC numericals), or
        None when the value set is not enumerable."""
        attr = self.relation[name]
        if attr.is_categorical:
            return np.arange(attr.domain.size, dtype=np.float64)
        return self.snap_grids.get(name)

    def fd_indexes_for(self, j: int) -> list[FDIndex]:
        """Hard-FD indexes usable at position ``j`` (fast path).

        The FD must be hard, its dependent must be the (singleton)
        target, and its determinant fully covered by earlier positions.
        """
        if not self.use_fd_lookup:
            return []
        w = self.wseq[j]
        if self.hyper.is_hyper(w):
            return []
        earlier = self.covered_after[j - 1] if j > 0 else set()
        out = []
        for determinant, dependent, dc in extract_fds(self.dcs):
            if dc.hard and dependent == w and set(determinant) <= earlier:
                out.append(FDIndex(determinant, dependent))
        return out


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


def _forced_value(fd_indexes, cols: dict, i: int):
    for index in fd_indexes:
        row = {a: cols[a][i] for a in index.determinant}
        value = index.forced_value(row)
        if value is not None:
            return value
    return None


def _record_fd(fd_indexes, cols: dict, i: int) -> None:
    """Pin row ``i``'s determinant -> dependent mapping in every index."""
    for index in fd_indexes:
        row = {a: cols[a][i] for a in index.determinant}
        index.record(row, cols[index.dependent][i])


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
    vio_indexes = sampler.violation_indexes_for(j, removable=True)
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
                                            exclude_self=True,
                                            indexes=vio_indexes)
        choice = _log_normalise_sample(logp - penalty, rng)
        _write_cell(sampler, j, i, choice, cand, decode, cols, wcols)
        _append_row(vio_indexes, cols, i)


def ar_sample(model, relation, dcs, weights, n: int, params,
              rng: np.random.Generator, hyper: HyperSpec | None = None,
              max_tries: int = 300,
              use_violation_index: bool = True) -> Table:
    """Experiment 6's accept-reject sampler.

    Each cell repeatedly draws a value from the base conditional and
    accepts it with probability ``exp(-sum w * vio)``; after
    ``max_tries`` rejections the last draw is kept (so hard-DC
    violations *can* occur — the behaviour the paper reports).
    """
    if hyper is None:
        hyper = HyperSpec.trivial(relation, model.sequence)
    sampler = _ColumnSampler(model, relation, hyper, dcs, weights, params,
                             rng, use_violation_index=use_violation_index)
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
