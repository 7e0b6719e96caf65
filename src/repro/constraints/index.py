"""Incremental violation indexes — the sampler/repair hot-path engine.

Counting denial-constraint violations is the single hottest operation in
the system: Algorithm 3 probes ``|V(phi, t_i + v | D_:i)|`` for every
candidate value of every cell, Algorithm 5 needs the per-tuple violation
matrix, and the Figure 1 cleaning baseline re-counts after every repair
pass.  The scan-based engine in :mod:`repro.constraints.violations`
re-evaluates the predicate conjunction against the whole prefix each
time — O(prefix) per probe, O(n^2) per column.

This module maintains *incremental* per-DC state instead, so that
appending a tuple, removing a tuple, or rewriting a cell updates the
index in (amortised) group-local time, and a candidate probe costs
O(group) instead of O(prefix):

* :class:`FDViolationIndex` — hash-bucket group index for FD-shaped DCs
  (``X -> y``), hard *or* soft.  Per determinant group it tracks the
  group size and a dependent-value histogram; the number of new
  violations a candidate ``v`` creates is ``size(X) - count(X, v)``.
  This generalises the forced-value ``FDIndex`` fast path of
  Experiment 10 from hard FDs to violation *counts*.
* :class:`ArrayFDViolationIndex` — the same FD counts over two known
  code domains as one dense table, so block probes and folds are
  array operations (the sampler's categorical FDs).
* :class:`OrderViolationIndex` — sorted-structure index for
  conditional-order DCs (``not(E= and A> and B<)``).  Per equality
  group it keeps the (A, B) points; a probe splits the group on the
  fixed partner value and binary-searches the sorted target values, so
  ``d`` candidates cost O(g log g + d log g).
* :class:`UnaryViolationIndex` — violations depend only on the tuple
  itself; the index just maintains the running total.
* :class:`GenericViolationIndex` — cached blocked-numpy fallback for
  arbitrary binary DCs: it references the live column arrays, caches
  the full blocked O(n^2) count, and invalidates the cache on change.

All indexes produce counts **bit-identical** to the scan-based
functions (``count_violations``, ``multi_candidate_violation_counts``,
``violation_matrix``); ``tests/test_violation_index.py`` asserts this on
randomized tables.  Consumers: :mod:`repro.core.sampling` (Algorithm 3
and the MCMC refinement), :mod:`repro.baselines.cleaning` (repair
passes), and :func:`repro.constraints.violations.violation_matrix`
(Algorithm 5).

Group keys are built from the *original* stored scalars (int codes stay
ints), never cast through float64 — so int64 keys above 2**53 cannot
collide.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.dc import DenialConstraint


def _item(value):
    """Convert a numpy scalar to a hashable python scalar."""
    return value.item() if hasattr(value, "item") else value


class ViolationIndex:
    """Base class: incremental violation state for one DC.

    The indexed instance is a multiset of tuples fed in via
    :meth:`append_from` / :meth:`remove_from` (rows of a shared column
    dict) and edited via :meth:`rewrite_cell`.  ``total()`` is the
    current ``|V(phi, D)|`` under the paper's counting conventions
    (tuples for unary DCs, unordered pairs for binary DCs).
    """

    #: Whether :meth:`candidate_counts` can answer probes (otherwise the
    #: caller falls back to the scan engine).
    supports_candidates = False
    #: Whether :meth:`remove_from` is implemented.
    supports_removal = False

    def __init__(self, dc: DenialConstraint):
        self.dc = dc
        #: Optional telemetry hook: a mutable mapping (e.g. the
        #: ``probes`` dict of a :class:`repro.obs.trace.ColumnTrace`)
        #: that probe methods bump by method name when attached.  None
        #: (the default) keeps the probes allocation- and branch-cheap —
        #: the zero-cost-when-off contract of :mod:`repro.obs`.
        self.counters: dict | None = None

    def _bump(self, key: str, inc: int = 1) -> None:
        c = self.counters
        if c is not None:
            c[key] = c.get(key, 0) + inc

    # -- lifecycle -----------------------------------------------------
    def reset(self) -> None:
        raise NotImplementedError

    def build(self, cols: dict, n: int) -> None:
        """Index the first ``n`` rows of ``cols`` from scratch."""
        self.reset()
        for i in range(n):
            self.append_from(cols, i)

    def append_from(self, cols: dict, i: int) -> None:
        """Add row ``i`` of ``cols`` to the indexed instance."""
        raise NotImplementedError

    def remove_from(self, cols: dict, i: int) -> None:
        """Remove row ``i`` (its *current* values) from the instance."""
        raise NotImplementedError

    def rewrite_cell(self, cols: dict, i: int, attr: str, old_value) -> None:
        """Row ``i``'s cell ``attr`` changed from ``old_value`` to its
        current value in ``cols``; update the index."""
        row_new = {a: cols[a][i] for a in self.dc.attributes}
        row_old = dict(row_new)
        row_old[attr] = old_value
        self._remove_row(row_old)
        self._add_row(row_new)

    # -- queries -------------------------------------------------------
    def total(self) -> int:
        raise NotImplementedError

    def candidate_counts(self, target_values: dict | None,
                         context: dict) -> np.ndarray | None:
        """New-violation counts per candidate against the indexed rows.

        Same contract as
        :func:`~repro.constraints.violations.multi_candidate_violation_counts`
        (the indexed rows play the role of ``prefix_cols``).  Returns
        None when this index cannot answer the probe exactly — the
        caller must then fall back to the scan engine.
        """
        return None

    def probe_many(self, target_values, contexts) -> np.ndarray | None:
        """Batched :meth:`candidate_counts` over a block of rows.

        ``target_values`` is either a single dict shared by every row
        (the categorical full-domain case) or a sequence of per-row
        dicts; ``contexts`` is a sequence of per-row context dicts.  All
        rows must probe the same candidate count ``d``.  Returns a
        ``(len(contexts), d)`` count matrix, or None as soon as any row
        cannot be answered exactly (the caller falls back to the scan
        engine for the whole block).

        The base implementation loops; shape-specific subclasses
        vectorize the hot layouts (see
        :meth:`FDViolationIndex.probe_block_codes`).
        """
        self._bump("probe_many")
        shared = isinstance(target_values, dict)
        out = []
        for r, context in enumerate(contexts):
            tv = target_values if shared else target_values[r]
            counts = self.candidate_counts(tv, context)
            if counts is None:
                return None
            out.append(counts)
        if not out:
            return np.zeros((0, 0), dtype=np.int64)
        return np.vstack(out)

    # -- internals -----------------------------------------------------
    def _add_row(self, row: dict) -> None:
        raise NotImplementedError

    def _remove_row(self, row: dict) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# FD-shaped DCs
# ----------------------------------------------------------------------
class FDViolationIndex(ViolationIndex):
    """Hash-bucket group index for an FD-shaped DC ``X -> y``.

    State per determinant key: group size and a histogram of dependent
    values.  Appending a tuple with key ``k`` and dependent ``v``
    creates ``size(k) - count(k, v)`` new violating pairs, which is an
    O(1) dict probe — and exactly what the scan engine counts, because a
    pair violates an FD iff the determinants agree and the dependents
    differ (both orientations coincide).
    """

    supports_candidates = True
    supports_removal = True

    def __init__(self, dc: DenialConstraint):
        super().__init__(dc)
        fd = dc.as_fd()
        if fd is None:
            raise ValueError(f"DC {dc.name} is not FD-shaped")
        self.determinant, self.dependent = fd
        self.reset()

    def reset(self) -> None:
        #: key -> [group_size, {dep_value: count}]
        self._groups: dict[tuple, list] = {}
        self._total = 0
        self._n = 0
        # Det-major cache for single-attribute integer determinants:
        # sizes[code] = group size, by_dep[dep][code] = count(code, dep).
        # Activated lazily on the first determinant-target probe (the
        # sampler filling a determinant column after the dependent) and
        # maintained incrementally; answers a full-domain candidate
        # probe as two O(V) vector ops instead of V dict lookups.
        self._det_sizes: np.ndarray | None = None
        self._det_by_dep: dict | None = None

    def _key(self, row: dict) -> tuple:
        return tuple(_item(row[a]) for a in self.determinant)

    def append_from(self, cols: dict, i: int) -> None:
        self._add_row({a: cols[a][i] for a in self.dc.attributes})

    def remove_from(self, cols: dict, i: int) -> None:
        self._remove_row({a: cols[a][i] for a in self.dc.attributes})

    # -- det-major cache -----------------------------------------------
    def _det_cache_update(self, key: tuple, dep, delta: int) -> None:
        if self._det_sizes is None:
            return
        code = key[0]
        if (not isinstance(code, (int, np.integer))
                or not 0 <= code < self._det_sizes.shape[0]):
            self._det_sizes = None
            self._det_by_dep = None
            return
        self._det_sizes[code] += delta
        per = self._det_by_dep.get(dep)
        if per is None:
            per = np.zeros(self._det_sizes.shape[0], dtype=np.int64)
            self._det_by_dep[dep] = per
        per[code] += delta

    def _activate_det_cache(self, size: int) -> bool:
        """Build the det-major arrays over code domain ``0..size-1``."""
        if len(self.determinant) != 1:
            return False
        sizes = np.zeros(size, dtype=np.int64)
        by_dep: dict = {}
        for key, (gsize, counts) in self._groups.items():
            code = key[0]
            if (not isinstance(code, (int, np.integer))
                    or not 0 <= code < size):
                return False
            sizes[code] = gsize
            for dep, c in counts.items():
                per = by_dep.get(dep)
                if per is None:
                    per = np.zeros(size, dtype=np.int64)
                    by_dep[dep] = per
                per[code] = c
        self._det_sizes = sizes
        self._det_by_dep = by_dep
        return True

    def probe_det_codes(self, dep, size: int,
                        out: np.ndarray | None = None) -> np.ndarray | None:
        """Counts for full-domain *determinant* candidates, fixed dep.

        The mirror image of :meth:`probe_block_codes`: the sampler is
        filling a determinant column after the dependent, so candidate
        ``c`` joins group ``c`` and creates ``size(c) - count(c, dep)``
        violations.  O(V) vectorized via the det-major cache; None when
        the cache cannot represent this index (composite or non-code
        determinant).  ``out`` receives the counts without allocating.
        """
        self._bump("probe_det_codes")
        if self._det_sizes is None or self._det_sizes.shape[0] != size:
            self._det_sizes = None
            self._det_by_dep = None
            if not self._activate_det_cache(size):
                return None
        per = self._det_by_dep.get(_item(dep))
        if out is None:
            if per is None:
                return self._det_sizes.copy()
            return self._det_sizes - per
        if per is None:
            out[:] = self._det_sizes
        else:
            np.subtract(self._det_sizes, per, out=out)
        return out

    # -- multiset updates ----------------------------------------------
    def probe_pair(self, key: tuple, dep) -> int:
        """New violations if ``(key, dep)`` were appended — the O(1)
        kernel behind every probe; ``key``/``dep`` are python scalars
        (as produced by ``.tolist()`` on the column arrays)."""
        self._bump("probe_pair")
        group = self._groups.get(key)
        if group is None:
            return 0
        return group[0] - group[1].get(dep, 0)

    def add_pair(self, key: tuple, dep) -> int:
        """Append one ``(determinant key, dependent)`` observation and
        return the violating pairs it adds.

        The allocation-free core of :meth:`append_from` for callers that
        already hold python-scalar keys (the blocked engine's fast
        lane).
        """
        group = self._groups.get(key)
        if group is None:
            group = [0, {}]
            self._groups[key] = group
        size, counts = group
        created = size - counts.get(dep, 0)
        self._total += created
        group[0] = size + 1
        counts[dep] = counts.get(dep, 0) + 1
        self._det_cache_update(key, dep, 1)
        self._n += 1
        return created

    def _add_row(self, row: dict) -> None:
        self.add_pair(self._key(row), _item(row[self.dependent]))

    def _remove_row(self, row: dict) -> None:
        key = self._key(row)
        dep = _item(row[self.dependent])
        group = self._groups[key]
        size, counts = group
        self._total -= size - counts.get(dep, 0)
        group[0] = size - 1
        if counts[dep] == 1:
            del counts[dep]
        else:
            counts[dep] -= 1
        if group[0] == 0:
            del self._groups[key]
        self._det_cache_update(key, dep, -1)
        self._n -= 1

    def total(self) -> int:
        return self._total

    def __len__(self) -> int:
        return self._n

    def candidate_counts(self, target_values: dict | None,
                         context: dict) -> np.ndarray | None:
        self._bump("candidate_counts")
        if not target_values:
            row = {a: context[a] for a in self.dc.attributes}
            key = self._key(row)
            group = self._groups.get(key)
            if group is None:
                return np.zeros(1, dtype=np.int64)
            size, counts = group
            dep = _item(row[self.dependent])
            return np.array([size - counts.get(dep, 0)], dtype=np.int64)

        d = next(iter(target_values.values())).shape[0]
        det_in_targets = [a for a in self.determinant if a in target_values]
        if not det_in_targets and self.dependent in target_values:
            # Fast path: fixed determinant group, vector of dependents.
            key = tuple(_item(context[a]) for a in self.determinant)
            group = self._groups.get(key)
            if group is None:
                return np.zeros(d, dtype=np.int64)
            size, counts = group
            deps = target_values[self.dependent].tolist()
            return np.fromiter((size - counts.get(v, 0) for v in deps),
                               dtype=np.int64, count=d)

        # Det-target fast path: single-attribute determinant, fixed
        # dependent, full-code-domain candidates (the sampler filling a
        # determinant column after its dependent).
        if (len(self.determinant) == 1 and det_in_targets
                and self.dependent not in target_values):
            cands = target_values[self.determinant[0]]
            if (cands.dtype.kind in "iu"
                    and np.array_equal(cands, np.arange(
                        cands.shape[0], dtype=cands.dtype))):
                counts = self.probe_det_codes(context[self.dependent],
                                              cands.shape[0])
                if counts is not None:
                    return counts

        # General path: the determinant key varies per candidate.
        det_cols = [
            (target_values[a].tolist() if a in target_values
             else [_item(context[a])] * d)
            for a in self.determinant]
        if self.dependent in target_values:
            dep_col = target_values[self.dependent].tolist()
        else:
            dep_col = [_item(context[self.dependent])] * d
        out = np.empty(d, dtype=np.int64)
        for c in range(d):
            key = tuple(col[c] for col in det_cols)
            group = self._groups.get(key)
            if group is None:
                out[c] = 0
            else:
                size, counts = group
                out[c] = size - counts.get(dep_col[c], 0)
        return out

    def probe_block_codes(self, keys: list, size: int) -> np.ndarray:
        """Vectorized block probe: full-domain categorical dependents.

        ``keys`` holds one (python-scalar) determinant key tuple per
        block row; candidates are the complete code domain ``0..size-1``
        for every row.  Row ``r`` of the result is
        ``group_size(keys[r]) - histogram(keys[r])`` — identical to
        :meth:`candidate_counts` with ``target_values =
        {dependent: arange(size)}`` but without the per-candidate dict
        probes (a group's histogram usually has far fewer distinct
        dependents than the domain has codes).
        """
        self._bump("probe_block_codes")
        out = np.empty((len(keys), size), dtype=np.int64)
        for r, key in enumerate(keys):
            group = self._groups.get(key)
            row = out[r]
            if group is None:
                row[:] = 0
                continue
            gsize, counts = group
            row[:] = gsize
            if counts:
                idx = np.fromiter(counts.keys(), dtype=np.int64,
                                  count=len(counts))
                vals = np.fromiter(counts.values(), dtype=np.int64,
                                   count=len(counts))
                row[idx] -= vals
        return out

    def probe_many(self, target_values, contexts) -> np.ndarray | None:
        if (isinstance(target_values, dict)
                and set(target_values) == {self.dependent}):
            deps = target_values[self.dependent]
            if (deps.dtype.kind in "iu" and deps.shape[0] > 0
                    and np.array_equal(
                        deps, np.arange(deps.shape[0], dtype=deps.dtype))):
                # Full-domain categorical candidates: one vectorized
                # histogram subtraction per row.
                keys = [tuple(_item(ctx[a]) for a in self.determinant)
                        for ctx in contexts]
                return self.probe_block_codes(keys, deps.shape[0])
        return super().probe_many(target_values, contexts)

    def dependents_of(self, key_row: dict) -> list:
        """Sorted distinct dependent values already bound to the
        determinant group of ``key_row`` (empty if the group is new)."""
        group = self._groups.get(self._key(key_row))
        if group is None:
            return []
        return sorted(group[1])

    def matched_det_values(self, target: str, row: dict) -> list:
        """Sorted distinct values of determinant attribute ``target``
        among indexed rows matching ``row`` on the *other* determinant
        attributes and on the dependent.

        The reverse of :meth:`dependents_of`: the sampler is filling a
        determinant column and wants prefix values already bound to this
        dependent — exactly what the O(prefix) equality scan returns,
        served in O(#groups) from the histograms (streaming draws keep
        the index but not the prefix arrays).
        """
        t_pos = self.determinant.index(target)
        others = [(p, _item(row[a]))
                  for p, a in enumerate(self.determinant) if a != target]
        dep = _item(row[self.dependent])
        out = set()
        for key, (_, counts) in self._groups.items():
            if dep not in counts:
                continue
            if all(key[p] == v for p, v in others):
                out.add(key[t_pos])
        return sorted(out)


#: Largest count table (cells) an FD gets; bigger FDs stay on the
#: dict-backed :class:`FDViolationIndex`.  At int64, 32 MB.
MAX_FD_TABLE_CELLS = 1 << 22


class ArrayFDViolationIndex(FDViolationIndex):
    """:class:`FDViolationIndex` over two known code domains.

    For ``x -> y`` with a single determinant whose values are codes
    ``0..K-1`` and a dependent with codes ``0..V-1``, the per-group
    histograms become one int64 table ``count[x, y]`` next to the group
    sizes ``size[x]``.  Every probe is then array arithmetic: the
    ``(B, V)`` candidate counts of a block of rows are one row gather
    and one in-place subtract (:meth:`dep_counts`), and folding the
    block in is one ``np.add.at`` (:meth:`add_codes`).  ``dep_major``
    stores the table as ``count[y, x]`` instead, so that a block drawing
    the *determinant* (:meth:`det_counts`) gathers contiguous rows too.

    The caller guarantees that every value it appends or probes is an
    in-domain code (the sampler's categorical columns are).  Counts are
    exact integers, identical to the dict-backed index.
    """

    def __init__(self, dc: DenialConstraint, det_size: int, dep_size: int,
                 dep_major: bool = False):
        self.det_size = int(det_size)
        self.dep_size = int(dep_size)
        self.dep_major = bool(dep_major)
        super().__init__(dc)
        if len(self.determinant) != 1:
            raise ValueError(f"DC {dc.name} has a composite determinant")

    def reset(self) -> None:
        shape = ((self.dep_size, self.det_size) if self.dep_major
                 else (self.det_size, self.dep_size))
        self._table = np.zeros(shape, dtype=np.int64)
        #: The table indexed ``[det, dep]`` (a view in either layout).
        self._by_det = self._table.T if self.dep_major else self._table
        self._sizes = np.zeros(self.det_size, dtype=np.int64)
        self._n = 0

    # -- block probes and folds ------------------------------------------
    def dep_counts(self, det_codes: np.ndarray) -> np.ndarray:
        """``(B, V)`` new-violation counts of every dependent code, one
        row per determinant code in ``det_codes``."""
        self._bump("probe_block_codes")
        out = self._by_det[det_codes]
        np.subtract(self._sizes[det_codes][:, None], out, out=out)
        return out

    def det_counts(self, dep_codes: np.ndarray) -> np.ndarray:
        """``(B, K)`` new-violation counts of every determinant code, one
        row per dependent code in ``dep_codes``."""
        self._bump("probe_det_codes")
        out = self._by_det.T[dep_codes]
        np.subtract(self._sizes[None, :], out, out=out)
        return out

    def add_codes(self, det_codes: np.ndarray, dep_codes: np.ndarray) -> None:
        """Append the rows ``(det_codes[r], dep_codes[r])``."""
        np.add.at(self._sizes, det_codes, 1)
        if self.dep_major:
            np.add.at(self._table, (dep_codes, det_codes), 1)
        else:
            np.add.at(self._table, (det_codes, dep_codes), 1)
        self._n += len(det_codes)

    # -- the FDViolationIndex API ----------------------------------------
    def probe_block_codes(self, keys: list, size: int) -> np.ndarray:
        return self.dep_counts(np.fromiter((k[0] for k in keys),
                                           dtype=np.int64, count=len(keys)))

    def probe_det_codes(self, dep, size: int,
                        out: np.ndarray | None = None) -> np.ndarray:
        self._bump("probe_det_codes")
        if out is None:
            return self._sizes - self._by_det[:, dep]
        np.subtract(self._sizes, self._by_det[:, dep], out=out)
        return out

    def probe_pair(self, key: tuple, dep) -> int:
        self._bump("probe_pair")
        det = key[0]
        return self._sizes.item(det) - self._by_det.item(det, dep)

    def add_pair(self, key: tuple, dep) -> int:
        det = key[0]
        size = self._sizes.item(det)
        count = self._by_det.item(det, dep)
        self._sizes[det] = size + 1
        self._by_det[det, dep] = count + 1
        self._n += 1
        return size - count

    def _add_row(self, row: dict) -> None:
        self.add_pair((row[self.determinant[0]],), row[self.dependent])

    def _remove_row(self, row: dict) -> None:
        det, dep = row[self.determinant[0]], row[self.dependent]
        self._sizes[det] -= 1
        self._by_det[det, dep] -= 1
        self._n -= 1

    def total(self) -> int:
        """Violating pairs: within-group pairs minus same-dependent ones."""
        sizes, table = self._sizes, self._table
        return int((sizes * (sizes - 1)).sum() // 2
                   - (table * (table - 1)).sum() // 2)

    def candidate_counts(self, target_values: dict | None,
                         context: dict) -> np.ndarray:
        self._bump("candidate_counts")
        det_attr, dep_attr = self.determinant[0], self.dependent
        tv = target_values or {}
        det = tv.get(det_attr, context.get(det_attr))
        dep = tv.get(dep_attr, context.get(dep_attr))
        counts = self._sizes[det] - self._by_det[det, dep]
        return np.atleast_1d(counts).astype(np.int64, copy=False)

    def dependents_of(self, key_row: dict) -> list:
        det = key_row[self.determinant[0]]
        return np.flatnonzero(self._by_det[det]).tolist()

    def matched_det_values(self, target: str, row: dict) -> list:
        return np.flatnonzero(
            self._by_det[:, row[self.dependent]]).tolist()


def build_fd_table_index(dc: DenialConstraint, code_sizes: dict,
                         target: str | None = None
                         ) -> ArrayFDViolationIndex | None:
    """An :class:`ArrayFDViolationIndex` for ``dc``, or None.

    ``code_sizes`` maps each categorical attribute to its code-domain
    size.  The FD qualifies when its determinant is one attribute and
    both it and the dependent have code domains whose product fits
    :data:`MAX_FD_TABLE_CELLS`.  The table is stored dependent-major
    when ``target`` (the attribute being drawn) is the determinant.
    """
    fd = dc.as_fd()
    if fd is None or len(fd[0]) != 1:
        return None
    det, dep = fd[0][0], fd[1]
    if det not in code_sizes or dep not in code_sizes:
        return None
    det_size, dep_size = code_sizes[det], code_sizes[dep]
    if det_size * dep_size > MAX_FD_TABLE_CELLS:
        return None
    return ArrayFDViolationIndex(dc, det_size, dep_size,
                                 dep_major=(target == det))


# ----------------------------------------------------------------------
# Conditional-order DCs
# ----------------------------------------------------------------------
#: Group size at which an order group builds its Fenwick tree (smaller
#: groups answer probes faster with the plain sort-and-search path).
_FENWICK_MIN_GROUP = 8
#: Cap on the per-group Fenwick table (cells), keeping memory bounded.
_MAX_FENWICK_CELLS = 1 << 16
#: Universes small enough that a dense count grid (O(1) update, pure
#: vectorized probes) beats BIT walks; larger ones use the Fenwick.
_DENSE_GRID_CELLS = 1 << 12
#: Values beyond this magnitude lose exactness as float64 ranks.
_FENWICK_MAX_ABS = float(2 ** 52)


class _Fenwick2D:
    """2D binary-indexed tree over compressed ``(rank_a, rank_b)`` grids.

    Point ranks are 1-based; :meth:`prefix` returns the number of
    indexed points with ``rank_a <= ra and rank_b <= rb`` in
    O(log ga * log gb).  The multi-candidate variants answer a whole
    candidate vector against one fixed partner rank with the inner BIT
    decomposition shared across candidates, so ``d`` probes cost
    O((ga + d) log gb) instead of ``d`` independent tree walks.
    """

    __slots__ = ("ga", "gb", "tree")

    def __init__(self, ga: int, gb: int):
        self.ga = ga
        self.gb = gb
        self.tree = np.zeros((ga + 1, gb + 1), dtype=np.int64)

    def update(self, ra: int, rb: int, delta: int) -> None:
        i = ra
        while i <= self.ga:
            row = self.tree[i]
            j = rb
            while j <= self.gb:
                row[j] += delta
                j += j & (-j)
            i += i & (-i)

    @staticmethod
    def _path(rank: int) -> list[int]:
        out = []
        while rank > 0:
            out.append(rank)
            rank -= rank & (-rank)
        return out

    def prefix(self, ra: int, rb: int) -> int:
        total = 0
        for i in self._path(ra):
            row = self.tree[i]
            for j in self._path(rb):
                total += row[j]
        return int(total)

    def _rank_scan(self, marginal: np.ndarray,
                   ranks: np.ndarray) -> np.ndarray:
        """Prefix sums of a 1D BIT marginal at each requested rank.

        For dense rank sets (the common probe shape: every candidate
        rank, or the whole universe) the full prefix vector is rebuilt
        with the ``prefix[r] = prefix[r - lowbit(r)] + marginal[r]``
        recurrence — one tiny O(size) loop — and indexed; sparse rank
        sets walk their BIT paths vectorized instead.
        """
        size = marginal.shape[0] - 1
        if size <= 512 or ranks.shape[0] * 8 >= size:
            m = marginal.tolist()
            prefix = [0] * (size + 1)
            for r in range(1, size + 1):
                prefix[r] = prefix[r - (r & -r)] + m[r]
            return np.asarray(prefix, dtype=np.int64)[ranks]
        ans = np.zeros(ranks.shape[0], dtype=np.int64)
        rank = ranks.astype(np.int64, copy=True)
        while True:
            live = np.flatnonzero(rank)
            if live.size == 0:
                return ans
            ans[live] += marginal[rank[live]]
            rank[live] -= rank[live] & (-rank[live])

    def prefix_a_many(self, ras: np.ndarray, rb: int) -> np.ndarray:
        """``prefix(ra, rb)`` for a vector of a-ranks, fixed ``rb``."""
        cols = self._path(rb)
        if not cols:
            return np.zeros(ras.shape[0], dtype=np.int64)
        return self._rank_scan(self.tree[:, cols].sum(axis=1), ras)

    def prefix_b_many(self, ra: int, rbs: np.ndarray) -> np.ndarray:
        """``prefix(ra, rb)`` for a vector of b-ranks, fixed ``ra``."""
        rows = self._path(ra)
        if not rows:
            return np.zeros(rbs.shape[0], dtype=np.int64)
        return self._rank_scan(self.tree[rows, :].sum(axis=0), rbs)


class _DenseGrid:
    """Dense (rank_a, rank_b) count grid — the small-universe sibling of
    :class:`_Fenwick2D`.

    For tiny compressed universes (quantized snap grids are typically
    16-32 values a side) a dense int matrix answers the same dominance
    queries with a couple of fused-slice sums and O(1) point updates,
    with far smaller constants than BIT path walks.  The update/query
    API mirrors :class:`_Fenwick2D` (1-based point ranks) so
    :class:`OrderViolationIndex` treats the two interchangeably.
    """

    __slots__ = ("ga", "gb", "grid")

    def __init__(self, ga: int, gb: int):
        self.ga = ga
        self.gb = gb
        self.grid = np.zeros((ga, gb), dtype=np.int64)

    def update(self, ra: int, rb: int, delta: int) -> None:
        self.grid[ra - 1, rb - 1] += delta

    def prefix(self, ra: int, rb: int) -> int:
        return int(self.grid[:ra, :rb].sum())

    def prefix_a_many(self, ras: np.ndarray, rb: int) -> np.ndarray:
        per_a = self.grid[:, :rb].sum(axis=1)
        cum = np.zeros(self.ga + 1, dtype=np.int64)
        np.cumsum(per_a, out=cum[1:])
        return cum[ras]

    def prefix_b_many(self, ra: int, rbs: np.ndarray) -> np.ndarray:
        per_b = self.grid[:ra, :].sum(axis=0)
        cum = np.zeros(self.gb + 1, dtype=np.int64)
        np.cumsum(per_b, out=cum[1:])
        return cum[rbs]


class _OrderGroup:
    """The (A, B) points of one equality group.

    Backed by capacity-doubling numpy buffers so that appends are O(1)
    amortised and :meth:`arrays` is a zero-copy view — an eq-less order
    DC has a single group covering the whole prefix, and rebuilding its
    arrays per probe would be quadratic.

    When the owning index was given value universes
    (:meth:`OrderViolationIndex.provide_universe`), a group that grows
    past ``_FENWICK_MIN_GROUP`` additionally maintains a
    :class:`_Fenwick2D` over the compressed (A, B) ranks, turning each
    probe from an O(group log group) sort into O(log group) tree walks.
    A value outside the universe permanently reverts the group to the
    scan path (``off_universe``) — counts stay exact either way.
    """

    __slots__ = ("_a", "_b", "_n", "fen", "off_universe")

    def __init__(self):
        self._a = None
        self._b = None
        self._n = 0
        self.fen = None
        self.off_universe = False

    def arrays(self):
        if self._a is None:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty
        return self._a[:self._n], self._b[:self._n]

    @staticmethod
    def _grow(buf: np.ndarray) -> np.ndarray:
        out = np.empty(2 * buf.shape[0], dtype=buf.dtype)
        out[:buf.shape[0]] = buf
        return out

    def add(self, a, b) -> None:
        if self._a is None:
            dtype_a = np.int64 if isinstance(a, (int, np.integer)) \
                else np.float64
            dtype_b = np.int64 if isinstance(b, (int, np.integer)) \
                else np.float64
            self._a = np.empty(8, dtype=dtype_a)
            self._b = np.empty(8, dtype=dtype_b)
        elif self._n == self._a.shape[0]:
            self._a = self._grow(self._a)
            self._b = self._grow(self._b)
        self._a[self._n] = a
        self._b[self._n] = b
        self._n += 1

    def remove(self, a, b) -> None:
        # Multiset removal: drop one occurrence (swap-with-last + pop).
        a_arr, b_arr = self.arrays()
        hits = np.flatnonzero((a_arr == a) & (b_arr == b))
        if hits.size == 0:
            raise KeyError((a, b))
        p = int(hits[-1])
        last = self._n - 1
        self._a[p] = self._a[last]
        self._b[p] = self._b[last]
        self._n = last

    def __len__(self) -> int:
        return self._n


class OrderViolationIndex(ViolationIndex):
    """Sorted-structure index for ``not(E= and A> and B<)`` DCs.

    A pair violates iff the equality attributes agree and (A, B) are
    strictly discordant.  Per equality group the index stores the
    (A, B) points; a probe for candidates of one order attribute with
    the partner fixed splits the group into partner-below / partner-
    above halves, sorts the target values of each half once, and
    answers every candidate with two binary searches.
    """

    supports_candidates = True
    supports_removal = True

    def __init__(self, dc: DenialConstraint):
        super().__init__(dc)
        shape = dc.as_conditional_order()
        if shape is None:
            raise ValueError(f"DC {dc.name} is not conditional-order-shaped")
        self.eq_attrs, self.greater_attr, self.less_attr = shape
        self._uni_a: np.ndarray | None = None
        self._uni_b: np.ndarray | None = None
        self.reset()

    def reset(self) -> None:
        self._groups: dict[tuple, _OrderGroup] = {}
        self._total = 0
        self._n = 0

    def provide_universe(self, greater_values, less_values) -> bool:
        """Enable Fenwick-backed groups over compressed value grids.

        ``greater_values`` / ``less_values`` enumerate the values the
        two order attributes can take (e.g. the sampler's snap grids or
        a categorical code range).  When both universes are small enough
        (``_MAX_FENWICK_CELLS``) and exactly representable as float64
        ranks, groups past ``_FENWICK_MIN_GROUP`` points switch their
        probes from the O(group log group) sort path to O(log group)
        BIT walks.  Values outside the universe only revert the
        affected group to the scan path — counts stay bit-identical in
        every configuration.  Returns whether the universes were
        accepted.
        """
        if greater_values is None or less_values is None:
            return False
        uni_a = np.unique(np.asarray(greater_values, dtype=np.float64))
        uni_b = np.unique(np.asarray(less_values, dtype=np.float64))
        if uni_a.size == 0 or uni_b.size == 0:
            return False
        if (uni_a.size + 1) * (uni_b.size + 1) > _MAX_FENWICK_CELLS:
            return False
        if (np.abs(uni_a) > _FENWICK_MAX_ABS).any() \
                or (np.abs(uni_b) > _FENWICK_MAX_ABS).any():
            return False
        self._uni_a, self._uni_b = uni_a, uni_b
        for group in self._groups.values():
            self._build_fenwick(group)
        return True

    def _key(self, row: dict) -> tuple:
        return tuple(_item(row[a]) for a in self.eq_attrs)

    # -- Fenwick bookkeeping -------------------------------------------
    def _rank_of(self, uni: np.ndarray, value) -> int | None:
        """1-based universe rank of ``value``, or None if absent."""
        pos = int(np.searchsorted(uni, value, side="left"))
        if pos < uni.size and uni[pos] == value:
            return pos + 1
        return None

    def _build_fenwick(self, group: _OrderGroup) -> None:
        if (self._uni_a is None or group.off_universe
                or len(group) < _FENWICK_MIN_GROUP):
            return
        cls = (_DenseGrid
               if self._uni_a.size * self._uni_b.size <= _DENSE_GRID_CELLS
               else _Fenwick2D)
        fen = cls(self._uni_a.size, self._uni_b.size)
        a_arr, b_arr = group.arrays()
        for a, b in zip(a_arr.tolist(), b_arr.tolist()):
            ra = self._rank_of(self._uni_a, a)
            rb = self._rank_of(self._uni_b, b)
            if ra is None or rb is None:
                group.off_universe = True
                group.fen = None
                return
            fen.update(ra, rb, 1)
        group.fen = fen

    def _fenwick_update(self, group: _OrderGroup, a, b, delta: int) -> None:
        if self._uni_a is None or group.off_universe:
            return
        if group.fen is None:
            if delta > 0:
                self._build_fenwick(group)
            return
        ra = self._rank_of(self._uni_a, a)
        rb = self._rank_of(self._uni_b, b)
        if ra is None or rb is None:
            # Off-universe point: the tree can no longer answer probes
            # for this group; fall back to the scan path permanently.
            group.off_universe = True
            group.fen = None
            return
        group.fen.update(ra, rb, delta)

    def _discordant(self, group: _OrderGroup, a, b) -> int:
        """Strictly discordant pairs between (a, b) and the group."""
        fen = group.fen
        if fen is not None:
            uni_a, uni_b = self._uni_a, self._uni_b
            ra_lt = int(np.searchsorted(uni_a, a, side="left"))
            ra_le = int(np.searchsorted(uni_a, a, side="right"))
            rb_lt = int(np.searchsorted(uni_b, b, side="left"))
            rb_le = int(np.searchsorted(uni_b, b, side="right"))
            if isinstance(fen, _DenseGrid):
                m = fen.grid
                return int(m[:ra_lt, rb_le:].sum()
                           + m[ra_le:, :rb_lt].sum())
            lo = fen.prefix(ra_lt, fen.gb) - fen.prefix(ra_lt, rb_le)
            hi = fen.prefix(fen.ga, rb_lt) - fen.prefix(ra_le, rb_lt)
            return lo + hi
        a_arr, b_arr = group.arrays()
        lo = int(np.count_nonzero((a_arr < a) & (b_arr > b)))
        hi = int(np.count_nonzero((a_arr > a) & (b_arr < b)))
        return lo + hi

    def append_from(self, cols: dict, i: int) -> None:
        self._add_row({a: cols[a][i] for a in self.dc.attributes})

    def remove_from(self, cols: dict, i: int) -> None:
        self._remove_row({a: cols[a][i] for a in self.dc.attributes})

    def _add_row(self, row: dict) -> None:
        key = self._key(row)
        group = self._groups.get(key)
        if group is None:
            group = _OrderGroup()
            self._groups[key] = group
        a = _item(row[self.greater_attr])
        b = _item(row[self.less_attr])
        self._total += self._discordant(group, a, b)
        group.add(a, b)
        self._fenwick_update(group, a, b, 1)
        self._n += 1

    def _remove_row(self, row: dict) -> None:
        key = self._key(row)
        group = self._groups[key]
        a = _item(row[self.greater_attr])
        b = _item(row[self.less_attr])
        group.remove(a, b)
        self._fenwick_update(group, a, b, -1)
        self._total -= self._discordant(group, a, b)
        if not len(group):
            del self._groups[key]
        self._n -= 1

    def total(self) -> int:
        return self._total

    def __len__(self) -> int:
        return self._n

    def candidate_counts(self, target_values: dict | None,
                         context: dict) -> np.ndarray | None:
        self._bump("candidate_counts")
        if target_values:
            if any(a in target_values for a in self.eq_attrs):
                return None  # group varies per candidate: fall back
            in_targets = [a for a in (self.greater_attr, self.less_attr)
                          if a in target_values]
            if len(in_targets) != 1:
                return None  # both order attrs vary: fall back
            target = in_targets[0]
            cands = target_values[target]
            d = cands.shape[0]
        else:
            target = self.greater_attr
            cands = np.asarray([context[self.greater_attr]])
            d = 1

        row = {a: context[a] for a in self.eq_attrs}
        group = self._groups.get(self._key(row))
        if group is None:
            return np.zeros(d, dtype=np.int64)
        if group.fen is not None:
            partner = context[self.less_attr if target == self.greater_attr
                              else self.greater_attr]
            return self._fenwick_counts(group.fen, target, cands, partner)
        a_arr, b_arr = group.arrays()

        if target == self.greater_attr:
            partner = context[self.less_attr]
            # p violates with candidate a_c iff
            # (a_p < a_c and b_p > partner) or (a_p > a_c and b_p < partner)
            below_t = np.sort(a_arr[b_arr > partner])
            above_t = np.sort(a_arr[b_arr < partner])
        else:
            partner = context[self.greater_attr]
            # p violates with candidate b_c iff
            # (b_p > b_c and a_p < partner) or (b_p < b_c and a_p > partner)
            below_t = np.sort(b_arr[a_arr > partner])
            above_t = np.sort(b_arr[a_arr < partner])
        counts = np.searchsorted(below_t, cands, side="left")
        counts = counts + (above_t.size
                           - np.searchsorted(above_t, cands, side="right"))
        return counts.astype(np.int64)

    def _fenwick_counts(self, fen: _Fenwick2D, target: str,
                        cands: np.ndarray, partner) -> np.ndarray:
        """O(log group) per-candidate discordance via the group's BIT.

        Mirrors the sort-based probe exactly: candidates and the partner
        value are located in the universes with binary search (arbitrary
        probe values are fine — only *indexed* points must lie on the
        universe), and the four strict dominance counts combine into the
        discordant-pair totals.
        """
        uni_a, uni_b = self._uni_a, self._uni_b
        c = np.asarray(cands, dtype=np.float64)
        dense = fen.grid if isinstance(fen, _DenseGrid) else None
        if target == self.greater_attr:
            ra_lt = np.searchsorted(uni_a, c, side="left")
            ra_le = np.searchsorted(uni_a, c, side="right")
            rb_lt = int(np.searchsorted(uni_b, partner, side="left"))
            rb_le = int(np.searchsorted(uni_b, partner, side="right"))
            if dense is not None:
                # #(a<c & b>p) via a cumsum over "b above" per a-rank,
                # #(a>c & b<p) via the suffix of "b below" per a-rank.
                hi_per_a = dense[:, rb_le:].sum(axis=1)
                lo_per_a = dense[:, :rb_lt].sum(axis=1)
                cum_hi = np.zeros(fen.ga + 1, dtype=np.int64)
                np.cumsum(hi_per_a, out=cum_hi[1:])
                cum_lo = np.zeros(fen.ga + 1, dtype=np.int64)
                np.cumsum(lo_per_a, out=cum_lo[1:])
                return cum_hi[ra_lt] + (cum_lo[fen.ga] - cum_lo[ra_le])
            below = (fen.prefix_a_many(ra_lt, fen.gb)
                     - fen.prefix_a_many(ra_lt, rb_le))
            above = (fen.prefix(fen.ga, rb_lt)
                     - fen.prefix_a_many(ra_le, rb_lt))
        else:
            rb_lt = np.searchsorted(uni_b, c, side="left")
            rb_le = np.searchsorted(uni_b, c, side="right")
            ra_lt = int(np.searchsorted(uni_a, partner, side="left"))
            ra_le = int(np.searchsorted(uni_a, partner, side="right"))
            if dense is not None:
                hi_per_b = dense[ra_le:, :].sum(axis=0)
                lo_per_b = dense[:ra_lt, :].sum(axis=0)
                cum_hi = np.zeros(fen.gb + 1, dtype=np.int64)
                np.cumsum(hi_per_b, out=cum_hi[1:])
                cum_lo = np.zeros(fen.gb + 1, dtype=np.int64)
                np.cumsum(lo_per_b, out=cum_lo[1:])
                return cum_hi[rb_lt] + (cum_lo[fen.gb] - cum_lo[rb_le])
            below = (fen.prefix_b_many(fen.ga, rb_lt)
                     - fen.prefix_b_many(ra_le, rb_lt))
            above = (fen.prefix(ra_lt, fen.gb)
                     - fen.prefix_b_many(ra_lt, rb_le))
        return (below + above).astype(np.int64)

    def group_points(self, key_row: dict):
        """The indexed (A, B) point arrays of ``key_row``'s equality
        group, or None if the group is empty (views — do not mutate)."""
        group = self._groups.get(self._key(key_row))
        if group is None:
            return None
        return group.arrays()

    def group_profile(self, key_row: dict, target: str, partner_value,
                      limit: int):
        """Hard-DC candidate hints for ``target`` given a fixed partner.

        Returns ``(matching, below_max, above_min)`` where ``matching``
        is the first ``limit`` sorted distinct target values of group
        rows whose partner equals ``partner_value`` (always violation-
        free against those rows), and ``below_max`` / ``above_min`` are
        the feasible-interval endpoints over rows with partner strictly
        below / above (None when the half is empty).  Exact mirror of
        the prefix scans in the sampler's ``_consistent_values`` /
        ``_order_interval``; returns None when the group has no Fenwick
        (the caller scans the group arrays instead).
        """
        group = self._groups.get(self._key(key_row))
        if group is None:
            return [], None, None
        fen = group.fen
        if fen is None:
            return None
        if isinstance(fen, _DenseGrid):
            if target == self.greater_attr:
                uni = self._uni_a
                rb_lt = int(np.searchsorted(self._uni_b, partner_value,
                                            "left"))
                rb_le = int(np.searchsorted(self._uni_b, partner_value,
                                            "right"))
                eq_counts = fen.grid[:, rb_lt:rb_le].sum(axis=1)
                below_counts = fen.grid[:, :rb_lt].sum(axis=1)
                above_counts = fen.grid[:, rb_le:].sum(axis=1)
            else:
                uni = self._uni_b
                ra_lt = int(np.searchsorted(self._uni_a, partner_value,
                                            "left"))
                ra_le = int(np.searchsorted(self._uni_a, partner_value,
                                            "right"))
                eq_counts = fen.grid[ra_lt:ra_le, :].sum(axis=0)
                below_counts = fen.grid[:ra_lt, :].sum(axis=0)
                above_counts = fen.grid[ra_le:, :].sum(axis=0)
            matching = uni[np.flatnonzero(eq_counts)[:limit]].tolist()
            below = np.flatnonzero(below_counts)
            above = np.flatnonzero(above_counts)
            below_max = float(uni[below[-1]]) if below.size else None
            above_min = float(uni[above[0]]) if above.size else None
            return matching, below_max, above_min
        if target == self.greater_attr:
            uni, size = self._uni_a, fen.ga
            rb_lt = int(np.searchsorted(self._uni_b, partner_value, "left"))
            rb_le = int(np.searchsorted(self._uni_b, partner_value, "right"))
            ranks = np.arange(1, size + 1)
            le = fen.prefix_a_many(ranks, rb_le)
            lt = fen.prefix_a_many(ranks, rb_lt)
            full = fen.prefix_a_many(ranks, fen.gb)
        else:
            uni, size = self._uni_b, fen.gb
            ra_lt = int(np.searchsorted(self._uni_a, partner_value, "left"))
            ra_le = int(np.searchsorted(self._uni_a, partner_value, "right"))
            ranks = np.arange(1, size + 1)
            le = fen.prefix_b_many(ra_le, ranks)
            lt = fen.prefix_b_many(ra_lt, ranks)
            full = fen.prefix_b_many(fen.ga, ranks)
        zero = np.zeros(1, dtype=np.int64)
        eq_counts = np.diff(np.concatenate([zero, le - lt]))
        below_counts = np.diff(np.concatenate([zero, lt]))
        above_counts = np.diff(np.concatenate([zero, full - le]))
        matching = uni[np.flatnonzero(eq_counts > 0)[:limit]].tolist()
        below = np.flatnonzero(below_counts > 0)
        above = np.flatnonzero(above_counts > 0)
        below_max = float(uni[below[-1]]) if below.size else None
        above_min = float(uni[above[0]]) if above.size else None
        return matching, below_max, above_min


# ----------------------------------------------------------------------
# Unary DCs
# ----------------------------------------------------------------------
class UnaryViolationIndex(ViolationIndex):
    """Running total for a unary DC (violations are per-tuple)."""

    supports_candidates = True
    supports_removal = True

    def __init__(self, dc: DenialConstraint):
        super().__init__(dc)
        if not dc.is_unary:
            raise ValueError(f"DC {dc.name} is not unary")
        self.reset()

    def reset(self) -> None:
        self._total = 0
        self._n = 0

    def _violates(self, row: dict) -> bool:
        for pred in self.dc.predicates:
            if not bool(pred.evaluate(lambda var, attr: row[attr])):
                return False
        return True

    def append_from(self, cols: dict, i: int) -> None:
        self._add_row({a: cols[a][i] for a in self.dc.attributes})

    def remove_from(self, cols: dict, i: int) -> None:
        self._remove_row({a: cols[a][i] for a in self.dc.attributes})

    def _add_row(self, row: dict) -> None:
        self._total += int(self._violates(row))
        self._n += 1

    def _remove_row(self, row: dict) -> None:
        self._total -= int(self._violates(row))
        self._n -= 1

    def total(self) -> int:
        return self._total

    def __len__(self) -> int:
        return self._n

    def candidate_counts(self, target_values: dict | None,
                         context: dict) -> np.ndarray | None:
        from repro.constraints.violations import (
            multi_candidate_violation_counts,
        )
        # Unary violations ignore the indexed rows entirely; delegate to
        # the (cheap, O(d)) scan evaluation for exact agreement.
        return multi_candidate_violation_counts(self.dc, target_values,
                                                context, {})


# ----------------------------------------------------------------------
# Generic binary DCs
# ----------------------------------------------------------------------
class GenericViolationIndex(ViolationIndex):
    """Cached blocked-numpy fallback for arbitrary binary DCs.

    Holds references to the live column arrays plus a row count; the
    full blocked O(n^2) total is computed lazily and cached until the
    instance changes.  Candidate probes delegate to the scan engine over
    the referenced prefix (there is no exploitable group structure), so
    results match the scan path exactly.
    """

    def __init__(self, dc: DenialConstraint):
        super().__init__(dc)
        self._cols: dict | None = None
        self.reset()

    def reset(self) -> None:
        self._n = 0
        self._cached_total: int | None = None

    def build(self, cols: dict, n: int) -> None:
        self.reset()
        self._cols = cols
        self._n = n

    def append_from(self, cols: dict, i: int) -> None:
        if self._cols is None:
            self._cols = cols
        self._n = max(self._n, i + 1)
        self._cached_total = None

    def rewrite_cell(self, cols: dict, i: int, attr: str, old_value) -> None:
        self._cached_total = None

    def total(self) -> int:
        if self._n == 0 or self._cols is None:
            return 0
        if self._cached_total is None:
            cols = {a: self._cols[a][:self._n] for a in self.dc.attributes}
            self._cached_total = _blocked_pair_count(self.dc, cols)
        return self._cached_total

    def __len__(self) -> int:
        return self._n


def _blocked_pair_count(dc: DenialConstraint, cols: dict) -> int:
    """Blocked O(n^2) unordered-pair count over a column dict.

    The single generic pair-counting kernel: ``count_violations``
    delegates its non-FD binary branch here, so index totals and scan
    totals share one implementation by construction.
    """
    from repro.constraints.violations import _BLOCK, _pair_mask
    n = next(iter(cols.values())).shape[0]
    total = 0
    for a0 in range(0, n, _BLOCK):
        a1 = min(a0 + _BLOCK, n)
        block_a = {k: v[a0:a1] for k, v in cols.items()}
        for b0 in range(a0, n, _BLOCK):
            b1 = min(b0 + _BLOCK, n)
            block_b = {k: v[b0:b1] for k, v in cols.items()}
            either = (_pair_mask(dc, block_a, block_b)
                      | _pair_mask(dc, block_b, block_a).T)
            if a0 == b0:
                # Same diagonal block: count strictly-upper pairs only.
                either = np.triu(either, k=1)
            total += int(either.sum())
    return total


def _blocked_row_counts(dc: DenialConstraint, cols: dict) -> np.ndarray:
    """Per-row participation counts via blocked pairwise evaluation."""
    from repro.constraints.violations import _BLOCK, _pair_mask
    n = next(iter(cols.values())).shape[0]
    out = np.zeros(n, dtype=np.int64)
    for a0 in range(0, n, _BLOCK):
        a1 = min(a0 + _BLOCK, n)
        block_a = {k: v[a0:a1] for k, v in cols.items()}
        row_counts = np.zeros(a1 - a0, dtype=np.int64)
        for b0 in range(0, n, _BLOCK):
            b1 = min(b0 + _BLOCK, n)
            block_b = {k: v[b0:b1] for k, v in cols.items()}
            either = (_pair_mask(dc, block_a, block_b)
                      | _pair_mask(dc, block_b, block_a).T)
            if a0 == b0:
                np.fill_diagonal(either, False)
            row_counts += either.sum(axis=1)
        out[a0:a1] = row_counts
    return out


# ----------------------------------------------------------------------
# Factory + per-row counting (Algorithm 5)
# ----------------------------------------------------------------------
def build_index(dc: DenialConstraint) -> ViolationIndex:
    """The most specific index for a DC's structural shape."""
    if dc.is_unary:
        return UnaryViolationIndex(dc)
    if dc.as_fd() is not None:
        return FDViolationIndex(dc)
    if dc.as_conditional_order() is not None:
        return OrderViolationIndex(dc)
    return GenericViolationIndex(dc)


def per_row_violation_counts(dc: DenialConstraint, table) -> np.ndarray:
    """``V[i] = |V(phi, t_i | D - {t_i})|`` for every tuple (one column
    of Algorithm 5's violation matrix), using the shape-specific fast
    path: group arithmetic for FDs, group-restricted blocked evaluation
    for conditional-order DCs, full blocked evaluation otherwise.
    """
    from repro.constraints.violations import _unary_mask, group_inverse
    cols = {a: table.column(a) for a in dc.attributes}
    n = table.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if dc.is_unary:
        return _unary_mask(dc, cols).astype(np.int64)
    fd = dc.as_fd()
    if fd is not None:
        lhs, rhs = fd
        key_cols = [table.column(a) for a in lhs]
        lhs_inv, lhs_counts = group_inverse(key_cols)
        full_inv, full_counts = group_inverse(key_cols + [table.column(rhs)])
        return (lhs_counts[lhs_inv] - full_counts[full_inv]).astype(np.int64)
    shape = dc.as_conditional_order()
    if shape is not None and shape[0]:
        eq_attrs = shape[0]
        inverse, _ = group_inverse([table.column(a) for a in eq_attrs])
        out = np.zeros(n, dtype=np.int64)
        order = np.argsort(inverse, kind="stable")
        bounds = np.flatnonzero(np.diff(inverse[order])) + 1
        for rows in np.split(order, bounds):
            sub = {a: c[rows] for a, c in cols.items()}
            out[rows] = _blocked_row_counts(dc, sub)
        return out
    return _blocked_row_counts(dc, cols)
