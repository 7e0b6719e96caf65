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
  At the hard weight the group's dependent is the one zero-count
  candidate, so these counts also keep a hard FD the way Experiment
  10's forced-value lookup (§7.3.6) did.
* :class:`ArrayFDViolationIndex` — the same FD counts over known value
  domains as one dense table (composite determinants by a mixed-radix
  code, numerical dependents by rank on their value grid), so block
  probes and folds are array operations (the sampler's FDs over
  categorical determinants).
* :class:`GridViolationIndex` — every other binary DC, per equality
  group.  Where the DC's predicates each read one attribute and the
  attributes take known values (the sampler's code ranges and snap
  grids), a group counts in tables over that value grid: a probe is one
  gather, a fold a few slice adds.  Other groups count from their
  point arrays: the conditional-order shape (``not(E= and A> and B<)``)
  splits the group on the fixed partner value and binary-searches the
  sorted target values, so ``d`` candidates cost O(g log g + d log g);
  any other DC runs the scan engine over the group.
* :class:`UnaryViolationIndex` — violations depend only on the tuple
  itself; the index just maintains the running total.

All indexes produce counts **bit-identical** to the scan-based
functions (``count_violations``, ``multi_candidate_violation_counts``,
``violation_matrix``); ``tests/test_violation_index.py`` asserts this on
randomized tables.  Consumers: :mod:`repro.core.sampling` (Algorithm 3
and the MCMC refinement), :mod:`repro.core.engine` (the block lanes),
:mod:`repro.baselines.cleaning` (repair passes), and
:func:`repro.constraints.violations.violation_matrix` (Algorithm 5).

**The lane protocol.**  The engine's block lanes draw a column a block
of ``B`` rows at a time and ask every index the same few things, never
its class (:class:`ViolationIndex` documents each call):

* ``lane_keys`` — what the other calls read of the block's rows,
  computed once per block;
* ``block_counts`` — the ``(B, V)`` new-violation counts of the
  candidates against the indexed rows (or of one row's, to re-score it);
* ``count_at`` — the live count of one row at its picked candidate, to
  validate a block-start pick;
* ``fold`` — append rows at their picks;
* ``kept_prefix`` — how many leading rows keep their block-start picks
  (the rows before the block's first in-block conflict), or 0 where the
  index cannot say (``keeps_prefixes`` is False);
* ``hint_values`` — the zero-violation values of a hard DC's target
  given a row, for the sampler's candidate augmentation.

The base class answers from ``probe_many``, ``candidate_counts`` and
``append_from``; the dict FD index probes a block drawing its dependent
in one ``probe_block_codes``; the FD count tables answer everything from
the table, kept prefixes included.

Group keys are built from the *original* stored scalars (int codes stay
ints), never cast through float64 — so int64 keys above 2**53 cannot
collide.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.constraints.predicate import TUPLE_I, TUPLE_J, Operator
from repro.constraints.violations import multi_candidate_violation_counts


def _item(value):
    """Convert a numpy scalar to a hashable python scalar."""
    return value.item() if hasattr(value, "item") else value


def _is_codes(values: np.ndarray, size: int) -> bool:
    """Whether ``values`` is one row of the codes ``0..size-1`` in
    order, shaped ``(size,)`` or ``(1, size)``."""
    return (values.shape[-1] == values.size == size
            and values.dtype.kind in "iu"
            and bool((values.reshape(-1) == np.arange(size)).all()))


def _first_conflict(group: np.ndarray, dep: np.ndarray,
                    fresh: np.ndarray | None = None) -> int:
    """First row with an earlier row of the same group holding another
    dependent, or ``len(group)`` when there is none.

    Within a group (rows in order), the first such row is the first
    whose dependent differs from the group's first row's.  ``fresh``
    (optional) marks rows whose dependent is new to their group; a row
    after such a row of its group conflicts too.
    """
    n = group.shape[0]
    order = np.argsort(group, kind="stable")
    g, d = group[order], dep[order]
    starts = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
    lengths = np.diff(np.append(starts, n))
    bad = d != np.repeat(d[starts], lengths)
    if fresh is not None:
        f = fresh[order].astype(np.int64)
        before = np.cumsum(f) - f
        bad |= before > np.repeat(before[starts], lengths)
    bad = order[bad]
    return int(bad.min()) if bad.size else n


class ViolationIndex:
    """Base class: incremental violation state for one DC.

    The indexed instance is a multiset of tuples fed in via
    :meth:`append_from` / :meth:`remove_from` (rows of a shared column
    dict) and edited via :meth:`rewrite_cell`.  ``total()`` is the
    current ``|V(phi, D)|`` under the paper's counting conventions
    (tuples for unary DCs, unordered pairs for binary DCs).
    """

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
        self._add_row({a: cols[a][i] for a in self.dc.attributes})

    def remove_from(self, cols: dict, i: int) -> None:
        """Remove row ``i`` (its *current* values) from the instance."""
        self._remove_row({a: cols[a][i] for a in self.dc.attributes})

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
        return self._total

    def __len__(self) -> int:
        """Indexed tuples."""
        return self._n

    def candidate_counts(self, target_values: dict | None,
                         context: dict) -> np.ndarray:
        """New-violation counts per candidate against the indexed rows.

        Same contract as
        :func:`~repro.constraints.violations.multi_candidate_violation_counts`
        (the indexed rows play the role of ``prefix_cols``).
        """
        raise NotImplementedError

    def probe_many(self, target_values: dict, contexts) -> np.ndarray:
        """Batched :meth:`candidate_counts` over a block of rows.

        ``target_values`` holds the ``d`` candidates every row shares
        (the categorical full-domain case); ``contexts`` is a sequence
        of per-row context dicts.  Returns a ``(len(contexts), d)``
        count matrix.

        The base implementation loops; :class:`GridViolationIndex`
        looks the candidates up once.
        """
        self._bump("probe_many")
        if not contexts:
            return np.zeros((0, 0), dtype=np.int64)
        return np.vstack([self.candidate_counts(target_values, context)
                          for context in contexts])

    # -- the lane protocol ---------------------------------------------
    #: Whether :meth:`kept_prefix` names a block's kept prefix (else it
    #: answers 0 and the lane validates every row).
    keeps_prefixes = False

    def lane_keys(self, target: dict, cols: dict, lo: int, hi: int):
        """What the calls below read of rows ``lo..hi`` of ``cols``,
        computed once per block.

        ``target`` maps each of the DC's attributes the lane draws to its
        ``(V,)`` candidates, shared by every row (the FD count tables
        also take ``(B, W)`` per-row candidates).  Here: the candidates
        and each row's context (its values of the DC's other
        attributes).
        """
        ctx = [a for a in self.dc.attributes if a not in target]
        return target, [{a: cols[a][i] for a in ctx} for i in range(lo, hi)]

    def block_counts(self, keys, rows: slice = slice(None)) -> np.ndarray:
        """``(B, V)`` new-violation counts of every candidate of the
        block rows ``rows`` (default: all) against the indexed rows."""
        target, contexts = keys
        return self.probe_many(target, contexts[rows])

    def count_at(self, keys, r: int, pick: int) -> int:
        """The live new-violation count of block row ``r`` at candidate
        ``pick``."""
        return int(self.candidate_counts(None, self._lane_row(keys, r,
                                                              pick))[0])

    def fold(self, keys, picks, start: int = 0) -> None:
        """Append block rows ``start, start + 1, ...`` at their picked
        candidates ``picks``."""
        for r, pick in enumerate(picks, start):
            self._add_row(self._lane_row(keys, r, pick))

    def kept_prefix(self, keys, picks: np.ndarray,
                    held_only: bool = False) -> int:
        """How many leading rows of a block keep their block-start
        ``picks``: the rows before the first whose count at its pick an
        earlier row of the block moves, or 0 where the index cannot say.

        With ``held_only``, a row after an earlier row of its group that
        picked a value the group did not hold at the block start ends
        the prefix too (a lane whose candidates include those values).
        """
        return 0

    def dependent_grid(self, attr: str) -> np.ndarray | None:
        """The sorted values on which the index counts ``attr`` as an
        FD's dependent, by rank; None when it does not."""
        return None

    def hint_values(self, target: str, row: dict, limit: int) -> list:
        """Zero-violation candidate values for ``target`` given ``row``,
        from the indexed rows (see the subclasses)."""
        raise NotImplementedError

    def _lane_row(self, keys, r: int, pick: int) -> dict:
        target, contexts = keys
        context = contexts[r]
        return {a: target[a][pick] if a in target else context[a]
                for a in self.dc.attributes}

    # -- internals -----------------------------------------------------
    def _add_row(self, row: dict) -> None:
        raise NotImplementedError

    def _remove_row(self, row: dict) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# FD-shaped DCs
# ----------------------------------------------------------------------
class _FDIndex(ViolationIndex):
    """An FD-shaped DC ``X -> y``: a group of tuples per determinant
    key, and a pair violates iff its determinants agree and its
    dependents differ (both orientations coincide).  A tuple joining
    group ``k`` with dependent ``v`` creates ``size(k) - count(k, v)``
    violating pairs — exactly what the scan engine counts."""

    def __init__(self, dc: DenialConstraint):
        super().__init__(dc)
        fd = dc.as_fd()
        if fd is None:
            raise ValueError(f"DC {dc.name} is not FD-shaped")
        self.determinant, self.dependent = fd
        self.reset()

    def hint_values(self, target: str, row: dict, limit: int) -> list:
        """The first ``limit`` sorted distinct values of ``target`` among
        the indexed rows that match ``row`` on the FD's other
        attributes: the dependents of ``row``'s determinant group
        (:meth:`dependents_of`), or, for a determinant attribute, the
        values bound to ``row``'s dependent (:meth:`matched_det_values`).
        """
        if target == self.dependent:
            return self.dependents_of(row)[:limit]
        return self.matched_det_values(target, row)[:limit]


class FDViolationIndex(_FDIndex):
    """Hash-bucket group index for an FD-shaped DC: per determinant key,
    the group size and a histogram of dependent values, so a probe is
    an O(1) dict lookup."""

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
    def _add_row(self, row: dict) -> None:
        self._add_pair(self._key(row), _item(row[self.dependent]))

    def _add_pair(self, key: tuple, dep) -> None:
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = [0, {}]
        size, counts = group
        self._total += size - counts.get(dep, 0)
        group[0] = size + 1
        counts[dep] = counts.get(dep, 0) + 1
        self._det_cache_update(key, dep, 1)
        self._n += 1

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

    def candidate_counts(self, target_values: dict | None,
                         context: dict) -> np.ndarray:
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

    def lane_keys(self, target: dict, cols: dict, lo: int, hi: int):
        """``(target, values, B)``: the candidates and the block rows'
        other values, as python scalars per attribute, so that per-row
        calls are dict lookups."""
        values = {a: cols[a][lo:hi].tolist() for a in self.dc.attributes
                  if a not in target}
        values.update((a, c.tolist()) for a, c in target.items())
        return target, values, hi - lo

    def block_counts(self, keys, rows: slice = slice(None)) -> np.ndarray:
        """Drawing the dependent or the (single) determinant over its
        code domain, :meth:`probe_block_codes` or one
        :meth:`probe_det_codes` per row; any other layout probes each
        row generically."""
        target, values, B = keys
        attr = next(iter(target))
        cands = target[attr]
        if len(target) == 1 and _is_codes(cands, cands.shape[-1]):
            V = cands.shape[0]
            if attr == self.dependent:
                return self.probe_block_codes(list(zip(
                    *[values[a][rows] for a in self.determinant])), V)
            deps = values[self.dependent][rows]
            out = np.empty((len(deps), V), dtype=np.int64)
            if all(self.probe_det_codes(dep, V, out=row) is not None
                   for dep, row in zip(deps, out)):
                return out
        ctx = [a for a in self.dc.attributes if a not in target]
        return self.probe_many(target, [{a: values[a][i] for a in ctx}
                                        for i in range(B)[rows]])

    def count_at(self, keys, r: int, pick: int) -> int:
        """One group lookup, traced as a ``probe_pair``."""
        self._bump("probe_pair")
        key, dep = self._lane_pair(keys, r, pick)
        group = self._groups.get(key)
        return 0 if group is None else group[0] - group[1].get(dep, 0)

    def fold(self, keys, picks, start: int = 0) -> None:
        for r, pick in enumerate(picks, start):
            self._add_pair(*self._lane_pair(keys, r, pick))

    def _lane_pair(self, keys, r: int, pick: int) -> tuple:
        """Block row ``r``'s determinant key and dependent at candidate
        ``pick``."""
        target, values, _ = keys
        key = tuple(values[a][pick if a in target else r]
                    for a in self.determinant)
        dep = self.dependent
        return key, values[dep][pick if dep in target else r]

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


class ArrayFDViolationIndex(_FDIndex):
    """The FD counts of :class:`FDViolationIndex` over known value
    domains, as one table.

    For ``X -> y`` whose determinant attributes take codes and whose
    dependent takes codes ``0..V-1`` — or, for a numerical dependent,
    the values of a known sorted universe, indexed by rank — the
    per-group histograms become one int64 table ``count[x, y]`` next to
    the group sizes ``size[x]``.  A composite determinant indexes by one
    mixed-radix code (``det_size`` lists the attributes' code sizes;
    the group count is their product).  The lane protocol is then
    array arithmetic: the ``(B, V)`` candidate counts of a block of rows
    drawing the dependent are one row gather and one in-place subtract,
    those of arbitrary candidates one fancy gather, a row's count at its
    pick two reads, a block's kept prefix one stable sort of its picked
    ``(group, dependent)`` pairs, and folding that prefix in one
    ``np.add.at`` (:meth:`add_codes`).  ``dep_major`` stores the table
    as ``count[y, x]`` instead, so that a block drawing the (single)
    *determinant* gathers contiguous rows too.

    The value-level API (``append_from``, ``candidate_counts``,
    ``probe_many``, ``hint_values``) answers exactly like the
    dict-backed index.  The caller guarantees in-domain determinant
    codes; a probe of an off-universe dependent counts the whole group,
    and appending one raises :class:`ValueError`.
    """

    def __init__(self, dc: DenialConstraint, det_size, dep_size: int,
                 dep_major: bool = False,
                 dep_universe: np.ndarray | None = None):
        sizes = tuple(int(s) for s in np.atleast_1d(det_size))
        self.det_sizes = sizes
        self.det_size = int(np.prod(sizes))
        self.dep_size = int(dep_size)
        self.dep_major = bool(dep_major)
        #: Sorted dependent values by rank (numerical), or None (codes).
        self.dep_universe = (None if dep_universe is None
                             else np.asarray(dep_universe, dtype=np.float64))
        super().__init__(dc)
        if len(self.determinant) != len(sizes):
            raise ValueError(f"DC {dc.name} has {len(self.determinant)} "
                             f"determinant attributes, got {len(sizes)} "
                             f"code sizes")

    def reset(self) -> None:
        shape = ((self.dep_size, self.det_size) if self.dep_major
                 else (self.det_size, self.dep_size))
        self._table = np.zeros(shape, dtype=np.int64)
        #: The table indexed ``[det, dep]`` (a view in either layout).
        self._by_det = self._table.T if self.dep_major else self._table
        self._sizes = np.zeros(self.det_size, dtype=np.int64)
        self._n = 0

    # -- codes -----------------------------------------------------------
    def _det_code(self, parts):
        """The mixed-radix determinant code ``((x1 * K2) + x2) * K3 ...``
        of per-attribute codes ``parts`` (arrays or scalars, in
        determinant order); one attribute's code is the code itself."""
        code = parts[0]
        for part, size in zip(parts[1:], self.det_sizes[1:]):
            code = code * size + part
        return code

    def group_codes(self, cols: dict, rows) -> np.ndarray:
        """Determinant codes of ``rows`` (a slice or index array) of
        ``cols``."""
        return self._det_code([cols[a][rows] for a in self.determinant])

    def dep_ranks(self, values) -> np.ndarray:
        """Table column of each dependent value: the code itself, or the
        rank on the universe (-1 off it)."""
        values = np.asarray(values)
        if self.dep_universe is None:
            return values.astype(np.int64, copy=False)
        grid = self.dep_universe
        idx = np.minimum(np.searchsorted(grid, values), grid.shape[0] - 1)
        return np.where(grid[idx] == values, idx, -1)

    def _dep_column(self, dep, strict: bool = False):
        """Table column of one dependent value, or None off-universe
        (a :class:`ValueError` naming the DC when ``strict``)."""
        if self.dep_universe is None:
            return dep
        rank = int(self.dep_ranks(dep))
        if rank >= 0:
            return rank
        if strict:
            raise self._off_universe()
        return None

    def _off_universe(self) -> ValueError:
        return ValueError(f"DC {self.dc.name}: a dependent value of "
                          f"{self.dependent!r} is off the indexed value "
                          f"universe")

    # -- the lane protocol over the table --------------------------------
    keeps_prefixes = True

    def lane_keys(self, target: dict, cols: dict, lo: int, hi: int):
        """``(det, dep)``: each block row's determinant code and
        dependent table column at each candidate, as ``(B, W)`` views.
        Where the candidates are one side's whole code domain that side
        is None, since the candidate is its code: ``(det, None)`` holds
        each row's group when the lane draws the dependent, ``(None,
        dep)`` each row's dependent when it draws the determinant."""
        def side(attr):
            if attr in target:
                return np.atleast_2d(target[attr])
            return cols[attr][lo:hi, None]
        det = self._det_code([side(a) for a in self.determinant])
        dep = self.dep_ranks(side(self.dependent))
        if det.shape[1] == 1 and _is_codes(dep, self.dep_size):
            return det[:, 0], None
        if dep.shape[1] == 1 and _is_codes(det, self.det_size):
            return None, dep[:, 0]
        shape = (hi - lo, max(det.shape[1], dep.shape[1]))
        return np.broadcast_to(det, shape), np.broadcast_to(dep, shape)

    @staticmethod
    def _cells(keys, rows, picks):
        """The determinant codes and dependent columns of block rows
        ``rows`` at candidates ``picks`` (index arrays, or one row)."""
        det, dep = keys
        if dep is None:
            return det[rows], picks
        if det is None:
            return picks, dep[rows]
        return det[rows, picks], dep[rows, picks]

    def block_counts(self, keys, rows: slice = slice(None)) -> np.ndarray:
        """One gather from the table: traced as ``probe_det_codes`` when
        the candidates are determinant codes, else as
        ``probe_block_codes``.  A dependent off the universe (rank -1)
        counts the whole group."""
        det, dep = keys
        if det is None:
            self._bump("probe_det_codes")
            out = self._by_det.T[dep[rows]]
            np.subtract(self._sizes[None, :], out, out=out)
            return out
        self._bump("probe_block_codes")
        det = det[rows]
        if dep is None:
            out = self._by_det[det]
            np.subtract(self._sizes[det][:, None], out, out=out)
            return out
        dep = dep[rows]
        held = self._by_det[det, np.maximum(dep, 0)]
        return self._sizes[det] - np.where(dep >= 0, held, 0)

    def count_at(self, keys, r: int, pick: int) -> int:
        """Two table reads, traced as a ``probe_pair``."""
        self._bump("probe_pair")
        det, col = self._cells(keys, r, pick)
        size = self._sizes.item(det)
        return size - self._by_det.item(det, col) if col >= 0 else size

    def fold(self, keys, picks, start: int = 0) -> None:
        if len(picks) != 1:
            self.add_codes(*self._cells(
                keys, np.arange(start, start + len(picks)), picks))
            return
        # One row: two scalar adds cost less than ``np.add.at``.
        det, col = self._cells(keys, start, picks[0])
        if col < 0:
            raise self._off_universe()
        self._sizes[det] += 1
        self._by_det[det, col] += 1
        self._n += 1

    def kept_prefix(self, keys, picks: np.ndarray,
                    held_only: bool = False) -> int:
        """The rows before the first with an earlier row of the block in
        its determinant group holding another dependent (or, with
        ``held_only``, one the group did not hold): a row before it
        counts the same at its pick as at the block start."""
        group, value = self._cells(keys, np.arange(len(picks)), picks)
        fresh = self._by_det[group, value] == 0 if held_only else None
        return _first_conflict(group, value, fresh)

    def dependent_grid(self, attr: str) -> np.ndarray | None:
        return self.dep_universe if attr == self.dependent else None

    def holds(self, det_codes: np.ndarray) -> np.ndarray:
        """``(B, V)`` mask of the dependents each group already holds
        (:meth:`dependents_of` for a block, by table column)."""
        return self._by_det[det_codes] > 0

    def add_codes(self, det_codes: np.ndarray, dep_codes: np.ndarray) -> None:
        """Append the rows ``(det_codes[r], dep_codes[r])`` (dependent
        table columns: codes, or universe ranks)."""
        if self.dep_universe is not None and (dep_codes < 0).any():
            raise self._off_universe()
        np.add.at(self._sizes, det_codes, 1)
        if self.dep_major:
            np.add.at(self._table, (dep_codes, det_codes), 1)
        else:
            np.add.at(self._table, (det_codes, dep_codes), 1)
        self._n += len(det_codes)

    # -- the value-level FDViolationIndex API ----------------------------
    def _add_row(self, row: dict, delta: int = 1) -> None:
        det = self._det_code([row[a] for a in self.determinant])
        col = self._dep_column(row[self.dependent], strict=True)
        self._sizes[det] += delta
        self._by_det[det, col] += delta
        self._n += delta

    def _remove_row(self, row: dict) -> None:
        self._add_row(row, -1)

    def total(self) -> int:
        """Violating pairs: within-group pairs minus same-dependent ones."""
        sizes, table = self._sizes, self._table
        return int((sizes * (sizes - 1)).sum() // 2
                   - (table * (table - 1)).sum() // 2)

    def candidate_counts(self, target_values: dict | None,
                         context: dict) -> np.ndarray:
        self._bump("candidate_counts")
        tv = target_values or {}
        det = self._det_code([np.asarray(tv.get(a, context.get(a)))
                              for a in self.determinant])
        ranks = self.dep_ranks(tv.get(self.dependent,
                                      context.get(self.dependent)))
        det, ranks = np.broadcast_arrays(np.atleast_1d(det),
                                         np.atleast_1d(ranks))
        counts = self._sizes[det] - np.where(
            ranks >= 0, self._by_det[det, np.maximum(ranks, 0)], 0)
        return counts.astype(np.int64, copy=False)

    def dependents_of(self, key_row: dict) -> list:
        det = self._det_code([key_row[a] for a in self.determinant])
        ranks = np.flatnonzero(self._by_det[det])
        if self.dep_universe is None:
            return ranks.tolist()
        return self.dep_universe[ranks].tolist()

    def matched_det_values(self, target: str, row: dict) -> list:
        if len(self.determinant) != 1:
            # Composite tables are built only to draw the dependent.
            raise NotImplementedError(
                f"DC {self.dc.name}: composite determinant")
        col = self._dep_column(row[self.dependent])
        if col is None:
            return []
        return np.flatnonzero(self._by_det[:, col]).tolist()


def build_fd_table_index(dc: DenialConstraint, code_sizes: dict,
                         target: str | None = None,
                         universe=None) -> ArrayFDViolationIndex | None:
    """An :class:`ArrayFDViolationIndex` for ``dc``, or None.

    ``code_sizes`` maps each categorical attribute to its code-domain
    size.  The FD qualifies when every determinant attribute has a code
    domain and the table fits :data:`MAX_FD_TABLE_CELLS`, and when
    either

    * the determinant is one attribute and the dependent is categorical
      (stored dependent-major when ``target``, the attribute being
      drawn, is the determinant), or
    * ``target`` is the dependent, which is categorical or numerical
      with a known value universe (``universe(name)``: the sorted values
      it can take, e.g. :meth:`_ColumnSampler.value_universe`'s snap
      grid).  Numerical determinants never qualify: fresh values fall
      off any grid.
    """
    fd = dc.as_fd()
    if fd is None:
        return None
    det, dep = list(fd[0]), fd[1]
    if any(a not in code_sizes for a in det):
        return None
    dep_universe = None
    if dep in code_sizes:
        dep_size = code_sizes[dep]
        if len(det) != 1 and target != dep:
            return None
    elif target == dep and universe is not None:
        dep_universe = universe(dep)
        if dep_universe is None:
            return None
        dep_size = dep_universe.shape[0]
    else:
        return None
    det_sizes = [code_sizes[a] for a in det]
    if int(np.prod(det_sizes)) * dep_size > MAX_FD_TABLE_CELLS:
        return None
    return ArrayFDViolationIndex(dc, det_sizes, dep_size,
                                 dep_major=(target == det[0]
                                            and len(det) == 1),
                                 dep_universe=dep_universe)


# ----------------------------------------------------------------------
# Per-group point arrays
# ----------------------------------------------------------------------
class _Points:
    """The indexed rows of one group as growable per-attribute arrays.

    Capacity-doubling numpy buffers keep appends O(1) amortised and
    :meth:`columns` a zero-copy view — an eq-less DC has a single group
    covering the whole prefix, and rebuilding its arrays per probe would
    be quadratic.
    """

    __slots__ = ("_cols", "n")

    def __init__(self, cols: dict | None = None):
        self._cols = cols
        self.n = 0 if not cols else next(iter(cols.values())).shape[0]

    def columns(self) -> dict:
        """Attribute -> the group's values (views — do not mutate)."""
        if self._cols is None:
            return {}
        return {a: buf[:self.n] for a, buf in self._cols.items()}

    def add(self, row: dict) -> None:
        cols = self._cols
        if cols is None:
            cols = self._cols = {
                a: np.empty(8, dtype=np.int64
                            if isinstance(v, (int, np.integer))
                            else np.float64)
                for a, v in row.items()}
        elif self.n == next(iter(cols.values())).shape[0]:
            for a, buf in cols.items():
                grown = np.empty(2 * buf.shape[0], dtype=buf.dtype)
                grown[:self.n] = buf
                cols[a] = grown
        for a, buf in cols.items():
            buf[self.n] = row[a]
        self.n += 1

    def remove(self, row: dict) -> None:
        """Drop one occurrence of ``row`` (swap-with-last + pop)."""
        hit = np.ones(self.n, dtype=bool)
        for a, col in self.columns().items():
            hit &= col == row[a]
        hits = np.flatnonzero(hit)
        if hits.size == 0:
            raise KeyError(tuple(_item(v) for v in row.values()))
        p, last = int(hits[-1]), self.n - 1
        for buf in self._cols.values():
            buf[p] = buf[last]
        self.n = last


# ----------------------------------------------------------------------
# Binary DCs that are not FDs: equality groups, value-grid count tables
# ----------------------------------------------------------------------
#: Group size at which a group builds its count tables (smaller groups
#: answer probes faster from their point arrays).
_GRID_MIN_GROUP = 8
#: Largest value grid (cells) a DC gets count tables over; larger ones
#: count from point arrays.  Two int64 tables per group.
MAX_GRID_CELLS = 1 << 16
#: Universe values beyond this magnitude are not exact as float64.
_GRID_MAX_ABS = float(2 ** 52)
#: Cells whose fold indexers an index keeps (the cache restarts when
#: full), bounding its memory on large grids.
_REGION_CACHE_CELLS = 4096


def _group_key(dc: DenialConstraint) -> tuple:
    """The attributes that key a binary DC's equality groups.

    The conditional-order shape's equality attributes; otherwise the
    attributes that occur only in ``ti.E = tj.E`` predicates.  Two
    tuples that differ on one of them fail its predicate, so no pair
    across groups violates.
    """
    order = dc.as_conditional_order()
    if order is not None:
        return tuple(order[0])
    eq_attrs, other = set(), set()
    for p in dc.predicates:
        if (p.op is Operator.EQ and not p.is_constant
                and p.lhs_var != p.rhs_var and p.lhs_attr == p.rhs_attr):
            eq_attrs.add(p.lhs_attr)
        else:
            other |= p.attributes
    return tuple(sorted(eq_attrs - other))


def _grid_layout(dc: DenialConstraint) -> tuple[tuple, tuple] | None:
    """``(eq_attrs, axes)`` of a binary DC the value grid can count, or
    None.

    Every predicate must read a single attribute (``ti.A op tj.A`` or
    ``ti.A op c``).  The group key (:func:`_group_key`) keys the groups;
    the other attributes span the grid.
    """
    if any(len(p.attributes) != 1 for p in dc.predicates):
        return None
    eq_attrs = _group_key(dc)
    axes = tuple(sorted(dc.attributes - set(eq_attrs)))
    return (eq_attrs, axes) if axes else None


def _indexer(mask: np.ndarray):
    """A mask's true positions as a slice when contiguous, else an
    index array; None when there are none."""
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return None
    lo, hi = int(hits[0]), int(hits[-1]) + 1
    return slice(lo, hi) if hi - lo == hits.size else hits


class _GridGroup:
    """One equality group of a :class:`GridViolationIndex`.

    The group starts on point arrays; at ``_GRID_MIN_GROUP`` tuples, all
    on the universe, it switches to the ``hist``/``pen`` tables.  A value
    off the universe puts it back on point arrays, rebuilt from
    ``hist``, for good.  Order-shape tables also keep ``ends``: for each
    axis ``t`` and each rank ``r`` of the other axis, the smallest and
    largest axis-``t`` rank among the tuples at ``r`` (the interval
    endpoints of :meth:`GridViolationIndex.hint_values`).  ``total``
    counts the group's violating pairs.  Tables and the order shape's
    point arrays keep it current; other point arrays count it when
    asked after a change (None until then), so draws, which never ask,
    skip a scan per tuple.
    """

    __slots__ = ("n", "total", "points", "hist", "pen", "ends",
                 "off_universe")

    def __init__(self):
        self.n = 0
        self.total: int | None = 0
        self.points: _Points | None = _Points()
        self.hist: np.ndarray | None = None
        self.pen: np.ndarray | None = None
        self.ends: tuple | None = None
        self.off_universe = False


class GridViolationIndex(ViolationIndex):
    """Per-equality-group violation counts for a binary DC that is not
    an FD.

    Tuples group on the DC's equality attributes (:func:`_group_key`),
    and no pair across groups violates, so every count is a count
    within one group.  A group counts in one of two ways.

    *Count tables.*  When every predicate reads one attribute and the
    other attributes (the *axes*) take their values from known
    universes — the sampler's code ranges and snap grids — a group of
    at least ``_GRID_MIN_GROUP`` tuples keeps two int64 arrays over the
    product of those universes:

    * ``hist[c]`` counts the indexed tuples in cell ``c``;
    * ``pen[c]`` counts the violations a tuple in cell ``c`` would add
      against the group, in either orientation.

    Appending a tuple in cell ``c0`` adds ``pen[c0]`` to the group's
    total and its violation region to ``pen``.  Each predicate
    constrains one attribute of the new tuple, so the region of each
    orientation is a product of per-axis masks, and their union is
    ``I + J - (I and J)`` with ``I and J`` a product too.  For the order
    shape ``I and J`` is empty and ``I``, ``J`` are rectangles: a fold
    is two slice adds.  Removal subtracts.  A probe is one gather of
    ``pen`` along the target's axis at the row's other ranks.

    *Point arrays.*  Smaller groups, groups that ever index a value off
    the universe, and every group of an index without universes (or
    without a value-grid layout, or past :data:`MAX_GRID_CELLS`) keep
    their tuples as arrays.  The conditional-order shape answers a probe
    of one order attribute by splitting the group on the partner value
    and binary-searching the sorted target values, and a full tuple by
    two discordance counts; any other probe runs the scan engine over
    the group.  Every count is the scan engine's, exactly.
    """

    def __init__(self, dc: DenialConstraint, universes: dict | None = None):
        super().__init__(dc)
        if dc.is_unary or dc.as_fd() is not None:
            raise ValueError(f"DC {dc.name} is unary or FD-shaped")
        self.eq_attrs = _group_key(dc)
        self.axes = tuple(sorted(dc.attributes - set(self.eq_attrs)))
        shape = dc.as_conditional_order()
        #: ``(greater_attr, less_attr)`` for the order shape, else None.
        self.order = shape[1:] if shape is not None else None
        #: Value -> rank map per axis when groups build count tables,
        #: else None.
        self._ranks = None
        if universes is not None and _grid_layout(dc) is not None:
            #: Sorted-distinct universe per axis.
            self._values = [np.unique(np.asarray(universes[a],
                                                 dtype=np.float64))
                            for a in self.axes]
            self._ranks = [{v: r for r, v in enumerate(values.tolist())}
                           for values in self._values]
            self._value_lists = [values.tolist() for values in self._values]
            self._shape = tuple(values.shape[0] for values in self._values)
            self._terms = self._region_terms()
        self.reset()

    def reset(self) -> None:
        self._groups: dict[tuple, _GridGroup] = {}
        self._regions: dict[tuple, list] = {}
        self._n = 0

    def _region_terms(self) -> list:
        """The terms of a tuple's violation region — new tuple as ``ti``
        (+1), as ``tj`` (+1), as both (-1) — that are not empty for every
        tuple.  Each holds, per axis and per old rank, the new ranks the
        axis' predicates admit as an :func:`_indexer` (None when empty)."""
        by_axis = {a: [] for a in self.axes}
        for p in self.dc.predicates:
            (attr,) = p.attributes
            if attr in by_axis:
                by_axis[attr].append(p)
        pieces = ([], [], [])
        for attr, values in zip(self.axes, self._values):
            m = values.shape[0]
            mats = []
            for new in (TUPLE_I, TUPLE_J):
                def value_of(var, _attr, new=new):
                    return values[None, :] if var == new else values[:, None]
                mat = np.ones((m, m), dtype=bool)       # [old, new]
                for p in by_axis[attr]:
                    mat &= np.broadcast_to(p.evaluate(value_of), (m, m))
                mats.append(mat)
            mats.append(mats[0] & mats[1])
            for term, mat in zip(pieces, mats):
                term.append([_indexer(row) for row in mat])
        return [(sign, term) for sign, term in zip((1, 1, -1), pieces)
                if not any(all(p is None for p in axis) for axis in term)]

    # -- cells ---------------------------------------------------------
    def _key(self, row: dict) -> tuple:
        if not self.eq_attrs:
            return ()
        return tuple(_item(row[a]) for a in self.eq_attrs)

    def _cell(self, row: dict) -> tuple | None:
        """``row``'s grid ranks, or None when a value is off the grid
        (always, without count tables)."""
        if self._ranks is None:
            return None
        cell = []
        for attr, ranks in zip(self.axes, self._ranks):
            r = ranks.get(row[attr])
            if r is None:
                return None
            cell.append(r)
        return tuple(cell)

    def _region(self, cell: tuple) -> list:
        """``(pen index, sign)`` of each non-empty term of the violation
        region of a tuple in ``cell``."""
        region = self._regions.get(cell)
        if region is not None:
            return region
        region = []
        for sign, term in self._terms:
            idx = [per_rank[r] for per_rank, r in zip(term, cell)]
            if any(p is None for p in idx):
                continue
            if sum(isinstance(p, np.ndarray) for p in idx) > 1:
                # Two index arrays would pair up, not span a product.
                idx = np.ix_(*[np.arange(p.start, p.stop)
                               if isinstance(p, slice) else p
                               for p in idx])
            region.append((tuple(idx), sign))
        if len(self._regions) >= _REGION_CACHE_CELLS:
            self._regions.clear()
        self._regions[cell] = region
        return region

    def _fold(self, group: _GridGroup, cell: tuple, delta: int) -> None:
        """Add (``delta=1``) or remove (``-1``) one tuple in ``cell``."""
        pen = group.pen
        for idx, sign in self._region(cell):
            pen[idx] += sign * delta
        group.hist[cell] += delta
        if group.ends is not None:
            self._update_ends(group, cell, delta)

    def _update_ends(self, group: _GridGroup, cell: tuple,
                     delta: int) -> None:
        hist = group.hist
        for t, (lo, hi) in enumerate(group.ends):
            r, other = cell[t], cell[1 - t]
            if delta > 0:
                if r < lo[other]:
                    lo[other] = r
                if r > hi[other]:
                    hi[other] = r
            elif not hist[cell]:
                line = np.flatnonzero(hist[:, other] if t == 0
                                      else hist[other])
                lo[other] = int(line[0]) if line.size else self._shape[t]
                hi[other] = int(line[-1]) if line.size else -1

    def _hist_columns(self, group: _GridGroup, key: tuple) -> dict:
        """A table group's tuples as point columns (order is immaterial
        to every count)."""
        occupied = np.nonzero(group.hist)
        counts = group.hist[occupied]
        cols = {a: np.repeat(values[ranks], counts)
                for a, values, ranks in zip(self.axes, self._values,
                                            occupied)}
        for a, v in zip(self.eq_attrs, key):
            cols[a] = np.full(group.n, v)
        return cols

    def _to_table(self, group: _GridGroup) -> None:
        cols = group.points.columns()
        group.hist = np.zeros(self._shape, dtype=np.int64)
        group.pen = np.zeros(self._shape, dtype=np.int64)
        if self.order is not None:
            m0, m1 = self._shape
            group.ends = (([m0] * m1, [-1] * m1), ([m1] * m0, [-1] * m0))
        ranks = [np.searchsorted(values, cols[a]).tolist()
                 for a, values in zip(self.axes, self._values)]
        group.total = 0
        for cell in zip(*ranks):
            group.total += int(group.pen[cell])
            self._fold(group, cell, 1)
        group.points = None

    def _to_points(self, group: _GridGroup, key: tuple) -> None:
        group.points = _Points(self._hist_columns(group, key))
        group.hist = group.pen = group.ends = None
        group.off_universe = True

    # -- multiset updates ----------------------------------------------
    def _add_row(self, row: dict) -> None:
        key = self._key(row)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _GridGroup()
        cell = self._cell(row)
        if group.pen is not None and cell is None:
            self._to_points(group, key)
        if group.pen is not None:
            group.total += int(group.pen[cell])
            self._fold(group, cell, 1)
        else:
            points = group.points
            if points.n:
                group.total = self._points_total(group, row, 1)
            points.add(row)
            group.off_universe |= cell is None
            if not group.off_universe and points.n >= _GRID_MIN_GROUP:
                self._to_table(group)
        group.n += 1
        self._n += 1

    def _remove_row(self, row: dict) -> None:
        key = self._key(row)
        group = self._groups[key]
        if group.pen is not None:
            cell = self._cell(row)
            if cell is None or not group.hist[cell]:
                raise KeyError(tuple(_item(v) for v in row.values()))
            self._fold(group, cell, -1)
            group.total -= int(group.pen[cell])
        else:
            group.points.remove(row)
            group.total = self._points_total(group, row, -1)
        group.n -= 1
        if not group.n:
            del self._groups[key]
        self._n -= 1

    def _points_total(self, group: _GridGroup, row: dict,
                      sign: int) -> int | None:
        """A point group's total once ``row`` joins (``sign=1``, before
        it is added) or has left (-1): the order shape's two discordance
        counts keep it current; any other DC counts its pairs when
        :meth:`total` asks (None)."""
        if self.order is None:
            return None
        return group.total + sign * int(
            self._point_counts(group.points.columns(), {}, row)[0])

    def total(self) -> int:
        out = 0
        for group in self._groups.values():
            if group.total is None:
                group.total = _blocked_pair_count(self.dc,
                                                  group.points.columns())
            out += group.total
        return out

    # -- probes --------------------------------------------------------
    def _probe_index(self, target_values: dict, context: dict):
        """The ``pen`` index of a probe — rank arrays on the target
        axes, ranks elsewhere — or None when a value is off the grid."""
        idx = []
        for attr, values, ranks in zip(self.axes, self._values,
                                       self._ranks):
            cands = target_values.get(attr)
            if cands is None:
                r = ranks.get(context[attr])
                if r is None:
                    return None
            else:
                # A rank past the end clips onto a different value.
                r = values.searchsorted(cands)
                if not (values.take(r, mode="clip") == cands).all():
                    return None
            idx.append(r)
        return tuple(idx)

    def _counts(self, target_values: dict, context: dict) -> np.ndarray:
        d = (next(iter(target_values.values())).shape[0]
             if target_values else 1)
        if any(a in target_values for a in self.eq_attrs):
            return self._counts_by_key(target_values, context, d)
        key = self._key(context)
        group = self._groups.get(key)
        if group is None:
            return np.zeros(d, dtype=np.int64)
        if group.pen is not None:
            idx = self._probe_index(target_values, context)
            if idx is not None:
                counts = group.pen[idx]
                return counts if target_values else np.array([counts])
            cols = self._hist_columns(group, key)
        else:
            cols = group.points.columns()
        return self._point_counts(cols, target_values, context)

    def _point_counts(self, cols: dict, target_values: dict,
                      context: dict) -> np.ndarray:
        """Counts against one group's tuples, given as point columns.

        The order shape with at most one order attribute varying counts
        without the scan engine: a full tuple by its two discordance
        counts, candidates for one order attribute by splitting the
        group on the partner value and binary-searching both halves.
        """
        if self.order is None or len(target_values) > 1:
            return multi_candidate_violation_counts(
                self.dc, target_values or None, context, cols)
        greater, less = self.order
        if not target_values:
            a_arr, b_arr = cols[greater], cols[less]
            a, b = context[greater], context[less]
            return np.array([np.count_nonzero((a_arr < a) & (b_arr > b))
                             + np.count_nonzero((a_arr > a) & (b_arr < b))],
                            dtype=np.int64)
        ((target, cands),) = target_values.items()
        partner = less if target == greater else greater
        t_arr, p_arr = cols[target], cols[partner]
        p = context[partner]
        # A tuple violates with candidate c iff its target value lies
        # below c with its partner above p, or above c with it below p
        # (either order attribute, by the symmetry of the shape).
        below = np.sort(t_arr[p_arr > p])
        above = np.sort(t_arr[p_arr < p])
        counts = np.searchsorted(below, cands, side="left")
        counts = counts + (above.size
                           - np.searchsorted(above, cands, side="right"))
        return counts.astype(np.int64)

    def _counts_by_key(self, target_values: dict, context: dict,
                       d: int) -> np.ndarray:
        """Candidates that move the tuple between groups: probe each
        group's candidates on their own."""
        keys = zip(*[target_values[a].tolist() if a in target_values
                     else [_item(context[a])] * d for a in self.eq_attrs])
        by_key: dict[tuple, list] = {}
        for c, key in enumerate(keys):
            by_key.setdefault(key, []).append(c)
        out = np.empty(d, dtype=np.int64)
        for key, sel in by_key.items():
            ctx = dict(context)
            ctx.update(zip(self.eq_attrs, key))
            tv = {a: v[sel] for a, v in target_values.items()
                  if a not in self.eq_attrs}
            out[sel] = self._counts(tv, ctx)
        return out

    def candidate_counts(self, target_values: dict | None,
                         context: dict) -> np.ndarray:
        self._bump("candidate_counts")
        return self._counts(target_values or {}, context)

    def probe_many(self, target_values: dict, contexts) -> np.ndarray:
        """Batched probe: the shared candidates' ranks are looked up
        once, then each row is one gather from its group's ``pen``."""
        self._bump("probe_many")
        if not contexts:
            return np.zeros((0, 0), dtype=np.int64)
        if (self._ranks is None or len(target_values) != 1
                or next(iter(target_values)) not in self.axes):
            return np.vstack([self._counts(target_values, context)
                              for context in contexts])
        ((attr, cands),) = target_values.items()
        k = self.axes.index(attr)
        values = self._values[k]
        ranks = values.searchsorted(cands)
        on_grid = bool((values.take(ranks, mode="clip") == cands).all())
        out = np.empty((len(contexts), cands.shape[0]), dtype=np.int64)
        for r, context in enumerate(contexts):
            counts = self._gather(context, k, ranks) if on_grid else None
            out[r] = (self._counts(target_values, context)
                      if counts is None else counts)
        return out

    def _gather(self, context: dict, k: int, ranks: np.ndarray):
        """``pen`` along axis ``k`` at ``ranks`` for the row ``context``
        (zeros for an empty group), or None when the row's group counts
        from point arrays or a context value is off the grid."""
        group = self._groups.get(self._key(context))
        if group is None:
            return 0
        if group.pen is None:
            return None
        cell = []
        for j, (attr, rank_of) in enumerate(zip(self.axes, self._ranks)):
            r = ranks if j == k else rank_of.get(context[attr])
            if r is None:
                return None
            cell.append(r)
        return group.pen[tuple(cell)]

    # -- hard-DC candidate hints ---------------------------------------
    def hint_values(self, target: str, row: dict, limit: int) -> list:
        """Zero-violation candidate values for ``target`` given ``row``.

        The first ``limit`` sorted distinct target values of indexed
        rows agreeing with ``row`` on every other attribute of the DC
        (always violation-free against those rows), then — for the
        order shape — the feasible-interval endpoints: the largest
        target value of the group's rows with partner below ``row``'s,
        and the smallest with partner above.  The exact answers of the
        sampler's prefix scans (``_consistent_values``,
        ``_order_interval``), from ``hist`` when the group has tables.
        """
        if target in self.eq_attrs:
            return self._matched_keys(target, row, limit)
        key = self._key(row)
        group = self._groups.get(key)
        if group is None:
            return []
        partner = None
        if self.order is not None and target in self.order:
            partner = self.order[1] if target == self.order[0] \
                else self.order[0]
        if group.pen is None:
            cols = group.points.columns()
            mask = np.ones(group.n, dtype=bool)
            for a in self.axes:
                if a != target:
                    mask &= cols[a] == row[a]
            out = np.unique(cols[target][mask])[:limit].tolist()
            if partner is not None:
                t_vals, p_vals = cols[target], cols[partner]
                below = t_vals[p_vals < row[partner]]
                above = t_vals[p_vals > row[partner]]
                if below.size:
                    out.append(float(below.max()))
                if above.size:
                    out.append(float(above.min()))
            return out
        k = self.axes.index(target)
        values = self._value_lists[k]
        idx = [slice(None) if a == target else rank_of.get(row[a])
               for a, rank_of in zip(self.axes, self._ranks)]
        out = [] if None in idx else [
            values[r] for r in
            np.flatnonzero(group.hist[tuple(idx)])[:limit].tolist()]
        if partner is not None:
            r = idx[1 - k]
            if r is None:
                lt = le = int(np.searchsorted(self._values[1 - k],
                                              row[partner]))
            else:
                lt, le = r, r + 1
            lo, hi = group.ends[k]
            below = max(hi[:lt], default=-1)
            above = min(lo[le:], default=len(values))
            if below >= 0:
                out.append(values[below])
            if above < len(values):
                out.append(values[above])
        return out

    def _matched_keys(self, target: str, row: dict, limit: int) -> list:
        """:meth:`hint_values` for an equality attribute: the values it
        takes in groups holding a tuple that agrees with ``row`` on
        every other attribute."""
        pos = self.eq_attrs.index(target)
        others = [(q, _item(row[a])) for q, a in enumerate(self.eq_attrs)
                  if a != target]
        cell = self._cell(row)
        found = set()
        for key, group in self._groups.items():
            if any(key[q] != v for q, v in others):
                continue
            if group.pen is not None:
                hit = cell is not None and group.hist[cell] > 0
            else:
                cols = group.points.columns()
                mask = np.ones(group.n, dtype=bool)
                for a in self.axes:
                    mask &= cols[a] == row[a]
                hit = bool(mask.any())
            if hit:
                found.add(key[pos])
        return sorted(found)[:limit]


def _grid_universes(dc: DenialConstraint, universe_of) -> dict | None:
    """The axes' universes of ``dc``'s count tables, or None when its
    groups cannot build them.

    ``universe_of(attr)`` returns every value ``attr`` can take (codes
    for categoricals, the snap grid for DC numericals) or None.  Tables
    need a value-grid layout (:func:`_grid_layout`) and axes' universes
    that are known, exact as float64 and span at most
    :data:`MAX_GRID_CELLS` cells.
    """
    layout = _grid_layout(dc)
    if layout is None:
        return None
    universes, cells = {}, 1
    for attr in layout[1]:
        values = universe_of(attr)
        if values is None:
            return None
        values = np.unique(np.asarray(values, dtype=np.float64))
        if values.size == 0 or (np.abs(values) > _GRID_MAX_ABS).any():
            return None
        universes[attr] = values
        cells *= values.size
    return universes if cells <= MAX_GRID_CELLS else None


def build_grid_index(dc: DenialConstraint,
                     universe_of) -> GridViolationIndex:
    """A :class:`GridViolationIndex` for ``dc`` whose groups count in
    tables over the universes :func:`_grid_universes` finds, and from
    point arrays without them."""
    return GridViolationIndex(dc, _grid_universes(dc, universe_of))


# ----------------------------------------------------------------------
# Unary DCs
# ----------------------------------------------------------------------
class UnaryViolationIndex(ViolationIndex):
    """Running total for a unary DC (violations are per-tuple)."""

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

    def _add_row(self, row: dict) -> None:
        self._total += int(self._violates(row))
        self._n += 1

    def _remove_row(self, row: dict) -> None:
        self._total -= int(self._violates(row))
        self._n -= 1

    def candidate_counts(self, target_values: dict | None,
                         context: dict) -> np.ndarray:
        # Unary violations ignore the indexed rows entirely; delegate to
        # the (cheap, O(d)) scan evaluation for exact agreement.
        return multi_candidate_violation_counts(self.dc, target_values,
                                                context, {})


# ----------------------------------------------------------------------
# Blocked pair counting (the scan engine's full-instance kernels)
# ----------------------------------------------------------------------
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
    """The index for a DC's structural shape when no value universes
    are known (repair, cleaning): unary, the dict-backed FD index, or a
    :class:`GridViolationIndex` on point arrays."""
    if dc.is_unary:
        return UnaryViolationIndex(dc)
    if dc.as_fd() is not None:
        return FDViolationIndex(dc)
    return GridViolationIndex(dc)


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
