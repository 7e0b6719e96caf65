"""Vectorized violation counting for denial constraints.

Four entry points, matching the four places the paper counts violations:

* :func:`count_violations` — ``|V(phi, D)|`` on a full instance
  (Metric I, Table 2).  Unary DCs count violating tuples; binary DCs
  count violating *unordered pairs*, checking both orientations of the
  tuple variables.
* :func:`incremental_violations` — ``|V(phi, t_i | D_:i)|``: new
  violations created by appending one concrete tuple to a prefix
  (Eqn. 3 of the chain decomposition).
* :func:`candidate_violation_counts` — the sampler's inner loop
  (Algorithm 3, line 8): for a vector of candidate values ``v`` of the
  target attribute, how many new violations each candidate would create
  against the already-sampled prefix.  Vectorized over candidates x
  prefix rows with numpy broadcasting.
* :func:`violation_matrix` — the ``|D| x |Phi|`` matrix of Algorithm 5,
  ``V[i][l] = |V(phi_l, t_i | D - {t_i})|``.

Binary full counts use an FD fast path (group-by arithmetic, O(n)) when
the DC is FD-shaped, and blocked O(n^2) numpy evaluation otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.constraints.predicate import TUPLE_I, TUPLE_J

#: Block edge for the O(n^2) pairwise mask evaluation; bounds peak
#: memory to ~BLOCK^2 booleans per predicate.
_BLOCK = 2048


def _pair_mask(dc: DenialConstraint, cols_a: dict, cols_b: dict) -> np.ndarray:
    """Boolean matrix M[a, b]: does (t_i = rows_a[a], t_j = rows_b[b])
    satisfy all predicates?  ``cols_*`` map attr -> 1-D arrays."""
    mask = None
    for pred in dc.predicates:
        def value_of(var, attr):
            if var == TUPLE_I:
                return cols_a[attr][:, None]
            return cols_b[attr][None, :]
        m = pred.evaluate(value_of)
        m = np.broadcast_to(
            m, (next(iter(cols_a.values())).shape[0],
                next(iter(cols_b.values())).shape[0]))
        mask = m.copy() if mask is None else (mask & m)
    return mask


def _unary_mask(dc: DenialConstraint, cols: dict) -> np.ndarray:
    """Boolean vector: does each single tuple satisfy all predicates?"""
    mask = None
    for pred in dc.predicates:
        def value_of(var, attr):
            return cols[attr]
        m = pred.evaluate(value_of)
        m = np.broadcast_to(m, next(iter(cols.values())).shape)
        mask = m.copy() if mask is None else (mask & m)
    return mask


def _columns(table, attrs) -> dict:
    return {a: table.column(a) for a in attrs}


def group_inverse(arrays) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(inverse, counts)`` group labels for aligned key columns.

    Groups on the *original* dtypes via a structured view instead of
    casting through float64 — so distinct int64 keys above 2**53 (which
    collide as floats) stay distinct.  ``inverse[i]`` is the group id of
    row ``i``; ``counts[g]`` is group ``g``'s size.
    """
    arrays = [np.ascontiguousarray(a) for a in arrays]
    n = arrays[0].shape[0]
    rec = np.empty(n, dtype=[(f"f{k}", a.dtype)
                             for k, a in enumerate(arrays)])
    for k, a in enumerate(arrays):
        rec[f"f{k}"] = a
    _, inverse, counts = np.unique(rec, return_inverse=True,
                                   return_counts=True)
    return inverse, counts


def _fd_pair_count(table, fd) -> int:
    """O(n log n) unordered-pair violation count for an FD-shaped DC.

    Within each determinant group of size g, the number of violating
    pairs is C(g,2) minus the concordant pairs sum C(c_v,2) over counts
    of each dependent value v.
    """
    lhs, rhs = fd
    key_cols = [table.column(a) for a in lhs]
    _, g_counts = group_inverse(key_cols)
    _, c_counts = group_inverse(key_cols + [table.column(rhs)])
    pairs = (g_counts * (g_counts - 1)) // 2
    concordant = (c_counts * (c_counts - 1)) // 2
    return int(pairs.sum() - concordant.sum())


def count_violations(dc: DenialConstraint, table) -> int:
    """``|V(phi, D)|``: tuples (unary) or unordered pairs (binary)."""
    cols = _columns(table, dc.attributes)
    if dc.is_unary:
        return int(_unary_mask(dc, cols).sum())
    fd = dc.as_fd()
    if fd is not None:
        return _fd_pair_count(table, fd)
    from repro.constraints.index import _blocked_pair_count
    return _blocked_pair_count(dc, cols)


def violating_pairs(dc: DenialConstraint, table,
                    limit: int | None = None) -> list[tuple[int, ...]]:
    """The concrete violation set ``V(phi, D)``, as tuple-id tuples.

    Unary DCs yield singleton tuples ``(i,)``; binary DCs yield
    unordered pairs ``(i, j)`` with ``i < j``.  ``limit`` truncates the
    scan early (useful for "show me a few offending rows" debugging —
    the full set is quadratic).  Order is deterministic: ascending by
    (first, second) id.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    cols = _columns(table, dc.attributes)
    out: list[tuple[int, ...]] = []
    if dc.is_unary:
        for i in np.flatnonzero(_unary_mask(dc, cols)):
            if limit is not None and len(out) >= limit:
                return out
            out.append((int(i),))
        return out
    n = table.n
    for a0 in range(0, n, _BLOCK):
        a1 = min(a0 + _BLOCK, n)
        block_a = {k: v[a0:a1] for k, v in cols.items()}
        for b0 in range(a0, n, _BLOCK):
            b1 = min(b0 + _BLOCK, n)
            block_b = {k: v[b0:b1] for k, v in cols.items()}
            either = (_pair_mask(dc, block_a, block_b)
                      | _pair_mask(dc, block_b, block_a).T)
            if a0 == b0:
                either = np.triu(either, k=1)
            rows, columns = np.nonzero(either)
            for r, c in zip(rows, columns):
                if limit is not None and len(out) >= limit:
                    return out
                out.append((int(a0 + r), int(b0 + c)))
    return out


def violating_pair_percentage(dc: DenialConstraint, table) -> float:
    """Metric I: ``100 * |V(phi, D)| / C(n, 2)`` (binary DCs) or
    ``100 * |V| / n`` (unary DCs)."""
    n = table.n
    if n < 2:
        return 0.0
    v = count_violations(dc, table)
    denom = n if dc.is_unary else n * (n - 1) / 2
    return 100.0 * v / denom


def incremental_violations(dc: DenialConstraint, new_row: dict,
                           prefix_cols: dict) -> int:
    """``|V(phi, t_i | D_:i)|`` for one fully-specified new tuple.

    ``new_row`` maps attr -> scalar (codes/floats); ``prefix_cols`` maps
    attr -> arrays of the already-placed tuples.  Only the attributes in
    ``dc.attributes`` are consulted.
    """
    counts = candidate_violation_counts(
        dc,
        target_attr=None,
        candidates=None,
        context=new_row,
        prefix_cols=prefix_cols,
    )
    return int(counts[0])


def candidate_violation_counts(dc: DenialConstraint, target_attr,
                               candidates, context: dict,
                               prefix_cols: dict) -> np.ndarray:
    """New-violation counts for each candidate target value.

    Implements Algorithm 3 line 8: the new tuple agrees with ``context``
    on every non-target attribute; ``candidates`` enumerates possible
    values for ``target_attr``.  Returns an int64 vector (one count per
    candidate) of new violations against the prefix (plus self, for
    unary DCs).

    Pass ``target_attr=None, candidates=None`` to evaluate a single
    fully-specified tuple (returns a length-1 vector).
    """
    target_values = None
    if candidates is not None:
        target_values = {target_attr: np.asarray(candidates)}
    return multi_candidate_violation_counts(dc, target_values, context,
                                            prefix_cols)


def multi_candidate_violation_counts(dc: DenialConstraint,
                                     target_values: dict | None,
                                     context: dict,
                                     prefix_cols: dict) -> np.ndarray:
    """Candidate counting where each candidate sets *several* attributes.

    Used by the hyper-attribute sampler (§4.3 grouping): candidate ``v``
    of a hyper attribute decodes to one value per member attribute, so
    ``target_values`` maps each member attribute to its length-d
    candidate column.  With ``target_values=None`` a single
    fully-specified tuple is evaluated (length-1 result).
    """
    if target_values:
        lengths = {np.asarray(v).shape[0] for v in target_values.values()}
        if len(lengths) != 1:
            raise ValueError("candidate columns must share one length")
        d = lengths.pop()
        target_values = {a: np.asarray(v) for a, v in target_values.items()}
    else:
        target_values = {}
        d = 1

    def new_value(attr):
        """Value of the new tuple, shaped (d, 1) for broadcasting."""
        if attr in target_values:
            return target_values[attr][:, None]
        return np.asarray(context[attr])  # scalar

    if dc.is_unary:
        mask = np.ones(d, dtype=bool)
        for pred in dc.predicates:
            def value_of(var, attr):
                v = new_value(attr)
                return v[:, 0] if isinstance(v, np.ndarray) and v.ndim == 2 else v
            m = pred.evaluate(value_of)
            mask = mask & np.broadcast_to(m, (d,))
        return mask.astype(np.int64)

    prefix_n = (next(iter(prefix_cols.values())).shape[0]
                if prefix_cols else 0)
    if prefix_n == 0:
        return np.zeros(d, dtype=np.int64)

    def orientation_mask(new_as: str) -> np.ndarray:
        """Mask (d, prefix_n) with the new tuple bound to ``new_as``."""
        other = TUPLE_J if new_as == TUPLE_I else TUPLE_I
        mask = None
        for pred in dc.predicates:
            def value_of(var, attr):
                if var == new_as:
                    return new_value(attr)
                if var == other:
                    return prefix_cols[attr][None, :]
                raise AssertionError(var)
            m = pred.evaluate(value_of)
            m = np.broadcast_to(m, (d, prefix_n))
            mask = m.copy() if mask is None else (mask & m)
        return mask

    either = orientation_mask(TUPLE_I) | orientation_mask(TUPLE_J)
    return either.sum(axis=1).astype(np.int64)


def violation_matrix(table, dcs) -> np.ndarray:
    """Algorithm 5's per-tuple violation matrix.

    ``V[i][l]`` is the number of violations of DC ``phi_l`` that tuple
    ``t_i`` participates in against the rest of the instance (or 0/1 for
    unary DCs).  Shape: ``(n, len(dcs))``, dtype float64 (it will be
    perturbed with Gaussian noise downstream).

    Counting is delegated to the shape-dispatching index engine
    (:func:`repro.constraints.index.per_row_violation_counts`): group
    arithmetic for FD-shaped DCs, group-restricted blocked evaluation
    for conditional-order DCs, full blocked evaluation otherwise.
    """
    from repro.constraints.index import per_row_violation_counts
    out = np.zeros((table.n, len(dcs)), dtype=np.float64)
    for l, dc in enumerate(dcs):
        out[:, l] = per_row_violation_counts(dc, table).astype(np.float64)
    return out
