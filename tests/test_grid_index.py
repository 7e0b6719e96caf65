"""The equality-group index of binary non-FD DCs against the scan
engine.

:class:`~repro.constraints.index.GridViolationIndex` counts every binary
DC that is not an FD per equality group: in ``hist``/``pen`` tables over
the attributes' value universes where the predicates each read one
attribute and the grid fits, and from point arrays otherwise (no
universe, a predicate comparing two attributes, a grid past
``MAX_GRID_CELLS``).  Every count — ``block_counts`` through
``lane_keys``, for a block and for one row, and ``count_at`` — must
equal the scan engine's (``multi_candidate_violation_counts`` on the
prefix, ``count_violations``), and the
hard-DC hints must equal the sampler's prefix scans, on random DCs
mixing ``=``, ``!=``, order, constant and two-attribute predicates,
with and without equality attributes, through appends, removals,
off-universe values and universes past the old 4,096-cell dense-grid
cap.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints import (
    GridViolationIndex, build_grid_index, count_violations,
    multi_candidate_violation_counts,
)
from repro.constraints import index as index_mod
from repro.constraints.dc import DenialConstraint
from repro.constraints.predicate import (
    CONST, TUPLE_I, TUPLE_J, Operator, Predicate,
)
from repro.core.hyper import HyperSpec
from repro.core.sampling import _ColumnSampler
from repro.schema import Attribute, CategoricalDomain, Relation, Table
from repro.schema.domain import NumericalDomain

_OPS = list(Operator)


def _relation(wide: bool) -> Relation:
    return Relation([
        Attribute("e", CategoricalDomain([f"e{i}" for i in range(3)])),
        Attribute("c", CategoricalDomain(
            [f"c{i}" for i in range(80 if wide else 4)])),
        Attribute("x", NumericalDomain(0, 59 if wide else 5, integer=True)),
        Attribute("y", NumericalDomain(0, 4, integer=True)),
    ])


def _universe(relation: Relation, attr: str) -> np.ndarray:
    domain = relation[attr].domain
    if relation[attr].is_categorical:
        return np.arange(domain.size, dtype=np.float64)
    return np.arange(domain.low, domain.high + 1, dtype=np.float64)


@st.composite
def _predicates(draw):
    preds = []
    if draw(st.booleans()):
        preds.append(Predicate(TUPLE_I, "e", Operator.EQ, TUPLE_J, "e"))
    if draw(st.integers(0, 2)) == 0:
        # The conditional-order shape, whose hints add interval ends.
        a, b = draw(st.permutations(["c", "x", "y"]))[:2]
        for attr, op in ((a, Operator.GT), (b, Operator.LT)):
            lhs = draw(st.sampled_from([TUPLE_I, TUPLE_J]))
            rhs = TUPLE_J if lhs == TUPLE_I else TUPLE_I
            preds.append(Predicate(lhs, attr, op if lhs == TUPLE_I
                                   else op.flip(), rhs, attr))
        return preds
    for _ in range(draw(st.integers(1, 3))):
        attr = draw(st.sampled_from(["c", "x", "y", "e"]))
        op = draw(st.sampled_from(_OPS))
        kind = draw(st.integers(0, 5))
        if kind == 0:
            # Compares two attributes: no value grid counts it.
            other = draw(st.sampled_from(
                [a for a in ("c", "x", "y") if a != attr]))
            preds.append(Predicate(
                draw(st.sampled_from([TUPLE_I, TUPLE_J])), attr, op,
                draw(st.sampled_from([TUPLE_I, TUPLE_J])), other))
        elif kind == 1:
            var = draw(st.sampled_from([TUPLE_I, TUPLE_J]))
            const = draw(st.integers(0, 4))
            if attr in ("x", "y"):
                const = float(const)
            preds.append(Predicate(var, attr, op, CONST, const=const))
        else:
            lhs = draw(st.sampled_from([TUPLE_I, TUPLE_J]))
            rhs = TUPLE_J if lhs == TUPLE_I else TUPLE_I
            preds.append(Predicate(lhs, attr, op, rhs, attr))
    return preds


@st.composite
def grid_scenarios(draw):
    wide = draw(st.booleans())
    relation = _relation(wide)
    dc = DenialConstraint("g", draw(_predicates()),
                          hard=draw(st.booleans()))
    assume(dc.is_binary and dc.as_fd() is None)
    n = draw(st.integers(0, 28))

    def column(attr, hi):
        return draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))

    # Few distinct values, so groups and cells repeat.
    cols = {"e": np.asarray(column("e", 2), dtype=np.int64),
            "c": np.asarray(column("c", 3), dtype=np.int64),
            "x": np.asarray(column("x", 5), dtype=np.float64),
            "y": np.asarray(column("y", 4), dtype=np.float64)}
    if n and draw(st.booleans()):
        # A value inside the domain but off the integer universe.
        cols["x"][draw(st.integers(0, n - 1))] += 0.5
    removed = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n,
                            unique=True)) if n else []
    return {"relation": relation, "dc": dc, "n": n, "cols": cols,
            "removed": removed, "block": draw(st.integers(1, 6)),
            "known": draw(st.integers(0, 3)) > 0}


def _candidates(relation: Relation, attr: str) -> np.ndarray:
    cands = _universe(relation, attr)
    if relation[attr].is_numerical:
        cands = np.append(cands, cands[1] + 0.5)   # one off the grid
    else:
        cands = cands.astype(np.int64)
    return cands


def _scan(dc, target_values: dict, cols: dict, rows, prefix) -> np.ndarray:
    """The scan engine's counts of ``rows`` against the rows ``prefix``
    (a count of leading rows, or their indices): ``(len(rows), V)``."""
    prefix = slice(prefix) if isinstance(prefix, int) else prefix
    return np.vstack([np.zeros((0, next(iter(
        target_values.values())).shape[0]), dtype=np.int64)] + [
        multi_candidate_violation_counts(
            dc, target_values, {a: cols[a][i] for a in dc.attributes
                                if a not in target_values},
            {a: cols[a][prefix] for a in dc.attributes})
        for i in rows])


def _table(relation, cols, rows) -> Table:
    return Table(relation, {a: c[rows] for a, c in cols.items()},
                 validate=False)


def _sampler_for(sc):
    """A sampler whose last column activates the DC as a hard DC."""
    relation, dc = sc["relation"], sc["dc"]
    hard = DenialConstraint(dc.name, dc.predicates, hard=True)
    order = [a for a in relation.names if a not in dc.attributes]
    order += sorted(dc.attributes)
    sampler = _ColumnSampler(None, relation,
                             HyperSpec.trivial(relation, order), [hard],
                             {hard.name: 1.0}, None,
                             np.random.default_rng(0))
    return sampler, order.index(sorted(dc.attributes)[-1])


@settings(max_examples=120, deadline=None)
@given(sc=grid_scenarios())
def test_grid_index_matches_scan_engine(sc):
    relation, dc, n, cols = sc["relation"], sc["dc"], sc["n"], sc["cols"]
    attrs = sorted(dc.attributes)
    layout = index_mod._grid_layout(dc)
    index = build_grid_index(dc, lambda a: (_universe(relation, a)
                                            if sc["known"] else None))
    assert isinstance(index, GridViolationIndex)
    # Tables need a layout, known universes and a grid that fits; every
    # other group counts from its point arrays.
    tables = layout is not None and sc["known"] and np.prod(
        [_universe(relation, a).size for a in layout[1]]
    ) <= index_mod.MAX_GRID_CELLS
    assert (index._ranks is not None) == tables
    sampler, j = _sampler_for(sc)

    block = sc["block"]
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        # A block's counts against the block-start state, per target.
        for target in attrs:
            tv = {target: _candidates(relation, target)}
            np.testing.assert_array_equal(
                index.block_counts(index.lane_keys(tv, cols, lo, hi)),
                _scan(dc, tv, cols, range(lo, hi), lo))
        for i in range(lo, hi):
            row = {a: cols[a][i] for a in attrs}
            for target in attrs:
                tv = {target: _candidates(relation, target)}
                np.testing.assert_array_equal(
                    index.block_counts(index.lane_keys(tv, cols, i, i + 1)),
                    _scan(dc, tv, cols, [i], i))
                # The count at one pick: the row's own value.
                keys = index.lane_keys({target: np.array([row[target]])},
                                       cols, i, i + 1)
                assert [index.count_at(keys, 0, 0)] == \
                    multi_candidate_violation_counts(
                        dc, None, row, {a: cols[a][:i] for a in attrs}
                    ).tolist()
                np.testing.assert_array_equal(
                    sampler._consistent_values(
                        j, target, cols, i, indexes={dc.name: index}),
                    sampler._consistent_values(j, target, cols, i))
            index.append_from(cols, i)
            assert index.total() == count_violations(
                dc, _table(relation, cols, np.arange(i + 1)))
    assert len(index) == n

    live = [i for i in range(n) if i not in set(sc["removed"])]
    for i in sc["removed"]:
        index.remove_from(cols, i)
    rest = _table(relation, cols, np.asarray(live, dtype=np.int64))
    assert index.total() == count_violations(dc, rest)
    for target in attrs:
        tv = {target: _candidates(relation, target)}
        np.testing.assert_array_equal(
            index.block_counts(index.lane_keys(tv, cols, 0, n)),
            _scan(dc, tv, cols, range(n), live))


def test_grid_layout_declines_other_shapes():
    """FDs and unary DCs have indexes of their own; the other shapes
    without a value grid, or without known universes that fit, count
    from point arrays."""
    rel = _relation(False)
    universe = lambda a: _universe(rel, a)  # noqa: E731
    for dc in (DenialConstraint.fd("fd", "e", "c"),
               DenialConstraint("un", [Predicate(TUPLE_I, "x", Operator.GT,
                                                 CONST, const=3.0)])):
        with pytest.raises(ValueError, match="unary or FD-shaped"):
            build_grid_index(dc, universe)
    two_attrs = DenialConstraint("two", [
        Predicate(TUPLE_I, "x", Operator.LT, TUPLE_J, "y")])
    eq_only = DenialConstraint("key", [
        Predicate(TUPLE_I, "c", Operator.EQ, TUPLE_J, "c")])
    for dc in (two_attrs, eq_only):
        assert build_grid_index(dc, universe)._ranks is None, dc.name
    assert build_grid_index(eq_only, universe).eq_attrs == ("c",)
    order = DenialConstraint("ord", [
        Predicate(TUPLE_I, "e", Operator.EQ, TUPLE_J, "e"),
        Predicate(TUPLE_I, "x", Operator.GT, TUPLE_J, "x"),
        Predicate(TUPLE_I, "y", Operator.LT, TUPLE_J, "y")])
    index = build_grid_index(order, universe)
    assert index.eq_attrs == ("e",) and index.axes == ("x", "y")
    assert index.order == ("x", "y") and index._ranks is not None
    # A universe that is not enumerable, or too big, gets no tables.
    assert build_grid_index(order, lambda a: None)._ranks is None
    big = lambda a: np.arange(300, dtype=np.float64)  # noqa: E731
    assert build_grid_index(order, big)._ranks is None
