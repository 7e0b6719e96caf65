"""The value-grid count tables against the scan engine.

:class:`~repro.constraints.index.GridViolationIndex` counts binary DCs
whose predicates each read one attribute — the conditional-order shape
and generic soft DCs — in per-group ``hist``/``pen`` tables over the
attributes' value universes.  Every count must equal the scan engine's
(``multi_candidate_violation_counts``, ``count_violations``), and the
hard-DC hints must equal the sampler's prefix scans, on random DCs
mixing ``=``, ``!=``, order and constant predicates, with and without
equality attributes, through appends, removals, off-universe values and
universes past the old 4,096-cell dense-grid cap.
"""

import numpy as np
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
        if draw(st.integers(0, 3)) == 0:
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
            "removed": removed, "block": draw(st.integers(1, 6))}


def _candidates(relation: Relation, attr: str) -> np.ndarray:
    cands = _universe(relation, attr)
    if relation[attr].is_numerical:
        cands = np.append(cands, cands[1] + 0.5)   # one off the grid
    else:
        cands = cands.astype(np.int64)
    return cands


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
    assume(layout is not None)   # e.g. equality-only DCs have no grid
    index = build_grid_index(dc, lambda a: _universe(relation, a))
    cells = np.prod([_universe(relation, a).size for a in layout[1]])
    assert (index is None) == (cells > index_mod.MAX_GRID_CELLS)
    if index is None:
        return
    assert isinstance(index, GridViolationIndex)
    sampler, j = _sampler_for(sc)

    block = sc["block"]
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        prefix = {a: cols[a][:lo] for a in attrs}
        # A block probe against the block-start state, per target.
        for target in attrs:
            cands = _candidates(relation, target)
            contexts = [{a: cols[a][i] for a in attrs if a != target}
                        for i in range(lo, hi)]
            want = np.vstack([multi_candidate_violation_counts(
                dc, {target: cands}, ctx, prefix) for ctx in contexts])
            np.testing.assert_array_equal(
                index.probe_many({target: cands}, contexts), want)
            np.testing.assert_array_equal(
                index.probe_many([{target: cands}] * len(contexts),
                                 contexts), want)
        for i in range(lo, hi):
            prefix = {a: cols[a][:i] for a in attrs}
            row = {a: cols[a][i] for a in attrs}
            for target in attrs:
                tv = {target: _candidates(relation, target)}
                ctx = {a: v for a, v in row.items() if a != target}
                np.testing.assert_array_equal(
                    index.candidate_counts(tv, ctx),
                    multi_candidate_violation_counts(dc, tv, ctx, prefix))
                if i:
                    np.testing.assert_array_equal(
                        sampler._consistent_values(
                            j, target, cols, i,
                            indexes={dc.name: index}, strict=True),
                        sampler._consistent_values(j, target, cols, i))
            np.testing.assert_array_equal(
                index.candidate_counts(None, row),
                multi_candidate_violation_counts(dc, None, row, prefix))
            index.append_from(cols, i)
            assert index.total() == count_violations(
                dc, _table(relation, cols, np.arange(i + 1)))
    assert len(index) == n

    live = [i for i in range(n) if i not in set(sc["removed"])]
    for i in sc["removed"]:
        index.remove_from(cols, i)
    rest = _table(relation, cols, np.asarray(live, dtype=np.int64))
    assert index.total() == count_violations(dc, rest)
    prefix = {a: cols[a][live] for a in attrs}
    for i in range(n):
        for target in attrs:
            tv = {target: _candidates(relation, target)}
            ctx = {a: cols[a][i] for a in attrs if a != target}
            np.testing.assert_array_equal(
                index.candidate_counts(tv, ctx),
                multi_candidate_violation_counts(dc, tv, ctx, prefix))


def test_grid_layout_declines_other_shapes():
    rel = _relation(False)
    universe = lambda a: _universe(rel, a)  # noqa: E731
    fd = DenialConstraint.fd("fd", "e", "c")
    two_attrs = DenialConstraint("two", [
        Predicate(TUPLE_I, "x", Operator.LT, TUPLE_J, "y")])
    eq_only = DenialConstraint("key", [
        Predicate(TUPLE_I, "c", Operator.EQ, TUPLE_J, "c")])
    unary = DenialConstraint("un", [
        Predicate(TUPLE_I, "x", Operator.GT, CONST, const=3.0)])
    for dc in (fd, two_attrs, eq_only, unary):
        assert build_grid_index(dc, universe) is None, dc.name
    order = DenialConstraint("ord", [
        Predicate(TUPLE_I, "e", Operator.EQ, TUPLE_J, "e"),
        Predicate(TUPLE_I, "x", Operator.GT, TUPLE_J, "x"),
        Predicate(TUPLE_I, "y", Operator.LT, TUPLE_J, "y")])
    index = build_grid_index(order, universe)
    assert index.eq_attrs == ("e",) and index.axes == ("x", "y")
    assert index.order == ("x", "y")
    # A universe that is not enumerable, or too big, gets no tables.
    assert build_grid_index(order, lambda a: None) is None
    big = lambda a: np.arange(300, dtype=np.float64)  # noqa: E731
    assert build_grid_index(order, big) is None
