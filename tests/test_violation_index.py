"""The incremental violation-index engine vs the scan-based engine.

The contract of :mod:`repro.constraints.index` is *bit-identical*
counting: every index answers ``total()`` / ``candidate_counts()`` /
``per_row_violation_counts()`` exactly like ``count_violations`` /
``multi_candidate_violation_counts`` / the blocked ``violation_matrix``
evaluation, only faster.  These tests pin that equivalence on
randomized tables (Hypothesis) and cover the repair-convergence
regressions the engine unlocked (FD chains, shared-dependent FDs,
all-violating unary DCs, exact-dtype group keys).
"""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import repair_violations
from repro.constraints import (
    ArrayFDViolationIndex,
    FDViolationIndex,
    GridViolationIndex,
    UnaryViolationIndex,
    build_index,
    count_violations,
    multi_candidate_violation_counts,
    parse_dc,
    violation_matrix,
)
from repro.constraints import index as index_mod
from repro.constraints.dc import DenialConstraint
from repro.constraints.index import build_fd_table_index, build_grid_index
from repro.constraints.predicate import TUPLE_I
from repro.constraints.violations import group_inverse
from repro.core.params import KaminoParams
from repro.core.training import train_model
from repro.schema.domain import CategoricalDomain, NumericalDomain
from repro.schema.relation import Attribute, Relation
from repro.schema.table import Table
from row_reference import synthesize


def _relation():
    return Relation([
        Attribute("a", CategoricalDomain([f"v{i}" for i in range(5)])),
        Attribute("b", CategoricalDomain([f"w{i}" for i in range(4)])),
        Attribute("u", NumericalDomain(0, 12, integer=True, bins=13)),
        Attribute("v", NumericalDomain(0, 12, integer=True, bins=13)),
    ])


def _dcs():
    rel = _relation()
    return rel, {
        "fd": DenialConstraint.fd("fd", "a", "b"),
        "fd2": DenialConstraint.fd("fd2", ("a", "b"), "u"),
        "ord": parse_dc(
            "not(ti.a == tj.a and ti.u > tj.u and ti.v < tj.v)", "ord"),
        "ord0": parse_dc("not(ti.u > tj.u and ti.v < tj.v)", "ord0"),
        "un": parse_dc("not(ti.u > 9)", "un", relation=rel),
        "gen": parse_dc("not(ti.a == tj.a and ti.u > tj.u)", "gen"),
    }


def _tables(draw, max_rows: int = 24) -> Table:
    rel = _relation()
    n = draw(st.integers(0, max_rows))
    cols = {
        "a": np.asarray(draw(st.lists(st.integers(0, 4), min_size=n,
                                      max_size=n)), dtype=np.int64),
        "b": np.asarray(draw(st.lists(st.integers(0, 3), min_size=n,
                                      max_size=n)), dtype=np.int64),
        "u": np.asarray(draw(st.lists(st.integers(0, 12), min_size=n,
                                      max_size=n)), dtype=np.float64),
        "v": np.asarray(draw(st.lists(st.integers(0, 12), min_size=n,
                                      max_size=n)), dtype=np.float64),
    }
    return Table(rel, cols)


def test_factory_dispatches_on_shape():
    _, dcs = _dcs()
    assert isinstance(build_index(dcs["fd"]), FDViolationIndex)
    assert isinstance(build_index(dcs["fd2"]), FDViolationIndex)
    assert isinstance(build_index(dcs["ord"]), GridViolationIndex)
    assert isinstance(build_index(dcs["ord0"]), GridViolationIndex)
    assert isinstance(build_index(dcs["un"]), UnaryViolationIndex)
    assert isinstance(build_index(dcs["gen"]), GridViolationIndex)


# ----------------------------------------------------------------------
# Equivalence with the scan engine
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=30, deadline=None)
def test_incremental_total_matches_count_violations(data):
    _, dcs = _dcs()
    table = _tables(data.draw)
    cols = {a: table.column(a) for a in table.relation.names}
    for dc in dcs.values():
        index = build_index(dc)
        index.build(cols, 0)
        for i in range(table.n):
            index.append_from(cols, i)
            assert index.total() == count_violations(
                dc, table.head(i + 1)), (dc.name, i)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_candidate_counts_match_scan_engine(data):
    """Prefix-probe agreement: the probe of Algorithm 3 line 8."""
    _, dcs = _dcs()
    table = _tables(data.draw)
    cols = {a: table.column(a) for a in table.relation.names}
    for dc in dcs.values():
        index = build_index(dc)
        index.build(cols, 0)
        for i in range(table.n):
            for target in sorted(dc.attributes):
                if target in ("a", "b"):
                    cands = np.arange(
                        table.relation[target].domain.size, dtype=np.int64)
                else:
                    cands = np.arange(0, 13, dtype=np.float64)
                target_values = {target: cands}
                context = {a: cols[a][i] for a in dc.attributes
                           if a != target}
                got = index.candidate_counts(target_values, context)
                prefix = {a: cols[a][:i] for a in dc.attributes}
                ref = multi_candidate_violation_counts(
                    dc, target_values, context, prefix)
                np.testing.assert_array_equal(got, ref,
                                              err_msg=f"{dc.name}@{i}")
            index.append_from(cols, i)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_removal_and_rewrite_keep_totals_exact(data):
    _, dcs = _dcs()
    table = _tables(data.draw)
    if table.n < 2:
        return
    cols = {a: table.column(a) for a in table.relation.names}
    i = data.draw(st.integers(0, table.n - 1))
    for dc in dcs.values():
        index = build_index(dc)
        index.build(cols, table.n)
        index.remove_from(cols, i)
        rest = table.take([j for j in range(table.n) if j != i])
        assert index.total() == count_violations(dc, rest), dc.name
        index.append_from(cols, i)
        assert index.total() == count_violations(dc, table), dc.name
    # Cell rewrite: flip one cell and compare against a fresh count.
    new_b = data.draw(st.integers(0, 3))
    for name in ("fd", "gen"):
        dc = dcs[name]
        index = build_index(dc)
        index.build(cols, table.n)
        attr = "b" if name == "fd" else "u"
        old = cols[attr][i]
        cols[attr][i] = new_b
        index.rewrite_cell(cols, i, attr, old)
        assert index.total() == count_violations(dc, table), name
        cols[attr][i] = old
        index.rewrite_cell(cols, i, attr, new_b)
        assert index.total() == count_violations(dc, table), name


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_violation_matrix_matches_brute_force(data):
    _, dcs = _dcs()
    table = _tables(data.draw, max_rows=14)
    dc_list = list(dcs.values())
    got = violation_matrix(table, dc_list)
    assert got.shape == (table.n, len(dc_list))

    def pair_violates(dc, i, j):
        for first, second in ((i, j), (j, i)):
            def value(var, attr):
                row = first if var == TUPLE_I else second
                return table.column(attr)[row]
            if all(bool(p.evaluate(value)) for p in dc.predicates):
                return True
        return False

    for l, dc in enumerate(dc_list):
        for i in range(table.n):
            if dc.is_unary:
                def value(var, attr):
                    return table.column(attr)[i]
                ref = float(all(bool(p.evaluate(value))
                                for p in dc.predicates))
            else:
                ref = float(sum(pair_violates(dc, i, j)
                                for j in range(table.n) if j != i))
            assert got[i, l] == ref, (dc.name, i)


# ----------------------------------------------------------------------
# The sampler draws what it drew when prefix scans could still replace
# the indexes: the per-row reference loop drives ``violation_penalty``
# (which MCMC and accept-reject share) through the indexes
# ----------------------------------------------------------------------
def test_sampler_bit_identical_with_and_without_index():
    """The digest was recorded with the index on and off (both drew
    it) before every DC became index-served."""
    relation = Relation([
        Attribute("g", CategoricalDomain(["x", "y", "z"])),
        Attribute("h", CategoricalDomain(["p", "q", "r", "s"])),
        Attribute("gain", NumericalDomain(0, 30, integer=True, bins=8)),
        Attribute("loss", NumericalDomain(0, 30, integer=True, bins=8)),
    ])
    rng = np.random.default_rng(0)
    g = rng.integers(0, 3, 120)
    gain = rng.integers(0, 31, 120).astype(float)
    table = Table(relation, {"g": g, "h": (g + 1) % 3, "gain": gain,
                             "loss": np.clip(gain // 2, 0, 30)})
    dcs = [
        DenialConstraint.fd("g_h", "g", "h", hard=True),
        parse_dc("not(ti.g == tj.g and ti.gain > tj.gain "
                 "and ti.loss < tj.loss)", "cord", hard=False),
    ]
    params = KaminoParams(epsilon=math.inf, delta=1e-6, iterations=15,
                          embed_dim=6, lr=0.1, n=table.n, k=4)
    params.mcmc_m = 5  # exercise the remove/probe/re-append MCMC path
    sequence = ["g", "h", "gain", "loss"]
    model = train_model(table, relation, sequence, params,
                        np.random.default_rng(1), private=False)
    weights = {"g_h": math.inf, "cord": 1.5}
    out = synthesize(model, relation, dcs, weights, table.n, params,
                     np.random.default_rng(7))
    digest = hashlib.sha256()
    for name in relation.names:
        column = np.ascontiguousarray(out.column(name))
        digest.update(name.encode() + str(column.dtype).encode()
                      + column.tobytes())
    assert digest.hexdigest()[:16] == "1bee048bfb708835"


# ----------------------------------------------------------------------
# Repair convergence regressions
# ----------------------------------------------------------------------
def _chain_relation():
    return Relation([
        Attribute("a", CategoricalDomain(["a0", "a1", "a2"])),
        Attribute("b", CategoricalDomain(["b0", "b1", "b2"])),
        Attribute("c", CategoricalDomain(["c0", "c1", "c2"])),
    ])


def test_repair_converges_on_fd_chain():
    """A -> B, B -> C: repairing B re-groups C, so the old bounded
    3-pass loop (in reverse order) left chained violations behind."""
    rel = _chain_relation()
    rng = np.random.default_rng(0)
    n = 40
    table = Table(rel, {
        "a": rng.integers(0, 3, n),
        "b": rng.integers(0, 3, n),
        "c": rng.integers(0, 3, n),
    })
    fds = [DenialConstraint.fd("bc", "b", "c"),
           DenialConstraint.fd("ab", "a", "b")]  # reverse chain order
    fixed = repair_violations(table, fds, seed=0)
    for dc in fds:
        assert count_violations(dc, fixed) == 0
    assert fixed.n == n


def test_repair_converges_on_shared_dependent_fds():
    """a0 -> a2 and a1 -> a2: separate majority votes oscillate; the
    joint union-find repair fixes both at once (the seed-failing
    Hypothesis counterexample, pinned)."""
    rel = _chain_relation()
    table = Table(rel, {
        "a": np.array([0, 0, 0, 0, 1]),
        "b": np.array([0, 0, 0, 1, 1]),
        "c": np.array([0, 1, 1, 0, 0]),
    })
    fds = [DenialConstraint.fd("bc", "b", "c"),
           DenialConstraint.fd("ac", "a", "c")]
    fixed = repair_violations(table, fds, seed=0)
    for dc in fds:
        assert count_violations(dc, fixed) == 0


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_repair_eliminates_arbitrary_fd_sets(data):
    """Random FDs with arbitrary determinant/dependent directions (the
    property the seed test checks, but without the acyclicity bound on
    shared dependents)."""
    rel = _chain_relation()
    n = data.draw(st.integers(0, 12))
    table = Table(rel, {
        a: np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n,
                                         max_size=n)), dtype=np.int64)
        for a in ("a", "b", "c")})
    names = ["a", "b", "c"]
    n_fds = data.draw(st.integers(0, 4))
    fds = []
    for f in range(n_fds):
        det = data.draw(st.integers(0, 2))
        dep = data.draw(st.integers(0, 2).filter(lambda x: x != det))
        fds.append(DenialConstraint.fd(f"fd{f}", names[det], names[dep]))
    fixed = repair_violations(table, fds, seed=0)
    assert fixed.n == n
    # Acyclic FD graphs must repair completely; cyclic ones must at
    # least never crash or grow the violation count.
    edges = {}
    for dc in fds:
        det, dep = dc.as_fd()
        edges.setdefault(det[0], set()).add(dep)

    def reaches(start, goal, seen):
        for nxt in edges.get(start, ()):
            if nxt == goal or (nxt not in seen
                               and reaches(nxt, goal, seen | {nxt})):
                return True
        return False

    cyclic = any(reaches(node, node, {node}) for node in edges)
    if not cyclic:
        for dc in fds:
            assert count_violations(dc, fixed) == 0
    else:
        total_after = sum(count_violations(dc, fixed) for dc in fds)
        total_before = sum(count_violations(dc, table) for dc in fds)
        assert total_after <= total_before


def test_repair_all_violating_unary_redraws_from_domain():
    """Every tuple violating used to silently skip the repair (no clean
    pool); now the cells redraw from the satisfying domain values."""
    rel = _relation()
    n = 30
    table = Table(rel, {
        "a": np.zeros(n, dtype=np.int64),
        "b": np.zeros(n, dtype=np.int64),
        "u": np.full(n, 3.0),   # all violate not(u < 9)
        "v": np.zeros(n),
    })
    unary = parse_dc("not(ti.u < 9)", "un", relation=rel)
    assert count_violations(unary, table) == n
    fixed = repair_violations(table, [unary], seed=0)
    assert count_violations(unary, fixed) == 0
    assert np.all(fixed.column("u") >= 9)


def test_repair_unary_without_feasible_values_leaves_table():
    """A unary DC no domain value satisfies cannot loop forever."""
    rel = _relation()
    table = Table(rel, {
        "a": np.zeros(4, dtype=np.int64), "b": np.zeros(4, dtype=np.int64),
        "u": np.full(4, 5.0), "v": np.zeros(4),
    })
    unary = parse_dc("not(ti.u >= 0)", "un", relation=rel)  # always true
    fixed = repair_violations(table, [unary], seed=0)
    assert count_violations(unary, fixed) == 4  # unrepairable, no hang


# ----------------------------------------------------------------------
# Exact-dtype group keys (no float64 collisions)
# ----------------------------------------------------------------------
def test_group_inverse_distinguishes_int64_above_2_53():
    big = 2 ** 53
    col = np.array([big, big + 1, big, big + 1], dtype=np.int64)
    inverse, counts = group_inverse([col])
    assert len(counts) == 2
    assert counts.tolist() == [2, 2]
    # The float64 cast the old grouping used collides the two keys.
    assert np.unique(col.astype(np.float64)).size == 1


def test_fd_counting_and_repair_with_int64_keys_above_2_53():
    rel = Relation([
        Attribute("k", CategoricalDomain(["x", "y"])),
        Attribute("d", CategoricalDomain(["p", "q"])),
    ])
    big = 2 ** 53
    # Two determinant keys that collide as float64 but differ as int64;
    # each group is internally consistent, so there are no violations.
    table = Table(rel, {
        "k": np.array([big, big + 1, big, big + 1], dtype=np.int64),
        "d": np.array([0, 1, 0, 1], dtype=np.int64),
    }, validate=False)
    fd = DenialConstraint.fd("kd", "k", "d")
    assert count_violations(fd, table) == 0
    np.testing.assert_array_equal(
        violation_matrix(table, [fd])[:, 0], np.zeros(4))
    index = build_index(fd)
    index.build(table.columns, table.n)
    assert index.total() == 0
    fixed = repair_violations(table, [fd], seed=0)
    np.testing.assert_array_equal(fixed.column("d"), table.column("d"))


def test_repair_skips_passes_via_index_totals():
    """A clean table must exit the fixpoint loop without any rewrite."""
    rel = _chain_relation()
    table = Table(rel, {
        "a": np.array([0, 1, 2]),
        "b": np.array([0, 1, 2]),
        "c": np.array([0, 1, 2]),
    })
    fds = [DenialConstraint.fd("ab", "a", "b"),
           DenialConstraint.fd("bc", "b", "c")]
    fixed = repair_violations(table, fds, seed=0)
    for a in rel.names:
        np.testing.assert_array_equal(fixed.column(a), table.column(a))


# ----------------------------------------------------------------------
# Order DCs on value-grid count tables
# ----------------------------------------------------------------------
#: The value universe of ``u`` and ``v``.
_UNIVERSE = np.arange(13, dtype=np.float64)


def _grid(dc, universe):
    index = build_grid_index(dc, lambda attr: universe)
    assert isinstance(index, GridViolationIndex)
    return index


@pytest.mark.parametrize("dc_key", ["ord", "ord0"])
@given(st.data())
@settings(max_examples=20, deadline=None)
def test_order_probes_bit_identical_with_universe(dc_key, data):
    """The grid tables never change a count (grid vs sort path vs scan)."""
    _, dcs = _dcs()
    dc = dcs[dc_key]
    table = _tables(data.draw)
    cols = table.columns
    plain = build_index(dc)
    fast = _grid(dc, _UNIVERSE)
    cands = np.arange(13, dtype=np.float64)
    for i in range(table.n):
        for target in ("u", "v"):
            tv = {target: cands}
            ctx = {a: cols[a][i] for a in dc.attributes if a != target}
            want = multi_candidate_violation_counts(
                dc, tv, ctx, {a: cols[a][:i] for a in dc.attributes})
            np.testing.assert_array_equal(
                plain.candidate_counts(tv, ctx), want, err_msg=f"plain {i}")
            np.testing.assert_array_equal(
                fast.candidate_counts(tv, ctx), want, err_msg=f"grid {i}")
        plain.append_from(cols, i)
        fast.append_from(cols, i)
        assert plain.total() == fast.total() == count_violations(
            dc, Table(table.relation,
                      {a: c[:i + 1] for a, c in cols.items()},
                      validate=False))
    # removals keep both engines aligned
    for i in range(0, table.n, 3):
        plain.remove_from(cols, i)
        fast.remove_from(cols, i)
        assert plain.total() == fast.total()


def test_grid_index_exact_past_the_old_dense_cap():
    """A universe past the old 4,096-cell dense-grid cap still gets
    tables, and they stay exact."""
    rng = np.random.default_rng(3)
    side = 72                                   # 5,184 cells
    dc = parse_dc("not(ti.u > tj.u and ti.v < tj.v)", "big")
    index = _grid(dc, np.arange(side, dtype=np.float64))
    n = 400
    cols = {"u": rng.integers(0, side, n).astype(np.float64),
            "v": rng.integers(0, side, n).astype(np.float64)}
    cands = rng.integers(0, side, 9).astype(np.float64)
    for i in range(n):
        ctx = {"v": cols["v"][i]}
        want = multi_candidate_violation_counts(
            dc, {"u": cands}, ctx, {a: c[:i] for a, c in cols.items()})
        np.testing.assert_array_equal(
            index.candidate_counts({"u": cands}, ctx), want, err_msg=str(i))
        index.append_from(cols, i)
    group = next(iter(index._groups.values()))
    assert group.pen is not None and group.pen.size == side * side
    assert index.total() == count_violations(
        dc, Table(Relation([
            Attribute("u", NumericalDomain(0, side - 1, integer=True)),
            Attribute("v", NumericalDomain(0, side - 1, integer=True))]),
            cols, validate=False))


def test_order_index_off_universe_value_falls_back_exactly():
    dc = parse_dc("not(ti.u > tj.u and ti.v < tj.v)", "off")
    index = _grid(dc, _UNIVERSE)
    rng = np.random.default_rng(0)
    n = 60
    cols = {"u": rng.integers(0, 13, n).astype(np.float64),
            "v": rng.integers(0, 13, n).astype(np.float64)}
    cols["u"][30] = 6.5  # not on the integer universe
    cands = np.arange(13, dtype=np.float64)
    for i in range(n):
        ctx = {"v": cols["v"][i]}
        want = multi_candidate_violation_counts(
            dc, {"u": cands}, ctx, {a: c[:i] for a, c in cols.items()})
        np.testing.assert_array_equal(
            index.candidate_counts({"u": cands}, ctx), want, err_msg=str(i))
        index.append_from(cols, i)
        # Tables from the eighth tuple on, points again from row 30.
        group = next(iter(index._groups.values()))
        assert (group.pen is None) == (i < 7 or i >= 30), i
    assert group.off_universe and index.total() == count_violations(
        dc, Table(Relation([
            Attribute("u", NumericalDomain(0, 12)),
            Attribute("v", NumericalDomain(0, 12))]), cols, validate=False))


def test_hint_values_match_scans():
    """hint_values == the sampler's equality-match + interval scans."""
    _, dcs = _dcs()
    dc = dcs["ord"]
    rng = np.random.default_rng(7)
    n = 200
    cols = {"a": rng.integers(0, 3, n).astype(np.int64),
            "u": rng.integers(0, 13, n).astype(np.float64),
            "v": rng.integers(0, 13, n).astype(np.float64)}
    index = _grid(dc, _UNIVERSE)
    for i in range(n):
        for target, partner in (("u", "v"), ("v", "u")):
            row = {a: cols[a][i] for a in dc.attributes}
            got = index.hint_values(target, row, limit=4)
            mask = cols["a"][:i] == cols["a"][i]
            t_vals = cols[target][:i][mask]
            p_vals = cols[partner][:i][mask]
            p_now = cols[partner][i]
            want = np.unique(t_vals[p_vals == p_now])[:4].tolist()
            below = t_vals[p_vals < p_now]
            above = t_vals[p_vals > p_now]
            if below.size:
                want.append(float(below.max()))
            if above.size:
                want.append(float(above.min()))
            assert got == want, (i, target)
        index.append_from(cols, i)


# ----------------------------------------------------------------------
# Batched FD probes (PR 5)
# ----------------------------------------------------------------------
def test_probe_block_codes_matches_candidate_counts():
    _, dcs = _dcs()
    dc = dcs["fd"]          # a -> b
    rng = np.random.default_rng(1)
    n = 120
    cols = {"a": rng.integers(0, 5, n).astype(np.int64),
            "b": rng.integers(0, 4, n).astype(np.int64)}
    index = build_index(dc)
    index.build(cols, n)
    codes = np.arange(4, dtype=np.int64)
    keys = [(int(cols["a"][i]),) for i in range(n)]
    block = index.probe_block_codes(keys, 4)
    many = index.probe_many({"b": codes},
                            [{"a": cols["a"][i]} for i in range(n)])
    for i in range(n):
        want = index.candidate_counts({"b": codes}, {"a": cols["a"][i]})
        np.testing.assert_array_equal(block[i], want, err_msg=str(i))
        np.testing.assert_array_equal(many[i], want, err_msg=str(i))


def test_probe_det_codes_matches_general_path():
    """Det-target probes (filling a determinant after its dependent)."""
    _, dcs = _dcs()
    dc = dcs["fd"]          # a -> b; now probe candidates for `a`
    rng = np.random.default_rng(2)
    n = 150
    cols = {"a": rng.integers(0, 5, n).astype(np.int64),
            "b": rng.integers(0, 4, n).astype(np.int64)}
    index = build_index(dc)
    cands = np.arange(5, dtype=np.int64)
    for i in range(n):
        ctx = {"b": cols["b"][i]}
        want = multi_candidate_violation_counts(
            dc, {"a": cands}, ctx, {x: c[:i] for x, c in cols.items()})
        got = index.candidate_counts({"a": cands}, ctx)
        np.testing.assert_array_equal(got, want, err_msg=str(i))
        out = np.empty(5, dtype=np.int64)
        assert index.probe_det_codes(cols["b"][i], 5, out=out) is out
        np.testing.assert_array_equal(out, want, err_msg=f"out {i}")
        index.append_from(cols, i)
    # a row's count at its pick agrees with the group's histogram
    for i in range(0, n, 7):
        keys = index.lane_keys({"b": np.arange(4)}, cols, i, i + 1)
        dep = int(cols["b"][i])
        group = index._groups[(int(cols["a"][i]),)]
        assert index.count_at(keys, 0, dep) == \
            group[0] - group[1].get(dep, 0)


# ----------------------------------------------------------------------
# Array-backed FD count tables
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_array_fd_index_matches_dict_index_and_scan(data):
    """On random code tables, the count-table index answers every probe
    like the dict-backed index and the scan engine, in both layouts,
    through appends (one by one and in bulk) and removals; both answer
    ``hint_values`` like the sampler's prefix scan, for the dependent
    and the determinant; the factory switches to the table exactly
    below the cell cap."""
    k = data.draw(st.integers(1, 6), label="det codes")
    v = data.draw(st.integers(1, 6), label="dep codes")
    cap = data.draw(st.integers(1, 40), label="cell cap")
    rel = Relation([
        Attribute("x", CategoricalDomain([f"x{i}" for i in range(k)])),
        Attribute("y", CategoricalDomain([f"y{i}" for i in range(v)])),
    ])
    dc = DenialConstraint.fd("fd", "x", "y")
    with mock.patch.object(index_mod, "MAX_FD_TABLE_CELLS", cap):
        built = build_fd_table_index(dc, {"x": k, "y": v})
    assert (built is None) == (k * v > cap)

    n = data.draw(st.integers(0, 30), label="rows")
    cols = {"x": np.asarray(data.draw(st.lists(
                st.integers(0, k - 1), min_size=n, max_size=n)),
                dtype=np.int64),
            "y": np.asarray(data.draw(st.lists(
                st.integers(0, v - 1), min_size=n, max_size=n)),
                dtype=np.int64)}
    bulk = data.draw(st.integers(0, n), label="bulk-folded rows")
    removed = data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                 max_size=n, unique=True), label="removed")
    removed = [i for i in removed if i < n]
    live = [i for i in range(n) if i not in set(removed)]
    det_codes = np.arange(k, dtype=np.int64)
    dep_codes = np.arange(v, dtype=np.int64)

    for dep_major in (False, True):
        table_index = ArrayFDViolationIndex(dc, k, v, dep_major=dep_major)
        dict_index = FDViolationIndex(dc)
        table_index.add_codes(cols["x"][:bulk], cols["y"][:bulk])
        for i in range(bulk):
            dict_index.append_from(cols, i)
        for i in range(bulk, n):
            table_index.append_from(cols, i)
            dict_index.append_from(cols, i)
        for i in removed:
            table_index.remove_from(cols, i)
            dict_index.remove_from(cols, i)
        prefix = {a: c[live] for a, c in cols.items()}
        assert len(table_index) == len(dict_index) == len(live)
        assert table_index.total() == dict_index.total() == \
            count_violations(dc, Table(rel, prefix, validate=False))

        keys = [(x,) for x in range(k)]
        np.testing.assert_array_equal(
            table_index.block_counts(table_index.lane_keys(
                {"y": dep_codes}, {"x": det_codes}, 0, k)),
            dict_index.probe_block_codes(keys, v))
        for y in range(v):
            want = multi_candidate_violation_counts(
                dc, {"x": det_codes}, {"y": np.int64(y)}, prefix)
            np.testing.assert_array_equal(
                dict_index.probe_det_codes(y, k), want)
            np.testing.assert_array_equal(
                table_index.block_counts(table_index.lane_keys(
                    {"x": det_codes}, {"y": np.array([y])}, 0, 1))[0], want)
            np.testing.assert_array_equal(
                table_index.candidate_counts({"x": det_codes},
                                             {"y": np.int64(y)}), want)
            assert table_index.matched_det_values("x", {"y": y}) == \
                dict_index.matched_det_values("x", {"y": y})
        for x in range(k):
            ctx = {"x": np.int64(x)}
            want = multi_candidate_violation_counts(
                dc, {"y": dep_codes}, ctx, prefix)
            np.testing.assert_array_equal(
                table_index.candidate_counts({"y": dep_codes}, ctx), want)
            np.testing.assert_array_equal(
                dict_index.candidate_counts({"y": dep_codes}, ctx), want)
            assert table_index.dependents_of(ctx) == \
                dict_index.dependents_of(ctx)
            one = {"x": np.array([x])}
            table_keys = table_index.lane_keys({"y": dep_codes}, one, 0, 1)
            dict_keys = dict_index.lane_keys({"y": dep_codes}, one, 0, 1)
            for y in range(v):
                assert table_index.count_at(table_keys, 0, y) == \
                    dict_index.count_at(dict_keys, 0, y) == want[y]
                row = {"x": np.int64(x), "y": np.int64(y)}
                np.testing.assert_array_equal(
                    table_index.candidate_counts(None, row), want[y:y + 1])
        # hint_values: the first four sorted distinct values of the
        # target among the rows matching on the other attribute — the
        # prefix scan of ``_consistent_values(indexes=None)``.
        for target, other, size in (("y", "x", k), ("x", "y", v)):
            for value in range(size):
                row = {other: np.int64(value)}
                scan = np.unique(prefix[target][prefix[other] == value])
                for index in (table_index, dict_index):
                    assert index.hint_values(target, row, 4) == \
                        scan[:4].tolist(), (target, value)
        # Both columns vary per candidate (a hyper-attribute target).
        xs = np.asarray(data.draw(st.lists(st.integers(0, k - 1),
                                           min_size=3, max_size=3)))
        ys = np.asarray(data.draw(st.lists(st.integers(0, v - 1),
                                           min_size=3, max_size=3)))
        want = multi_candidate_violation_counts(
            dc, {"x": xs, "y": ys}, {}, prefix)
        np.testing.assert_array_equal(
            table_index.candidate_counts({"x": xs, "y": ys}, {}), want)
        np.testing.assert_array_equal(
            dict_index.candidate_counts({"x": xs, "y": ys}, {}), want)
