"""Tests for FD extraction and approximate DC discovery."""

import numpy as np

from repro.constraints import discover_dcs, extract_fds
from repro.constraints.dc import DenialConstraint
from repro.schema import (
    Attribute, CategoricalDomain, NumericalDomain, Relation, Table,
)


def test_extract_fds():
    fd = DenialConstraint.fd("f", ["a"], "b")
    order = DenialConstraint("o", fd.predicates[:1])  # not FD-shaped
    found = extract_fds([fd, order])
    assert len(found) == 1
    assert found[0][0] == ("a",) and found[0][1] == "b"


class TestDiscovery:
    def _table_with_fd(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        relation = Relation([
            Attribute("g", CategoricalDomain([f"v{i}" for i in range(5)])),
            Attribute("h", CategoricalDomain([f"w{i}" for i in range(5)])),
            Attribute("x", NumericalDomain(0, 50, integer=True, bins=16)),
            Attribute("y", NumericalDomain(0, 50, integer=True, bins=16)),
        ])
        g = rng.integers(0, 5, n)
        h = g.copy()                      # exact FD g -> h (and h -> g)
        x = rng.integers(0, 25, n)
        y = x * 2                         # exact monotone pair
        return Table(relation, {"g": g, "h": h, "x": x, "y": y})

    def test_finds_planted_fd(self):
        table = self._table_with_fd()
        dcs = discover_dcs(table, max_violation_rate=0.0, limit=100)
        fd_pairs = {dc.as_fd() for dc in dcs if dc.as_fd()}
        assert (("g",), "h") in fd_pairs

    def test_finds_planted_order(self):
        table = self._table_with_fd()
        dcs = discover_dcs(table, max_violation_rate=0.0, limit=100)
        orders = [dc.as_conditional_order() for dc in dcs
                  if dc.as_conditional_order()]
        assert ([], "x", "y") in orders or ([], "y", "x") in orders

    def test_respects_limit(self):
        table = self._table_with_fd()
        dcs = discover_dcs(table, max_violation_rate=50.0, limit=7)
        assert len(dcs) <= 7

    def test_all_soft(self):
        table = self._table_with_fd()
        assert all(not dc.hard
                   for dc in discover_dcs(table, limit=5))

    def test_sorted_cleanest_first(self):
        table = self._table_with_fd()
        from repro.constraints import violating_pair_percentage
        dcs = discover_dcs(table, max_violation_rate=50.0, limit=50,
                           sample_size=100)
        rates = [violating_pair_percentage(dc, table.head(100))
                 for dc in dcs]
        assert rates == sorted(rates)
