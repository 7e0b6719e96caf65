"""TPC-H workload: key/foreign-key preservation under hard FDs (§7.3.6).

The denormalised Orders-Customer-Nation join carries four hard FDs
induced by the original key constraints.  Synthetic data violating them
cannot be re-normalised back into valid Customer/Nation tables — the
reason the paper's Table 2 highlights TPC-H.  The paper keeps hard FDs
fast with a determinant -> dependent lookup; here each hard FD's
violation index picks the group's dependent directly.  This script:

1. runs Kamino and reports its wall-clock and sampling time,
2. verifies the output keeps all four FDs,
3. re-normalises the synthetic join back into a Customer dimension to
   show round-tripping works.

Run:  python examples/tpch_keys.py [n_rows]
"""

import sys
import time

import numpy as np

from repro.constraints import count_violations
from repro.core import Kamino
from repro.datasets import load


def renormalise(table) -> dict:
    """Rebuild the customer dimension from the synthetic join; raises if
    any customer maps to two nations/segments (cannot happen when the
    FDs hold)."""
    customers: dict = {}
    cust = table.column("c_custkey")
    nation = table.column("c_nationkey")
    segment = table.column("c_mktsegment")
    for c, nk, seg in zip(cust, nation, segment):
        row = (int(nk), int(seg))
        if customers.setdefault(int(c), row) != row:
            raise AssertionError(f"customer {c} is inconsistent")
    return customers


def main(n: int = 600) -> None:
    dataset = load("tpch", n=n, seed=3)

    def cap(params):
        params.iterations = min(params.iterations, 50)

    kamino = Kamino(dataset.relation, dataset.dcs, epsilon=1.0,
                    delta=1e-6, seed=0, params_override=cap)
    start = time.perf_counter()
    result = kamino.fit_sample(dataset.table)
    elapsed = time.perf_counter() - start
    print(f"kamino: {elapsed:6.2f}s "
          f"(sampling {result.timings['Sam.']:.2f}s)")
    bad = sum(count_violations(dc, result.table) for dc in dataset.dcs)
    print(f"kamino: total hard-FD violations = {bad}")

    customers = renormalise(result.table)
    orders_per_cust = np.bincount(
        result.table.column("c_custkey").astype(int))
    print(f"re-normalised customer dimension: {len(customers)} customers, "
          f"max orders/customer = {orders_per_cust.max()}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 600)
