"""Quickstart: synthesize a tiny constrained table with Kamino.

Builds a 3-attribute schema with one functional dependency, generates a
private "true" instance, and walks the staged API:

1. ``KaminoConfig`` collects every pipeline knob, validated once;
2. ``Kamino.fit`` runs the budget-consuming phases (sequencing,
   parameter search, DP-SGD training, DC-weight learning) exactly once
   and returns a ``FittedKamino``;
3. ``FittedKamino.sample`` draws synthetic instances — any size, any
   seed, as many as wanted — as free post-processing, on the
   block-scheduled vectorized engine whose counter-based per-cell rng
   makes every draw deterministic per seed and lets ``workers=k``
   shard it across threads bit-identically;
4. ``save``/``load`` persist the fitted model (including its rng spec)
   so later draws never touch the private data again;
5. a ``RunTrace`` records where the time went — fit phases, per-column
   sampling wall-clock, engine lanes, index probe counts — without
   changing a single drawn cell (the CLI exposes the same telemetry as
   ``repro-kamino fit/sample/synthesize --trace out.json``).

Run:  python examples/quickstart.py
"""

import os
import tempfile

import numpy as np

from repro.constraints import parse_dc, violating_pair_percentage
from repro.core import FittedKamino, Kamino, KaminoConfig
from repro.evaluation import total_variation_distance
from repro.obs import RunTrace
from repro.schema import (
    Attribute, CategoricalDomain, NumericalDomain, Relation, Table,
)


def make_private_data(n: int = 600, seed: int = 7) -> Table:
    """A toy HR table: department determines floor, salary rises with
    seniority."""
    rng = np.random.default_rng(seed)
    relation = Relation([
        Attribute("dept", CategoricalDomain(
            ["sales", "eng", "hr", "legal"])),
        Attribute("floor", NumericalDomain(1, 8, integer=True, bins=8)),
        Attribute("seniority", NumericalDomain(0, 30, integer=True,
                                               bins=16)),
    ])
    dept = rng.integers(0, 4, n)
    floor = dept * 2 + 1.0                      # FD: dept -> floor
    seniority = np.clip(rng.exponential(6.0, n), 0, 30).round()
    return Table(relation, {"dept": dept, "floor": floor,
                            "seniority": seniority})


def main() -> None:
    table = make_private_data()
    fd = parse_dc("not(ti.dept == tj.dept and ti.floor != tj.floor)",
                  name="dept_floor_fd", hard=True, relation=table.relation)

    # Train once: everything that touches the private table (and the
    # privacy budget) happens inside fit().  The RunTrace collects
    # phase/column telemetry along the way — tracing is pure
    # observation, every output stays bit-identical to an untraced run.
    trace = RunTrace(label="quickstart")
    config = KaminoConfig(epsilon=1.5, delta=1e-6, seed=0)
    fitted = Kamino(table.relation, [fd], config=config).fit(table,
                                                             trace=trace)

    print("schema sequence :", fitted.sequence)
    print(f"privacy spent   : epsilon={fitted.params.achieved_epsilon:.3f} "
          f"(budget {config.epsilon}), alpha={fitted.params.best_alpha}")

    # Serve many: draws are free post-processing.  They run on the
    # block-scheduled engine: conflict-free row blocks are scored and drawn vectorized, and all
    # randomness comes from counter-based per-cell streams, so a draw
    # is a pure function of (model, DCs, n, seed) — block size and
    # worker count never change a single cell.  That determinism is
    # what makes `workers=` safe: unconstrained column passes shard
    # across threads and stitch bit-identically to workers=1.
    result = fitted.sample(trace=trace)
    extra = fitted.sample(n=2000, seed=1, workers=4)
    assert_same = fitted.sample(n=2000, seed=1)  # workers=1, same draw
    assert all((extra.table.column(a) == assert_same.table.column(a)).all()
               for a in table.relation.names)
    print(f"draws           : default n={result.table.n}, "
          f"seeded n={extra.table.n} (workers=4, bit-identical to "
          f"workers=1) — one training run, zero extra budget")

    print(f"FD violations   : truth "
          f"{violating_pair_percentage(fd, table):.3f}%  synthetic "
          f"{violating_pair_percentage(fd, result.table):.3f}%  "
          f"large draw {violating_pair_percentage(fd, extra.table):.3f}%")
    for attr in table.relation.names:
        dist = total_variation_distance(table, result.table, (attr,))
        print(f"1-way TVD {attr:10s}: {dist:.3f}")
    print("phase timings   :",
          {k: round(v, 2) for k, v in result.timings.items()})

    # Persist the artifact: a later process (or another machine) can
    # keep sampling without the private data or any budget.
    path = os.path.join(tempfile.mkdtemp(prefix="kamino_"), "model.npz")
    fitted.save(path)
    reloaded = FittedKamino.load(path, table.relation, [fd])
    again = reloaded.sample(n=500, seed=2)
    print(f"round trip      : saved {os.path.basename(path)}, reloaded, "
          f"drew n={again.table.n} "
          f"(FD {violating_pair_percentage(fd, again.table):.3f}%)")

    # Where did the time go?  The trace spans the fit and the first
    # draw: phase shares, per-column lanes (unconstrained vs fd-lane),
    # block counts, and violation-index probe volume.  trace.save(path)
    # writes the same data as stable-keyed JSON.
    print()
    print(trace.summary())


if __name__ == "__main__":
    main()
