"""Experiment 10 — the efficiency optimizations.

1. *Parallel training*: sub-models train without embedding reuse (so
   they could run on separate machines).  Paper: 3.5x faster training
   at a ~0.01 quality cost.  At bench scale we verify it runs, produces
   valid output, and does not beat the sequential variant on quality by
   a large margin (reuse helps or is neutral).
2. *Hard-FD lookup*: the sampler reads forced values from an index
   instead of scanning the prefix.  Paper: enables scaling TPC-H to 1M
   rows.  We verify it preserves the FDs and does not slow sampling
   down.
3. *Incremental violation indexes*: the sampler's per-candidate
   violation counts come from the O(group) index probes of
   :mod:`repro.constraints.index` instead of an O(prefix) broadcast
   rescan per cell.  Every DC is index-served, so there is no scan
   variant left to time against; the engine timings below run on the
   indexes.
4. *Fit once, sample many* (staged API): training is the expensive,
   budget-consuming phase; draws are free post-processing.  Serving k
   instances from one ``FittedKamino`` should cost ~fit + k*sample,
   versus k*(fit + sample) when re-running the fused pipeline.
5. *Block-scheduled engine*: conflict-aware batched scoring +
   counter-based per-cell rng + sharded parallel draws, single-worker
   and with ``workers=4``.  Wall-clock and rows/sec per dataset and
   worker count are also written to ``BENCH_exp10.json``
   (``REPRO_BENCH_JSON`` overrides the path) so CI can track the perf
   trajectory; run this file directly for the standalone perf smoke::

       PYTHONPATH=src python benchmarks/bench_exp10_optimizations.py \
           --n 5000 --out BENCH_exp10.json
6. *Process-pool scaling + streaming* (``--scaling``): draws at each
   worker count — every point asserted bit-identical to the workers=1
   baseline — plus streamed-draw throughput and, with
   ``--stream-rows N``, one large bounded-memory streamed draw.  The
   payload lands in its own ``exp10f_scaling`` JSON section (the
   ``exp10_engines`` regression gate is unaffected) and records the
   machine's ``cpu_count``, without which the speedups are
   uninterpretable.
"""

import argparse
import json
import os
import platform
import time
import timeit

import numpy as np

try:
    from benchmarks.conftest import print_header, rows_for
except ImportError:  # standalone `python benchmarks/bench_...py` run:
    # only the script's own directory is on sys.path — add the repo
    # root so the real conftest (single source of the bench scales)
    # resolves.
    import sys
    sys.path.insert(0, os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    from benchmarks.conftest import print_header, rows_for

from repro.constraints import count_violations
from repro.core import Kamino
from repro.datasets import load
from repro.evaluation import train_on_synthetic_test_on_true

#: Datasets the engine comparison covers (the acceptance trio).
ENGINE_BENCH_DATASETS = ("adult", "tpch", "tax")


def _cap(params):
    params.iterations = min(params.iterations, 40)


def _bench_json_path() -> str:
    return os.environ.get("REPRO_BENCH_JSON", "BENCH_exp10.json")


def _write_bench_json(section: str, payload: dict,
                      label: str | None = None) -> str:
    """Merge ``payload`` under ``section`` into the machine-readable
    benchmark file (read-modify-write so sections compose)."""
    path = _bench_json_path()
    doc = {}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc.setdefault("meta", {}).update({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    if label:
        doc["meta"]["label"] = label
    doc[section] = payload
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    return path


def run_engine_comparison(n_rows: dict | None = None, repeats: int = 2,
                          max_iterations: int = 40) -> dict:
    """Fit each dataset once, then time draws with 1 and 4 workers.

    Returns the per-dataset payload: wall-clock seconds (best of
    ``repeats``) and rows/sec of each.  Draw validity (hard DCs, row
    count) is asserted along the way.
    """
    out: dict = {}
    for name in ENGINE_BENCH_DATASETS:
        n = (n_rows or {}).get(name, rows_for(name))
        dataset = load(name, n=n, seed=0)

        def cap(params, cap_to=max_iterations):
            params.iterations = min(params.iterations, cap_to)

        kam = Kamino(dataset.relation, dataset.dcs, epsilon=1.0,
                     delta=1e-6, seed=0, params_override=cap)
        fitted = kam.fit(dataset.table)
        entry: dict = {"n": n, "engines": {}}
        for label, kwargs in (
                ("blocked", {}),
                ("blocked_workers4", {"workers": 4})):
            draws = []
            seconds = min(timeit.timeit(
                lambda: draws.append(fitted.sample(seed=3, **kwargs)),
                number=1) for _ in range(repeats))
            result = draws[-1]  # validate a timed draw, not an extra one
            assert result.table.n == n
            assert all(count_violations(dc, result.table) == 0
                       for dc in dataset.dcs if dc.hard)
            entry["engines"][label] = {
                "seconds": round(seconds, 4),
                "rows_per_sec": round(n / max(seconds, 1e-9), 1),
            }
        # One extra traced draw (outside the timings) digests the
        # engine's scheduling shape — lane mix, block/rescore/probe
        # counts — into the history point.  Tracing never touches the
        # rng, so this draw equals the timed ones bit for bit.
        from repro.obs import RunTrace, trace_digest
        run_trace = RunTrace()
        fitted.sample(seed=3, trace=run_trace)
        entry["trace_digest"] = trace_digest(run_trace.samples[0])
        out[name] = entry
    return out


def _print_engine_table(results: dict) -> None:
    print(f"{'dataset':>8s} {'n':>7s} {'blocked s':>10s} {'w4 s':>8s}")
    for name, entry in results.items():
        eng = entry["engines"]
        print(f"{name:>8s} {entry['n']:7d} "
              f"{eng['blocked']['seconds']:10.2f} "
              f"{eng['blocked_workers4']['seconds']:8.2f}")


def test_exp10_parallel_training(benchmark):
    dataset = load("adult", n=rows_for("adult"), seed=0)

    def run():
        out = {}
        for label, parallel in [("sequential", False), ("parallel", True)]:
            kam = Kamino(dataset.relation, dataset.dcs, epsilon=1.0,
                         delta=1e-6, seed=0, parallel_training=parallel,
                         params_override=_cap)
            out[label] = kam.fit_sample(dataset.table)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Experiment 10a — sequential vs parallel training "
                 "(paper: parallel 3.5x faster, ~0.01 quality drop)")
    print(f"{'variant':>11s} {'train s':>8s} {'panel acc':>10s}")
    for label, result in results.items():
        # Average over several targets: a single attribute's accuracy
        # is too noisy at bench scale to compare the two variants.
        accs = [train_on_synthetic_test_on_true(
            dataset.table, result.table, target)["accuracy"]
            for target in ("income", "sex", "marital", "workclass")]
        acc = sum(accs) / len(accs)
        print(f"{label:>11s} {result.timings['Tra.']:8.2f} {acc:10.3f}")
    for result in results.values():
        assert all(count_violations(dc, result.table) == 0
                   for dc in dataset.dcs)


def test_exp10_fd_lookup(benchmark):
    dataset = load("tpch", n=rows_for("tpch"), seed=0)

    def run():
        out = {}
        for label, lookup in [("generic", False), ("fd-lookup", True)]:
            kam = Kamino(dataset.relation, dataset.dcs, epsilon=1.0,
                         delta=1e-6, seed=0, use_fd_lookup=lookup,
                         params_override=_cap)
            out[label] = kam.fit_sample(dataset.table)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Experiment 10b — hard-FD lookup fast path on TPC-H "
                 "(paper: enables 1M-row scaling)")
    print(f"{'variant':>10s} {'sam s':>7s} {'violations':>11s}")
    for label, result in results.items():
        bad = sum(count_violations(dc, result.table)
                  for dc in dataset.dcs)
        print(f"{label:>10s} {result.timings['Sam.']:7.2f} {bad:11d}")

    lookup_bad = sum(count_violations(dc, results["fd-lookup"].table)
                     for dc in dataset.dcs)
    assert lookup_bad <= 5  # the FDs survive the fast path


def test_exp10_fit_once_sample_many(benchmark):
    """Staged fit/sample: amortize one training run over many draws.

    Times one fit() followed by several sample() calls at varied
    sizes/seeds, against re-running the fused fit_sample for each
    draw.  The staged path must produce valid instances and its
    per-draw marginal cost must stay far below a full pipeline run.
    """
    import time

    dataset = load("adult", n=rows_for("adult"), seed=0)
    draws = [(dataset.n, 1), (dataset.n // 2, 2), (2 * dataset.n, 3)]

    def run():
        kam = Kamino(dataset.relation, dataset.dcs, epsilon=1.0,
                     delta=1e-6, seed=0, params_override=_cap)
        start = time.perf_counter()
        fitted = kam.fit(dataset.table)
        fit_s = time.perf_counter() - start
        samples = []
        for n, seed in draws:
            start = time.perf_counter()
            result = fitted.sample(n=n, seed=seed)
            samples.append((n, seed, result, time.perf_counter() - start))
        return fitted, fit_s, samples

    fitted, fit_s, samples = benchmark.pedantic(run, rounds=1,
                                                iterations=1)
    print_header("Experiment 10d — fit once, sample many "
                 "(training amortized over draws)")
    print(f"{'draw':>14s} {'seconds':>8s}")
    print(f"{'fit (once)':>14s} {fit_s:8.2f}")
    sample_total = 0.0
    for n, seed, result, seconds in samples:
        sample_total += seconds
        print(f"{f'n={n} s={seed}':>14s} {seconds:8.2f}")
        assert result.table.n == n
        assert all(count_violations(dc, result.table) == 0
                   for dc in dataset.dcs if dc.hard)
    refit_cost = len(samples) * (fit_s + sample_total / len(samples))
    served_cost = fit_s + sample_total
    print(f"serving {len(samples)} draws: staged {served_cost:.2f}s vs "
          f"refit-per-draw ~{refit_cost:.2f}s "
          f"({refit_cost / max(served_cost, 1e-9):.2f}x)")
    # Draws never spend budget: the fitted params are the only release.
    assert fitted.params.achieved_epsilon <= 1.0 + 1e-6


def test_exp10_blocked_engine(benchmark):
    """Block-scheduled engine draws, single-worker and ``workers=4``,
    per dataset.

    Also emits the machine-readable ``BENCH_exp10.json`` (per-dataset,
    per-engine wall-clock + rows/sec) so the perf trajectory can be
    tracked by CI.
    """
    results = benchmark.pedantic(run_engine_comparison, rounds=1,
                                 iterations=1)
    print_header("Experiment 10e — block-scheduled sampling engine "
                 "(+ workers=4 sharding)")
    _print_engine_table(results)
    path = _write_bench_json("exp10_engines", results)
    print(f"wrote {path}")


#: Worker counts the scaling experiment sweeps.
SCALING_WORKERS = (1, 2, 4)


def run_scaling_experiment(n_rows: dict | None = None, repeats: int = 2,
                           max_iterations: int = 40,
                           stream_rows: int = 0,
                           stream_dataset: str = "tpch") -> dict:
    """Experiment 10f: worker scaling + streaming throughput.

    Per dataset: one fit, then timed draws at each worker count —
    every draw is asserted bit-identical to the workers=1
    baseline, so the numbers measure pure scheduling cost — plus a
    streamed draw's end-to-end throughput.  ``stream_rows > 0`` adds a
    single large streamed draw (the n>=1M bounded-memory run) on
    ``stream_dataset``, with the process-wide RSS high-water mark
    recorded alongside.

    The payload goes in its own ``exp10f_scaling`` section, so the
    ``exp10_engines`` regression gate is unaffected.  ``cpu_count`` is
    recorded because the speedups are meaningless without it: on a
    single-core runner the process pool can only add overhead.
    """
    out: dict = {"cpu_count": os.cpu_count() or 1}
    for name in ENGINE_BENCH_DATASETS:
        n = (n_rows or {}).get(name, rows_for(name))
        dataset = load(name, n=n, seed=0)

        def cap(params, cap_to=max_iterations):
            params.iterations = min(params.iterations, cap_to)

        kam = Kamino(dataset.relation, dataset.dcs, epsilon=1.0,
                     delta=1e-6, seed=0, params_override=cap)
        fitted = kam.fit(dataset.table)
        baseline = fitted.sample(seed=3).table
        grid: dict = {}
        for workers in SCALING_WORKERS:
            draws = []
            seconds = min(timeit.timeit(
                lambda: draws.append(fitted.sample(seed=3,
                                                   workers=workers)),
                number=1) for _ in range(repeats))
            table = draws[-1].table
            for attr in dataset.relation.names:
                np.testing.assert_array_equal(
                    table.column(attr), baseline.column(attr),
                    err_msg=f"{name}/workers={workers}/{attr}")
            grid[str(workers)] = {
                "seconds": round(seconds, 4),
                "rows_per_sec": round(n / max(seconds, 1e-9), 1),
            }
        entry: dict = {"n": n, "workers": grid}
        entry["speedup_4_vs_1"] = round(
            grid["1"]["seconds"] / max(grid["4"]["seconds"], 1e-9), 2)

        n_stream = 4 * n
        chunk = max(n, 1)
        start = time.perf_counter()
        got = sum(c.n for c in fitted.sample_stream(
            n=n_stream, seed=3, chunk_rows=chunk))
        seconds = time.perf_counter() - start
        assert got == n_stream
        entry["stream"] = {
            "n": n_stream, "chunk_rows": chunk,
            "seconds": round(seconds, 4),
            "rows_per_sec": round(n_stream / max(seconds, 1e-9), 1),
        }
        out[name] = entry

    if stream_rows > 0 and stream_dataset in out:
        import resource
        dataset = load(stream_dataset,
                       n=(n_rows or {}).get(stream_dataset,
                                            rows_for(stream_dataset)),
                       seed=0)

        def cap(params, cap_to=max_iterations):
            params.iterations = min(params.iterations, cap_to)

        fitted = Kamino(dataset.relation, dataset.dcs, epsilon=1.0,
                        delta=1e-6, seed=0, params_override=cap
                        ).fit(dataset.table)
        chunk = 65536
        start = time.perf_counter()
        got = sum(c.n for c in fitted.sample_stream(
            n=stream_rows, seed=3, chunk_rows=chunk))
        seconds = time.perf_counter() - start
        assert got == stream_rows
        out["stream_large"] = {
            "dataset": stream_dataset, "n": stream_rows,
            "chunk_rows": chunk,
            "seconds": round(seconds, 2),
            "rows_per_sec": round(stream_rows / max(seconds, 1e-9), 1),
            "ru_maxrss_mb": round(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
    return out


def _print_scaling_table(results: dict) -> None:
    print(f"cpu_count={results['cpu_count']}")
    print(f"{'dataset':>8s} {'n':>7s} "
          f"{'w1 s':>8s} {'w2 s':>8s} {'w4 s':>8s} "
          f"{'w4/w1':>6s} {'stream r/s':>11s}")
    for name, entry in results.items():
        if not isinstance(entry, dict) or "workers" not in entry:
            continue
        grid = entry["workers"]
        print(f"{name:>8s} {entry['n']:7d} "
              f"{grid['1']['seconds']:8.2f} {grid['2']['seconds']:8.2f} "
              f"{grid['4']['seconds']:8.2f} "
              f"{entry['speedup_4_vs_1']:5.2f}x "
              f"{entry['stream']['rows_per_sec']:11,.0f}")
    large = results.get("stream_large")
    if large:
        print(f"large stream: {large['dataset']} n={large['n']:,} "
              f"chunk={large['chunk_rows']} {large['seconds']:.1f}s "
              f"({large['rows_per_sec']:,.0f} rows/s, "
              f"peak RSS {large['ru_maxrss_mb']:.0f}MB)")


def test_exp10_worker_scaling(benchmark):
    """Experiment 10f: process-pool worker scaling + streamed draws.

    Every grid point is asserted bit-identical to the workers=1 draw
    inside :func:`run_scaling_experiment`; the >1.5x speedup claim is
    only checked where it can physically hold (>= 4 cores) — on
    smaller runners the grid still exercises the process lane and the
    payload records ``cpu_count`` so readers can judge the numbers.
    """
    results = benchmark.pedantic(run_scaling_experiment, rounds=1,
                                 iterations=1)
    print_header("Experiment 10f — process-pool scaling + streaming "
                 "(bit-identical across every schedule)")
    _print_scaling_table(results)
    path = _write_bench_json("exp10f_scaling", results)
    print(f"wrote {path}")
    if results["cpu_count"] >= 4:
        best = max(entry["speedup_4_vs_1"]
                   for name, entry in results.items()
                   if isinstance(entry, dict) and "workers" in entry)
        assert best > 1.5, f"4-worker process pool only {best}x"


def main(argv=None) -> int:
    """Standalone perf smoke: engine comparison + BENCH_exp10.json."""
    global ENGINE_BENCH_DATASETS
    parser = argparse.ArgumentParser(
        description="Experiment 10 engine benchmark (no pytest needed)")
    parser.add_argument("--n", type=int, default=None,
                        help="rows per dataset (default: bench scale)")
    parser.add_argument("--datasets", default=",".join(
        ENGINE_BENCH_DATASETS))
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--max-iterations", type=int, default=40)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: "
                             "$REPRO_BENCH_JSON or BENCH_exp10.json)")
    parser.add_argument("--label", default=None,
                        help="point label recorded in meta.label (used "
                             "by bench-compare's trajectory table)")
    parser.add_argument("--scaling", action="store_true",
                        help="also run the exp10f worker-scaling + "
                             "streaming grid")
    parser.add_argument("--stream-rows", type=int, default=0,
                        help="with --scaling: row count of one large "
                             "bounded-memory streamed draw (0 = skip)")
    parser.add_argument("--stream-dataset", default="tpch",
                        help="dataset of the large streamed draw")
    args = parser.parse_args(argv)
    if args.out:
        os.environ["REPRO_BENCH_JSON"] = args.out
    ENGINE_BENCH_DATASETS = tuple(args.datasets.split(","))
    n_rows = ({name: args.n for name in ENGINE_BENCH_DATASETS}
              if args.n else None)
    results = run_engine_comparison(n_rows=n_rows, repeats=args.repeats,
                                    max_iterations=args.max_iterations)
    print_header("Block-scheduled engine (+ workers=4 sharding)")
    _print_engine_table(results)
    path = _write_bench_json("exp10_engines", results, label=args.label)
    print(f"wrote {path}")
    if args.scaling:
        scaling = run_scaling_experiment(
            n_rows=n_rows, repeats=args.repeats,
            max_iterations=args.max_iterations,
            stream_rows=args.stream_rows,
            stream_dataset=args.stream_dataset)
        print_header("Experiment 10f — process-pool scaling + streaming")
        _print_scaling_table(scaling)
        path = _write_bench_json("exp10f_scaling", scaling,
                                 label=args.label)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
