"""Command-line interface for the Kamino reproduction.

Usage (installed as the ``repro-kamino`` console script, also runnable
as ``python -m repro.cli``)::

    repro-kamino infer-schema data.csv --out schema.json
    repro-kamino check bundle_dir/
    repro-kamino discover bundle_dir/ --limit 16
    repro-kamino synthesize bundle_dir/ --epsilon 1.0 --out synth_dir/
    repro-kamino evaluate bundle_dir/ synth_dir/ --alpha 1 --alpha 2
    repro-kamino ledger ledger.json
    repro-kamino bench-compare BENCH_exp10.json --gate
    repro-kamino serve --models-dir models/ --port 8765

``serve`` runs the long-running synthesis service (:mod:`repro.serve`):
a model registry with named, content-digest-versioned artifacts held
hot in memory, HTTP ``GET /sample`` draws streamed through the staged
engine, a deterministic ETag'd draw cache, queue backpressure, and
``/metrics`` — see ``docs/SERVING.md``.

``fit``, ``sample``, and ``synthesize`` accept ``--trace out.json``:
the run writes a stable-keyed telemetry document (fit-phase timers,
per-column sampling wall-clock, engine lanes, block sizes, index probe
counts — see :mod:`repro.obs.trace`) and prints its human-readable
summary.  ``bench-compare`` diffs a fresh benchmark run against the
committed ``benchmarks/history/`` store and, with ``--gate``, exits
non-zero on a >10% rows/sec regression (see :mod:`repro.obs.bench`).

Train-once / sample-many (the staged API)::

    repro-kamino fit bundle_dir/ --epsilon 1.0 --out model.npz
    repro-kamino sample model.npz --schema bundle_dir/schema.json \
        --dcs bundle_dir/dcs.txt --out synth_a/ --n 1000 --seed 1
    repro-kamino sample model.npz --schema bundle_dir/schema.json \
        --dcs bundle_dir/dcs.txt --out synth_b/ --n 50000 --seed 2

``fit`` pays the privacy budget exactly once and writes the released
model artifact; every ``sample`` afterwards is free post-processing
that never touches the private data (it only needs the public schema
and constraints).  ``synthesize`` is the fused convenience (fit one
bundle, draw one instance); pass ``--save-model`` to keep the fitted
artifact for later ``sample`` runs.

``fit`` and ``synthesize`` take ``--method <backend>`` to run any
registered synthesizer (``kamino`` — the default — ``privbayes``,
``pategan``, ``dpvae``, ``nist_mst``, ``cleaning``), all through the
same staged protocol (:mod:`repro.synth`); ``--method auto`` picks a
backend from the bundle's shape via :func:`repro.synth.route`.
``sample`` detects the backend from the model file, so a PrivBayes
artifact and a Kamino artifact serve draws through the same command.

A *bundle* is the directory layout of :mod:`repro.io.bundle`
(``schema.json`` + ``data.csv`` + optional ``dcs.txt``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from repro.constraints.algebra import minimize_dcs
from repro.constraints.discovery import discover_dcs
from repro.constraints.parser import DCParseError
from repro.core.kamino import ConfigError, FittedKamino, Kamino, KaminoConfig
from repro.core.model_io import ModelFormatError
from repro.core.sampling import PrefixScanRequired
from repro.constraints.violations import violating_pairs
from repro.evaluation.marginals import marginal_distances
from repro.evaluation.violations import dc_violation_report
from repro.io.bundle import load_bundle, save_bundle
from repro.io.dc_text import format_dc, load_dcs
from repro.io.schema_json import (
    load_relation, relation_to_dict, save_relation,
)
from repro.obs import (
    DEFAULT_HISTORY_DIR, DEFAULT_THRESHOLD, RunTrace, compare_points,
    environment_mismatch, history_points, load_point, point_label,
    render_compare_markdown, render_trajectory_markdown,
)
from repro.privacy.ledger import PrivacyLedger
from repro.schema.domain import CategoricalDomain, NumericalDomain
from repro.schema.relation import Attribute, Relation
from repro.synth import (
    BackendUnavailable, backend_names, load_fitted, make_synthesizer,
    peek_method, route,
)


# ----------------------------------------------------------------------
# Schema inference
# ----------------------------------------------------------------------
def infer_schema(path: str, categorical_threshold: int = 20,
                 bins: int = 32) -> Relation:
    """Infer a relation from a headed CSV file.

    A column is numerical when every cell parses as a float *and* it has
    more than ``categorical_threshold`` distinct values; otherwise it is
    categorical (distinct values become the domain, sorted).
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        columns: list[list[str]] = [[] for _ in header]
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row with {len(row)} cells, header has "
                    f"{len(header)}")
            for i, cell in enumerate(row):
                columns[i].append(cell)
    if not columns or not columns[0]:
        raise ValueError(f"{path}: no data rows")

    attributes = []
    for name, cells in zip(header, columns):
        distinct = sorted(set(cells))
        numeric = True
        values = []
        for cell in distinct:
            try:
                values.append(float(cell))
            except ValueError:
                numeric = False
                break
        if numeric and len(distinct) > categorical_threshold:
            low, high = min(values), max(values)
            integer = all(v.is_integer() for v in values)
            domain = NumericalDomain(low, high, integer=integer, bins=bins)
        else:
            domain = CategoricalDomain(distinct)
        attributes.append(Attribute(name, domain))
    return Relation(attributes)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_infer_schema(args) -> int:
    relation = infer_schema(args.csv, args.categorical_threshold, args.bins)
    if args.out:
        save_relation(relation, args.out)
        print(f"wrote {args.out}")
    else:
        json.dump(relation_to_dict(relation), sys.stdout, indent=2)
        print()
    return 0


def cmd_check(args) -> int:
    bundle = load_bundle(args.bundle)
    if not bundle.dcs:
        print("bundle has no DCs (dcs.txt missing or empty)")
        return 0
    rows = dc_violation_report(bundle.dcs, bundle.table, {})
    print(f"{'DC':>16s} | {'hard':>4s} | violating pairs %")
    for dc, row in zip(bundle.dcs, rows):
        hardness = "hard" if dc.hard else "soft"
        print(f"{row['dc']:>16s} | {hardness:>4s} | {row['truth']:.4f}")
        if args.show_rows and row["truth"] > 0:
            for ids in violating_pairs(dc, bundle.table,
                                       limit=args.show_rows):
                cells = [f"row {i}: {bundle.table.decoded_row(i)}"
                         for i in ids]
                print("    violation: " + " | ".join(cells))
    return 0


def cmd_discover(args) -> int:
    bundle = load_bundle(args.bundle)
    dcs = discover_dcs(bundle.table, max_violation_rate=args.max_rate,
                       limit=args.limit, seed=args.seed)
    if args.minimize:
        dcs = minimize_dcs(dcs)
    for dc in dcs:
        hardness = "hard" if dc.hard else "soft"
        print(f"{dc.name} {hardness}: "
              f"{format_dc(dc, relation=bundle.relation)}")
    return 0


def _config_from_args(args) -> KaminoConfig:
    """Build the pipeline config a ``fit``/``synthesize`` run asked for."""
    params_override = None
    if args.max_iterations is not None:
        cap = args.max_iterations

        def params_override(params, cap=cap):
            params.iterations = min(params.iterations, cap)
    return KaminoConfig(epsilon=args.epsilon, delta=args.delta,
                        seed=args.seed, params_override=params_override)


def _record_ledger(args, label: str, private: bool, params) -> None:
    if not args.ledger:
        return
    try:
        ledger = PrivacyLedger.load(args.ledger)
    except FileNotFoundError:
        ledger = PrivacyLedger(args.delta)
    if private:
        ledger.record_kamino(label, params)
        ledger.save(args.ledger)
        print(f"ledger {args.ledger}: composed "
              f"epsilon={ledger.spent_epsilon():.4f} "
              f"over {len(ledger)} releases")
    else:
        print("non-private run: nothing recorded in the ledger")


def _print_privacy(fitted_or_result, budget: float, delta: float) -> None:
    params = fitted_or_result.params
    print(f"privacy: epsilon={params.achieved_epsilon:.4f} "
          f"(budget {budget}), delta={delta:g}, "
          f"alpha={params.best_alpha}")


def _finish_trace(args, trace: RunTrace | None) -> None:
    """Write and summarise the run's telemetry, when asked for."""
    if trace is None:
        return
    trace.save(args.trace)
    print(trace.summary())
    print(f"wrote run trace to {args.trace}")


def _resolve_method(args, bundle) -> str:
    """The backend a ``fit``/``synthesize`` run targets.

    ``--method auto`` routes on the bundle's shape (DCs present ->
    kamino; wide unconstrained tables -> a marginal backend).
    """
    method = getattr(args, "method", "kamino")
    if method == "auto":
        method = route(bundle.table, bundle.dcs)
        print(f"--method auto: routed to {method!r} "
              f"({len(bundle.dcs)} DCs, {len(bundle.relation)} columns)")
    return method


def _make_backend(method: str, args, dcs):
    """Build a non-Kamino backend from the shared budget flags."""
    kwargs = {}
    if args.max_iterations is not None and method in ("pategan", "dpvae"):
        kwargs["iterations"] = args.max_iterations
    return make_synthesizer(method, args.epsilon,
                            delta=args.delta, seed=args.seed, dcs=dcs,
                            **kwargs)


def _fit_backend(args, bundle, method: str) -> int:
    """``fit`` for a registry backend (everything but native Kamino)."""
    trace = RunTrace(label=f"fit:{args.bundle}") if args.trace else None
    try:
        synth = _make_backend(method, args, bundle.dcs)
    except BackendUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    fitted = synth.fit(bundle.table, trace=trace)
    fitted.save(args.out)
    print(f"wrote fitted {method} model to {args.out} "
          f"(trained on n={bundle.n}, "
          f"fit {time.perf_counter() - start:.1f}s)")
    print(fitted.ledger.summary())
    if args.ledger:
        print("note: --ledger composes Kamino runs only; this backend's "
              "spends ride in the model's own budget ledger (shown "
              "above)", file=sys.stderr)
    _finish_trace(args, trace)
    return 0


def _synthesize_backend(args, bundle, method: str) -> int:
    """``synthesize`` for a registry backend: staged fit + one draw."""
    trace = RunTrace(label=f"synthesize:{args.bundle}") \
        if args.trace else None
    try:
        synth = _make_backend(method, args, bundle.dcs)
    except BackendUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    fitted = synth.fit(bundle.table, trace=trace)
    table = fitted.sample(args.n, trace=trace)
    if args.save_model:
        fitted.save(args.save_model)
        print(f"wrote fitted model to {args.save_model} "
              f"(sample from it with 'repro-kamino sample')")
    save_bundle(args.out, table, bundle.dcs)
    print(f"wrote synthetic bundle to {args.out} (method={method}, "
          f"n={table.n}, total {time.perf_counter() - start:.1f}s)")
    print(fitted.ledger.summary())
    _finish_trace(args, trace)
    return 0


def _sample_backend(args, method: str) -> int:
    """``sample`` from a saved non-Kamino artifact (free draws)."""
    from repro.io.stream import stream_format_for, write_table_stream

    relation = load_relation(args.schema)
    dcs = load_dcs(args.dcs, relation=relation) if args.dcs else []
    for flag in ("workers", "pool", "chunk_rows"):
        if getattr(args, flag, None) is not None:
            print(f"warning: --{flag.replace('_', '-')} applies to "
                  f"Kamino models only; ignoring it for this {method} "
                  f"model", file=sys.stderr)
    try:
        fitted = load_fitted(args.model, relation, dcs=dcs)
    except BackendUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = RunTrace(label=f"sample:{args.model}") if args.trace else None
    start = time.perf_counter()
    table = fitted.sample(n=args.n, seed=args.seed, trace=trace)
    seconds = time.perf_counter() - start
    stream_fmt = stream_format_for(args.out)
    if stream_fmt is not None:
        rows = write_table_stream(args.out, relation, iter([table]),
                                  fmt=stream_fmt)
        print(f"wrote synthetic table to {args.out} (method={method}, "
              f"n={rows}, {stream_fmt}, {seconds:.1f}s, no privacy "
              f"spend)")
    else:
        save_bundle(args.out, table, dcs)
        print(f"wrote synthetic bundle to {args.out} (method={method}, "
              f"n={table.n}, sampling {seconds:.1f}s, no privacy spend)")
    _finish_trace(args, trace)
    return 0


def cmd_fit(args) -> int:
    """Train once: spend the budget, write the released model artifact."""
    bundle = load_bundle(args.bundle)
    method = _resolve_method(args, bundle)
    if method != "kamino":
        return _fit_backend(args, bundle, method)
    config = _config_from_args(args)
    trace = RunTrace(label=f"fit:{args.bundle}") if args.trace else None
    kamino = Kamino(bundle.relation, bundle.dcs, config=config)
    fitted = kamino.fit(bundle.table, trace=trace,
                        checkpoint_dir=args.checkpoint_dir)
    fitted.save(args.out)
    fit_seconds = sum(fitted.fit_timings.values())
    if fitted.resumed_from is not None:
        print(f"resumed from checkpoint (completed through "
              f"{fitted.resumed_from!r}; that budget was not re-spent)")
    print(f"wrote fitted model to {args.out} "
          f"(trained on n={bundle.n}, fit {fit_seconds:.1f}s)")
    if fitted.private:
        _print_privacy(fitted, config.epsilon, args.delta)
    _record_ledger(args, f"fit:{args.bundle}", fitted.private, fitted.params)
    _finish_trace(args, trace)
    return 0


def cmd_sample(args) -> int:
    """Serve many: draw a synthetic bundle from a saved model.

    Pure post-processing — needs only the public schema (and DCs), never
    the private data, and spends no additional budget.  When ``--out``
    names a table file (``.csv``/``.parquet``/``.arrow``/``.feather``)
    the draw *streams*: bounded-memory chunks go straight to disk, so
    n=10M never materializes in memory.
    """
    from repro.io.stream import stream_format_for, write_table_stream

    detected = peek_method(args.model)  # None => native Kamino format
    requested = getattr(args, "method", None)
    if requested is not None:
        stored = detected or "kamino"
        if requested != stored:
            print(f"error: {args.model} holds a {stored!r} model, not "
                  f"{requested!r}", file=sys.stderr)
            return 2
    if detected is not None and detected != "kamino":
        return _sample_backend(args, detected)

    relation = load_relation(args.schema)
    dcs = load_dcs(args.dcs, relation=relation) if args.dcs else []
    fitted = FittedKamino.load(args.model, relation, dcs)
    pool = args.pool or fitted.config.pool
    n_workers = fitted.config.workers if args.workers is None \
        else args.workers
    missing = sorted(set(fitted.weights) - {dc.name for dc in dcs})
    if missing:
        print(f"warning: model was fitted with DC weights for "
              f"{', '.join(missing)} but they were not supplied via "
              f"--dcs; the draw will not enforce them (and will differ "
              f"from the fit-time draw)", file=sys.stderr)
    stream_fmt = stream_format_for(args.out)
    if stream_fmt is not None:
        if args.trace:
            print("warning: --trace is not recorded for streamed draws; "
                  "ignoring it", file=sys.stderr)
        start = time.perf_counter()
        chunks = fitted.sample_stream(n=args.n, seed=args.seed,
                                      chunk_rows=args.chunk_rows)
        try:
            rows = write_table_stream(args.out, relation, chunks,
                                      fmt=stream_fmt)
        except RuntimeError as exc:  # e.g. pyarrow not installed
            print(f"error: {exc}", file=sys.stderr)
            return 2
        chunk_rows = (fitted.config.stream_chunk_rows
                      if args.chunk_rows is None else args.chunk_rows)
        print(f"streamed synthetic table to {args.out} "
              f"(n={rows}, {stream_fmt}, chunk_rows={chunk_rows}, "
              f"{time.perf_counter() - start:.1f}s via the blocked "
              f"engine, no privacy spend)")
        return 0
    trace = RunTrace(label=f"sample:{args.model}") if args.trace else None
    result = fitted.sample(n=args.n, seed=args.seed,
                           workers=n_workers, pool=args.pool, trace=trace)
    save_bundle(args.out, result.table, fitted.dcs)
    workers = f", workers={n_workers} ({pool} pool)" \
        if n_workers != 1 else ""
    print(f"wrote synthetic bundle to {args.out} "
          f"(n={result.table.n}, sampling "
          f"{result.timings['Sam.']:.1f}s via the blocked engine"
          f"{workers}, no privacy spend)")
    _finish_trace(args, trace)
    return 0


def cmd_synthesize(args) -> int:
    bundle = load_bundle(args.bundle)
    method = _resolve_method(args, bundle)
    if method != "kamino":
        return _synthesize_backend(args, bundle, method)
    config = _config_from_args(args)
    # One trace spans the whole pipeline: fit phases + the draw.
    trace = RunTrace(label=f"synthesize:{args.bundle}") \
        if args.trace else None
    kamino = Kamino(bundle.relation, bundle.dcs, config=config)
    fitted = kamino.fit(bundle.table, trace=trace)
    result = fitted.sample(n=args.n, workers=args.workers, pool=args.pool,
                           trace=trace)
    if args.save_model:
        fitted.save(args.save_model)
        print(f"wrote fitted model to {args.save_model} "
              f"(sample from it with 'repro-kamino sample')")
    save_bundle(args.out, result.table, bundle.dcs)
    print(f"wrote synthetic bundle to {args.out} "
          f"(n={result.table.n}, total {result.total_seconds:.1f}s)")
    if fitted.private:
        _print_privacy(result, config.epsilon, args.delta)
    _record_ledger(args, f"synthesize:{args.bundle}", fitted.private,
                   result.params)
    _finish_trace(args, trace)
    return 0


def cmd_bench_compare(args) -> int:
    """Diff a fresh benchmark point against the committed history.

    Prints the trajectory table over every committed point plus a
    per-(dataset, engine) comparison against the newest one; with
    ``--gate``, a comparable rows/sec drop beyond ``--threshold`` exits
    non-zero (the CI perf gate).  Points measured at a different ``n``
    are reported but never gated.
    """
    current = load_point(args.current)
    points = history_points(args.history)
    if not points:
        print(f"no committed history points under {args.history}; "
              f"nothing to compare against")
        return 0
    print(render_trajectory_markdown(points))
    print()
    base_name, baseline = points[-1]
    rows = compare_points(current, baseline, threshold=args.threshold)
    report = render_compare_markdown(rows, point_label(base_name, baseline),
                                     threshold=args.threshold)
    print(report)
    for line in environment_mismatch(current, baseline):
        print(f"warning: environment mismatch — {line}", file=sys.stderr)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(render_trajectory_markdown(points) + "\n\n"
                    + report + "\n")
        print(f"wrote markdown report to {args.markdown}")
    regressions = [r for r in rows if r["regression"]]
    if regressions:
        names = ", ".join(f"{r['dataset']}/{r['engine']} "
                          f"({r['change']:+.1%})" for r in regressions)
        print(f"perf regression vs {base_name}: {names}", file=sys.stderr)
        if args.gate:
            return 1
    return 0


def cmd_evaluate(args) -> int:
    true_bundle = load_bundle(args.true_bundle)
    synth_bundle = load_bundle(args.synth_bundle)
    if true_bundle.relation.names != synth_bundle.relation.names:
        print("error: bundles have different schemas", file=sys.stderr)
        return 2
    if true_bundle.dcs:
        print("== Metric I: DC violating-pair % (true vs synthetic) ==")
        rows = dc_violation_report(true_bundle.dcs, true_bundle.table,
                                   {"synthetic": synth_bundle.table})
        for row in rows:
            print(f"  {row['dc']:>16s}: true={row['truth']:.4f}  "
                  f"synthetic={row['synthetic']:.4f}")
    for alpha in args.alpha:  # parser default: (1, 2)
        dists = [d for _, d in marginal_distances(
            true_bundle.table, synth_bundle.table, alpha=alpha,
            max_sets=args.max_sets, seed=args.seed)]
        arr = np.asarray(dists)
        print(f"== Metric III: {alpha}-way marginal TVD over "
              f"{arr.size} sets ==")
        print(f"  mean={arr.mean():.4f}  median={np.median(arr):.4f}  "
              f"max={arr.max():.4f}")
    return 0


def cmd_ledger(args) -> int:
    ledger = PrivacyLedger.load(args.ledger)
    print(ledger.summary())
    return 0


def cmd_serve(args) -> int:
    """Run the long-running synthesis service (see docs/SERVING.md).

    Holds fitted artifacts hot behind the model registry, serves
    deterministic draws over HTTP with an ETag'd response cache, and
    applies queue backpressure under load.  Register artifacts up front
    with repeated ``--register NAME:MODEL:SCHEMA[:DCS]`` flags or at
    runtime via ``POST /models``.
    """
    from repro.serve import ServeConfig, KaminoServer

    specs = []
    for spec in args.register or []:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            print(f"error: --register wants NAME:MODEL:SCHEMA[:DCS], "
                  f"got {spec!r}", file=sys.stderr)
            return 2
        specs.append(parts)
    config = ServeConfig(
        models_dir=args.models_dir, cache_dir=args.cache_dir,
        host=args.host, port=args.port, hot_limit=args.hot_limit,
        cache_max_bytes=args.cache_max_bytes,
        max_pending=args.max_pending, timeout=args.timeout,
        workers=args.workers, pool=args.pool,
        chunk_rows=args.chunk_rows, quiet=args.quiet)
    server = KaminoServer(config)
    for parts in specs:
        record = server.registry.register(
            parts[0], parts[1], parts[2],
            dcs_path=parts[3] if len(parts) == 4 else None)
        print(f"registered {record.name}:{record.version} "
              f"(method={record.method}, {record.nbytes} bytes)")
    names = server.registry.model_names()
    print(f"repro-kamino serve on {server.base_url} — "
          f"{len(names)} model(s) registered "
          f"({', '.join(names) if names else 'register via POST /models'})")
    print(f"models: {config.models_dir}  cache: {config.cache_dir}  "
          f"hot_limit={config.hot_limit} max_pending={config.max_pending} "
          f"timeout={config.timeout:g}s")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
    return 0


# ----------------------------------------------------------------------
# Parser wiring
# ----------------------------------------------------------------------
def _epsilon(text: str) -> float:
    """``--epsilon``: a positive budget, or ``inf``/``none`` for a
    non-private run."""
    if text in ("inf", "none"):
        return float("inf")
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a number: {text!r} (use a positive budget, or 'inf')"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be positive, got {text!r} (or 'inf' for non-private)")
    return value


def _non_negative_int(text: str) -> int:
    """``--seed``, ``--n``, ``--workers``, ``--max-iterations``: a
    non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """``--chunk-rows``: an integer >= 1."""
    value = _non_negative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


class _AppendOverDefault(argparse.Action):
    """``action="append"`` with a usable parser-level default.

    Plain ``append`` mutates its default in place, so a non-``None``
    default would accumulate values across invocations; this action
    replaces the (immutable) default with a fresh list on first use.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        current = getattr(namespace, self.dest, None)
        if current is self.default or current is None:
            current = []
            setattr(namespace, self.dest, current)
        current.append(values)


def _add_budget_arguments(p: argparse.ArgumentParser) -> None:
    """Budget/seed/override flags shared by ``fit`` and ``synthesize``."""
    p.add_argument("--method", choices=tuple(backend_names()) + ("auto",),
                   default="kamino",
                   help="synthesis backend (default: kamino); 'auto' "
                        "routes on the bundle's shape — DCs present -> "
                        "kamino, wide unconstrained tables -> a "
                        "marginal method")
    p.add_argument("--epsilon", type=_epsilon, default=1.0,
                   help="privacy budget, > 0; 'inf' (or 'none') for "
                        "non-private")
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--max-iterations", type=_non_negative_int,
                   default=None, help="cap DP-SGD iterations (fast runs)")
    p.add_argument("--ledger", default=None,
                   help="JSON privacy ledger to append this run to")


def _add_trace_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="JSON",
                   help="write run telemetry (phase timers, per-column "
                        "sampling stats, index probe counts) to this "
                        "JSON file and print its summary; never changes "
                        "the run's output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-kamino",
        description="Constraint-aware differentially private data "
                    "synthesis (Kamino, VLDB 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer-schema",
                       help="infer schema.json from a raw CSV")
    p.add_argument("csv")
    p.add_argument("--out", default=None)
    p.add_argument("--categorical-threshold", type=int, default=20)
    p.add_argument("--bins", type=int, default=32)
    p.set_defaults(fn=cmd_infer_schema)

    p = sub.add_parser("check", help="report DC violations of a bundle")
    p.add_argument("bundle")
    p.add_argument("--show-rows", type=int, default=0, metavar="N",
                   help="print up to N offending row (pair)s per DC")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("discover",
                       help="discover approximate DCs from a bundle")
    p.add_argument("bundle")
    p.add_argument("--limit", type=int, default=16)
    p.add_argument("--max-rate", type=float, default=5.0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--minimize", action="store_true",
                   help="drop duplicate/trivial/implied constraints")
    p.set_defaults(fn=cmd_discover)

    p = sub.add_parser("fit",
                       help="train a Kamino model on a bundle once "
                            "(spends the budget), write the model file")
    p.add_argument("bundle")
    p.add_argument("--out", required=True,
                   help="output .npz model file")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="persist a crash-safe checkpoint after each fit "
                        "phase; re-running the same fit resumes from the "
                        "newest valid checkpoint without re-spending "
                        "budget (cleared once the fit completes)")
    _add_budget_arguments(p)
    _add_trace_argument(p)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("sample",
                       help="draw a synthetic bundle from a fitted model "
                            "(free post-processing, no private data)")
    p.add_argument("model", help=".npz file written by 'fit'")
    p.add_argument("--method", choices=tuple(backend_names()),
                   default=None,
                   help="assert which backend wrote the model (the "
                        "format is self-describing; this flag only "
                        "fails fast on a mismatch)")
    p.add_argument("--schema", required=True,
                   help="public schema.json the model was fitted over")
    p.add_argument("--dcs", default=None,
                   help="denial constraints file (dcs.txt) to enforce")
    p.add_argument("--out", required=True,
                   help="output bundle directory, or a table file "
                        "(.csv/.parquet/.arrow/.feather) to *stream* "
                        "the draw to in bounded-memory chunks")
    p.add_argument("--n", type=_non_negative_int, default=None,
                   help="synthetic rows (default: fitted input size)")
    p.add_argument("--seed", type=_non_negative_int, default=None,
                   help="draw seed (default: reproduce the fit-time "
                        "draw, given the same --dcs)")
    p.add_argument("--workers", type=_non_negative_int, default=None,
                   help="shard the blocked engine's column passes over "
                        "N workers; 0 resolves from os.cpu_count() at "
                        "draw time (output is bit-identical for any "
                        "worker count; default: the fitted config's "
                        "workers)")
    p.add_argument("--pool", choices=("thread", "process"), default=None,
                   help="execution lane for --workers > 1: shared-"
                        "memory threads or worker processes (default: "
                        "the fitted config's pool; either is "
                        "bit-identical to workers=1)")
    p.add_argument("--chunk-rows", type=_positive_int, default=None,
                   help="rows per streamed chunk when --out is a table "
                        "file (default: the fitted config's "
                        "stream_chunk_rows; pure scheduling)")
    _add_trace_argument(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("synthesize",
                       help="run Kamino on a bundle, write a synthetic "
                            "bundle (fused fit + sample)")
    p.add_argument("bundle")
    p.add_argument("--n", type=_non_negative_int, default=None,
                   help="synthetic rows (default: same as input)")
    p.add_argument("--out", required=True)
    p.add_argument("--save-model", default=None, metavar="MODEL",
                   help="also persist the fitted model for later "
                        "'sample' runs")
    p.add_argument("--workers", type=_non_negative_int, default=None,
                   help="workers for the blocked engine's sampling "
                        "pass; 0 = auto from os.cpu_count() (default: "
                        "the config's workers)")
    p.add_argument("--pool", choices=("thread", "process"), default=None,
                   help="execution lane for --workers > 1 (default: "
                        "the config's pool)")
    _add_budget_arguments(p)
    _add_trace_argument(p)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("evaluate",
                       help="compare a synthetic bundle against the truth")
    p.add_argument("true_bundle")
    p.add_argument("synth_bundle")
    p.add_argument("--alpha", type=int, action=_AppendOverDefault,
                   default=(1, 2), metavar="K",
                   help="marginal order(s); repeatable (default: 1 2)")
    p.add_argument("--max-sets", type=int, default=30)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ledger", help="print a privacy ledger summary")
    p.add_argument("ledger")
    p.set_defaults(fn=cmd_ledger)

    p = sub.add_parser("serve",
                       help="run the synthesis service: hot model "
                            "registry, deterministic draw cache, and "
                            "HTTP sampling over the staged engine")
    p.add_argument("--models-dir", required=True,
                   help="registry root (models/<name>/<version>.*)")
    p.add_argument("--cache-dir", default=None,
                   help="draw-cache directory (default: "
                        "<models-dir>/_cache)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="listen port (0 picks a free one; default 8765)")
    p.add_argument("--register", action="append", metavar="SPEC",
                   default=None,
                   help="register an artifact at startup as "
                        "NAME:MODEL:SCHEMA[:DCS] (repeatable)")
    p.add_argument("--hot-limit", type=int, default=8,
                   help="max fitted models held in memory (LRU beyond)")
    p.add_argument("--cache-max-bytes", type=int, default=256 << 20,
                   help="draw-cache size bound in bytes (default 256MiB)")
    p.add_argument("--max-pending", type=int, default=16,
                   help="max distinct renders in flight before 429s")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-request render wait in seconds before 503s")
    p.add_argument("--workers", type=_non_negative_int, default=None,
                   help="shard Kamino draws over N workers (0 = auto "
                        "from cpu_count; bit-identical to any other "
                        "count — the cache stays coherent)")
    p.add_argument("--pool", choices=("thread", "process"), default=None,
                   help="execution lane for --workers > 1")
    p.add_argument("--chunk-rows", type=_positive_int, default=None,
                   help="rows per streamed render chunk (default: each "
                        "model's own stream_chunk_rows)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-request access logging")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("bench-compare",
                       help="diff a benchmark run against the committed "
                            "perf history; --gate fails on regression")
    p.add_argument("current", nargs="?", default="BENCH_exp10.json",
                   help="fresh benchmark JSON (default: BENCH_exp10.json)")
    p.add_argument("--history", default=DEFAULT_HISTORY_DIR,
                   help="committed history directory "
                        "(default: benchmarks/history)")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="rows/sec drop that counts as a regression "
                        "(default: 0.10)")
    p.add_argument("--gate", action="store_true",
                   help="exit non-zero when any comparable "
                        "dataset/engine regressed beyond the threshold")
    p.add_argument("--markdown", default=None, metavar="MD",
                   help="also write the trajectory + comparison report "
                        "to this markdown file")
    p.set_defaults(fn=cmd_bench_compare)
    return parser


#: Errors that describe bad input, not a bug: ``main`` reports them as
#: one ``error:`` line and exit status 2 instead of a traceback.
_INPUT_ERRORS = (FileNotFoundError, DCParseError, ModelFormatError,
                 ConfigError, PrefixScanRequired)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
