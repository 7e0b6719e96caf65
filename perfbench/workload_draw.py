"""The ``draw`` workload: single-shot Algorithm 3 draws.

Set-up fits adult, tax, tpch and br2000 at n=800, saves each artifact
and loads it back from disk.  Each round then draws, with
``workers=1``, adult n=10k, tax n=10k, tpch n=50k and br2000 n=5k, plus
one ``workers=2, pool="process"`` draw of tax n=10k with the same seed
as its ``workers=1`` draw.  Together they run every engine lane:
num-sequential (adult ``cap_gain``, br2000 ``a5``), num-blocked (tax
``salary``, adult ``edu_num``), cat-fd-lane (tpch, tax), unconstrained,
the sharded lanes and the process pool.  The fit layers and the stream
writer stay idle.  A calibration (``common.calibrate``) runs before
and after each draw, outside its timing; a round's end-to-end seconds
are its four ``workers=1`` draws' seconds at the host's quiet speed.
"""

from __future__ import annotations

import time

from perfbench.common import (
    Checks, Measurement, Spans, another_round, calibrate, hard_violations,
    median, peak_rss_mb, slowdown, steady_seconds, table_digest,
)
from perfbench.probes import engine_layers, lane_seconds

#: Fit size of the set-up artifacts, and the draw size per dataset.
FIT_ROWS = 800
DRAWS = (("adult", 10_000), ("tax", 10_000), ("tpch", 50_000),
         ("br2000", 5_000))
POOL_DATASET = "tax"
EPSILON = 1.0
DELTA = 1e-6
SETUP_REPEATS = 3


def fit_artifacts(ctx, names, repeat: int, rows: int = FIT_ROWS):
    """Fit ``names`` at ``rows`` from the workload seed and save each
    model with its schema and DC sidecars.  Returns name -> paths."""
    from repro.core import Kamino
    from repro.datasets import load
    from repro.io import save_dcs, save_relation

    out = {}
    for name in names:
        ds = load(name, n=rows, seed=ctx.seed)
        fitted = Kamino(ds.relation, ds.dcs, epsilon=EPSILON, delta=DELTA,
                        seed=ctx.seed).fit(ds.table)
        paths = {"model": ctx.path(f"setup{repeat}", f"{name}.npz"),
                 "schema": ctx.path(f"setup{repeat}", f"{name}.schema.json"),
                 "dcs": ctx.path(f"setup{repeat}", f"{name}.dcs.txt")}
        fitted.save(paths["model"])
        save_relation(ds.relation, paths["schema"])
        save_dcs(ds.dcs, paths["dcs"], relation=ds.relation)
        out[name] = paths
    return out


def load_artifact(paths):
    from repro.core import FittedKamino
    from repro.io import load_dcs, load_relation
    relation = load_relation(paths["schema"])
    dcs = load_dcs(paths["dcs"], relation=relation)
    return FittedKamino.load(paths["model"], relation, dcs)


def setup(ctx, repeat: int):
    paths = fit_artifacts(ctx, [name for name, _ in DRAWS], repeat)
    return {"models": {name: load_artifact(p) for name, p in paths.items()}}


def prepare(ctx, state, traced: bool) -> Checks:
    return Checks()


def teardown(state) -> None:
    pass


def draw_seed(ctx, round_no: int) -> int:
    return ctx.seed * 1000 + round_no


def measure(ctx, state, traced: bool) -> Measurement:
    from repro.obs import RunTrace

    models = state["models"]
    checks, spans = Checks(), Spans()
    rounds, w1_rates, w2_rates, w2_over_w1 = [], [], [], []
    steady, walls, slowdowns = [], [], []
    runs, w1_wall, w1_lanes = [], 0.0, 0.0
    forced_violations = 0
    started = time.perf_counter()
    while another_round(walls, started, ctx.seconds):
        seed = draw_seed(ctx, len(rounds))
        tables, w1_s, rows, calibrations = {}, {}, 0, []
        with spans.span("draw.round", rid=len(rounds)):
            t_round = time.perf_counter()
            with spans.span("bench.calibrate"):
                calibrations.append(calibrate())
            for name, n in DRAWS:
                trace = RunTrace() if traced else None
                with spans.span("core.engine.sample", rid=f"{name}:w1"):
                    t0 = time.perf_counter()
                    tables[name] = models[name].sample(
                        n=n, seed=seed, workers=1, trace=trace).table
                    w1_s[name] = time.perf_counter() - t0
                with spans.span("bench.calibrate"):
                    calibrations.append(calibrate())
                rows += n
                if trace is not None:
                    run = trace.samples[0]
                    runs.append((name, run))
                    w1_wall += run.seconds
                    w1_lanes += lane_seconds(run)
            trace = RunTrace() if traced else None
            with spans.span("core.engine.sample", rid=f"{POOL_DATASET}:w2"):
                t0 = time.perf_counter()
                pooled = models[POOL_DATASET].sample(
                    n=dict(DRAWS)[POOL_DATASET], seed=seed, workers=2,
                    pool="process", trace=trace).table
                w2_s = time.perf_counter() - t0
            with spans.span("bench.calibrate"):
                calibrations.append(calibrate())
            if trace is not None:
                runs.append((f"{POOL_DATASET}-w2", trace.samples[0]))
            walls.append(time.perf_counter() - t_round)
        rounds.append(sum(w1_s.values()) + w2_s)
        # The end-to-end request is the four workers=1 draws: the
        # workers=2 draw needs both cores, so a busy neighbour slows it
        # more than the single-threaded calibration shows.
        steady.append(steady_seconds(list(w1_s.values()), calibrations[:-1]))
        slowdowns.append(slowdown(calibrations))
        w1_rates.append(rows / sum(w1_s.values()))
        w2_rates.append(pooled.n / w2_s)
        w2_over_w1.append(w2_s / w1_s[POOL_DATASET])
        for name, _ in DRAWS:
            checks.op()
            model = models[name]
            avoidable, forced = hard_violations(tables[name], model.dcs,
                                                model.sequence)
            forced_violations += forced
            checks.expect(avoidable == 0, f"draw {name} seed={seed}: "
                          f"{avoidable} avoidable hard-DC violations")
        checks.op()
        checks.expect(table_digest(pooled) == table_digest(
            tables[POOL_DATASET]), f"draw {POOL_DATASET} seed={seed}: "
            f"workers=2 digest differs from workers=1")

    steady_s = median(steady)
    e2e = {
        "requests_per_s": 1.0 / steady_s,
        "request_p50_ms": steady_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = {"draw_rows_per_s": median(w1_rates),
              "draw_w2_rows_per_s": median(w2_rates),
              "bench.host_slowdown": median(slowdowns)}
    if traced:
        per = float(len(rounds))
        layers.update({k: v / per for k, v in engine_layers(runs).items()})
        layers["core.engine.pool.w2_over_w1"] = median(w2_over_w1)
        layers["core.engine.lane_coverage"] = w1_lanes / w1_wall
        layers["constraints.forced_violations"] = forced_violations / per
    return Measurement(e2e=e2e, layers=layers, main_s=steady_s,
                       checks=checks, spans=spans)
