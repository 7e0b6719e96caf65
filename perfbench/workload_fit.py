"""The ``fit`` workload: the budget-consuming path.

Each round runs ``Kamino.fit`` and ``FittedKamino.save`` on adult,
tpch, tax and br2000 at n=2000 with epsilon=1, delta=1e-6 and no
``params_override``: the real Algorithm 6 search and uncapped DP-SGD.
br2000 is the only dataset with soft DCs, so it alone runs Algorithm 5.
No draw or serve layer runs inside a round.  A calibration
(``common.calibrate``) runs before and after each fit, outside its
timing; a round's end-to-end seconds are its fits' and saves' seconds
at the host's quiet speed, ``fit_s`` the same seconds as measured.
After the rounds, each saved artifact is loaded back and drawn from
once, untimed, to check that it round-trips and keeps the hard DCs.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from perfbench.common import (
    Checks, Measurement, Spans, another_round, artifact_digest, calibrate,
    hard_violations, median, peak_rss_mb, slowdown, steady_seconds,
)
from perfbench.probes import FIT_PHASES, CallTimer, fit_probes

DATASETS = ("adult", "tpch", "tax", "br2000")
ROWS = 2000
#: Rows of the check draw from each reloaded artifact.
VERIFY_ROWS = 1000
EPSILON = 1.0
DELTA = 1e-6
#: Set-up is only data generation, 16-30 ms, each repeat followed by a
#: 0.1 s calibration: 21 repeats take about three seconds.
SETUP_REPEATS = 21


def setup(ctx, repeat: int):
    from repro.datasets import load
    return {"data": {name: load(name, n=ROWS, seed=ctx.seed)
                     for name in DATASETS}}


def prepare(ctx, state, traced: bool) -> Checks:
    return Checks()


def teardown(state) -> None:
    pass


def _check_fit(checks: Checks, name: str, fitted, path: str,
               digests: dict) -> None:
    from repro.synth.kamino import FittedKaminoSynthesizer
    digest = artifact_digest(path)
    first = digests.setdefault(name, digest)
    checks.expect(digest == first,
                  f"fit {name}: artifact content differs between rounds")
    native = fitted.ledger.total_epsilon()
    checks.expect(abs(native - fitted.params.achieved_epsilon) <= 1e-9
                  and native <= EPSILON * (1 + 1e-9),
                  f"fit {name}: ledger total {native} is not the "
                  f"accountant's {fitted.params.achieved_epsilon}")
    protocol = FittedKaminoSynthesizer(fitted).ledger.total_epsilon()
    checks.expect(protocol == EPSILON,
                  f"fit {name}: protocol ledger total {protocol} != "
                  f"configured epsilon {EPSILON}")


def measure(ctx, state, traced: bool) -> Measurement:
    from repro.core import FittedKamino, Kamino
    from repro.obs import RunTrace

    data = state["data"]
    checks, spans, timer = Checks(), Spans(), CallTimer()
    run_traces: list = []
    # Per round: the seconds of its fits and saves as measured and at the
    # host's quiet speed, its wall time (with the calibrations) and the
    # host's slowdown over its calibrations.
    rounds: list[float] = []
    steady: list[float] = []
    walls: list[float] = []
    slowdowns: list[float] = []
    digests: dict = {}
    paths: dict = {}
    probes = fit_probes(spans, timer) if traced else nullcontext()
    started = time.perf_counter()
    with probes:
        while another_round(walls, started, ctx.seconds, min_rounds=3):
            fits, pieces, calibrations = {}, [], []
            with spans.span("fit.round", rid=len(rounds)):
                t_round = time.perf_counter()
                with spans.span("bench.calibrate"):
                    calibrations.append(calibrate())
                for name in DATASETS:
                    ds = data[name]
                    paths[name] = ctx.path(f"fit-{name}.npz")
                    trace = RunTrace() if traced else None
                    with spans.span("fit.dataset", rid=name):
                        t0 = time.perf_counter()
                        fitted = Kamino(ds.relation, ds.dcs,
                                        epsilon=EPSILON, delta=DELTA,
                                        seed=ctx.seed).fit(ds.table,
                                                           trace=trace)
                        fitted.save(paths[name])
                        pieces.append(time.perf_counter() - t0)
                    with spans.span("bench.calibrate"):
                        calibrations.append(calibrate())
                    fits[name] = fitted
                    if trace is not None:
                        run_traces.append(trace)
                walls.append(time.perf_counter() - t_round)
            rounds.append(sum(pieces))
            steady.append(steady_seconds(pieces, calibrations))
            slowdowns.append(slowdown(calibrations))
            for name, fitted in fits.items():
                checks.op()
                _check_fit(checks, name, fitted, paths[name], digests)

    # Load each artifact back and draw once: model_io round trip + DCs.
    for name in DATASETS:
        checks.op()
        ds = data[name]
        loaded = FittedKamino.load(paths[name], ds.relation, ds.dcs)
        table = loaded.sample(n=VERIFY_ROWS, seed=ctx.seed, workers=1).table
        avoidable, _ = hard_violations(table, loaded.dcs, loaded.sequence)
        checks.expect(avoidable == 0, f"fit {name}: reloaded draw has "
                      f"{avoidable} avoidable hard-DC violations")

    fit_s, steady_s = median(rounds), median(steady)
    e2e = {
        "requests_per_s": 1.0 / steady_s,
        "request_p50_ms": steady_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    m = Measurement(e2e=e2e, layers={
        "fit_s": fit_s, "bench.host_slowdown": median(slowdowns)},
        main_s=steady_s, checks=checks, spans=spans)
    if traced:
        m.layers.update(_layers(rounds, spans, timer, run_traces))
    return m


def _layers(rounds, spans: Spans, timer: CallTimer, run_traces) -> dict:
    per = float(len(rounds))
    phase_s = {name: spans.total(name) for _, name in FIT_PHASES}
    save_s = spans.total("core.model_io.save")
    traced_phases = sum(sum(t.fit_phases.values()) for t in run_traces)
    wrapped = sum(phase_s.values())
    steps = timer.calls["step"]
    return {
        "core.sequencing.s": phase_s["core.sequencing"] / per,
        "core.params.search_s": phase_s["core.params"] / per,
        "core.training.dp_sgd_s": phase_s["core.training"] / per,
        "core.weights.s": phase_s["core.weights"] / per,
        "core.model_io.save_s": save_s / per,
        "core.fit.phase_coverage": (wrapped + save_s) / sum(rounds),
        "core.fit.runtrace_gap":
            abs(traced_phases - wrapped) / max(traced_phases, 1e-12),
        "privacy.rdp.rdp_sgm.calls": timer.calls["rdp_sgm"] / per,
        "privacy.rdp.rdp_sgm.s": timer.seconds["rdp_sgm"] / per,
        "privacy.rdp.kamino_epsilon.calls":
            timer.calls["kamino_epsilon"] / per,
        "privacy.dpsgd.steps": steps / per,
        "privacy.dpsgd.step_ms":
            1e3 * timer.seconds["step"] / steps if steps else 0.0,
    }
