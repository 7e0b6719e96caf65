"""The ``serve`` workload: draws over HTTP under an open-loop load.

Set-up fits adult, tax and tpch at n=800, starts a ``KaminoServer`` in
its own process (``perfbench.serve_launcher``) with an empty draw
cache, registers the three artifacts and warms a hot set of
``(model, n=500, seed)`` keys.  One generator then sends requests at
``RATE`` per second, evenly spaced, over ``CONNECTIONS`` keep-alive
connections: about 75% GETs of the hot set (cache hits), 15%
``If-None-Match`` revalidations of it (304) and 10% fresh keys
(renders), a fifth of which are sent twice back to back so that the
executor coalesces them.  Latency counts from each request's due time.
The schedule runs in ``SEGMENTS`` parts with a calibration
(``common.calibrate``) before the first and after each, while no
request is in flight; ``request_p50_ms`` is the median latency at the
host's quiet speed, each divided by the slowdown over its part's two
calibrations.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys

from perfbench.common import (
    MAX_GEN_LAG_MS, Checks, Measurement, Spans, bytes_digest, calibrate,
    hard_violations, log, median, percentile, slowdown, tail_percentile,
)
from perfbench.loadgen import Request, run_open_loop
from perfbench.workload_draw import fit_artifacts, load_artifact

MODELS = ("adult", "tax", "tpch")
DRAW_ROWS = 500
HOT_SEEDS = 4
#: Offered load in requests per second, below half of what this mix
#: completes when saturated on the 2-core machine README.md describes.
#: A 16-second run sends 200 requests: ten beyond p95.
RATE = 12.5
CONNECTIONS = 2
HIT, REVALIDATE, MISS = "hit", "revalidate", "miss"
#: Renders are 10% of requests, not 25%: with a quarter of requests
#: rendering, a render is running half the time at this rate, the
#: median request sits at the knee between answered-alone (~3 ms) and
#: waited-behind-a-render (~40 ms), and request_p50_ms swung from 6 to
#: 136 ms across seeds (README.md, "Choices").
MIX = ((HIT, 0.75), (REVALIDATE, 0.15), (MISS, 0.10))
DUPLICATE_SHARE = 0.2
SETUP_REPEATS = 3
#: Parts of the schedule, split by due time (a duplicated render stays
#: with its twin), each between two calibrations.
SEGMENTS = 4


class ServerProcess:
    """A launcher child: its port, and its stats once stopped."""

    def __init__(self, ctx, label: str, traced: bool):
        base = os.path.join(ctx.work, label)
        self.spans_path = os.path.join(base, "spans.json") if traced \
            else None
        command = [sys.executable, "-m", "perfbench.serve_launcher",
                   "--models-dir", os.path.join(base, "models"),
                   "--cache-dir", os.path.join(base, "cache")]
        if traced:
            command += ["--spans", self.spans_path]
        os.makedirs(base, exist_ok=True)
        # One malloc arena: with one per handler thread, the server's
        # peak RSS read 180-224 MB over ten seeds, 159-169 MB with one.
        env = dict(ctx.child_env(), MALLOC_ARENA_MAX="1")
        self.proc = subprocess.Popen(command, cwd=ctx.root,
                                     env=env, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(10)
            raise RuntimeError(f"serve launcher exited "
                               f"{self.proc.returncode} before listening")
        self.port = json.loads(line)["port"]
        self.url = f"http://127.0.0.1:{self.port}"

    def stop(self) -> dict:
        """Stop the server and wait for it; returns its last report."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = [line for line in out.splitlines() if line]
        return json.loads(lines[-1]) if lines else {}


def hot_keys(ctx):
    return [(model, ctx.seed * 1000 + j)
            for model in MODELS for j in range(HOT_SEEDS)]


def sample_path(model: str, seed: int) -> str:
    return f"/sample?model={model}&n={DRAW_ROWS}&seed={seed}&format=csv"


def start_server(ctx, label: str, paths, traced: bool):
    """Start, register and warm a server; returns it with the hot set's
    ``(etag, sha256)`` by key."""
    from repro.serve import ServeClient

    server = ServerProcess(ctx, label, traced)
    try:
        client = ServeClient(server.url)
        for model in MODELS:
            p = paths[model]
            client.register(model, p["model"], p["schema"], dcs=p["dcs"])
        hot = {}
        for model, seed in hot_keys(ctx):
            resp = client.sample(model, n=DRAW_ROWS, seed=seed)
            if resp.status != 200:
                raise RuntimeError(f"warming {model} seed={seed}: "
                                   f"HTTP {resp.status}")
            hot[(model, seed)] = (resp.etag, bytes_digest(resp.body))
    except BaseException:
        server.stop()
        raise
    return server, hot


def setup(ctx, repeat: int):
    paths = fit_artifacts(ctx, MODELS, repeat)
    server, hot = start_server(ctx, f"server{repeat}", paths, traced=False)
    return {"paths": paths, "server": server, "hot": hot}


def teardown(state) -> None:
    if state.get("server") is not None:
        state["server"].stop()
        state["server"] = None


def prepare(ctx, state, traced: bool) -> Checks:
    """Export every hot key directly through ``FittedKamino.sample``:
    the bytes the server must send."""
    from repro.io.stream import write_table_stream

    checks = Checks()
    models = {m: load_artifact(state["paths"][m]) for m in MODELS}
    for model, seed in hot_keys(ctx):
        fitted = models[model]
        table = fitted.sample(n=DRAW_ROWS, seed=seed).table
        path = ctx.path("export", f"{model}-{seed}.csv")
        write_table_stream(path, fitted.relation, [table], fmt="csv")
        with open(path, "rb") as f:
            exported = bytes_digest(f.read())
        checks.op()
        avoidable, _ = hard_violations(table, fitted.dcs, fitted.sequence)
        checks.expect(avoidable == 0 and exported == state["hot"][
            (model, seed)][1], f"serve warm {model} seed={seed}: body "
            f"differs from the direct export or violates a hard DC")
    state["models"] = models
    return checks


def schedule(ctx, hot) -> list[Request]:
    """``RATE * seconds`` requests, evenly spaced; the seed picks each
    request's kind and key."""
    rng = random.Random(ctx.seed)
    keys = sorted(hot)
    requests, fresh = [], ctx.seed * 1000 + 100
    while len(requests) < int(RATE * ctx.seconds):
        due = len(requests) / RATE
        pick, kind = rng.random(), MISS
        for kind, share in MIX:
            if pick < share:
                break
            pick -= share
        rid = str(len(requests))
        if kind == MISS:
            model, seed = rng.choice(MODELS), fresh
            fresh += 1
            requests.append(Request(due, sample_path(model, seed),
                                    {"X-Bench-Id": rid}, (MISS, model)))
            if rng.random() < DUPLICATE_SHARE:
                requests.append(Request(
                    due, sample_path(model, seed),
                    {"X-Bench-Id": str(len(requests))}, (MISS, model)))
            continue
        model, seed = rng.choice(keys)
        headers = {"X-Bench-Id": rid}
        if kind == REVALIDATE:
            headers["If-None-Match"] = hot[(model, seed)][0]
        requests.append(Request(due, sample_path(model, seed), headers,
                                (kind, (model, seed))))
    return requests


def _check(checks: Checks, out, hot, bodies: dict) -> None:
    kind, key = out.request.tag
    checks.op()
    label = f"serve request {out.request.headers['X-Bench-Id']} ({kind})"
    if out.error or out.status == 429 or out.status >= 500:
        checks.expect(False, f"{label}: {out.error or out.status}")
        return
    if kind == REVALIDATE:
        checks.expect(out.status == 304, f"{label}: HTTP {out.status}")
        return
    sha = bytes_digest(out.body)
    ok = (out.status == 200 and out.headers.get("ETag") == f'"{sha}"')
    if kind == HIT:
        ok = ok and sha == hot[key][1] and out.headers.get("X-Cache") == HIT
    else:
        ok = ok and bodies.setdefault(out.request.path, out.body) == out.body
    checks.expect(ok, f"{label}: HTTP {out.status}, X-Cache "
                      f"{out.headers.get('X-Cache')}, body/ETag mismatch")


def _miss_violations(ctx, state, bodies: dict, checks: Checks) -> None:
    """Parse every rendered body back and check its hard DCs."""
    from repro.schema.table import Table
    for k, (path, body) in enumerate(sorted(bodies.items())):
        model = path.split("model=")[1].split("&")[0]
        fitted = state["models"][model]
        tmp = ctx.path("bodies", f"{k}.csv")
        with open(tmp, "wb") as f:
            f.write(body)
        table = Table.from_csv(fitted.relation, tmp)
        avoidable, _ = hard_violations(table, fitted.dcs, fitted.sequence)
        checks.expect(avoidable == 0, f"serve render {path}: {avoidable} "
                                      f"avoidable hard-DC violations")


def measure(ctx, state, traced: bool) -> Measurement:
    from repro.serve import ServeClient

    if traced or state["server"] is None:
        # Every pass gets a server of its own, with an empty draw cache.
        teardown(state)
        state["passes"] = state.get("passes", 0) + 1
        state["server"], state["hot"] = start_server(
            ctx, f"server-pass{state['passes']}", state["paths"], traced)
    server, hot = state["server"], state["hot"]
    client = ServeClient(server.url)
    before = client.metrics_json()
    outcomes, lags, slowdowns, window = _run_segments(ctx, server, hot)
    after = client.metrics_json()
    report = server.stop()
    state["server"] = None

    checks = Checks()
    bodies: dict = {}
    for out in outcomes:
        _check(checks, out, hot, bodies)
    _miss_violations(ctx, state, bodies, checks)

    answered = [o for o in outcomes if not o.error]
    if not answered:
        return Measurement(e2e={}, checks=checks)
    latencies = [o.latency_ms for o in answered]
    p50 = median(o.latency_ms / k for o, k in zip(outcomes, slowdowns)
                 if not o.error)
    if (tail_percentile(len(latencies)) or 0) < 95:
        log(f"perfbench: {len(latencies)} latencies leave fewer than ten "
            f"beyond p95; request_p95_ms is near their maximum")
    e2e = {
        "requests_per_s": len(answered) / window,
        "request_p50_ms": p50,
        "peak_rss_mb": report.get("peak_rss_mb", 0.0),
    }
    lag_p95 = 1e3 * percentile(lags, 95)
    layers = {"request_p95_ms": percentile(latencies, 95),
              "bench.latency_samples": len(latencies),
              "bench.gen_lag_ms_p95": lag_p95,
              "bench.host_slowdown": median(slowdowns)}
    m = Measurement(e2e=e2e, layers=layers, main_s=p50 / 1e3,
                    checks=checks)
    if lag_p95 > MAX_GEN_LAG_MS:
        m.invalid = (f"serve run invalid: generator lag p95 {lag_p95:.1f} ms "
                     f"> {MAX_GEN_LAG_MS} ms, it could not keep its schedule")
    if traced:
        m.layers.update(_client_layers(answered))
        m.layers.update(_counter_layers(before, after))
        m.spans, server_layers = _server_layers(server.spans_path, answered)
        m.layers.update(server_layers)
    return m


def split_schedule(requests, seconds: float, segments: int) -> list:
    """``segments`` parts of ``seconds / segments`` by due time, each
    part's due times counted from its own start."""
    span = seconds / segments
    parts: list[list] = [[] for _ in range(segments)]
    for request in requests:
        k = min(int(request.due / span), segments - 1)
        parts[k].append(dataclasses.replace(request,
                                            due=request.due - k * span))
    return parts


def _run_segments(ctx, server, hot):
    """Send the schedule in ``SEGMENTS`` parts, calibrating before the
    first and after each.  Returns the outcomes and lags in schedule
    order, each outcome's host slowdown, and the seconds from each
    part's first due time to its last answer, summed."""
    parts = split_schedule(schedule(ctx, hot), ctx.seconds, SEGMENTS)
    calibrations = [calibrate()]
    outcomes, lags, slowdowns, window = [], [], [], 0.0
    for part in parts:
        outs, part_lags = run_open_loop("127.0.0.1", server.port, part,
                                        CONNECTIONS)
        calibrations.append(calibrate())
        factor = slowdown(calibrations[-2:])
        outcomes += outs
        lags += part_lags
        slowdowns += [factor] * len(outs)
        done = [o.done for o in outs if not o.error]
        if done:
            window += max(done) - min(o.due for o in outs)
    return outcomes, lags, slowdowns, window


def _by_cache_state(answered):
    groups: dict = {HIT: [], REVALIDATE: [], MISS: []}
    for out in answered:
        if out.status == 304:
            groups[REVALIDATE].append(out)
        elif out.headers.get("X-Cache") in (HIT, MISS):
            groups[out.headers["X-Cache"]].append(out)
    return groups


def _client_layers(answered) -> dict:
    groups = _by_cache_state(answered)
    miss = [o.latency_ms for o in groups[MISS]]
    return {
        "serve.client.hit_ms_p50": median(o.latency_ms for o in groups[HIT]),
        "serve.client.revalidate_ms_p50":
            median(o.latency_ms for o in groups[REVALIDATE]),
        "serve.client.miss_ms_p50": median(miss),
        "serve.client.miss_ms_p95": percentile(miss, 95),
        "serve.client.misses": len(miss),
    }


def _counter_layers(before: dict, after: dict) -> dict:
    def delta(section, key):
        return after[section][key] - before[section][key]
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    return {
        "serve.cache.hit_ratio": hits / max(hits + misses, 1),
        "serve.cache.lookups": hits + misses,
        "serve.queue.coalesced": delta("queue", "coalesced"),
        "serve.queue.rejected": delta("queue", "rejected"),
        "serve.queue.timeouts": delta("queue", "timeouts"),
    }


def _server_layers(spans_path: str, answered):
    """Server-side medians from the launcher's spans, plus the client
    spans, merged into one store (one clock: both sides use the
    system-wide monotonic ``perf_counter``)."""
    with open(spans_path) as f:
        dumped = json.load(f)
    spans = Spans(dumped["spans"])
    by_rid: dict = {}
    for rec in spans.records:
        by_rid.setdefault(rec["rid"], {}).setdefault(rec["name"], []).append(
            rec["end"] - rec["start"])
    by_rid.pop(None, None)  # registration and warming, before the load
    renders, waits, unattributed = [], [], []
    for rid, named in by_rid.items():
        run = sum(named.get("serve.queue.run", ()))
        render = sum(named.get("serve.server.render", ()))
        if "serve.queue.run" in named:
            waits.append(run - render)
        if "serve.server.render" in named:
            engine = sum(named.get("serve.server.render_engine", ()))
            write = sum(named.get("io.stream.write", ()))
            renders.append((render, engine, write - engine))
    groups = _by_cache_state(answered)
    for out in groups[MISS]:
        named = by_rid.get(out.request.headers["X-Bench-Id"], {})
        covered = (sum(named.get("serve.cache.get", ()))
                   + sum(named.get("serve.queue.run", ())))
        unattributed.append(out.service_ms / 1e3 - covered)
    for out in answered:
        spans.add("serve.client.request", out.sent, out.done,
                  rid=out.request.headers["X-Bench-Id"])

    def each(name):
        return [d for named in by_rid.values() for d in named.get(name, ())]
    ms = 1e3
    return spans, {
        "serve.queue.wait_ms": ms * median(waits),
        "serve.server.render_ms": ms * median(r[0] for r in renders),
        "serve.server.render_engine_ms": ms * median(r[1] for r in renders),
        "serve.server.render_write_ms": ms * median(r[2] for r in renders),
        "serve.cache.get_ms": ms * median(each("serve.cache.get")),
        "serve.cache.put_ms": ms * median(each("serve.cache.put")),
        "serve.registry.get_ms": ms * median(each("serve.registry.get")),
        "serve.registry.loads": dumped["registry_loads"],
        "serve.server.unattributed_ms": ms * median(unattributed),
    }
