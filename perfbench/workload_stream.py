"""The ``stream`` workload: a bounded-memory draw written to disk.

Set-up fits tpch at n=800 and saves it.  Once per run, untimed by
``setup_s``, the parent draws the same rows single-shot and writes
them as CSV: the digest every streamed file must match.  The measured
rounds run in a child process that holds nothing else
(``perfbench.stream_child``): ``sample_stream(n=131072,
chunk_rows=65536)`` piped into ``write_table_stream`` as CSV.  Its
engine lanes are the draw workload's, but chunk by chunk with
persistent index state, plus the ``io.stream`` writer.  A round's
end-to-end seconds are its seconds at the host's quiet speed, from the
calibrations the child runs before each chunk pull and after the last;
``stream_rows_per_s`` uses the seconds as measured.
"""

from __future__ import annotations

import json
import subprocess
import sys

from perfbench.common import (
    Checks, Measurement, Spans, file_digest, hard_violations, median,
    slowdown, steady_seconds,
)
from perfbench.probes import engine_layers
from perfbench.workload_draw import fit_artifacts, load_artifact

DATASET = "tpch"
#: Two full chunks.  A partial last chunk is avoided on purpose: on the
#: seed code its ``o_totalprice`` cells drift from the single-shot draw
#: (README.md, "Findings"), which would fail the digest check on every
#: seed.  Two chunks rather than three keep a run inside its time budget.
CHUNK_ROWS = 65_536
ROWS = 2 * CHUNK_ROWS
#: One tpch fit and save, 0.5-0.75 s depending on the shared host's
#: load, each followed by a calibration.
SETUP_REPEATS = 5
#: The child must finish well inside the run's 180 s limit.
CHILD_TIMEOUT_S = 150.0


def setup(ctx, repeat: int):
    return {"paths": fit_artifacts(ctx, [DATASET], repeat)[DATASET]}


def teardown(state) -> None:
    pass


def draw_seed(ctx) -> int:
    return ctx.seed * 1000


def prepare(ctx, state, traced: bool) -> Checks:
    """The single-shot reference: its digest and, traced, the engine
    lanes (``sample_stream`` has no trace hook of its own)."""
    from repro.io.stream import write_table_stream
    from repro.obs import RunTrace

    checks = Checks()
    fitted = load_artifact(state["paths"])
    trace = RunTrace() if traced else None
    table = fitted.sample(n=ROWS, seed=draw_seed(ctx), workers=1,
                          trace=trace).table
    reference = ctx.path("reference.csv")
    write_table_stream(reference, fitted.relation, [table], fmt="csv")
    state["digest"] = file_digest(reference)
    checks.op()
    avoidable, _ = hard_violations(table, fitted.dcs, fitted.sequence)
    checks.expect(avoidable == 0, f"stream reference: {avoidable} "
                  f"avoidable hard-DC violations")
    state["engine"] = (engine_layers([(DATASET, trace.samples[0])])
                       if traced else {})
    return checks


def measure(ctx, state, traced: bool) -> Measurement:
    paths = state["paths"]
    command = [sys.executable, "-m", "perfbench.stream_child",
               "--model", paths["model"], "--schema", paths["schema"],
               "--dcs", paths["dcs"], "--n", str(ROWS),
               "--chunk-rows", str(CHUNK_ROWS), "--seed", str(draw_seed(ctx)),
               "--out", ctx.path("stream.csv"),
               "--seconds", str(ctx.seconds)]
    proc = subprocess.Popen(command, cwd=ctx.root, env=ctx.child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    checks = Checks()
    lines = [json.loads(line) for line in out.splitlines() if line]
    if proc.returncode != 0 or not lines:
        checks.op()
        checks.expect(False, f"stream child exited {proc.returncode}")
        return Measurement(e2e={}, checks=checks)
    rounds = lines[:-1]
    spans = Spans()
    for k, r in enumerate(rounds):
        checks.op()
        checks.expect(r["rows"] == ROWS and r["digest"] == state["digest"],
                      f"stream round {k}: {r['rows']} rows, digest differs "
                      f"from the single-shot reference")
        parent = spans.add("stream.round", r["start"],
                           r["start"] + r["wall"], rid=k)
        for start, end in r["pulls"]:
            spans.add("core.engine.stream.chunk", start, end,
                      parent=parent, rid=k)
        for start, end in r["calibrations"]:
            spans.add("bench.calibrate", start, end, parent=parent, rid=k)

    seconds = [r["seconds"] for r in rounds]
    calibrations = [[end - start for start, end in r["calibrations"]]
                    for r in rounds]
    slowdowns = [slowdown(c) for c in calibrations]
    steady_s = median(steady_seconds(r["pieces"], c)
                      for r, c in zip(rounds, calibrations))
    round_s = median(seconds)
    e2e = {
        "requests_per_s": 1.0 / steady_s,
        "request_p50_ms": steady_s * 1e3,
        "peak_rss_mb": lines[-1]["peak_rss_mb"],
    }
    layers = {"stream_rows_per_s": ROWS / round_s,
              "bench.host_slowdown": median(slowdowns)}
    if traced:
        pulls = [[end - start for start, end in r["pulls"]] for r in rounds]
        layers.update(state["engine"])
        layers.update({
            "core.engine.stream.chunk_s": median(
                p for chunk in pulls for p in chunk),
            "core.engine.stream.first_chunk_s": median(p[0] for p in pulls),
            "io.stream.write_s": median(
                r["seconds"] - sum(p) for r, p in zip(rounds, pulls)),
            "io.stream.chunks": median(len(p) for p in pulls),
            "io.stream.bytes": median(r["bytes"] for r in rounds),
        })
    return Measurement(e2e=e2e, layers=layers, main_s=steady_s,
                       checks=checks, spans=spans)
