#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` measures the workload three times, untraced, traced
(layer wrappers installed, ``RunTrace`` passed) and untraced again, and
reports the per-layer metrics plus ``trace.overhead_ratio``; its spans
are written to ``.perfbench/trace-<workload>-<seed>.json``.  The
workload's headline numbers (``HEADLINES``) come from the first,
untraced pass.

A workload measures whole rounds (a fit round, a draw round, a stream)
for ``--seconds``: it always runs one (fit and stream three), and
starts another only while at least half of one more, at the median
round's length, falls inside the window.  The default, 16, is
``run_seconds`` in ``BENCHMARK.json``.  Set-up, the rounds of fit,
draw and stream, and serve's latencies are reported at the host's
quiet speed (``common.calibrate``).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  A failed
correctness check makes the exit code 1; a checkout without the
program's ``src/`` makes it 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fit", "draw", "stream", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _set_up(module, ctx, common):
    """Run the workload's set-up ``SETUP_REPEATS`` times, each between
    two calibrations; keep the last state and report the median set-up
    seconds at the host's quiet speed."""
    seconds, state = [], None
    before = common.calibrate()
    for repeat in range(module.SETUP_REPEATS):
        if state is not None:
            module.teardown(state)
        t0 = time.perf_counter()
        state = module.setup(ctx, repeat)
        elapsed = time.perf_counter() - t0
        after = common.calibrate()
        seconds.append(common.steady_seconds([elapsed], [before, after]))
        before = after
    return state, common.median(seconds)


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {ROOT}/src/repro; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import common

    env = common.environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    if env["nproc"] != common.BASELINE_NPROC:
        common.log(f"perfbench: warning: nproc={env['nproc']} differs from "
                   f"the recorded baseline nproc={common.BASELINE_NPROC}; "
                   f"compare numbers only with runs on the same machine")

    module = importlib.import_module(f"perfbench.workload_{args.workload}")
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    ctx = common.Context(root=ROOT, work=work, seed=args.seed,
                         seconds=args.seconds)
    state = None
    checks = common.Checks()
    try:
        state, setup_s = _set_up(module, ctx, common)
        checks.merge(module.prepare(ctx, state, traced=bool(args.trace)))
        plain = module.measure(ctx, state, traced=False)
        passes = [plain]
        if args.trace:
            # Untraced, traced, untraced: the overhead ratio compares the
            # traced pass with both neighbours, so a host that speeds up
            # or slows down during the run does not read as overhead.
            traced = module.measure(ctx, state, traced=True)
            passes += [traced, module.measure(ctx, state, traced=False)]
    finally:
        if state is not None:
            module.teardown(state)
        shutil.rmtree(work, ignore_errors=True)

    for m in passes:
        checks.merge(m.checks)
    invalid = [m.invalid for m in passes if m.invalid]
    for message in checks.failures[:20] + invalid:
        common.log(f"perfbench: FAILED {message}")
    if args.trace:
        values = {name: 0.0 for name, _, _ in common.PER_LAYER}
        values.update(traced.layers)
        values.update({k: v for k, v in plain.layers.items()
                       if k in common.HEADLINES})
        untraced = [m.main_s for m in passes[::2] if m.main_s]
        if untraced:
            values["trace.overhead_ratio"] = (traced.main_s
                                              / common.median(untraced))
        traced.spans.dump(
            os.path.join(scratch, f"trace-{args.workload}-{args.seed}.json"),
            workload=args.workload, seed=args.seed, env=env)
        units = common.PER_LAYER
    else:
        values = dict(plain.e2e, setup_s=setup_s)
        values["ok_ratio"] = ((checks.attempted - checks.failed)
                              / max(checks.attempted, 1))
        units = common.END_TO_END
    correct = not checks.failures and not invalid
    print(common.result_line(correct, checks.attempted, checks.failed,
                             values, units), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    return run(_parse(argv))


if __name__ == "__main__":
    sys.exit(main())
