"""Wrappers the traced run installs around the program's layer entry
points, and the reduction of the program's own ``RunTrace`` into
per-layer numbers.

Everything here times calls from outside: the wrappers replace the
names the program resolves at call time and restore them afterwards,
so no program file changes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from perfbench.common import (
    ENGINE_COUNTERS, HOT_COLUMNS, INDEX_PROBES, LANES,
)


class Patch:
    """Attribute replacements that :meth:`undo` reverts, newest first."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class CallTimer:
    """Call counts and busy seconds of wrapped functions, by label."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)

    def wrap(self, fn, label: str):
        calls, seconds = self.calls, self.seconds

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[label] += time.perf_counter() - start
                calls[label] += 1
        return timed


def spanned(spans, fn, name: str):
    """``fn`` wrapped in a span called ``name``."""
    def wrapper(*args, **kwargs):
        with spans.span(name):
            return fn(*args, **kwargs)
    return wrapper


#: Fit phases: the name ``repro.core.kamino`` resolves -> span name.
FIT_PHASES = (
    ("sequence_attributes", "core.sequencing"),
    ("search_dp_params", "core.params"),
    ("train_model", "core.training"),
    ("learn_dc_weights", "core.weights"),
)


@contextmanager
def fit_probes(spans, timer: CallTimer):
    """Span every fit phase and model save; count and time the
    accountant's ``rdp_sgm`` / ``kamino_epsilon`` calls and DP-SGD
    steps."""
    import repro.core.kamino as kamino
    import repro.core.params as params
    import repro.privacy.dpsgd as dpsgd
    import repro.privacy.rdp as rdp

    patch = Patch()
    try:
        for attr, name in FIT_PHASES:
            patch.set(kamino, attr, spanned(spans, getattr(kamino, attr),
                                            name))
        patch.set(kamino.FittedKamino, "save",
                  spanned(spans, kamino.FittedKamino.save,
                          "core.model_io.save"))
        patch.set(rdp, "rdp_sgm", timer.wrap(rdp.rdp_sgm, "rdp_sgm"))
        epsilon = timer.wrap(params.kamino_epsilon, "kamino_epsilon")
        patch.set(params, "kamino_epsilon", epsilon)
        patch.set(rdp, "kamino_epsilon", epsilon)
        patch.set(dpsgd.DPSGD, "step", timer.wrap(dpsgd.DPSGD.step, "step"))
        yield
    finally:
        patch.undo()


def engine_layers(runs) -> dict:
    """Per-layer engine numbers from ``(dataset, SampleTrace)`` pairs:
    seconds per lane and per hot column, scheduling counters, and index
    probe counts, summed over the runs."""
    out: dict[str, float] = defaultdict(float)
    hot = set(HOT_COLUMNS)
    for dataset, run in runs:
        for col in run.columns:
            if col.mode in LANES:
                out[f"core.engine.lane.{col.mode}_s"] += col.seconds
            if (dataset, col.name) in hot:
                out[f"core.engine.col.{dataset}.{col.name}_s"] += col.seconds
            for key in ENGINE_COUNTERS:
                out[f"core.engine.{key}"] += col.counters.get(key, 0)
            for key in INDEX_PROBES:
                out[f"constraints.index.{key}"] += col.probes.get(key, 0)
    return dict(out)


def lane_seconds(run) -> float:
    return sum(col.seconds for col in run.columns if col.mode in LANES)
