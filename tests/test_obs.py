"""Tests for the run-telemetry layer (:mod:`repro.obs.trace`).

Pins the observability contract:

* a traced fit covers every canonical phase; a traced draw covers every
  working column, with a lane (``mode``) assigned and probe counters
  populated on constrained columns;
* **zero overhead when off / zero interference when on** — a traced
  draw is bit-identical to an untraced one, for both engines;
* the JSON document is stable-keyed (sorted at every level) and the
  human summary names the phases and columns;
* the ``--trace`` CLI flag writes the document and prints the summary.
"""

import json

import numpy as np
import pytest

from repro.core import Kamino, KaminoConfig
from repro.datasets import load
from repro.io import save_bundle
from repro.obs import FIT_PHASES, ColumnTrace, RunTrace, SampleTrace


def _cap(params):
    params.iterations = min(params.iterations, 10)
    params.embed_dim = 6


@pytest.fixture(scope="module")
def fitted_traced():
    """One capped tpch fit, traced; (fitted, trace) shared per module."""
    ds = load("tpch", n=160, seed=0)
    trace = RunTrace(label="test")
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    fitted = Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table,
                                                         trace=trace)
    return fitted, trace


# ----------------------------------------------------------------------
# Collector units
# ----------------------------------------------------------------------
def test_column_trace_blocks_and_fallback():
    col = ColumnTrace("a")
    col.observe_block(100)
    col.observe_block(20)
    col.count("rescored_rows", 30)
    col.finish(0.5, 120)
    assert col.counters["blocks"] == 2
    assert col.counters["block_rows"] == 120
    assert col.counters["block_rows_max"] == 100
    assert col.sequential_fallback_rate == 0.25
    doc = col.to_dict()
    assert doc["rows_per_sec"] == 240.0
    assert doc["sequential_fallback_rate"] == 0.25


def test_column_trace_fallback_rate_capped():
    col = ColumnTrace("a")
    col.count("sequential_rows", 50)
    col.count("rescored_rows", 60)
    col.finish(1.0, 50)
    assert col.sequential_fallback_rate == 1.0
    assert ColumnTrace("b").sequential_fallback_rate == 0.0


def test_sample_trace_aggregates_counters_and_probes():
    st = SampleTrace("blocked", 10, 3)
    a = st.column("a")
    a.observe_block(8)
    a.probes["probe_pair"] = 5
    b = st.column("b")
    b.observe_block(10)
    b.probes["probe_pair"] = 7
    agg = st.aggregate_counters()
    assert agg["blocks"] == 2
    assert agg["block_rows_max"] == 10   # maxed, not summed
    assert agg["block_rows"] == 18
    assert agg["probe_pair"] == 12


def test_run_trace_phase_accumulates():
    rt = RunTrace()
    with rt.phase("params"):
        pass
    with rt.phase("params"):
        pass
    assert set(rt.fit_phases) == {"params"}
    assert rt.fit_phases["params"] >= 0.0


# ----------------------------------------------------------------------
# Fit coverage
# ----------------------------------------------------------------------
def test_traced_fit_covers_every_phase(fitted_traced):
    _, trace = fitted_traced
    assert set(trace.fit_phases) == set(FIT_PHASES)
    assert all(sec >= 0.0 for sec in trace.fit_phases.values())


def test_traced_fit_equals_untraced_fit():
    ds = load("tpch", n=120, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    plain = Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)
    traced = Kamino(ds.relation, ds.dcs, config=cfg).fit(
        ds.table, trace=RunTrace())
    t1 = plain.sample(n=80, seed=2).table
    t2 = traced.sample(n=80, seed=2).table
    for attr in t1.relation.names:
        np.testing.assert_array_equal(t1.column(attr), t2.column(attr),
                                      err_msg=attr)


# ----------------------------------------------------------------------
# Sample coverage + non-interference
# ----------------------------------------------------------------------
def test_traced_draw_bit_identical_and_covers_columns(fitted_traced):
    fitted, _ = fitted_traced
    trace = RunTrace()
    plain = fitted.sample(n=120, seed=7).table
    traced = fitted.sample(n=120, seed=7, trace=trace).table
    for attr in plain.relation.names:
        np.testing.assert_array_equal(plain.column(attr),
                                      traced.column(attr), err_msg=attr)
    (st,) = trace.samples
    assert st.engine == "blocked" and st.n == 120 and st.seed == 7
    assert [c.name for c in st.columns] \
        == list(fitted.hyper.working_sequence)
    assert all(c.mode for c in st.columns)
    assert all(c.rows == 120 for c in st.columns)
    # tpch has FDs: at least one constrained column probed its indexes.
    assert any(c.probes for c in st.columns)


def test_blocked_lanes_and_counters(fitted_traced):
    fitted, _ = fitted_traced
    trace = RunTrace()
    fitted.sample(n=120, seed=3, trace=trace)
    (st,) = trace.samples
    modes = {c.mode for c in st.columns}
    assert "unconstrained" in modes
    assert modes & {"cat-fd-lane", "cat-generic"}
    constrained = [c for c in st.columns if c.mode != "unconstrained"]
    assert all(c.counters.get("blocks", 0) >= 1 for c in constrained)


def test_sample_ar_records_run_level_trace(fitted_traced):
    fitted, _ = fitted_traced
    trace = RunTrace()
    fitted.sample_ar(n=30, seed=1, trace=trace)
    (st,) = trace.samples
    assert st.engine == "ar" and st.n == 30 and not st.columns


def test_workers_knob_resolves_from_config():
    ds = load("tpch", n=120, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap,
                       workers=2, max_block_rows=64)
    fitted = Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)
    trace = RunTrace()
    t1 = fitted.sample(n=100, seed=4, trace=trace).table
    assert trace.samples[0].workers == 2
    # Scheduling knobs never change the draw.
    base = Kamino(ds.relation, ds.dcs,
                  config=cfg.replace(workers=1, max_block_rows=512)
                  ).fit(ds.table).sample(n=100, seed=4).table
    for attr in t1.relation.names:
        np.testing.assert_array_equal(t1.column(attr), base.column(attr),
                                      err_msg=attr)


def test_config_validates_new_knobs():
    with pytest.raises(ValueError, match="workers"):
        KaminoConfig(epsilon=1.0, workers=-1)
    with pytest.raises(ValueError, match="max_block_rows"):
        KaminoConfig(epsilon=1.0, max_block_rows=0)
    with pytest.raises(ValueError, match="pool"):
        KaminoConfig(epsilon=1.0, pool="fiber")
    with pytest.raises(ValueError, match="stream_chunk_rows"):
        KaminoConfig(epsilon=1.0, stream_chunk_rows=0)
    # 0 is the validated "auto" sentinel, resolved at draw time.
    assert KaminoConfig(epsilon=1.0, workers=0).workers == 0


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def test_to_json_stable_keys(fitted_traced):
    fitted, fit_trace = fitted_traced
    trace = RunTrace(label="stable")
    trace.fit_phases.update(fit_trace.fit_phases)
    fitted.sample(n=60, seed=1, trace=trace)
    text = trace.to_json()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True)
    assert doc["version"] == 1
    assert set(doc["fit"]["phases"]) == set(FIT_PHASES)
    assert doc["samples"][0]["columns"]
    col = doc["samples"][0]["columns"][0]
    assert {"name", "mode", "seconds", "rows", "rows_per_sec",
            "sequential_fallback_rate", "counters",
            "probes"} <= set(col)


def test_save_roundtrip(tmp_path, fitted_traced):
    fitted, _ = fitted_traced
    trace = RunTrace()
    fitted.sample(n=40, seed=9, trace=trace)
    path = tmp_path / "trace.json"
    trace.save(str(path))
    doc = json.loads(path.read_text())
    assert doc["samples"][0]["n"] == 40


def test_summary_names_phases_and_columns(fitted_traced):
    fitted, fit_trace = fitted_traced
    trace = RunTrace(label="demo")
    trace.fit_phases.update(fit_trace.fit_phases)
    fitted.sample(n=60, seed=1, trace=trace)
    text = trace.summary()
    assert "[demo]" in text
    for phase in FIT_PHASES:
        assert phase in text
    for name in fitted.hyper.working_sequence:
        assert name in text
    assert "engine=blocked" in text


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_trace_flag(tmp_path, capsys):
    from repro.cli import main

    ds = load("tpch", n=80, seed=0)
    bundle = tmp_path / "tpch"
    save_bundle(str(bundle), ds.table, ds.dcs)
    model = tmp_path / "model.npz"
    fit_trace = tmp_path / "fit_trace.json"
    assert main(["fit", str(bundle), "--epsilon", "inf",
                 "--max-iterations", "8", "--out", str(model),
                 "--trace", str(fit_trace)]) == 0
    doc = json.loads(fit_trace.read_text())
    assert set(doc["fit"]["phases"]) == set(FIT_PHASES)
    assert doc["samples"] == []

    sample_trace = tmp_path / "sample_trace.json"
    assert main(["sample", str(model), "--schema",
                 f"{bundle}/schema.json", "--dcs", f"{bundle}/dcs.txt",
                 "--out", str(tmp_path / "synth"), "--n", "50",
                 "--seed", "2", "--trace", str(sample_trace)]) == 0
    doc = json.loads(sample_trace.read_text())
    assert doc["samples"][0]["n"] == 50
    assert doc["samples"][0]["columns"]
    out = capsys.readouterr().out
    assert "run trace" in out and "wrote run trace" in out


def test_cli_synthesize_trace_spans_fit_and_sample(tmp_path, capsys):
    from repro.cli import main

    ds = load("tpch", n=80, seed=0)
    bundle = tmp_path / "tpch"
    save_bundle(str(bundle), ds.table, ds.dcs)
    trace_path = tmp_path / "trace.json"
    assert main(["synthesize", str(bundle), "--epsilon", "inf",
                 "--max-iterations", "8",
                 "--out", str(tmp_path / "synth"),
                 "--trace", str(trace_path)]) == 0
    doc = json.loads(trace_path.read_text())
    assert set(doc["fit"]["phases"]) == set(FIT_PHASES)
    assert len(doc["samples"]) == 1
