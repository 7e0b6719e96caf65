"""Chaos tests: the fault-injection harness and every recovery path.

The :mod:`repro.faults` injector turns "what if the worker dies / the
disk fills / the artifact rots" into deterministic, assertable events.
This suite proves each recovery path the ISSUE names:

* a killed process-pool worker re-runs its column inline, and the rest
  of the draw runs inline too — bit-identical output, a
  ``pool_broken`` trace counter, a warning;
* an interrupted streamed draw (in-process error or a killed CLI
  subprocess) never leaves a truncated file at ``--out``;
* corrupt or truncated model artifacts raise a typed
  :class:`ModelFormatError` naming the file and failing section, and
  atomic saves never clobber a good artifact with a partial one.
"""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.faults as faults
from repro.core.kamino import FittedKamino, Kamino
from repro.core.model_io import ModelFormatError, atomic_savez
from repro.datasets import load
from repro.faults import FaultInjected, FaultSpec, parse_spec
from repro.io.dc_text import save_dcs
from repro.io.schema_json import save_relation
from repro.io.stream import write_table_stream
from repro.obs import RunTrace

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# Shared fitted artifact (expensive: built once per module)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos")
    ds = load("tpch", n=60, seed=0)

    def cap(params):
        params.iterations = min(params.iterations, 6)

    fitted = Kamino(ds.relation, ds.dcs, epsilon=1.0, seed=0,
                    params_override=cap).fit(ds.table)
    paths = {
        "model": str(root / "model.npz"),
        "schema": str(root / "schema.json"),
        "dcs": str(root / "dcs.txt"),
    }
    fitted.save(paths["model"])
    save_relation(ds.relation, paths["schema"])
    save_dcs(ds.dcs, paths["dcs"], relation=ds.relation)
    return {"dataset": ds, "fitted": fitted, **paths}


# ----------------------------------------------------------------------
# The injector itself
# ----------------------------------------------------------------------
def test_parse_spec_grammar():
    (spec,) = parse_spec("engine.worker=kill")
    assert spec == FaultSpec(site="engine.worker", action="kill")
    (spec,) = parse_spec("registry.load=sleep:0.25")
    assert spec.action == "sleep" and spec.arg == 0.25
    (spec,) = parse_spec("stream.write=enospc@3")
    assert spec.after == 3 and spec.times == 1
    (spec,) = parse_spec("model_io.read=error@2x4")
    assert spec.after == 2 and spec.times == 4
    assert [spec.fires_at(h) for h in (1, 2, 5, 6)] == \
        [False, True, True, False]
    (spec,) = parse_spec("a=errorx*")
    assert spec.fires_at(10 ** 9)
    two = parse_spec("a=error, b=enospc@2")
    assert [s.site for s in two] == ["a", "b"]


def test_parse_spec_rejects_malformed():
    with pytest.raises(ValueError, match="site=action"):
        parse_spec("no-equals-sign")
    with pytest.raises(ValueError, match="unknown action"):
        parse_spec("a=explode")
    with pytest.raises(ValueError, match="sleep needs"):
        parse_spec("a=sleep")


def test_fault_point_is_noop_when_disarmed():
    assert faults.active() is None
    faults.fault_point("anything")  # must not raise or record


def test_injected_context_fires_and_disarms():
    with faults.injected("site.x=error@2") as injector:
        faults.fault_point("site.x")  # hit 1: below @2, no fire
        with pytest.raises(FaultInjected, match="site.x"):
            faults.fault_point("site.x")
        faults.fault_point("site.x")  # hit 3: past the window
        faults.fault_point("site.other")  # unarmed site never fires
    assert faults.active() is None
    assert injector.hits("site.x") == 3
    assert [(r.site, r.action, r.hit) for r in injector.fired] == \
        [("site.x", "error", 2)]


def test_enospc_action_raises_errno():
    import errno

    with faults.injected("disk=enospc"):
        with pytest.raises(OSError) as excinfo:
            faults.fault_point("disk")
    assert excinfo.value.errno == errno.ENOSPC


def test_env_var_arms_injection_in_subprocess():
    env = dict(os.environ, REPRO_FAULTS="x=error", PYTHONPATH=SRC_DIR)
    code = ("import repro.faults as F, sys; "
            "sys.exit(0 if F.active() is not None else 1)")
    assert subprocess.run([sys.executable, "-c", code],
                          env=env).returncode == 0


# ----------------------------------------------------------------------
# Self-healing parallel draws
# ----------------------------------------------------------------------
def test_pool_worker_death_heals_bit_identical(artifacts, caplog):
    """A killed process-pool worker re-runs its column inline and the
    rest of the draw runs inline: same bytes as workers=1, a
    pool_broken counter, a warning, no sharded column after it, and
    the healed column counts its inline pass alone."""
    ds, model = artifacts["dataset"], artifacts["fitted"]
    ref_trace = RunTrace()
    reference = model.sample(n=4096, seed=9, workers=1, trace=ref_trace)
    trace = RunTrace(label="chaos")
    with caplog.at_level(logging.WARNING, logger="repro.engine"):
        with faults.injected("engine.worker=kill"):
            healed = model.sample(n=4096, seed=9, workers=2,
                                  pool="process", trace=trace)
    for name in ds.relation.names:
        np.testing.assert_array_equal(healed.table.column(name),
                                      reference.table.column(name),
                                      err_msg=name)
    columns = [col for sample in trace.samples for col in sample.columns]
    broken = sum(col.counters.get("pool_broken", 0) for col in columns)
    assert broken >= 1
    assert any("worker" in rec.message for rec in caplog.records)
    first = next(k for k, col in enumerate(columns)
                 if col.counters.get("pool_broken"))
    assert all(col.mode not in ("cat-sharded", "num-sharded")
               for col in columns[first + 1:]), \
        [(col.name, col.mode) for col in columns]
    healed = columns[first]
    inline = ref_trace.samples[0].columns[first]
    assert (healed.name, healed.mode) == (inline.name, inline.mode)
    assert healed.probes == inline.probes
    assert {key: value for key, value in healed.counters.items()
            if key not in ("pool_broken", "shards")} == inline.counters


# ----------------------------------------------------------------------
# Interrupted streamed draws never leave partial files
# ----------------------------------------------------------------------
def test_stream_write_failure_leaves_no_partial_file(artifacts, tmp_path):
    ds, model = artifacts["dataset"], artifacts["fitted"]
    out = tmp_path / "draw.csv"
    with faults.injected("stream.write=error@2"):
        with pytest.raises(FaultInjected):
            write_table_stream(str(out), ds.relation,
                               model.sample_stream(n=48, seed=3,
                                                   chunk_rows=16))
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []  # tmp file cleaned up too


def test_prefix_scan_refusal_leaves_no_partial_file(artifacts, tmp_path):
    """A stream that fails after a chunk already landed still never
    publishes a truncated file."""
    ds, model = artifacts["dataset"], artifacts["fitted"]
    chunk = model.sample(n=8, seed=0).table

    def declining():
        yield chunk
        raise RuntimeError("the draw failed after its first chunk")

    out = tmp_path / "draw.csv"
    with pytest.raises(RuntimeError, match="first chunk"):
        write_table_stream(str(out), ds.relation, declining())
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_killed_cli_sample_leaves_no_partial_out(artifacts, tmp_path):
    """SIGKILL-grade interruption (os._exit in the fault): the CLI
    process dies mid-stream and --out never appears; a fresh draw then
    matches the single-shot export byte for byte."""
    out = tmp_path / "draw.csv"
    argv = ["sample", artifacts["model"], "--schema", artifacts["schema"],
            "--dcs", artifacts["dcs"], "--out", str(out),
            "--n", "64", "--seed", "3", "--chunk-rows", "16"]
    env = dict(os.environ, REPRO_FAULTS="stream.write=kill@2",
               PYTHONPATH=SRC_DIR)
    proc = subprocess.run([sys.executable, "-m", "repro.cli"] + argv,
                          env=env, capture_output=True)
    assert proc.returncode == 3  # the injected os._exit
    assert not out.exists()

    from repro.cli import main

    assert main(argv) == 0
    assert out.exists()
    ds, model = artifacts["dataset"], artifacts["fitted"]
    single = tmp_path / "single.csv"
    write_table_stream(str(single), ds.relation,
                       iter([model.sample(n=64, seed=3).table]))
    assert out.read_bytes() == single.read_bytes()


# ----------------------------------------------------------------------
# Atomic model saves + typed corruption errors
# ----------------------------------------------------------------------
def test_failed_save_preserves_existing_artifact(artifacts, tmp_path):
    model = artifacts["fitted"]
    path = tmp_path / "model.npz"
    model.save(str(path))
    good = path.read_bytes()
    with faults.injected("model_io.save=error"):
        with pytest.raises(FaultInjected):
            model.save(str(path))
    assert path.read_bytes() == good  # old artifact untouched
    assert list(tmp_path.iterdir()) == [path]  # no tmp litter


def test_truncated_model_raises_typed_error(artifacts, tmp_path):
    ds = artifacts["dataset"]
    path = tmp_path / "model.npz"
    artifacts["fitted"].save(str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(ModelFormatError) as excinfo:
        FittedKamino.load(str(path), ds.relation, ds.dcs)
    assert str(path) in str(excinfo.value)
    assert excinfo.value.section  # names what failed to parse


def test_npz_without_metadata_raises_typed_error(artifacts, tmp_path):
    ds = artifacts["dataset"]
    path = tmp_path / "not-a-model.npz"
    np.savez(str(path), stray=np.zeros(3))
    with pytest.raises(ModelFormatError, match="meta.json"):
        FittedKamino.load(str(path), ds.relation, ds.dcs)


def test_garbage_bytes_raise_typed_error(artifacts, tmp_path):
    ds = artifacts["dataset"]
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"\x00\x01\x02 not a zip archive")
    with pytest.raises(ModelFormatError, match="container"):
        FittedKamino.load(str(path), ds.relation, ds.dcs)


def test_corrupt_synth_payload_raises_typed_error(tmp_path):
    from repro.synth import make_synthesizer
    from repro.synth.io import load_payload

    ds = load("tpch", n=60, seed=0)
    fitted = make_synthesizer("privbayes", 1.0, seed=0).fit(ds.table)
    path = tmp_path / "pb.npz"
    fitted.save(str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 3])
    with pytest.raises(ModelFormatError) as excinfo:
        load_payload(str(path))
    assert str(path) in str(excinfo.value)


def test_missing_model_still_plain_file_not_found(artifacts, tmp_path):
    ds = artifacts["dataset"]
    with pytest.raises(FileNotFoundError):
        FittedKamino.load(str(tmp_path / "absent.npz"), ds.relation,
                          ds.dcs)


def test_atomic_savez_suffixless_path(tmp_path):
    """np.savez appends .npz to bare paths; the atomic writer must
    land on exactly the requested name regardless."""
    target = tmp_path / "checkpoint"  # no suffix
    atomic_savez(str(target), {"a": np.arange(4)})
    assert target.exists()
    with np.load(str(target)) as data:
        np.testing.assert_array_equal(data["a"], np.arange(4))
