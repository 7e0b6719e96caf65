"""Crash-safe checkpointed fits (:mod:`repro.core.checkpoint`).

The acceptance criterion: a fit killed after **any** budget-consuming
phase resumes from its checkpoint bit-identical to an uninterrupted fit
— same model arrays, same weights, same draws — and the
:class:`~repro.synth.ledger.BudgetLedger` shows the already-spent
epsilon as *resumed*, never re-spent.  Interruption is injected with
:mod:`repro.faults` (``fit.<stage>=error`` fires right after the
stage's checkpoint lands), so every kill point is deterministic.
"""

import os

import numpy as np
import pytest

import repro.faults as faults
from repro.core.checkpoint import (
    STAGES, FitCheckpoint, fit_key, table_digest,
)
from repro.core.kamino import Kamino, KaminoConfig
from repro.datasets import load
from repro.faults import FaultInjected
from repro.synth.ledger import BudgetLedger


def _cap(params):
    params.iterations = min(params.iterations, 6)


def _make(ds, epsilon=1.0, **knobs):
    return Kamino(ds.relation, ds.dcs, epsilon=epsilon, seed=0,
                  params_override=_cap, **knobs)


@pytest.fixture(scope="module")
def ds():
    return load("tpch", n=60, seed=0)


@pytest.fixture(scope="module")
def reference(ds):
    """The uninterrupted fit every resumed fit must match bit for bit."""
    return _make(ds).fit(ds.table)


def _assert_identical(fitted, reference, ds):
    assert fitted.weights == reference.weights
    assert fitted.sampling_state == reference.sampling_state
    assert fitted.params.achieved_epsilon == \
        reference.params.achieved_epsilon
    a = fitted.sample(n=50, seed=7)
    b = reference.sample(n=50, seed=7)
    for name in ds.relation.names:
        np.testing.assert_array_equal(a.table.column(name),
                                      b.table.column(name), err_msg=name)


# ----------------------------------------------------------------------
# The acceptance criterion: kill after each phase, resume bit-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stage", STAGES)
def test_kill_after_each_stage_resumes_bit_identical(ds, reference,
                                                     stage, tmp_path):
    ckdir = str(tmp_path / "ck")
    with faults.injected(f"fit.{stage}=error"):
        with pytest.raises(FaultInjected):
            _make(ds).fit(ds.table, checkpoint_dir=ckdir)
    assert os.path.exists(os.path.join(ckdir, f"ckpt-{stage}.npz"))

    fitted = _make(ds).fit(ds.table, checkpoint_dir=ckdir)
    assert fitted.resumed_from == stage
    _assert_identical(fitted, reference, ds)

    # Budget accounting: epsilon spent before the kill is recorded as
    # resumed, never re-spent; the ledger total is still the full bill.
    ledger = fitted.ledger
    assert ledger is not None
    assert ledger.total_epsilon() == \
        pytest.approx(reference.params.achieved_epsilon)
    if stage in ("dp_sgd", "weights"):
        assert ledger.fresh_epsilon() == 0.0  # training already paid
    else:
        assert ledger.fresh_epsilon() == \
            pytest.approx(ledger.total_epsilon())

    # The completed fit supersedes its checkpoints.
    assert [n for n in os.listdir(ckdir) if n.startswith("ckpt-")] == []


def test_uninterrupted_checkpointed_fit_matches_plain(ds, reference,
                                                      tmp_path):
    fitted = _make(ds).fit(ds.table, checkpoint_dir=str(tmp_path / "ck"))
    assert fitted.resumed_from is None
    assert fitted.ledger.fresh_epsilon() == \
        pytest.approx(fitted.ledger.total_epsilon())
    _assert_identical(fitted, reference, ds)


def test_checkpoint_from_other_config_never_resumes(ds, tmp_path):
    """A different budget means a different fit key: the stale
    checkpoint is ignored and the fit runs fresh end to end."""
    ckdir = str(tmp_path / "ck")
    with faults.injected("fit.dp_sgd=error"):
        with pytest.raises(FaultInjected):
            _make(ds).fit(ds.table, checkpoint_dir=ckdir)
    fitted = _make(ds, epsilon=2.0).fit(ds.table, checkpoint_dir=ckdir)
    assert fitted.resumed_from is None
    assert fitted.ledger.fresh_epsilon() == \
        pytest.approx(fitted.ledger.total_epsilon())


@pytest.mark.parametrize("knob, value, resumes", [
    ("constraint_aware_sampling", False, True),
    ("weight_estimator", "capped", False),
])
def test_retry_resumes_across_draw_side_changes_only(ds, tmp_path, knob,
                                                     value, resumes):
    """The fit phases never read the sampler's switch, so a retry that
    changes only it resumes without spending epsilon again; a retry
    that changes a fit field starts fresh."""
    ckdir = str(tmp_path / "ck")
    with faults.injected("fit.dp_sgd=error"):
        with pytest.raises(FaultInjected):
            _make(ds).fit(ds.table, checkpoint_dir=ckdir)
    fitted = _make(ds, **{knob: value}).fit(ds.table, checkpoint_dir=ckdir)
    assert getattr(fitted.config, knob) == value
    if resumes:
        assert fitted.resumed_from == "dp_sgd"
        assert fitted.ledger.fresh_epsilon() == 0.0
    else:
        assert fitted.resumed_from is None
        assert fitted.ledger.fresh_epsilon() == \
            pytest.approx(fitted.ledger.total_epsilon())


def test_corrupted_checkpoint_falls_back_to_older_stage(ds, reference,
                                                        tmp_path):
    """A truncated newest checkpoint is skipped (digest mismatch) and
    resume picks up from the next-older valid stage — still
    bit-identical, with the lost stage honestly re-spent."""
    ckdir = str(tmp_path / "ck")
    with faults.injected("fit.dp_sgd=error"):
        with pytest.raises(FaultInjected):
            _make(ds).fit(ds.table, checkpoint_dir=ckdir)
    newest = os.path.join(ckdir, "ckpt-dp_sgd.npz")
    raw = open(newest, "rb").read()
    with open(newest, "wb") as handle:
        handle.write(raw[: len(raw) // 2])

    fitted = _make(ds).fit(ds.table, checkpoint_dir=ckdir)
    assert fitted.resumed_from == "params"
    _assert_identical(fitted, reference, ds)
    # The dp_sgd checkpoint was lost, so its epsilon really was
    # re-spent against the instance — the ledger must say so.
    assert fitted.ledger.fresh_epsilon() == \
        pytest.approx(fitted.ledger.total_epsilon())


# ----------------------------------------------------------------------
# Keys and formats
# ----------------------------------------------------------------------
def test_fit_key_binds_config_table_and_weights(ds):
    other = load("tpch", n=50, seed=1)
    cfg = KaminoConfig(epsilon=1.0, seed=0)
    base = fit_key(cfg, ds.table)
    assert fit_key(cfg, ds.table) == base  # deterministic
    assert fit_key(KaminoConfig(epsilon=2.0, seed=0), ds.table) != base
    assert fit_key(cfg, other.table) != base
    assert fit_key(cfg, ds.table,
                   known_weights={"dc0": 1.5}) != base


def test_table_digest_tracks_content(ds):
    other = load("tpch", n=50, seed=1)
    assert table_digest(ds.table) == table_digest(ds.table)
    assert table_digest(ds.table) != table_digest(other.table)


def test_load_latest_rejects_foreign_key(ds, tmp_path):
    ckdir = str(tmp_path / "ck")
    with faults.injected("fit.params=error"):
        with pytest.raises(FaultInjected):
            _make(ds).fit(ds.table, checkpoint_dir=ckdir)
    assert FitCheckpoint(ckdir, "0" * 64).load_latest(ds.relation) is None


def test_empty_directory_resumes_nothing(ds, tmp_path):
    ck = FitCheckpoint(str(tmp_path), fit_key(KaminoConfig(epsilon=1.0),
                                              ds.table))
    assert ck.load_latest(ds.relation) is None


# ----------------------------------------------------------------------
# Ledger semantics
# ----------------------------------------------------------------------
def test_ledger_resumed_spends_roundtrip():
    ledger = BudgetLedger()
    ledger.spend("m1", 0.5, 1e-6)
    ledger.spend("m2", 0.25, resumed=True)
    assert ledger.total_epsilon() == pytest.approx(0.75)
    assert ledger.fresh_epsilon() == pytest.approx(0.5)
    assert "[resumed]" in ledger.summary()
    again = BudgetLedger.from_dict(ledger.to_dict())
    assert again.total_epsilon() == pytest.approx(0.75)
    assert again.fresh_epsilon() == pytest.approx(0.5)


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_fit_checkpoint_resume(ds, tmp_path, capsys):
    from repro.cli import main
    from repro.io import save_bundle

    bundle = tmp_path / "bundle"
    save_bundle(str(bundle), ds.table, ds.dcs)
    model = tmp_path / "model.npz"
    ckdir = tmp_path / "ck"
    argv = ["fit", str(bundle), "--epsilon", "1.0", "--seed", "0",
            "--max-iterations", "6", "--out", str(model),
            "--checkpoint-dir", str(ckdir)]
    with faults.injected("fit.dp_sgd=error"):
        with pytest.raises(FaultInjected):
            main(argv)
    assert not model.exists()
    assert (ckdir / "ckpt-dp_sgd.npz").exists()

    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "resumed from checkpoint" in out
    assert "dp_sgd" in out
    assert model.exists()
