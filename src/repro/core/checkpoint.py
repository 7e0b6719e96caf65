"""Crash-safe fit checkpoints: never re-spend epsilon after a crash.

Every fit phase that touches the private instance consumes
irrecoverable privacy budget (the accountant composes each mechanism
invocation — §6 of the paper).  A crash between training and weight
learning therefore does not just lose wall-clock: a naive re-run would
pay the DP-SGD epsilon *again* against the same database.  This module
gives :meth:`repro.core.kamino.Kamino.fit` a durable notion of "this
phase already happened":

* after each phase, :class:`FitCheckpoint.save` persists one
  cumulative ``ckpt-<stage>.npz`` file — written through a tmp file +
  ``os.replace`` (:func:`repro.core.model_io.atomic_savez`) and sealed
  with a ``.sha256`` digest sidecar, so a crash mid-write can only ever
  leave an *invalid* checkpoint, never a silently truncated one;
* on the next ``fit(..., checkpoint_dir=)``, :meth:`load_latest` walks
  stages newest-first, drops anything whose digest or fit-key does not
  verify, and hands back the most advanced valid state: the phase
  outputs, the full :class:`~repro.core.params.KaminoParams`, and the
  exact pipeline-rng bit-generator state at the end of that phase.

Restoring the rng state is what makes a resumed fit *bit-identical* to
an uninterrupted one — the remaining phases consume the generator from
precisely where the interrupted run left it.

The **fit key** binds a checkpoint to the fit that wrote it: a sha256
over the persisted config fields, the private table's content digest,
and any caller-supplied known weights.  A checkpoint from a different
table, budget, or fit config never resumes.  The fields only the draw
reads (``use_fd_lookup``, ``constraint_aware_sampling``) enter the
key at their defaults, so a retry that differs only in them resumes.
``params_override`` is a callable and cannot be digested — only its
presence is recorded, so resuming under a *different* override with
the same config is the caller's responsibility (the restored params
already reflect the original override).

Checkpoint files are keyed by stage, not run: re-fitting over the same
directory overwrites stage by stage, and :meth:`FitCheckpoint.clear`
removes them once the fit completes (the fitted artifact supersedes
them).  The files contain model parameters derived from private data
under DP — treat them with the same care as the final model artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from repro.core.model_io import (
    ModelFormatError,
    _base_meta,
    _decode_weights,
    _encode_weights,
    _rebuild_model,
    atomic_savez,
    persisted_config,
)
from repro.core.params import KaminoParams

CKPT_FORMAT = "repro.ckpt/1"

#: Fit stages in execution order; each checkpoint is cumulative (a
#: ``dp_sgd`` checkpoint also carries the sequencing and params state).
STAGES = ("sequencing", "params", "dp_sgd", "weights")

_DIGEST_SUFFIX = ".sha256"


def table_digest(table) -> str:
    """Content digest of a table: attribute names, dtypes, and bytes."""
    digest = hashlib.sha256()
    for name in table.relation.names:
        column = np.ascontiguousarray(table.column(name))
        digest.update(name.encode())
        digest.update(str(column.dtype).encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


#: Config fields only the draw reads, hashed at their defaults: a retry
#: that changes how it will sample resumes instead of re-spending.
_DRAW_FIELDS = {"use_fd_lookup": False,
                "constraint_aware_sampling": True}


def fit_key(config, table, known_weights=None) -> str:
    """The identity a checkpoint must match to be resumable."""
    payload = {
        "config": {**persisted_config(config), **_DRAW_FIELDS},
        "params_override_used": config.params_override is not None,
        "table": table_digest(table),
        "known_weights": (None if known_weights is None
                          else _encode_weights(dict(known_weights))),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclasses.dataclass
class RestoredFit:
    """Everything :meth:`FitCheckpoint.load_latest` recovers."""

    stage: str
    sequence: list
    independent: list
    hyper_groups: list
    rng_state: dict
    timings: dict
    params: KaminoParams | None = None
    model: object | None = None
    hyper: object | None = None
    weights: dict | None = None


class FitCheckpoint:
    """Atomic, digest-verified, per-stage fit checkpoints."""

    def __init__(self, directory: str, key: str):
        self.directory = str(directory)
        self.key = key
        os.makedirs(self.directory, exist_ok=True)

    def path(self, stage: str) -> str:
        if stage not in STAGES:
            raise ValueError(f"unknown fit stage {stage!r}")
        return os.path.join(self.directory, f"ckpt-{stage}.npz")

    # -- writing -------------------------------------------------------
    def save(self, stage: str, *, sequence, independent, hyper,
             rng_state, timings, params=None, model=None,
             weights=None) -> str:
        """Persist the cumulative state at the end of ``stage``.

        The npz is written atomically, then sealed with a sha256
        sidecar; a crash at any point leaves either a complete sealed
        checkpoint or an unverifiable (hence ignored) one.
        """
        meta = {
            "format": CKPT_FORMAT,
            "stage": stage,
            "fit_key": self.key,
            "sequence": list(sequence),
            "independent": list(independent),
            "hyper_groups": [list(g) for g in hyper.groups],
            "rng_state": rng_state,
            "timings": {k: float(v) for k, v in timings.items()},
            "params": (None if params is None
                       else _params_to_dict(params)),
            "weights": (None if weights is None
                        else _encode_weights(dict(weights))),
            "model_meta": None,
        }
        arrays: dict[str, np.ndarray] = {}
        if model is not None:
            model_meta, arrays = _base_meta(model, weights or {},
                                            params, hyper)
            meta["model_meta"] = model_meta
        arrays["ckpt.json"] = np.array(json.dumps(meta))
        path = self.path(stage)
        atomic_savez(path, arrays)
        digest_tmp = f"{path}{_DIGEST_SUFFIX}.tmp-{os.getpid()}"
        with open(digest_tmp, "w") as handle:
            handle.write(_file_digest(path))
        os.replace(digest_tmp, path + _DIGEST_SUFFIX)
        return path

    def clear(self) -> None:
        """Remove all stage files (called when the fit completes)."""
        for stage in STAGES:
            for path in (self.path(stage),
                         self.path(stage) + _DIGEST_SUFFIX):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # -- reading -------------------------------------------------------
    def load_latest(self, relation) -> RestoredFit | None:
        """The most advanced valid checkpoint, or ``None``.

        Invalid candidates — missing/mismatched digest sidecar, a
        different fit key, unreadable bytes — are skipped, falling back
        to the next-older stage rather than failing the fit.
        """
        for stage in reversed(STAGES):
            restored = self._load_stage(stage, relation)
            if restored is not None:
                return restored
        return None

    def _load_stage(self, stage: str, relation) -> RestoredFit | None:
        path = self.path(stage)
        try:
            with open(path + _DIGEST_SUFFIX) as handle:
                expected = handle.read().strip()
            if _file_digest(path) != expected:
                return None
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["ckpt.json"]))
                if (meta.get("format") != CKPT_FORMAT
                        or meta.get("stage") != stage
                        or meta.get("fit_key") != self.key):
                    return None
                arrays = {key: data[key] for key in data.files}
        except (OSError, ValueError, KeyError, EOFError) as exc:
            del exc
            return None

        restored = RestoredFit(
            stage=stage,
            sequence=list(meta["sequence"]),
            independent=list(meta["independent"]),
            hyper_groups=[list(g) for g in meta["hyper_groups"]],
            rng_state=meta["rng_state"],
            timings=dict(meta["timings"]),
        )
        if meta["params"] is not None:
            restored.params = KaminoParams(**meta["params"])
        if meta["weights"] is not None:
            restored.weights = _decode_weights(meta["weights"])
        if meta["model_meta"] is not None:
            try:
                restored.model, hyper = _rebuild_model(
                    meta["model_meta"], arrays, relation)
            except (KeyError, ValueError, ModelFormatError):
                return None
            if hyper is not None:
                restored.hyper = hyper
        return restored


def _params_to_dict(params: KaminoParams) -> dict:
    """The *full* params state — unlike the model artifact, resume needs
    every training/weights field, not just the sampling subset."""
    return {f.name: getattr(params, f.name)
            for f in dataclasses.fields(KaminoParams)}
