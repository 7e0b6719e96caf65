"""Persistence for trained probabilistic data models.

Training is the expensive, privacy-consuming phase; sampling is free
post-processing.  Persisting the fitted model lets a data owner
synthesize more instances later — different sizes, different seeds,
different machines — without touching the private data or the budget
again.  The staged API makes this one line each way::

    fitted = Kamino(relation, dcs, config=cfg).fit(private_table)
    fitted.save("model.npz")
    ...
    fitted = FittedKamino.load("model.npz", relation, dcs)
    more = fitted.sample(n=10_000, seed=1).table

The lower-level :func:`save_model` / :func:`load_model` pair persists
just the ``(model, weights, params)`` triple for callers that drive
:func:`repro.core.engine.synthesize_engine` themselves.

Format: one ``.npz`` holding every parameter array (namespaced per
sub-model, so parallel-trained models with per-model encoders round-trip
too) plus a JSON metadata blob.  Version 2 of the format additionally
records the hyper-attribute grouping (as member-name groups — the
working relation is re-derived from them), the schema sequence, the
independent-attribute set, the :class:`~repro.core.kamino.KaminoConfig`,
the post-fit sampler randomness state, and the engine's counter-rng spec
(Philox scheme + noise chunking), so grouped and large-domain-fallback
models round-trip and a reloaded model reproduces the original draws bit
for bit.  The config's ``engine`` entry is written as ``"blocked"``, the
only engine, its four draw-scheduling entries as the defaults they
always held, and the retired switch between prefix scans and violation
indexes as ``true`` (every DC is index-served); all six are ignored on
load.

Version 1 files and v2 files whose ``engine`` entry reads ``"row"`` or
is missing were fitted for a retired per-row sampler.  They still load,
and draw on the blocked engine: their draws differ, once, from the ones
that sampler made.  Refusing them would force a refit, which spends the
budget again; a redraw is free post-processing.

The relation is *not* stored — it is public schema the caller already
persists via :mod:`repro.io`; passing a mismatching relation fails
fast.  Denial constraints are likewise re-supplied on load
(:meth:`FittedKamino.load`); only their learned weights are stored.
"""

from __future__ import annotations

import json
import math
import os
import zipfile

import numpy as np

from repro.aimnet import AimNet, EmbeddingStore
from repro.core.hyper import HyperSpec
from repro.core.params import KaminoParams
from repro.core.training import HistogramModel, ProbModel
from repro.faults import fault_point
from repro.schema.quantize import Quantizer

FORMAT_TAG = "repro.model/2"
_V1_FORMAT_TAG = "repro.model/1"


class ModelFormatError(ValueError):
    """A model artifact that cannot be read: names the file and the
    section that failed so a corrupt or truncated save is a one-line
    diagnosis instead of a raw numpy/zipfile traceback."""

    def __init__(self, path: str, section: str, detail: str):
        self.path = str(path)
        self.section = section
        self.detail = detail
        super().__init__(f"{path}: unreadable model artifact "
                         f"({section}): {detail}")


def atomic_savez(path: str, arrays: dict) -> None:
    """``np.savez`` through a same-directory tmp file + ``os.replace``.

    A crash (or injected fault) mid-save leaves the previous artifact —
    if any — untouched; the final path is either the old complete file
    or the new complete file, never a truncation.  The tmp file is
    opened explicitly so numpy cannot append ``.npz`` to suffix-less
    destinations.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
        fault_point("model_io.save")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

#: KaminoParams fields the sampler reads; everything else is training
#: state that has already been consumed.
_SAMPLING_PARAMS = ("epsilon", "delta", "num_candidates", "mcmc_m",
                    "quant_bins", "n", "k")

#: Retired config entries and the constants they are written as: the
#: engine choice, the draw-scheduling defaults (now per-call
#: arguments) and the scan-or-index probe switch (every DC is
#: index-served).  Writing them keeps ``meta.json``, artifact
#: digests and checkpoint keys unchanged; loading ignores them.
_RETIRED_CONFIG = {"use_violation_index": True, "engine": "blocked",
                   "workers": 1, "pool": "thread", "max_block_rows": 512,
                   "stream_chunk_rows": 65536}

#: The persisted config fields, in their order in ``meta.json``: every
#: KaminoConfig field but ``params_override`` (a callable consumed during
#: fit), plus the :data:`_RETIRED_CONFIG` entries.
_PERSISTED_CONFIG = ("epsilon", "delta", "seed", "group_max_domain",
                     "large_domain_threshold", "use_fd_lookup",
                     "use_violation_index", "parallel_training",
                     "random_sequence", "constraint_aware_sampling",
                     "weight_estimator", "engine", "workers", "pool",
                     "max_block_rows", "stream_chunk_rows")


def persisted_config(config) -> dict:
    """The ``meta.json`` record of ``config``: the
    :data:`_PERSISTED_CONFIG` fields, in order."""
    return {f: _RETIRED_CONFIG[f] if f in _RETIRED_CONFIG
            else getattr(config, f) for f in _PERSISTED_CONFIG}


def _histogram_meta(hist: HistogramModel) -> dict:
    return {
        "attr": hist.attribute.name,
        "quantized": hist.quantizer is not None,
        "q": hist.quantizer.q if hist.quantizer is not None else None,
    }


def _rebuild_histogram(relation, meta: dict,
                       probs: np.ndarray) -> HistogramModel:
    attribute = relation[meta["attr"]]
    quantizer = (Quantizer(attribute.domain, meta["q"])
                 if meta["quantized"] else None)
    return HistogramModel(attribute, probs, quantizer)


def _store_is_shared(model: ProbModel) -> bool:
    """True if sub-models share encoder objects (sequential training)."""
    seen: dict[int, str] = {}
    for target, sub in model.submodels.items():
        for attr, encoder in sub.encoders.items():
            owner = seen.setdefault(id(encoder), target)
            if owner != target:
                return True
    return len(model.submodels) <= 1


def _encode_weights(weights: dict) -> dict:
    return {name: ("inf" if math.isinf(w) else float(w))
            for name, w in weights.items()}


def _decode_weights(meta_weights: dict) -> dict:
    return {name: (math.inf if w == "inf" else float(w))
            for name, w in meta_weights.items()}


def _base_meta(model: ProbModel, weights: dict, params: KaminoParams,
               hyper: HyperSpec | None) -> tuple[dict, dict]:
    """The (meta, arrays) common to plain and fitted saves."""
    is_hyper = any("+" in w for w in model.sequence)
    if is_hyper:
        if hyper is None:
            raise ValueError(
                "hyper-attribute models need their HyperSpec to "
                "round-trip; pass hyper= (or save via FittedKamino.save)")
        if set(model.sequence) - set(hyper.working_sequence):
            raise ValueError(
                "hyper spec does not cover the model sequence")
    arrays: dict[str, np.ndarray] = {"first.probs": model.first.probs}
    meta = {
        "format": FORMAT_TAG,
        "dim": next(iter(model.submodels.values())).dim
               if model.submodels else 0,
        "sequence": model.sequence,
        "schema": model.relation.names,
        "base_schema": (hyper.relation.names if hyper is not None
                        else model.relation.names),
        "hyper_groups": hyper.groups if hyper is not None else None,
        "targets": {t: model.context_attrs[t] for t in model.submodels},
        "first": _histogram_meta(model.first),
        "independent": {},
        "shared_store": _store_is_shared(model),
        "weights": _encode_weights(weights),
        "params": {f: getattr(params, f) for f in _SAMPLING_PARAMS},
        "params_extra": {"achieved_epsilon": params.achieved_epsilon,
                         "best_alpha": params.best_alpha},
    }
    for attr, hist in model.independent.items():
        meta["independent"][attr] = _histogram_meta(hist)
        arrays[f"indep.{attr}.probs"] = hist.probs
    for target, sub in model.submodels.items():
        for p in sub.parameters():
            arrays[f"{target}::{p.name}"] = p.value
    return meta, arrays


def save_model(path: str, model: ProbModel, weights: dict,
               params: KaminoParams, hyper: HyperSpec | None = None) -> None:
    """Write the model, DC weights, and sampling parameters to ``path``.

    Models over a grouped working relation additionally need the
    ``hyper`` spec (its member groups are stored so the working relation
    can be re-derived on load).
    """
    meta, arrays = _base_meta(model, weights, params, hyper)
    arrays["meta.json"] = np.array(json.dumps(meta))
    atomic_savez(path, arrays)


def save_fitted(path: str, fitted) -> None:
    """Write a full :class:`~repro.core.kamino.FittedKamino` to ``path``.

    On top of :func:`save_model` this records the schema sequence, the
    independent-attribute set, the config, the fit timings, the
    post-fit sampler state, and the counter-rng spec, so the reloaded
    artifact reproduces the original draws bit for bit.
    """
    meta, arrays = _base_meta(fitted.model, fitted.weights, fitted.params,
                              fitted.hyper)
    config = fitted.config
    meta["fitted"] = {
        "sequence": list(fitted.sequence),
        "independent": list(fitted.independent),
        "default_n": int(fitted.default_n),
        "fit_timings": {k: float(v)
                        for k, v in fitted.fit_timings.items()},
        "sampling_state": fitted.sampling_state,
        "config": persisted_config(config),
        "params_override_used": config.params_override is not None,
        # Counter-rng spec of the blocked engine: a reloaded model must
        # draw with the chunking it was fitted under to replay draws.
        "rng_spec": fitted.rng_spec,
    }
    arrays["meta.json"] = np.array(json.dumps(meta))
    atomic_savez(path, arrays)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _read_npz(path: str) -> tuple[dict, dict]:
    fault_point("model_io.read")
    try:
        with np.load(path, allow_pickle=False) as data:
            try:
                raw_meta = data["meta.json"]
            except KeyError:
                raise ModelFormatError(
                    path, "metadata", "missing meta.json member") from None
            try:
                meta = json.loads(str(raw_meta))
            except json.JSONDecodeError as exc:
                raise ModelFormatError(path, "metadata",
                                       f"bad JSON: {exc}") from exc
            if meta.get("format") not in (FORMAT_TAG, _V1_FORMAT_TAG):
                raise ModelFormatError(
                    path, "metadata",
                    f"unsupported model format {meta.get('format')!r}")
            try:
                arrays = {key: data[key] for key in data.files}
            except (ValueError, OSError, zipfile.BadZipFile) as exc:
                raise ModelFormatError(path, "parameter arrays",
                                       str(exc)) from exc
    except ModelFormatError:
        raise
    except (OSError, zipfile.BadZipFile, ValueError, EOFError) as exc:
        # np.load raises OSError/ValueError on truncated or non-zip
        # bytes; FileNotFoundError stays a plain missing-file error.
        if isinstance(exc, FileNotFoundError):
            raise
        raise ModelFormatError(path, "container", str(exc)) from exc
    return meta, arrays


def _rebuild_model(meta: dict, arrays: dict, relation
                   ) -> tuple[ProbModel, HyperSpec | None]:
    groups = meta.get("hyper_groups")
    base_schema = meta.get("base_schema", meta["schema"])
    if sorted(base_schema) != sorted(relation.names):
        raise ValueError(
            f"schema mismatch: model was trained over "
            f"{sorted(base_schema)}, got {sorted(relation.names)}")
    if groups is not None:
        hyper = HyperSpec(relation, groups)
        model_relation = hyper.working_relation
    else:
        hyper = None
        model_relation = relation

    first = _rebuild_histogram(model_relation, meta["first"],
                               arrays["first.probs"])
    independent = {
        attr: _rebuild_histogram(model_relation, h_meta,
                                 arrays[f"indep.{attr}.probs"])
        for attr, h_meta in meta["independent"].items()
    }

    rng = np.random.default_rng(0)  # values are overwritten below
    shared = EmbeddingStore(meta["dim"], rng) if meta["shared_store"] \
        else None
    submodels: dict[str, AimNet] = {}
    context_attrs: dict[str, list[str]] = {}
    # Rebuild in sequence order so shared encoders are created in the
    # same order as during training.
    for target in meta["sequence"]:
        if target not in meta["targets"]:
            continue
        context = list(meta["targets"][target])
        store = shared if shared is not None \
            else EmbeddingStore(meta["dim"], rng)
        sub = AimNet(model_relation, context, target, meta["dim"], rng,
                     store=store)
        for p in sub.parameters():
            key = f"{target}::{p.name}"
            saved = arrays[key]
            if saved.shape != p.value.shape:
                raise ValueError(
                    f"shape mismatch for {key}: saved {saved.shape}, "
                    f"model {p.value.shape}")
            p.value[...] = saved
        submodels[target] = sub
        context_attrs[target] = context

    model = ProbModel(model_relation, meta["sequence"], first, submodels,
                      independent, context_attrs)
    return model, hyper


def _rebuild_params(meta: dict) -> KaminoParams:
    params = KaminoParams(
        **{f: meta["params"][f] for f in _SAMPLING_PARAMS})
    extra = meta.get("params_extra")
    if extra is not None:
        params.achieved_epsilon = extra["achieved_epsilon"]
        params.best_alpha = extra["best_alpha"]
    return params


def load_model(path: str, relation
               ) -> tuple[ProbModel, dict, KaminoParams]:
    """Read back ``(model, weights, params)`` saved by :func:`save_model`.

    ``relation`` must be the same public schema the model was trained
    over (attribute names are checked; domains are trusted, as they are
    part of the same public schema file).  Grouped models are rebuilt
    over the working relation re-derived from the stored groups; use
    :func:`load_fitted` to also recover the :class:`HyperSpec` the
    sampler needs.
    """
    meta, arrays = _read_npz(path)
    try:
        model, _ = _rebuild_model(meta, arrays, relation)
    except KeyError as exc:
        raise ModelFormatError(path, "parameter arrays",
                               f"missing member {exc}") from exc
    weights = _decode_weights(meta["weights"])
    return model, weights, _rebuild_params(meta)


def load_fitted(path: str, relation) -> dict:
    """Read back everything :func:`save_fitted` stored, as a payload
    dict consumed by :meth:`repro.core.kamino.FittedKamino.load`."""
    from repro.core.kamino import KaminoConfig

    meta, arrays = _read_npz(path)
    fitted_meta = meta.get("fitted")
    if fitted_meta is None:
        raise ValueError(
            f"{path} holds a bare model (save_model), not a fitted "
            f"pipeline artifact; load it with load_model() instead")
    try:
        model, hyper = _rebuild_model(meta, arrays, relation)
    except KeyError as exc:
        raise ModelFormatError(path, "parameter arrays",
                               f"missing member {exc}") from exc
    if hyper is None:
        hyper = HyperSpec.trivial(relation, fitted_meta["sequence"])
    # Every artifact draws on the blocked engine, whichever engine (or
    # none, before the entry existed) it records, schedules each draw
    # per call, whatever scheduling it records, and probes the
    # violation indexes, whatever probe switch it records.
    config_meta = {k: v for k, v in fitted_meta["config"].items()
                   if k not in _RETIRED_CONFIG}
    config = KaminoConfig(params_override=None, **config_meta)
    return {
        "model": model,
        "hyper": hyper,
        "weights": _decode_weights(meta["weights"]),
        "params": _rebuild_params(meta),
        "config": config,
        "sequence": list(fitted_meta["sequence"]),
        "independent": list(fitted_meta["independent"]),
        "default_n": int(fitted_meta["default_n"]),
        "fit_timings": dict(fitted_meta["fit_timings"]),
        "sampling_state": fitted_meta["sampling_state"],
        "rng_spec": fitted_meta.get("rng_spec"),
    }
