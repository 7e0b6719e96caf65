"""Kamino core: the paper's primary contribution.

* :mod:`repro.core.sequencing` — Algorithm 4 (constraint-aware
  attribute sequencing) and the §4.3 domain-size optimisations;
* :mod:`repro.core.params` — Algorithm 6 (privacy parameter search);
* :mod:`repro.core.training` — Algorithm 2 (private learning of the
  tuple probability chain);
* :mod:`repro.core.weights` — Algorithm 5 (private DC-weight learning);
* :mod:`repro.core.sampling` — Algorithm 3's per-cell machinery
  (constraint-aware candidates and penalties), the constrained MCMC
  refinement and the accept-reject alternative (Experiment 6);
* :mod:`repro.core.engine` — the block-scheduled vectorized sampling
  engine that draws every instance: conflict-aware batching over the
  violation-index group keys, counter-based per-cell rng, and sharded
  parallel draws (``sample(..., workers=k)``);
* :mod:`repro.core.kamino` — Algorithm 1 (end-to-end orchestration),
  staged as ``KaminoConfig`` -> ``Kamino.fit`` -> ``FittedKamino``
  (train once, sample/persist many);
* :mod:`repro.core.model_io` — persistence for fitted models.
"""

from repro.core.sequencing import sequence_attributes, group_small_domains
from repro.core.params import KaminoParams, search_dp_params
from repro.core.training import ProbModel, train_model
from repro.core.weights import learn_dc_weights
from repro.core.sampling import ar_sample
from repro.core.engine import synthesize_engine
from repro.core.kamino import (
    FittedKamino, Kamino, KaminoConfig, KaminoResult,
)
from repro.core.growing import GrowingSynthesizer, UpdateDecision
from repro.core.model_io import load_model, save_model

__all__ = [
    "FittedKamino",
    "GrowingSynthesizer",
    "Kamino",
    "KaminoConfig",
    "KaminoParams",
    "KaminoResult",
    "ProbModel",
    "ar_sample",
    "group_small_domains",
    "learn_dc_weights",
    "load_model",
    "save_model",
    "search_dp_params",
    "sequence_attributes",
    "synthesize_engine",
    "train_model",
    "UpdateDecision",
]
