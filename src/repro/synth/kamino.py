"""Kamino behind the synthesizer protocol — a thin adapter.

:class:`repro.core.kamino.Kamino` already *is* staged (PR 4); this
module only wraps it in the protocol surface so the registry, router,
CLI ``--method``, and evaluation harness treat it like every other
backend.  The adapter adds nothing to the pipeline: draws delegate to
:meth:`FittedKamino.sample` (same determinism contract, bit-identical
outputs), persistence delegates to the native model format v2
(``.npz`` via :mod:`repro.core.model_io`), and the budget ledger
records the one composed RDP spend the pipeline makes.
"""

from __future__ import annotations

import math

from repro.core.kamino import FittedKamino, Kamino, KaminoConfig
from repro.synth.ledger import BudgetLedger
from repro.synth.protocol import FittedSynthesizer, Synthesizer


def _pipeline_ledger(config: KaminoConfig) -> BudgetLedger:
    """The pipeline's spend record, derived from its (public) config.

    Kamino composes its internal mechanisms (histogram, DP-SGD
    sub-models, DC-weight estimation) tightly on one RDP curve sized to
    the whole budget (Algorithm 6), so the ledger carries one composed
    entry rather than re-deriving the per-mechanism split the RDP
    accountant already owns.  Non-private fits spend nothing.
    """
    ledger = BudgetLedger()
    if math.isfinite(config.epsilon):
        ledger.spend("rdp:kamino-pipeline (histogram + dp-sgd + "
                     "dc-weights, Algorithm 6 split)", config.epsilon,
                     config.delta)
    return ledger


class FittedKaminoSynthesizer(FittedSynthesizer):
    """Protocol view of a :class:`FittedKamino` artifact."""

    method = "kamino"
    #: Kamino's blocked engine streams chunks at flat memory
    #: (:meth:`FittedKamino.sample_stream`), not the protocol's
    #: chunk-a-single-shot fallback.
    supports_native_stream = True

    def __init__(self, fitted: FittedKamino):
        super().__init__(fitted.relation, fitted.default_n,
                         fitted.config.seed,
                         ledger=_pipeline_ledger(fitted.config))
        self.fitted = fitted

    def sample(self, n=None, seed=None, *, trace=None):
        """Delegates to :meth:`FittedKamino.sample`; returns the table.

        Kamino's own per-call draw argument (``workers``) stays
        available on ``self.fitted`` — the protocol surface is the
        portable subset.
        """
        return self.fitted.sample(n=n, seed=seed, trace=trace).table

    def sample_stream(self, n=None, seed=None, chunk_rows=None, *,
                      trace=None):
        """Bounded-memory chunks via :meth:`FittedKamino.sample_stream`:
        peak memory holds one chunk, never the full ``n`` rows.  A
        stream of one chunk is the single-shot draw; longer ones equal
        it except in the last bits of numerical sub-model heads (see
        :meth:`FittedKamino.sample_stream`).  ``trace`` records one
        :class:`~repro.obs.trace.SampleTrace` with per-column traces;
        it never touches an rng.
        """
        return self.fitted.sample_stream(n=n, seed=seed,
                                         chunk_rows=chunk_rows, trace=trace)

    def save(self, path: str) -> None:
        """Native Kamino model format v2, not the synth payload —
        existing artifacts and tooling keep working unchanged."""
        self.fitted.save(path)

    @classmethod
    def load(cls, path: str, relation, dcs=()):
        return cls(FittedKamino.load(path, relation, dcs))


class KaminoSynthesizer(Synthesizer):
    """The Kamino pipeline as a registry backend.

    Extra keyword arguments are :class:`KaminoConfig` knobs
    (``params_override``, ``group_max_domain``, ``use_fd_lookup``, ...),
    so harness- and CLI-level construction stays one call.
    """

    name = "kamino"
    uses_dcs = True
    supports_infinite_epsilon = True
    fitted_cls = FittedKaminoSynthesizer

    def __init__(self, epsilon: float, delta: float = 1e-6, seed: int = 0,
                 dcs=(), **config_kwargs):
        super().__init__(epsilon, delta=delta, seed=seed)
        self.dcs = list(dcs)
        self.config = KaminoConfig(epsilon=self.epsilon, delta=self.delta,
                                   seed=self.seed, **config_kwargs)

    def fit(self, table, *, trace=None) -> FittedKaminoSynthesizer:
        kamino = Kamino(table.relation, self.dcs, config=self.config)
        return FittedKaminoSynthesizer(kamino.fit(table, trace=trace))
