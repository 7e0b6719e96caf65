"""Growing-database support (§3.2 discussion; paper future work [27]).

The paper's system assumes a static instance, but notes the intended
operational policy for input changes:

* if the DCs change such that Algorithm 4 would produce a *different
  schema sequence*, re-run all of Kamino;
* if the data distribution *shifts significantly*, re-run the generative
  process (training + weight learning);
* otherwise the learned model still describes the data — sampling again
  is pure post-processing and costs no additional privacy budget.

:class:`GrowingSynthesizer` implements that policy.  Shift detection is
itself differentially private: each ``publish``/``update`` releases a
noisy per-attribute histogram fingerprint (Gaussian mechanism, a small
``fingerprint_epsilon`` slice of budget) and compares total variation
distance against the fingerprint the current model was trained on.
Every spend — fingerprints and full runs — is recorded in a
:class:`~repro.privacy.ledger.PrivacyLedger`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.kamino import FittedKamino, Kamino, KaminoResult
from repro.core.sequencing import sequence_attributes
from repro.privacy.ledger import PrivacyLedger
from repro.privacy.mechanisms import GaussianMechanism, gaussian_sigma
from repro.schema.table import Table

#: Update actions, in increasing order of work (and privacy spend).
RESAMPLE = "resample"
RETRAIN = "retrain"
RESEQUENCE = "resequence"


@dataclass
class UpdateDecision:
    """What an update did and why."""

    action: str                  # RESAMPLE | RETRAIN | RESEQUENCE
    reason: str
    shift: float                 # noisy TVD vs the trained fingerprint
    result: KaminoResult
    #: Epsilon spent by this update (fingerprint + run, 0 for pure
    #: resampling with a previously paid fingerprint).
    epsilon_spent: float


def _attribute_histogram(table: Table, attr) -> np.ndarray:
    """Normalized histogram of one attribute (bins for numericals)."""
    col = table.column(attr.name)
    if attr.is_categorical:
        counts = np.bincount(col.astype(np.int64),
                             minlength=attr.domain.size).astype(np.float64)
    else:
        edges = attr.domain.bin_edges()
        counts, _ = np.histogram(col, bins=edges)
        counts = counts.astype(np.float64)
    total = counts.sum()
    return counts / total if total > 0 else counts


def fingerprint_cell_std(table: Table, sigma: float) -> float:
    """Per-cell noise standard deviation of one fingerprint release.

    The fingerprint is one Gaussian query over the concatenation of all
    k normalized histograms.  Replacing one tuple moves one unit of mass
    in each histogram (two cells change by 1/n each), so the L2
    sensitivity of the concatenated vector is ``sqrt(2k)/n`` and the
    per-cell noise std is ``sqrt(2k)/n * sigma``.
    """
    k = table.relation.arity
    return math.sqrt(2.0 * k) / max(table.n, 1) * sigma


def noisy_fingerprint(table: Table, sigma: float,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """DP fingerprint: per-attribute normalized histograms + noise.

    Negative noisy cells are clipped to zero (post-processing, free).
    """
    k = table.relation.arity
    sensitivity = math.sqrt(2.0 * k) / max(table.n, 1)
    mech = GaussianMechanism(sensitivity, sigma, rng)
    out = []
    for attr in table.relation:
        hist = _attribute_histogram(table, attr)
        out.append(np.clip(mech.release(hist), 0.0, None))
    return out


def fingerprint_distance(a: list[np.ndarray], b: list[np.ndarray],
                         cell_std: float = 0.0, n_a: int | None = None,
                         n_b: int | None = None) -> float:
    """Max over attributes of the *debiased* histogram TVD.

    Two identical distributions produce a non-zero raw TVD from (i) the
    Gaussian fingerprint noise and (ii) finite-sample variation between
    the two instances.  Each attribute's raw TVD is therefore reduced by
    an analytic noise floor — the expected TVD under the null (half-
    normal means) plus a two-standard-deviation fluctuation margin — and
    clamped at zero, so the returned value estimates genuine
    *distribution* shift.

    Parameters
    ----------
    cell_std:
        Combined per-cell DP noise std of the two releases
        (``sqrt(std_a^2 + std_b^2)``); 0 disables the DP-noise floor.
    n_a, n_b:
        Row counts of the two instances; None disables the
        sampling-noise floor (the bound uses the worst case of a uniform
        histogram).

    Detection power scales with ``n * epsilon_fp``: at the paper's
    n≈30k a 0.1-epsilon fingerprint resolves percent-level shifts; tiny
    test instances need a looser budget.
    """
    if len(a) != len(b):
        raise ValueError("fingerprints cover different attribute counts")
    half_normal = math.sqrt(2.0 / math.pi)
    half_normal_spread = math.sqrt(1.0 - 2.0 / math.pi)
    s_sample = 0.0
    if n_a and n_b:
        s_sample = math.sqrt(1.0 / n_a + 1.0 / n_b)
    worst = 0.0
    for ha, hb in zip(a, b):
        bins = ha.shape[0]
        raw = 0.5 * float(np.abs(ha - hb).sum())
        dp_floor = 0.5 * cell_std * (
            bins * half_normal + 2.0 * math.sqrt(bins) * half_normal_spread)
        sample_floor = 0.5 * s_sample * (
            math.sqrt(bins) * half_normal + 2.0 * half_normal_spread)
        worst = max(worst, max(0.0, raw - dp_floor - sample_floor))
    return worst


class GrowingSynthesizer:
    """Kamino with an update policy for growing/changing inputs.

    Parameters
    ----------
    relation, dcs, epsilon, delta:
        As for :class:`~repro.core.kamino.Kamino`; ``epsilon`` is the
        budget of *one* generative run (each retrain spends it again —
        the ledger keeps the composed total honest).
    fingerprint_epsilon:
        Budget of one shift-detection fingerprint release.
    shift_threshold:
        Noisy-TVD above which the generative process is re-run.
    ledger:
        Budget ledger to record spends into (one is created if omitted).
    kamino_kwargs:
        Extra keyword arguments forwarded to :class:`Kamino` (e.g.
        ``params_override`` for small-scale runs, or ``use_fd_lookup``
        for the hard-FD lookup path).
    """

    def __init__(self, relation, dcs, epsilon: float, delta: float = 1e-6,
                 fingerprint_epsilon: float = 0.1,
                 shift_threshold: float = 0.05,
                 ledger: PrivacyLedger | None = None, seed: int = 0,
                 **kamino_kwargs):
        if fingerprint_epsilon <= 0:
            raise ValueError("fingerprint_epsilon must be positive")
        if not 0 < shift_threshold < 1:
            raise ValueError("shift_threshold must be in (0, 1)")
        self.relation = relation
        self.dcs = list(dcs)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.fingerprint_epsilon = float(fingerprint_epsilon)
        self.shift_threshold = float(shift_threshold)
        self.ledger = ledger if ledger is not None else PrivacyLedger(delta)
        self.seed = seed
        self.kamino_kwargs = kamino_kwargs
        self._fingerprint: list[np.ndarray] | None = None
        self._fingerprint_cell_std = 0.0
        self._fingerprint_n = 0
        self._fingerprint_sigma = gaussian_sigma(
            self.fingerprint_epsilon, self.delta)
        self._fitted: FittedKamino | None = None
        self._sequence: list[str] | None = None
        self._runs = 0

    # ------------------------------------------------------------------
    @property
    def published(self) -> bool:
        return self._fitted is not None

    def publish(self, table: Table) -> UpdateDecision:
        """First release: run the full pipeline and store a fingerprint."""
        if self.published:
            raise RuntimeError("already published; use update()")
        return self._full_run(table, RESEQUENCE, "initial release")

    def update(self, table: Table, dcs=None) -> UpdateDecision:
        """Apply the paper's update policy to a new instance version.

        1. New DCs changing the Algorithm 4 sequence -> full re-run.
        2. Noisy distribution shift beyond threshold -> re-train.
        3. Otherwise -> re-sample only (no privacy spend).
        """
        if not self.published:
            raise RuntimeError("publish() an initial release first")
        if dcs is not None:
            new_dcs = [dc.bind(self.relation) for dc in dcs]
            new_seq = sequence_attributes(self.relation, new_dcs)
            if new_seq != self._sequence:
                self.dcs = list(dcs)
                return self._full_run(
                    table, RESEQUENCE,
                    "DC change altered the schema sequence")
            self.dcs = list(dcs)
            # Same sequence: the stored model stays valid, but future
            # draws must enforce the updated constraint set.  DCs that
            # were not present at fit time have no learned weight, so
            # give them the Algorithm 5 initial weight (hard DCs are
            # enforced via their hardness flag regardless).
            self._fitted.dcs = new_dcs
            for dc in new_dcs:
                self._fitted.weights.setdefault(
                    dc.name, math.inf if dc.hard
                    else self._fitted.params.weight_init)

        shift, fp = self._measure_shift(table)
        if shift > self.shift_threshold:
            decision = self._full_run(
                table, RETRAIN,
                f"distribution shift {shift:.3f} > "
                f"threshold {self.shift_threshold:g}")
            decision.shift = shift
            return decision

        # Post-processing: sample a fresh instance from the fitted
        # model — a pure FittedKamino.sample, no privacy spend.
        result = self._fitted.sample(n=table.n,
                                     seed=self.seed + 101 + self._runs)
        return UpdateDecision(
            action=RESAMPLE,
            reason=f"shift {shift:.3f} within threshold "
                   f"{self.shift_threshold:g}; model reused",
            shift=shift, result=result,
            epsilon_spent=self.fingerprint_epsilon)

    # ------------------------------------------------------------------
    def _make_kamino(self) -> Kamino:
        return Kamino(self.relation, self.dcs, self.epsilon,
                      delta=self.delta, seed=self.seed + self._runs,
                      **self.kamino_kwargs)

    def _measure_shift(self, table: Table):
        rng = np.random.default_rng(self.seed + 7919 + self._runs)
        fp = noisy_fingerprint(table, self._fingerprint_sigma, rng)
        self.ledger.record_gaussian(
            f"fingerprint#{self._runs}", self._fingerprint_sigma)
        new_cell_std = fingerprint_cell_std(table, self._fingerprint_sigma)
        combined = math.hypot(self._fingerprint_cell_std, new_cell_std)
        shift = fingerprint_distance(self._fingerprint, fp,
                                     cell_std=combined,
                                     n_a=self._fingerprint_n, n_b=table.n)
        return shift, fp

    def _full_run(self, table: Table, action: str,
                  reason: str) -> UpdateDecision:
        kamino = self._make_kamino()
        fitted = kamino.fit(table)
        result = fitted.sample()
        rng = np.random.default_rng(self.seed + 7919 + self._runs)
        self._fingerprint = noisy_fingerprint(
            table, self._fingerprint_sigma, rng)
        self._fingerprint_cell_std = fingerprint_cell_std(
            table, self._fingerprint_sigma)
        self._fingerprint_n = table.n
        self.ledger.record_gaussian(
            f"fingerprint#{self._runs}", self._fingerprint_sigma)
        if kamino.private:
            self.ledger.record_kamino(f"run#{self._runs}", result.params)
        self._fitted = fitted
        self._sequence = list(result.sequence)
        self._runs += 1
        return UpdateDecision(
            action=action, reason=reason, shift=0.0, result=result,
            epsilon_spent=self.fingerprint_epsilon + (
                self.epsilon if kamino.private else 0.0))
