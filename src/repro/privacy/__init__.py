"""Differential-privacy substrate.

Implements everything §2.4 and §6 of the paper rely on:

* :mod:`repro.privacy.mechanisms` — Gaussian and Laplace mechanisms and
  the classic sigma calibration;
* :mod:`repro.privacy.rdp` — the Rényi-DP accountant: per-step RDP of
  the Sampled Gaussian Mechanism (Lemma 2) as whole curves over the
  order grid, linear composition, the Kamino total of Theorem 1, and
  the tail-bound conversion to (epsilon, delta)-DP of Eqn. (7);
* :mod:`repro.privacy.dpsgd` — differentially private SGD with
  per-sample L2 clipping and Gaussian noising (Algorithm 2, lines
  13-16), consuming the per-sample gradients produced by
  :mod:`repro.nn`;
* :mod:`repro.privacy.sensitivity` — L2 sensitivity helpers, including
  Lemma 1's violation-matrix sensitivity.
"""

from repro.privacy.mechanisms import (
    GaussianMechanism,
    LaplaceMechanism,
    gaussian_sigma,
)
from repro.privacy.rdp import (
    DEFAULT_ALPHAS,
    SgmCurves,
    calibrate_sgm_sigma,
    sgm_epsilon,
    kamino_curve,
    kamino_rdp,
    kamino_epsilon,
    rdp_gaussian,
    rdp_sgm,
    rdp_to_epsilon,
)
from repro.privacy.dpsgd import DPSGD
from repro.privacy.ledger import BudgetExceededError, LedgerEntry, PrivacyLedger
from repro.privacy.sensitivity import (
    histogram_l2_sensitivity,
    violation_matrix_sensitivity,
)

__all__ = [
    "BudgetExceededError",
    "DEFAULT_ALPHAS",
    "DPSGD",
    "calibrate_sgm_sigma",
    "sgm_epsilon",
    "GaussianMechanism",
    "LaplaceMechanism",
    "LedgerEntry",
    "PrivacyLedger",
    "SgmCurves",
    "gaussian_sigma",
    "histogram_l2_sensitivity",
    "kamino_curve",
    "kamino_epsilon",
    "kamino_rdp",
    "rdp_gaussian",
    "rdp_sgm",
    "rdp_to_epsilon",
    "violation_matrix_sensitivity",
]
