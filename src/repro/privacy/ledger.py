"""A privacy-budget ledger for repeated releases against one dataset.

Each Kamino run (or any other DP mechanism touching the same private
instance) spends budget; composition across runs is what the data owner
must account for.  The :class:`PrivacyLedger` keeps one RDP curve per
release, composes them by pointwise addition over a fixed grid of Rényi
orders, and converts the total to ``(epsilon, delta)`` on demand via the
paper's Eqn. (7) tail bound.

Entries are recorded as RDP curves rather than ``(epsilon, delta)``
pairs, so composing many releases stays tight — summing epsilons (naïve
sequential composition) would be far more pessimistic.

The ledger serializes to JSON so it survives the process::

    ledger = PrivacyLedger(delta=1e-6)
    ledger.record_kamino("2024-01 release", result.params)
    ledger.save("ledger.json")
    ...
    ledger = PrivacyLedger.load("ledger.json")
    ledger.spent_epsilon()   # total across both sessions
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.privacy.rdp import (
    DEFAULT_ALPHAS,
    SgmCurves,
    kamino_curve,
    rdp_gaussian,
    rdp_orders,
    rdp_to_epsilon,
)


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded release: a label and its RDP curve on the grid."""

    label: str
    #: RDP values aligned with the ledger's alpha grid.
    rdp: tuple[float, ...]


class BudgetExceededError(RuntimeError):
    """Raised by :meth:`PrivacyLedger.charge` when a release would push
    the composed cost past the configured budget."""


class PrivacyLedger:
    """Composes RDP costs of multiple releases against one database.

    Parameters
    ----------
    delta:
        The delta at which epsilons are reported.
    budget_epsilon:
        Optional hard cap; :meth:`charge` refuses releases that would
        exceed it (the already-recorded entries are never rolled back —
        DP spending is irrevocable).
    alphas:
        The grid of Rényi orders curves are evaluated on: whole numbers
        >= 2, else ``ValueError``.
    """

    def __init__(self, delta: float, budget_epsilon: float | None = None,
                 alphas=DEFAULT_ALPHAS):
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if budget_epsilon is not None and budget_epsilon <= 0:
            raise ValueError("budget_epsilon must be positive")
        self.delta = float(delta)
        self.budget_epsilon = budget_epsilon
        self.alphas = rdp_orders(alphas)
        self.entries: list[LedgerEntry] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_rdp(self, label: str, rdp_fn) -> LedgerEntry:
        """Record a release from its RDP function ``alpha -> value``."""
        return self._record_curve(label, [rdp_fn(a) for a in self.alphas])

    def _record_curve(self, label: str, values) -> LedgerEntry:
        """Record a release from its RDP values on the ledger's grid."""
        curve = tuple(float(v) for v in values)
        if any(not math.isfinite(v) or v < 0 for v in curve):
            raise ValueError(f"RDP curve for {label!r} must be finite "
                             f"and non-negative")
        entry = LedgerEntry(label=label, rdp=curve)
        self.entries.append(entry)
        return entry

    def record_gaussian(self, label: str, sigma: float,
                        count: int = 1) -> LedgerEntry:
        """Record ``count`` Gaussian-mechanism releases at scale ``sigma``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return self.record_rdp(
            label, lambda a: count * rdp_gaussian(sigma, a))

    def record_sgm(self, label: str, q: float, sigma: float,
                   steps: int) -> LedgerEntry:
        """Record ``steps`` Sampled-Gaussian applications at rate ``q``."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        return self._record_curve(
            label, steps * SgmCurves(self.alphas).sgm(q, sigma))

    def record_kamino(self, label: str, params) -> LedgerEntry:
        """Record one full Kamino run from its :class:`KaminoParams`."""
        if not math.isfinite(params.epsilon):
            raise ValueError("cannot ledger a non-private run")
        return self._record_curve(label, kamino_curve(
            SgmCurves(self.alphas), sigma_g=params.sigma_g,
            sigma_d=params.sigma_d, T=params.iterations, k=params.k,
            b=params.batch, n=params.n, learn_weights=params.learn_weights,
            sigma_w=params.sigma_w, L_w=params.L_w, n_hist=params.n_hist,
            n_submodels=params.n_submodels))

    def charge(self, label: str, rdp_fn) -> LedgerEntry:
        """Record a release only if it keeps the total within budget.

        Raises :class:`BudgetExceededError` (recording nothing) if the
        composed epsilon would exceed ``budget_epsilon``.
        """
        entry = self.record_rdp(label, rdp_fn)
        if self.budget_epsilon is not None:
            spent, _ = self.spent()
            if spent > self.budget_epsilon * (1 + 1e-12):
                self.entries.pop()
                raise BudgetExceededError(
                    f"release {label!r} would spend {spent:.4f} > budget "
                    f"{self.budget_epsilon}")
        return entry

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def composed_rdp(self, alpha: int) -> float:
        """Total RDP at order ``alpha`` (must be on the grid)."""
        try:
            idx = self.alphas.index(int(alpha))
        except ValueError:
            raise ValueError(f"alpha {alpha} not on the ledger grid") from None
        return sum(e.rdp[idx] for e in self.entries)

    def spent(self) -> tuple[float, int]:
        """Composed ``(epsilon, best_alpha)`` at the ledger's delta."""
        if not self.entries:
            return 0.0, self.alphas[0]
        return rdp_to_epsilon(self.composed_rdp, self.delta, self.alphas)

    def spent_epsilon(self) -> float:
        """Composed epsilon at the ledger's delta."""
        return self.spent()[0]

    def remaining(self) -> float:
        """Budget headroom (requires ``budget_epsilon``); never negative."""
        if self.budget_epsilon is None:
            raise ValueError("ledger has no budget_epsilon configured")
        return max(0.0, self.budget_epsilon - self.spent_epsilon())

    def summary(self) -> str:
        """Human-readable multi-line report of all entries and the total."""
        lines = [f"PrivacyLedger(delta={self.delta:g})"]
        for entry in self.entries:
            eps, alpha = rdp_to_epsilon(
                lambda a, e=entry: e.rdp[self.alphas.index(a)],
                self.delta, self.alphas)
            lines.append(f"  {entry.label}: standalone eps={eps:.4f} "
                         f"(alpha={alpha})")
        eps, alpha = self.spent()
        lines.append(f"  TOTAL composed: eps={eps:.4f} (alpha={alpha})")
        if self.budget_epsilon is not None:
            lines.append(f"  budget: {self.budget_epsilon:g}, "
                         f"remaining: {self.remaining():.4f}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": "repro.ledger/1",
            "delta": self.delta,
            "budget_epsilon": self.budget_epsilon,
            "alphas": list(self.alphas),
            "entries": [
                {"label": e.label, "rdp": list(e.rdp)} for e in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PrivacyLedger":
        if data.get("format") != "repro.ledger/1":
            raise ValueError(f"unsupported ledger format "
                             f"{data.get('format')!r}")
        ledger = cls(data["delta"], budget_epsilon=data.get("budget_epsilon"),
                     alphas=data["alphas"])
        for raw in data["entries"]:
            ledger.entries.append(
                LedgerEntry(label=raw["label"], rdp=tuple(raw["rdp"])))
        return ledger

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path: str) -> "PrivacyLedger":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        eps, _ = self.spent()
        return (f"PrivacyLedger(entries={len(self.entries)}, "
                f"spent_epsilon={eps:.4f}, delta={self.delta:g})")
