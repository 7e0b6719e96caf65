"""Algorithm 6 — privacy parameter search.

Given a total budget (epsilon, delta), pick the configuration set Psi
(noise scales, batch size, iteration counts) so that the composed RDP
cost of the whole pipeline (Theorem 1) converts to at most epsilon at
the given delta.  The search starts from the most accurate ("boldest")
setting — minimal noise, maximal iterations/batch — and walks a priority
order (decrease T, increase sigma_d, increase sigma_g, decrease b) until
the budget constraint is met.

Deviation from the paper, documented in DESIGN.md: Algorithm 6 line 7
fixes the DC-weight noise via ``epsilon_w = 100``, which by the paper's
own Theorem 1 contributes far more than epsilon = 1 on its own.  We
therefore include ``sigma_w`` in the tuning loop (after ``sigma_g``),
so the search always terminates with a configuration that genuinely
satisfies the requested budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.privacy.rdp import SgmCurves, kamino_curve, kamino_epsilon, \
    rdp_gaussian


@dataclass
class KaminoParams:
    """The configuration set Psi consumed by Algorithms 2, 3, and 5."""

    epsilon: float
    delta: float
    # -- DP-SGD (Algorithm 2) -----------------------------------------
    clip_norm: float = 1.0          # C, the L2 gradient clip
    lr: float = 0.05                # eta
    sigma_g: float = 1.0            # first-attribute histogram noise
    sigma_d: float = 1.0            # DP-SGD noise multiplier
    batch: int = 32                 # b (expected Poisson batch size)
    iterations: int = 100           # T per sub-model
    quant_bins: int = 16            # q, bins for numerical first attr
    embed_dim: int = 16             # d, shared embedding dimension
    # -- DC-weight learning (Algorithm 5) ------------------------------
    learn_weights: bool = False
    sigma_w: float = 0.3
    L_w: int = 50
    batch_w: int = 1                # b_w
    iterations_w: int = 50          # T_w
    lr_w: float = 0.5
    weight_init: float = 5.0
    weight_max: float = 10.0
    # -- Sampling (Algorithm 3) ----------------------------------------
    num_candidates: int = 25        # d, candidates for numerical targets
    mcmc_m: int = 0                 # resampled cells per attribute
    # -- Structure (§4.3 optimisations) ---------------------------------
    n_hist: int = 1                 # Gaussian-histogram releases
    n_submodels: int | None = None  # override of k - 1 (grouping/fallback)
    # -- Bookkeeping -----------------------------------------------------
    n: int = 0
    k: int = 0
    achieved_epsilon: float = field(default=math.nan)
    best_alpha: int = field(default=0)

    def accounted_epsilon(self, curves: SgmCurves | None = None
                          ) -> tuple[float, int]:
        """Recompute the end-to-end (epsilon, alpha) for this config,
        reusing the SGM curves memoised in ``curves`` if given."""
        return kamino_epsilon(
            self.delta, sigma_g=self.sigma_g, sigma_d=self.sigma_d,
            T=self.iterations, k=self.k, b=self.batch, n=self.n,
            learn_weights=self.learn_weights, sigma_w=self.sigma_w,
            L_w=self.L_w, n_hist=self.n_hist, n_submodels=self.n_submodels,
            curves=curves,
        )


def _backoff_sigma_g(params: "KaminoParams", epsilon: float,
                     sigma_g_min: float, curves: SgmCurves) -> None:
    """Re-tighten the histogram noise once the budget is met.

    The priority loop bumps every knob per round, so sigma_g often ends
    far above what the composition needs (M2 dominates).  Walking it
    back down while the total stays within budget recovers first-
    attribute marginal accuracy for free.
    """
    while params.sigma_g > sigma_g_min:
        candidate = max(sigma_g_min, params.sigma_g / 1.25)
        saved = params.sigma_g
        params.sigma_g = candidate
        achieved, _ = params.accounted_epsilon(curves)
        if achieved > epsilon:
            params.sigma_g = saved
            return


def _backoff_sigma_w(params: "KaminoParams", epsilon: float,
                     curves: SgmCurves, sigma_w_min: float = 0.3) -> None:
    """Re-tighten the DC-weight noise once the budget is met.

    M3 is a single subsampled release, so its share of the composition
    is tiny; the priority loop nevertheless inflates sigma_w in lock
    step with the other knobs.  Walking it back down keeps the
    violation-rate estimates informative (see repro.core.weights) at
    negligible epsilon cost.
    """
    if not params.learn_weights:
        return
    while params.sigma_w > sigma_w_min:
        candidate = max(sigma_w_min, params.sigma_w / 1.25)
        saved = params.sigma_w
        params.sigma_w = candidate
        achieved, _ = params.accounted_epsilon(curves)
        if achieved > epsilon:
            params.sigma_w = saved
            return


def _histogram_share(params: "KaminoParams", curves: SgmCurves) -> float:
    """Fraction of the total RDP cost contributed by the histogram
    releases (M1) at the configuration's best order."""
    _, alpha = params.accounted_epsilon(curves)
    total = kamino_curve(
        curves, sigma_g=params.sigma_g, sigma_d=params.sigma_d,
        T=params.iterations, k=params.k, b=params.batch, n=params.n,
        learn_weights=params.learn_weights, sigma_w=params.sigma_w,
        L_w=params.L_w, n_hist=params.n_hist,
        n_submodels=params.n_submodels)[curves.alphas.index(alpha)]
    hist = params.n_hist * rdp_gaussian(params.sigma_g, alpha)
    return hist / max(total, 1e-12)


def search_dp_params(epsilon: float, delta: float, relation, sequence,
                     n: int, learn_weights: bool = False,
                     n_hist: int = 1, n_submodels: int | None = None,
                     max_rounds: int = 10_000) -> KaminoParams:
    """Algorithm 6: find Psi with end-to-end cost at most (epsilon, delta).

    Parameters
    ----------
    epsilon, delta:
        The total privacy budget.
    relation, sequence:
        Schema and schema sequence (the first attribute's domain size
        bounds the histogram-noise search range, Algorithm 6 line 3).
    n:
        Number of rows in the private instance.
    learn_weights:
        Whether Algorithm 5 will run (soft DCs present).
    n_hist, n_submodels:
        Structural overrides from the §4.3 optimisations.
    max_rounds:
        Safety bound on the tuning loop.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    k = len(sequence)
    first_domain = relation[sequence[0]].domain.size

    # Search ranges (Algorithm 6, lines 2-4).  The paper's heuristic
    # ranges assume n ~ 30k rows; at smaller scales they can be
    # infeasible for tight budgets, so a relaxation stage below widens
    # sigma_d and lowers the iteration floor before giving up.
    sigma_g_min = max(0.1 / first_domain, 0.05)
    sigma_g_max = 4.0 * math.sqrt(math.log(1.25 / delta)) / epsilon
    sigma_d_min, sigma_d_max = 1.0, 1.5
    sigma_d_ceiling = 64.0
    b_min, b_max = 16, 32
    b_floor = 8
    T_max = max(1, (5 * n) // b_min)
    T_min = max(1, n // b_max)

    params = KaminoParams(
        epsilon=epsilon, delta=delta, n=n, k=k,
        sigma_g=sigma_g_min, sigma_d=sigma_d_min,
        batch=b_max, iterations=T_max,
        learn_weights=learn_weights, n_hist=n_hist,
        n_submodels=n_submodels,
    )
    sigma_w_max = max(sigma_g_max, params.sigma_w)
    # Changing T, backing off sigma_g or checking the histogram share
    # never changes an SGM curve, so the search keeps one memo of them;
    # it goes when the search returns.
    curves = SgmCurves()

    for _ in range(max_rounds):
        achieved, alpha = params.accounted_epsilon(curves)
        if achieved <= epsilon:
            _backoff_sigma_g(params, epsilon, sigma_g_min, curves)
            _backoff_sigma_w(params, epsilon, curves)
            achieved, alpha = params.accounted_epsilon(curves)
            params.achieved_epsilon = achieved
            params.best_alpha = alpha
            return params
        progressed = False
        if params.iterations > T_min:
            params.iterations = max(T_min, int(params.iterations * 0.9))
            progressed = True
        if params.sigma_d < sigma_d_max:
            params.sigma_d = min(sigma_d_max, params.sigma_d + 0.05)
            progressed = True
        if (params.sigma_g < sigma_g_max
                and _histogram_share(params, curves) > 0.05):
            # Only trade histogram accuracy for budget when M1 actually
            # contributes: raising sigma_g past the point where M2
            # dominates the composition would destroy the first
            # attribute's marginal for no epsilon savings.
            params.sigma_g = min(sigma_g_max, params.sigma_g * 1.25)
            progressed = True
        if learn_weights and params.sigma_w < sigma_w_max:
            params.sigma_w = min(sigma_w_max, params.sigma_w * 1.25)
            progressed = True
        if params.batch > b_min:
            params.batch = max(b_min, params.batch - 2)
            progressed = True
        if not progressed:
            # Relaxation stage for small-n / tight-budget settings.
            if T_min > 1:
                T_min = 1
                progressed = True
            elif params.iterations > 1:
                params.iterations = max(1, int(params.iterations * 0.8))
                progressed = True
            if sigma_d_max < sigma_d_ceiling:
                sigma_d_max = min(sigma_d_ceiling, sigma_d_max * 1.5)
                progressed = True
            if b_min > b_floor:
                b_min = b_floor
                progressed = True
        if not progressed:
            raise ValueError(
                f"no parameter setting fits budget epsilon={epsilon}: "
                f"cheapest configuration still costs {achieved:.3f}"
            )
    raise RuntimeError("parameter search did not terminate")
