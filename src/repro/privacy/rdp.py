"""Rényi differential privacy accounting (§6 of the paper).

The total privacy cost of Kamino (Theorem 1) composes three mechanism
families, each an instance of the Sampled Gaussian Mechanism (SGM):

* M1 — the first-attribute histogram: sampling rate 1, noise scale
  ``sigma_g`` (RDP ``alpha / (2 sigma_g^2)``);
* M2 — DP-SGD over ``T (k-1)`` iterations at sampling rate ``b/n`` with
  noise scale ``sigma_d``;
* M3 — the DC-weight violation matrix: one SGM release at sampling rate
  ``L_w / n`` with noise scale ``sigma_w``.

Per-step SGM RDP uses the integer-order formula of Mironov, Talwar &
Zhang (2019) — the paper's Lemma 2 — computed in log space::

    R(alpha) = 1/(alpha-1) * log( sum_{k=0}^{alpha}
                  C(alpha,k) (1-q)^(alpha-k) q^k exp((k^2-k)/(2 sigma^2)) )

(The ``q = 1`` case degenerates to the plain Gaussian ``alpha/(2 sigma^2)``,
which fixes the normalisation: Lemma 2's sum is the moment bound, and
the Rényi divergence includes the ``log / (alpha - 1)``.)

Conversion to (epsilon, delta)-DP uses the tail bound (Eqn. 7)::

    epsilon(delta) = min_alpha  R(alpha) + log(1/delta) / (alpha - 1)

The accountant works on whole curves: :class:`SgmCurves` evaluates
Lemma 2 at every order of a grid in one pass per ``(q, sigma)`` and
memoises the result for as long as its owner keeps it, and Theorem 1
composes those curves as arrays (:func:`kamino_curve`).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

#: Integer Rényi orders searched during conversion, following the
#: "searched within a range" practice the paper cites [83].  The sparse
#: tail beyond 64 matters for very tight budgets: at delta = 1e-6 the
#: conversion term log(1/delta)/(alpha - 1) alone exceeds epsilon = 0.1
#: unless alpha > 139.
DEFAULT_ALPHAS = tuple(range(2, 65)) + (
    72, 80, 96, 128, 160, 192, 256, 320, 384, 448, 512, 768, 1024)


def rdp_orders(alphas) -> tuple[int, ...]:
    """``alphas`` as a tuple of ints, or ``ValueError`` unless every
    order is a whole number >= 2 (``3``, ``np.int64(3)`` and ``3.0``
    pass; ``2.5`` does not — truncating it would under-report the
    cost)."""
    orders = []
    for alpha in alphas:
        try:
            whole = float(alpha).is_integer() and alpha >= 2
        except (TypeError, ValueError):
            whole = False
        if not whole:
            raise ValueError(
                f"Rényi orders must be whole numbers >= 2, got {alpha!r}")
        orders.append(int(alpha))
    if not orders:
        raise ValueError("need at least one Rényi order")
    return tuple(orders)


def rdp_gaussian(sigma: float, alpha):
    """RDP of the (unsampled) Gaussian mechanism: ``alpha/(2 sigma^2)``.

    ``alpha`` may be an array of orders."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return alpha / (2.0 * sigma ** 2)


class SgmCurves:
    """Lemma 2 RDP curves over one grid of Rényi orders, memoised by
    ``(q, sigma)``.

    A curve holds the per-application SGM RDP at every order of
    :attr:`alphas`.  All orders are computed in one pass that shares the
    terms that do not depend on the order (the log-binomial table,
    ``k log q``, ``(alpha-k) log(1-q)``, ``(k^2-k)/(2 sigma^2)``); each
    order's log-sum-exp then follows scipy's ``logsumexp`` step for step
    (split off the maximum term, sum the rest over that order's own
    ``k = 0..alpha`` slice), so every value equals the scalar one-order
    formula bit for bit.  Summing padded rows instead would regroup
    numpy's pairwise summation and change the last bits.

    The memo lives as long as the instance and its curves are
    read-only.  Create one per search (Algorithm 6, a sigma bisection)
    and let it go with the search: nothing is cached process-wide.
    """

    def __init__(self, alphas=DEFAULT_ALPHAS):
        self.alphas = rdp_orders(alphas)
        self.orders = np.array(self.alphas, dtype=np.int64)
        # The terms of every order laid end to end: order i owns the
        # slice bounds[i]:bounds[i+1], one entry per k = 0..alpha.
        bounds = np.concatenate(([0], np.cumsum(self.orders + 1)))
        self._seg = np.repeat(np.arange(self.orders.size), self.orders + 1)
        self._starts = bounds[:-1]
        self._slices = [slice(lo, hi) for lo, hi in
                        zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        k = np.arange(bounds[-1]) - self._starts[self._seg]
        alpha = self.orders[self._seg]
        lgamma = gammaln(np.arange(self.orders.max() + 1, dtype=np.float64)
                         + 1)
        self._log_binom = (lgamma[alpha] - lgamma[k]) - lgamma[alpha - k]
        self._k = k.astype(np.float64)
        self._rest = (alpha - k).astype(np.float64)
        self._k_pairs = self._k * self._k - self._k
        self._memo: dict[tuple[float, float], np.ndarray] = {}

    def sgm(self, q: float, sigma: float) -> np.ndarray:
        """Per-application RDP of the SGM at rate ``q`` and noise scale
        ``sigma``, at every order of the grid."""
        key = (q, sigma)
        curve = self._memo.get(key)
        if curve is None:
            curve = self._memo[key] = self._sgm(q, sigma)
        return curve

    def _sgm(self, q: float, sigma: float) -> np.ndarray:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"sampling rate must be in (0, 1], got {q}")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if q == 1.0:
            curve = rdp_gaussian(sigma, self.orders)
        else:
            terms = (self._log_binom + self._rest * np.log1p(-q)
                     + self._k * np.log(q)
                     + self._k_pairs / (2.0 * sigma ** 2))
            # scipy's logsumexp: log1p(sum of the others, shifted by the
            # maximum, over the maximum's multiplicity) + log(multiplicity)
            # + maximum.  Its fallback for a non-finite result yields the
            # same inf/nan here: the terms are finite unless 2 sigma^2
            # underflows.
            top = np.maximum.reduceat(terms, self._starts)
            top_per_term = top[self._seg]
            at_top = terms == top_per_term
            count = np.add.reduceat(at_top, self._starts, dtype=np.float64)
            shifted = np.exp(np.where(at_top, -np.inf, terms - top_per_term))
            rest = np.array([shifted[s].sum() for s in self._slices])
            curve = (np.log1p(rest / count) + np.log(count) + top) \
                / (self.orders - 1)
        curve.flags.writeable = False
        return curve


def _curve_epsilon(curve, delta: float, alphas) -> tuple[float, int]:
    """Tail-bound conversion (Eqn. 7) of an RDP curve on ``alphas``:
    returns (epsilon, best_alpha), the first order that attains the
    minimum."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    orders = np.asarray(alphas)
    eps = (np.asarray(curve, dtype=np.float64)
           + np.log(1.0 / delta) / (orders - 1))
    eps[np.isnan(eps)] = np.inf  # a nan order never wins, as in a < scan
    best = int(np.argmin(eps))
    return float(eps[best]), int(orders[best])


def rdp_to_epsilon(rdp_fn, delta: float,
                   alphas=DEFAULT_ALPHAS) -> tuple[float, int]:
    """Tail-bound conversion (Eqn. 7): returns (epsilon, best_alpha).

    ``rdp_fn(alpha)`` must return the composed RDP at integer order
    ``alpha``.
    """
    return _curve_epsilon([rdp_fn(alpha) for alpha in alphas], delta,
                          alphas)


def rdp_sgm(q: float, sigma: float, alpha: int) -> float:
    """Per-application RDP of the Sampled Gaussian Mechanism (Lemma 2).

    Parameters
    ----------
    q:
        Poisson sampling rate in (0, 1].
    sigma:
        Gaussian noise scale (relative to the query's sensitivity).
    alpha:
        Integer Rényi order >= 2.
    """
    return float(SgmCurves((alpha,)).sgm(q, sigma)[0])


def sgm_epsilon(delta: float, q: float, sigma: float, steps: int,
                curves: SgmCurves | None = None) -> float:
    """(epsilon) of ``steps`` composed SGM applications at rate ``q``,
    converted over the orders of ``curves`` (default grid if omitted)."""
    curves = SgmCurves() if curves is None else curves
    eps, _ = _curve_epsilon(steps * curves.sgm(q, sigma), delta,
                            curves.alphas)
    return eps


def calibrate_sgm_sigma(epsilon: float, delta: float, q: float, steps: int,
                        sigma_lo: float = 0.3, sigma_hi: float = 200.0,
                        tol: float = 1e-3) -> float:
    """Smallest noise scale whose ``steps``-fold SGM composition fits
    the (epsilon, delta) budget — bisection over sigma.

    Used by the baselines (DP-VAE's DP-SGD, PATE-GAN's vote noising,
    NIST's marginal measurements) to spend exactly their budget.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    curves = SgmCurves()
    # Tight budgets with many composed steps can need sigma far above
    # the nominal ceiling; grow it geometrically before bisecting.
    expansions = 0
    while sgm_epsilon(delta, q, sigma_hi, steps, curves) > epsilon:
        sigma_hi *= 4.0
        expansions += 1
        if expansions > 12:
            raise ValueError(
                f"budget epsilon={epsilon} unreachable even at sigma="
                f"{sigma_hi}")
    lo, hi = sigma_lo, sigma_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if sgm_epsilon(delta, q, mid, steps, curves) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def kamino_curve(curves: SgmCurves, *, sigma_g: float, sigma_d: float,
                 T: int, k: int, b: int, n: int, learn_weights: bool = False,
                 sigma_w: float = 1.0, L_w: int = 0, n_hist: int = 1,
                 n_submodels: int | None = None) -> np.ndarray:
    """Theorem 1: total RDP of the Kamino pipeline at every order of
    ``curves`` (see :func:`kamino_rdp` for the parameters)."""
    if n < 1:
        raise ValueError(f"n must be a positive row count, got {n}")
    total = n_hist * rdp_gaussian(sigma_g, curves.orders)
    n_sub = (k - 1) if n_submodels is None else n_submodels
    if n_sub > 0 and T > 0:
        total = total + T * n_sub * curves.sgm(min(b / n, 1.0), sigma_d)
    if learn_weights:
        total = total + curves.sgm(min(L_w / n, 1.0), sigma_w)
    return total


def kamino_rdp(alpha: int, *, sigma_g: float, sigma_d: float, T: int,
               k: int, b: int, n: int, learn_weights: bool = False,
               sigma_w: float = 1.0, L_w: int = 0,
               n_hist: int = 1, n_submodels: int | None = None) -> float:
    """Theorem 1: total RDP of the Kamino pipeline at order ``alpha``.

    Parameters mirror the configuration set Psi of Algorithm 6:
    ``sigma_g`` (histogram noise), ``sigma_d`` (DP-SGD noise), ``T``
    iterations per sub-model, ``k`` attributes (so ``k - 1`` sub-models
    unless ``n_submodels`` overrides — hyper-attribute grouping and the
    large-domain fallback of §4.3 change the count), batch size ``b``
    out of ``n`` rows, and — if ``learn_weights`` — one violation-matrix
    release at rate ``L_w/n`` and scale ``sigma_w``.  ``n_hist`` counts
    Gaussian-histogram releases (the first attribute, plus one per
    large-domain attribute modeled independently).
    """
    return float(kamino_curve(
        SgmCurves((alpha,)), sigma_g=sigma_g, sigma_d=sigma_d, T=T, k=k,
        b=b, n=n, learn_weights=learn_weights, sigma_w=sigma_w, L_w=L_w,
        n_hist=n_hist, n_submodels=n_submodels)[0])


def kamino_epsilon(delta: float, *, sigma_g: float, sigma_d: float, T: int,
                   k: int, b: int, n: int, learn_weights: bool = False,
                   sigma_w: float = 1.0, L_w: int = 0, n_hist: int = 1,
                   n_submodels: int | None = None,
                   curves: SgmCurves | None = None) -> tuple[float, int]:
    """End-to-end (epsilon, delta) of a Kamino configuration (Eqn. 7),
    converted over the orders of ``curves`` (default grid if omitted).
    Pass the same ``curves`` across calls to reuse its SGM curves."""
    curves = SgmCurves() if curves is None else curves
    curve = kamino_curve(curves, sigma_g=sigma_g, sigma_d=sigma_d, T=T,
                         k=k, b=b, n=n, learn_weights=learn_weights,
                         sigma_w=sigma_w, L_w=L_w, n_hist=n_hist,
                         n_submodels=n_submodels)
    return _curve_epsilon(curve, delta, curves.alphas)
