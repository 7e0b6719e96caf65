"""The whole-grid RDP accountant against two references.

* The scalar Lemma 2 loop it replaced (one scipy ``logsumexp`` per
  order), kept here: curves, compositions and conversions must equal it
  with ``==``, and Algorithm 6 and the baselines' sigma calibration must
  return the values they returned with it.
* A numerical integral of the Rényi divergence between the subsampled
  Gaussian mixture and its base measure, which shares no code with the
  accountant.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.special import gammaln, logsumexp

import repro.core.kamino as kamino_module
from repro.core import Kamino
from repro.core.params import KaminoParams, search_dp_params
from repro.datasets import load
from repro.privacy import (
    DEFAULT_ALPHAS, PrivacyLedger, SgmCurves, calibrate_sgm_sigma,
    kamino_epsilon, kamino_rdp, rdp_sgm,
)


# -- The reference: the scalar loop over orders --------------------------

def reference_rdp_sgm(q, sigma, alpha):
    """Lemma 2 at one integer order, one scipy ``logsumexp``."""
    if q == 1.0:
        return alpha / (2.0 * sigma ** 2)
    ks = np.arange(alpha + 1, dtype=np.float64)
    log_binom = (gammaln(alpha + 1) - gammaln(ks + 1)
                 - gammaln(alpha - ks + 1))
    log_terms = (log_binom
                 + (alpha - ks) * np.log1p(-q)
                 + ks * np.log(q)
                 + (ks * ks - ks) / (2.0 * sigma ** 2))
    return float(logsumexp(log_terms) / (alpha - 1))


def reference_kamino_epsilon(delta, *, sigma_g, sigma_d, T, k, b, n,
                             learn_weights=False, sigma_w=1.0, L_w=0,
                             n_hist=1, n_submodels=None):
    """Theorem 1 order by order, then Eqn. 7 as a strict ``<`` scan."""
    best_eps, best_alpha = np.inf, DEFAULT_ALPHAS[0]
    log_inv_delta = np.log(1.0 / delta)
    for alpha in DEFAULT_ALPHAS:
        total = n_hist * (alpha / (2.0 * sigma_g ** 2))
        n_sub = (k - 1) if n_submodels is None else n_submodels
        if n_sub > 0 and T > 0:
            total += T * n_sub * reference_rdp_sgm(min(b / n, 1.0), sigma_d,
                                                   alpha)
        if learn_weights:
            total += reference_rdp_sgm(min(L_w / n, 1.0), sigma_w, alpha)
        eps = total + log_inv_delta / (alpha - 1)
        if eps < best_eps:
            best_eps, best_alpha = eps, alpha
    return float(best_eps), int(best_alpha)


def reference_curve(q, sigma):
    return [reference_rdp_sgm(q, sigma, a) for a in DEFAULT_ALPHAS]


@given(q=st.one_of(st.floats(1e-6, 1.0), st.sampled_from(
           [1.0, 1.0 - 1e-12, 0.999999, 1e-6])),
       sigma=st.floats(0.3, 200.0))
@example(q=1.0, sigma=200.0)
@example(q=1.0 - 1e-12, sigma=0.3)
@example(q=0.999999, sigma=1.0)
@example(q=1e-6, sigma=200.0)
@example(q=1e-6, sigma=0.3)
@settings(max_examples=60, deadline=None)
def test_curve_equals_reference_loop_bit_for_bit(q, sigma):
    curve = SgmCurves().sgm(q, sigma)
    assert curve.tolist() == reference_curve(q, sigma)


@given(alpha=st.sampled_from(DEFAULT_ALPHAS), q=st.floats(1e-6, 1.0),
       sigma=st.floats(0.3, 200.0))
@settings(max_examples=40, deadline=None)
def test_rdp_sgm_is_a_lookup_into_the_curve(alpha, q, sigma):
    assert rdp_sgm(q, sigma, alpha) == reference_rdp_sgm(q, sigma, alpha)


PSI = st.fixed_dictionaries({
    "sigma_g": st.floats(0.05, 40.0), "sigma_d": st.floats(0.5, 64.0),
    "T": st.integers(0, 700), "k": st.integers(1, 16),
    "b": st.integers(1, 64), "n": st.integers(1, 5000),
    "learn_weights": st.booleans(), "sigma_w": st.floats(0.3, 40.0),
    "L_w": st.integers(1, 100), "n_hist": st.integers(1, 3),
    "n_submodels": st.one_of(st.none(), st.integers(0, 15)),
})


@given(psi=PSI, delta=st.sampled_from([1e-5, 1e-6, 1e-9]))
@settings(max_examples=40, deadline=None)
def test_kamino_epsilon_equals_reference_loop(psi, delta):
    assert kamino_epsilon(delta, **psi) == \
        reference_kamino_epsilon(delta, **psi)


def test_ledger_curves_equal_reference_loop():
    ledger = PrivacyLedger(delta=1e-6)
    sgm = ledger.record_sgm("sgd", q=0.016, sigma=1.1, steps=125)
    assert list(sgm.rdp) == [125 * v for v in reference_curve(0.016, 1.1)]
    params = KaminoParams(epsilon=1.0, delta=1e-6, n=2000, k=14,
                          sigma_g=9.6, sigma_d=1.55, batch=14,
                          iterations=55, learn_weights=True, sigma_w=2.0,
                          L_w=50)
    entry = ledger.record_kamino("run", params)
    expected = []
    for a in DEFAULT_ALPHAS:
        total = 1 * (a / (2.0 * 9.6 ** 2))
        total += 55 * 13 * reference_rdp_sgm(14 / 2000, 1.55, a)
        total += reference_rdp_sgm(50 / 2000, 2.0, a)
        expected.append(total)
    assert list(entry.rdp) == expected


def test_memo_hands_out_one_read_only_curve_per_pair():
    curves = SgmCurves()
    first = curves.sgm(0.02, 1.3)
    assert curves.sgm(0.02, 1.3) is first
    assert curves.sgm(0.02, 1.35) is not first
    with pytest.raises(ValueError):
        first[0] = 0.0
    assert SgmCurves().sgm(0.02, 1.3) is not first


# -- The oracle: quadrature of the Rényi divergence ----------------------

def oracle_rdp(q, sigma, alpha, forward=True):
    """D_alpha(mu || mu0) (``forward``) or D_alpha(mu0 || mu) by
    quadrature, for mu0 = N(0, sigma^2) and
    mu = (1 - q) N(0, sigma^2) + q N(1, sigma^2).

    With u = mu/mu0 - 1 and p = alpha (forward) or 1 - alpha, the
    divergence is log(E_mu0[(1 + u)^p]) / (alpha - 1).  E_mu0[u] = 0
    because both are densities, so E_mu0[(1 + u)^p] = 1 + J with
    J = E_mu0[(1 + u)^p - 1 - p u] >= 0 (convexity): integrating J
    keeps tiny divergences accurate.  The integrand is handled in log
    space, shifted by its peak, and the integral is split there.
    """
    p = alpha if forward else 1 - alpha
    two_var = 2.0 * sigma * sigma
    log_norm = -0.5 * math.log(math.pi * two_var)

    def log_excess(x):
        u = q * math.expm1((2.0 * x - 1.0) / two_var)
        log_pow = p * math.log1p(u)
        linear = 1.0 + p * u
        if linear > 0:
            gap = math.log(linear) - log_pow
            if gap >= 0:
                return -math.inf
            log_w = log_pow + math.log(-math.expm1(gap))
        elif linear < 0:
            log_w = np.logaddexp(log_pow, math.log(-linear))
        else:
            log_w = log_pow
        return log_norm - x * x / two_var + log_w

    lo, hi = -40.0 * sigma - 1.0, alpha + 40.0 * sigma + 1.0
    grid = np.linspace(lo, hi, 2001)
    logs = np.array([log_excess(x) for x in grid])
    peak = grid[int(np.argmax(logs))]
    top = log_excess(peak)

    def shifted(x):
        return math.exp(log_excess(x) - top)

    with warnings.catch_warnings():
        # quad reports roundoff near u = 0, where the integrand is ~u^2
        # and contributes far below the asserted tolerance.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        left, _ = integrate.quad(shifted, lo, peak, epsabs=0.0,
                                 epsrel=1e-11, limit=500)
        right, _ = integrate.quad(shifted, peak, hi, epsabs=0.0,
                                  epsrel=1e-11, limit=500)
    log_j = top + math.log(left + right)
    return float(np.logaddexp(0.0, log_j)) / (alpha - 1)


@given(q=st.floats(1e-3, 0.5), sigma=st.floats(0.7, 6.0),
       alpha=st.integers(2, 32))
@example(q=1e-3, sigma=6.0, alpha=2)
@example(q=0.5, sigma=0.7, alpha=32)
@settings(max_examples=40, deadline=None)
def test_accountant_matches_quadrature_oracle(q, sigma, alpha):
    rdp = SgmCurves((alpha,)).sgm(q, sigma)[0]
    forward = oracle_rdp(q, sigma, alpha, forward=True)
    assert abs(rdp - forward) <= 1e-9 * forward
    reverse = oracle_rdp(q, sigma, alpha, forward=False)
    assert rdp >= reverse * (1 - 1e-9)


# -- Pins recorded with the scalar accountant -----------------------------

#: search_dp_params(epsilon, 1e-6, ...) on each bench dataset's shape, by
#: (dataset, n, epsilon, learn_weights): sigma_g, sigma_d, batch,
#: iterations, sigma_w, achieved_epsilon (all floats as hex), best_alpha.
SEARCH_PINS = {
    ("adult", 800, 0.5, False):
        ("0x1.df97c581a8dd0p+4", "0x1.f333333333335p+0", 8, 7,
         "0x1.3333333333333p-2", "0x1.fa6a3d0d29e1ap-2", 34),
    ("adult", 800, 0.5, True):
        ("0x1.df97c581a8dd0p+4", "0x1.f333333333335p+0", 8, 7,
         "0x1.017abd8c4a68ep+2", "0x1.ff614b9425746p-2", 34),
    ("adult", 800, 1.0, False):
        ("0x1.32f07e6776500p+3", "0x1.a666666666667p+0", 10, 17,
         "0x1.3333333333333p-2", "0x1.f6e2901ef125cp-1", 23),
    ("adult", 800, 1.0, True):
        ("0x1.32f07e6776500p+3", "0x1.a666666666667p+0", 10, 17,
         "0x1.41d96cef5d032p+1", "0x1.fc1b7ab57d71dp-1", 23),
    ("adult", 800, 4.0, False):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 43,
         "0x1.3333333333333p-2", "0x1.e94e32f3917b6p+1", 9),
    ("adult", 800, 4.0, True):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 43,
         "0x1.3a4e5461c0d50p+0", "0x1.eeacb2d2e8189p+1", 8),
    ("adult", 2000, 0.5, False):
        ("0x1.7fac9e0153e40p+4", "0x1.ccccccccccccep+0", 8, 31,
         "0x1.3333333333333p-2", "0x1.eff8e6fbbee5ep-2", 35),
    ("adult", 2000, 0.5, True):
        ("0x1.7fac9e0153e40p+4", "0x1.ccccccccccccep+0", 8, 31,
         "0x1.4992de243648dp+1", "0x1.f21bc1a4190c7p-2", 35),
    ("adult", 2000, 1.0, False):
        ("0x1.7fac9e0153e40p+3", "0x1.8cccccccccccdp+0", 14, 55,
         "0x1.3333333333333p-2", "0x1.ecc3a22dbed17p-1", 23),
    ("adult", 2000, 1.0, True):
        ("0x1.7fac9e0153e40p+3", "0x1.8cccccccccccdp+0", 14, 55,
         "0x1.017abd8c4a68ep+1", "0x1.ee0186b74b39cp-1", 23),
    ("adult", 2000, 4.0, False):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 113,
         "0x1.3333333333333p-2", "0x1.b532ff73544a0p+1", 10),
    ("adult", 2000, 4.0, True):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 113,
         "0x1.f6e3ba360154dp-1", "0x1.c8302b4659db1p+1", 8),
    ("tpch", 800, 0.5, False):
        ("0x1.df97c581a8dd0p+4", "0x1.e666666666668p+0", 8, 8,
         "0x1.3333333333333p-2", "0x1.fec82a4acf35ep-2", 33),
    ("tpch", 800, 0.5, True):
        ("0x1.df97c581a8dd0p+4", "0x1.e666666666668p+0", 8, 8,
         "0x1.f6e3ba360154dp+2", "0x1.ffe4977152512p-2", 33),
    ("tpch", 800, 1.0, False):
        ("0x1.7fac9e0153e40p+3", "0x1.999999999999ap+0", 12, 19,
         "0x1.3333333333333p-2", "0x1.fc507b301f3abp-1", 20),
    ("tpch", 800, 1.0, True):
        ("0x1.7fac9e0153e40p+3", "0x1.999999999999ap+0", 12, 19,
         "0x1.924fc82b3443ep+1", "0x1.febcb63498078p-1", 20),
    ("tpch", 800, 4.0, False):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 43,
         "0x1.3333333333333p-2", "0x1.c491f8dea9a1ap+1", 9),
    ("tpch", 800, 4.0, True):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 43,
         "0x1.3a4e5461c0d50p+0", "0x1.ce86ce3100bd6p+1", 8),
    ("tpch", 2000, 0.5, False):
        ("0x1.7fac9e0153e40p+4", "0x1.c000000000001p+0", 8, 35,
         "0x1.3333333333333p-2", "0x1.f70daee7f7661p-2", 33),
    ("tpch", 2000, 0.5, True):
        ("0x1.7fac9e0153e40p+4", "0x1.c000000000001p+0", 8, 35,
         "0x1.4992de243648dp+1", "0x1.f90b9974de534p-2", 33),
    ("tpch", 2000, 1.0, False):
        ("0x1.a784379d99db4p+3", "0x1.8000000000000p+0", 16, 62,
         "0x1.3333333333333p-2", "0x1.f12c2d721e1a7p-1", 21),
    ("tpch", 2000, 1.0, True):
        ("0x1.a784379d99db4p+3", "0x1.8000000000000p+0", 16, 62,
         "0x1.017abd8c4a68ep+1", "0x1.f2485bc5aaabfp-1", 21),
    ("tpch", 2000, 4.0, False):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 113,
         "0x1.3333333333333p-2", "0x1.a4f628bbf1cccp+1", 10),
    ("tpch", 2000, 4.0, True):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 113,
         "0x1.f6e3ba360154dp-1", "0x1.bb58446ada4dep+1", 8),
    ("tax", 800, 0.5, False):
        ("0x1.df97c581a8dd0p+4", "0x1.f333333333335p+0", 8, 7,
         "0x1.3333333333333p-2", "0x1.fd1f125fcfb56p-2", 34),
    ("tax", 800, 0.5, True):
        ("0x1.df97c581a8dd0p+4", "0x1.f333333333335p+0", 8, 7,
         "0x1.924fc82b3443ep+2", "0x1.fef44862b3530p-2", 34),
    ("tax", 800, 1.0, False):
        ("0x1.7fac9e0153e40p+3", "0x1.a666666666667p+0", 10, 17,
         "0x1.3333333333333p-2", "0x1.e745a1f992ae7p-1", 23),
    ("tax", 800, 1.0, True):
        ("0x1.7fac9e0153e40p+3", "0x1.a666666666667p+0", 10, 17,
         "0x1.017abd8c4a68ep+1", "0x1.fb5422737af58p-1", 22),
    ("tax", 800, 4.0, False):
        ("0x1.1c37937e08000p+1", "0x1.8000000000000p+0", 16, 38,
         "0x1.3333333333333p-2", "0x1.fbab0bdebff52p+1", 8),
    ("tax", 800, 4.0, True):
        ("0x1.1c37937e08000p+1", "0x1.8000000000000p+0", 16, 38,
         "0x1.88e1e97a310a4p+0", "0x1.fd0d42317b68bp+1", 8),
    ("tax", 2000, 0.5, False):
        ("0x1.df97c581a8dd0p+4", "0x1.ccccccccccccep+0", 8, 31,
         "0x1.3333333333333p-2", "0x1.eac762ffdb561p-2", 35),
    ("tax", 2000, 0.5, True):
        ("0x1.df97c581a8dd0p+4", "0x1.ccccccccccccep+0", 8, 31,
         "0x1.4992de243648dp+1", "0x1.ecea3da8357cap-2", 35),
    ("tax", 2000, 1.0, False):
        ("0x1.7fac9e0153e40p+3", "0x1.8cccccccccccdp+0", 14, 55,
         "0x1.3333333333333p-2", "0x1.f07fd3ae17daap-1", 23),
    ("tax", 2000, 1.0, True):
        ("0x1.7fac9e0153e40p+3", "0x1.8cccccccccccdp+0", 14, 55,
         "0x1.017abd8c4a68ep+1", "0x1.f1bdb837a442fp-1", 23),
    ("tax", 2000, 4.0, False):
        ("0x1.1c37937e08000p+1", "0x1.8000000000000p+0", 16, 101,
         "0x1.3333333333333p-2", "0x1.dc58eda1c2a42p+1", 9),
    ("tax", 2000, 4.0, True):
        ("0x1.1c37937e08000p+1", "0x1.8000000000000p+0", 16, 101,
         "0x1.f6e3ba360154dp-1", "0x1.eac90cca3f1c8p+1", 8),
    ("br2000", 800, 0.5, False):
        ("0x1.df97c581a8dd0p+4", "0x1.f333333333335p+0", 8, 7,
         "0x1.3333333333333p-2", "0x1.f63f712029708p-2", 34),
    ("br2000", 800, 0.5, True):
        ("0x1.df97c581a8dd0p+4", "0x1.f333333333335p+0", 8, 7,
         "0x1.9bf795ad43db0p+1", "0x1.feffd35b8c265p-2", 34),
    ("br2000", 800, 1.0, False):
        ("0x1.32f07e6776500p+3", "0x1.a666666666667p+0", 10, 17,
         "0x1.3333333333333p-2", "0x1.ee807f2fdeb13p-1", 23),
    ("br2000", 800, 1.0, True):
        ("0x1.32f07e6776500p+3", "0x1.a666666666667p+0", 10, 17,
         "0x1.41d96cef5d032p+1", "0x1.f3b969c66afd4p-1", 23),
    ("br2000", 800, 4.0, False):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 43,
         "0x1.3333333333333p-2", "0x1.e32ed3f01581cp+1", 9),
    ("br2000", 800, 4.0, True):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 43,
         "0x1.3a4e5461c0d50p+0", "0x1.e9510cb7ec340p+1", 8),
    ("br2000", 2000, 0.5, False):
        ("0x1.32f07e6776500p+4", "0x1.ccccccccccccep+0", 8, 31,
         "0x1.3333333333333p-2", "0x1.fe05accad6d45p-2", 35),
    ("br2000", 2000, 0.5, True):
        ("0x1.32f07e6776500p+4", "0x1.ccccccccccccep+0", 8, 31,
         "0x1.9bf795ad43db0p+1", "0x1.ff43e9b39f5fdp-2", 35),
    ("br2000", 2000, 1.0, False):
        ("0x1.32f07e6776500p+3", "0x1.8cccccccccccdp+0", 14, 55,
         "0x1.3333333333333p-2", "0x1.fa7f5967589dep-1", 23),
    ("br2000", 2000, 1.0, True):
        ("0x1.32f07e6776500p+3", "0x1.8cccccccccccdp+0", 14, 55,
         "0x1.017abd8c4a68ep+1", "0x1.fbbd3df0e5063p-1", 23),
    ("br2000", 2000, 4.0, False):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 113,
         "0x1.3333333333333p-2", "0x1.b27e30ff6e8a7p+1", 10),
    ("br2000", 2000, 4.0, True):
        ("0x1.c6bf526340000p+0", "0x1.8000000000000p+0", 16, 113,
         "0x1.f6e3ba360154dp-1", "0x1.c60c2f7719ee3p+1", 8),
}


class _SearchReached(Exception):
    pass


def _search_inputs(name, n):
    """What Kamino.fit hands Algorithm 6 for a bench dataset (the fit
    stops there)."""
    ds = load(name, n=n, seed=0)
    seen = {}

    def capture(epsilon, delta, relation, sequence, n, **structure):
        seen.update(relation=relation, sequence=sequence, **structure)
        raise _SearchReached

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kamino_module, "search_dp_params", capture)
        with pytest.raises(_SearchReached):
            Kamino(ds.relation, ds.dcs, epsilon=1.0, seed=0).fit(ds.table)
    return seen


@pytest.mark.parametrize("name", ["adult", "tpch", "tax", "br2000"])
@pytest.mark.parametrize("n", [800, 2000])
def test_search_returns_the_pinned_psi(name, n):
    seen = _search_inputs(name, n)
    for epsilon in (0.5, 1.0, 4.0):
        for learn_weights in (False, True):
            p = search_dp_params(
                epsilon, 1e-6, seen["relation"], seen["sequence"], n,
                learn_weights=learn_weights, n_hist=seen["n_hist"],
                n_submodels=seen["n_submodels"])
            got = (p.sigma_g.hex(), p.sigma_d.hex(), p.batch, p.iterations,
                   p.sigma_w.hex(), p.achieved_epsilon.hex(), p.best_alpha)
            assert got == SEARCH_PINS[(name, n, epsilon, learn_weights)]


#: calibrate_sgm_sigma(epsilon, delta, q, steps) at the baselines' call
#: shapes: DP-VAE (q = batch / n, one step per iteration), PATE-GAN and
#: NIST-MST (q = 1, one release per vote batch or measurement).
CALIBRATION_PINS = [
    ((1.0, 1e-06, 0.08, 200), "0x1.9076933333334p+2"),  # DP-VAE
    ((1.0, 1e-06, 0.032, 300), "0x1.97f6466666665p+1"),  # DP-VAE
    ((0.5, 1e-06, 0.032, 100), "0x1.db0c79999999ap+1"),  # DP-VAE
    ((4.0, 1e-05, 0.1, 50), "0x1.582bf9999999ap+0"),  # DP-VAE
    ((1.0, 1e-06, 1.0, 120), "0x1.d4db330000000p+5"),  # PATE-GAN
    ((0.5, 1e-06, 1.0, 60), "0x1.48a8bc4cccccdp+6"),  # PATE-GAN
    ((4.0, 1e-06, 1.0, 200), "0x1.3dea820000001p+4"),  # PATE-GAN
    ((1.0, 1e-06, 1.0, 20), "0x1.7ed22bffffffep+4"),  # NIST-MST
    ((0.5, 1e-06, 1.0, 45), "0x1.1ca09b4cccccdp+6"),  # NIST-MST
    ((2.0, 1e-05, 1.0, 11), "0x1.0945466666667p+3"),  # NIST-MST
]


@pytest.mark.parametrize("args, sigma_hex", CALIBRATION_PINS)
def test_calibrated_sigma_is_pinned(args, sigma_hex):
    assert calibrate_sgm_sigma(*args).hex() == sigma_hex


# -- Typed errors for malformed accountant input --------------------------

@pytest.mark.parametrize("alpha", [2.5, 3.9, 8.7, math.nan, math.inf, 1, 0])
def test_orders_must_be_whole_numbers_of_at_least_two(alpha):
    with pytest.raises(ValueError, match="whole numbers >= 2"):
        rdp_sgm(0.1, 1.0, alpha)
    with pytest.raises(ValueError, match="whole numbers >= 2"):
        kamino_rdp(alpha, sigma_g=2.0, sigma_d=1.1, T=10, k=5, b=16, n=100)
    with pytest.raises(ValueError, match="whole numbers >= 2"):
        SgmCurves((2, alpha))


def test_ledger_rejects_fractional_orders():
    with pytest.raises(ValueError, match="whole numbers >= 2"):
        PrivacyLedger(delta=1e-6, alphas=(2.5, 3.9, 8.7))
    saved = PrivacyLedger(delta=1e-6, alphas=(2, 3, 8)).to_dict()
    saved["alphas"] = [2.5, 3.9, 8.7]
    with pytest.raises(ValueError, match="whole numbers >= 2"):
        PrivacyLedger.from_dict(saved)


def test_whole_orders_in_any_numeric_type_are_accepted():
    value = rdp_sgm(0.1, 1.0, 3)
    assert rdp_sgm(0.1, 1.0, np.int64(3)) == value
    assert rdp_sgm(0.1, 1.0, 3.0) == value
    ledger = PrivacyLedger(delta=1e-6, alphas=(2, np.int64(3), 8.0))
    assert ledger.alphas == (2, 3, 8)
    assert all(type(a) is int for a in ledger.alphas)


def test_accountant_rejects_an_empty_private_instance():
    psi = dict(sigma_g=2.0, sigma_d=1.1, T=10, k=5, b=16)
    for n in (0, -3):
        with pytest.raises(ValueError, match="positive row count"):
            kamino_rdp(8, n=n, **psi)
        with pytest.raises(ValueError, match="positive row count"):
            kamino_epsilon(1e-6, n=n, **psi)


def test_fit_rejects_an_empty_table():
    ds = load("tpch", n=60, seed=0)
    with pytest.raises(ValueError, match="empty table: it has 0 rows"):
        Kamino(ds.relation, ds.dcs, epsilon=1.0, seed=0).fit(
            ds.table.head(0))
