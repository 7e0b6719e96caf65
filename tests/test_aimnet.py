"""AimNet discriminative model tests.

Besides shapes, gradients and training, the module pins the row-purity
the tiled and deduplicated inference relies on, on every sub-model of
the four benchmark datasets' fits:

* :meth:`AimNet.predict_proba` and :meth:`AimNet.predict_gaussian`
  equal, bit for bit, the whole-batch forward they replaced, at batch
  sizes around the inference tile;
* the sampler's base conditional, whose forward runs once per distinct
  context tuple (:meth:`AimNet.distinct_rows`), equals that whole-batch
  forward on shuffled batches with few and many distinct tuples, and
  runs the encoders on exactly the rows it should.
"""

import math

import numpy as np
import pytest

from repro.aimnet import AimNet, EmbeddingStore
from repro.aimnet.model import INFERENCE_TILE
from repro.core import Kamino
from repro.core.sampling import _ColumnSampler
from repro.datasets import load
from repro.nn import gradcheck
from repro.nn.functional import softmax
from repro.nn.losses import cross_entropy_loss
from repro.schema import (
    Attribute, CategoricalDomain, NumericalDomain, Relation,
)


@pytest.fixture
def relation():
    return Relation([
        Attribute("c1", CategoricalDomain(["a", "b", "c"])),
        Attribute("x1", NumericalDomain(0, 10)),
        Attribute("y_cat", CategoricalDomain(["p", "q"])),
        Attribute("y_num", NumericalDomain(0, 100)),
    ])


class TestAimNet:
    def test_categorical_forward_shapes(self, relation):
        rng = np.random.default_rng(0)
        model = AimNet(relation, ["c1", "x1"], "y_cat", 6, rng)
        batch = {"c1": np.array([0, 1, 2]), "x1": np.array([1.0, 5.0, 9.0])}
        logits = model.forward(batch)
        assert logits.shape == (3, 2)
        probs = model.predict_proba(batch)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_numerical_forward_shapes(self, relation):
        rng = np.random.default_rng(0)
        model = AimNet(relation, ["c1"], "y_num", 6, rng)
        mu, sigma = model.predict_gaussian({"c1": np.array([0, 1])})
        assert mu.shape == (2,) and sigma.shape == (2,)
        assert (sigma > 0).all()

    def test_full_gradcheck_categorical(self, relation):
        rng = np.random.default_rng(1)
        model = AimNet(relation, ["c1", "x1"], "y_cat", 4, rng)
        batch = {"c1": np.array([0, 2]), "x1": np.array([2.0, 8.0])}
        targets = np.array([0, 1])

        def loss():
            logits = model.forward(batch)
            losses, _ = cross_entropy_loss(logits, targets)
            return losses.sum()

        model.zero_grad()
        model.loss_backward(batch, targets, per_sample=True)
        gradcheck(loss, model.parameters())

    def test_full_gradcheck_numerical(self, relation):
        rng = np.random.default_rng(2)
        model = AimNet(relation, ["c1"], "y_num", 4, rng)
        batch = {"c1": np.array([0, 1, 2])}
        targets = np.array([10.0, 50.0, 90.0])

        def loss():
            from repro.nn.losses import gaussian_nll_loss
            mu, ls = model.forward(batch)
            losses, _, _ = gaussian_nll_loss(
                mu, ls, model.standardize_target(targets))
            return losses.sum()

        model.zero_grad()
        model.loss_backward(batch, targets, per_sample=True)
        gradcheck(loss, model.parameters())

    def test_store_shares_encoders(self, relation):
        rng = np.random.default_rng(3)
        store = EmbeddingStore(4, rng)
        m1 = AimNet(relation, ["c1"], "y_cat", 4, rng, store=store)
        m2 = AimNet(relation, ["c1", "y_cat"], "y_num", 4, rng, store=store)
        assert m1.encoders["c1"] is m2.encoders["c1"]
        # The target embedding of m1 is reused as context in m2.
        assert m1.target_embedding is m2.encoders["y_cat"]

    def test_learns_deterministic_mapping(self, relation):
        """Non-private training should learn y_cat = f(c1) well."""
        rng = np.random.default_rng(4)
        model = AimNet(relation, ["c1"], "y_cat", 8, rng)
        from repro.nn.optim import Adam
        opt = Adam(model.parameters(), lr=0.05)
        c1 = rng.integers(0, 3, 400)
        y = (c1 >= 1).astype(np.int64)  # a -> p, b/c -> q
        for _ in range(150):
            opt.zero_grad()
            model.loss_backward({"c1": c1}, y)
            for p in model.parameters():
                p.grad /= c1.shape[0]
            opt.step()
        probs = model.predict_proba({"c1": np.array([0, 1, 2])})
        assert probs[0, 0] > 0.85
        assert probs[1, 1] > 0.85 and probs[2, 1] > 0.85

    def test_validation(self, relation):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            AimNet(relation, [], "y_cat", 4, rng)
        with pytest.raises(ValueError):
            AimNet(relation, ["y_cat"], "y_cat", 4, rng)
        model = AimNet(relation, ["c1"], "y_cat", 4, rng)
        with pytest.raises(ValueError):
            model.predict_gaussian({"c1": np.array([0])})
        num = AimNet(relation, ["c1"], "y_num", 4, rng)
        with pytest.raises(ValueError):
            num.predict_proba({"c1": np.array([0])})

    def test_distinct_rows_key_what_the_encoders_read(self, relation):
        """Rows group by their categorical codes and the bit patterns of
        their numerical values, so ``0.0`` and ``-0.0`` stay apart."""
        rng = np.random.default_rng(6)
        model = AimNet(relation, ["c1", "x1"], "y_cat", 4, rng)
        batch = {"c1": np.array([0, 2, 0, 0, 2, 0, 0, 0]),
                 "x1": np.array([1.5, 1.5, 1.5, 0.0, 1.5, -0.0, 0.0, 1.5])}
        rows, inverse = model.distinct_rows(batch)
        groups = {frozenset(np.flatnonzero(inverse == g).tolist())
                  for g in range(rows.shape[0])}
        assert groups == {frozenset({0, 2, 7}), frozenset({1, 4}),
                          frozenset({3, 6}), frozenset({5})}
        for c in batch.values():
            assert c[rows][inverse].tobytes() == c.tobytes()
        # Five distinct tuples in eight rows: gathering does not pay.
        batch["c1"][7] = 1
        assert model.distinct_rows(batch) is None

    def test_distinct_rows_redensify_past_int64(self):
        """Five 2**14-value context attributes span 2**70 tuples; the
        key re-densifies instead of overflowing, and groups the rows
        exactly as the tuples do.  Half the tuples differ from the other
        half only by 256 in the first code, which a wrapped key
        (256 * 2**56 = 2**64) would merge."""
        names = [f"c{i}" for i in range(5)]
        rel = Relation(
            [Attribute(a, CategoricalDomain([str(v) for v in range(2 ** 14)]))
             for a in names]
            + [Attribute("y", CategoricalDomain(["p", "q"]))])
        model = AimNet(rel, names, "y", 2, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        tuples = rng.integers(0, 2 ** 13, (40, 5))
        tuples[20:, 1:] = tuples[:20, 1:]
        tuples[20:, 0] = tuples[:20, 0] + 256
        rows = tuples[rng.integers(0, 40, 100)]
        picks, inverse = model.distinct_rows(
            {a: rows[:, i] for i, a in enumerate(names)})
        want = np.unique(rows, axis=0, return_inverse=True)[1]
        assert (rows[picks][inverse] == rows).all()
        assert picks.shape[0] == want.max() + 1

    def test_attention_weights_expose(self, relation):
        rng = np.random.default_rng(5)
        model = AimNet(relation, ["c1", "x1"], "y_cat", 4, rng)
        w = model.attention_weights({"c1": np.array([0]),
                                     "x1": np.array([5.0])})
        assert w.shape == (1, 2)
        np.testing.assert_allclose(w.sum(), 1.0)


# ----------------------------------------------------------------------
# Tiled inference against the whole-batch forward
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fits():
    cache = {}

    def get(name):
        if name not in cache:
            ds = load(name, n=800, seed=1)
            cache[name] = Kamino(ds.relation, ds.dcs, epsilon=1.0,
                                 delta=1e-6, seed=1).fit(ds.table)
        return cache[name]
    return get


def _random_column(attr, n: int, rng) -> np.ndarray:
    if attr.is_categorical:
        return rng.integers(0, attr.domain.size, n)
    return rng.uniform(attr.domain.low, attr.domain.high, n)


def _whole_batch(model: AimNet, batch: dict) -> tuple:
    """Inference as one untiled ``forward``: every product over the
    whole batch, a 1-row batch run duplicated."""
    n = len(batch[model.context_attrs[0]])
    if n == 1:
        batch = {a: np.repeat(c, 2) for a, c in batch.items()}
    if model.target_is_categorical:
        return (softmax(model.forward(batch, cache=False), axis=1)[:n],)
    mu_std, log_sigma_std = model.forward(batch, cache=False)
    log_sigma_std = np.clip(log_sigma_std, -6.0, 6.0)
    mu = mu_std * model._t_scale + model._t_mid
    sigma = np.exp(log_sigma_std) * model._t_scale
    return mu[:n], sigma[:n]


def _spy_rows(monkeypatch, layer, log: list) -> None:
    """Record the rows of every ``layer.forward`` call in ``log``."""
    forward = layer.forward
    monkeypatch.setattr(layer, "forward", lambda x, cache=True: (
        log.append(len(x)), forward(x, cache))[1])


def _products(model: AimNet, batch: dict) -> dict:
    """The named products a tile runs, over one (padded) batch."""
    n = len(batch[model.context_attrs[0]])
    if n == 1:
        batch = {a: np.repeat(c, 2) for a, c in batch.items()}
    out = {f"encoder {a}": model.encoders[a].forward(batch[a], cache=False)
           for a in model.context_attrs}
    context = np.stack(list(out.values()), axis=1)
    out["attention"] = model.attention.forward(context, cache=False)
    if model.target_is_categorical:
        out["logits"] = model.forward(batch, cache=False)
        out["softmax"] = softmax(out["logits"], axis=1)
    return {name: value[:n] for name, value in out.items()}


def _drifting_product(model: AimNet, batch: dict) -> str:
    """Name the first product whose tiled rows differ from its
    whole-batch rows."""
    n = len(batch[model.context_attrs[0]])
    whole = _products(model, batch)
    tiles = [_products(model, {a: c[lo:lo + INFERENCE_TILE]
                               for a, c in batch.items()})
             for lo in range(0, n, INFERENCE_TILE)]
    for name, value in whole.items():
        tiled = np.concatenate([t[name] for t in tiles])
        if tiled.tobytes() != value.tobytes():
            return f"the {name} product is not row-pure"
    return "every tiled product is row-pure, so the tiling is at fault"


@pytest.mark.parametrize("name", ["adult", "tax", "tpch", "br2000"])
def test_tiled_inference_matches_the_whole_batch(fits, name, monkeypatch):
    """Every product a tile runs is row-pure for batches of two or more
    rows, so tiles (a 1-row last tile included) and the whole batch
    give the same bits; a numerical target's head, whose last bits
    depend on the batch size, still sees the whole batch.  A failure
    names the product that drifted."""
    assert INFERENCE_TILE == 2048
    fitted = fits(name)
    wrel = fitted.hyper.working_relation
    rng = np.random.default_rng(0)
    sizes = (0, 1, 2, 7, 2047, 2048, 2049, 4097)
    for target, sub in fitted.model.submodels.items():
        cols = {a: _random_column(wrel[a], sizes[-1], rng)
                for a in sub.context_attrs}
        for n in sizes:
            batch = {a: c[:n] for a, c in cols.items()}
            head_rows = []
            if not sub.target_is_categorical:
                _spy_rows(monkeypatch, sub.head, head_rows)
                got = sub.predict_gaussian(batch)
                monkeypatch.undo()
                assert head_rows == [2 if n == 1 else n]
            else:
                got = (sub.predict_proba(batch),)
            want = _whole_batch(sub, batch)
            for g, w in zip(got, want):
                assert g.shape == w.shape == (n,) + w.shape[1:]
                assert g.tobytes() == w.tobytes(), (
                    f"{name} {target} n={n}: "
                    f"{_drifting_product(sub, batch)}")


# ----------------------------------------------------------------------
# One forward per distinct context against the whole batch
# ----------------------------------------------------------------------
def _distinct_tuples(wrel, attrs: list, k: int, rng):
    """``k`` distinct context tuples as ``{attr: (k,) column}``, or None
    when the context domain holds fewer.  Where a numerical domain
    contains 0, two of them differ only by ``0.0`` against ``-0.0``."""
    numerical = [a for a in attrs if not wrel[a].is_categorical]
    if numerical:
        cols = {a: _random_column(wrel[a], k, rng) for a in attrs}
    else:
        sizes = [wrel[a].domain.size for a in attrs]
        span = math.prod(sizes)
        if span < k:
            return None
        picks = rng.choice(min(span, 2 ** 62), size=k, replace=False)
        cols, stride = {}, 1
        for a, size in zip(attrs, sizes):
            cols[a] = (picks // stride) % size
            stride = min(stride * size, 2 ** 62)
    zero = next((a for a in numerical
                 if wrel[a].domain.low <= 0.0 <= wrel[a].domain.high), None)
    if zero is not None and k >= 2:
        for a in attrs:
            cols[a][1] = cols[a][0]
        cols[zero][0], cols[zero][1] = 0.0, -0.0
    return cols


def _tile_rows(m: int) -> list:
    """The rows of each encoder call over an ``m``-row batch, a 1-row
    tile run duplicated."""
    return [max(min(INFERENCE_TILE, m - lo), 2)
            for lo in range(0, m, INFERENCE_TILE)]


@pytest.mark.parametrize("name", ["adult", "tax", "tpch", "br2000"])
def test_distinct_context_forward_matches_the_whole_batch(
        fits, name, monkeypatch):
    """``base_distribution`` runs each sub-model's encoders and
    attention on the k distinct context tuples of a shuffled n-row
    batch (on all n rows once k > n/2), a numerical head still once
    over all n rows, and its output equals the whole-batch forward's
    byte for byte."""
    fitted = fits(name)
    wrel = fitted.hyper.working_relation
    sampler = _ColumnSampler(
        fitted.model, fitted.relation, fitted.hyper, fitted.dcs,
        fitted.weights, fitted.params, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    signed_zeros = 0
    for target, sub in fitted.model.submodels.items():
        j = sampler.wseq.index(target)
        for n in (1, 2, 7, 2049, 4097):
            for k in sorted({k for k in (1, 2, n // 2, n // 2 + 1, n)
                             if 1 <= k <= n}):
                tuples = _distinct_tuples(wrel, sub.context_attrs, k, rng)
                if tuples is None:
                    continue
                signed_zeros += k >= 2 and any(
                    c.dtype.kind == "f" and c[0] == c[1] == 0
                    and np.signbit(c[1]) for c in tuples.values())
                rows = rng.permutation(np.concatenate(
                    [np.arange(k), rng.integers(0, k, n - k)]))
                batch = {a: c[rows] for a, c in tuples.items()}
                encoded = {a: [] for a in sub.context_attrs}
                for a in sub.context_attrs:
                    _spy_rows(monkeypatch, sub.encoders[a], encoded[a])
                head_rows = []
                if not sub.target_is_categorical:
                    _spy_rows(monkeypatch, sub.head, head_rows)
                got = sampler.base_distribution(j, batch, n)[1:]
                monkeypatch.undo()
                ran = k if 2 * k <= n else n
                where = f"{name} {target} n={n} k={k}"
                assert encoded == {a: _tile_rows(ran)
                                   for a in sub.context_attrs}, where
                if sub.target_is_categorical:
                    (probs,) = _whole_batch(sub, batch)
                    want = (np.log(np.maximum(probs, 1e-300)),)
                else:
                    assert head_rows == [max(n, 2)], where
                    mu, sigma = _whole_batch(sub, batch)
                    want = (mu, np.maximum(sigma, 1e-9))
                for g, w in zip(got, want):
                    assert g.shape == w.shape == (n,) + w.shape[1:], where
                    assert g.tobytes() == w.tobytes(), where
    assert signed_zeros > 0
