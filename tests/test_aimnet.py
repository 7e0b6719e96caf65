"""AimNet discriminative model tests.

Besides shapes, gradients and training, the module pins the row-purity
the tiled inference relies on: :meth:`AimNet.predict_proba` and
:meth:`AimNet.predict_gaussian` of every sub-model of the four
benchmark datasets' fits equal, bit for bit, the whole-batch forward
they replaced, at batch sizes around the inference tile.
"""

import numpy as np
import pytest

from repro.aimnet import AimNet, EmbeddingStore
from repro.aimnet.model import INFERENCE_TILE
from repro.core import Kamino
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
                head = sub.head.forward
                monkeypatch.setattr(
                    sub.head, "forward",
                    lambda x, cache=True: (head_rows.append(x.shape[0]),
                                           head(x, cache))[1])
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
