"""AimNet discriminative model tests."""

import numpy as np
import pytest

from repro.aimnet import AimNet, EmbeddingStore
from repro.nn import gradcheck
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
