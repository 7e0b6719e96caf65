"""Tests for trained-model persistence.

Covers the bare ``save_model``/``load_model`` triple as well as the
full ``FittedKamino.save``/``load`` artifact — including the grouped
(hyper-attribute) and large-domain-fallback models that format v1
refused to persist.
"""

import math

import numpy as np
import pytest

from repro.constraints import count_violations
from repro.core import FittedKamino, Kamino, KaminoConfig
from repro.core.engine import synthesize_engine
from repro.core.model_io import load_fitted, load_model, save_model
from repro.datasets import load


def _cap(params):
    params.iterations = min(params.iterations, 10)
    params.embed_dim = 6


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    dataset = load("tpch", n=100, seed=0)
    kamino = Kamino(dataset.relation, dataset.dcs, epsilon=1.0,
                    delta=1e-6, seed=0, params_override=_cap)
    result = kamino.fit_sample(dataset.table)
    path = tmp_path_factory.mktemp("model") / "model.npz"
    save_model(str(path), result.model, result.weights, result.params)
    return dataset, result, str(path)


def test_round_trip_metadata(trained):
    dataset, result, path = trained
    model, weights, params = load_model(path, dataset.relation)
    assert model.sequence == result.model.sequence
    assert set(model.submodels) == set(result.model.submodels)
    assert model.context_attrs == result.model.context_attrs
    assert params.num_candidates == result.params.num_candidates
    for name, w in result.weights.items():
        if math.isinf(w):
            assert math.isinf(weights[name])
        else:
            assert weights[name] == pytest.approx(w)


def test_round_trip_parameter_values(trained):
    dataset, result, path = trained
    model, _, _ = load_model(path, dataset.relation)
    np.testing.assert_allclose(model.first.probs, result.model.first.probs)
    for target, sub in result.model.submodels.items():
        reloaded = model.submodels[target]
        originals = {p.name: p.value for p in sub.parameters()}
        for p in reloaded.parameters():
            np.testing.assert_allclose(p.value, originals[p.name])


def test_reloaded_model_predicts_identically(trained):
    dataset, result, path = trained
    model, _, _ = load_model(path, dataset.relation)
    target = next(t for t, s in result.model.submodels.items()
                  if s.target_is_categorical)
    context = result.model.context_attrs[target]
    batch = {a: dataset.table.column(a)[:20] for a in context}
    np.testing.assert_allclose(
        model.conditional(target, batch),
        result.model.conditional(target, batch))


def test_reloaded_model_samples_valid_instances(trained):
    dataset, result, path = trained
    model, weights, params = load_model(path, dataset.relation)
    table = synthesize_engine(model, dataset.relation, dataset.dcs,
                              weights, 60, params, 42)
    assert table.n == 60
    for attr in dataset.relation:
        assert attr.domain.validate_column(table.column(attr.name))
    for dc in dataset.dcs:
        assert count_violations(dc, table) == 0


def test_shared_store_detected_and_restored(trained):
    dataset, result, path = trained
    model, _, _ = load_model(path, dataset.relation)
    # Sequential training shares encoders: the same encoder object must
    # be shared after the round trip too.
    shared_ids = set()
    for sub in model.submodels.values():
        for encoder in sub.encoders.values():
            shared_ids.add(id(encoder))
    total_refs = sum(len(sub.encoders) for sub in model.submodels.values())
    assert len(shared_ids) < total_refs


def test_parallel_model_round_trips(tmp_path):
    dataset = load("tpch", n=80, seed=1)
    kamino = Kamino(dataset.relation, dataset.dcs, epsilon=1.0,
                    delta=1e-6, seed=1, params_override=_cap,
                    parallel_training=True)
    result = kamino.fit_sample(dataset.table)
    path = tmp_path / "parallel.npz"
    save_model(str(path), result.model, result.weights, result.params)
    model, _, _ = load_model(str(path), dataset.relation)
    for target, sub in result.model.submodels.items():
        originals = {p.name: p.value for p in sub.parameters()}
        for p in model.submodels[target].parameters():
            np.testing.assert_allclose(p.value, originals[p.name])


def test_schema_mismatch_rejected(trained):
    _, _, path = trained
    other = load("adult", n=20, seed=0)
    with pytest.raises(ValueError, match="schema mismatch"):
        load_model(path, other.relation)


def test_hyper_models_need_spec(tmp_path):
    """Bare save_model still refuses a grouped model without its spec."""
    dataset, fitted = _fit_grouped()
    with pytest.raises(ValueError, match="hyper-attribute"):
        save_model(str(tmp_path / "m.npz"), fitted.model,
                   fitted.weights, fitted.params)
    # ... but round-trips once the HyperSpec is supplied.
    path = tmp_path / "m2.npz"
    save_model(str(path), fitted.model, fitted.weights, fitted.params,
               hyper=fitted.hyper)
    model, weights, params = load_model(str(path), dataset.relation)
    assert model.sequence == fitted.model.sequence
    np.testing.assert_allclose(model.first.probs, fitted.model.first.probs)


# ----------------------------------------------------------------------
# FittedKamino persistence (format v2)
# ----------------------------------------------------------------------
def _tables_equal(a, b, relation):
    for name in relation.names:
        np.testing.assert_array_equal(a.column(name), b.column(name),
                                      err_msg=name)


def _fit_grouped():
    dataset = load("br2000", n=80, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, group_max_domain=128,
                       params_override=_cap)
    fitted = Kamino(dataset.relation, dataset.dcs, config=cfg).fit(
        dataset.table)
    assert any("+" in w for w in fitted.model.sequence), \
        "grouping did not trigger on this instance"
    return dataset, fitted


def _fit_large_domain():
    dataset = load("tax", n=120, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, large_domain_threshold=150,
                       params_override=_cap)
    fitted = Kamino(dataset.relation, dataset.dcs, config=cfg).fit(
        dataset.table)
    assert fitted.independent, "large-domain fallback did not trigger"
    return dataset, fitted


def test_fitted_round_trip_plain(tmp_path):
    dataset = load("tpch", n=100, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    fitted = Kamino(dataset.relation, dataset.dcs, config=cfg).fit(
        dataset.table)
    path = str(tmp_path / "fitted.npz")
    fitted.save(path)
    reloaded = FittedKamino.load(path, dataset.relation, dataset.dcs)
    assert reloaded.sequence == fitted.sequence
    assert reloaded.default_n == fitted.default_n
    assert reloaded.config == cfg.replace(params_override=None)
    assert reloaded.params.achieved_epsilon == pytest.approx(
        fitted.params.achieved_epsilon)
    # The default draw resumes the post-fit rng state: the reloaded
    # model reproduces the fused fit_sample output bit for bit.
    _tables_equal(reloaded.sample().table, fitted.sample().table,
                  dataset.relation)
    _tables_equal(reloaded.sample(n=40, seed=9).table,
                  fitted.sample(n=40, seed=9).table, dataset.relation)


def test_fitted_round_trip_hyper_grouped(tmp_path):
    dataset, fitted = _fit_grouped()
    path = str(tmp_path / "grouped.npz")
    fitted.save(path)
    reloaded = FittedKamino.load(path, dataset.relation, dataset.dcs)
    assert reloaded.model.sequence == fitted.model.sequence
    assert reloaded.hyper.groups == fitted.hyper.groups
    assert reloaded.hyper.working_sequence == fitted.hyper.working_sequence
    result = reloaded.sample(n=50, seed=3)
    _tables_equal(result.table, fitted.sample(n=50, seed=3).table,
                  dataset.relation)
    for attr in dataset.relation:
        assert attr.domain.validate_column(result.table.column(attr.name))
    for dc in dataset.dcs:
        if dc.hard:
            assert count_violations(dc, result.table) == 0


def test_fitted_round_trip_large_domain_fallback(tmp_path):
    dataset, fitted = _fit_large_domain()
    path = str(tmp_path / "large.npz")
    fitted.save(path)
    reloaded = FittedKamino.load(path, dataset.relation, dataset.dcs)
    assert reloaded.independent == fitted.independent
    assert set(reloaded.model.independent) == set(fitted.model.independent)
    result = reloaded.sample(n=60, seed=5)
    _tables_equal(result.table, fitted.sample(n=60, seed=5).table,
                  dataset.relation)
    for attr in dataset.relation:
        assert attr.domain.validate_column(result.table.column(attr.name))


def test_fitted_file_readable_as_bare_model(trained, tmp_path):
    dataset, _, _ = trained
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    fitted = Kamino(dataset.relation, dataset.dcs, config=cfg).fit(
        dataset.table)
    path = str(tmp_path / "fitted.npz")
    fitted.save(path)
    model, weights, params = load_model(path, dataset.relation)
    assert model.sequence == fitted.model.sequence
    assert weights == fitted.weights


def test_bare_model_rejected_by_load_fitted(trained):
    dataset, _, path = trained
    with pytest.raises(ValueError, match="bare model"):
        load_fitted(path, dataset.relation)


def test_fitted_schema_mismatch_rejected(tmp_path):
    dataset = load("tpch", n=60, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    fitted = Kamino(dataset.relation, dataset.dcs, config=cfg).fit(
        dataset.table)
    path = str(tmp_path / "fitted.npz")
    fitted.save(path)
    other = load("adult", n=20, seed=0)
    with pytest.raises(ValueError, match="schema mismatch"):
        FittedKamino.load(path, other.relation, other.dcs)
