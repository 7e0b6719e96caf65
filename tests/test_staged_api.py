"""Tests for the staged fit/sample API.

Pins the redesign's contract: ``KaminoConfig`` validation and the
keyword constructor, ``fit()`` + ``FittedKamino.sample()``
bit-identical to the fused ``fit_sample`` across private / non-private
/ grouped / FD-lookup / AR configurations, and sample-many semantics
(any size, any seed, no retraining).
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.constraints import count_violations
from repro.core import FittedKamino, Kamino, KaminoConfig
from repro.core.kamino import ConfigError, KaminoResult
from repro.datasets import load
from repro.schema import Table


def _cap(params):
    params.iterations = min(params.iterations, 10)
    params.embed_dim = 6


def _assert_tables_equal(a, b):
    assert a.relation.names == b.relation.names
    for name in a.relation.names:
        np.testing.assert_array_equal(a.column(name), b.column(name),
                                      err_msg=name)


# ----------------------------------------------------------------------
# KaminoConfig
# ----------------------------------------------------------------------
def test_config_is_frozen():
    cfg = KaminoConfig(epsilon=1.0)
    with pytest.raises(AttributeError):
        cfg.epsilon = 2.0


def test_config_defaults_match_paper():
    cfg = KaminoConfig(epsilon=1.0)
    assert cfg.delta == 1e-6
    assert cfg.large_domain_threshold == 1000
    assert cfg.group_max_domain is None
    assert not cfg.use_fd_lookup
    assert cfg.constraint_aware_sampling
    assert cfg.weight_estimator == "matrix"
    assert cfg.private


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        KaminoConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        KaminoConfig(epsilon=-1.0)
    with pytest.raises(ValueError, match="delta"):
        KaminoConfig(epsilon=1.0, delta=0.0)
    with pytest.raises(ValueError, match="delta"):
        KaminoConfig(epsilon=1.0, delta=1.5)
    with pytest.raises(ValueError, match="group_max_domain"):
        KaminoConfig(epsilon=1.0, group_max_domain=1)
    with pytest.raises(ValueError, match="large_domain_threshold"):
        KaminoConfig(epsilon=1.0, large_domain_threshold=0)
    with pytest.raises(ValueError, match="weight_estimator"):
        KaminoConfig(epsilon=1.0, weight_estimator="bogus")
    with pytest.raises(ValueError, match="params_override"):
        KaminoConfig(epsilon=1.0, params_override="not callable")


def test_config_infinite_epsilon_is_non_private():
    cfg = KaminoConfig(epsilon=math.inf)
    assert not cfg.private


def test_config_replace_revalidates():
    cfg = KaminoConfig(epsilon=1.0)
    assert cfg.replace(seed=5).seed == 5
    assert cfg.replace(seed=5) is not cfg
    with pytest.raises(ValueError):
        cfg.replace(epsilon=-3.0)


# ----------------------------------------------------------------------
# Kamino constructor shim
# ----------------------------------------------------------------------
def test_kamino_accepts_config_object():
    ds = load("tpch", n=20, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=3, use_fd_lookup=True)
    kam = Kamino(ds.relation, ds.dcs, config=cfg)
    assert kam.config is cfg
    assert kam.config.seed == 3 and kam.config.use_fd_lookup


def test_kamino_kwargs_shim_builds_config():
    ds = load("tpch", n=20, seed=0)
    kam = Kamino(ds.relation, ds.dcs, 1.0, seed=3, use_fd_lookup=True)
    assert kam.config == KaminoConfig(epsilon=1.0, seed=3,
                                      use_fd_lookup=True)
    # delta is the one knob that may also come positionally.
    assert Kamino(ds.relation, ds.dcs, 1.0, 1e-5).config == \
        KaminoConfig(epsilon=1.0, delta=1e-5)


def test_kamino_rejects_epsilon_and_config_together():
    ds = load("tpch", n=20, seed=0)
    cfg = KaminoConfig(epsilon=1.0)
    with pytest.raises(TypeError, match="config"):
        Kamino(ds.relation, ds.dcs, 1.0, config=cfg)
    with pytest.raises(TypeError, match="epsilon"):
        Kamino(ds.relation, ds.dcs)


def test_kamino_rejects_knobs_alongside_config():
    """No knob is silently dropped when config= is given."""
    ds = load("tpch", n=20, seed=0)
    cfg = KaminoConfig(epsilon=1.0)
    with pytest.raises(TypeError, match="seed"):
        Kamino(ds.relation, ds.dcs, config=cfg, seed=5)
    with pytest.raises(TypeError, match="use_fd_lookup"):
        Kamino(ds.relation, ds.dcs, config=cfg, use_fd_lookup=True)
    with pytest.raises(TypeError, match="delta"):
        Kamino(ds.relation, ds.dcs, None, 1e-5, config=cfg)


@pytest.mark.parametrize("knob, value", [
    ("workers", 2),
    ("pool", "process"),
    ("max_block_rows", 64),
    ("stream_chunk_rows", 1000),
])
def test_scheduling_is_not_a_config_knob(knob, value):
    """Draw scheduling is an argument of each draw, not model state:
    the config and the constructor reject it as an unknown knob."""
    ds = load("tpch", n=20, seed=0)
    with pytest.raises(TypeError, match=knob):
        KaminoConfig(epsilon=1.0, **{knob: value})
    with pytest.raises(TypeError, match=knob):
        Kamino(ds.relation, ds.dcs, 1.0, **{knob: value})


def test_probe_switch_is_not_a_config_knob():
    """Every DC counts in a violation index, so the switch that could
    replace the indexes with prefix scans is gone: an unknown knob."""
    assert len(dataclasses.fields(KaminoConfig)) == 11
    with pytest.raises(TypeError, match="use_violation_index"):
        KaminoConfig(epsilon=1.0, use_violation_index=False)


def test_kamino_attribute_writes_raise():
    """The knobs live on the frozen config alone: a stray write raises
    instead of silently leaving the config unchanged."""
    ds = load("tpch", n=20, seed=0)
    kam = Kamino(ds.relation, ds.dcs, 1.0, seed=3)
    with pytest.raises(AttributeError):
        kam.seed = 5
    with pytest.raises(AttributeError):
        kam.use_fd_lookup = True
    assert kam.config == KaminoConfig(epsilon=1.0, seed=3)


# ----------------------------------------------------------------------
# fit_sample == fit().sample() equivalence
# ----------------------------------------------------------------------
def _fused_vs_staged(kamino_a, kamino_b, table, **kw):
    fused = kamino_a.fit_sample(table, **kw)
    staged = kamino_b.fit(table).sample(kw.get("n"))
    _assert_tables_equal(fused.table, staged.table)
    assert fused.sequence == staged.sequence
    assert fused.weights == staged.weights
    return fused, staged


def test_fused_equals_staged_private():
    ds = load("tpch", n=100, seed=0)
    make = lambda: Kamino(ds.relation, ds.dcs, 1.0, seed=0,  # noqa: E731
                          params_override=_cap)
    _fused_vs_staged(make(), make(), ds.table)


def test_fused_equals_staged_non_private():
    ds = load("tpch", n=100, seed=0)
    make = lambda: Kamino(ds.relation, ds.dcs, math.inf,  # noqa: E731
                          seed=1, params_override=_cap)
    _fused_vs_staged(make(), make(), ds.table, n=60)


def test_fused_equals_staged_fd_lookup():
    ds = load("tpch", n=100, seed=0)
    make = lambda: Kamino(ds.relation, ds.dcs, 1.0, seed=2,  # noqa: E731
                          use_fd_lookup=True, params_override=_cap)
    _fused_vs_staged(make(), make(), ds.table)


def test_fused_equals_staged_grouped():
    ds = load("br2000", n=80, seed=0)
    make = lambda: Kamino(ds.relation, ds.dcs, 1.0, seed=0,  # noqa: E731
                          group_max_domain=128, params_override=_cap)
    fused, staged = _fused_vs_staged(make(), make(), ds.table)
    assert any("+" in w for w in fused.model.sequence)


def test_fused_equals_staged_ar():
    ds = load("tpch", n=100, seed=0)
    make = lambda: Kamino(ds.relation, ds.dcs, 1.0, seed=3,  # noqa: E731
                          params_override=_cap)
    fused = make().fit_sample_ar(ds.table, max_tries=40)
    staged = make().fit(ds.table).sample_ar(max_tries=40)
    _assert_tables_equal(fused.table, staged.table)


def test_fused_equals_staged_known_weights():
    ds = load("adult", n=120, seed=0)
    weights = {dc.name: 4.0 for dc in ds.dcs if not dc.hard}
    make = lambda: Kamino(ds.relation, ds.dcs, 1.0, seed=4,  # noqa: E731
                          params_override=_cap)
    fused = make().fit_sample(ds.table, n=50, weights=weights)
    staged = make().fit(ds.table, weights=weights).sample(50)
    _assert_tables_equal(fused.table, staged.table)


# ----------------------------------------------------------------------
# FittedKamino sampling semantics
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted_tpch():
    ds = load("tpch", n=100, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap)
    return ds, Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)


def test_default_draws_are_repeatable(fitted_tpch):
    _, fitted = fitted_tpch
    _assert_tables_equal(fitted.sample().table, fitted.sample().table)


def test_seeded_draws_differ_and_are_deterministic(fitted_tpch):
    ds, fitted = fitted_tpch
    a = fitted.sample(seed=1).table
    b = fitted.sample(seed=2).table
    assert any(not np.array_equal(a.column(c), b.column(c))
               for c in ds.relation.names)
    _assert_tables_equal(a, fitted.sample(seed=1).table)


def test_sample_many_sizes_without_refit(fitted_tpch):
    ds, fitted = fitted_tpch
    for n, seed in ((30, 7), (150, 8)):
        result = fitted.sample(n=n, seed=seed)
        assert result.table.n == n
        for attr in ds.relation:
            assert attr.domain.validate_column(result.table.column(attr.name))
        for dc in ds.dcs:
            assert count_violations(dc, result.table) == 0


def test_sample_result_carries_fit_context(fitted_tpch):
    _, fitted = fitted_tpch
    result = fitted.sample(n=20, seed=0)
    assert isinstance(result, KaminoResult)
    assert result.model is fitted.model
    assert result.hyper is fitted.hyper
    assert result.sequence == fitted.sequence
    assert set(result.timings) == {"Seq.", "Tra.", "DC.W.", "Sam."}
    # Draws must not mutate the stored fit timings.
    assert "Sam." not in fitted.fit_timings


def test_fit_does_not_sample(fitted_tpch):
    _, fitted = fitted_tpch
    assert "Sam." not in fitted.fit_timings
    assert fitted.sampling_state is not None
    assert fitted.default_n == 100


_DRAWS = {
    "sample": lambda fitted, n: fitted.sample(n=n, seed=1).table,
    "sample_ar": lambda fitted, n: fitted.sample_ar(n=n, seed=1,
                                                    max_tries=5).table,
    "sample_stream": lambda fitted, n: list(
        fitted.sample_stream(n=n, seed=1, chunk_rows=4)),
}


@pytest.mark.parametrize("entry", sorted(_DRAWS))
@pytest.mark.parametrize("n", [2.5, -2, -1, np.float64(3.5), "3", [3]])
def test_malformed_draw_sizes_raise_a_typed_error(fitted_tpch, entry, n):
    _, fitted = fitted_tpch
    with pytest.raises(ValueError, match=r"\bn must be a non-negative "
                       r"integer"):
        _DRAWS[entry](fitted, n)


@pytest.mark.parametrize("entry", sorted(_DRAWS))
def test_draw_sizes_accept_none_zero_and_numpy_integers(fitted_tpch,
                                                        entry):
    _, fitted = fitted_tpch

    def rows(out):
        return (sum(t.n for t in out) if isinstance(out, list)
                else out.n)
    assert rows(_DRAWS[entry](fitted, None)) == fitted.default_n
    assert rows(_DRAWS[entry](fitted, 0)) == 0
    assert rows(_DRAWS[entry](fitted, np.int64(5))) == 5
    assert rows(_DRAWS[entry](fitted, 5.0)) == 5


_SEEDED = {
    "sample": lambda fitted, seed: fitted.sample(n=3, seed=seed).table,
    "sample_ar": lambda fitted, seed: fitted.sample_ar(
        n=3, seed=seed, max_tries=5).table,
    "sample_stream": lambda fitted, seed: _joined(
        fitted.sample_stream(n=3, seed=seed, chunk_rows=2)),
}


def _joined(chunks) -> Table:
    chunks = list(chunks)
    relation = chunks[0].relation
    return Table(relation, {a: np.concatenate([c.column(a) for c in chunks])
                            for a in relation.names}, validate=False)


@pytest.mark.parametrize("entry", sorted(_SEEDED))
@pytest.mark.parametrize("seed", [1.9, -1, np.int64(-3), "1", [1]])
def test_malformed_seeds_raise_a_typed_error(fitted_tpch, entry, seed):
    _, fitted = fitted_tpch
    with pytest.raises(ValueError, match=r"\bseed must be a non-negative "
                       r"integer"):
        _SEEDED[entry](fitted, seed)


@pytest.mark.parametrize("entry", sorted(_SEEDED))
def test_seeds_accept_none_and_integral_values(fitted_tpch, entry):
    _, fitted = fitted_tpch
    draw = _SEEDED[entry]
    assert draw(fitted, None).n == 3
    want = draw(fitted, 7)
    for seed in (np.int64(7), 7.0):
        got = draw(fitted, seed)
        for a in fitted.relation.names:
            np.testing.assert_array_equal(got.column(a), want.column(a))


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_config_rejects_malformed_seeds(seed):
    with pytest.raises(ConfigError, match="seed must be a non-negative"):
        KaminoConfig(epsilon=1.0, seed=seed)


_INTEGER_ARGS = {
    "workers": lambda fitted, v: fitted.sample(n=3, seed=1, workers=v),
    "chunk_rows": lambda fitted, v: fitted.sample_stream(
        n=3, seed=1, chunk_rows=v),
    "max_tries": lambda fitted, v: fitted.sample_ar(n=3, seed=1,
                                                    max_tries=v),
}


@pytest.mark.parametrize("arg, value", [
    ("workers", 1.9),
    ("workers", "2"),
    ("chunk_rows", 1.5),
    ("chunk_rows", 0),
    ("max_tries", 0),
    ("max_tries", 2.5),
])
def test_malformed_draw_arguments_raise_a_typed_error(fitted_tpch, arg,
                                                      value):
    _, fitted = fitted_tpch
    with pytest.raises(ValueError, match=rf"\b{arg} must be"):
        _INTEGER_ARGS[arg](fitted, value)


def test_sample_ar_produces_valid_rows(fitted_tpch):
    ds, fitted = fitted_tpch
    result = fitted.sample_ar(n=40, seed=11, max_tries=40)
    assert result.table.n == 40
    for attr in ds.relation:
        assert attr.domain.validate_column(result.table.column(attr.name))


def test_constraint_ablation_respected():
    ds = load("tpch", n=60, seed=0)
    cfg = KaminoConfig(epsilon=1.0, seed=0, params_override=_cap,
                       constraint_aware_sampling=False)
    fitted = Kamino(ds.relation, ds.dcs, config=cfg).fit(ds.table)
    # The ablation draws i.i.d. tuples; just check it runs and sizes.
    assert fitted.sample(n=25, seed=0).table.n == 25


# ----------------------------------------------------------------------
# Inference keeps no training caches
# ----------------------------------------------------------------------
def _forward_arrays(model) -> list:
    """(sub-model, attribute) of every backward cache a layer holds."""
    found = []
    for target, net in model.submodels.items():
        layers = [net, net.attention, net.head]
        for encoder in list(net.encoders.values()) + [net.target_embedding]:
            layers += [encoder, getattr(encoder, "lin1", None),
                       getattr(encoder, "act", None),
                       getattr(encoder, "lin2", None)]
        for layer in layers:
            for attr in ("_cache", "_x", "_mask", "_idx"):
                if getattr(layer, attr, None) is not None:
                    found.append((target, type(layer).__name__, attr))
    return found


@pytest.mark.parametrize("name", ["adult", "tpch"])
def test_draws_keep_no_forward_arrays_on_sub_models(tmp_path, name):
    ds = load(name, n=200, seed=0)
    fitted = Kamino(ds.relation, ds.dcs, epsilon=1.0, seed=0,
                    params_override=_cap).fit(ds.table)
    path = tmp_path / "model.npz"
    fitted.save(path)
    loaded = FittedKamino.load(path, ds.relation, ds.dcs)
    assert not _forward_arrays(loaded.model)
    table = loaded.sample(n=300, seed=4).table
    assert not _forward_arrays(loaded.model)
    _assert_tables_equal(table, fitted.sample(n=300, seed=4).table)
    # Training and attention inspection still run the caching forward.
    net = next(iter(loaded.model.submodels.values()))
    batch = {a: table.column(a)[:5] for a in net.context_attrs}
    assert net.attention_weights(batch).shape == (5, len(net.context_attrs))
    assert _forward_arrays(loaded.model)
