"""Protocol-conformance suite for every registered synthesis backend.

Each backend must honour the staged contract of :mod:`repro.synth`:
``fit``/``sample`` split, ``fit_sample == fit().sample()``, seed
determinism, save -> load -> sample round-trips, and a budget ledger
whose total equals the configured epsilon.  The suite is parametrized
over the registry, so a newly registered backend is conformance-tested
by construction.

The pinned digests at the bottom freeze the *pre-refactor* fused
outputs: the staged split must not move a single bit of any baseline's
``fit_sample``.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import adult
from repro.synth import (
    BACKENDS, BackendUnavailable, WIDE_TABLE_WIDTH, available_backends,
    backend_names, load_fitted, make_synthesizer, peek_method,
    register_backend, resolve_backend, route,
)
from repro.synth.ledger import BudgetLedger, Spend


def table_digest(table) -> str:
    h = hashlib.sha256()
    for name in table.relation.names:
        h.update(np.ascontiguousarray(table.column(name)).tobytes())
    return h.hexdigest()[:16]


#: Bench-scale constructor knobs so the whole suite runs in seconds.
FAST_KWARGS = {
    "kamino": {"params_override": lambda p: (
        setattr(p, "iterations", min(p.iterations, 6)),
        setattr(p, "embed_dim", min(p.embed_dim, 8)))},
    "privbayes": {},
    "pategan": {"iterations": 4},
    "dpvae": {"iterations": 6},
    "nist_mst": {},
    "cleaning": {},
}

ALL_BACKENDS = sorted(BACKENDS)


@pytest.fixture(scope="module")
def dataset():
    return adult(n=160, seed=0)


@pytest.fixture(scope="module")
def fitted_by_backend(dataset):
    """One fit per backend, shared across the conformance tests."""
    out = {}
    for name in ALL_BACKENDS:
        synth = make_synthesizer(name, 1.0, delta=1e-6, seed=0,
                                 dcs=dataset.dcs, **FAST_KWARGS[name])
        out[name] = synth.fit(dataset.table)
    return out


class TestRegistry:
    def test_all_six_registered(self):
        assert set(backend_names()) == {
            "kamino", "privbayes", "pategan", "dpvae", "nist_mst",
            "cleaning"}

    def test_all_available_here(self):
        # The test environment has every optional dep installed.
        assert all(reason is None
                   for reason in available_backends().values())

    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            resolve_backend("nope")

    def test_unavailable_backend_reports_not_raises_importerror(self):
        register_backend("broken", "repro.no_such_module:Thing")
        try:
            reasons = available_backends()
            assert reasons["broken"] is not None
            with pytest.raises(BackendUnavailable) as err:
                make_synthesizer("broken", 1.0)
            assert "broken" in str(err.value)
        finally:
            del BACKENDS["broken"]

    def test_infinite_epsilon_substituted_for_baselines(self):
        synth = make_synthesizer("privbayes", float("inf"))
        assert np.isfinite(synth.epsilon)
        kam = make_synthesizer("kamino", float("inf"))
        assert np.isinf(kam.epsilon)


class TestRouter:
    def test_dcs_route_to_kamino(self, dataset):
        assert route(dataset.table, dataset.dcs) == "kamino"
        assert route(constraints_present=True, width=50) == "kamino"

    def test_wide_unconstrained_routes_to_marginal_backend(self):
        assert route(width=WIDE_TABLE_WIDTH,
                     constraints_present=False) == "nist_mst"

    def test_narrow_unconstrained_routes_to_privbayes(self):
        assert route(width=WIDE_TABLE_WIDTH - 1,
                     constraints_present=False) == "privbayes"

    def test_table_shape_inferred(self, dataset):
        # adult has 15 columns and (without DCs) is wide.
        assert route(dataset.table, ()) == "nist_mst"


class TestConformance:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_fused_equals_staged(self, name, dataset, fitted_by_backend):
        synth = make_synthesizer(name, 1.0, delta=1e-6, seed=0,
                                 dcs=dataset.dcs, **FAST_KWARGS[name])
        fused = synth.fit_sample(dataset.table, n=60)
        staged = fitted_by_backend[name].sample(60)
        assert table_digest(fused) == table_digest(staged)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_seed_determinism(self, name, fitted_by_backend):
        fitted = fitted_by_backend[name]
        a = fitted.sample(40, seed=7)
        b = fitted.sample(40, seed=7)
        c = fitted.sample(40, seed=8)
        assert table_digest(a) == table_digest(b)
        assert table_digest(a) != table_digest(c)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_repeated_default_draws_identical(self, name,
                                              fitted_by_backend):
        fitted = fitted_by_backend[name]
        assert table_digest(fitted.sample(30)) \
            == table_digest(fitted.sample(30))

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_save_load_sample_round_trip(self, name, dataset,
                                         fitted_by_backend, tmp_path):
        fitted = fitted_by_backend[name]
        path = str(tmp_path / f"{name}.npz")
        fitted.save(path)
        loaded = load_fitted(path, dataset.relation, dcs=dataset.dcs)
        assert loaded.method == name
        assert table_digest(loaded.sample(40, seed=5)) \
            == table_digest(fitted.sample(40, seed=5))
        # The default (fused-resume) draw survives the round trip too.
        assert table_digest(loaded.sample(30)) \
            == table_digest(fitted.sample(30))

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("draw", ["sample", "sample_stream"])
    @pytest.mark.parametrize("arg, value", [
        ("n", 2.5), ("n", "3"), ("n", -1), ("seed", 1.5), ("seed", -2)])
    def test_draws_reject_a_non_integral_n_or_seed(self, name, draw, arg,
                                                   value,
                                                   fitted_by_backend):
        """Every backend raises the same error naming ``n`` or ``seed``
        instead of truncating ``2.5`` to 2 or parsing ``"3"``."""
        fitted = fitted_by_backend[name]
        with pytest.raises(ValueError,
                           match=f"{arg} must be a non-negative integer"):
            getattr(fitted, draw)(**{"n": 5, arg: value})

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_ledger_total_equals_budget(self, name, fitted_by_backend):
        ledger = fitted_by_backend[name].ledger
        assert len(ledger) >= 1
        assert ledger.total_epsilon() == pytest.approx(1.0)
        assert all(s.epsilon >= 0 and s.delta >= 0 for s in ledger)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_default_n_is_fit_size(self, name, dataset,
                                   fitted_by_backend):
        assert fitted_by_backend[name].sample().n == dataset.table.n

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_payload_self_describes(self, name, fitted_by_backend,
                                    tmp_path):
        path = str(tmp_path / f"{name}.npz")
        fitted_by_backend[name].save(path)
        # Kamino keeps its native format (peek returns None); the
        # others carry the repro.synth/1 payload tag.
        expected = None if name == "kamino" else name
        assert peek_method(path) == expected


class TestTraceUniformity:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_phases_and_draws_recorded(self, name, dataset):
        from repro.obs import RunTrace
        trace = RunTrace(label=f"conformance:{name}")
        synth = make_synthesizer(name, 1.0, delta=1e-6, seed=0,
                                 dcs=dataset.dcs, **FAST_KWARGS[name])
        fitted = synth.fit(dataset.table, trace=trace)
        no_trace = table_digest(fitted.sample(30, seed=2))
        traced = table_digest(fitted.sample(30, seed=2, trace=trace))
        assert traced == no_trace  # tracing never changes the draw
        doc = trace.to_dict()
        assert doc["fit"]["phases"], f"{name} recorded no fit phases"
        assert doc["samples"], f"{name} recorded no sample traces"


class TestLedgerUnit:
    def test_spend_returns_epsilon(self):
        ledger = BudgetLedger()
        assert ledger.spend("laplace:x", 0.25) == 0.25
        ledger.spend("gaussian:y", 0.75, 1e-6)
        assert ledger.total_epsilon() == pytest.approx(1.0)
        assert ledger.total_delta() == pytest.approx(1e-6)

    def test_negative_spend_rejected(self):
        with pytest.raises(ValueError):
            BudgetLedger().spend("bad", -0.1)

    def test_round_trip(self):
        ledger = BudgetLedger()
        ledger.spend("a", 0.5)
        ledger.spend("b", 0.5, 1e-7)
        back = BudgetLedger.from_dict(ledger.to_dict())
        assert list(back) == [Spend("a", 0.5, 0.0),
                              Spend("b", 0.5, 1e-7)]


class TestPinnedPreRefactorOutputs:
    """The staged split must not move a bit of the fused outputs.

    Digests were captured from the fused single-method implementations
    before the protocol refactor (adult n=250 seed=0; epsilon=1,
    delta=1e-6, seed=0, n=120).
    """

    PINS = {
        "privbayes": ("0e57014080c959d1", {}),
        "nist_mst": ("dd414272aa85049e", {}),
        "dpvae": ("b0ee3114cb33fa37", {"iterations": 15}),
        "pategan": ("b9335f4948cc8579", {"iterations": 10}),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_fit_sample_bit_identical_to_pre_refactor(self, name):
        pin, kwargs = self.PINS[name]
        table = adult(n=250, seed=0).table
        synth = make_synthesizer(name, 1.0, delta=1e-6, seed=0, **kwargs)
        assert table_digest(synth.fit_sample(table, n=120)) == pin
