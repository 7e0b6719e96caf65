"""Tests for Algorithm 3 (sampling), Algorithm 5 (weights), and the
end-to-end Kamino pipeline."""

import math

import numpy as np
import pytest

from repro.constraints import count_violations, parse_dc
from repro.core import Kamino
from repro.core.hyper import HyperSpec
from repro.core.params import KaminoParams
from repro.core.engine import synthesize_engine
from repro.core.sampling import ar_sample
from repro.core.training import train_model
from repro.core.weights import learn_dc_weights
from repro.schema import (
    Attribute, CategoricalDomain, NumericalDomain, Relation, Table,
)


def fd_relation():
    return Relation([
        Attribute("g", CategoricalDomain(["a", "b", "c", "d"])),
        Attribute("h", CategoricalDomain(["p", "q", "r", "s"])),
        Attribute("x", NumericalDomain(0, 20, integer=True, bins=21)),
    ])


def fd_table(n=250, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 4, n)
    h = (g + 1) % 4                 # hard FD g -> h
    x = g * 4.0 + rng.integers(0, 3, n)
    return Table(fd_relation(), {"g": g, "h": h, "x": x})


FD = parse_dc("not(ti.g == tj.g and ti.h != tj.h)", "fd")
FD_NUM = parse_dc("not(ti.g == tj.g and ti.x != tj.x)", "fd_num")


def trained_model(table, T=120, seed=0):
    params = KaminoParams(epsilon=math.inf, delta=1e-6, iterations=T,
                          embed_dim=8, lr=0.1, n=table.n, k=3)
    rng = np.random.default_rng(seed)
    model = train_model(table, table.relation, ["g", "h", "x"], params,
                        rng, private=False)
    return model, params, rng


class TestSynthesize:
    def test_hard_fd_categorical_enforced(self):
        table = fd_table()
        model, params, rng = trained_model(table)
        out = synthesize_engine(model, table.relation, [FD],
                                {"fd": math.inf}, 200, params, 0)
        assert count_violations(FD, out) == 0

    def test_hard_fd_numerical_enforced(self):
        """The dependent is numeric: candidate augmentation must supply
        the forced value."""
        table = fd_table()
        model, params, rng = trained_model(table)
        out = synthesize_engine(model, table.relation, [FD_NUM],
                                {"fd_num": math.inf}, 200, params, 0)
        assert count_violations(FD_NUM, out) == 0

    def test_unconstrained_matches_schema(self):
        table = fd_table()
        model, params, rng = trained_model(table, T=30)
        out = synthesize_engine(model, table.relation, [], {}, 150,
                                params, 0)
        assert out.n == 150
        assert out.relation.names == table.relation.names
        for attr in out.relation:
            assert attr.domain.validate_column(out.column(attr.name))

    def test_soft_dc_penalty_reduces_violations(self):
        table = fd_table()
        model, params, rng = trained_model(table, T=30)
        soft = parse_dc("not(ti.g == tj.g and ti.h != tj.h)", "soft",
                        hard=False)
        heavy = synthesize_engine(model, table.relation, [soft],
                                  {"soft": 8.0}, 150, params, 1)
        light = synthesize_engine(model, table.relation, [soft],
                                  {"soft": 0.0}, 150, params, 1)
        assert (count_violations(soft, heavy)
                <= count_violations(soft, light))

    def test_mcmc_resampling_runs(self):
        table = fd_table()
        model, params, rng = trained_model(table, T=30)
        params.mcmc_m = 50
        out = synthesize_engine(model, table.relation, [FD],
                                {"fd": math.inf}, 120, params, 0)
        assert count_violations(FD, out) == 0

    def test_hyper_grouping_sampling(self):
        table = fd_table()
        spec = HyperSpec(table.relation, [["g", "h"], ["x"]])
        working = spec.encode_table(table)
        params = KaminoParams(epsilon=math.inf, delta=1e-6, iterations=60,
                              embed_dim=8, lr=0.1, n=table.n, k=2)
        rng = np.random.default_rng(0)
        model = train_model(working, spec.working_relation,
                            spec.working_sequence, params, rng,
                            private=False)
        out = synthesize_engine(model, table.relation, [FD],
                                {"fd": math.inf}, 150, params, 0,
                                hyper=spec)
        assert out.relation.names == table.relation.names
        assert count_violations(FD, out) == 0


class TestArSampling:
    def test_runs_and_respects_schema(self):
        table = fd_table()
        model, params, rng = trained_model(table, T=60)
        out = ar_sample(model, table.relation, [FD], {"fd": math.inf},
                        100, params, rng, max_tries=50)
        assert out.n == 100

    def test_soft_dcs_suppressed(self):
        table = fd_table()
        model, params, rng = trained_model(table, T=30)
        soft = parse_dc("not(ti.g == tj.g and ti.h != tj.h)", "soft",
                        hard=False)
        accepted = ar_sample(model, table.relation, [soft], {"soft": 6.0},
                             120, params, np.random.default_rng(5))
        free = ar_sample(model, table.relation, [soft], {"soft": 0.0},
                         120, params, np.random.default_rng(5))
        assert (count_violations(soft, accepted)
                <= count_violations(soft, free))


class TestLearnWeights:
    def _params(self):
        return KaminoParams(epsilon=1.0, delta=1e-6, L_w=60,
                            iterations_w=30, batch_w=2, sigma_w=0.3,
                            weight_init=5.0, lr_w=0.5)

    def test_hard_dcs_infinite(self):
        table = fd_table()
        weights = learn_dc_weights(table, [FD], ["g", "h", "x"],
                                   self._params(), np.random.default_rng(0))
        assert weights["fd"] == math.inf

    def test_violated_soft_dc_decays(self):
        rng = np.random.default_rng(0)
        n = 200
        g = rng.integers(0, 4, n)
        h = rng.integers(0, 4, n)      # no FD at all -> many violations
        x = rng.integers(0, 21, n)
        table = Table(fd_relation(), {"g": g, "h": h, "x": x})
        soft = parse_dc("not(ti.g == tj.g and ti.h != tj.h)", "soft",
                        hard=False)
        weights = learn_dc_weights(table, [soft], ["g", "h", "x"],
                                   self._params(),
                                   np.random.default_rng(1), private=False)
        assert weights["soft"] < 5.0

    def test_clean_soft_dc_stays_high(self):
        table = fd_table()  # FD holds exactly
        soft = parse_dc("not(ti.g == tj.g and ti.h != tj.h)", "soft",
                        hard=False)
        weights = learn_dc_weights(table, [soft], ["g", "h", "x"],
                                   self._params(),
                                   np.random.default_rng(2), private=False)
        assert weights["soft"] == pytest.approx(5.0, abs=0.5)

    def test_weights_bounded(self):
        table = fd_table()
        soft = parse_dc("not(ti.g == tj.g and ti.h != tj.h)", "soft",
                        hard=False)
        params = self._params()
        weights = learn_dc_weights(table, [soft, FD], ["g", "h", "x"],
                                   params, np.random.default_rng(3))
        assert 0.0 <= weights["soft"] <= params.weight_max


class TestKaminoEndToEnd:
    def _override(self, p):
        p.iterations = min(p.iterations, 30)
        p.embed_dim = 6

    def test_private_run_meets_budget(self):
        table = fd_table()
        kam = Kamino(table.relation, [FD], epsilon=1.5, delta=1e-6,
                     seed=0, params_override=self._override)
        result = kam.fit_sample(table)
        assert result.params.achieved_epsilon <= 1.5
        assert result.table.n == table.n
        assert count_violations(FD, result.table) == 0

    def test_nonprivate_run(self):
        table = fd_table()
        kam = Kamino(table.relation, [FD], epsilon=math.inf, seed=0,
                     params_override=self._override)
        result = kam.fit_sample(table)
        assert count_violations(FD, result.table) == 0

    def test_result_fields(self):
        table = fd_table()
        kam = Kamino(table.relation, [FD], epsilon=2.0, seed=0,
                     params_override=self._override)
        result = kam.fit_sample(table, n=50)
        assert result.table.n == 50
        assert sorted(result.timings) == ["DC.W.", "Sam.", "Seq.", "Tra."]
        assert result.total_seconds > 0
        assert result.weights["fd"] == math.inf
        assert sorted(result.sequence) == sorted(table.relation.names)

    def test_override_cannot_break_budget(self):
        table = fd_table()

        def bad_override(p):
            p.iterations = 100_000
            p.sigma_d = 0.5

        kam = Kamino(table.relation, [FD], epsilon=1.0, seed=0,
                     params_override=bad_override)
        with pytest.raises(ValueError):
            kam.fit_sample(table)

    def test_known_weights_skip_learning(self):
        table = fd_table()
        soft = parse_dc("not(ti.g == tj.g and ti.h != tj.h)", "soft",
                        hard=False)
        kam = Kamino(table.relation, [soft], epsilon=2.0, seed=0,
                     params_override=self._override)
        result = kam.fit_sample(table, weights={"soft": 7.5})
        assert result.weights["soft"] == 7.5

    def test_grouping_end_to_end(self):
        table = fd_table()
        kam = Kamino(table.relation, [FD], epsilon=2.0, seed=0,
                     group_max_domain=16,
                     params_override=self._override)
        result = kam.fit_sample(table)
        assert count_violations(FD, result.table) == 0

    def test_ar_variant(self):
        table = fd_table()
        kam = Kamino(table.relation, [FD], epsilon=2.0, seed=0,
                     params_override=self._override)
        result = kam.fit_sample_ar(table, max_tries=40)
        assert result.table.n == table.n
