"""Structural scenarios: determinism, substream invariance, and the exact
joint table as a Monte Carlo oracle."""

import math

import numpy as np
import pytest
from scipy import stats

from gmethods.data import Regime, validate
from gmethods.errors import ConfigError
from gmethods.scenarios import (
    SCENARIOS,
    counterfactual_draws,
    dag1a_scenario,
    dag1b_scenario,
    design_alpha,
    direct_effect_scenario,
    discrete_trial_scenario,
    enumerate_joint,
    make_scenario,
    sequential_trial_scenario,
    simulate,
    two_occasion_scenario,
)


def table_cov(table, col_i, col_j):
    """Exact covariance of two table columns (test oracle: direct summation)."""
    vi, vj, p = table.cells[:, col_i], table.cells[:, col_j], table.probs
    mi, mj = float(vi @ p), float(vj @ p)
    return float(((vi - mi) * (vj - mj)) @ p)


class TestSimulate:
    @pytest.mark.parametrize("n", [0, 2.5, True, "10"])
    def test_n_must_be_a_positive_integer(self, n):
        # 2.5 once died in np.empty with a TypeError, and True drew one row.
        with pytest.raises(ConfigError, match="n must be"):
            simulate(dag1b_scenario(), n, seed=1)
        with pytest.raises(ConfigError, match="n must be"):
            counterfactual_draws(dag1b_scenario(), Regime.static((1.0, 1.0)), n, seed=1)

    def test_deterministic_given_seed(self):
        cfg = dag1b_scenario()
        a = simulate(cfg, 1000, seed=7)
        b = simulate(cfg, 1000, seed=7)
        np.testing.assert_array_equal(a.L, b.L)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.Y, b.Y)
        c = simulate(cfg, 1000, seed=8)
        assert not np.array_equal(a.Y, c.Y)

    def test_first_rows_invariant_to_n(self):
        # Per-subject substreams: growing the sample must not disturb the
        # subjects already drawn.
        cfg = dag1b_scenario()
        small = simulate(cfg, 100, seed=3)
        big = simulate(cfg, 500, seed=3)
        np.testing.assert_array_equal(big.L[:100], small.L)
        np.testing.assert_array_equal(big.A[:100], small.A)
        np.testing.assert_array_equal(big.Y[:100], small.Y)

    def test_degenerate_outcome_is_constant(self):
        cfg = two_occasion_scenario(u_effect=0.0, y_noise_sd=1e-300)
        ds = simulate(cfg, 50, seed=1)
        assert np.ptp(ds.Y) < 1e-9

    def test_covariate_treatment_covariance_positive(self):
        # L depends on A0 through a monotone expit, so cov(L, A0) > 0.
        ds = simulate(dag1b_scenario(), 100_000, seed=11)
        assert np.cov(ds.L[:, 1], ds.A[:, 0])[0, 1] > 0.05

    def test_every_registered_scenario_validates(self):
        for name in SCENARIOS:
            ds = simulate(make_scenario(name), 40, seed=5)
            validate(ds)

    def test_hidden_column_on_request(self):
        ds, u = simulate(dag1b_scenario(), 200, seed=2, return_hidden=True)
        assert u.shape == (200,)
        assert set(np.unique(u)) <= {0.0, 1.0}

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            make_scenario("no-such-scenario")

    @pytest.mark.parametrize("name, params, match", [
        ("dag1b", {"bogus": 1}, "scenario 'dag1b': .*unexpected keyword argument 'bogus'"),
        ("dag1b", {"name": "x"}, "scenario 'dag1b': .*multiple values .*'name'"),
        ("dag1b", [1], "scenario 'dag1b' params must be a mapping"),
        ("dag1b", {"u_prob": "x"}, "scenario 'dag1b': "),
        ("sndm-additive", {"psi": ("a",)}, "scenario 'sndm-additive': could not convert"),
    ], ids=["unknown-key", "clash", "non-mapping", "wrong-type", "bad-value"])
    def test_bad_params_are_config_errors(self, name, params, match):
        with pytest.raises(ConfigError, match=match):
            make_scenario(name, params)


class TestEnumerateJoint:
    def test_probabilities_normalized(self):
        t = enumerate_joint(discrete_trial_scenario())
        assert abs(float(t.probs.sum()) - 1.0) < 1e-12
        assert t.probs.min() >= 0.0

    def test_covariate_marginal_identity(self):
        # pr[L1 = 1] from the table equals the same sum taken by hand from
        # the scenario's structural laws:
        #   sum_u sum_l0 sum_a0 pr(u) pr(l0|u) pr(a0|l0) pr(l1=1|u,a0,l0)
        cfg = discrete_trial_scenario()
        t = enumerate_joint(cfg)
        got = float(t.probs[t.cells[:, t.l_col(1)] == 1.0].sum())

        def hand_p(law, **vals):
            lin = sum(c * (1.0 if term == "1" else vals[term])
                      for term, c in zip(law.terms, law.coefs))
            return 1.0 / (1.0 + math.exp(-lin))

        want = 0.0
        for u, pu in zip(cfg.u_law.values, cfg.u_law.probs):
            for l0 in (0.0, 1.0):
                pl0 = hand_p(cfg.l_laws[0], u=u)
                pl0 = pl0 if l0 == 1.0 else 1.0 - pl0
                for a0 in (0.0, 1.0):
                    pa0 = hand_p(cfg.a_laws[0], u=u, l0=l0, lm=l0,
                                 a_prev=0.0)
                    pa0 = pa0 if a0 == 1.0 else 1.0 - pa0
                    pl1 = hand_p(cfg.l_laws[1], u=u, l0=l0, a0=a0, lm=l0,
                                 a_prev=a0)
                    want += pu * pl0 * pa0 * pl1
        assert abs(got - want) < 1e-12

    def test_table_is_simulation_oracle(self):
        # Exact moments from the table vs sample moments, 4 binomial SEs.
        cfg = discrete_trial_scenario()
        t = enumerate_joint(cfg)
        n = 100_000
        ds = simulate(cfg, n, seed=17)
        for (ci, col) in ((t.l_col(1), ds.L[:, 1]), (t.a_col(0), ds.A[:, 0]),
                          (t.a_col(1), ds.A[:, 1])):
            exact = float(t.cells[:, ci] @ t.probs)
            se = np.sqrt(exact * (1.0 - exact) / n)
            assert abs(col.mean() - exact) < 4.0 * se
        y_exact = float(t.cells[:, -1] @ t.probs)
        y_se = ds.Y.std() / np.sqrt(n)
        assert abs(ds.Y.mean() - y_exact) < 4.0 * y_se

    def test_continuous_scenario_rejected(self):
        with pytest.raises(ConfigError):
            enumerate_joint(dag1b_scenario())

    def test_bins_for_a_noiseless_outcome_rejected(self):
        # Binning divides by the noise sd; without noise every mass is nan.
        with pytest.raises(ConfigError, match="y_bins"):
            enumerate_joint(direct_effect_scenario(), y_bins=np.linspace(-2, 6, 8))

    @pytest.mark.parametrize("y_bins", [[3.0, -2.0, 6.0], [1.0], [], [-2.0, np.nan, 6.0]],
                             ids=["decreasing", "one-edge", "no-edge", "nan-edge"])
    def test_malformed_bins_rejected(self, y_bins):
        # Unchecked, decreasing edges give a wrong table that sums to 1, and
        # the others an unrelated IndexError or mass error.
        with pytest.raises(ConfigError, match="strictly increasing"):
            enumerate_joint(sequential_trial_scenario(K=1), y_bins=y_bins)


class TestCounterfactuals:
    def test_null_scenario_regime_invariant(self):
        # Under the null graph Y is structurally free of treatment, so the
        # counterfactual law is the same for every plan.
        cfg = dag1b_scenario()
        n = 100_000
        y00 = counterfactual_draws(cfg, Regime.static((0.0, 0.0)), n, seed=23)
        y11 = counterfactual_draws(cfg, Regime.static((1.0, 1.0)), n, seed=23)
        d = stats.ks_2samp(y00, y11)
        # 3 "KS standard errors": critical scale sqrt(2/n) on the statistic
        assert d.statistic < 3.0 * np.sqrt(2.0 / n)

    def test_coinciding_static_and_dynamic_regimes_share_streams(self):
        cfg = dag1b_scenario()
        static = Regime.static((1.0, 0.0))
        dyn = Regime.dynamic(lambda m, l_bar: 1.0 - float(m))
        a = counterfactual_draws(cfg, static, 2000, seed=29)
        b = counterfactual_draws(cfg, dyn, 2000, seed=29)
        np.testing.assert_array_equal(a, b)

    def test_additive_effect_mean_shift(self):
        # Y gains a1_effect * a1; the between-plan mean shift is the
        # coefficient itself (closed-form oracle).
        beta = 0.5
        cfg = dag1a_scenario(a0_effect=0.0, a1_effect=beta)
        n = 100_000
        y0 = counterfactual_draws(cfg, Regime.static((0.0, 0.0)), n, seed=31)
        y1 = counterfactual_draws(cfg, Regime.static((0.0, 1.0)), n, seed=37)
        se = np.sqrt(y0.var() / n + y1.var() / n)
        assert abs((y1.mean() - y0.mean()) - beta) < 3.0 * se

    def test_empty_manipulation_reproduces_observational_law(self):
        # regime=None draws treatments from their own laws on the same
        # substreams, so the outcome column matches simulate() exactly.
        cfg = dag1b_scenario()
        ds = simulate(cfg, 5000, seed=41)
        y = counterfactual_draws(cfg, None, 5000, seed=41)
        np.testing.assert_array_equal(ds.Y, y)


class TestDiagnostics:
    def test_null_paradox_premises_hold(self):
        # The two faithfulness premises, checked against the exact table of
        # the all-discrete stand-in scenario: cov(Y,L) and cov(L,A0) are
        # bounded away from zero, and the sample versions agree with them.
        cfg = discrete_trial_scenario()
        t = enumerate_joint(cfg)
        cov_yl = table_cov(t, t.l_col(1), 4)
        cov_la0 = table_cov(t, t.l_col(1), t.a_col(0))
        assert abs(cov_yl) > 0.01 and abs(cov_la0) > 0.01
        ds = simulate(cfg, 100_000, seed=47)
        assert abs(np.cov(ds.Y, ds.L[:, 1], bias=True)[0, 1] - cov_yl) < 0.02
        assert abs(np.cov(ds.L[:, 1], ds.A[:, 0], bias=True)[0, 1] - cov_la0) < 0.01


class TestDesignAlpha:
    def test_recovers_shared_logistic_coefficients(self):
        cfg = sequential_trial_scenario(K=2)
        alpha = design_alpha(cfg, ("1", "lm", "a_prev"))
        assert alpha == (0.3, 0.5, -0.4)

    def test_mismatched_terms_give_none(self):
        cfg = sequential_trial_scenario(K=2)
        assert design_alpha(cfg, ("1", "lm")) is None

    def test_continuous_treatment_gives_none(self):
        assert design_alpha(dag1b_scenario(), ("1", "lm", "a_prev")) is None
