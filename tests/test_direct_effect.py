"""Direct-effect machinery: weights, the weighted test, and its naive rival."""

import numpy as np
import pytest
from scipy.special import logit

from gmethods import streams
from gmethods.data import Dataset, Schema, binary, constant
from gmethods.errors import ConfigError, EstimationError, PositivityError
from gmethods.direct_effect import (
    CONSERVATIVE_NOTE,
    DeSndmSpec,
    IpwWeights,
    SplitSchema,
    de_blip_down,
    direct_effect_g_estimate,
    direct_effect_gnull_test,
    direct_effect_moment_check,
    fit_z_laws,
    ipw_weights,
    naive_direct_effect_demo,
)
from gmethods.laws import BernoulliLogit, NormalLinear
from gmethods.scenarios import (
    dag1a_scenario,
    dag1b_scenario,
    design_alpha,
    direct_effect_scenario,
    enumerate_joint,
    masked_interaction_scenario,
    simulate,
    sndm_scenario,
    two_occasion_scenario,
)
from gmethods.sndm import additive_blip, g_estimate

SPLIT01 = SplitSchema((0,), (1,))
DE_A1_LAW = BernoulliLogit(("1", "lm", "a0"), (-0.2, 0.7, 0.4))


class TestSplitSchema:
    def test_arms_must_be_disjoint(self):
        with pytest.raises(ConfigError, match="both arms"):
            SplitSchema((0, 1), (1,))

    def test_studied_arm_nonempty(self):
        with pytest.raises(ConfigError, match="studied arm"):
            SplitSchema((), (0, 1))

    def test_occasions_sorted(self):
        s = SplitSchema((2, 0), (1,))
        assert s.p_occasions == (0, 2)

    def test_split_must_cover_all_occasions(self):
        with pytest.raises(ConfigError, match="cover"):
            SplitSchema((0,), (2,)).validate_for(1)
        SPLIT01.validate_for(1)  # no error


class TestWeights:
    def test_w_from_multiplies_tail_factors(self):
        w = IpwWeights({1: np.array([0.5, 0.25])}, "design")
        np.testing.assert_array_equal(w.w_from(1, 2), [0.5, 0.25])
        np.testing.assert_array_equal(w.w_from(2, 2), [1.0, 1.0])

    def test_positivity_floor_is_hard(self):
        with pytest.raises(PositivityError, match="positivity"):
            IpwWeights({1: np.array([0.5, 1e-9])}, "design")

    def test_known_law_keeps_design_source(self):
        ds = simulate(direct_effect_scenario(), 500, seed=4)
        laws, source = fit_z_laws(ds, SPLIT01, known={1: DE_A1_LAW})
        assert source == "design"
        assert laws[1] is DE_A1_LAW

    def test_fitted_binary_law_is_logistic(self):
        ds = simulate(direct_effect_scenario(), 3000, seed=4)
        laws, source = fit_z_laws(ds, SPLIT01, terms=("1", "lm", "a0"))
        assert source == "estimated"
        assert isinstance(laws[1], BernoulliLogit)
        np.testing.assert_allclose(laws[1].coefs, (-0.2, 0.7, 0.4), atol=0.25)

    def test_fitted_continuous_law_is_normal(self):
        ds = simulate(two_occasion_scenario(), 3000, seed=4)
        laws, _ = fit_z_laws(ds, SPLIT01, terms=("a0", "lm"))
        assert isinstance(laws[1], NormalLinear)
        np.testing.assert_allclose(laws[1].coefs, (0.5, 0.7), atol=0.15)
        assert abs(laws[1].sd - 1.0) < 0.1

    def test_inverse_weight_mean_counts_arms(self):
        # E[1/f(A1 | past)] = number of arms for a binary assignment.
        ds = simulate(direct_effect_scenario(), 20_000, seed=8)
        w = ipw_weights(ds, SPLIT01, {1: DE_A1_LAW}, "design")
        inv = 1.0 / w.factors[1]
        se = float(np.std(inv) / np.sqrt(ds.n))
        assert abs(float(np.mean(inv)) - 2.0) < 4.0 * se

    def test_law_without_density_rejected(self):
        ds = simulate(direct_effect_scenario(), 100, seed=1)
        with pytest.raises(ConfigError, match="has no density"):
            ipw_weights(ds, SPLIT01, {1: object()}, "design")


class TestWeightedIndependenceTest:
    def test_level_under_joint_null(self):
        # The reference is asymptotic (the weight ratio has heavy tails),
        # so the level needs a moderate n to settle.
        cfg = dag1b_scenario()
        rejects = 0
        reps = 200
        for r in range(reps):
            ds = simulate(cfg, 2000, seed=streams.substream(606, r).integers(2**31))
            rejects += direct_effect_gnull_test(ds, a1_law=cfg.a_laws[1]).reject
        assert 0.015 <= rejects / reps <= 0.11

    def test_power_against_an_early_direct_effect(self):
        cfg = dag1a_scenario()
        rejects = 0
        for r in range(30):
            ds = simulate(cfg, 1500, seed=streams.substream(607, r).integers(2**31))
            rejects += direct_effect_gnull_test(ds, a1_law=cfg.a_laws[1]).reject
        assert rejects >= 20

    def test_design_vs_estimated_notes(self):
        cfg = dag1b_scenario()
        ds = simulate(cfg, 500, seed=11)
        known = direct_effect_gnull_test(ds, a1_law=cfg.a_laws[1])
        assert "known" in known.note
        estimated = direct_effect_gnull_test(ds)
        assert estimated.note == CONSERVATIVE_NOTE

    def test_degenerate_transform_reports_zero(self):
        ds = simulate(dag1b_scenario(), 200, seed=11)
        ds = Dataset(ds.schema, ds.L, ds.A, np.zeros(ds.n))
        rep = direct_effect_gnull_test(ds, a1_law=dag1b_scenario().a_laws[1])
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert "degenerate" in rep.note

    @pytest.mark.parametrize("a0", [1.0, 0.1, 1e-9])
    def test_constant_early_treatment_reports_zero(self, a0):
        # A0 without variation leaves the least-squares null no residual
        # beyond rounding: a variance below the rounding floor, which the
        # engine's one rule reports as 0, p = 1, at any scale of A0.
        cfg = dag1b_scenario()
        ds = simulate(cfg, 200, seed=11)
        ds = Dataset(ds.schema, ds.L, np.column_stack([np.full(ds.n, a0), ds.A[:, 1]]), ds.Y)
        rep = direct_effect_gnull_test(ds, a1_law=cfg.a_laws[1])
        assert (rep.statistic, rep.p_value, rep.reject) == (0.0, 1.0, False)
        assert "degenerate" in rep.note

    def test_nonzero_constant_transform_rejected(self):
        # Y = f(A1 | past) / phi(A1) makes the weighted transform 1 in every
        # row: under the fitted least-squares null it is confounded with the
        # intercept, as a nonzero-constant added column is for every fitted
        # null of the engine.
        cfg = dag1b_scenario()
        ds = simulate(cfg, 200, seed=11)
        f = ipw_weights(ds, SPLIT01, {1: cfg.a_laws[1]}, "design").factors[1]
        phi = NormalLinear(("1",), (0.0,)).density(ds.A[:, 1], {"a_prev": np.zeros(ds.n)})
        ds = Dataset(ds.schema, ds.L, ds.A, f / phi)
        with pytest.raises(EstimationError, match="nonzero constant"):
            direct_effect_gnull_test(ds, a1_law=cfg.a_laws[1])

    def test_nonfinite_transform_rejected(self):
        ds = simulate(dag1b_scenario(), 200, seed=11)
        ds = Dataset(ds.schema, ds.L, ds.A, np.where(np.arange(ds.n) == 3, np.inf, ds.Y))
        with pytest.raises(EstimationError, match="non-finite"):
            direct_effect_gnull_test(ds, a1_law=dag1b_scenario().a_laws[1])

    def test_two_occasions_required(self):
        schema = Schema((constant(),), (binary(),))
        ds = Dataset(schema, np.zeros((4, 1)),
                     np.array([[0.0], [1.0], [0.0], [1.0]]),
                     np.arange(4.0))
        with pytest.raises(ConfigError):
            direct_effect_gnull_test(ds)


class TestNaiveDemo:
    def test_covariate_slope_matches_exact_table(self):
        # gamma1 converges to the logit difference computed from the exact
        # joint table.
        cfg = direct_effect_scenario()
        t = enumerate_joint(cfg)
        per_arm = []
        for a0 in (0.0, 1.0):
            num = t.prob({t.l_col(1): 1.0, t.a_col(0): a0})
            den = t.prob({t.a_col(0): a0})
            per_arm.append(logit(np.array([num / den]))[0])
        want = per_arm[1] - per_arm[0]
        ds = simulate(cfg, 30_000, seed=61)
        rep = naive_direct_effect_demo(
            ds, a1_alpha_known=design_alpha(cfg, ("1", "lm", "a0"),
                                            occasions=(1,)))
        assert abs(rep.gamma1_hat - want) < 0.08

    def test_rejects_a_true_null_when_effects_are_heterogeneous(self):
        # No direct effect of the early treatment exists, but the late
        # treatment's effect varies with a hidden cause, so no
        # covariate-free shift family fits and the naive analysis rejects.
        cfg = masked_interaction_scenario()
        alpha1 = design_alpha(cfg, ("1", "lm", "a0"), occasions=(1,))
        ds = simulate(cfg, 5000, seed=162)
        rep = naive_direct_effect_demo(ds, a1_alpha_known=alpha1)
        assert rep.covariate_test.reject
        assert rep.reduced_family_reject
        assert rep.naive_reject
        # and the weighted test on the same data keeps quiet
        assert not direct_effect_gnull_test(ds, a1_law=cfg.a_laws[1]).reject

    def test_accepts_when_the_late_effect_is_homogeneous(self):
        cfg = masked_interaction_scenario(interaction=0.0)
        alpha1 = design_alpha(cfg, ("1", "lm", "a0"), occasions=(1,))
        ds = simulate(cfg, 5000, seed=63)
        rep = naive_direct_effect_demo(ds, a1_alpha_known=alpha1)
        assert rep.scan_max_p >= rep.level
        assert not rep.reduced_family_reject
        assert not rep.naive_reject


class TestMomentCheck:
    def test_flat_at_the_true_parameter(self):
        cfg = direct_effect_scenario(psi=(1.0, 0.5))
        table = enumerate_joint(cfg)
        spec = DeSndmSpec(additive_blip("1", "a1", psi=(1.0, 0.5)))
        rep = direct_effect_moment_check(table, SPLIT01, spec)
        assert rep.worst < 1e-10
        assert rep.cells_checked[0] >= 1

    def test_moves_at_a_wrong_parameter(self):
        cfg = direct_effect_scenario(psi=(1.0, 0.5))
        table = enumerate_joint(cfg)
        spec = DeSndmSpec(additive_blip("1", "a1", psi=(0.0, 0.0)))
        rep = direct_effect_moment_check(table, SPLIT01, spec)
        assert rep.worst > 0.1

    def test_psi_required(self):
        table = enumerate_joint(direct_effect_scenario())
        with pytest.raises(ConfigError, match="psi"):
            direct_effect_moment_check(table, SPLIT01,
                                       DeSndmSpec(additive_blip("1", "a1")))


class TestDeGEstimation:
    def test_recovers_both_components(self):
        cfg = direct_effect_scenario(psi=(1.0, 0.5))
        ds = simulate(cfg, 4000, seed=67)
        spec = DeSndmSpec(additive_blip("1", "a1"))
        est = direct_effect_g_estimate(
            ds, SPLIT01, spec, psi_box=((0.0, 2.0), (-0.5, 1.5)),
            z_laws={1: DE_A1_LAW}, p_alpha_known=(0.0,),
            grid_points=(13, 13))
        np.testing.assert_allclose(est.psi_hat, [1.0, 0.5], atol=0.35)
        assert est.p_at_hat > 0.2

    def test_residuals_remove_the_studied_arm_shift(self):
        # On this scenario H equals the hidden cause exactly, which takes
        # values on a fixed symmetric grid.
        cfg = direct_effect_scenario(psi=(1.0, 0.5))
        ds, hidden = simulate(cfg, 500, seed=68, return_hidden=True)
        spec = DeSndmSpec(additive_blip("1", "a1", psi=(1.0, 0.5)))
        h = de_blip_down(spec, SPLIT01, ds)
        np.testing.assert_allclose(h, hidden, atol=1e-12)

    def test_empty_fixed_arm_reduces_to_plain_g_estimation(self):
        # With no Z occasions the weights vanish and the score is the
        # unweighted one, so both searches find the same root.
        ds = simulate(sndm_scenario(psi=(1.0,)), 2000, seed=69)
        alpha = (-0.1, 0.7, -0.3)
        terms = ("1", "lm", "a_prev")
        plain = g_estimate(ds, additive_blip("1"), treatment_terms=terms,
                           alpha_known=alpha, psi_box=((0.0, 2.0),),
                           grid_points=41)
        split = SplitSchema((0, 1), ())
        spec = DeSndmSpec(additive_blip("1"), mean_terms=terms)
        de = direct_effect_g_estimate(ds, split, spec,
                                      psi_box=((0.0, 2.0),),
                                      p_alpha_known=alpha, grid_points=41)
        np.testing.assert_allclose(de.psi_hat, plain.psi_hat, atol=1e-9)

    def test_cofactors_limited_to_available_history(self):
        # a1 is fine as an effect modifier when occasion 1 is in Z, but
        # not when it is part of the studied arm itself.
        spec = DeSndmSpec(additive_blip("1", "a1"))
        spec.validate_for(SPLIT01, 1)  # no error
        with pytest.raises(ConfigError, match="unknown feature term"):
            spec.validate_for(SplitSchema((0, 1), ()), 1)

    @pytest.mark.parametrize("term", ["l", "lx", "l_prev"])
    def test_malformed_cofactor_names_are_config_errors(self, term):
        spec = DeSndmSpec(additive_blip("1", term))
        with pytest.raises(ConfigError, match="unknown feature term"):
            spec.validate_for(SPLIT01, 1)

    def test_cofactor_context_follows_the_split(self):
        # At studied occasion 0: l0 and "lm" yes, l1 no; a1 only while
        # occasion 1 belongs to the fixed arm.
        ok = DeSndmSpec(additive_blip("1", "l0*a1", "lm", "a_prev"))
        ok.validate_for(SPLIT01, 1)
        for spec, split in [(DeSndmSpec(additive_blip("1", "l1")), SPLIT01),
                            (DeSndmSpec(additive_blip("1", "a0")), SPLIT01),
                            (ok, SplitSchema((0, 1), ()))]:
            with pytest.raises(ConfigError, match="unknown feature term"):
                spec.validate_for(split, 1)

    def test_box_shape_checked(self):
        ds = simulate(direct_effect_scenario(), 200, seed=1)
        spec = DeSndmSpec(additive_blip("1", "a1"))
        with pytest.raises(ConfigError, match="psi_box"):
            direct_effect_g_estimate(ds, SPLIT01, spec, psi_box=((0.0, 2.0),),
                                     z_laws={1: DE_A1_LAW})

    def test_box_bounds_and_grid_counts_checked(self):
        # The same checks as g_estimate: ordered finite bounds, at least two
        # points per axis, one count per component.
        ds = simulate(direct_effect_scenario(), 200, seed=1)
        spec = DeSndmSpec(additive_blip("1", "a1"))
        box = ((0.0, 2.0), (-0.5, 1.5))
        for psi_box, points, match in [(((2.0, 0.0), (-0.5, 1.5)), 7, "lo < hi"),
                                       (box, (7, 1), "at least 2"),
                                       (box, (7,), "one count per")]:
            with pytest.raises(ConfigError, match=match):
                direct_effect_g_estimate(ds, SPLIT01, spec, psi_box=psi_box,
                                         z_laws={1: DE_A1_LAW}, grid_points=points)

    def test_studied_arm_must_be_binary(self):
        ds = simulate(two_occasion_scenario(), 200, seed=1)
        spec = DeSndmSpec(additive_blip("1"))
        with pytest.raises(EstimationError, match="binary"):
            direct_effect_g_estimate(ds, SplitSchema((0,), (1,)), spec,
                                     psi_box=((0.0, 2.0),),
                                     z_laws={1: NormalLinear(("a0", "lm"),
                                                             (0.5, 0.7), 1.0)})
