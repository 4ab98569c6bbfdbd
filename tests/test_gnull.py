"""Joint-null testing routes and the exact table predicates behind them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gmethods import streams
from gmethods.data import Dataset, Schema, binary, constant, discrete
from gmethods.errors import ConfigError, EstimationError, PositivityError
from gmethods.features import history_cols
from gmethods.gformula import JointTable, g_mean_plugin
from gmethods.gnull import (
    ESTIMATED_DESIGN_NOTE,
    GTestSpec,
    gnull_score_test,
    gnull_table_check,
    naive_test,
    pooled_g_test,
    predicate_standardized_free_of_a0,
    predicate_y_indep_a0,
    predicate_y_indep_a1_given_past,
    random_sequential_table,
)
from gmethods.glm import expit
from gmethods.laws import NormalLinear
from gmethods.scenarios import (
    binary_two_occasion_scenario,
    dag1b_scenario,
    discrete_trial_scenario,
    enumerate_joint,
    simulate,
    two_occasion_scenario,
)
from gmethods.sndm import additive_blip, g_test_at
from gmethods.studies import replicate_seed


def tiny_dataset(L, A, Y):
    schema = Schema((constant(), binary()), (binary(), binary()))
    return Dataset(schema, np.asarray(L, float), np.asarray(A, float),
                   np.asarray(Y, float))


class TestRandomizationScore:
    def test_two_subject_arithmetic(self):
        # U1 = 1*(1-0.3) + 1*(1-0.5) = 1.2
        # U2 = 2*(0-0.3) + 2*(0-0.5) = -1.6
        # chi = (1.2 - 1.6) / sqrt(1.44 + 2.56) = -0.2
        ds = tiny_dataset([[0, 0], [0, 1]], [[1, 1], [0, 0]], [1.0, 2.0])
        rep = gnull_score_test(ds, (NormalLinear(("1",), (0.5,)), NormalLinear(("1",), (0.3,))))
        assert abs(rep.statistic - (-0.2)) < 1e-15
        assert abs(rep.p_value - 2.0 * stats.norm.sf(0.2)) < 1e-12
        assert not rep.reject

    def test_degenerate_outcome_rejected(self):
        # An all-zero outcome carries no information: the engine's one
        # degenerate rule reports statistic 0 and p = 1, as for pooled-g.
        ds = tiny_dataset([[0, 0], [0, 1]], [[1, 1], [0, 0]], [0.0, 0.0])
        rep = gnull_score_test(ds, (NormalLinear(("1",), (0.5,)), NormalLinear(("1",), (0.3,))))
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert not rep.reject
        assert "degenerate" in rep.note

    def test_inputs_read_off_scenario(self):
        cfg = binary_two_occasion_scenario()
        ds = simulate(cfg, 200, seed=31)

        def design_mean(m):
            return cfg.a_laws[m].mean(history_cols(ds.L, ds.A, m + 1, m, m))

        np.testing.assert_allclose(design_mean(0), 0.5, rtol=0, atol=1e-15)
        got = design_mean(1)
        want = expit(-0.3 + 0.8 * ds.L[:, 1] + 0.4 * ds.A[:, 0])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_level_despite_hidden_cause(self):
        # The design means are known, so the test keeps its level on the
        # confounded graph where the regression test falls apart.
        cfg = dag1b_scenario()
        rejects = 0
        reps = 200
        for r in range(reps):
            ds = simulate(cfg, 500, seed=streams.substream(808, r).integers(2**31))
            rejects += gnull_score_test(ds, cfg.a_laws).reject
        assert 0.01 <= rejects / reps <= 0.10

    def test_level_when_early_treatment_follows_a_baseline_covariate(self):
        # In discrete-trial A0 depends on L0, so its design mean is a
        # per-subject value; a mean taken at L0 = 0 rejected the true null
        # in nearly every replicate.
        cfg = discrete_trial_scenario(a0_effect=0.0, a1_effect=0.0)
        reps = 200
        rejects = sum(
            gnull_score_test(simulate(cfg, 2000, seed=replicate_seed(717, r)), cfg.a_laws).reject
            for r in range(reps))
        assert 0.01 <= rejects / reps <= 0.10


class TestNaiveRegressionTest:
    def test_level_when_model_is_correct(self):
        # No hidden cause: the adjusted regression is correctly specified
        # and its Wald test has the nominal level.
        cfg = two_occasion_scenario(u_effect=0.0)
        rejects = 0
        reps = 300
        for r in range(reps):
            ds = simulate(cfg, 400, seed=streams.substream(909, r).integers(2**31))
            rejects += naive_test(ds).reject
        assert 0.02 <= rejects / reps <= 0.09

    def test_spurious_rejection_under_confounded_covariate(self):
        # Same null, but a hidden cause drives both the covariate and the
        # outcome; conditioning on the covariate manufactures an effect.
        cfg = dag1b_scenario()
        naive_rej, score_rej = 0, 0
        for r in range(20):
            ds = simulate(cfg, 2000, seed=streams.substream(515, r).integers(2**31))
            naive_rej += naive_test(ds).reject
            score_rej += gnull_score_test(ds, cfg.a_laws).reject
        assert naive_rej >= 10
        assert score_rej <= 4

    def test_requires_two_occasions(self):
        schema = Schema((constant(),), (binary(),))
        ds = Dataset(schema, np.zeros((4, 1)),
                     np.array([[0.0], [1.0], [0.0], [1.0]]),
                     np.array([0.0, 1.0, 2.0, 3.0]))
        with pytest.raises(ConfigError):
            naive_test(ds)


nonzero = st.one_of(st.floats(0.3, 2.0), st.floats(-2.0, -0.3))
maybe_zero = st.one_of(st.just(0.0), nonzero)


def parametric_null_check(theta, gamma, tol=1e-12):
    """When is the standardized mean constant under these two working models?

    ``theta`` = (intercept, a0, l, a1) coefficients of the linear outcome
    model; ``gamma`` = (intercept, a0) coefficients of the logistic covariate
    model.  The plug-in standardized mean

        I(a0, a1) = th0 + th1 a0 + th3 a1 + th2 expit(g0 + g1 a0)

    is constant in (a0, a1) exactly when branch "i" (th1 = th2 = th3 = 0)
    or branch "ii" (th1 = th3 = g1 = 0) holds: the natural parameterization
    can represent the null only on these branches.  Returns (holds, branch)
    with branch in {"i", "ii", "i+ii", "none"}.
    """
    th = np.asarray(theta, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if th.shape != (4,) or g.shape != (2,):
        raise ConfigError("theta must have 4 coefficients and gamma 2")
    held = (("i", max(abs(th[1]), abs(th[2]), abs(th[3])) <= tol),
            ("ii", max(abs(th[1]), abs(th[3]), abs(g[1])) <= tol))
    branch = "+".join(name for name, ok in held if ok)
    return bool(branch), branch or "none"


class TestParametricNullCheck:
    def test_branches(self):
        assert parametric_null_check((5.0, 0, 0, 0), (0.3, 0.7)) == (True, "i")
        assert parametric_null_check((5.0, 0, 2.0, 0), (0.3, 0.0)) == (True, "ii")
        assert parametric_null_check((5.0, 0, 0, 0), (0.3, 0.0)) == (True, "i+ii")
        assert parametric_null_check((5.0, 0.4, 0, 0), (0.3, 0.7)) == (False, "none")

    def test_shape_guard(self):
        with pytest.raises(ConfigError):
            parametric_null_check((1.0, 2.0), (0.0, 0.0))

    @settings(max_examples=80, deadline=None)
    @given(th1=maybe_zero, th2=maybe_zero, th3=maybe_zero, g1=maybe_zero)
    def test_agrees_with_plugin_surface(self, th1, th2, th3, g1):
        # The algebraic condition holds exactly when the plug-in mean is
        # flat over a treatment grid.  (g0 is kept away from 0, where a
        # symmetric cancellation can flatten a 3-point grid by accident.)
        theta, gamma = (0.7, th1, th2, th3), (0.4, g1)
        holds, _ = parametric_null_check(theta, gamma)
        vals = [float(g_mean_plugin(theta, gamma, a0, a1))
                for a0 in (-1.0, 0.0, 1.0) for a1 in (-1.0, 0.0, 1.0)]
        spread = max(vals) - min(vals)
        if holds:
            assert spread < 1e-12
        else:
            assert spread > 1e-4


class TestPooledGTest:
    # A custom added column is the engine's q* at psi = 0 of the
    # intercept-only blip, through g_test_at.
    @staticmethod
    def _custom_column(ds, terms, qstar):
        return g_test_at(ds, additive_blip("1"), 0.0, treatment_terms=terms, qstar=qstar)

    def test_zero_added_column_gives_zero_statistic(self):
        ds = simulate(binary_two_occasion_scenario(), 300, seed=5)
        rep = self._custom_column(ds, ("1", "lm", "a_prev"),
                                  lambda h, L, A, m: np.zeros_like(h))
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert not rep.reject

    def test_constant_added_column_rejected(self):
        ds = simulate(binary_two_occasion_scenario(), 300, seed=5)
        with pytest.raises(EstimationError, match="constant"):
            self._custom_column(ds, ("1", "lm", "a_prev"),
                                lambda h, L, A, m: np.ones_like(h))

    def test_q_row_count_enforced(self):
        ds = simulate(binary_two_occasion_scenario(), 300, seed=5)
        with pytest.raises(ConfigError, match="one row per subject"):
            self._custom_column(ds, ("1",), lambda h, L, A, m: h[:-1])

    def test_alpha_known_shape_checked(self):
        ds = simulate(binary_two_occasion_scenario(), 300, seed=5)
        spec = GTestSpec(("1", "lm"), alpha_known=(0.0, 0.8, 0.4))
        with pytest.raises(ConfigError, match="alpha_known"):
            pooled_g_test(ds, spec)

    def test_continuous_treatments_rejected(self):
        ds = simulate(two_occasion_scenario(), 100, seed=5)
        with pytest.raises(EstimationError, match="binary treatments; A0 is not 0/1"):
            pooled_g_test(ds, GTestSpec(("1",)))

    def test_level_with_known_design(self):
        # Occasion-1 rows only, true design coefficients supplied.
        cfg = binary_two_occasion_scenario()
        spec = GTestSpec(("1", "lm", "a_prev"), alpha_known=(-0.3, 0.8, 0.4),
                         occasions=(1,))
        rejects = 0
        reps = 200
        for r in range(reps):
            ds = simulate(cfg, 400, seed=streams.substream(321, r).integers(2**31))
            rejects += pooled_g_test(ds, spec).reject
        assert 0.01 <= rejects / reps <= 0.10

    def test_level_with_estimated_design(self):
        # Zero intercept makes the shared pooled model exactly right at
        # both occasions (the occasion-0 history columns are all zero).
        cfg = binary_two_occasion_scenario(a1_coefs=(0.0, 0.8, 0.4))
        spec = GTestSpec(("1", "lm", "a_prev"))
        rejects = 0
        reps = 200
        for r in range(reps):
            ds = simulate(cfg, 400, seed=streams.substream(322, r).integers(2**31))
            rep = pooled_g_test(ds, spec)
            assert rep.note == ESTIMATED_DESIGN_NOTE
            rejects += rep.reject
        assert 0.01 <= rejects / reps <= 0.10

    def test_power_against_late_effect(self):
        cfg = binary_two_occasion_scenario(a1_effect=1.5)
        spec = GTestSpec(("1", "lm", "a_prev"), alpha_known=(-0.3, 0.8, 0.4),
                         occasions=(1,))
        rejects = 0
        for r in range(60):
            ds = simulate(cfg, 400, seed=streams.substream(323, r).integers(2**31))
            rejects += pooled_g_test(ds, spec).reject
        assert rejects >= 45


class TestTablePredicates:
    def test_isolated_outcome_is_null(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = random_sequential_table(rng, y_parents=())
            flags = gnull_table_check(t)
            assert all(flags.values())

    def test_covariate_path_is_a_real_effect(self):
        # Y reacting to L1 alone is not a null: a0 moves the covariate,
        # and the covariate moves the outcome.
        rng = np.random.default_rng(7)
        t = random_sequential_table(rng, y_parents=("l1",))
        flags = gnull_table_check(t)
        assert flags["y_indep_a1_given_past"]
        assert not flags["standardized_free_of_a0"]

    def test_early_dependence_fails_marginal_but_not_conditional(self):
        rng = np.random.default_rng(11)
        t = random_sequential_table(rng, y_parents=("a0",))
        flags = gnull_table_check(t)
        assert flags["y_indep_a1_given_past"]
        assert not flags["y_indep_a0"]
        assert not flags["joint_with_standardized"]
        assert not flags["joint_with_marginal"]

    def test_late_dependence_fails_conditional_predicate(self):
        rng = np.random.default_rng(13)
        t = random_sequential_table(rng, y_parents=("a1",))
        assert not predicate_y_indep_a1_given_past(t)

    def test_standardized_law_sets_the_late_treatment(self):
        # Y reacting to A1 alone: with a1 set, the standardized law is
        # P(y | a1) at every a0, but P(y | a0) averages over A1's law, which
        # depends on a0.
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = random_sequential_table(rng, y_parents=("a1",))
            assert predicate_standardized_free_of_a0(t)
            assert not predicate_y_indep_a0(t)

    def test_standardized_law_needs_every_late_treatment(self):
        t = random_sequential_table(np.random.default_rng(19), y_parents=("a1",))
        # No subject with a0 = 0 takes a1 = 1.
        probs = np.where((t.cells[:, 1] == 0.0) & (t.cells[:, 3] == 1.0), 0.0, t.probs)
        thinned = JointTable(t.schema, t.cells, probs / probs.sum())
        with pytest.raises(PositivityError, match="a1"):
            predicate_standardized_free_of_a0(thinned)

    def test_standardized_law_is_the_g_formula_under_baseline_confounding(self):
        # The hidden cause moves L0, L0 moves A0, and neither treatment moves
        # Y: a g-null.  The g-formula weighs l0 by P(l0), so its law is free
        # of a0; weighing by P(l0 | a0) is not, and neither is Y's law given A0.
        t = enumerate_joint(discrete_trial_scenario(a0_effect=0.0, a1_effect=0.0))
        assert predicate_standardized_free_of_a0(t)
        assert not predicate_y_indep_a0(t)
        assert gnull_table_check(t)["joint_with_standardized"]
        assert not predicate_standardized_free_of_a0(
            enumerate_joint(discrete_trial_scenario(a0_effect=0.5, a1_effect=0.0)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6),
           parents=st.sampled_from([
               ("a0", "l1", "a1"), ("l1", "a1"), ("a0", "l1"),
               ("l1",), ("a1",), ("a0",),
           ]))
    def test_two_statements_of_the_null_agree(self, seed, parents):
        # "Y indep A1 given past AND standardized law free of a0" and
        # "Y indep A1 given past AND Y indep A0" are two writings of the
        # same hypothesis; they must agree on every sequential table.
        rng = np.random.default_rng(seed)
        t = random_sequential_table(rng, y_parents=parents)
        flags = gnull_table_check(t)
        assert flags["joint_with_standardized"] == flags["joint_with_marginal"]

    def test_table_generator_rejects_unknown_parent(self):
        with pytest.raises(ConfigError, match="y_parents"):
            random_sequential_table(np.random.default_rng(0), y_parents=("u",))

    def test_predicates_need_two_occasions(self):
        schema = Schema((constant(),), (binary(),))
        cells = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        t = JointTable(schema, cells, np.array([0.5, 0.5]))
        with pytest.raises(ConfigError):
            predicate_y_indep_a0(t)
