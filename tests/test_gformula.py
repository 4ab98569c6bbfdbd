"""Standardization machinery: exact tables, regime laws, MC rollout."""

import numpy as np
import pytest

from gmethods.data import History, Regime, Schema, discrete
from gmethods.errors import ConfigError, PositivityError, ValidationError
from gmethods.laws import BernoulliLogit, NormalLinear
from gmethods.gformula import (
    ConditionalLaws,
    JointTable,
    RegimeDistribution,
    g_formula_conditional,
    g_formula_exact,
    g_formula_mc,
    g_mean_plugin,
)
from gmethods.scenarios import (
    counterfactual_draws,
    discrete_trial_scenario,
    enumerate_joint,
    make_scenario,
    mc_regime_draws,
    sequential_trial_scenario,
)
from gmethods.sndm import additive_blip


def binary_schema(K):
    kind = discrete(0.0, 1.0)
    return Schema((kind,) * (K + 1), (kind,) * (K + 1))


def one_occasion_table():
    """K=0 table with pr(l), pr(a|l), pr(y|l,a) all written out by hand."""
    # pr(L0=1) = 0.4; pr(A0=1|l) = 0.5; Y in {0,1} with
    # pr(Y=1|l,a) = 0.1 + 0.3 l + 0.2 a  (so do(a) mean = 0.22 + 0.2 a).
    rows, probs = [], []
    for l in (0.0, 1.0):
        pl = 0.4 if l == 1.0 else 0.6
        for a in (0.0, 1.0):
            py1 = 0.1 + 0.3 * l + 0.2 * a
            rows.append([l, a, 1.0])
            probs.append(pl * 0.5 * py1)
            rows.append([l, a, 0.0])
            probs.append(pl * 0.5 * (1.0 - py1))
    return JointTable(binary_schema(0), np.array(rows), np.array(probs))


def roundoff_negative_tables():
    """A K=1 table with one treated cell at 0, its mass moved to the next
    treated cell, and the same table with that cell at -1e-16."""
    t = enumerate_joint(sequential_trial_scenario(K=1), y_bins=np.linspace(-2, 6, 6))
    treated = np.flatnonzero((t.cells[:, t.a_col(0)] == 1.0)
                             & (t.cells[:, t.a_col(1)] == 1.0) & (t.probs > 0.0))
    i, k = treated[:2]
    zero = t.probs.copy()
    zero[k] += zero[i]
    zero[i] = 0.0
    tiny = zero.copy()
    tiny[i] = -1e-16
    return JointTable(t.schema, t.cells, zero), JointTable(t.schema, t.cells, tiny)


class TestJointTable:
    def test_rejects_unnormalized_probabilities(self):
        schema = binary_schema(0)
        cells = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ConfigError, match="sum to"):
            JointTable(schema, cells, np.array([0.5, 0.6]))

    def test_rejects_wrong_cell_width(self):
        with pytest.raises(ConfigError, match="cell width"):
            JointTable(binary_schema(1), np.zeros((2, 3)), np.full(2, 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_cells_and_probabilities(self, bad):
        schema = binary_schema(0)
        cells = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ConfigError, match="non-finite"):
            JointTable(schema, np.where(cells == 1.0, bad, cells), np.full(2, 0.5))
        with pytest.raises(ConfigError, match="non-finite"):
            JointTable(schema, cells, np.array([0.5, bad]))

    def test_roundoff_negative_cells_are_stored_as_zero(self):
        zero, tiny = roundoff_negative_tables()
        np.testing.assert_array_equal(tiny.probs, zero.probs)

    def test_match_and_prob_arithmetic(self):
        t = one_occasion_table()
        # pr(L0=1) by construction
        assert abs(t.prob({t.l_col(0): 1.0}) - 0.4) < 1e-15
        # pr(Y=1, A0=1 | L0=0) * pr(L0=0) = 0.6 * 0.5 * 0.3
        got = t.prob({t.l_col(0): 0.0, t.a_col(0): 1.0, 2: 1.0})
        assert abs(got - 0.6 * 0.5 * 0.3) < 1e-15

    def test_supports(self):
        t = one_occasion_table()
        np.testing.assert_array_equal(t.covariate_support(0), [0.0, 1.0])
        np.testing.assert_array_equal(np.unique(t.cells[:, t.a_col(0)]), [0.0, 1.0])
        np.testing.assert_array_equal(np.unique(t.cells[:, -1]), [0.0, 1.0])

    def test_csv_round_trip(self, tmp_path):
        t = enumerate_joint(discrete_trial_scenario())
        path = str(tmp_path / "table.csv")
        t.to_csv(path)
        back = JointTable.from_csv(path, t.schema)
        np.testing.assert_array_equal(back.cells, t.cells)
        np.testing.assert_array_equal(back.probs, t.probs)

    def test_csv_header_checked(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("L0,A0,prob\n0.0,0.0,1.0\n")
        with pytest.raises(ValidationError, match="header"):
            JointTable.from_csv(path, binary_schema(0))


class TestRegimeDistribution:
    def test_exact_survivor_cdf_mean(self):
        d = RegimeDistribution.exact(np.array([0.0, 1.0, 3.0]),
                                     np.array([0.2, 0.5, 0.3]))
        assert abs(d.mean() - (0.5 + 0.9)) < 1e-15
        # survivor is strictly-greater
        assert abs(d.survivor(0.5) - 0.8) < 1e-15
        assert abs(d.survivor(1.0) - 0.3) < 1e-15
        assert abs(d.cdf(1.0) - 0.7) < 1e-15
        got = d.survivor(np.array([-1.0, 5.0]))
        np.testing.assert_allclose(got, [1.0, 0.0])

    def test_exact_sorts_atoms(self):
        d = RegimeDistribution.exact(np.array([2.0, 0.0]), np.array([0.7, 0.3]))
        np.testing.assert_array_equal(d.atoms, [0.0, 2.0])
        np.testing.assert_array_equal(d.atom_probs, [0.3, 0.7])

    def test_sample_law(self):
        samples = np.array([1.0, 1.0, 2.0, 4.0])
        d = RegimeDistribution.from_samples(samples, "demo")
        assert d.n_samples == 4
        assert abs(d.mean() - 2.0) < 1e-15
        assert abs(d.survivor(1.0) - 0.5) < 1e-15
        assert d.regime_name == "demo"

    def test_exact_csv_is_a_cdf_grid(self, tmp_path):
        d = RegimeDistribution.exact(np.array([0.0, 2.0]), np.array([0.25, 0.75]))
        path = str(tmp_path / "law.csv")
        d.to_csv(path)
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "y,F"
        ys = [float(ln.split(",")[0]) for ln in lines[1:]]
        Fs = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert ys == [0.0, 2.0]
        assert Fs == [0.25, 1.0]


class TestExactStandardization:
    def test_one_occasion_collapse(self):
        # With a single occasion the standardized mean is the plain
        # adjusted mean sum_l f(l) E[Y | l, a].
        t = one_occasion_table()
        for a in (0.0, 1.0):
            d = g_formula_exact(t, Regime.static((a,)))
            want = 0.6 * (0.1 + 0.2 * a) + 0.4 * (0.4 + 0.2 * a)
            assert abs(d.mean() - want) < 1e-12
            assert abs(d.survivor(0.5) - want) < 1e-12  # binary outcome

    def test_two_occasion_double_sum_oracle(self):
        # Independent computation of the standardized mean on the trial
        # table: explicit double sum over (l0, l1) with conditional factors
        # taken straight from cell masses.
        t = enumerate_joint(discrete_trial_scenario())
        a0, a1 = 1.0, 0.0
        want = 0.0
        for l0 in t.covariate_support(0):
            pl0 = t.prob({t.l_col(0): l0})
            for l1 in t.covariate_support(1):
                joint = {t.l_col(0): l0, t.a_col(0): a0, t.l_col(1): l1}
                pl1 = t.prob(joint) / t.prob({t.l_col(0): l0, t.a_col(0): a0})
                full = {**joint, t.a_col(1): a1}
                denom = t.prob(full)
                mask = t.match(full)
                ey = float((t.cells[mask, -1] * t.probs[mask]).sum()) / denom
                want += pl0 * pl1 * ey
        d = g_formula_exact(t, Regime.static((a0, a1)))
        assert abs(d.mean() - want) < 1e-12

    def test_treatment_free_table_ignores_regime(self):
        # Neither the covariate transitions nor the outcome react to
        # treatment, so every regime standardizes to the same law.
        rows, probs = [], []
        for l0 in (0.0, 1.0):
            for a0 in (0.0, 1.0):
                for l1 in (0.0, 1.0):
                    pl1 = 0.3 + 0.4 * l0
                    pl1 = pl1 if l1 == 1.0 else 1.0 - pl1
                    for a1 in (0.0, 1.0):
                        for y, py in ((l0 + l1, 0.8), (5.0, 0.2)):
                            rows.append([l0, a0, l1, a1, y])
                            probs.append(0.5 * 0.5 * pl1 * 0.5 * py)
        t = JointTable(binary_schema(1), np.array(rows), np.array(probs))
        regimes = [Regime.static((0.0, 0.0)), Regime.static((1.0, 1.0)),
                   Regime.dynamic(lambda m, lbar: lbar[-1])]
        laws = [g_formula_exact(t, r) for r in regimes]
        for d in laws[1:]:
            np.testing.assert_allclose(d.atoms, laws[0].atoms, atol=1e-12)
            np.testing.assert_allclose(d.atom_probs, laws[0].atom_probs,
                                       atol=1e-12)

    def test_dynamic_regime_matching_a_static_plan(self):
        t = enumerate_joint(discrete_trial_scenario())
        stat = g_formula_exact(t, Regime.static((1.0, 1.0)))
        dyn = g_formula_exact(t, Regime.dynamic(lambda m, lbar: 1.0))
        np.testing.assert_allclose(dyn.atoms, stat.atoms, atol=1e-12)
        np.testing.assert_allclose(dyn.atom_probs, stat.atom_probs, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        t = enumerate_joint(discrete_trial_scenario())
        d = g_formula_exact(t, Regime.static((0.0, 1.0)))
        assert abs(float(d.atom_probs.sum()) - 1.0) < 1e-12

    def test_roundoff_negative_cell_weighs_as_zero(self):
        zero, tiny = roundoff_negative_tables()
        got, want = (g_formula_exact(t, Regime.static((1.0, 1.0))) for t in (tiny, zero))
        np.testing.assert_array_equal(got.atom_probs, want.atom_probs)
        assert got.mean() == want.mean()

    def test_missing_history_raises_positivity(self):
        # The (L0=1, A0=1) row is absent, so do(A0=1) needs an outcome law
        # that the table cannot provide.
        schema = binary_schema(0)
        cells = np.array([
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 0.0],
        ])
        t = JointTable(schema, cells, np.array([0.3, 0.3, 0.4]))
        with pytest.raises(PositivityError):
            g_formula_exact(t, Regime.static((1.0,)))
        with pytest.raises(PositivityError, match="law of Y"):
            g_formula_mc(t.laws, Regime.static((1.0,)), 100, seed=0)


class TestTableLawsCache:
    def test_exact_and_conditional_calls_build_the_laws_once(self, monkeypatch):
        built = []
        build = ConditionalLaws._build

        def spy(table):
            built.append(table)
            return build(table)

        monkeypatch.setattr(ConditionalLaws, "_build", staticmethod(spy))
        t = enumerate_joint(discrete_trial_scenario())
        reg = Regime.dynamic(lambda m, l_bar: l_bar[-1], "follow-l")
        g_formula_exact(t, reg)
        for l0 in (0.0, 1.0):
            g_formula_conditional(t, reg, History(0, (l0,), ()))
            for l1 in (0.0, 1.0):
                g_formula_conditional(t, reg, History(1, (l0, l1), (l0,)))
        assert ConditionalLaws.from_table(t) is t.laws
        assert len(built) == 1 and built[0] is t
        assert t.laws is t.laws


class TestConditionalStandardization:
    def test_full_history_reduces_to_outcome_law(self):
        # Conditioning on the complete covariate history leaves only the
        # terminal outcome draw; compare against direct cell masses.
        t = enumerate_joint(discrete_trial_scenario())
        reg = Regime.static((1.0, 0.0))
        hist = History(1, (1.0, 0.0), (1.0,))
        d = g_formula_conditional(t, reg, hist)
        full = {t.l_col(0): 1.0, t.a_col(0): 1.0,
                t.l_col(1): 0.0, t.a_col(1): 0.0}
        mask = t.match(full)
        denom = t.prob(full)
        for atom, p in zip(d.atoms, d.atom_probs):
            cell = mask & (np.abs(t.cells[:, -1] - atom) < 1e-9)
            assert abs(p - float(t.probs[cell].sum()) / denom) < 1e-12

    def test_baseline_average_recovers_marginal(self):
        # Averaging the occasion-0 conditional law over f(l0) gives back
        # the unconditional standardized mean.
        t = enumerate_joint(discrete_trial_scenario())
        reg = Regime.static((0.0, 1.0))
        total = 0.0
        for l0 in t.covariate_support(0):
            cond = g_formula_conditional(t, reg, History(0, (float(l0),), ()))
            total += t.prob({t.l_col(0): float(l0)}) * cond.mean()
        marginal = g_formula_exact(t, reg)
        assert abs(total - marginal.mean()) < 1e-12

    def test_history_treatments_must_follow_the_regime(self):
        # The regime sets a0 = 1 along any covariate history, so a history
        # that records a0 = 0 contradicts it instead of being ignored.
        t = enumerate_joint(discrete_trial_scenario())
        reg = Regime.static((1.0, 0.0))
        g_formula_conditional(t, reg, History(1, (1.0, 0.0), (1.0,)))
        with pytest.raises(ConfigError, match="differ"):
            g_formula_conditional(t, reg, History(1, (1.0, 0.0), (0.0,)))
        dyn = Regime.dynamic(lambda m, lbar: lbar[-1])
        g_formula_conditional(t, dyn, History(1, (0.0, 1.0), (0.0,)))
        with pytest.raises(ConfigError, match="differ"):
            g_formula_conditional(t, dyn, History(1, (1.0, 1.0), (0.0,)))

    def test_history_past_the_last_occasion_is_rejected(self):
        t = enumerate_joint(discrete_trial_scenario())
        with pytest.raises(ConfigError, match="past the table's last occasion"):
            g_formula_conditional(t, Regime.dynamic(lambda m, lbar: 1.0),
                                  History(2, (1.0, 0.0, 1.0), (1.0, 1.0)))

    def test_zero_probability_history_raises(self):
        schema = binary_schema(0)
        cells = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        t = JointTable(schema, cells, np.array([0.5, 0.5]))
        with pytest.raises(PositivityError):
            g_formula_conditional(t, Regime.static((0.0,)),
                                  History(0, (1.0,), ()))


class TestMonteCarloStandardization:
    def test_matches_exact_table_law(self):
        t = enumerate_joint(discrete_trial_scenario())
        reg = Regime.static((1.0, 0.0))
        exact = g_formula_exact(t, reg)
        mc = g_formula_mc(ConditionalLaws.from_table(t), reg,
                          60_000, seed=909)
        # Dvoretzky-Kiefer-Wolfowitz at alpha=1e-3
        band = np.sqrt(np.log(2.0 / 1e-3) / (2.0 * 60_000))
        grid = np.concatenate([exact.atoms, exact.atoms - 0.5])
        gap = np.max(np.abs(np.asarray(mc.cdf(grid)) - np.asarray(exact.cdf(grid))))
        assert gap < band

    def test_same_seed_same_samples(self):
        t = enumerate_joint(discrete_trial_scenario())
        laws = ConditionalLaws.from_table(t)
        reg = Regime.static((0.0, 0.0))
        a = g_formula_mc(laws, reg, 5_000, seed=4)
        b = g_formula_mc(laws, reg, 5_000, seed=4)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_draw_count_prefix_invariance(self):
        t = enumerate_joint(discrete_trial_scenario())
        laws = ConditionalLaws.from_table(t)
        reg = Regime.static((1.0, 1.0))
        small = g_formula_mc(laws, reg, 1_000, seed=21)
        large = g_formula_mc(laws, reg, 9_000, seed=21)
        np.testing.assert_array_equal(large.samples[:1_000], small.samples)

    def test_roundoff_negative_cell_draws_as_zero(self):
        # A cell admitted at -1e-16 once reached rng.choice as a negative
        # probability and raised numpy's ValueError.
        zero, tiny = roundoff_negative_tables()
        plan = Regime.static((1.0, 1.0))
        np.testing.assert_array_equal(g_formula_mc(tiny.laws, plan, 20_000, 5).samples,
                                      g_formula_mc(zero.laws, plan, 20_000, 5).samples)

    def test_rejects_nonpositive_draws(self):
        t = enumerate_joint(discrete_trial_scenario())
        laws = ConditionalLaws.from_table(t)
        with pytest.raises(ConfigError):
            g_formula_mc(laws, Regime.static((0.0, 0.0)), 0, seed=1)

    @pytest.mark.parametrize("draws", [2.5, True, "many"])
    def test_draws_must_be_a_positive_integer(self, draws):
        # 2.5 once died in a slice with TypeError, and True ran one draw.
        laws = enumerate_joint(discrete_trial_scenario()).laws
        with pytest.raises(ConfigError, match="draws must be a positive integer"):
            g_formula_mc(laws, Regime.static((0.0, 0.0)), draws, seed=1)

    def test_numpy_integer_draws_are_accepted(self):
        laws = enumerate_joint(discrete_trial_scenario()).laws
        plan = Regime.static((1.0, 1.0))
        np.testing.assert_array_equal(g_formula_mc(laws, plan, np.int64(300), 2).samples,
                                      g_formula_mc(laws, plan, 300, 2).samples)


class TestStaticPlanLength:
    """Every standardization entry point refuses a static plan without one
    entry per occasion; a longer plan was once cut short without a word."""

    ENTRY_POINTS = {
        "exact": lambda table, cfg, plan: g_formula_exact(table, plan),
        "conditional": lambda table, cfg, plan: g_formula_conditional(
            table, plan, History(0, (0.0,), ())),
        "mc": lambda table, cfg, plan: g_formula_mc(
            ConditionalLaws.from_table(table), plan, 100, 1),
        "counterfactual": lambda table, cfg, plan: counterfactual_draws(cfg, plan, 100, 1),
        "mc-regime": lambda table, cfg, plan: mc_regime_draws(
            additive_blip("1", psi=(0.5,)), plan, h_law=NormalLinear(("1",), (0.0,)),
            covariate_models=(BernoulliLogit(("1", "u"), (0.0, 0.5)),) * 2, draws=100),
    }

    @staticmethod
    def refused(entry, regime, message):
        cfg = make_scenario("discrete-trial")
        table = enumerate_joint(cfg)
        with pytest.raises(ConfigError, match=message):
            TestStaticPlanLength.ENTRY_POINTS[entry](table, cfg, regime)
        TestStaticPlanLength.ENTRY_POINTS[entry](table, cfg, Regime.static((1.0, 0.0)))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("plan", [(1.0,), (1.0, 1.0, 0.0, 5.0)], ids=["short", "long"])
    def test_refused(self, entry, plan):
        self.refused(entry, Regime.static(plan),
                     rf"static plan must hold one entry per occasion \(2\), not {len(plan)}")


class TestNonFiniteTreatment:
    """A static plan's NaN or inf entry, or a dynamic rule's NaN value, is a
    ConfigError at every entry point: it once gave NaN or inf outcomes from
    ``counterfactual_draws`` and a PositivityError from ``g_formula_exact``."""

    REGIMES = {
        "nan": (Regime.static((1.0, float("nan"))),
                r"static plan entries must be finite, not \(1.0, nan\)"),
        "inf": (Regime.static((float("inf"), 0.0)),
                r"static plan entries must be finite, not \(inf, 0.0\)"),
        "nan-rule": (Regime.dynamic(lambda m, l_bar: float("nan") if m else 1.0, "odd"),
                     r"odd assigns nan at occasion 1 to covariate prefix \(0.0, [01].0\)"),
    }

    @pytest.mark.parametrize("entry", TestStaticPlanLength.ENTRY_POINTS)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_refused(self, entry, regime):
        TestStaticPlanLength.refused(entry, *self.REGIMES[regime])


class TestPluginMean:
    def test_hand_arithmetic(self):
        # theta: intercept 1, early 2, covariate 3, late 4; flat covariate
        # model puts pr = 1/2 regardless of a0.
        got = g_mean_plugin((1.0, 2.0, 3.0, 4.0), (0.0, 0.0), 1.0, -1.0)
        assert abs(float(got) - (1.0 + 2.0 - 4.0 + 1.5)) < 1e-15

    def test_vectorized_over_grid(self):
        a0 = np.array([0.0, 1.0])
        got = g_mean_plugin((0.0, 1.0, 0.0, 0.0), (5.0, 0.0), a0, 0.0)
        np.testing.assert_allclose(got, a0)

    def test_shape_checks(self):
        with pytest.raises(ConfigError):
            g_mean_plugin((1.0, 2.0), (0.0, 0.0), 0.0, 0.0)
