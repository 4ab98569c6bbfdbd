"""Shift-family outcome models: transforms, g-estimation, likelihood fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gmethods.data import Dataset, Regime, Schema, binary, discrete
from gmethods.errors import ConfigError, ConvergenceError, EstimationError, SeparationError
from gmethods.features import eval_terms, history_cols
from gmethods.glm import fit_logistic
from gmethods.laws import BernoulliLogit, NormalLinear
from gmethods.scenarios import (
    BlipOutcome,
    mc_regime_draws,
    simulate,
    sndm_scenario,
    two_occasion_scenario,
)
from gmethods.sndm import (
    BlipSpec,
    _residual_outcome,
    additive_blip,
    blip_down,
    blip_down_arrays,
    blip_up,
    cofactor_matrix,
    empirical_static_survivor,
    g_estimate,
    g_test_at,
    multiplicative_blip,
    shift_basis,
    sndm_lr_test,
    sndm_mle,
)


def random_arrays(seed, n=40, K=2, positive_y=False, psi_scale=0.3):
    rng = np.random.default_rng(seed)
    L = rng.integers(0, 2, size=(n, K + 1)).astype(float)
    A = rng.integers(0, 2, size=(n, K + 1)).astype(float)
    Y = np.exp(rng.normal(0, 0.5, n)) if positive_y else rng.normal(0, 1, n)
    psi = rng.uniform(-psi_scale, psi_scale, 3)
    return L, A, Y, psi


class TestBlipSpec:
    def test_family_checked(self):
        with pytest.raises(ConfigError, match="family"):
            BlipSpec("logistic", ("1",))

    def test_needs_cofactors(self):
        with pytest.raises(ConfigError, match="cofactor"):
            BlipSpec("additive", ())

    def test_psi_length_must_match(self):
        with pytest.raises(ConfigError, match=r"one finite number per blip component \(2\)"):
            additive_blip("1", "lm", psi=(1.0,))

    @pytest.mark.parametrize("psi", [float("nan"), float("inf"), -float("inf")])
    def test_psi_must_be_finite(self, psi):
        with pytest.raises(ConfigError, match=r"one finite number per blip component \(2\)"):
            additive_blip("1", "lm", psi=(1.0, psi))

    def test_future_references_forbidden(self):
        with pytest.raises(ConfigError, match="history before"):
            additive_blip("u")
        with pytest.raises(ConfigError, match="history before"):
            multiplicative_blip("1", "h*lm")

    def test_require_psi(self):
        with pytest.raises(ConfigError, match="psi"):
            additive_blip("1").require_psi()
        np.testing.assert_array_equal(
            additive_blip("1").with_psi(2.0).require_psi(), [2.0])

    def test_shape_properties(self):
        spec = additive_blip("1", "lm", "a_prev")
        assert spec.dim == 3
        assert spec.uses_covariates
        assert not additive_blip("1", "a_prev").uses_covariates


class TestScalarBlip:
    # One-row histories: the H-recursion's column m is the occasion-m blip of
    # the outcome, and blip_up inverts the whole recursion.
    def test_additive_hand_value(self):
        # shift at occasion 1 = a1 * (psi0 + psi1 * l1) = 2 * (2 + 3*2) = 16;
        # at occasion 0 = a0 * (2 + 3*0.5) = 3.5.
        spec = additive_blip("1", "lm", psi=(2.0, 3.0))
        L, A = np.array([[0.5, 2.0]]), np.array([[1.0, 2.0]])
        res = blip_down_arrays(spec, L, A, np.array([1.0]))
        assert abs(res.h_per_occasion[0, 1] - 17.0) < 1e-12
        assert abs(res.h[0] - 20.5) < 1e-12
        assert abs(blip_up(spec, res.h, L, A)[0] - 1.0) < 1e-12

    def test_multiplicative_hand_value(self):
        spec = multiplicative_blip("1", psi=(0.5,))
        L, A = np.array([[0.0]]), np.array([[1.0]])
        res = blip_down_arrays(spec, L, A, np.array([2.0]))
        assert abs(res.h[0] - 2.0 * math.exp(0.5)) < 1e-12
        h = np.array([2.0 * math.exp(0.5)])
        assert abs(blip_up(spec, h, L, A)[0] - 2.0) < 1e-12

    def test_zero_treatment_is_identity(self):
        spec = additive_blip("1", "lm", psi=(2.0, 3.0))
        L, A = np.array([[0.5, 2.0]]), np.array([[1.0, 0.0]])
        res = blip_down_arrays(spec, L, A, np.array([1.25]))
        assert res.h_per_occasion[0, 1] == 1.25


class TestHRecursion:
    def test_two_occasion_ladder(self):
        # psi = 1, unit cofactor: H1 = 7 + 2 = 9, H0 = 9 + 2 = 11.
        spec = additive_blip("1", psi=(1.0,))
        L = np.zeros((1, 2))
        A = np.array([[2.0, 2.0]])
        res = blip_down_arrays(spec, L, A, np.array([7.0]))
        np.testing.assert_allclose(res.h_per_occasion, [[11.0, 9.0]])
        assert res.h[0] == 11.0
        np.testing.assert_array_equal(res.jacobian, [1.0])

    def test_zero_psi_is_identity(self):
        L, A, Y, _ = random_arrays(3)
        spec = additive_blip("1", "lm", "a_prev", psi=(0.0, 0.0, 0.0))
        res = blip_down_arrays(spec, L, A, Y)
        np.testing.assert_array_equal(res.h, Y)
        for m in range(L.shape[1]):
            np.testing.assert_array_equal(res.h_per_occasion[:, m], Y)

    def test_multiplicative_jacobian_is_exp_total_shift(self):
        L, A, Y, psi = random_arrays(9, positive_y=True)
        spec = multiplicative_blip("1", "lm", "a_prev", psi=psi)
        res = blip_down_arrays(spec, L, A, Y)
        total = shift_basis(spec, L, A) @ np.asarray(psi)
        np.testing.assert_allclose(res.jacobian, np.exp(total), rtol=1e-12)

    def test_per_occasion_columns_follow_the_recursion(self):
        L, A, Y, psi = random_arrays(11)
        spec = additive_blip("1", "lm", "a_prev", psi=psi)
        res = blip_down_arrays(spec, L, A, Y)
        h = Y.copy()
        for m in (2, 1, 0):
            s = A[:, m] * (cofactor_matrix(spec, L, A, m) @ np.asarray(psi))
            h = h + s
            np.testing.assert_allclose(res.h_per_occasion[:, m], h, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_additive_round_trip(self, seed):
        L, A, Y, psi = random_arrays(seed)
        spec = additive_blip("1", "lm", "a_prev", psi=psi)
        back = blip_up(spec, blip_down_arrays(spec, L, A, Y).h, L, A)
        np.testing.assert_allclose(back, Y, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_multiplicative_round_trip(self, seed):
        L, A, Y, psi = random_arrays(seed, positive_y=True)
        spec = multiplicative_blip("1", "lm", "a_prev", psi=psi)
        back = blip_up(spec, blip_down_arrays(spec, L, A, Y).h, L, A)
        np.testing.assert_allclose(back, Y, rtol=1e-10)

    @pytest.mark.parametrize("family", ["additive", "multiplicative"])
    def test_blip_up_row_does_not_depend_on_the_batch(self, family):
        # A row restored alone equals its row in a 512-row call, bit for
        # bit, directly and through the scenario outcome law's atoms.
        rng = np.random.default_rng(5)
        n, K = 512, 2
        L = rng.normal(size=(n, K + 1))
        A = rng.integers(0, 2, size=(n, K + 1)).astype(float)
        h = np.exp(rng.normal(size=n))
        spec = BlipSpec(family, ("1", "lm"), psi=tuple(rng.uniform(-1.0, 1.0, 2)))
        batch = blip_up(spec, h, L, A)
        alone = np.concatenate([blip_up(spec, h[i:i + 1], L[i:i + 1], A[i:i + 1])
                                for i in range(n)])
        np.testing.assert_array_equal(alone, batch)

        law = BlipOutcome(spec)

        def cols(rows):
            out = {f"l{j}": L[rows, j] for j in range(K + 1)}
            out.update({f"a{j}": A[rows, j] for j in range(K + 1)})
            out["u"] = h[rows]
            return out

        atoms = law.atoms(cols(slice(None)))[0][:, 0]
        alone = np.array([law.atoms(cols(slice(i, i + 1)))[0][0, 0] for i in range(n)])
        np.testing.assert_array_equal(alone, atoms)
        np.testing.assert_array_equal(atoms, batch)

    def test_dataset_wrapper_matches_arrays(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 300, seed=6)
        spec = additive_blip("1", psi=(1.0,))
        a = blip_down(spec, ds)
        b = blip_down_arrays(spec, ds.L, ds.A, ds.Y)
        np.testing.assert_array_equal(a.h, b.h)

    def test_multiplicative_requires_positive_outcomes(self):
        spec = multiplicative_blip("1", psi=(0.5,))
        L = np.zeros((2, 1))
        A = np.ones((2, 1))
        with pytest.raises(EstimationError, match="positive"):
            blip_down_arrays(spec, L, A, np.array([1.0, -1.0]))

    def test_occasion_restriction_in_shift_basis(self):
        L, A, _, _ = random_arrays(21, K=1)
        spec = additive_blip("1", "lm")
        S = shift_basis(spec, L, A, occasions=(1,))
        want = A[:, 1][:, None] * cofactor_matrix(spec, L, A, 1)
        np.testing.assert_array_equal(S, want)


SNDM_TERMS = ("1", "lm", "a_prev")
SNDM_ALPHA = (-0.1, 0.7, -0.3)


class TestGEstimation:
    def test_recovers_scalar_psi(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 4000, seed=73)
        est = g_estimate(ds, additive_blip("1"), treatment_terms=SNDM_TERMS,
                         alpha_known=SNDM_ALPHA, psi_box=((0.0, 2.0),),
                         grid_points=41)
        assert abs(est.psi_hat[0] - 1.0) < 0.15
        # the refined root drives the score statistic to zero
        assert est.statistic_at_hat < 1e-8
        assert est.p_at_hat > 0.999
        assert not est.boundary

    def test_confidence_set_is_test_inversion(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 2000, seed=74)
        est = g_estimate(ds, additive_blip("1"), treatment_terms=SNDM_TERMS,
                         alpha_known=SNDM_ALPHA, psi_box=((0.0, 2.0),),
                         grid_points=41)
        np.testing.assert_array_equal(est.confidence_set,
                                      est.grid[est.accepted])
        assert np.all(est.grid_pvals[est.accepted] >= est.level)
        # true value within one grid step of an accepted point
        step = 2.0 / 40
        assert np.min(np.abs(est.confidence_set[:, 0] - 1.0)) <= step

    def test_point_test_agrees_with_search(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 2000, seed=74)
        est = g_estimate(ds, additive_blip("1"), treatment_terms=SNDM_TERMS,
                         alpha_known=SNDM_ALPHA, psi_box=((0.0, 2.0),),
                         grid_points=21)
        rep = g_test_at(ds, additive_blip("1"), est.psi_hat,
                        treatment_terms=SNDM_TERMS, alpha_known=SNDM_ALPHA)
        assert abs(rep.statistic - est.statistic_at_hat) < 1e-12
        far = g_test_at(ds, additive_blip("1"), (3.5,),
                        treatment_terms=SNDM_TERMS, alpha_known=SNDM_ALPHA)
        assert far.reject

    def test_estimated_treatment_model_also_works(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 4000, seed=75)
        est = g_estimate(ds, additive_blip("1"), treatment_terms=SNDM_TERMS,
                         psi_box=((0.0, 2.0),), grid_points=21)
        assert abs(est.psi_hat[0] - 1.0) < 0.2
        assert "estimated" in est.note

    def test_recovers_two_component_psi(self):
        cfg = sndm_scenario(cofactors=("1", "a_prev"), psi=(1.0, 0.5))
        ds = simulate(cfg, 3000, seed=76)
        est = g_estimate(ds, additive_blip("1", "a_prev"),
                         treatment_terms=SNDM_TERMS, alpha_known=SNDM_ALPHA,
                         psi_box=((0.0, 2.0), (-0.5, 1.5)),
                         grid_points=(13, 13))
        np.testing.assert_allclose(est.psi_hat, [1.0, 0.5], atol=0.3)
        assert est.p_at_hat > 0.5

    @pytest.mark.parametrize("shift, flagged", [(0.02, False), (0.1, True)])
    def test_clipped_minimum_is_flagged_by_its_statistic(self, shift, flagged):
        # The box starts just beyond the root's first component, so
        # the zoom ends on that edge.  The flag is raised only when the
        # edge statistic exceeds the chi-square(2) median, 2 log 2.
        cfg = sndm_scenario(cofactors=("1", "a_prev"), psi=(1.0, 0.5))
        ds = simulate(cfg, 3000, seed=76)
        kw = dict(treatment_terms=SNDM_TERMS, alpha_known=SNDM_ALPHA,
                  grid_points=(13, 13))
        root = g_estimate(ds, additive_blip("1", "a_prev"),
                          psi_box=((0.0, 2.0), (-0.5, 1.5)), **kw).psi_hat
        edge = root[0] + shift
        est = g_estimate(ds, additive_blip("1", "a_prev"),
                         psi_box=((edge, edge + 2.0), (-0.5, 1.5)), **kw)
        assert est.method == "zoom"
        assert est.psi_hat[0] == pytest.approx(edge, abs=1e-9)
        assert (est.statistic_at_hat > 2.0 * math.log(2.0)) is flagged
        assert est.boundary is flagged

    def test_box_shape_checked(self):
        ds = simulate(sndm_scenario(), 200, seed=1)
        with pytest.raises(ConfigError, match="psi_box"):
            g_estimate(ds, additive_blip("1"), treatment_terms=SNDM_TERMS,
                       psi_box=((0.0, 2.0), (0.0, 1.0)))

    @pytest.mark.parametrize("box, points, match", [
        ([(2.0, 0.0), (-0.5, 1.5)], 7, "lo < hi"),
        ([(0.0, 2.0), (-0.5, np.inf)], 7, "finite"),
        ([(-np.inf, 2.0)], 7, "finite"),
        ([(0.0, 2.0)], 1, "at least 2"),
        ([(0.0, 2.0)], 0, "at least 2"),
        ([(0.0, 2.0), (-0.5, 1.5)], (7, 1), "at least 2"),
        ([(0.0, 2.0), (-0.5, 1.5)], (7, 7, 7), "one count per"),
        ([(0.0, 2.0), (-0.5, 1.5)], (7,), "one count per"),
        ([(0.0, 2.0)], 7.5, "whole numbers"),
    ], ids=["reversed", "inf-hi", "inf-lo", "one-point", "no-points", "one-point-axis",
            "too-many-counts", "too-few-counts", "fractional-count"])
    def test_malformed_box_or_grid_is_a_config_error(self, box, points, match):
        ds = simulate(sndm_scenario(), 200, seed=3)
        spec = additive_blip(*("1", "a_prev")[:len(box)])
        with pytest.raises(ConfigError, match=match):
            g_estimate(ds, spec, treatment_terms=SNDM_TERMS, psi_box=box,
                       grid_points=points)

    def test_binary_treatments_required(self):
        ds = simulate(two_occasion_scenario(), 200, seed=1)
        with pytest.raises(EstimationError, match="binary"):
            g_test_at(ds, additive_blip("1"), (0.0,),
                      treatment_terms=("1", "lm"))

    def test_single_occasion_restriction_runs(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 500, seed=7)
        rep = g_test_at(ds, additive_blip("1", "lm"), (1.0, 0.0),
                        treatment_terms=SNDM_TERMS, alpha_known=SNDM_ALPHA,
                        occasions=(1,))
        assert rep.df == 2
        assert np.isfinite(rep.statistic)

    def test_search_path_is_reported(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 500, seed=8)
        kw = dict(treatment_terms=SNDM_TERMS, alpha_known=SNDM_ALPHA, grid_points=21)
        assert g_estimate(ds, additive_blip("1"), psi_box=((0.0, 2.0),), **kw).method \
            == "closed-form"
        # Root beyond the box: the statistic is minimized between grid
        # points.  Its minimum is the near edge, still rejecting, so it is
        # flagged as a boundary.
        est = g_estimate(ds, additive_blip("1"), psi_box=((3.0, 5.0),), **kw)
        assert est.method == "zoom"
        assert est.psi_hat[0] == 3.0
        assert est.boundary
        # The estimate is its own array, not a view of the grid.
        assert not np.shares_memory(est.psi_hat, est.grid)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_recovers_multiplicative_psi(self, seed):
        ds = simulate(sndm_scenario(psi=(0.5,), family="multiplicative"), 1500, seed=seed)
        assert np.all(ds.Y > 0)
        est = g_estimate(ds, multiplicative_blip("1"), treatment_terms=SNDM_TERMS,
                         psi_box=((0.0, 1.0),), grid_points=21)
        assert abs(est.psi_hat[0] - 0.5) < 0.05
        assert est.method == "zoom"
        assert est.statistic_at_hat < 1e-8

    def test_multiplicative_positivity_is_checked_before_any_test(self, monkeypatch):
        from gmethods import sndm

        calls = []
        for name in ("score_test_added", "fit_logistic"):
            real = getattr(sndm, name)
            monkeypatch.setattr(sndm, name, lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        ds = simulate(sndm_scenario(psi=(1.0,)), 300, seed=9)
        assert np.any(ds.Y <= 0)
        spec = multiplicative_blip("1")
        with pytest.raises(EstimationError, match="positive"):
            g_test_at(ds, spec, (0.5,), treatment_terms=SNDM_TERMS)
        with pytest.raises(EstimationError, match="positive"):
            g_estimate(ds, spec, treatment_terms=SNDM_TERMS, psi_box=((0.0, 1.0),))
        assert calls == []


COV_TERMS = {0: ("1", "u"), 1: ("u", "a0", "l0")}


def joint_mle_reference(dataset, blip_spec, *, covariate_terms, maxiter=1000):
    """The joint fit the profile likelihood replaced: one L-BFGS-B over
    (psi, mu, log sd, every phi).  Kept as an oracle: the profile fit's
    log-likelihood must never be lower."""
    import scipy.optimize

    L, A, Y = dataset.L, dataset.A, dataset.Y
    n, K1 = L.shape
    d = blip_spec.dim
    S = shift_basis(blip_spec, L, A)
    modeled = [m for m in range(K1) if np.ptp(L[:, m]) > 0]
    terms_by_m = {m: tuple(covariate_terms[m]) for m in modeled}
    sizes = [len(terms_by_m[m]) for m in modeled]

    def unpack(x):
        psi, mu, logsd = x[:d], x[d], x[d + 1]
        phis, k = {}, d + 2
        for m, sz in zip(modeled, sizes):
            phis[m] = x[k:k + sz]
            k += sz
        return psi, mu, logsd, phis

    def negll(x):
        psi, mu, logsd, phis = unpack(x)
        total_shift = S @ psi
        h = _residual_outcome(blip_spec.family, Y, total_shift)
        z = (h - mu) / np.exp(logsd)
        ll = -0.5 * float(z @ z) - n * (logsd + 0.5 * np.log(2.0 * np.pi))
        if blip_spec.family == "multiplicative":
            ll += float(np.sum(total_shift))  # log dH/dY
        for m in modeled:
            X = eval_terms(terms_by_m[m], history_cols(L, A, m, m, m, extra={"u": h}))
            eta = X @ phis[m]
            ll += float(L[:, m] @ eta - np.sum(np.logaddexp(0.0, eta)))
        return -ll

    x0 = np.zeros(d + 2 + sum(sizes))
    x0[d] = float(np.mean(Y))
    x0[d + 1] = float(np.log(np.std(Y) + 1e-8))
    res = scipy.optimize.minimize(
        negll, x0, method="L-BFGS-B",
        options={"maxiter": maxiter, "maxfun": 5 * maxiter, "ftol": 1e-12, "gtol": 1e-9},
    )
    if not res.success and "ABNORMAL" not in str(res.message):
        raise ConvergenceError(f"likelihood maximization failed: {res.message}")
    return unpack(res.x)[0], -float(res.fun)


class TestSndmMle:
    def test_eta_is_moment_pair_of_h_at_fixed_psi(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 800, seed=42)
        spec = additive_blip("1")
        fit = sndm_mle(ds, spec, covariate_terms=COV_TERMS, psi_fixed=(0.7,))
        h = ds.Y + shift_basis(spec, ds.L, ds.A) @ np.array([0.7])
        assert abs(fit.h_mean - float(np.mean(h))) < 1e-12
        assert abs(fit.h_sd - float(np.std(h))) < 1e-12

    def test_loglik_decomposition(self):
        # Reassemble the reported log likelihood from the returned
        # parameters: normal residual part plus one logistic part per
        # modeled covariate occasion.
        ds = simulate(sndm_scenario(psi=(1.0,)), 600, seed=43)
        spec = additive_blip("1")
        fit = sndm_mle(ds, spec, covariate_terms=COV_TERMS, psi_fixed=(1.0,))
        h = ds.Y + shift_basis(spec, ds.L, ds.A) @ np.array([1.0])
        n = ds.n
        z = (h - fit.h_mean) / fit.h_sd
        ll = -0.5 * float(z @ z) - n * (math.log(fit.h_sd)
                                        + 0.5 * math.log(2.0 * math.pi))
        cols = {0: {"u": h}, 1: {"u": h, "a0": ds.A[:, 0], "l0": ds.L[:, 0]}}
        for m in (0, 1):
            X = eval_terms(COV_TERMS[m], cols[m])
            eta = X @ fit.phi[m]
            ll += float(ds.L[:, m] @ eta - np.sum(np.logaddexp(0.0, eta)))
        assert abs(ll - fit.loglik) < 1e-6

    def test_covariate_coefficients_match_separate_logistic_fits(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 800, seed=44)
        spec = additive_blip("1")
        fit = sndm_mle(ds, spec, covariate_terms=COV_TERMS, psi_fixed=(1.0,))
        h = ds.Y + shift_basis(spec, ds.L, ds.A) @ np.array([1.0])
        X0 = eval_terms(COV_TERMS[0], {"u": h})
        sep = fit_logistic(X0, ds.L[:, 0])
        np.testing.assert_allclose(fit.phi[0], sep.coef, atol=1e-12)

    def test_free_psi_recovery(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 3000, seed=45)
        fit = sndm_mle(ds, additive_blip("1"), covariate_terms=COV_TERMS)
        assert fit.converged
        assert abs(fit.psi[0] - 1.0) < 0.15
        # H is standard normal by construction
        assert abs(fit.h_mean) < 0.15
        assert abs(fit.h_sd - 1.0) < 0.1

    def test_jacobian_term_is_the_total_shift(self):
        # At a fixed psi the multiplicative fit's log likelihood is the
        # normal part of H, plus the change-of-variables term log dH/dY
        # (the sum of the shifts), plus one logistic part per covariate
        # occasion, each summed here on its own.
        rng = np.random.default_rng(8)
        n = 400
        L = rng.integers(0, 2, size=(n, 2)).astype(float)
        A = rng.integers(0, 2, size=(n, 2)).astype(float)
        spec = multiplicative_blip("1", psi=(0.3,))
        hvals = np.exp(rng.normal(0.0, 0.4, n)) + 0.3
        Y = blip_up(spec, hvals, L, A)
        assert np.all(Y > 0)
        schema = Schema((binary(), binary()), (binary(), binary()))
        ds = Dataset(schema, L, A, Y)
        fit = sndm_mle(ds, spec, covariate_terms=("1", "u"), psi_fixed=(0.3,))
        shift = shift_basis(spec, L, A) @ np.array([0.3])
        h = Y * np.exp(shift)
        normal = float(np.sum(stats.norm.logpdf(h, np.mean(h), np.std(h))))
        covariates = 0.0
        for m in (0, 1):
            eta = np.column_stack([np.ones(n), h]) @ fit.phi[m]
            covariates += float(L[:, m] @ eta - np.sum(np.logaddexp(0.0, eta)))
        assert abs(fit.loglik - (normal + float(np.sum(shift)) + covariates)) < 1e-8

    @pytest.mark.parametrize("psi", [(1.0, 2.0), (), (float("nan"),), (float("inf"),), "one"],
                             ids=["too-long", "empty", "nan", "inf", "word"])
    def test_fixed_and_null_psi_are_one_finite_number_per_component(self, psi):
        # (1.0, 2.0) once raised numpy's bare matmul ValueError and (nan,) a
        # misleading "residual outcome H is constant".
        ds = simulate(sndm_scenario(psi=(1.0,)), 200, seed=2)
        match = r"psi must be one finite number per blip component \(1\)"
        with pytest.raises(ConfigError, match=match):
            sndm_mle(ds, additive_blip("1"), covariate_terms=COV_TERMS, psi_fixed=psi)
        with pytest.raises(ConfigError, match=match):
            sndm_lr_test(ds, additive_blip("1"), covariate_terms=COV_TERMS, psi_null=psi)

    def test_covariate_terms_restricted_to_earlier_history(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 200, seed=2)
        with pytest.raises(ConfigError, match="unknown feature term"):
            sndm_mle(ds, additive_blip("1"), covariate_terms=("l1",),
                     psi_fixed=(0.0,))

    def test_nonbinary_covariates_rejected(self):
        schema = Schema((discrete(0.0, 2.0), binary()), (binary(), binary()))
        rng = np.random.default_rng(3)
        L = np.column_stack([2.0 * rng.integers(0, 2, 50),
                             rng.integers(0, 2, 50)]).astype(float)
        A = rng.integers(0, 2, size=(50, 2)).astype(float)
        ds = Dataset(schema, L, A, rng.normal(size=50))
        with pytest.raises(EstimationError, match="binary"):
            sndm_mle(ds, additive_blip("1"), covariate_terms=("1", "u"),
                     psi_fixed=(0.0,))

    @pytest.mark.parametrize("family,cofactors,psi,n,seed", [
        ("additive", ("1",), (1.0,), 800, 50),
        ("additive", ("1", "lm"), (1.0, -0.5), 2000, 51),
        ("multiplicative", ("1",), (0.4,), 800, 52),
        ("multiplicative", ("1", "lm"), (0.4, -0.2), 2000, 53),
    ])
    def test_profile_fit_matches_the_joint_reference(self, family, cofactors, psi, n, seed):
        ds = simulate(sndm_scenario(family=family, cofactors=cofactors, psi=psi), n, seed=seed)
        spec = BlipSpec(family, cofactors)
        fit = sndm_mle(ds, spec, covariate_terms=COV_TERMS)
        ref_psi, ref_ll = joint_mle_reference(ds, spec, covariate_terms=COV_TERMS)
        assert fit.loglik >= ref_ll - 1e-9
        np.testing.assert_allclose(fit.psi, ref_psi, atol=1e-4)

    def test_separated_covariate_raises(self):
        # L1 equals A0, so its logistic model on ("1", "a0") has no MLE.
        rng = np.random.default_rng(12)
        n = 400
        A = rng.integers(0, 2, size=(n, 2)).astype(float)
        L = np.column_stack([rng.integers(0, 2, n), A[:, 0]]).astype(float)
        schema = Schema((binary(), binary()), (binary(), binary()))
        ds = Dataset(schema, L, A, rng.normal(size=n) + A.sum(axis=1))
        with pytest.raises(SeparationError):
            sndm_mle(ds, additive_blip("1"),
                     covariate_terms={0: ("1", "u"), 1: ("1", "a0")})

    def test_constant_residual_outcome_raises(self):
        schema = Schema((binary(), binary()), (binary(), binary()))
        rng = np.random.default_rng(13)
        L = rng.integers(0, 2, size=(60, 2)).astype(float)
        A = rng.integers(0, 2, size=(60, 2)).astype(float)
        ds = Dataset(schema, L, A, 2.0 - 0.5 * A.sum(axis=1))
        with pytest.raises(EstimationError, match="constant"):
            sndm_mle(ds, additive_blip("1"), covariate_terms=("1", "u"),
                     psi_fixed=(0.5,))

    @pytest.mark.parametrize("term", ["l", "lx", "l_prev", "h"])
    def test_malformed_covariate_terms_are_config_errors(self, term):
        ds = simulate(sndm_scenario(psi=(1.0,)), 200, seed=2)
        with pytest.raises(ConfigError, match="unknown feature term"):
            sndm_mle(ds, additive_blip("1"), covariate_terms=("1", term),
                     psi_fixed=(0.0,))

    def test_likelihood_ratio_test(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 1500, seed=46)
        at_zero = sndm_lr_test(ds, additive_blip("1"),
                               covariate_terms=COV_TERMS)
        assert at_zero.reject
        at_true = sndm_lr_test(ds, additive_blip("1"),
                               covariate_terms=COV_TERMS, psi_null=(1.0,))
        assert at_true.p_value > 0.05


class TestRegimeDraws:
    def test_plugin_is_shifted_h(self):
        # Covariate-free additive blip under plan (1,1): y = h - 2 psi.
        ds = simulate(sndm_scenario(psi=(0.8,)), 300, seed=10)
        spec = additive_blip("1", psi=(0.8,))
        h = blip_down(spec, ds).h
        plug = empirical_static_survivor(ds, spec, (1.0, 1.0))
        np.testing.assert_allclose(np.sort(plug.samples),
                                   np.sort(h - 1.6), atol=1e-12)

    MODELS = (BernoulliLogit(("1", "u"), (0.0, 0.5)),
              BernoulliLogit(("1", "u", "a0", "l0"), (-0.2, 0.5, 0.3, 0.4)))

    def draws(self, spec, regime, count=2_000):
        return mc_regime_draws(spec, regime, h_law=NormalLinear(("1",), (0.0,)),
                               covariate_models=self.MODELS, draws=count, seed=3).samples

    def test_draw_count_prefix_invariance(self):
        # Covariates that depend on h: the first draws must not depend on
        # how many are asked for, across a block boundary too.
        spec = additive_blip("1", "lm", psi=(0.5, 0.2))
        regime = Regime.dynamic(lambda m, lbar: float(lbar[-1] >= 0.5), "treat-if-l")
        np.testing.assert_array_equal(self.draws(spec, regime, 200)[:100],
                                      self.draws(spec, regime, 100))
        np.testing.assert_array_equal(self.draws(spec, regime, 20_000)[:9_000],
                                      self.draws(spec, regime, 9_000))

    REGIMES = (Regime.static((0.0, 0.0)), Regime.static((1.0, 1.0)),
               Regime.dynamic(lambda m, lbar: float(lbar[-1] >= 0.5), "treat-if-l"))

    def test_g_null_gives_the_same_draws_under_every_regime(self):
        # psi = 0: the blip is the identity, and the streams do not depend
        # on the regime, so never-treat, always-treat and a threshold plan
        # share their draws exactly.
        spec = additive_blip("1", "lm", psi=(0.0, 0.0))
        never, always, threshold = (self.draws(spec, r) for r in self.REGIMES)
        np.testing.assert_array_equal(never, always)
        np.testing.assert_array_equal(never, threshold)

    def test_nonzero_psi_separates_the_regimes(self):
        spec = additive_blip("1", "lm", psi=(0.5, 0.2))
        never, always, threshold = (self.draws(spec, r) for r in self.REGIMES)
        assert not np.array_equal(never, always)
        assert not np.array_equal(never, threshold)
        assert not np.array_equal(always, threshold)

    def test_plugin_rejects_covariate_blips(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 100, seed=2)
        with pytest.raises(EstimationError, match="covariate"):
            empirical_static_survivor(ds, additive_blip("lm", psi=(1.0,)),
                                      (1.0, 1.0))

    def test_plugin_checks_plan_length(self):
        ds = simulate(sndm_scenario(psi=(1.0,)), 100, seed=2)
        with pytest.raises(ConfigError, match="plan"):
            empirical_static_survivor(ds, additive_blip("1", psi=(1.0,)),
                                      (1.0,))
