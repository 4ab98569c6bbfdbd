"""Fitters and tests against independent oracles.

The linear fit is checked against a hand-rolled Gaussian elimination of the
normal equations; the saturated logistic fit against per-cell sample
proportions, and the fit on distinct rows against the former row-wise fit;
test statistics against their textbook identities and a small Monte Carlo
level study.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import logit

import gmethods

from gmethods.data import Dataset, Schema, binary
from gmethods.errors import ConvergenceError, EstimationError, GmethodsError, SeparationError
from gmethods.glm import (
    _LOGLIK_TOL,
    _MAX_ITER,
    _SCORE_TOL,
    _SEP_LIMIT,
    FittedGlm,
    _as_matrix,
    _chol_solve,
    _logistic_null,
    _report,
    _score_moments,
    _tail_p,
    expit,
    fit_linear,
    fit_logistic,
    pooled_rows,
    robust_score_test,
    score_test_added,
    wald_test,
)
from gmethods.scenarios import make_scenario, simulate
from gmethods.streams import substream


def solve_by_elimination(M, b):
    """Textbook Gaussian elimination with partial pivoting (test oracle)."""
    M = np.array(M, dtype=float)
    b = np.array(b, dtype=float)
    p = len(b)
    for col in range(p):
        piv = col + int(np.argmax(np.abs(M[col:, col])))
        M[[col, piv]] = M[[piv, col]]
        b[[col, piv]] = b[[piv, col]]
        for r in range(col + 1, p):
            f = M[r, col] / M[col, col]
            M[r, col:] -= f * M[col, col:]
            b[r] -= f * b[col]
    x = np.zeros(p)
    for r in range(p - 1, -1, -1):
        x[r] = (b[r] - M[r, r + 1 :] @ x[r + 1 :]) / M[r, r]
    return x


def _ref_expit(b):
    """The former masked ``expit`` body (oracle for the branch-free one)."""
    b = np.asarray(b, dtype=float)
    out = np.empty_like(b)
    pos = b >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-b[pos]))
    eb = np.exp(b[~pos])
    out[~pos] = eb / (1.0 + eb)
    return out if out.ndim else float(out)


_FLOAT_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 36.8, -36.8,
                   709.8, -709.8, 745.2, -745.2, 1e308, -1e308, 1.7976931348623157e308,
                   -1.7976931348623157e308, np.inf, -np.inf]


class TestExpit:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_matches_the_former_masked_body_bit_for_bit(self, values):
        b = np.array(values + _FLOAT_EXTREMES)
        assert expit(b).tobytes() == _ref_expit(b).tobytes()
        assert np.float64(expit(b[0])).tobytes() == np.float64(_ref_expit(b[0])).tobytes()

    def test_center(self):
        assert expit(0.0) == 0.5

    def test_saturation(self):
        assert abs(expit(40.0) - 1.0) < 1e-12
        assert expit(-40.0) < 1e-12

    def test_symmetry_identity(self):
        for b in (-3.0, 0.2, 7.0):
            assert abs(expit(b) + expit(-b) - 1.0) < 1e-15

    def test_no_overflow_far_out(self):
        assert expit(-800.0) == 0.0
        assert expit(800.0) == 1.0

    def test_logit_inverts(self):
        for p in (0.01, 0.25, 0.5, 0.93):
            assert abs(expit(logit(p)) - p) < 1e-12


class TestFitLinear:
    def test_intercept_only_is_mean_and_mle_variance(self):
        fit = fit_linear(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
        assert abs(fit.coef[0] - 2.0) < 1e-12
        assert abs(fit.dispersion - 2.0 / 3.0) < 1e-12

    def test_exact_fit_zero_dispersion(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = 1.0 + 2.0 * np.arange(5.0)
        fit = fit_linear(X, y)
        np.testing.assert_allclose(fit.coef, [1.0, 2.0], atol=1e-10)
        assert fit.dispersion < 1e-20

    def test_matches_elimination_oracle(self):
        rng = substream(314, "glm", "linear")
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        y = rng.normal(size=50)
        fit = fit_linear(X, y)
        oracle = solve_by_elimination(X.T @ X, X.T @ y)
        np.testing.assert_allclose(fit.coef, oracle, atol=1e-8)

    def test_score_equation_solved(self):
        rng = substream(314, "glm", "linear-score")
        X = np.column_stack([np.ones(80), rng.normal(size=(80, 3))])
        y = rng.normal(size=80)
        fit = fit_linear(X, y)
        assert np.max(np.abs(X.T @ (y - X @ fit.coef))) < 1e-8 * 80

    def test_vcov_symmetric(self):
        rng = substream(314, "glm", "linear-vcov")
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        fit = fit_linear(X, rng.normal(size=40))
        assert np.max(np.abs(fit.vcov - fit.vcov.T)) < 1e-12

    def test_rank_deficiency_rejected(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(EstimationError, match="condition"):
            fit_linear(X, np.arange(10.0))

    def test_recentring_changes_intercept_only(self):
        rng = substream(314, "glm", "recenter")
        x = rng.normal(size=60)
        X1 = np.column_stack([np.ones(60), x])
        X2 = np.column_stack([np.ones(60), x - 5.0])
        y = rng.normal(size=60)
        f1, f2 = fit_linear(X1, y), fit_linear(X2, y)
        assert abs(f1.coef[1] - f2.coef[1]) < 1e-8
        assert abs(f2.coef[0] - (f1.coef[0] + 5.0 * f1.coef[1])) < 1e-8


class TestFitLogistic:
    def test_intercept_only_closed_form(self):
        y = np.array([1.0] + [0.0] * 3)
        fit = fit_logistic(np.ones((4, 1)), y)
        assert abs(fit.coef[0] - logit(0.25)) < 1e-8

    def test_saturated_model_matches_cell_means(self):
        # Binary x, saturated (1, x): fitted probs must equal cell proportions.
        rng = substream(314, "glm", "saturated")
        x = (rng.random(400) < 0.4).astype(float)
        y = (rng.random(400) < np.where(x > 0, 0.7, 0.2)).astype(float)
        fit = fit_logistic(np.column_stack([np.ones(400), x]), y)
        p_hat = expit(fit.coef[0] + fit.coef[1] * np.array([0.0, 1.0]))
        cells = np.array([y[x == 0].mean(), y[x == 1].mean()])
        np.testing.assert_allclose(p_hat, cells, atol=1e-8)

    def test_score_zero_at_mle(self):
        rng = substream(314, "glm", "logit-score")
        X = np.column_stack([np.ones(300), rng.normal(size=300)])
        y = (rng.random(300) < expit(0.3 - 0.8 * X[:, 1])).astype(float)
        fit = fit_logistic(X, y)
        assert np.max(np.abs(X.T @ (y - expit(X @ fit.coef)))) < 1e-6

    def test_irrelevant_column_small(self):
        rng = substream(314, "glm", "logit-null")
        X = np.column_stack([np.ones(10_000), rng.normal(size=10_000)])
        y = (rng.random(10_000) < 0.35).astype(float)
        fit = fit_logistic(X, y)
        se = np.sqrt(fit.vcov[1, 1])
        assert abs(fit.coef[1]) < 4.0 * se

    def test_separation_detected(self):
        # Unit-scale regressor so saturation needs a diverging coefficient.
        x = np.concatenate([np.full(20, -0.5), np.full(20, 0.5)])
        y = (x > 0).astype(float)
        with pytest.raises(SeparationError):
            fit_logistic(np.column_stack([np.ones(40), x]), y)

    def test_non_binary_response_rejected(self):
        with pytest.raises(EstimationError, match="0/1"):
            fit_logistic(np.ones((5, 1)), np.array([0.0, 1.0, 2.0, 0.0, 1.0]))


def _ref_fit_logistic(X, y):
    """The former row-wise ``fit_logistic`` body: every Newton step over all
    n rows (oracle for the fit on the distinct rows)."""

    def loglik(eta):
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n < p:
        raise EstimationError(f"n={n} smaller than parameter count p={p}")
    if np.any((np.abs(y) > 1e-9) & (np.abs(y - 1.0) > 1e-9)):
        raise EstimationError("logistic response must be 0/1")
    coef = np.zeros(p)
    eta = X @ coef
    ll = loglik(eta)
    for it in range(1, _MAX_ITER + 1):
        prob = expit(eta)
        score = X.T @ (y - prob)
        if np.max(np.abs(coef)) > _SEP_LIMIT:
            raise SeparationError("separation")
        if np.max(np.abs(score)) < _SCORE_TOL:
            break
        w = prob * (1.0 - prob)
        H = X.T @ (X * w[:, None])
        step = _chol_solve(H, score)
        lam = 1.0
        for _ in range(40):
            trial = coef + lam * step
            eta_t = X @ trial
            ll_t = loglik(eta_t)
            if ll_t >= ll - 1e-12:
                break
            lam *= 0.5
        coef, eta = trial, eta_t
        if abs(ll_t - ll) < _LOGLIK_TOL * (abs(ll) + 1.0):
            if np.max(np.abs(coef)) > _SEP_LIMIT:
                raise SeparationError("separation")
            break
        ll = ll_t
    else:
        raise ConvergenceError("no convergence")
    prob = expit(eta)
    w = prob * (1.0 - prob)
    H = X.T @ (X * w[:, None])
    vcov = _chol_solve(H, np.eye(p))
    vcov = 0.5 * (vcov + vcov.T)
    return FittedGlm("binomial", coef, 1.0, vcov, True, it, loglik(eta), n)


def _logistic_case(name):
    """(X, y) of one oracle case for the grouped logistic fit."""
    rng = substream(314, "glm", "grouped", name)
    ones = np.ones(400)
    u = rng.normal(size=400)
    a0 = (rng.random(400) < 0.5).astype(float)
    if name.startswith("naive-de-"):  # the naive analysis's fit of L1 on (1, A0)
        ds = simulate(make_scenario("masked-interaction"), 5000, int(name.rsplit("-", 1)[1]))
        return np.column_stack([np.ones(ds.n), ds.A[:, 0]]), ds.L[:, 1]
    if name.startswith("a1-"):  # the fitted A1 law on (1, L1, A0)
        ds = simulate(make_scenario("masked-interaction"), 5000, int(name.rsplit("-", 1)[1]))
        return np.column_stack([np.ones(ds.n), ds.L[:, 1], ds.A[:, 0]]), ds.A[:, 1]
    if name == "pooled":
        X, resp, _ = pooled_rows(simulate(make_scenario("binary-trial"), 3000, 8),
                                 ("1", "lm", "a_prev"))
        return X, resp
    X = np.column_stack([ones, u, a0])
    y = (rng.random(400) < expit(-0.3 + 0.8 * u - 0.5 * a0)).astype(float)
    if name == "continuous":
        return X, y
    if name == "near-binary":
        return X, y + rng.uniform(-1e-9, 1e-9, 400) * np.where(y > 0, -1.0, 1.0)
    if name == "all-zero":
        return X[:, [0, 2]], np.zeros(400)
    if name == "separated":
        return X[:, :2], (u > 0).astype(float)
    if name == "quasi-separated":  # separated but for the tied rows at u = 0
        u0 = np.where(np.abs(u) < 0.3, 0.0, u)
        y = np.where(u0 > 0, 1.0, np.where(u0 < 0, 0.0, rng.random(400) < 0.5))
        return np.column_stack([ones, u0]), y
    if name == "n-below-p":
        return X[:2], y[:2]
    if name == "non-binary":
        return X, np.where(np.arange(400) == 7, 0.5, y)
    raise KeyError(name)


@pytest.mark.parametrize("case", [
    "naive-de-1", "naive-de-77", "naive-de-123", "a1-1", "a1-77", "a1-123", "pooled",
    "continuous", "near-binary", "all-zero", "separated", "quasi-separated",
    "n-below-p", "non-binary",
])
def test_grouped_fit_matches_the_row_wise_fit(case):
    X, y = _logistic_case(case)
    try:
        want = _ref_fit_logistic(X, y)
    except GmethodsError as exc:
        with pytest.raises(type(exc)):
            fit_logistic(X, y)
        return
    got = fit_logistic(X, y)
    # The fit's own score tolerance (1e-8) allows a few 1e-9 between the two.
    for name in ("coef", "vcov", "loglik"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert np.max(np.abs(a - b)) <= 1e-6 * max(1.0, np.max(np.abs(b))), name
    assert abs(got.iterations - want.iterations) <= 1
    assert got.n == want.n == len(y)
    assert (got.family, got.dispersion, got.converged) == ("binomial", 1.0, True)


class TestWald:
    def test_zero_restriction_gives_p_one(self):
        # Symmetric responses: the intercept estimate is exactly 0.
        fit = fit_linear(np.ones((2, 1)), np.array([-1.0, 1.0]))
        rep = wald_test(fit, [0])
        assert rep.statistic < 1e-12 and rep.p_value > 1.0 - 1e-9

    def test_single_coefficient_identity(self):
        rng = substream(314, "glm", "wald")
        X = np.column_stack([np.ones(60), rng.normal(size=60)])
        fit = fit_linear(X, rng.normal(size=60))
        rep = wald_test(fit, [1])
        z2 = (fit.coef[1] / np.sqrt(fit.vcov[1, 1])) ** 2
        assert abs(rep.statistic - z2) < 1e-12
        assert rep.df == 1 and rep.reference == "chi2"

    def test_level_on_simulated_null(self):
        # 2-df joint Wald under a true null: rejection rate 0.05 +/- 0.02.
        rng = substream(314, "glm", "wald-level")
        hits = 0
        for _ in range(500):
            X = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
            fit = fit_linear(X, rng.normal(size=100))
            hits += int(wald_test(fit, [1, 2]).reject)
        assert 0.03 <= hits / 500 <= 0.07

    def test_p_value_consistent_with_reference(self):
        rng = substream(314, "glm", "wald-p")
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        fit = fit_linear(X, rng.normal(size=50))
        rep = wald_test(fit, [0, 1])
        assert abs(rep.p_value - _tail_p(rep.statistic, rep.df, rep.reference)) < 1e-10


class TestPValues:
    def test_zero_df_gives_p_one_both_ways(self):
        rep = _report(0.0, 0, "chi2", 0.05)
        assert rep.p_value == 1.0
        assert _tail_p(rep.statistic, rep.df, rep.reference) == 1.0

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5])
    def test_tails_equal_the_scipy_stats_tails(self, df):
        for x in np.linspace(0.0, 40.0, 161):
            assert _report(x, df, "chi2", 0.05).p_value == float(stats.chi2.sf(x, df))
        for z in np.linspace(-8.0, 8.0, 161):
            assert (_report(z, None, "normal", 0.05).p_value
                    == float(2.0 * stats.norm.sf(abs(z))))

    def test_import_leaves_scipy_stats_unloaded(self):
        assert _loaded_after_import("scipy.stats") == []

    def test_import_leaves_scipy_optimize_unloaded(self):
        # Only the numerical fallbacks of the g-estimation search and the
        # SNDM likelihood fit use it; they import it when they run.
        assert _loaded_after_import("scipy.optimize") == []

    def test_import_leaves_scipy_linalg_unloaded(self):
        # The normal equations are solved with numpy's Cholesky.
        assert _loaded_after_import("scipy.linalg") == []


def _loaded_after_import(prefix):
    """Modules under ``prefix`` that a fresh ``import gmethods`` loads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gmethods.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gmethods; "
            "print(*sorted(m for m in sys.modules if m.startswith(sys.argv[2])))")
    out = subprocess.run([sys.executable, "-c", code, src, prefix], check=True,
                         capture_output=True, text=True).stdout
    return out.split()


class TestCholSolve:
    def test_matches_a_general_solve_on_a_positive_definite_system(self):
        rng = substream(7, "test-chol")
        B = rng.standard_normal((6, 6))
        M = B @ B.T + 6.0 * np.eye(6)
        for rhs in (rng.standard_normal(6), rng.standard_normal((6, 3))):
            want = np.linalg.solve(M, rhs)
            got = _chol_solve(M, rhs)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_singular_psd_system_takes_the_jitter_path(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(M)
        # Every x with x0 + x1 = 1 solves it; the ridge picks the shortest.
        np.testing.assert_allclose(_chol_solve(M, np.ones(2)), [0.5, 0.5],
                                   rtol=0, atol=1e-9)

    def test_negative_definite_system_raises(self):
        with pytest.raises(EstimationError, match="singular normal equations"):
            _chol_solve(-np.eye(3), np.ones(3))


class TestScoreTestAdded:
    def test_zero_column_gives_zero(self):
        rng = substream(314, "glm", "score-zero")
        X = np.ones((50, 1))
        y = (rng.random(50) < 0.5).astype(float)
        rep = score_test_added(X, y, np.zeros((50, 1)))
        assert rep.statistic == 0.0

    def test_duplicated_regressor_gives_zero(self):
        rng = substream(314, "glm", "score-dup")
        x = rng.normal(size=200)
        X = np.column_stack([np.ones(200), x])
        y = (rng.random(200) < expit(0.2 + 0.5 * x)).astype(float)
        rep = score_test_added(X, y, x.copy())
        assert rep.statistic < 1e-8

    def test_matches_likelihood_ratio_on_local_alternative(self):
        # Rao score and LR are asymptotically equivalent; on a local
        # alternative at n=4000 they agree to a few percent.
        rng = substream(314, "glm", "score-lr")
        n = 4000
        x = rng.normal(size=n)
        z = rng.normal(size=n)
        y = (rng.random(n) < expit(0.3 * x + 1.5 / np.sqrt(n) * z)).astype(float)
        X = np.column_stack([np.ones(n), x])
        score = score_test_added(X, y, z).statistic
        null = fit_logistic(X, y)
        full = fit_logistic(np.column_stack([X, z]), y)
        lr = 2.0 * (full.loglik - null.loglik)
        assert abs(score - lr) < 0.05 * max(1.0, lr)

    def test_known_null_skips_nuisance_projection(self):
        # With the design probabilities known, the variance is the raw
        # information of Z, which can only be larger than the projected one.
        rng = substream(314, "glm", "score-known")
        n = 500
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x])
        y = (rng.random(n) < expit(0.4 * x)).astype(float)
        z = rng.normal(size=n) + x
        est = score_test_added(X, y, z, fit=fit_logistic(X, y))
        known = score_test_added(X, y, z, known_coef=np.array([0.0, 0.4]))
        assert est.df == known.df == 1
        assert known.statistic <= est.statistic * 1.5 + 1.0  # same scale, no blowup


def _ref_added_moments(X, y, Z, *, fit=None, known_coef=None):
    """The former binomial ``glm._added_moments`` body (oracle)."""
    Z = _as_matrix(Z)
    y = np.asarray(y, dtype=float)
    X = _as_matrix(X)
    if known_coef is not None:
        prob = _ref_expit(X @ np.asarray(known_coef, dtype=float))
        w = prob * (1.0 - prob)
        U = Z.T @ (y - prob)
        V = Z.T @ (Z * w[:, None])
    else:
        nullfit = fit or fit_logistic(X, y)
        prob = _ref_expit(X @ nullfit.coef)
        w = prob * (1.0 - prob)
        U = Z.T @ (y - prob)
        XtWX = X.T @ (X * w[:, None])
        XtWZ = X.T @ (Z * w[:, None])
        V = Z.T @ (Z * w[:, None]) - XtWZ.T @ _chol_solve(XtWX, XtWZ)
    return U, V


def _ref_robust_moments(X, y, Z, subjects, *, fit=None, known_coef=None):
    """The former ``glm._robust_moments`` body (oracle)."""
    X = _as_matrix(X)
    Z = _as_matrix(Z)
    y = np.asarray(y, dtype=float)
    subjects = np.asarray(subjects, dtype=int)
    if known_coef is not None:
        prob = _ref_expit(X @ np.asarray(known_coef, dtype=float))
        eps = y - prob
        adj = Z
    else:
        nullfit = fit or fit_logistic(X, y)
        prob = _ref_expit(X @ nullfit.coef)
        w = prob * (1.0 - prob)
        eps = y - prob
        A = X.T @ (X * w[:, None])
        C = Z.T @ (X * w[:, None])
        B = _chol_solve(A, C.T).T  # q x p: projection of Z-score on X-score
        adj = Z - (X @ B.T)
    nsub = int(subjects.max()) + 1
    q = Z.shape[1]
    pieces = np.zeros((nsub, q))
    for j in range(q):
        pieces[:, j] = np.bincount(subjects, weights=adj[:, j] * eps, minlength=nsub)
    U = Z.T @ eps
    V = pieces.T @ pieces
    return U, V


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(40, 400), p=st.integers(1, 3),
       q=st.integers(1, 4), zero_column=st.booleans(),
       null=st.sampled_from(["known", "fitted", "fitted here"]),
       subjects=st.sampled_from([None, "one per row", "pairs", "occasion-major"]))
def test_score_moments_match_the_former_bodies(seed, n, p, q, zero_column, null, subjects):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    coef = rng.normal(scale=0.5, size=p)
    y = (rng.random(n) < expit(X @ coef)).astype(float)
    Z = rng.normal(size=(n, q)) * rng.choice([0.1, 1.0, 10.0], size=q)
    if zero_column:
        Z[:, rng.integers(q)] = 0.0
    if q == 1 and rng.random() < 0.5:
        Z = Z[:, 0]
    subj = {None: None, "one per row": np.arange(n), "pairs": np.arange(n) // 2,
            "occasion-major": np.arange(n) % -(-n // 3)}[subjects]
    kw = {"known": dict(known_coef=coef), "fitted": dict(fit=fit_logistic(X, y)),
          "fitted here": {}}[null]
    U, V, _ = _score_moments(Z, subj, _logistic_null(X, y, **kw))
    if subj is None:
        U_ref, V_ref = _ref_added_moments(X, y, Z, **kw)
    else:
        U_ref, V_ref = _ref_robust_moments(X, y, Z, subj, **kw)
    assert U.shape == U_ref.shape and V.shape == V_ref.shape
    assert U.tobytes() == U_ref.tobytes()
    assert V.tobytes() == V_ref.tobytes()


class TestRobustScore:
    def test_reduces_to_sane_level_on_iid_rows(self):
        rng = substream(314, "glm", "robust")
        hits = 0
        for _ in range(200):
            n = 300
            x = rng.normal(size=n)
            X = np.column_stack([np.ones(n), x])
            y = (rng.random(n) < expit(0.2 * x)).astype(float)
            z = rng.normal(size=n)
            rep = robust_score_test(X, y, z, np.arange(n))
            hits += int(rep.reject)
        assert 0.02 <= hits / 200 <= 0.09

    def test_zero_added_column(self):
        rng = substream(314, "glm", "robust-zero")
        n = 100
        X = np.ones((n, 1))
        y = (rng.random(n) < 0.5).astype(float)
        rep = robust_score_test(X, y, np.zeros((n, 1)), np.arange(n) // 2)
        assert rep.statistic == 0.0


class TestPooledRows:
    def test_stacking_matches_manual_replication(self):
        schema = Schema((binary(), binary()), (binary(), binary()))
        ds = Dataset(schema,
                     [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                     [[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]],
                     [5.0, 6.0, 7.0])
        X, resp, subj = pooled_rows(ds, ("1", "lm", "a_prev"))
        assert X.shape == (6, 3)
        # occasion 0 block: lm = L0, a_prev = 0
        np.testing.assert_array_equal(X[:3, 1], ds.L[:, 0])
        np.testing.assert_array_equal(X[:3, 2], np.zeros(3))
        np.testing.assert_array_equal(resp[:3], ds.A[:, 0])
        # occasion 1 block: lm = L1, a_prev = A0
        np.testing.assert_array_equal(X[3:, 1], ds.L[:, 1])
        np.testing.assert_array_equal(X[3:, 2], ds.A[:, 0])
        np.testing.assert_array_equal(resp[3:], ds.A[:, 1])
        np.testing.assert_array_equal(subj, [0, 1, 2, 0, 1, 2])
