"""Linear and logistic maximum likelihood plus Wald / Rao score tests.

Fits are computed from scratch: the linear model by normal-equation solve
(numpy's Cholesky with a one-shot jitter retry), the logistic by Newton
iteration with step-halving.  Score tests of added covariates are for a
logistic null: evaluated at the null fit with the usual nuisance
projection, or at known coefficients without it, for designs whose
treatment probabilities are known exactly.  One moments function,
``_score_moments``, serves both the model-based and the subject-robust
variance.  Only ``numpy.linalg`` is used: importing ``scipy.linalg``
would add about 6 MB of resident memory to every import of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from .data import Dataset
from .errors import ConvergenceError, EstimationError, SeparationError
from .features import eval_terms, history_cols

_COND_LIMIT = 1e12
_JITTER = 1e-10
_MAX_ITER = 100
_SCORE_TOL = 1e-8
_LOGLIK_TOL = 1e-10
_SEP_LIMIT = 30.0

ESTIMATED_DESIGN_NOTE = (
    "treatment model estimated from the data; the test level relies on its "
    "correct specification"
)


def expit(b):
    """Inverse logit, overflow-safe over the whole float range."""
    b = np.asarray(b, dtype=float)
    e = np.exp(-np.abs(b))
    out = np.where(b >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def logit(p):
    p = np.asarray(p, dtype=float)
    out = np.log(p) - np.log1p(-p)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FittedGlm:
    family: str  # "normal" | "binomial"
    coef: np.ndarray
    dispersion: float
    vcov: np.ndarray
    converged: bool
    iterations: int
    loglik: float
    n: int


@dataclass(frozen=True)
class TestReport:
    """A test statistic with its reference distribution and decision."""

    statistic: float
    df: int | None  # chi-square df, or None for a standard-normal reference
    reference: str  # "chi2" | "normal"
    p_value: float
    level: float
    reject: bool
    note: str = ""

    def recomputed_p(self) -> float:
        return _tail_p(self.statistic, self.df, self.reference)


def _tail_p(statistic: float, df: int | None, reference: str) -> float:
    """p-value of a statistic: chi-square(df) upper tail, or two-sided normal.

    A chi-square statistic on 0 df carries no information and gets p = 1.
    """
    if reference == "chi2":
        return float(chdtrc(df, statistic)) if df and df > 0 else 1.0
    return float(2.0 * ndtr(-abs(statistic)))


def _report(statistic: float, df: int | None, reference: str, level: float,
            note: str = "") -> TestReport:
    p = _tail_p(statistic, df, reference)
    return TestReport(float(statistic), df, reference, p, level, p < level, note)


def _chol_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs for symmetric positive definite M through its lower
    Cholesky factor, retrying once with a small ridge added to M."""
    try:
        c = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        jitter = _JITTER * (np.trace(M) / M.shape[0] + 1.0)
        try:
            c = np.linalg.cholesky(M + jitter * np.eye(M.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise EstimationError(f"singular normal equations: {exc}") from exc
    return np.linalg.solve(c.T, np.linalg.solve(c, rhs))


def _check_condition(XtX: np.ndarray) -> None:
    eig = np.linalg.eigvalsh(XtX)
    lo, hi = float(eig[0]), float(eig[-1])
    if hi <= 0 or lo <= 0 or hi / lo > _COND_LIMIT:
        raise EstimationError(
            f"rank deficiency: condition number of the normal equations "
            f"exceeds {_COND_LIMIT:g}"
        )


def _as_matrix(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def fit_linear(X: np.ndarray, y: np.ndarray) -> FittedGlm:
    """Gaussian MLE: normal-equation solve, dispersion = mean squared residual."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n < p:
        raise EstimationError(f"n={n} smaller than parameter count p={p}")
    XtX = X.T @ X
    _check_condition(XtX)
    coef = _chol_solve(XtX, X.T @ y)
    resid = y - X @ coef
    sigma2 = float(np.mean(resid**2))
    vcov = sigma2 * _chol_solve(XtX, np.eye(p))
    vcov = 0.5 * (vcov + vcov.T)
    if sigma2 > 0:
        loglik = -0.5 * n * (np.log(2.0 * np.pi * sigma2) + 1.0)
    else:
        loglik = np.inf
    return FittedGlm("normal", coef, sigma2, vcov, True, 1, float(loglik), n)


def _binom_loglik(eta: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def fit_logistic(X: np.ndarray, y: np.ndarray) -> FittedGlm:
    """Bernoulli MLE by Newton iteration with step-halving."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n < p:
        raise EstimationError(f"n={n} smaller than parameter count p={p}")
    if np.any((np.abs(y) > 1e-9) & (np.abs(y - 1.0) > 1e-9)):
        raise EstimationError("logistic response must be 0/1")
    coef = np.zeros(p)
    eta = X @ coef
    ll = _binom_loglik(eta, y)
    for it in range(1, _MAX_ITER + 1):
        prob = expit(eta)
        score = X.T @ (y - prob)
        if np.max(np.abs(coef)) > _SEP_LIMIT:
            raise SeparationError(
                "separation detected: coefficient magnitude exceeded "
                f"{_SEP_LIMIT:g} while the likelihood was still climbing"
            )
        if np.max(np.abs(score)) < _SCORE_TOL:
            break
        w = prob * (1.0 - prob)
        H = X.T @ (X * w[:, None])
        step = _chol_solve(H, score)
        lam = 1.0
        for _ in range(40):
            trial = coef + lam * step
            eta_t = X @ trial
            ll_t = _binom_loglik(eta_t, y)
            if ll_t >= ll - 1e-12:
                break
            lam *= 0.5
        coef, eta = trial, eta_t
        if abs(ll_t - ll) < _LOGLIK_TOL * (abs(ll) + 1.0):
            if np.max(np.abs(coef)) > _SEP_LIMIT:
                raise SeparationError(
                    "separation detected: coefficient magnitude exceeded "
                    f"{_SEP_LIMIT:g} while the likelihood was still climbing"
                )
            break
        ll = ll_t
    else:
        raise ConvergenceError(f"logistic fit did not converge in {_MAX_ITER} iterations")
    prob = expit(eta)
    w = prob * (1.0 - prob)
    H = X.T @ (X * w[:, None])
    vcov = _chol_solve(H, np.eye(p))
    vcov = 0.5 * (vcov + vcov.T)
    return FittedGlm("binomial", coef, 1.0, vcov, True, it, _binom_loglik(eta, y), n)


def wald_test(fit: FittedGlm, idx: list[int] | tuple[int, ...],
              level: float = 0.05, note: str = "") -> TestReport:
    """Joint chi-square test that the indexed coefficients are all zero."""
    idx = list(idx)
    c = fit.coef[idx]
    V = fit.vcov[np.ix_(idx, idx)]
    try:
        stat = float(c @ np.linalg.solve(V, c))
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"singular covariance block in Wald test: {exc}") from exc
    return _report(stat, len(idx), "chi2", level, note)


def score_test_added(X: np.ndarray, y: np.ndarray, Z: np.ndarray, *,
                     fit: FittedGlm | None = None, known_coef: np.ndarray | None = None,
                     level: float = 0.05, note: str = "") -> TestReport:
    """Rao score test that the added columns Z enter the logistic null model
    of y on X with zero coefficient, with the model-based variance."""
    U, V = _score_moments(X, y, Z, fit=fit, known_coef=known_coef)
    return _quadratic_report(U, V, level, note)


def robust_score_test(X: np.ndarray, y: np.ndarray, Z: np.ndarray, subjects: np.ndarray, *,
                      fit: FittedGlm | None = None, known_coef: np.ndarray | None = None,
                      level: float = 0.05, note: str = "") -> TestReport:
    """As ``score_test_added``, with the within-subject-robust variance for
    stacked rows that are dependent within subject."""
    U, V = _score_moments(X, y, Z, subjects, fit=fit, known_coef=known_coef)
    return _quadratic_report(U, V, level, note)


def _score_moments(X, y, Z, subjects=None, *, fit: FittedGlm | None = None,
                   known_coef: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Score U of the added columns Z at the logistic null and its variance V.

    The null probabilities come from ``known_coef`` when given (a known
    randomization design: no nuisance projection) and from ``fit``, or a fit
    of y on X, otherwise.  Without ``subjects`` V is the model-based
    variance; with them it is P'P over the per-subject score pieces P, with
    Z projected on the null's score when the null is fitted.  U and V are
    linear in Z's columns, so for Z = [Z_0, ..., Z_d] their blocks give the
    score and variance of every combination of the Z_j.
    """
    X = _as_matrix(X)
    Z = _as_matrix(Z)
    y = np.asarray(y, dtype=float)
    coef = (fit or fit_logistic(X, y)).coef if known_coef is None else known_coef
    prob = expit(X @ np.asarray(coef, dtype=float))
    w = prob * (1.0 - prob)
    eps = y - prob
    U = Z.T @ eps
    if subjects is None:
        Zw = Z * w[:, None]
        V = Z.T @ Zw
        if known_coef is None:
            XtWZ = X.T @ Zw
            V = V - XtWZ.T @ _chol_solve(X.T @ (X * w[:, None]), XtWZ)
        return U, V
    adj = Z
    if known_coef is None:
        Xw = X * w[:, None]
        adj = Z - X @ _chol_solve(X.T @ Xw, (Z.T @ Xw).T)
    subjects = np.asarray(subjects, dtype=int)
    nsub = int(subjects.max()) + 1
    pieces = np.zeros((nsub, Z.shape[1]))
    for j in range(Z.shape[1]):
        pieces[:, j] = np.bincount(subjects, weights=adj[:, j] * eps, minlength=nsub)
    return U, pieces.T @ pieces


def _quadratic_report(U: np.ndarray, V: np.ndarray, level: float, note: str) -> TestReport:
    """U' V^+ U against chi-square(rank V), through ``_quadratic_stats``."""
    stat, df, p = _quadratic_stats(U[None], V[None])
    p0 = float(p[0])
    return TestReport(float(stat[0]), int(df[0]), "chi2", p0, level, p0 < level, note)


def _quadratic_stats(U: np.ndarray, V: np.ndarray):
    """Score statistics U' V^+ U for a batch: U is (G, q), V is (G, q, q).

    Returns the statistics, their chi-square df (the rank of V) and the
    p-values.  A V with no information (all-zero or duplicated columns)
    gives statistic 0 on q df; a rank-deficient V whose statistic is below
    1e-8 gives 0.
    """
    G, q = U.shape
    if q == 0:
        return np.zeros(G), np.zeros(G, dtype=int), np.ones(G)
    eigval, eigvec = np.linalg.eigh(0.5 * (V + V.transpose(0, 2, 1)))
    top = eigval[:, -1]
    empty = (top <= 0) | (top < 1e-12 * np.maximum(1.0, np.abs(U).max(axis=1) ** 2))
    keep = eigval > 1e-10 * top[:, None]
    rank = keep.sum(axis=1)
    proj = np.einsum("gij,gi->gj", eigvec, U)
    stat = (np.where(keep, proj, 0.0) ** 2 / np.where(keep, eigval, 1.0)).sum(axis=1)
    stat[empty | ((rank < q) & (stat < 1e-8))] = 0.0
    df = np.where(empty, q, rank)
    # As in ``_tail_p``: a statistic on 0 df (a V of NaNs) gets p = 1.
    return stat, df, np.where(df > 0, chdtrc(df, stat), 1.0)


def pooled_rows(
    dataset: Dataset,
    terms: tuple[str, ...] | list[str],
    occasions: list[int] | None = None,
):
    """Stack person-occasions into one design.

    Returns (X, response, subjects).  Row order is occasion-major: all
    subjects at the first occasion, then the next.
    """
    occs = list(range(dataset.schema.K + 1)) if occasions is None else list(occasions)
    blocks, resp = [], []
    for m in occs:
        cols = history_cols(dataset.L, dataset.A, m + 1, m, m)
        blocks.append(eval_terms(tuple(terms), cols))
        resp.append(dataset.A[:, m])
    return np.vstack(blocks), np.concatenate(resp), np.tile(np.arange(dataset.n), len(occs))
