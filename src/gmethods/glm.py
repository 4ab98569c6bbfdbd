"""Linear and logistic maximum likelihood plus Wald / Rao score tests.

Fits are computed from scratch: the linear model by normal-equation solve
(numpy's Cholesky with a one-shot jitter retry), the logistic by Newton
iteration with step-halving on the distinct design rows, each weighted by
its count and carrying its sum of responses (the Bernoulli likelihood's
sufficient statistics).  Score tests of added covariates read their null
as per-row means: a logistic null at its fit, with the usual nuisance
projection, or at known coefficients without it; a known design's means;
or a least-squares fit.  One moments function, ``_score_moments``, serves
both the model-based and the subject-robust variance, and gives the one
degenerate rule: a variance at its rounding floor, which scales with the
added columns, carries no information.  Only
``numpy.linalg`` is used: importing ``scipy.linalg`` would add about 6 MB
of resident memory to every import of the package.

The normal CDF is 0.5 erfc(-x / sqrt 2), and the chi-square tail for an
integer df is its closed form over erfc and the exponential (Abramowitz &
Stegun 1964, 26.4.4-5), both on ``math.erfc``.  So ``scipy.special`` is
not imported: it loads a copy of numpy's namespace that costs about 0.25 s
and 26 MB in every process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _is_binary, group_rows
from .errors import ConvergenceError, EstimationError, SeparationError, _level
from .features import eval_terms, history_cols

_COND_LIMIT = 1e12
_JITTER = 1e-10
_MAX_ITER = 100
_SCORE_TOL = 1e-8
_LOGLIK_TOL = 1e-10
_SEP_LIMIT = 30.0

_SQRT1_2 = math.sqrt(0.5)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)  # 1 / Gamma(3/2)
# An infinite chi-square statistic is taken as this one, so that its tail
# meets no inf * 0.
_HUGE_STAT = 1e300

ESTIMATED_DESIGN_NOTE = (
    "treatment model estimated from the data; the test level relies on its "
    "correct specification"
)


def expit(b):
    """Inverse logit, overflow-safe over the whole float range."""
    b = np.asarray(b, dtype=float)
    e = np.exp(-np.abs(b))
    out = np.where(b >= 0, 1.0, e)
    e += 1.0
    out /= e
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


def _erfc(z: np.ndarray) -> np.ndarray:
    """``math.erfc`` of each element (numpy has no erfc)."""
    return np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


def _ndtr(x):
    """Standard normal CDF of a scalar or an array, 0.5 erfc(-x / sqrt 2)."""
    if isinstance(x, (int, float)):
        return 0.5 * math.erfc(-x * _SQRT1_2)
    return 0.5 * _erfc(-np.asarray(x, dtype=float) * _SQRT1_2)


def _chi2_sf(df: int, x):
    """Upper tail of chi-square(df), for an integer df >= 1, at a scalar or
    an array x.  With h = x / 2 (A&S 26.4.4-5):

        even df:  e^-h sum_{j < df/2} h^j / j!
        odd df:   erfc(sqrt h) + e^-h sum_{j=1}^{(df-1)/2} h^(j-1/2) / Gamma(j+1/2)

    Every term is positive, so the sums lose no digits.  e^-h is taken as
    the square of e^(-h/2), which stays a normal number until the tail
    itself underflows.  x <= 0 gives 1, inf gives 0 and nan gives nan.
    A scalar and an array run the same floating-point operations, with
    numpy's exponential for both (``math.exp`` differs from it in the last
    bit), so they agree to the bit.
    """
    terms, half = df // 2, 0.5 * (df % 2)
    if isinstance(x, (int, float)):
        if not x > 0.0:
            return 1.0 if x <= 0.0 else math.nan
        h, sqrt, erfc, exp = 0.5 * min(x, _HUGE_STAT), math.sqrt, math.erfc, _float_exp
    else:
        h = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), _HUGE_STAT)  # nan stays
        h *= 0.5
        sqrt, erfc, exp = np.sqrt, _erfc, np.exp
    root = sqrt(h) if half else None
    if not terms:
        return erfc(root)
    e = exp(h * -0.5)
    t = e * root * _TWO_OVER_SQRT_PI if half else e
    total = t
    for j in range(1, terms):
        t = t * h / (j + half)
        total = total + t
    total = total * e
    return erfc(root) + total if half else total


def _float_exp(v: float) -> float:
    """numpy's exponential of a float, as a float (see ``_chi2_sf``)."""
    return float(np.exp(v))


def _chi2_sfs(df: np.ndarray, stat: np.ndarray) -> np.ndarray:
    """Chi-square p-values of a batch of statistics on their own df, which
    are nearly always one value; a row on 0 df gets p = 1, as in ``_tail_p``."""
    ks = df.tolist()
    if ks[0] > 0 and ks.count(ks[0]) == len(ks):
        return _chi2_sf(ks[0], stat)
    return np.array([_tail_p(s, k, "chi2") for s, k in zip(stat.tolist(), ks)])


def _tail_p(statistic: float, df: int | None, reference: str) -> float:
    """p-value of a statistic: chi-square(df) upper tail, or two-sided normal.

    A chi-square statistic on 0 df carries no information and gets p = 1.
    """
    if reference == "chi2":
        return float(_chi2_sf(df, statistic)) if df and df > 0 else 1.0
    return float(2.0 * _ndtr(-abs(statistic)))


def _report(statistic: float, df: int | None, reference: str, level: float,
            note: str = "") -> TestReport:
    _level("level", level)
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
    if not np.isfinite(y).all():
        raise EstimationError("linear response is non-finite")
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


def _binom_loglik(eta: np.ndarray, ysum: np.ndarray, count: np.ndarray) -> float:
    return float(np.sum(ysum * eta - count * np.logaddexp(0.0, eta)))


def fit_logistic(X: np.ndarray, y: np.ndarray) -> FittedGlm:
    """Bernoulli MLE by Newton iteration with step-halving.

    The likelihood reads the data only through each distinct row of X, its
    count and its sum of y, so the iteration runs on those rows (exactly
    equal rows grouped by ``group_rows``), with the score, the Hessian and
    the log-likelihood weighted by the counts.  A design with no repeated
    rows is n groups of one.  ``n`` of the result is the row count of X.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n < p:
        raise EstimationError(f"n={n} smaller than parameter count p={p}")
    if not _is_binary(y):
        raise EstimationError("logistic response must be 0/1")
    X, group = group_rows(X, decimals=None)
    count = np.bincount(group, minlength=len(X)).astype(float)
    ysum = np.bincount(group, weights=y, minlength=len(X))
    coef = np.zeros(p)
    eta = X @ coef
    ll = _binom_loglik(eta, ysum, count)
    for it in range(1, _MAX_ITER + 1):
        prob = expit(eta)
        score = X.T @ (ysum - count * prob)
        if np.max(np.abs(coef)) > _SEP_LIMIT:
            raise SeparationError(
                "separation detected: coefficient magnitude exceeded "
                f"{_SEP_LIMIT:g} while the likelihood was still climbing"
            )
        if np.max(np.abs(score)) < _SCORE_TOL:
            break
        w = count * prob * (1.0 - prob)
        H = X.T @ (X * w[:, None])
        step = _chol_solve(H, score)
        lam = 1.0
        for _ in range(40):
            trial = coef + lam * step
            eta_t = X @ trial
            ll_t = _binom_loglik(eta_t, ysum, count)
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
    w = count * prob * (1.0 - prob)
    H = X.T @ (X * w[:, None])
    vcov = _chol_solve(H, np.eye(p))
    vcov = 0.5 * (vcov + vcov.T)
    return FittedGlm("binomial", coef, 1.0, vcov, True, it,
                     _binom_loglik(eta, ysum, count), n)


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
    U, V, F = _score_moments(Z, None, _logistic_null(X, y, fit, known_coef))
    return _quadratic_report(U, V, F, level, note)


def robust_score_test(X: np.ndarray, y: np.ndarray, Z: np.ndarray, subjects: np.ndarray, *,
                      fit: FittedGlm | None = None, known_coef: np.ndarray | None = None,
                      level: float = 0.05, note: str = "") -> TestReport:
    """As ``score_test_added``, with the within-subject-robust variance for
    stacked rows that are dependent within subject."""
    U, V, F = _score_moments(Z, subjects, _logistic_null(X, y, fit, known_coef))
    return _quadratic_report(U, V, F, level, note)


def _null(y, mean, w=None, X=None):
    """A null as ``_score_moments`` reads it: the residuals y - mean, their
    size (the mean of y^2 + mean^2, which bounds their rounding error), the
    variance per row (None: no variance function) and, for a fitted null,
    the design whose score the added columns are projected off."""
    return y - mean, (y.dot(y) + mean.dot(mean)) / len(y), w, X


def _logistic_null(X, y, fit: FittedGlm | None = None, known_coef=None):
    """The logistic null of y on X at ``known_coef`` (a known design, no
    projection) or ``fit``, or a fit."""
    X, y = _as_matrix(X), np.asarray(y, dtype=float)
    coef = (fit or fit_logistic(X, y)).coef if known_coef is None else known_coef
    prob = expit(X.dot(np.asarray(coef, dtype=float)))
    return _null(y, prob, prob * (1.0 - prob), X if known_coef is None else None)


def _least_squares_null(X, y):
    """The least-squares null of y on X, with no variance function and an
    orthonormal design Q = X c (c c' = (X'X)^-1), projected without a solve."""
    Q = X.dot(np.linalg.cholesky(_chol_solve(X.T @ X, np.eye(X.shape[1]))))
    return _null(y, Q.dot(Q.T @ y), None, Q)  # dot: numpy's @ of one column skips BLAS


def _score_moments(Z, subjects, null) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score U of the added columns Z at ``null`` (see ``_null``), its
    variance V and V's rounding floor F: the one degenerate rule, unchanged
    by the scale of Z, is that a V at or below F carries no information.

    Without ``subjects`` V is the model-based Z'WZ, less its projection on
    a fitted null's design, and F is 1e-12 Z'WZ; with them V is P'P over
    the per-subject score pieces P, whose residuals may be rounding (a null
    that fits exactly), and F is 1e-24 Z'Z times the null's size.  All three
    are linear in each of Z's columns, so for Z = [Z_0, ..., Z_d] their
    blocks give every combination's."""
    Z = _as_matrix(Z)
    eps, size, w, X = null
    U = Z.T @ eps
    if subjects is None:
        Zw = Z * w[:, None]
        V = Z.T @ Zw
        F = 1e-12 * V
        if X is not None:
            XtWZ = X.T @ Zw
            V = V - XtWZ.T @ _chol_solve(X.T @ (X * w[:, None]), XtWZ)
        return U, V, F
    adj = Z
    if X is not None and w is None:  # least squares: X is orthonormal
        adj = Z - X.dot(X.T @ Z)
    elif X is not None:
        Xw = X * w[:, None]
        adj = Z - X.dot(_chol_solve(X.T @ Xw, (Z.T @ Xw).T))
    subjects = np.asarray(subjects, dtype=int)
    nsub = int(subjects.max()) + 1
    pieces = np.zeros((nsub, Z.shape[1]))
    for j in range(Z.shape[1]):
        pieces[:, j] = np.bincount(subjects, weights=adj[:, j] * eps, minlength=nsub)
    return U, pieces.T @ pieces, 1e-24 * size * (Z.T @ Z)


def _quadratic_report(U: np.ndarray, V: np.ndarray, F: np.ndarray, level: float,
                      note: str) -> TestReport:
    """U' V^+ U against chi-square(rank V), through ``_quadratic_stats``."""
    stat, df = _quadratic_stats(U[None], V[None], np.trace(F)[None])
    return _report(float(stat[0]), int(df[0]), "chi2", level, note)


def _quadratic_stats(U: np.ndarray, V: np.ndarray, floor: np.ndarray):
    """Score statistics U' V^+ U for a batch: U is (G, q), V is (G, q, q)
    and ``floor`` (G,) the traces of their rounding floors.

    Returns the statistics and their chi-square df, the rank of V (``_chi2_sfs``
    gives their p-values).  A V with no information (all-zero columns, or
    every column in the null's span) gives statistic 0 on q df; a
    rank-deficient V whose statistic is below 1e-8 gives 0.
    """
    G, q = U.shape
    if q == 0:
        return np.zeros(G), np.zeros(G, dtype=int)
    eigval, eigvec = np.linalg.eigh(0.5 * (V + V.transpose(0, 2, 1)))
    top = eigval[:, -1]
    empty = top <= floor
    keep = eigval > 1e-10 * top[:, None]
    rank = keep.sum(axis=1)
    proj = np.einsum("gij,gi->gj", eigvec, U)
    stat = (np.where(keep, proj, 0.0) ** 2 / np.where(keep, eigval, 1.0)).sum(axis=1)
    stat[empty | ((rank < q) & (stat < 1e-8))] = 0.0
    return stat, np.where(empty, q, rank)


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
    subjects = np.concatenate([np.arange(dataset.n)] * len(occs))
    return np.vstack(blocks), np.concatenate(resp), subjects
