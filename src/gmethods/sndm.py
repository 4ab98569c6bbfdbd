"""Structural nested distribution models for the treatment-shift families.

A blip at occasion m maps the outcome quantile under "history then stop
treating" to the quantile under "history minus the last treatment, then
stop".  The families here are shift families built from per-occasion
cofactor terms c_j(l_bar_m, a_bar_{m-1}):

    additive:        y  ->  y + a_m * sum_j psi_j c_j
    multiplicative:  y  ->  y * exp(a_m * sum_j psi_j c_j)

Every term carries the a_m factor, so the blip is the identity at a_m = 0,
strictly increasing and smooth in y, and the identity for all arguments
iff psi = 0.  Blipping the observed outcome down through every occasion
yields the residual outcome H, independent of each A_m given history when
psi is the truth — the moment condition behind g-estimation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy.special import gammaincinv

# scipy.optimize is imported inside the numerical fallbacks and sndm_mle
# only: it adds about 17 MB and 0.2 s to every import of the package, and
# the closed-form path never needs it.

from .data import Dataset, _write_table
from .errors import ConfigError, ConvergenceError, EstimationError, _level
from .features import eval_terms, history_cols, term_bases
from .features import uses_covariates as _terms_use_covariates
from .gformula import RegimeDistribution
from .glm import (
    ESTIMATED_DESIGN_NOTE,
    FittedGlm,
    TestReport,
    _least_squares_null,
    _logistic_null,
    _null,
    _quadratic_stats,
    _report,
    _score_moments,
    fit_logistic,
    pooled_rows,
    robust_score_test,
    score_test_added,
)

_FORBIDDEN_COFACTOR_BASES = {"y", "u", "h"}
# An affine score's slope B with a larger condition number has no usable
# root; the search then falls back to the numerical path.
_ROOT_COND_LIMIT = 1e12


@dataclass(frozen=True)
class BlipSpec:
    """A shift-family blip: per-component cofactor terms and optional psi."""

    family: str  # "additive" | "multiplicative"
    cofactors: tuple[str, ...]
    psi: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in ("additive", "multiplicative"):
            raise ConfigError(f"unknown blip family {self.family!r}")
        if not self.cofactors:
            raise ConfigError("at least one cofactor term required")
        bad = term_bases(self.cofactors) & _FORBIDDEN_COFACTOR_BASES
        if bad:
            raise ConfigError(
                f"cofactors may only reference history before the current "
                f"treatment; found {sorted(bad)}"
            )
        if self.psi is not None:
            psi = tuple(float(v) for v in self.psi)
            if len(psi) != len(self.cofactors):
                raise ConfigError("psi length must match the cofactor count")
            object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "cofactors", tuple(self.cofactors))

    @property
    def dim(self) -> int:
        return len(self.cofactors)

    @property
    def uses_covariates(self) -> bool:
        return _terms_use_covariates(self.cofactors)

    def with_psi(self, psi) -> "BlipSpec":
        return replace(self, psi=tuple(np.atleast_1d(np.asarray(psi, float))))

    def require_psi(self) -> np.ndarray:
        if self.psi is None:
            raise ConfigError("blip has no psi attached; call with_psi first")
        return np.asarray(self.psi, dtype=float)


def additive_blip(*cofactors: str, psi=None) -> BlipSpec:
    spec = BlipSpec("additive", tuple(cofactors))
    return spec.with_psi(psi) if psi is not None else spec


def multiplicative_blip(*cofactors: str, psi=None) -> BlipSpec:
    spec = BlipSpec("multiplicative", tuple(cofactors))
    return spec.with_psi(psi) if psi is not None else spec


def cofactor_matrix(spec: BlipSpec, L: np.ndarray, A: np.ndarray, m: int) -> np.ndarray:
    """(n, dim) matrix of cofactor values at occasion m, from the history before A_m."""
    return _cofactor_rows(spec, L, A, (m,))[0]


def shift_basis(spec: BlipSpec, L: np.ndarray, A: np.ndarray,
                occasions=None) -> np.ndarray:
    """(n, dim) matrix S with S @ psi = total shift over the blipped occasions.

    ``occasions`` restricts which treatments the family acts on (default:
    all); treatments at other occasions are left as unmodeled context.
    """
    occs = range(L.shape[1]) if occasions is None else occasions
    return _shift(A, occs, _cofactor_rows(spec, L, A, occs), spec.dim)


def _cofactor_rows(spec: BlipSpec, L: np.ndarray, A: np.ndarray, occs,
                   fixed=()) -> list[np.ndarray]:
    """Each occasion m's cofactor rows C_m.

    Occasion m's rows read l0..lm, "lm", a0..a(m-1), "a_prev" and the
    treatments after m at the held-fixed occasions ``fixed``: a treatment
    held fixed by weighting is context, so a later one may modify the
    effect.  A term naming any other column is a ``ConfigError``.
    """
    return [eval_terms(spec.cofactors, history_cols(
        L, A, m + 1, m, m, extra={f"a{k}": A[:, k] for k in fixed if k > m})) for m in occs]


def _shift(A: np.ndarray, occs, C: list[np.ndarray], dim: int) -> np.ndarray:
    """The (n, dim) shift basis S, the sum over occasions m of A_m C_m."""
    S = np.zeros((A.shape[0], dim))
    for m, c in zip(occs, C):
        S += A[:, m][:, None] * c
    return S


def _check_outcomes(family: str, Y: np.ndarray) -> None:
    """The multiplicative family is defined for positive outcomes only."""
    if family == "multiplicative" and np.any(Y <= 0):
        raise EstimationError("multiplicative blip family requires positive outcomes")


def _residual_outcome(family: str, Y: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Y blipped down by a total shift: Y + shift, or Y exp(shift) (positive Y,
    see ``_check_outcomes``)."""
    if family == "additive":
        return Y + shift
    return Y * np.exp(shift)


@dataclass(frozen=True)
class BlipDownResult:
    """Residual outcomes H_m (blipped down from occasion m on) and the Jacobian."""

    h_per_occasion: np.ndarray  # (n, K+1); column m holds H_m
    h: np.ndarray  # (n,) = H_0
    jacobian: np.ndarray  # (n,) dH/dY, always > 0


def blip_down_arrays(spec: BlipSpec, L: np.ndarray, A: np.ndarray, Y: np.ndarray) -> BlipDownResult:
    psi = spec.require_psi()
    n, K1 = L.shape
    _check_outcomes(spec.family, Y)
    per = np.empty((n, K1))
    h = np.asarray(Y, dtype=float).copy()
    log_jac = np.zeros(n)
    for m in range(K1 - 1, -1, -1):
        s = A[:, m] * (cofactor_matrix(spec, L, A, m) @ psi)
        if spec.family == "additive":
            h = h + s
        else:
            h = h * np.exp(s)
            log_jac += s
        per[:, m] = h
    jac = np.ones(n) if spec.family == "additive" else np.exp(log_jac)
    return BlipDownResult(per, per[:, 0], jac)


def blip_down(spec: BlipSpec, dataset: Dataset) -> BlipDownResult:
    """H-recursion over every subject of a dataset."""
    return blip_down_arrays(spec, dataset.L, dataset.A, dataset.Y)


def blip_up(spec: BlipSpec, h: np.ndarray, L: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Invert the full H-recursion: recover outcomes from residual outcomes."""
    psi = spec.require_psi()
    S = shift_basis(spec, L, A)
    # By column, as ``laws._linear``: a row's value does not depend on its batch.
    total = sum(S[:, j] * float(p) for j, p in enumerate(psi))
    h = np.asarray(h, dtype=float)
    if spec.family == "additive":
        return h - total
    return h * np.exp(-total)


@dataclass(frozen=True)
class GEstimate:
    """g-estimation output: point estimate plus a test-inversion confidence set."""

    psi_hat: np.ndarray
    statistic_at_hat: float
    p_at_hat: float
    boundary: bool
    grid: np.ndarray  # (G, dim)
    grid_stats: np.ndarray
    grid_pvals: np.ndarray
    accepted: np.ndarray  # grid points not rejected at `level`
    resolution: tuple[int, ...]
    level: float
    method: str  # how psi_hat was found: "closed-form", "bounded", "nelder-mead"
    note: str = ""

    @property
    def confidence_set(self) -> np.ndarray:
        return self.grid[self.accepted]

    @property
    def pieces(self) -> int:
        """How many runs of consecutive accepted points a 1-D grid holds."""
        run = np.flatnonzero(self.accepted)
        return int(run.size > 0) + int(np.count_nonzero(np.diff(run) > 1))

    @property
    def interval(self) -> tuple[float, float] | None:
        """The ends of a 1-D confidence set whose accepted grid points form
        one run; None for an empty set, a set in several pieces (two rays
        cut off by the box would otherwise read as one interval) or d > 1."""
        if self.grid.shape[1] != 1 or self.pieces != 1:
            return None
        ends = self.confidence_set[[0, -1], 0]
        return float(ends[0]), float(ends[1])

    def to_csv(self, path: str) -> None:
        header = [f"psi{j}" for j in range(self.grid.shape[1])] + ["statistic", "p", "accept"]
        _write_table(path, header, [*self.grid.T, self.grid_stats, self.grid_pvals,
                                    self.accepted.astype(int)])


class _ScoreEngine:
    """Score test of "psi is the true blip parameter" in a pooled treatment model.

    ``rows`` are the pooled treatment-model rows from ``pooled_rows`` at the
    tested occasions ``occs`` (no design under ``null_means``); ``C`` holds
    each tested occasion's q rows, the history terms that the residual
    outcome is paired with, and ``B`` the blip's cofactor rows, whose shift
    basis S (built on first use) blips Y by ``S @ psi`` in ``family``.
    At each psi the added columns pair H(psi) with the q rows (or come from
    ``qstar(h, L, A, m)``) and are divided by the row ``weights``, if any.
    The null becomes per-row means once: logistic (``known_coef`` or fitted),
    whose p(1 - p) gives the model-based variance, or, with the robust one
    like row weights, ``null_means`` or the ``least_squares`` fit.

    Every caller's inputs are checked here: a level in (0, 1), a finite
    outcome, 0/1 treatments under a logistic null, one ``known_coef``
    per treatment term, a user q*'s shape and values (see ``g_estimate``), and,
    when the null is fitted, no nonzero-constant added column.

    For the additive family with the default q* the added columns are affine
    in psi, Z(psi) = Z_0 + sum_j psi_j Z_j with Z_0 pairing Y and Z_j pairing
    S_j with the q rows.  The score U(psi) = a + B psi and its variance,
    quadratic in psi, then come from the score and variance of the stacked
    [Z_0, ..., Z_d], computed once (``affine``): ``stats`` scores a whole
    batch of psi in O(q^2) per point and, when B is square (q = d),
    ``root`` solves B psi = -a.
    """

    def __init__(self, dataset: Dataset, family: str, rows, occs, C, B, *,
                 qstar: Callable | None, known_coef, note: str, level: float,
                 weights: np.ndarray | None = None, null_means=None, least_squares=False):
        _level("level", level)
        self.X, self.resp, self.subj = rows
        logistic = null_means is None and not least_squares
        for m in occs if logistic else ():
            a = dataset.A[:, m]
            if np.any((np.abs(a) > 1e-9) & (np.abs(a - 1.0) > 1e-9)):
                raise EstimationError(f"score test needs binary treatments; A{m} is not 0/1")
        _check_outcomes(family, dataset.Y)
        if not np.isfinite(dataset.Y).all():
            raise EstimationError("outcome Y is non-finite")
        self.dataset = dataset
        self.family = family
        self.occs = list(occs)
        self.C = C
        self.B = B
        self.qstar = qstar
        self.weights = weights
        self.note = note
        self.level = level
        try:
            self.known = None if known_coef is None else np.asarray(known_coef, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("alpha_known must be a list of numbers") from None
        if self.known is not None and self.known.shape != (self.X.shape[1],):
            raise ConfigError("alpha_known must match the treatment terms")
        self.fit: FittedGlm | None = (fit_logistic(self.X, self.resp)
                                      if logistic and self.known is None else None)
        self.null = (_logistic_null(self.X, self.resp, self.fit, self.known) if logistic
                     else _least_squares_null(self.X, self.resp) if least_squares
                     else _null(self.resp, null_means))
        self.subjects = self.subj if weights is not None or not logistic else None

    @cached_property
    def S(self) -> np.ndarray:
        return _shift(self.dataset.A, self.occs, self.B, self.B[0].shape[1])

    @cached_property
    def affine(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The score blocks (d+1, q) and variance blocks (d+1, q, d+1, q) of
        [Z_0, Z_1, ..., Z_d], and the (d+1, d+1) traces of their rounding
        floor's blocks; None unless the family is additive with the
        default q*.  Built on first use, so engines that only ``report`` never
        pay for it."""
        if self.family != "additive" or self.qstar is not None:
            return None
        q = self.C[0].shape[1]
        bases = [self.dataset.Y] + list(self.S.T)
        Z = np.hstack([self._weighted(np.vstack([b[:, None] * c for c in self.C]))
                       for b in bases])
        U, V, F = _score_moments(Z, self.subjects, self.null)
        k = len(bases)
        return U.reshape(k, q), V.reshape(k, q, k, q), F.reshape(k, q, k, q).trace(axis1=1, axis2=3)

    def _weighted(self, Z: np.ndarray) -> np.ndarray:
        return Z if self.weights is None else Z / self.weights[:, None]

    def h_of(self, psi: np.ndarray) -> np.ndarray:
        if not psi.any():  # H(0) = Y in both families
            return self.dataset.Y
        return _residual_outcome(self.family, self.dataset.Y, self.S.dot(psi))

    def zmat(self, psi) -> np.ndarray:
        h = self.h_of(np.atleast_1d(np.asarray(psi, dtype=float)))
        Z = self._weighted(self._qstar_columns(h) if self.qstar is not None
                           else np.vstack([h[:, None] * C for C in self.C]))
        if self.null[3] is not None and np.any((Z == Z[0]).all(axis=0) & (Z[0] != 0.0)):
            raise EstimationError("added column Q is a nonzero constant; it is confounded "
                                  "with the intercept and cannot be tested")
        return Z

    def _qstar_columns(self, h: np.ndarray) -> np.ndarray:
        """The user q*'s columns, stacked over the tested occasions."""
        L, A = self.dataset.L, self.dataset.A
        blocks = [np.asarray(self.qstar(h, L, A, m), dtype=float) for m in self.occs]
        blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
        if any(b.ndim != 2 or b.shape[0] != len(h) for b in blocks) or \
                len({b.shape[1] for b in blocks}) > 1:
            raise ConfigError(f"q* must return one row per subject, (n,) or (n, k) with one "
                              f"k at every occasion; got {[b.shape for b in blocks]}")
        Z = np.vstack(blocks)
        if not np.isfinite(Z).all():
            raise ConfigError("q* produced non-finite values")
        return Z

    def report(self, psi) -> TestReport:
        """The chi-square score test at psi of a logistic null."""
        Z = self.zmat(psi)
        kw = dict(fit=self.fit, known_coef=self.known, level=self.level, note=self.note)
        if self.subjects is None:
            return score_test_added(self.X, self.resp, Z, **kw)
        return robust_score_test(self.X, self.resp, Z, self.subjects, **kw)

    def signed_report(self, psi) -> TestReport:
        """One added column's score at psi, U / sqrt(V), on the standard normal."""
        (u,), ((v,),), ((f,),) = _score_moments(self.zmat(psi), self.subjects, self.null)
        if v <= f:  # no information (see ``_score_moments``)
            return _report(0.0, None, "normal", self.level, self.note + "; degenerate score")
        return _report(u / np.sqrt(v), None, "normal", self.level, self.note)

    def stats(self, psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Statistics and p-values at each row of ``psis``: one batched pass
        for an affine score, else one ``report`` per row."""
        psis = np.asarray(psis, dtype=float)
        if self.affine is None:
            reps = [self.report(p) for p in psis]
            return (np.array([r.statistic for r in reps]),
                    np.array([r.p_value for r in reps]))
        u, M, F = self.affine
        c = np.column_stack([np.ones(len(psis)), psis])
        V = np.einsum("ga,aibj,gb->gij", c, M, c, optimize=_batch_path(*c.shape, M.shape[1]))
        stat, _, p = _quadratic_stats(c @ u, V, ((c @ F) * c).sum(axis=1))
        return stat, p

    def root(self) -> np.ndarray | None:
        """The psi where an affine score vanishes, if its slope B is square
        (q = d: with other q rows the statistic has no zero) and nonsingular."""
        if self.affine is None:
            return None
        u = self.affine[0]
        B = u[1:].T
        if B.shape[0] != B.shape[1] or not np.linalg.cond(B) < _ROOT_COND_LIMIT:
            return None
        return np.linalg.solve(B, -u[0])


@lru_cache(maxsize=64)
def _batch_path(G: int, k: int, q: int) -> list:
    """numpy's optimized order for ``stats``' c_g' M c_g, searched once per shape."""
    return np.einsum_path("ga,aibj,gb->gij", np.empty((G, k)), np.empty((k, q, k, q)),
                          np.empty((G, k)), optimize=True)[0]


def _g_engine(dataset: Dataset, blip_spec: BlipSpec, treatment_terms,
              qstar: Callable | None, alpha_known, occasions, level: float, *,
              note: str | None = None, q_terms=None, fixed=(),
              weights: np.ndarray | None = None, null_laws=None,
              least_squares: bool = False) -> _ScoreEngine:
    """The score engine of every analysis (``g_test_at``, ``g_estimate``,
    ``pooled_g_test``, ``gnull_score_test``, ``direct_effect_gnull_test``,
    the naive direct-effect scan and ``direct_effect_g_estimate``): pooled
    treatment-model rows at the tested occasions (default: all), where the
    blip acts; H shifted by the blip's cofactors, read with the held-fixed
    occasions ``fixed`` as context (``_cofactor_rows``), and paired with
    ``q_terms`` (default: the same cofactor rows).  Row ``weights``, one per
    pooled row, switch the test to the within-subject-robust variance.  The
    null is a model on ``treatment_terms``, logistic or, with
    ``least_squares``, linear, or the means of ``null_laws``, one law per
    occasion.  Reports carry ``note``, by default "" with ``alpha_known``
    and ``ESTIMATED_DESIGN_NOTE`` without."""
    occs = list(range(dataset.schema.K + 1)) if occasions is None else list(occasions)
    L, A = dataset.L, dataset.A
    B = C = _cofactor_rows(blip_spec, L, A, occs, fixed)
    if q_terms is not None:
        C = [eval_terms(q_terms, history_cols(L, A, m + 1, m, m)) for m in occs]
    if note is None:
        note = "" if alpha_known is not None else ESTIMATED_DESIGN_NOTE
    if null_laws is None:
        means, rows = None, pooled_rows(dataset, treatment_terms, occs)
    else:  # the laws' means stand in for a treatment model and its design
        means = np.concatenate([null_laws[m].mean(history_cols(L, A, m + 1, m, m)) for m in occs])
        rows = None, A.T[occs].ravel(), np.concatenate([np.arange(dataset.n)] * len(occs))
    return _ScoreEngine(dataset, blip_spec.family, rows, occs, C, B, qstar=qstar,
                        known_coef=alpha_known, note=note, level=level, weights=weights,
                        null_means=means, least_squares=least_squares)


def g_test_at(
    dataset: Dataset,
    blip_spec: BlipSpec,
    psi,
    *,
    treatment_terms,
    qstar: Callable | None = None,
    alpha_known=None,
    occasions=None,
    level: float = 0.05,
) -> TestReport:
    """Score test that psi is the true blip parameter (``qstar`` and
    ``alpha_known`` as in ``g_estimate``)."""
    eng = _g_engine(dataset, blip_spec, treatment_terms, qstar, alpha_known,
                    occasions, level)
    return eng.report(psi)


def _grid_spec(psi_box, grid_points, dim: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check a search box, (lo, hi) per blip component, and its grid counts
    (one count for every axis, or one per axis); return the box as a (dim, 2)
    array and the counts as a tuple."""
    try:
        box = np.atleast_2d(np.asarray(psi_box, dtype=float))
    except (TypeError, ValueError):
        box = None
    if box is None or box.shape != (dim, 2):
        raise ConfigError("psi_box must give (lo, hi) per blip component")
    if not np.isfinite(box).all():
        raise ConfigError("psi_box bounds must be finite")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ConfigError("psi_box needs lo < hi for every component")
    points = (grid_points,) * dim if np.ndim(grid_points) == 0 else tuple(grid_points)
    try:
        points = tuple(operator.index(p) for p in points)
    except TypeError:
        raise ConfigError("grid_points must be whole numbers") from None
    if len(points) != dim:
        raise ConfigError(f"grid_points must give one count per blip component ({dim})")
    if min(points) < 2:
        raise ConfigError("grid_points must be at least 2 per component")
    return box, points


def _grid(box, points) -> tuple[np.ndarray, tuple[int, ...]]:
    ticks = [np.linspace(lo, hi, pts) for (lo, hi), pts in zip(box, points)]
    mesh = np.meshgrid(*ticks, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh]), tuple(points)


def g_estimate(
    dataset: Dataset,
    blip_spec: BlipSpec,
    *,
    treatment_terms,
    psi_box,
    qstar: Callable | None = None,
    alpha_known=None,
    occasions=None,
    grid_points: int | tuple[int, ...] = 201,
    level: float = 0.05,
) -> GEstimate:
    """g-estimation: psi values whose residual outcome looks randomized.

    For each candidate psi the residual outcome H(psi) is tested as an added
    covariate in the pooled treatment model (score test); the estimate is
    the psi in ``psi_box`` where the statistic is smallest, and the
    confidence set collects grid points not rejected at ``level``.  For the
    additive family with the default q* the score is affine in psi, so the
    grid is scored in one batch and, when the score's root lies in the box,
    the estimate is that root (Robins' closed-form g-estimator); otherwise a
    numerical search minimizes the statistic (see ``_search``).  ``method``
    on the result says which path produced psi_hat.  ``psi_box`` is (lo, hi)
    per component; ``grid_points`` is one count (at least 2) for every axis
    or one per axis; the default q* pairs H with each cofactor of the blip
    family.  ``occasions`` limits both where the family acts and which
    treatments are score-tested; by default the family covers every occasion.
    A user ``qstar(h, L, A, m)`` returns occasion m's added columns from
    H(psi) as finite (n,) or (n, k) values, one k at every occasion, and
    ``alpha_known`` has one coefficient per treatment term; else ``ConfigError``.
    """
    box, points = _grid_spec(psi_box, grid_points, blip_spec.dim)
    eng = _g_engine(dataset, blip_spec, treatment_terms, qstar, alpha_known,
                    occasions, level)
    return _search(eng, blip_spec.dim, box, points, level)


def _search(eng: _ScoreEngine, dim: int, box: np.ndarray, points: tuple[int, ...],
            level: float) -> GEstimate:
    """Grid the box, take psi_hat where the statistic is smallest, and invert
    the test.

    When the affine score's root (``_ScoreEngine.root``) lies in the box it
    is psi_hat ("closed-form"): with the default q* the score has one column
    per component, so the statistic is 0 there.  Otherwise the statistic is
    minimized inside the box on ``_ScoreEngine.stats``: in 1-D by bounded
    Brent between the grid minimum's neighbours ("bounded"), keeping the
    grid minimum itself if Brent, which never evaluates the bracket ends,
    does no better; in d >= 2 by Nelder-Mead from the five best grid points
    ("nelder-mead").
    """
    grid, resolution = _grid(box, points)
    stats_arr, pvals = eng.stats(grid)
    lo, hi = box[:, 0], box[:, 1]
    root = eng.root()
    if root is not None and np.all((lo <= root) & (root <= hi)):
        psi_hat, method = root, "closed-form"
    else:
        import scipy.optimize

        def stat(v):
            return float(eng.stats(np.clip(v, lo, hi)[None, :])[0][0])

        order = np.argsort(stats_arr)
        if dim == 1:
            imin = int(order[0])
            bracket = grid[max(imin - 1, 0), 0], grid[min(imin + 1, len(grid) - 1), 0]
            res = scipy.optimize.minimize_scalar(stat, bounds=bracket, method="bounded",
                                                 options={"xatol": 1e-10})
            psi_hat = np.array([float(res.x)]) if res.fun < stats_arr[imin] else grid[imin].copy()
            method = "bounded"
        else:
            best, best_val = None, np.inf
            for i in order[:5]:
                res = scipy.optimize.minimize(
                    stat, grid[i], method="Nelder-Mead",
                    options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000},
                )
                if res.fun < best_val:
                    best, best_val = np.clip(res.x, lo, hi), res.fun
            psi_hat, method = best, "nelder-mead"
    at_hat = eng.report(psi_hat)
    edge = (np.abs(psi_hat - lo) < 1e-9) | (np.abs(psi_hat - hi) < 1e-9)
    # A minimum on the box edge is flagged only when the data still reject
    # there more than a typical null draw would: the statistic exceeds the
    # median of chi-square(dim), which is 2 * gammaincinv(dim / 2, 0.5).  A
    # heuristic, not a test: an edge minimum with a smaller statistic is
    # taken as a fit, not a boundary.
    boundary = bool(np.any(edge) and at_hat.statistic > 2.0 * gammaincinv(dim / 2, 0.5))
    return GEstimate(
        psi_hat=np.atleast_1d(psi_hat),
        statistic_at_hat=at_hat.statistic,
        p_at_hat=at_hat.p_value,
        boundary=boundary,
        grid=grid,
        grid_stats=stats_arr,
        grid_pvals=pvals,
        accepted=pvals >= level,
        resolution=resolution,
        level=level,
        note=eng.note,
        method=method,
    )


@dataclass(frozen=True)
class SndmMle:
    """Maximum likelihood fit of the reparameterized model."""

    psi: np.ndarray
    h_mean: float
    h_sd: float
    phi: dict[int, np.ndarray]
    loglik: float
    converged: bool
    n_params: int


def sndm_mle(
    dataset: Dataset,
    blip_spec: BlipSpec,
    *,
    covariate_terms,
    psi_fixed=None,
) -> SndmMle:
    """Maximize the reparameterized likelihood, profiled over psi.

    The likelihood is the product of the residual-outcome density (normal,
    parameters eta), the change-of-variables factor dH/dY, and a logistic
    model per non-degenerate covariate occasion m with parameters phi.  The
    factors share no parameter, so at a given psi eta is the mean and
    standard deviation (ddof 0) of H and each phi is ``fit_logistic`` on its
    terms, evaluated in ``history_cols(L, A, m, m, m, extra={"u": h})``:
    strictly earlier history, "a_prev" and the residual outcome "u"; any
    other base is a ``ConfigError``.  Only psi is searched (L-BFGS-B), and
    with ``psi_fixed`` nothing is.  ``covariate_terms`` is a dict occasion ->
    term tuple, or one tuple shared by all occasions.  A constant H raises
    ``EstimationError`` and separated covariate data ``SeparationError``.
    """
    L, A, Y = dataset.L, dataset.A, dataset.Y
    n, K1 = L.shape
    S = shift_basis(blip_spec, L, A)
    modeled = [m for m in range(K1) if np.ptp(L[:, m]) > 0]
    for m in modeled:
        col = L[:, m]
        if np.any((np.abs(col) > 1e-9) & (np.abs(col - 1.0) > 1e-9)):
            raise EstimationError("covariate models support binary columns only")
    if isinstance(covariate_terms, dict):
        terms_by_m = {m: tuple(covariate_terms[m]) for m in modeled}
    else:
        terms_by_m = {m: tuple(covariate_terms) for m in modeled}
    _check_outcomes(blip_spec.family, Y)

    def profile(psi):
        """Log-likelihood at psi with eta and phi at their maximizers."""
        shift = S @ psi
        h = _residual_outcome(blip_spec.family, Y, shift)
        mu, sd = float(np.mean(h)), float(np.std(h))
        if not sd > 0.0:
            raise EstimationError("residual outcome H is constant; its likelihood is unbounded")
        ll = -n * (np.log(sd) + 0.5 * np.log(2.0 * np.pi) + 0.5)
        if blip_spec.family == "multiplicative":
            ll += float(np.sum(shift))  # log dH/dY
        phis = {}
        for m in modeled:
            X = eval_terms(terms_by_m[m], history_cols(L, A, m, m, m, extra={"u": h}))
            fit = fit_logistic(X, L[:, m])
            phis[m] = fit.coef
            ll += fit.loglik
        return float(ll), mu, sd, phis

    if psi_fixed is not None:
        psi, converged = np.atleast_1d(np.asarray(psi_fixed, dtype=float)), True
    else:
        import scipy.optimize

        res = scipy.optimize.minimize(
            lambda x: -profile(x)[0], np.zeros(blip_spec.dim), method="L-BFGS-B",
            options={"maxiter": 1000, "maxfun": 5000, "ftol": 1e-12, "gtol": 1e-9},
        )
        if not res.success and "ABNORMAL" not in str(res.message):
            raise ConvergenceError(f"likelihood maximization failed: {res.message}")
        psi, converged = res.x, bool(res.success)
    ll, mu, sd, phis = profile(psi)
    return SndmMle(
        psi=np.asarray(psi, dtype=float),
        h_mean=mu,
        h_sd=sd,
        phi=phis,
        loglik=ll,
        converged=converged,
        n_params=((0 if psi_fixed is not None else blip_spec.dim) + 2
                  + sum(len(t) for t in terms_by_m.values())),
    )


def sndm_lr_test(
    dataset: Dataset,
    blip_spec: BlipSpec,
    *,
    covariate_terms,
    psi_null=None,
    level: float = 0.05,
) -> TestReport:
    """Likelihood-ratio test of psi = psi_null (default 0) in the MLE."""
    d = blip_spec.dim
    psi_null = np.zeros(d) if psi_null is None else np.atleast_1d(np.asarray(psi_null, float))
    free = sndm_mle(dataset, blip_spec, covariate_terms=covariate_terms)
    null = sndm_mle(dataset, blip_spec, covariate_terms=covariate_terms,
                    psi_fixed=psi_null)
    lr = max(0.0, 2.0 * (free.loglik - null.loglik))
    return _report(lr, d, "chi2", level)


def empirical_static_survivor(
    dataset: Dataset,
    blip_spec: BlipSpec,
    plan,
) -> RegimeDistribution:
    """Plug-in standardized law under a static plan, for covariate-free blips.

    Each subject's residual outcome is pushed back up along the fixed plan;
    the returned samples give n^{-1} sum I{y_i > y} as the survivor estimate.
    """
    if blip_spec.uses_covariates:
        raise EstimationError(
            "blip cofactors reference covariate history; the empirical plug-in "
            "applies only to covariate-free blip families"
        )
    plan = np.asarray(plan, dtype=float)
    K = dataset.schema.K
    if plan.shape != (K + 1,):
        raise ConfigError(f"plan must assign all {K + 1} occasions")
    h = blip_down(blip_spec, dataset).h
    L = np.zeros((dataset.n, K + 1))
    A = np.tile(plan, (dataset.n, 1))
    y = blip_up(blip_spec, h, L, A)
    return RegimeDistribution.from_samples(y, f"static{tuple(plan)}")
