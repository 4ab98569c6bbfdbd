"""Direct effects: tests and estimation when part of treatment is held fixed.

Setting: each occasion's treatment is assigned to one of two arms — the
arm of interest (P) whose direct effect we study, and the remaining arm
(Z) whose observed values are "held fixed" analytically.  Holding Z fixed
is done by inverse-probability weighting with the Z-assignment laws, never
by conditioning on Z in a regression (conditioning opens covariate paths
and is exactly the mistake the naive approach makes).

Main entry points:

* ``direct_effect_gnull_test`` — two-occasion weighted independence test:
  under "A0 has no direct effect with A1 held fixed", the weighted
  transform Y phi(A1) / f(A1 | L, A0), phi the standard normal density, is
  mean-independent of A0.
* ``naive_direct_effect_demo`` — the regression-flavored alternative built
  from a covariate model and a covariate-free blip family; shows how it
  rejects a true null when treatment effects are heterogeneous in a
  hidden cause.  Its scan (41 points on [-3, 3]) is g-estimation of the
  one-parameter blip y + a1 psi2, the grid scored in one batched pass.
* ``direct_effect_g_estimate`` — three-step weighted g-estimation of a
  direct-effect blip family, with within-subject-robust score tests.
* ``direct_effect_moment_check`` — the population moment characterization
  evaluated exactly on a joint table.

Every test and estimator here builds its score engine with
``sndm._g_engine``, the builder behind ``g_estimate``.  The naive scan uses
it unweighted, as plain g-estimation does.  Direct-effect g-estimation is
g-estimation with a held-fixed arm: it tests the studied-arm occasions,
lets the blip's cofactors read the fixed arm's later treatments, and gives
its rows inverse-probability weights, which switch the engine to the
within-subject-robust variance.  The weighted test is that engine at
psi = 0 on occasion 0, with a least-squares null for A0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, group_rows
from .errors import ConfigError, EstimationError, PositivityError
from .features import eval_terms, history_cols
from .gformula import JointTable, _TableLaw
from .glm import TestReport, fit_linear, fit_logistic, wald_test
from .laws import BernoulliLogit, NormalLinear, _normal_density
from .sndm import (
    BlipSpec,
    GEstimate,
    _check_outcomes,
    _cofactor_rows,
    _g_engine,
    _grid_spec,
    _residual_outcome,
    _search,
    _shift,
    additive_blip,
)

WEIGHT_FLOOR = 1e-6

CONSERVATIVE_NOTE = (
    "conservative: inverse-probability weights use estimated treatment-law "
    "parameters"
)


@dataclass(frozen=True)
class SplitSchema:
    """Partition of the occasions into the studied arm (P) and the fixed arm (Z).

    This build assigns each occasion's scalar treatment wholly to one arm;
    a study with both arms active at one time point is encoded by giving
    each arm its own occasion.
    """

    p_occasions: tuple[int, ...]
    z_occasions: tuple[int, ...]

    def __post_init__(self) -> None:
        p, z = set(self.p_occasions), set(self.z_occasions)
        if p & z:
            raise ConfigError("an occasion cannot be in both arms")
        if not p:
            raise ConfigError("at least one occasion must carry the studied arm")
        object.__setattr__(self, "p_occasions", tuple(sorted(p)))
        object.__setattr__(self, "z_occasions", tuple(sorted(z)))

    def validate_for(self, K: int) -> None:
        every = set(self.p_occasions) | set(self.z_occasions)
        if every != set(range(K + 1)):
            raise ConfigError(
                f"split must cover occasions 0..{K} exactly; got {sorted(every)}"
            )


@dataclass(frozen=True)
class IpwWeights:
    """Per-subject assignment densities of the fixed arm, one per Z occasion.

    ``w_from(m)`` multiplies the factors at Z occasions >= m — the weight
    that converts an observed-data mean into a "Z held fixed" mean for a
    moment anchored at occasion m-1.
    """

    factors: dict[int, np.ndarray]
    alpha_source: str  # "design" | "estimated"

    def __post_init__(self) -> None:
        for k, f in self.factors.items():
            f = np.asarray(f, dtype=float)
            if not np.isfinite(f).all():
                raise EstimationError(f"non-finite assignment density at occasion {k}")
            if np.any(f < WEIGHT_FLOOR):
                raise PositivityError(
                    f"assignment density below {WEIGHT_FLOOR:g} at occasion {k}; "
                    "weighted moments are unstable (positivity)"
                )

    def w_from(self, m: int, n: int) -> np.ndarray:
        out = np.ones(n)
        for k, f in self.factors.items():
            if k >= m:
                out = out * f
        return out


def fit_z_laws(
    dataset: Dataset,
    split: SplitSchema,
    terms: tuple[str, ...] = ("1", "lm", "a_prev"),
    known: dict[int, object] | None = None,
):
    """One assignment law per Z occasion: known objects or fits from ``terms``.

    Binary columns get a logistic law, anything else a normal-linear law
    with the residual standard deviation plugged in.  Returns
    (laws, source) with source "design" only when every law was supplied.
    """
    split.validate_for(dataset.schema.K)
    known = dict(known or {})
    laws: dict[int, object] = {}
    estimated = False
    for k in split.z_occasions:
        if k in known:
            laws[k] = known[k]
            continue
        estimated = True
        cols = history_cols(dataset.L, dataset.A, k + 1, k, k)
        X = eval_terms(terms, cols)
        a = dataset.A[:, k]
        if np.isin(np.unique(a), (0.0, 1.0)).all():
            fit = fit_logistic(X, a)
            laws[k] = BernoulliLogit(terms, tuple(fit.coef))
        else:
            fit = fit_linear(X, a)
            laws[k] = NormalLinear(terms, tuple(fit.coef),
                                   float(np.sqrt(fit.dispersion)))
    source = "estimated" if estimated else "design"
    return laws, source


def ipw_weights(dataset: Dataset, split: SplitSchema, z_laws: dict[int, object],
                source: str = "estimated") -> IpwWeights:
    """Evaluate each Z law at the observed assignments."""
    factors = {}
    for k in split.z_occasions:
        law = z_laws[k]
        cols = history_cols(dataset.L, dataset.A, k + 1, k, k)
        density = getattr(law, "density", None)
        if density is None:
            raise ConfigError(f"law for occasion {k} has no density")
        factors[k] = np.asarray(density(dataset.A[:, k], cols), dtype=float)
    return IpwWeights(factors, source)


# ---------------------------------------------------------------------------
# Two-occasion weighted test of "no direct effect of the early treatment".
# ---------------------------------------------------------------------------


def direct_effect_gnull_test(
    dataset: Dataset,
    *,
    a1_law: object | None = None,
    level: float = 0.05,
) -> TestReport:
    """Weighted independence test of the early treatment's direct effect.

    Forms script-W = Y phi(A1) / f(A1 | L, A0), phi the standard normal
    density, and score-tests the A0 slope in a linear model for script-W:
    the score engine at psi = 0, rows weighted by f / phi, with an
    intercept-only least-squares null for A0 of any type.  Weighting by the
    late-treatment assignment density removes the dependence that
    conditioning on A1 would otherwise induce; phi has a finite weighted
    expectation for continuous A1.  Without ``a1_law`` the assignment law is
    fitted on ("1", "lm", "a0").  The score is self-normalized (per-subject
    squared summands): the weight ratio makes the variance of script-W
    depend on A0.  With an estimated assignment law the test is conservative.
    """
    if dataset.schema.K != 1:
        raise ConfigError("direct_effect_gnull_test expects a two-occasion dataset")
    split = SplitSchema((0,), (1,))
    laws, source = fit_z_laws(dataset, split, ("1", "lm", "a0"),
                              known=None if a1_law is None else {1: a1_law})
    w1 = ipw_weights(dataset, split, laws, source).factors[1]
    phi = _normal_density(dataset.A[:, 1], 0.0, 1.0)
    note = "known randomization design" if source == "design" else CONSERVATIVE_NOTE
    eng = _g_engine(dataset, additive_blip("1"), ("1",), None, None, (0,), level,
                    note=note, fixed=(1,), weights=w1 / phi, least_squares=True)
    return eng.signed_report(0.0)


# ---------------------------------------------------------------------------
# The naive alternative and its failure mode.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NaiveDirectEffectReport:
    """Pieces of the regression-flavored direct-effect test.

    The naive null says: the late treatment's effect on the outcome is the
    same function of a1 everywhere (a covariate-free blip), AND the
    covariate is independent of the early treatment.  Rejecting requires
    rejecting both conjuncts (intersection-union), which keeps the naive
    test level-valid *as a test of its own parametric null* — the point is
    that its parametric null excludes the true direct-effect null whenever
    effects are heterogeneous, so it rejects a truth it cannot express.
    """

    covariate_test: TestReport  # logistic L ~ a0 slope
    gamma1_hat: float
    scan_grid: np.ndarray
    scan_pvals: np.ndarray
    scan_best_psi: float
    scan_max_p: float
    reduced_family_reject: bool
    naive_reject: bool
    level: float


# The naive scan pairs H with every cofactor of the heterogeneous blip.
_FULL_FAMILY = ("1", "a0", "lm", "a0*lm")


def naive_direct_effect_demo(
    dataset: Dataset,
    *,
    a1_alpha_known: tuple[float, ...] | None = None,
    level: float = 0.05,
) -> NaiveDirectEffectReport:
    """Run the naive direct-effect analysis and report what it concludes.

    Branch 1 tests "covariate independent of early treatment" (logistic
    slope).  Branch 2 asks whether ANY covariate-free blip y + a1*psi2 is
    compatible with the data, by profiling the 4-df residual-randomization
    score over 41 points of psi2 in [-3, 3] and keeping the largest p-value.
    The scan is g-estimation of ``additive_blip("1")`` at occasion 1 with H
    paired with the terms of ``_FULL_FAMILY``, so every grid point is scored
    in one batched pass.  The late treatment's model has the terms ("1",
    "lm", "a0"); ``a1_alpha_known`` gives its coefficients, else it is fitted.
    The naive analysis declares a direct effect when both branches reject.
    """
    if dataset.schema.K != 1:
        raise ConfigError("naive_direct_effect_demo expects a two-occasion dataset")
    grid = np.linspace(-3.0, 3.0, 41)
    Xg = np.column_stack([np.ones(dataset.n), dataset.A[:, 0]])
    gfit = fit_logistic(Xg, dataset.L[:, 1])
    covariate_test = wald_test(gfit, (1,), level=level,
                               note="covariate-vs-early-treatment dependence")

    eng = _g_engine(dataset, additive_blip("1"), ("1", "lm", "a0"), None, a1_alpha_known,
                    (1,), level, q_terms=_FULL_FAMILY)
    pvals = eng.stats(grid[:, None])[1]
    best = int(np.argmax(pvals))
    reduced_reject = bool(pvals[best] < level)
    naive_reject = bool(covariate_test.reject and reduced_reject)
    return NaiveDirectEffectReport(
        covariate_test=covariate_test,
        gamma1_hat=float(gfit.coef[1]),
        scan_grid=grid,
        scan_pvals=pvals,
        scan_best_psi=float(grid[best]),
        scan_max_p=float(pvals[best]),
        reduced_family_reject=reduced_reject,
        naive_reject=naive_reject,
        level=level,
    )


# ---------------------------------------------------------------------------
# Weighted g-estimation of a direct-effect blip family.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeSndmSpec:
    """Direct-effect blip family plus the studied-arm mean model.

    The blip shifts the outcome per unit of the studied-arm treatment.  At
    studied-arm occasion m its cofactors may use covariates through L_m,
    earlier treatments and the fixed arm's treatments at ANY occasion (held
    fixed, so "future" Z values are legitimate effect modifiers): the
    context of ``sndm._cofactor_rows`` with the fixed arm held fixed, in
    which ``validate_for`` evaluates them.
    ``qstar(h, L, A, m)``, when given, replaces the default added columns (H
    paired with each cofactor) at studied-arm occasion m; it must return
    finite values of shape (n,) or (n, k), with the same k at every
    occasion, or the score engine raises ``ConfigError``.
    """

    blip: BlipSpec
    mean_terms: tuple[str, ...] = ("1",)
    qstar: Callable | None = None

    def validate_for(self, split: SplitSchema, K: int) -> None:
        split.validate_for(K)
        zeros = np.zeros((1, K + 1))
        _cofactor_rows(self.blip, zeros, zeros, split.p_occasions, split.z_occasions)


def de_blip_down(spec: DeSndmSpec, split: SplitSchema, dataset: Dataset) -> np.ndarray:
    """Residual outcome H: observed Y with every studied-arm shift removed."""
    _check_outcomes(spec.blip.family, dataset.Y)
    S = _shift(dataset.A, split.p_occasions, _cofactor_rows(
        spec.blip, dataset.L, dataset.A, split.p_occasions, split.z_occasions), spec.blip.dim)
    return _residual_outcome(spec.blip.family, dataset.Y, S @ spec.blip.require_psi())


def direct_effect_g_estimate(
    dataset: Dataset,
    split: SplitSchema,
    spec: DeSndmSpec,
    *,
    psi_box,
    z_laws: dict[int, object] | None = None,
    z_terms: tuple[str, ...] = ("1", "lm", "a_prev"),
    p_alpha_known: tuple[float, ...] | None = None,
    grid_points: int | tuple[int, ...] = 201,
    level: float = 0.05,
) -> GEstimate:
    """Three-step weighted g-estimation of the direct-effect blip parameter.

    Step 1 fits (or takes) the fixed-arm assignment laws and builds the
    per-occasion weights.  Step 2 fits the studied-arm mean model on pooled
    person-occasions (skipped when ``p_alpha_known`` is given).  Step 3, at
    each candidate psi, removes the studied-arm shifts from the outcome,
    weights the paired moment columns, and score-tests them with a
    within-subject-robust variance; the estimate and confidence set come
    from inverting that test over the grid.  The set is conservative when
    any law was estimated.  This is ``g_estimate``'s engine and search, with
    the studied-arm occasions tested, the fixed arm held fixed and each
    studied-arm row weighted by the fixed-arm densities after its occasion.
    """
    spec.validate_for(split, dataset.schema.K)
    dim = spec.blip.dim
    box, points = _grid_spec(psi_box, grid_points, dim)
    laws, source = fit_z_laws(dataset, split, z_terms, known=z_laws)
    weights = ipw_weights(dataset, split, laws, source)
    occs = split.p_occasions
    note = ("known randomization design" if p_alpha_known is not None
            and source == "design" else CONSERVATIVE_NOTE)
    eng = _g_engine(dataset, spec.blip, spec.mean_terms, spec.qstar, p_alpha_known, occs,
                    level, note=note, fixed=split.z_occasions,
                    weights=np.concatenate([weights.w_from(m + 1, dataset.n) for m in occs]))
    return _search(eng, dim, box, points, level)


# ---------------------------------------------------------------------------
# Exact moment characterization on a joint table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeMomentReport:
    """Max within-cell spread of the weighted moment, per studied-arm occasion."""

    per_occasion: dict[int, float]
    cells_checked: dict[int, int]

    @property
    def worst(self) -> float:
        return max(self.per_occasion.values()) if self.per_occasion else 0.0


def _table_factor(table: JointTable, k: int) -> np.ndarray:
    """Exact f(a_k | l_bar_k, a_bar_{k-1}) for every table row."""
    law = _TableLaw(table, table.a_col(k), list(range(table.a_col(k))))
    return law.probs[law.row_key, law.row_value]


def direct_effect_moment_check(table: JointTable, split: SplitSchema,
                               spec: DeSndmSpec) -> DeMomentReport:
    """How far the weighted moment is from constant in the studied-arm treatment.

    At the true blip parameter, E[H / W_{m+1} | history through occasion m]
    is the same at every level of A_m for each studied-arm occasion m.
    Everything — residual outcome, weights, conditional expectations — is
    computed by exact summation over the joint table, so the deviation at
    the true parameter is numerically zero and grows with parameter error.
    """
    spec.blip.require_psi()
    spec.validate_for(split, table.schema.K)
    cells = table.cells
    data = Dataset(table.schema, cells[:, 0:-1:2], cells[:, 1:-1:2], cells[:, -1])
    mass = table.probs
    factors = {k: _table_factor(table, k) for k in split.z_occasions}
    h = de_blip_down(spec, split, data)
    live = mass > 0.0
    per, counted = {}, {}
    for m in split.p_occasions:
        w = np.ones(int(live.sum()))
        for k, f in factors.items():
            if k >= m + 1:
                w = w * f[live]
        keys = np.column_stack([data.L[live, : m + 1], data.A[live, : m + 1]])
        per[m], counted[m] = _moment_spread(keys, (mass * h)[live] / w, mass[live])
    return DeMomentReport(per, counted)


def _moment_spread(keys: np.ndarray, num: np.ndarray, mass: np.ndarray) -> tuple[float, int]:
    """Largest spread of sum(num) / sum(mass) across the treatment levels of a
    history, and how many histories have two levels or more.

    Each row of ``keys`` is a history followed by its treatment.  Each group
    is summed with ``np.sum`` over its rows in order: at the true parameter
    the spread is rounding noise, and a different summation order would
    change the reported figure.
    """
    groups, inverse = group_rows(keys)
    means = np.array([np.sum(num[inverse == g]) / np.sum(mass[inverse == g])
                      for g in range(len(groups))])
    histories, of_group = group_rows(groups[:, :-1])
    worst, cells = 0.0, 0
    for h in range(len(histories)):
        level_means = means[of_group == h]
        if len(level_means) >= 2:
            cells += 1
            worst = max(worst, float(level_means.max() - level_means.min()))
    return worst, cells
