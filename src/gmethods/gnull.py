"""Tests of the joint null of no treatment effect in two-stage designs.

Four testing routes live here:

* ``naive_test`` — the standard regression Wald test of both treatment
  coefficients in a linear outcome model.  Invalid when an intermediate
  covariate is confounded with the outcome: it rejects the true null with
  probability tending to 1.  Provided as the cautionary baseline.
* ``parametric_null_check`` — the exact algebraic condition under which the
  linear-outcome + logistic-covariate pair can represent a null standardized
  mean.
* ``gnull_score_test`` — the randomization score test built from the known
  design means; valid regardless of the covariate process.
* ``pooled_g_test`` — the person-occasion logistic score test: each subject
  contributes one Bernoulli row per occasion, and the test asks whether the
  outcome predicts treatment.  "No treatment effect" is psi = 0 in a
  structural nested model, so this is the g-estimation score engine
  (``sndm``) for an intercept-only additive blip at psi = 0; a custom added
  column is ``sndm.g_test_at(..., additive_blip("1"), 0.0, qstar=...)``.

Also here: exact conditional-independence predicates on discrete joint
tables, used to cross-check the two equivalent statements of the null, and
a random-table generator for those checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Schema, constant, discrete, group_rows
from .errors import ConfigError, EstimationError
from .features import history_cols
from .gformula import JointTable, _TableLaw
from .glm import ESTIMATED_DESIGN_NOTE  # noqa: F401  (the fitted-design note, re-exported)
from .glm import TestReport, _report, fit_linear, wald_test
from .sndm import _g_engine, additive_blip


# ---------------------------------------------------------------------------
# The naive regression test and why it cannot be fixed parametrically.
# ---------------------------------------------------------------------------


def naive_test(dataset: Dataset, level: float = 0.05) -> TestReport:
    """2-df Wald test of both treatment coefficients in Y ~ 1 + a0 + l + a1.

    This is the test a routine analysis would run.  It conditions on the
    intermediate covariate, which opens a path between the early treatment
    and the outcome whenever a hidden cause drives both the covariate and
    the outcome — so it is *not* a valid test of "no treatment effect".
    """
    if dataset.schema.K != 1:
        raise ConfigError("naive_test expects a two-occasion dataset")
    X = np.column_stack([
        np.ones(dataset.n),
        dataset.A[:, 0],
        dataset.L[:, 1],
        dataset.A[:, 1],
    ])
    fit = fit_linear(X, dataset.Y)
    return wald_test(fit, (1, 3), level=level,
                     note="regression-adjusted test; invalid under confounded covariates")


def parametric_null_check(
    theta: np.ndarray, gamma: np.ndarray, tol: float = 1e-12
) -> tuple[bool, str]:
    """When is the standardized mean constant under these two working models?

    ``theta`` = (intercept, a0, l, a1) coefficients of the linear outcome
    model; ``gamma`` = (intercept, a0) coefficients of the logistic covariate
    model.  The plug-in standardized mean

        I(a0, a1) = th0 + th1 a0 + th3 a1 + th2 expit(g0 + g1 a0)

    is constant in (a0, a1) exactly when branch "i" (th1 = th2 = th3 = 0)
    or branch "ii" (th1 = th3 = g1 = 0) holds.  Returns (holds, branch)
    with branch in {"i", "ii", "i+ii", "none"}.
    """
    th = np.asarray(theta, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if th.shape != (4,) or g.shape != (2,):
        raise ConfigError("theta must have 4 coefficients and gamma 2")
    branch_i = max(abs(th[1]), abs(th[2]), abs(th[3])) <= tol
    branch_ii = max(abs(th[1]), abs(th[3]), abs(g[1])) <= tol
    if branch_i and branch_ii:
        return True, "i+ii"
    if branch_i:
        return True, "i"
    if branch_ii:
        return True, "ii"
    return False, "none"


# ---------------------------------------------------------------------------
# Randomization score test: uses the known design means, nothing else.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GnullScoreInputs:
    """Known design means of the two treatments in a randomized study.

    ``pi1`` is the (unconditional) design mean of A0.  ``pi2`` is the
    assignment law of A1, whose ``mean(cols)`` gives its design mean as a
    function of the observed past.
    """

    pi1: float
    pi2: object

    def pi2_values(self, dataset: Dataset) -> np.ndarray:
        cols = history_cols(dataset.L, dataset.A, 2, 1, 1)
        return np.asarray(self.pi2.mean(cols), dtype=float)

    @classmethod
    def from_scenario(cls, config) -> "GnullScoreInputs":
        """Pull the design means out of a scenario's treatment laws.

        The A0 mean is evaluated at an all-zero baseline history, so this
        is only exact when baseline covariates are degenerate at zero —
        true for every built-in two-occasion scenario.
        """
        zero = np.zeros((1, 1))
        pi1 = float(config.a_laws[0].mean(history_cols(zero, zero, 1, 0, 0))[0])
        return cls(pi1=pi1, pi2=config.a_laws[1])


def gnull_score_test(
    dataset: Dataset, inputs: GnullScoreInputs, level: float = 0.05
) -> TestReport:
    """Score test of the joint null from the summands

        U_i = Y_i (A1_i - pi2(A0_i, L_i)) + Y_i (A0_i - pi1).

    Each summand has mean zero under the null because the treatment
    residuals are mean-zero given everything that precedes them; no model
    for the covariate or the outcome is involved.  The standardized sum
    is compared to a standard normal, two-sided.
    """
    if dataset.schema.K != 1:
        raise ConfigError("gnull_score_test expects a two-occasion dataset")
    p2 = inputs.pi2_values(dataset)
    U = dataset.Y * (dataset.A[:, 1] - p2) + dataset.Y * (dataset.A[:, 0] - inputs.pi1)
    ss = float(np.sum(U * U))
    if ss <= 0.0:
        raise EstimationError("sum of squared summands is zero (degenerate data)")
    chi = float(np.sum(U) / np.sqrt(ss))
    return _report(chi, None, "normal", level,
                   note="randomization score test with known design means")


# ---------------------------------------------------------------------------
# Pooled person-occasion score test.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GTestSpec:
    """Configuration of the pooled test.

    ``treatment_terms`` define the per-occasion logistic model for A_m given
    history.  ``alpha_known`` fixes its coefficients (randomized designs);
    otherwise they are estimated by maximum likelihood on the pooled rows.
    ``occasions`` picks the tested treatments (default: all).
    """

    treatment_terms: tuple[str, ...]
    alpha_known: tuple[float, ...] | None = None
    occasions: tuple[int, ...] | None = None


def pooled_g_test(dataset: Dataset, spec: GTestSpec, level: float = 0.05) -> TestReport:
    """Score test of "the outcome does not predict treatment at any occasion".

    Subjects are stacked as one Bernoulli row per tested occasion.  Under
    the joint null and sequential randomization, the outcome added as a
    column has zero coefficient in the pooled treatment model, and the Rao
    score test of that zero is valid — each row behaves as an independent
    Bernoulli draw given its own history.  This is the g-estimation engine
    of ``additive_blip("1")`` at psi = 0, whose residual outcome is Y; the
    engine checks the inputs (binary treatments, ``alpha_known`` length).
    """
    eng = _g_engine(dataset, additive_blip("1"), spec.treatment_terms, None,
                    spec.alpha_known, spec.occasions, level,
                    known_note="known randomization design")
    return eng.report(0.0)


# ---------------------------------------------------------------------------
# Exact predicates on discrete joint tables (two-occasion shape).
#
# Columns of a K=1 table: (l0, a0, l1, a1, y).  Every conditional law of Y is
# read off the table by exact summation.
# ---------------------------------------------------------------------------


def _y_given(table: JointTable, parents: list[int]) -> _TableLaw:
    if table.schema.K != 1:
        raise ConfigError("table predicates are defined for two-occasion tables")
    return _TableLaw(table, 4, parents)


def _rows_agree(dists: np.ndarray, by: np.ndarray, tol: float) -> bool:
    """True when, within each group of equal ``by`` rows, every row of
    ``dists`` is within ``tol`` of the group's first row."""
    keys, inverse = group_rows(by)
    for g in range(len(keys)):
        d = dists[inverse == g]
        if np.max(np.abs(d - d[0])) > tol:
            return False
    return True


def predicate_y_indep_a1_given_past(table: JointTable, tol: float = 1e-10) -> bool:
    """Y independent of A1 given (L0, A0, L1), by direct summation."""
    law = _y_given(table, [0, 1, 2, 3])
    live = law.mass > 0.0
    return _rows_agree(law.probs[live], law.keys[live, :3], tol)


def predicate_standardized_free_of_a0(table: JointTable, tol: float = 1e-10) -> bool:
    """The standardized outcome law with both treatments set does not depend on a0.

    For each a1 and each a0: sum over (l0, l1) of P(l0, l1 | a0) times
    P(y | l0, a0, l1, a1), computed literally from the table.  A1 is set to
    a1, not averaged over its observed law; averaging would give P(y | a0)
    and make this ``predicate_y_indep_a0``.  The weight conditions l0 on a0
    too, so this is the g-formula when A0 does not depend on L0 (as in
    ``random_sequential_table``, whose L0 is constant).  A covariate history
    with mass but with (almost) none at some a1 value raises
    ``PositivityError``.
    """
    law = _y_given(table, [0, 1, 2, 3])
    covs, of_cov = group_rows(table.cells[:, :3])
    cov_mass = np.bincount(of_cov, weights=table.probs)
    covs, cov_mass = covs[cov_mass > 0.0], cov_mass[cov_mass > 0.0]
    a0s, of_a0 = group_rows(covs[:, 1:2])
    weights = cov_mass / np.bincount(of_a0, weights=cov_mass)[of_a0]
    a1s = np.unique(np.round(table.cells[table.probs > 0.0, 3], 9))
    curves = np.zeros((len(a1s), len(a0s), len(law.values)))
    for j, a1 in enumerate(a1s):
        probs = law.probs[law.index(np.column_stack([covs, np.full(len(covs), a1)]))]
        np.add.at(curves[j], of_a0, weights[:, None] * probs)
    return _rows_agree(curves.reshape(-1, len(law.values)),
                       np.repeat(a1s, len(a0s))[:, None], tol)


def predicate_y_indep_a0(table: JointTable, tol: float = 1e-10) -> bool:
    """Y independent of A0 marginally, by direct summation."""
    law = _y_given(table, [1])
    live = law.mass > 0.0
    return _rows_agree(law.probs[live], np.zeros((int(live.sum()), 0)), tol)


def gnull_table_check(table: JointTable, tol: float = 1e-10) -> dict[str, bool]:
    """Evaluate both equivalent two-predicate statements of the null.

    The null of "no treatment effect of any kind" can be written as
    (conditional ⊥ of Y and A1 given the past) AND (standardized law, with
    a0 and a1 both set, free of a0), or equivalently with the second
    conjunct replaced by marginal independence of Y and A0.  The second
    conjuncts differ on their own: Y reacting to A1 alone passes the first
    and fails the second.  Returns all three predicates plus the two
    conjunctions.
    """
    p2 = predicate_y_indep_a1_given_past(table, tol)
    p3 = predicate_standardized_free_of_a0(table, tol)
    p6 = predicate_y_indep_a0(table, tol)
    return {
        "y_indep_a1_given_past": p2,
        "standardized_free_of_a0": p3,
        "y_indep_a0": p6,
        "joint_with_standardized": p2 and p3,
        "joint_with_marginal": p2 and p6,
    }


def random_sequential_table(
    rng: np.random.Generator,
    *,
    l_levels: int = 2,
    a_levels: int = 2,
    y_levels: int = 3,
    y_parents: tuple[str, ...] = ("a0", "l1", "a1"),
) -> JointTable:
    """Random two-occasion joint table from Dirichlet-sampled factors.

    The factorization follows time order: P(a0) P(l1 | a0) P(a1 | a0, l1)
    P(y | parents).  Restricting ``y_parents`` plants structure: () makes
    every null predicate true by construction, while ("l1",) still carries
    an early-treatment effect along the a0 -> l1 -> y path.
    """
    bad = set(y_parents) - {"a0", "l1", "a1"}
    if bad:
        raise ConfigError(f"unknown y_parents {sorted(bad)}")
    a_vals = [float(v) for v in range(a_levels)]
    l_vals = [float(v) for v in range(l_levels)]
    y_vals = [float(v) for v in range(y_levels)]

    p_a0 = rng.dirichlet(np.ones(a_levels))
    p_l1 = {a0: rng.dirichlet(np.ones(l_levels)) for a0 in a_vals}
    p_a1 = {(a0, l1): rng.dirichlet(np.ones(a_levels))
            for a0 in a_vals for l1 in l_vals}

    def y_key(a0: float, l1: float, a1: float) -> tuple:
        ctx = {"a0": a0, "l1": l1, "a1": a1}
        return tuple(ctx[p] for p in y_parents)

    p_y: dict[tuple, np.ndarray] = {}
    cells, probs = [], []
    for i0, a0 in enumerate(a_vals):
        for i1, l1 in enumerate(l_vals):
            for i2, a1 in enumerate(a_vals):
                key = y_key(a0, l1, a1)
                if key not in p_y:
                    p_y[key] = rng.dirichlet(np.ones(y_levels))
                for iy, y in enumerate(y_vals):
                    cells.append((0.0, a0, l1, a1, y))
                    probs.append(p_a0[i0] * p_l1[a0][i1]
                                 * p_a1[(a0, l1)][i2] * p_y[key][iy])
    schema = Schema(
        (constant(), discrete(*l_vals)),
        (discrete(*a_vals), discrete(*a_vals)),
    )
    probs_arr = np.asarray(probs)
    return JointTable(schema, np.asarray(cells), probs_arr / probs_arr.sum())
