"""Tests of the joint null of no treatment effect in two-stage designs.

Three testing routes live here:

* ``naive_test`` — the standard regression Wald test of both treatment
  coefficients in a linear outcome model.  Invalid when an intermediate
  covariate is confounded with the outcome: it rejects the true null with
  probability tending to 1.  Provided as the cautionary baseline.
* ``gnull_score_test`` and ``pooled_g_test`` — score tests that the outcome
  does not predict treatment.  "No treatment effect" is psi = 0 in a
  structural nested model, so both are the g-estimation score engine
  (``sndm._g_engine``) of an intercept-only additive blip at psi = 0:
  ``gnull_score_test`` with the known design means as its null, valid for
  any treatment type and covariate process, ``pooled_g_test`` with one
  Bernoulli row per occasion in a logistic treatment model.  A custom added
  column is ``sndm.g_test_at(..., additive_blip("1"), 0.0, qstar=...)``.

Also here: exact predicates on discrete joint tables for the two statements
of the null (see ``gnull_table_check``), and a random-table generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Regime, Schema, constant, discrete, group_rows
from .errors import ConfigError
from .gformula import ConditionalLaws, JointTable, _TableLaw, g_formula_exact
from .glm import ESTIMATED_DESIGN_NOTE  # noqa: F401  (the fitted-design note, re-exported)
from .glm import TestReport, fit_linear, wald_test
from .sndm import _g_engine, additive_blip


# ---------------------------------------------------------------------------
# The naive regression test.
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


# ---------------------------------------------------------------------------
# Randomization score test: uses the known design means, nothing else.
# ---------------------------------------------------------------------------


def gnull_score_test(dataset: Dataset, a_laws, level: float = 0.05) -> TestReport:
    """Score test of the joint null from the summands

        U_i = Y_i (A0_i - pi1(L0_i)) + Y_i (A1_i - pi2(L0_i, A0_i, L1_i)),

    pi1 and pi2 the means of the assignment laws ``a_laws``.  Each summand
    has mean zero under the null because the treatment residuals are
    mean-zero given everything that precedes them; no model for the
    covariate or the outcome is involved.  The score engine with these
    means as its null compares sum U_i / sqrt(sum U_i^2) to a standard normal.
    """
    if dataset.schema.K != 1:
        raise ConfigError("gnull_score_test expects a two-occasion dataset")
    eng = _g_engine(dataset, additive_blip("1"), None, None, None, (0, 1), level,
                    note="randomization score test with known design means",
                    null_laws=a_laws)
    return eng.signed_report(0.0)


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
                    note=None if spec.alpha_known is None else "known randomization design")
    return eng.report(0.0)


# ---------------------------------------------------------------------------
# Exact predicates on discrete joint tables (two-occasion shape).
#
# Columns of a K=1 table: (l0, a0, l1, a1, y).  Every conditional law of Y is
# read off the table by exact summation.
# ---------------------------------------------------------------------------


def _two_occasion_laws(table: JointTable) -> ConditionalLaws:
    if table.schema.K != 1:
        raise ConfigError("table predicates are defined for two-occasion tables")
    return table.laws


def _rows_agree(dists: np.ndarray, by: np.ndarray, tol: float) -> bool:
    """True when, within each group of equal ``by`` rows, every row of
    ``dists`` is within ``tol`` of the group's first row."""
    _, group = group_rows(by)
    _, first = np.unique(group, return_index=True)
    return bool(np.all(np.abs(dists - dists[first[group]]) <= tol))


def predicate_y_indep_a1_given_past(table: JointTable, tol: float = 1e-10) -> bool:
    """Y independent of A1 given (L0, A0, L1), by direct summation."""
    law = _two_occasion_laws(table).y_law
    live = law.mass > 0.0
    return _rows_agree(law.probs[live], law.keys[live, :3], tol)


def predicate_standardized_free_of_a0(table: JointTable, tol: float = 1e-10) -> bool:
    """The standardized outcome law with both treatments set does not depend on a0.

    For each a1 and each a0 with mass, the law is the g-formula under the
    static plan (a0, a1), ``g_formula_exact``, compared by its CDF on the
    outcome law's atoms.  A1 is set to a1, not averaged over its observed
    law; averaging would give P(y | a0) and make this ``predicate_y_indep_a0``.
    A covariate history with mass but with (almost) none at some (a0, a1)
    raises ``PositivityError``.
    """
    y_atoms = _two_occasion_laws(table).y_law.atoms[0]
    a0s, a1s = (np.unique(np.round(table.cells[table.probs > 0.0, c], 9)) for c in (1, 3))
    curves = [g_formula_exact(table, Regime.static((a0, a1))).cdf(y_atoms)
              for a1 in a1s for a0 in a0s]
    return _rows_agree(np.array(curves), np.repeat(a1s, len(a0s))[:, None], tol)


def predicate_y_indep_a0(table: JointTable, tol: float = 1e-10) -> bool:
    """Y independent of A0 marginally, by direct summation."""
    _two_occasion_laws(table)
    law = _TableLaw(table, 4, [1])
    live = law.mass > 0.0
    return _rows_agree(law.probs[live], np.zeros((int(live.sum()), 0)), tol)


def gnull_table_check(table: JointTable, tol: float = 1e-10) -> dict[str, bool]:
    """Evaluate both two-predicate statements of the null.

    The g-null, "no treatment effect of any kind", is (conditional ⊥ of Y
    and A1 given the past) AND (standardized law, with a0 and a1 both set,
    free of a0).  When L0 is constant, as in ``random_sequential_table``,
    replacing the second conjunct by marginal independence of Y and A0
    gives the same null; under baseline confounding it does not, and the
    standardized form is the g-null.  The second conjuncts differ on their
    own: Y reacting to A1 alone passes the first and fails the second.
    Returns all three predicates plus the two conjunctions.
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

    p_y: dict[tuple, np.ndarray] = {}
    cells, probs = [], []
    for i0, a0 in enumerate(a_vals):
        for i1, l1 in enumerate(l_vals):
            for i2, a1 in enumerate(a_vals):
                key = tuple(dict(a0=a0, l1=l1, a1=a1)[p] for p in y_parents)
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
