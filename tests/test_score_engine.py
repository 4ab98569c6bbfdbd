"""The one score-test engine against the two engines it replaced.

``_RefGEngine`` (g-estimation) and ``_RefDeEngine`` (direct-effect
g-estimation) are the former per-analysis engines, kept here as oracles,
together with the former per-point ``g_test_at`` scan of the naive
direct-effect analysis and the former hand-written pooled g-null test
(``_ref_pooled_g_test``).  The merged ``sndm._ScoreEngine`` must reproduce
their per-point statistics and p-values bit for bit (``pooled_g_test`` is
the engine at psi = 0); the naive scan, now one batched pass, agrees with
the per-point scan within 1e-12 and on every decision.  The engine's input
contract (binary treatments, ``alpha_known`` length, the shape and values of
a user q*) is checked here for every caller.

``_ref_search`` is the former search: one score test per grid point, then
bisection of the first score column's sign change, a bounded scalar
minimization or Nelder-Mead.  ``_search`` scores the grid in one batch and
takes psi_hat where the statistic is smallest: the affine score's root when
it lies in the box, else a minimization of the batched statistic.  It must
agree with ``_ref_search`` to rounding: exactly on the grid, the accepted
set and the flags (``boundary`` only where both searches use the same edge
rule), within 1e-10 on statistics and p-values, and on estimates with a
statistic no larger than the former one: within 1e-10 where both ran
bounded Brent (within Brent's own tolerance where the new search keeps a
grid edge), else within 1e-6.  Where the former search's rules missed the
minimum (a q* with more score columns than components), the statistic at
psi_hat is checked against the grid instead.
"""

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincinv

from gmethods import direct_effect, sndm
from gmethods.data import Dataset
from gmethods.direct_effect import (
    CONSERVATIVE_NOTE,
    DeSndmSpec,
    IpwWeights,
    SplitSchema,
    _de_cofactors,
    _de_engine,
    direct_effect_g_estimate,
    fit_z_laws,
    ipw_weights,
    naive_direct_effect_demo,
)
from gmethods.errors import ConfigError, EstimationError
from gmethods.features import eval_terms, history_cols
from gmethods.gnull import GTestSpec, pooled_g_test
from gmethods.glm import (
    ESTIMATED_DESIGN_NOTE,
    expit,
    fit_logistic,
    pooled_rows,
    robust_score_test,
    score_test_added,
)
from gmethods.laws import BernoulliLogit
from gmethods.scenarios import (
    design_alpha,
    direct_effect_scenario,
    masked_interaction_scenario,
    sequential_trial_scenario,
    simulate,
    sndm_scenario,
)
from gmethods.sndm import (
    GEstimate,
    _g_engine,
    _grid,
    _residual_outcome,
    _search,
    _stack_shifts,
    additive_blip,
    cofactor_matrix,
    g_estimate,
    g_test_at,
    multiplicative_blip,
)

SNDM_TERMS = ("1", "lm", "a_prev")
SNDM_ALPHA = (-0.1, 0.7, -0.3)
SPLIT01 = SplitSchema((0,), (1,))
DE_A1_LAW = BernoulliLogit(("1", "lm", "a0"), (-0.2, 0.7, 0.4))


# ---------------------------------------------------------------------------
# The former engines.
# ---------------------------------------------------------------------------


class _RefGEngine:
    """Pooled treatment model + model-based score test at candidate psi."""

    def __init__(self, dataset, blip_spec, treatment_terms, qstar, alpha_known,
                 occasions, level):
        self.dataset = dataset
        self.spec = blip_spec
        self.level = level
        self.occs = list(range(dataset.schema.K + 1)) if occasions is None else list(occasions)
        self.X, self.resp, self.subj = pooled_rows(dataset, treatment_terms, self.occs)
        bad = (np.abs(self.resp) > 1e-9) & (np.abs(self.resp - 1.0) > 1e-9)
        if np.any(bad):
            raise EstimationError(
                "g-estimation needs binary treatments at the pooled occasions"
            )
        self.qstar = qstar
        self.C = [cofactor_matrix(blip_spec, dataset.L, dataset.A, m) for m in self.occs]
        self.S = _stack_shifts(blip_spec, dataset.A, self.occs, self.C)
        if alpha_known is not None:
            self.known = np.asarray(alpha_known, dtype=float)
            self.fit = None
            self.note = ""
        else:
            self.known = None
            self.fit = fit_logistic(self.X, self.resp)
            self.note = ("treatment model estimated from the data; the test level "
                         "relies on its correct specification")

    def h_of(self, psi):
        return _residual_outcome(self.spec.family, self.dataset.Y, self.S @ psi)

    def zmat(self, psi):
        h = self.h_of(psi)
        L, A = self.dataset.L, self.dataset.A
        if self.qstar is not None:
            blocks = [np.atleast_2d(np.asarray(self.qstar(h, L, A, m), dtype=float))
                      for m in self.occs]
            blocks = [b if b.shape[0] == len(h) else b.T for b in blocks]
        else:
            blocks = [h[:, None] * C for C in self.C]
        return np.vstack(blocks)

    def report(self, psi):
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        Z = self.zmat(psi)
        if self.known is not None:
            return score_test_added(self.X, self.resp, Z, known_coef=self.known,
                                    level=self.level, note=self.note)
        return score_test_added(self.X, self.resp, Z, fit=self.fit, level=self.level,
                                note=self.note)


class _RefDeEngine:
    """Pooled studied-arm rows, weights, and the robust score test at psi."""

    def __init__(self, dataset, split, spec, weights, p_alpha_known, level):
        self.dataset = dataset
        self.split = split
        self.spec = spec
        self.level = level
        occs = list(split.p_occasions)
        n = dataset.n
        blocks, resp = [], []
        wcols = []
        for m in occs:
            cols = history_cols(dataset.L, dataset.A, m + 1, m, m)
            blocks.append(eval_terms(spec.mean_terms, cols))
            resp.append(dataset.A[:, m])
            wcols.append(weights.w_from(m + 1, n))
        self.X = np.vstack(blocks)
        self.resp = np.concatenate(resp)
        self.subj = np.tile(np.arange(n), len(occs))
        self.w = np.concatenate(wcols)
        bad = (np.abs(self.resp) > 1e-9) & (np.abs(self.resp - 1.0) > 1e-9)
        if np.any(bad):
            raise EstimationError("studied-arm treatments must be binary")
        self.C = _de_cofactors(spec, split, dataset.L, dataset.A)
        self.S = _stack_shifts(spec.blip, dataset.A, occs, self.C)
        self.occs = occs
        if p_alpha_known is not None:
            self.known = np.asarray(p_alpha_known, dtype=float)
            self.fit = None
        else:
            self.known = None
            self.fit = fit_logistic(self.X, self.resp)
        base = ("known randomization design" if p_alpha_known is not None
                and weights.alpha_source == "design" else CONSERVATIVE_NOTE)
        self.note = base

    def h_of(self, psi):
        return _residual_outcome(self.spec.blip.family, self.dataset.Y, self.S @ psi)

    def zmat(self, psi):
        h = self.h_of(psi)
        if self.spec.qstar is not None:
            blocks = [np.atleast_2d(np.asarray(
                self.spec.qstar(h, self.dataset.L, self.dataset.A, m), dtype=float))
                for m in self.occs]
            blocks = [b if b.shape[0] == len(h) else b.T for b in blocks]
        else:
            blocks = [h[:, None] * C for C in self.C]
        return np.vstack(blocks) / self.w[:, None]

    def report(self, psi):
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        Z = self.zmat(psi)
        if self.known is not None:
            return robust_score_test(self.X, self.resp, Z, self.subj,
                                     known_coef=self.known, level=self.level,
                                     note=self.note)
        return robust_score_test(self.X, self.resp, Z, self.subj,
                                 fit=self.fit, level=self.level, note=self.note)


@dataclass(frozen=True)
class _RefGTestSpec:
    """The former ``gnull.GTestSpec``, with its added-column function ``q``."""

    treatment_terms: tuple[str, ...]
    q: object = None
    alpha_known: tuple[float, ...] | None = None
    occasions: tuple[int, ...] | None = None

    def q_values(self, y: np.ndarray, cols: dict, m: int) -> np.ndarray:
        if self.q is None:
            return np.asarray(y, dtype=float)[:, None]
        out = np.asarray(self.q(y, cols, m), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape[0] != len(y):
            raise ConfigError("q must return one row per subject")
        return out


def _ref_pooled_g_test(dataset, spec, level=0.05):
    """The former ``gnull.pooled_g_test``: its own checks and score test."""
    occs = list(spec.occasions) if spec.occasions is not None else list(
        range(dataset.schema.K + 1))
    for m in occs:
        vals = np.unique(dataset.A[:, m])
        if not np.isin(vals, (0.0, 1.0)).all():
            raise ConfigError(f"pooled test needs binary treatments; A{m} is not 0/1")
    X, resp, _ = pooled_rows(dataset, spec.treatment_terms, occs)
    qs = []
    for m in occs:
        cols = history_cols(dataset.L, dataset.A, m + 1, m, m)
        qs.append(spec.q_values(dataset.Y, cols, m))
    Z = np.vstack(qs)
    if not np.isfinite(Z).all():
        raise ConfigError("q produced non-finite values")
    for j in range(Z.shape[1]):
        col = Z[:, j]
        if np.ptp(col) == 0.0 and col[0] != 0.0:
            raise EstimationError(
                "added column Q is a nonzero constant; it is confounded with "
                "the intercept and cannot be tested"
            )
    if spec.alpha_known is not None:
        alpha = np.asarray(spec.alpha_known, dtype=float)
        if alpha.shape != (X.shape[1],):
            raise ConfigError("alpha_known must match the treatment terms")
        return score_test_added(X, resp, Z, known_coef=alpha, level=level,
                                note="known randomization design")
    fit = fit_logistic(X, resp)
    return score_test_added(X, resp, Z, fit=fit, level=level,
                            note=ESTIMATED_DESIGN_NOTE)


def _ref_search(eng, dim, box, points, level):
    """Grid the box, locate the score minimum, and invert the test."""
    grid, resolution = _grid(box, points)
    G = grid.shape[0]
    stats_arr = np.empty(G)
    pvals = np.empty(G)
    for i in range(G):
        rep = eng.report(grid[i])
        stats_arr[i] = rep.statistic
        pvals[i] = rep.p_value
    imin = int(np.argmin(stats_arr))
    boundary = False
    if dim == 1:
        psi_hat, method = _ref_refine_scalar(eng, grid[:, 0], imin), "bisection"
        if psi_hat is None:
            lo_edge = imin in (0, G - 1)
            lo = grid[max(imin - 1, 0), 0]
            hi = grid[min(imin + 1, G - 1), 0]
            res = scipy.optimize.minimize_scalar(
                lambda v: eng.report([v]).statistic, bounds=(lo, hi),
                method="bounded", options={"xatol": 1e-10},
            )
            psi_hat, method = np.array([float(res.x)]), "bounded"
            boundary = lo_edge
    else:
        order = np.argsort(stats_arr)
        starts = [grid[i] for i in order[:5]]
        best, best_val = None, np.inf
        for s in starts:
            res = scipy.optimize.minimize(
                lambda v: eng.report(np.clip(v, box[:, 0], box[:, 1])).statistic,
                s, method="Nelder-Mead",
                options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000},
            )
            if res.fun < best_val:
                best, best_val = np.clip(res.x, box[:, 0], box[:, 1]), res.fun
        psi_hat, method = np.asarray(best, dtype=float), "nelder-mead"
        edge = (np.abs(psi_hat - box[:, 0]) < 1e-9) | (np.abs(psi_hat - box[:, 1]) < 1e-9)
        boundary = bool(np.any(edge) and best_val > 2.0 * gammaincinv(dim / 2, 0.5))
    at_hat = eng.report(psi_hat)
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


def _ref_signed_score(eng, psi_scalar):
    """The first added column's score at psi, under the null coefficients."""
    coef = eng.known if eng.fit is None else eng.fit.coef
    Z = eng.zmat(np.array([psi_scalar]))
    return float(Z[:, 0] @ (eng.resp - expit(eng.X @ coef)))


def _ref_refine_scalar(eng, grid1d, imin):
    """Bisection on the signed score if it changes sign near the grid minimum."""
    G = len(grid1d)
    candidates = []
    for i in range(max(0, imin - 2), min(G - 1, imin + 2)):
        candidates.append((i, i + 1))
    for i, j in candidates:
        si, sj = _ref_signed_score(eng, grid1d[i]), _ref_signed_score(eng, grid1d[j])
        if si == 0.0:
            return np.array([grid1d[i]])
        if si * sj < 0:
            lo, hi, slo = grid1d[i], grid1d[j], si
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                sm = _ref_signed_score(eng, mid)
                if sm == 0.0 or (hi - lo) < 1e-12 * (1.0 + abs(mid)):
                    return np.array([mid])
                if slo * sm < 0:
                    hi = mid
                else:
                    lo, slo = mid, sm
            return np.array([0.5 * (lo + hi)])
    return None


def _ref_de_weights(dataset, split, z_laws, z_terms=("1", "lm", "a_prev")):
    if not split.z_occasions:
        return IpwWeights({}, "design")
    known = z_laws or {}
    if [k for k in split.z_occasions if k not in known]:
        laws, source = fit_z_laws(dataset, split, z_terms, known=known)
    else:
        laws, source = known, "design"
    return ipw_weights(dataset, split, laws, source)


def _ref_de_g_estimate(dataset, split, spec, *, psi_box, z_laws=None,
                       p_alpha_known=None, grid_points=201, level=0.05):
    box = np.atleast_2d(np.asarray(psi_box, dtype=float))
    points = ((grid_points,) * spec.blip.dim if isinstance(grid_points, int)
              else tuple(grid_points))
    weights = _ref_de_weights(dataset, split, z_laws)
    eng = _RefDeEngine(dataset, split, spec, weights, p_alpha_known, level)
    return _ref_search(eng, spec.blip.dim, box, points, level)


def _ref_scan(dataset, grid, a1_alpha_known, level=0.05):
    """The naive analysis' former scan: one fresh engine per grid point."""
    family = additive_blip("1", "a0", "lm", "a0*lm")
    return np.array([
        _RefGEngine(dataset, family, ("1", "lm", "a0"), None, a1_alpha_known,
                    (1,), level).report([p2, 0.0, 0.0, 0.0]).p_value
        for p2 in grid
    ])


# ---------------------------------------------------------------------------
# Comparisons.
# ---------------------------------------------------------------------------


def _same_report(a, b):
    assert (a.statistic, a.df, a.reference, a.p_value, a.level, a.reject, a.note) == \
        (b.statistic, b.df, b.reference, b.p_value, b.level, b.reject, b.note)


def _close_estimate(new, ref, identified=True):
    """``new`` agrees with the former search ``ref`` up to rounding.

    ``identified=False`` skips the psi_hat comparison for a statistic that is
    flat along some component (an all-zero cofactor), whose minimizer is not
    unique; the statistic at psi_hat is still compared.
    """
    for field in ("grid", "accepted"):
        np.testing.assert_array_equal(getattr(new, field), getattr(ref, field), err_msg=field)
    assert (new.resolution, new.level, new.note) == (ref.resolution, ref.level, ref.note)
    # The former 1-D bounded search flagged any grid minimum on an edge;
    # every other path shares the edge-and-statistic rule.
    if ref.method != "bounded":
        assert new.boundary == ref.boundary
    scale = np.maximum(1.0, np.abs(ref.grid_stats))
    assert np.all(np.abs(new.grid_stats - ref.grid_stats) <= 1e-10 * scale)
    np.testing.assert_allclose(new.grid_pvals, ref.grid_pvals, rtol=0, atol=1e-10)
    if new.method != "closed-form":
        # A 1-D search without a closed form now minimizes the statistic
        # where the former one bisected the signed score.
        assert new.method == {"bisection": "bounded"}.get(ref.method, ref.method)
    atol = 1e-6
    if new.psi_hat.size == 1 and ref.method == "bounded":
        # Both ran bounded Brent.  On an edge minimum the new search keeps
        # the grid edge, which Brent never evaluates; the former one stopped
        # within Brent's tolerance 2 (sqrt(eps) |x| + xatol / 3) of it.
        on_edge = new.psi_hat[0] in (new.grid[0, 0], new.grid[-1, 0])
        atol = (2.0 * (np.sqrt(np.finfo(float).eps) * abs(new.psi_hat[0]) + 1e-10 / 3.0)
                if on_edge else 1e-10)
    if identified:
        np.testing.assert_allclose(new.psi_hat, ref.psi_hat, rtol=0, atol=atol)
    assert new.statistic_at_hat <= ref.statistic_at_hat + 1e-12


def _qstar_cols(h, L, A, m):
    # Two added columns per occasion, one of them through the covariate.
    return np.column_stack([h, h * L[:, m]])


def _qstar_row(h, L, A, m):
    # A 1-D return value: one added column per occasion.
    return h * (1.0 + A[:, m - 1]) if m > 0 else h


QSTARS = {"none": None, "cols": _qstar_cols, "row": _qstar_row}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(80, 600), dim=st.sampled_from([1, 2]),
       known=st.booleans(), qstar=st.sampled_from(sorted(QSTARS)),
       psi=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_g_engine_matches_the_former_engine(seed, n, dim, known, qstar, psi):
    ds = simulate(sndm_scenario(psi=(1.0,)), n, seed=seed)
    spec = additive_blip("1") if dim == 1 else additive_blip("1", "a_prev")
    alpha = SNDM_ALPHA if known else None
    args = (ds, spec, SNDM_TERMS, QSTARS[qstar], alpha, None, 0.05)
    new, ref = _g_engine(*args), _RefGEngine(*args)
    for p in (psi[:dim], psi[1:1 + dim]):
        _same_report(new.report(p), ref.report(p))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(80, 600), dim=st.sampled_from([1, 2]),
       known=st.booleans(), fitted_z=st.booleans(), qstar=st.sampled_from(sorted(QSTARS)),
       psi=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_de_engine_matches_the_former_engine(seed, n, dim, known, fitted_z, qstar, psi):
    ds = simulate(direct_effect_scenario(psi=(1.0, 0.5)), n, seed=seed)
    blip = additive_blip("1") if dim == 1 else additive_blip("1", "a1")
    spec = DeSndmSpec(blip, qstar=QSTARS[qstar])
    weights = _ref_de_weights(ds, SPLIT01, None if fitted_z else {1: DE_A1_LAW})
    args = (ds, SPLIT01, spec, weights, (0.0,) if known else None, 0.05)
    new, ref = _de_engine(*args), _RefDeEngine(*args)
    for p in (psi[:dim], psi[1:1 + dim]):
        _same_report(new.report(p), ref.report(p))


POOLED_TERMS = ("1", "lm", "a_prev")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(100, 800), K=st.sampled_from([1, 2]),
       known=st.booleans(), occasions=st.sampled_from([None, (1,), (0, 2)]),
       level=st.sampled_from([0.05, 0.2]))
def test_pooled_g_test_matches_the_former_test(seed, n, K, known, occasions, level):
    if occasions == (0, 2) and K < 2:
        occasions = (0, 1)
    trial = sequential_trial_scenario(K=K)
    ds = simulate(trial, n, seed=seed)
    alpha = design_alpha(trial, POOLED_TERMS) if known else None
    new = pooled_g_test(ds, GTestSpec(POOLED_TERMS, alpha, occasions), level)
    ref = _ref_pooled_g_test(ds, _RefGTestSpec(POOLED_TERMS, alpha_known=alpha,
                                               occasions=occasions), level)
    _same_report(new, ref)
    assert new.note == ("known randomization design" if known else ESTIMATED_DESIGN_NOTE)


# ---------------------------------------------------------------------------
# The engine's input contract, for every caller.
# ---------------------------------------------------------------------------


def _contract_data():
    return simulate(sndm_scenario(psi=(1.0,)), 200, seed=4)


@pytest.mark.parametrize("qstar, message", [
    (lambda h, L, A, m: h * np.nan, "non-finite"),
    (lambda h, L, A, m: np.vstack([h, h]), "one row per subject"),
    (lambda h, L, A, m: np.column_stack([h] * (m + 1)), "one k at every occasion"),
    (lambda h, L, A, m: h[:-1], "one row per subject"),
    (lambda h, L, A, m: 1.0, "one row per subject"),
])
def test_user_qstar_output_is_checked(qstar, message):
    ds = _contract_data()
    with pytest.raises(ConfigError, match=message):
        g_test_at(ds, additive_blip("1"), 0.5, treatment_terms=SNDM_TERMS, qstar=qstar)
    with pytest.raises(ConfigError, match=message):
        g_estimate(ds, additive_blip("1"), treatment_terms=SNDM_TERMS, qstar=qstar,
                   psi_box=((0.0, 2.0),), grid_points=5)


def test_direct_effect_qstar_output_is_checked():
    ds = simulate(direct_effect_scenario(psi=(1.0, 0.0)), 300, seed=4)
    spec = DeSndmSpec(additive_blip("1"), qstar=lambda h, L, A, m: np.vstack([h, h]))
    with pytest.raises(ConfigError, match="one row per subject"):
        direct_effect_g_estimate(ds, SPLIT01, spec, psi_box=((0.0, 2.0),),
                                 z_laws={1: DE_A1_LAW}, grid_points=5)


def test_nonzero_constant_qstar_column_is_refused():
    with pytest.raises(EstimationError, match="nonzero constant"):
        g_test_at(_contract_data(), additive_blip("1"), 0.0, treatment_terms=SNDM_TERMS,
                  qstar=lambda h, L, A, m: np.column_stack([h, np.full_like(h, 2.0)]))


def test_constant_column_is_tested_under_a_known_design():
    # With a known design nothing is fitted, so a constant added column is a
    # valid test; only a fitted null, with its intercept, is confounded with it.
    trial = sequential_trial_scenario(K=2)
    ds = simulate(trial, 1000, seed=3)
    known = GTestSpec(POOLED_TERMS, design_alpha(trial, POOLED_TERMS))
    flat = Dataset(ds.schema, ds.L, ds.A, np.full(ds.n, 2.0))
    nudged = Dataset(ds.schema, ds.L, ds.A, 2.0 + 1e-9 * np.arange(ds.n))
    rep = pooled_g_test(flat, known)
    assert rep.statistic == pytest.approx(pooled_g_test(nudged, known).statistic, rel=1e-5)
    assert rep.df == 1 and 0.0 < rep.p_value < 1.0
    with pytest.raises(EstimationError, match="nonzero constant"):
        pooled_g_test(flat, GTestSpec(POOLED_TERMS))


@pytest.mark.parametrize("alpha, message", [
    ((0.1, 0.2), "alpha_known must match the treatment terms"),
    ((0.1, 0.2, 0.3, 0.4), "alpha_known must match the treatment terms"),
    (("a", "b", "c"), "alpha_known must be a list of numbers"),
])
def test_alpha_known_is_checked(alpha, message):
    ds = _contract_data()
    with pytest.raises(ConfigError, match=message):
        g_test_at(ds, additive_blip("1"), 0.5, treatment_terms=SNDM_TERMS, alpha_known=alpha)
    with pytest.raises(ConfigError, match=message):
        g_estimate(ds, additive_blip("1"), treatment_terms=SNDM_TERMS, alpha_known=alpha,
                   psi_box=((0.0, 2.0),), grid_points=5)
    de = simulate(direct_effect_scenario(psi=(1.0, 0.0)), 300, seed=4)
    with pytest.raises(ConfigError, match=message):
        direct_effect_g_estimate(de, SPLIT01, DeSndmSpec(additive_blip("1")),
                                 psi_box=((0.0, 2.0),), z_laws={1: DE_A1_LAW},
                                 p_alpha_known=alpha, grid_points=5)


def test_non_binary_treatment_is_named():
    ds = _contract_data()
    A = ds.A.copy()
    A[3, 1] = 0.5
    bad = type(ds)(ds.schema, ds.L, A, ds.Y)
    with pytest.raises(EstimationError, match="binary treatments; A1 is not 0/1"):
        g_test_at(bad, additive_blip("1"), 0.5, treatment_terms=SNDM_TERMS)
    # Only the tested occasions are checked.
    g_test_at(bad, additive_blip("1"), 0.5, treatment_terms=SNDM_TERMS, occasions=(0,))


@pytest.mark.parametrize("known", [True, False])
@pytest.mark.parametrize("points", [(21,), (5, 5)])
def test_g_estimate_matches_the_former_search(known, points):
    dim = len(points)
    cofactors, box = ("1", "a_prev")[:dim], ((0.0, 2.0), (-0.5, 1.5))[:dim]
    ds = simulate(sndm_scenario(cofactors=cofactors, psi=(1.0, 0.5)[:dim]), 1000, seed=76)
    spec = additive_blip(*cofactors)
    alpha = SNDM_ALPHA if known else None
    est = g_estimate(ds, spec, treatment_terms=SNDM_TERMS, alpha_known=alpha,
                     psi_box=box, grid_points=points)
    ref = _RefGEngine(ds, spec, SNDM_TERMS, None, alpha, None, 0.05)
    assert est.method == "closed-form"
    _close_estimate(est, _ref_search(ref, dim, np.asarray(box), points, 0.05))


@pytest.mark.parametrize("case", [
    # (scenario psi, blip cofactors, z laws, known studied-arm coefficients, grid)
    ((1.0, 0.5), ("1", "a1"), {1: DE_A1_LAW}, (0.0,), (9, 9)),
    ((1.0, 0.5), ("1", "a1"), None, None, (7, 7)),
    ((1.0, 0.0), ("1",), {1: DE_A1_LAW}, (0.0,), 41),
    ((1.0, 0.0), ("1",), None, None, 41),
])
def test_direct_effect_g_estimate_matches_the_former_engine(case):
    psi, cofactors, z_laws, known, points = case
    ds = simulate(direct_effect_scenario(psi=psi), 1500, seed=67)
    spec = DeSndmSpec(additive_blip(*cofactors))
    box = ((0.0, 2.0), (-0.5, 1.5))[:len(cofactors)]
    kw = dict(psi_box=box, z_laws=z_laws, p_alpha_known=known, grid_points=points)
    est = direct_effect_g_estimate(ds, SPLIT01, spec, **kw)
    assert est.method == "closed-form"
    _close_estimate(est, _ref_de_g_estimate(ds, SPLIT01, spec, **kw))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(300, 1500), known=st.booleans(),
       interaction=st.sampled_from([0.0, 1.5]))
@example(seed=1, n=5000, known=True, interaction=1.5)
@example(seed=2, n=5000, known=False, interaction=1.5)
def test_naive_scan_matches_per_point_tests(seed, n, known, interaction):
    # The scan scores its grid in one batched pass, so its p-values agree
    # with the per-point tests to rounding, not bit for bit; the decisions
    # and the best grid point must not move.
    cfg = masked_interaction_scenario(interaction=interaction)
    ds = simulate(cfg, n, seed=seed)
    alpha = design_alpha(cfg, ("1", "lm", "a0"), occasions=(1,)) if known else None
    rep = naive_direct_effect_demo(ds, a1_alpha_known=alpha)
    ref = _ref_scan(ds, rep.scan_grid, alpha)
    np.testing.assert_allclose(rep.scan_pvals, ref, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(rep.scan_pvals < rep.level, ref < rep.level)
    assert np.argmax(rep.scan_pvals) == np.argmax(ref)


@pytest.mark.parametrize("qstar", ["none", "cols"])
def test_stats_along_one_axis_equals_stats_at_full_psi(qstar):
    # The affine engine scores the axis from the [Z_0, Z_1] blocks alone;
    # any other engine reports at the full psi with the other component 0.
    ds = simulate(sndm_scenario(cofactors=("1", "a_prev"), psi=(1.0, 0.5)), 400, seed=31)
    eng = _g_engine(ds, additive_blip("1", "a_prev"), SNDM_TERMS, QSTARS[qstar],
                    None, None, 0.05)
    vals = np.linspace(-1.0, 2.0, 7)
    full = np.column_stack([np.zeros_like(vals), vals])
    got, want = eng.stats(vals[:, None], axes=(1,)), eng.stats(full)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("fit_full", [False, True])
@pytest.mark.parametrize("known", [True, False])
def test_naive_analysis_builds_one_engine(monkeypatch, known, fit_full):
    built = []
    init = sndm._ScoreEngine.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sndm._ScoreEngine, "__init__", counting)
    cfg = masked_interaction_scenario()
    ds = simulate(cfg, 400, seed=5)
    alpha = design_alpha(cfg, ("1", "lm", "a0"), occasions=(1,)) if known else None
    direct_effect.naive_direct_effect_demo(ds, a1_alpha_known=alpha, fit_full=fit_full)
    assert len(built) == 1


def test_full_family_fit_matches_the_former_search():
    cfg = masked_interaction_scenario()
    ds = simulate(cfg, 600, seed=64)
    alpha = design_alpha(cfg, ("1", "lm", "a0"), occasions=(1,))
    rep = naive_direct_effect_demo(ds, a1_alpha_known=alpha, fit_full=True)
    ref = _RefGEngine(ds, additive_blip("1", "a0", "lm", "a0*lm"), ("1", "lm", "a0"),
                      None, alpha, (1,), 0.05)
    want = _ref_search(ref, 4, np.array([(-3.0, 3.0)] * 4), (5,) * 4, 0.05)
    np.testing.assert_allclose(rep.psi_full, want.psi_hat, rtol=0, atol=1e-6)
    got = ref.report(rep.psi_full).statistic
    assert got <= want.statistic_at_hat + 1e-12


# ---------------------------------------------------------------------------
# The closed-form search against the former search, on the same engine.
# ---------------------------------------------------------------------------


def _engine_case(source, case, seed, n, dim, known):
    """An engine, its box and its grid for one comparison.

    ``case`` "inside" puts the score's root inside the box, "outside" puts
    it beyond the box (the numerical fallbacks run), and "zero" adds an
    all-zero cofactor, whose score and variance vanish: B is singular and V
    rank-deficient.
    """
    if case == "zero":
        # l0 is constant 0 in the direct-effect scenario.
        ds = simulate(direct_effect_scenario(psi=(1.0, 0.5)), n, seed=seed)
        cofactors = ("1", "l0")[2 - dim:]
    elif source == "g":
        cofactors = ("1", "a_prev")[:dim]
        ds = simulate(sndm_scenario(cofactors=cofactors, psi=(1.0, 0.5)[:dim]), n, seed=seed)
    else:
        ds = simulate(direct_effect_scenario(psi=(1.0, 0.5)), n, seed=seed)
        cofactors = ("1", "a1")[:dim]
    box = ((0.0, 2.0), (-0.5, 1.5))[:dim] if case != "outside" else \
        ((3.0, 5.0), (2.5, 4.5))[:dim]
    points = (41,) if dim == 1 else (7, 7)
    if source == "g":
        eng = _g_engine(ds, additive_blip(*cofactors), SNDM_TERMS, None,
                        SNDM_ALPHA if known else None, None, 0.05)
    else:
        weights = _ref_de_weights(ds, SPLIT01, None if seed % 2 else {1: DE_A1_LAW})
        eng = _de_engine(ds, SPLIT01, DeSndmSpec(additive_blip(*cofactors)), weights,
                         (0.0,) if known else None, 0.05)
    return eng, np.asarray(box), points


def _inside(root, box):
    return root is not None and bool(np.all((box[:, 0] <= root) & (root <= box[:, 1])))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(150, 800), dim=st.sampled_from([1, 2]),
       known=st.booleans(), source=st.sampled_from(["g", "de"]),
       case=st.sampled_from(["inside", "outside", "zero"]))
# "inside" draws whose root still falls outside the box (a small sample).
@example(seed=156, n=150, dim=2, known=True, source="g", case="inside")
# A zero-cofactor draw whose two searches end 2e-6 apart on component 0.
@example(seed=158762, n=259, dim=2, known=True, source="g", case="zero")
def test_closed_form_search_matches_the_former_search(seed, n, dim, known, source, case):
    eng, box, points = _engine_case(source, case, seed, n, dim, known)
    new = _search(eng, dim, box, points, 0.05)
    ref = _ref_search(eng, dim, box, points, 0.05)
    _close_estimate(new, ref, identified=case != "zero")
    assert (new.method == "closed-form") == _inside(eng.root(), box)
    if case == "zero" and dim == 2:
        assert eng.root() is None
        assert new.method == "nelder-mead"
        # Only the last component (the all-zero cofactor) is flat; component
        # 0 is pinned, up to a plateau: the statistic of a rank-deficient V
        # reads 0 wherever it is below 1e-8, so its minimum along component
        # 0 is about sqrt(1e-8 / c) either side, c the curvature there, and
        # both searches end on it.
        step = np.array([1e-3, 0.0])
        c = eng.stats(np.array([ref.psi_hat - step, ref.psi_hat + step]))[0].mean() / 1e-6
        assert abs(new.psi_hat[0] - ref.psi_hat[0]) <= 2.0 * np.sqrt(1e-8 / c)


@pytest.mark.parametrize("source", ["g", "de"])
@pytest.mark.parametrize("known", [True, False])
def test_batched_statistics_match_per_point_reports(source, known):
    eng = _engine_case(source, "inside", 11, 500, 2, known)[0]
    psis = _grid(np.array([(-4.0, 6.0), (-3.0, 5.0)]), (9, 9))[0]
    stat, p = eng.stats(psis)
    reps = [eng.report(v) for v in psis]
    want = np.array([r.statistic for r in reps])
    assert np.all(np.abs(stat - want) <= 1e-10 * np.maximum(1.0, want))
    np.testing.assert_allclose(p, [r.p_value for r in reps], rtol=0, atol=1e-10)
    root = eng.root()
    assert eng.report(root).statistic < 1e-12


def test_qstar_and_multiplicative_engines_have_no_closed_form():
    box = np.array([(0.0, 2.0)])
    ds = simulate(sndm_scenario(), 300, seed=3)
    eng = _g_engine(ds, additive_blip("1"), SNDM_TERMS, _qstar_row, None, None, 0.05)
    assert eng.affine is None and eng.root() is None
    est = _search(eng, 1, box, (21,), 0.05)
    assert est.method == "bounded"
    _close_estimate(est, _ref_search(eng, 1, box, (21,), 0.05))
    ds = simulate(sndm_scenario(psi=(0.5,), family="multiplicative"), 300, seed=3)
    eng = _g_engine(ds, multiplicative_blip("1"), SNDM_TERMS, None, None, None, 0.05)
    assert eng.affine is None and eng.root() is None
    _close_estimate(_search(eng, 1, box, (21,), 0.05), _ref_search(eng, 1, box, (21,), 0.05))


# ---------------------------------------------------------------------------
# psi_hat is where the statistic is smallest, on every search path.
# ---------------------------------------------------------------------------


def _minimum_case(kind, dim, where, seed, n, known):
    """An engine and a box: additive (closed form or not), multiplicative,
    or additive with two score columns per component (``_qstar_cols``), the
    truth inside the box or beyond it."""
    cofactors = ("1", "a_prev")[:dim]
    family = "multiplicative" if kind == "multiplicative" else "additive"
    psi = (0.5, 0.2)[:dim] if family == "multiplicative" else (1.0, 0.5)[:dim]
    ds = simulate(sndm_scenario(cofactors=cofactors, psi=psi, family=family), n, seed=seed)
    spec = sndm.BlipSpec(family, cofactors)
    qstar = _qstar_cols if kind == "qstar-cols" else None
    eng = _g_engine(ds, spec, SNDM_TERMS, qstar, SNDM_ALPHA if known else None, None, 0.05)
    shift = 0.0 if where == "inside" else 1.5
    box = np.array([(p - 0.5 + shift, p + 0.5 + shift) for p in psi])
    return eng, box


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(200, 600), dim=st.sampled_from([1, 2]),
       known=st.booleans(), where=st.sampled_from(["inside", "beyond"]),
       kind=st.sampled_from(["additive", "multiplicative", "qstar-cols"]))
def test_psi_hat_minimizes_the_statistic(seed, n, dim, known, where, kind):
    eng, box = _minimum_case(kind, dim, where, seed, n, known)
    points = (21,) if dim == 1 else (7, 7)
    est = _search(eng, dim, box, points, 0.05)
    g = est.grid_stats.min()
    # Relative: a minimum on an edge is found to the search's x tolerance.
    assert est.statistic_at_hat <= g + 1e-7 * max(1.0, g)
    assert (est.method == "closed-form") == _inside(eng.root(), box)


def test_psi_hat_minimizes_a_two_column_score():
    # Two score columns for one component: the statistic's minimum is not a
    # root of either column, so bisecting the first column misses it.
    ds = simulate(sndm_scenario(psi=(1.0,)), 1000, seed=13)
    kw = dict(treatment_terms=SNDM_TERMS, qstar=_qstar_cols, alpha_known=SNDM_ALPHA)
    est = g_estimate(ds, additive_blip("1"), psi_box=((-2.0, 4.0),), grid_points=201, **kw)
    assert est.method == "bounded"
    assert est.statistic_at_hat <= est.grid_stats.min()
    for step in (-1e-3, 1e-3):
        near = sndm.g_test_at(ds, additive_blip("1"), est.psi_hat + step, **kw)
        assert est.statistic_at_hat <= near.statistic
