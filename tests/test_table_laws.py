"""The row group-by, the history-column builder, the forward pass over
table laws, array-at-a-time enumeration and once-per-prefix regime rules
against the code they replaced, which is kept below as the reference."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gmethods import scenarios, streams
from gmethods.data import (
    History,
    Regime,
    Schema,
    apply_regime,
    binary,
    continuous,
    group_rows,
    regime_values,
)
from gmethods.direct_effect import (
    DeSndmSpec,
    SplitSchema,
    _table_factor,
    direct_effect_moment_check,
    ipw_weights,
)
from gmethods.errors import ConfigError, EstimationError, PositivityError
from gmethods.features import eval_terms, history_cols
from gmethods.gformula import (
    _POSITIVITY_EPS,
    ConditionalLaws,
    JointTable,
    _TableLaw,
    g_formula_conditional,
    g_formula_exact,
    g_formula_mc,
)
from gmethods.gnull import random_sequential_table
from gmethods.laws import (
    BernoulliLogit,
    DiscreteMarginal,
    LinearOutcome,
    NormalLinear,
)
from gmethods.scenarios import (
    BlipOutcome,
    ScenarioConfig,
    _law_support,
    counterfactual_draws,
    direct_effect_scenario,
    discrete_trial_scenario,
    enumerate_joint,
    sequential_trial_scenario,
    simulate,
    sndm_scenario,
)
from gmethods.sndm import BlipSpec, additive_blip

_MATCH_TOL = 1e-9


# ---------------------------------------------------------------------------
# Reference: masked sums, one per conditioning event.
# ---------------------------------------------------------------------------


def masked_sum(table, idx, vals) -> float:
    mask = np.ones(table.cells.shape[0], dtype=bool)
    for i, v in zip(idx, vals):
        mask &= np.abs(table.cells[:, i] - v) <= _MATCH_TOL
    return float(table.probs[mask].sum())


def masked_factor(table, k) -> np.ndarray:
    """f(a_k | l_bar_k, a_bar_{k-1}) per row, one pair of masked sums per row."""
    cols = [table.l_col(j) for j in range(k + 1)] + [table.a_col(j) for j in range(k)]
    out = np.empty(table.cells.shape[0])
    for r in range(table.cells.shape[0]):
        vals = table.cells[r]
        num_idx = cols + [table.a_col(k)]
        num = masked_sum(table, num_idx, vals[num_idx])
        den = masked_sum(table, cols, vals[cols])
        out[r] = num / den if den > 0 else 0.0
    return out


def masked_y_given(table, idx, vals) -> np.ndarray | None:
    """P(Y = y | condition) over table.y_values, or None if the event is null."""
    denom = masked_sum(table, idx, vals)
    if denom <= 0.0:
        return None
    ycol = table.cells.shape[1] - 1
    return np.array([
        masked_sum(table, idx + [ycol], vals + [y]) for y in table.y_values()
    ]) / denom


class MaskedConditional:
    """Law of L_m given its past, one masked sum per history and value."""

    def __init__(self, table, m):
        self.m = m
        self.support = table.covariate_support(m)
        self._cpt = {}
        parents = []
        for j in range(m):
            parents += [table.l_col(j), table.a_col(j)]
        if parents:
            key_mat = np.round(table.cells[:, parents], 9)
            uniq = np.unique(key_mat, axis=0)
        else:
            uniq = np.zeros((1, 0))
            key_mat = np.zeros((table.cells.shape[0], 0))
        for row in uniq:
            mask = np.all(np.abs(key_mat - row) <= _MATCH_TOL, axis=1)
            denom = float(table.probs[mask].sum())
            if denom <= 0:
                continue
            lcol = table.cells[:, table.l_col(m)]
            self._cpt[tuple(row)] = np.array([
                float(table.probs[mask & (np.abs(lcol - v) <= _MATCH_TOL)].sum())
                for v in self.support
            ]) / denom

    def sample(self, rng, cols, n):
        out = np.empty(n)
        if self.m == 0:
            out[:] = rng.choice(self.support, size=n, p=self._cpt[()])
            return out
        parts = []
        for j in range(self.m):
            parts += [cols[f"l{j}"], cols[f"a{j}"]]
        keys = np.round(np.column_stack(parts), 9)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        for gi, row in enumerate(uniq):
            probs = self._cpt.get(tuple(row))
            if probs is None:
                raise PositivityError(f"unsupported history {tuple(row)}")
            sel = inverse == gi
            out[sel] = rng.choice(self.support, size=int(sel.sum()), p=probs)
        return out


class MaskedOutcome:
    """Law of Y given the full path, one masked sum per path."""

    def __init__(self, table):
        K = table.schema.K
        parents = []
        for j in range(K + 1):
            parents += [table.l_col(j), table.a_col(j)]
        self.K = K
        key_mat = np.round(table.cells[:, parents], 9)
        self._cpt = {}
        for row in np.unique(key_mat, axis=0):
            mask = np.all(np.abs(key_mat - row) <= _MATCH_TOL, axis=1)
            denom = float(table.probs[mask].sum())
            if denom <= 0:
                continue
            self._cpt[tuple(row)] = (table.cells[mask, -1].copy(),
                                     table.probs[mask] / denom)

    def sample(self, rng, cols, n):
        parts = []
        for j in range(self.K + 1):
            parts += [cols[f"l{j}"], cols[f"a{j}"]]
        keys = np.round(np.column_stack(parts), 9)
        out = np.empty(n)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        for gi, row in enumerate(uniq):
            entry = self._cpt.get(tuple(row))
            if entry is None:
                raise PositivityError(f"unsupported history {tuple(row)}")
            atoms, probs = entry
            sel = inverse == gi
            out[sel] = rng.choice(atoms, size=int(sel.sum()), p=probs)
        return out


def float_mc(l_laws, y_law, regime, draws, seed) -> np.ndarray:
    """g_formula_mc as it was: float L and A columns, each law sampled given
    a ``cols`` dict of the draws' parent values."""
    K = len(l_laws) - 1
    ys = np.empty(draws)
    done = 0
    for b in range(streams.block_count(draws)):
        rng = streams.substream(seed, "g-formula-mc", regime.name, b)
        nb = streams.BLOCK
        L = np.zeros((nb, K + 1))
        A = np.zeros((nb, K + 1))
        cols = {}
        for m in range(K + 1):
            L[:, m] = l_laws[m].sample(rng, dict(cols), nb)
            cols[f"l{m}"] = L[:, m]
            A[:, m] = regime_values(regime, L[:, : m + 1], m)
            cols[f"a{m}"] = A[:, m]
        yb = y_law.sample(rng, cols, nb)
        take = min(nb, draws - done)
        ys[done : done + take] = yb[:take]
        done += take
    return ys


def masked_moment_check(table, split, spec):
    """Max within-cell spread of the weighted moment, by masked cell loops."""
    K = table.schema.K
    L = np.column_stack([table.cells[:, table.l_col(j)] for j in range(K + 1)])
    A = np.column_stack([table.cells[:, table.a_col(j)] for j in range(K + 1)])
    S = np.zeros((L.shape[0], spec.blip.dim))
    for m in split.p_occasions:
        cols = {f"l{j}": L[:, j] for j in range(K + 1)}
        cols.update({f"a{j}": A[:, j] for j in range(K + 1)})
        cols["lm"] = L[:, m]
        cols["a_prev"] = A[:, m - 1] if m >= 1 else np.zeros(L.shape[0])
        S += A[:, m][:, None] * eval_terms(spec.blip.cofactors, cols)
    tv = table.cells[:, -1] + S @ spec.blip.require_psi()
    factors = {k: masked_factor(table, k) for k in split.z_occasions}
    live = table.probs > 0.0
    per = {}
    for m in split.p_occasions:
        w = np.ones(len(tv))
        for k, f in factors.items():
            if k >= m + 1:
                w = w * np.where(live, f, 1.0)
        key_cols = ([table.l_col(j) for j in range(m + 1)]
                    + [table.a_col(j) for j in range(m)])
        keys = np.round(table.cells[:, key_cols], 9)
        worst = 0.0
        a_col = table.a_col(m)
        for u in np.unique(keys, axis=0):
            in_cell = live & np.all(np.abs(keys - u) <= 1e-9, axis=1)
            means = []
            for a in np.unique(table.cells[in_cell, a_col]):
                sel = in_cell & (np.abs(table.cells[:, a_col] - a) <= 1e-9)
                mass = float(table.probs[sel].sum())
                means.append(float(np.sum(table.probs[sel] * tv[sel] / w[sel]) / mass))
            if len(means) >= 2:
                worst = max(worst, max(means) - min(means))
        per[m] = worst
    return per


# ---------------------------------------------------------------------------
# Reference: the recursive path walkers behind exact and conditional
# standardization, one masked sum per path.
# ---------------------------------------------------------------------------


def _regime_prefix(table: JointTable, regime: Regime, l_prefix: tuple[float, ...]) -> list[float]:
    """Treatments the regime assigns along an observed covariate prefix."""
    out: list[float] = []
    for j in range(len(l_prefix)):
        hist = History(j, tuple(l_prefix[: j + 1]), tuple(out))
        out.append(apply_regime(regime, hist))
    return out


def _terminal_survivor(table: JointTable, assign: dict[int, float]):
    """Atoms and conditional probabilities of Y given a full (l, a) path."""
    mask = table.match(assign)
    denom = float(table.probs[mask].sum())
    if denom < _POSITIVITY_EPS:
        raise PositivityError(
            "regime requires the outcome law at a history with zero probability"
        )
    y = table.cells[mask, -1]
    p = table.probs[mask] / denom
    return y, p


def _accumulate_paths(
    table: JointTable,
    regime: Regime,
    m: int,
    l_prefix: list[float],
    a_prefix: list[float],
    weight: float,
    out: dict[float, float],
) -> None:
    """Walk covariate paths from occasion m, all earlier values fixed."""
    K = table.schema.K
    if m > K:
        assign = {}
        for j in range(K + 1):
            assign[table.l_col(j)] = l_prefix[j]
            assign[table.a_col(j)] = a_prefix[j]
        y, p = _terminal_survivor(table, assign)
        for v, q in zip(y, p):
            key = round(float(v), 12)
            out[key] = out.get(key, 0.0) + weight * float(q)
        return
    # conditioning event for f(l_m | history): all earlier l's and a's
    cond = {}
    for j in range(m):
        cond[table.l_col(j)] = l_prefix[j]
        cond[table.a_col(j)] = a_prefix[j]
    denom = table.prob(cond) if cond else 1.0
    if denom < _POSITIVITY_EPS:
        raise PositivityError(
            f"conditioning event at occasion {m} has probability ~0 under the table"
        )
    for lv in table.covariate_support(m):
        num = table.prob({**cond, table.l_col(m): float(lv)})
        f = num / denom
        if f <= 0.0:
            continue
        hist = History(m, tuple(l_prefix + [float(lv)]), tuple(a_prefix))
        am = apply_regime(regime, hist)
        _accumulate_paths(
            table, regime, m + 1,
            l_prefix + [float(lv)], a_prefix + [am],
            weight * f, out,
        )


def walker_law(table, regime, hist=None) -> dict[float, float]:
    """Atom -> probability as the walkers' g_formula_exact (no ``hist``) or
    g_formula_conditional computed it, zero-probability atoms dropped.

    The walkers listed an atom for every matching cell, including cells of
    probability zero; the forward pass lists only atoms with positive mass.
    """
    out: dict[float, float] = {}
    if hist is None:
        _accumulate_paths(table, regime, 0, [], [], 1.0, out)
    else:
        m = hist.m
        a_prefix = _regime_prefix(table, regime, hist.l_bar[:m]) if m > 0 else []
        cond = {table.l_col(j): hist.l_bar[j] for j in range(m + 1)}
        cond.update({table.a_col(j): a_prefix[j] for j in range(m)})
        if table.prob(cond) < _POSITIVITY_EPS:
            raise PositivityError("conditioning event of probability zero")
        _accumulate_paths(table, regime, m + 1, list(hist.l_bar),
                          a_prefix + [apply_regime(regime, hist)], 1.0, out)
    total = sum(out.values())
    return {k: v / total for k, v in sorted(out.items()) if v > 0.0}


# ---------------------------------------------------------------------------
# Reference: the recursive enumeration, one path and one density call at a time.
# Only the two outcome-law calls changed: the laws now answer for n parent
# rows, and the walker reads row 0 of a one-row answer.
# ---------------------------------------------------------------------------


def recursive_enumerate_joint(config, y_bins=None) -> JointTable:
    K = config.schema.K
    if isinstance(config.u_law, (DiscreteMarginal,)):
        u_atoms = list(zip(config.u_law.values, config.u_law.probs))
    else:
        raise ConfigError("exact enumeration needs a finite-discrete hidden cause")
    acc: dict[tuple, float] = {}

    def scalar(v: float) -> np.ndarray:
        return np.array([float(v)])

    def walk_y(u: float, lvals: list[float], avals: list[float], w: float) -> None:
        cols = history_cols(np.array([lvals]), np.array([avals]), K + 1, K + 1,
                            extra={"u": scalar(u)})
        if y_bins is None:
            pairs = zip(*(part[0] for part in config.y_law.atoms(cols)))
        else:
            edges = np.asarray(y_bins, dtype=float)
            mids = 0.5 * (edges[:-1] + edges[1:])
            mass = config.y_law.bin_probs(cols, edges)[0].copy()
            mu = float(config.y_law.mean(cols)[0])
            sd = config.y_law.noise_sd
            mass[0] += ndtr((edges[0] - mu) / sd)
            mass[-1] += ndtr(-((edges[-1] - mu) / sd))
            pairs = list(zip(mids, mass))
        for y, py in pairs:
            if py <= 0.0:
                continue
            key = tuple(
                round(float(v), 12)
                for pair in zip(lvals, avals)
                for v in pair
            ) + (round(float(y), 12),)
            acc[key] = acc.get(key, 0.0) + w * float(py)

    def walk(m: int, u: float, lvals: list[float], avals: list[float], w: float) -> None:
        if m > K:
            walk_y(u, lvals, avals, w)
            return
        Ap = np.array([avals])
        lcols = history_cols(np.array([lvals]), Ap, m, m, m, extra={"u": scalar(u)})
        for lv in _law_support(config.l_laws[m]):
            pl = float(np.asarray(config.l_laws[m].density(lv, lcols))[0])
            if pl <= 0.0:
                continue
            acols = history_cols(np.array([lvals + [lv]]), Ap, m + 1, m, m)
            for av in _law_support(config.a_laws[m]):
                pa = float(np.asarray(config.a_laws[m].density(av, acols))[0])
                if pa <= 0.0:
                    continue
                walk(m + 1, u, lvals + [lv], avals + [av], w * pl * pa)

    for u, pu in u_atoms:
        if pu <= 0.0:
            continue
        walk(0, float(u), [], [], float(pu))

    keys = sorted(acc.keys())
    cells = np.array(keys, dtype=float)
    probs = np.array([acc[k] for k in keys])
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise EstimationError(f"enumerated mass {total!r} is not 1; check the laws")
    return JointTable(config.schema, cells, probs / total)


def per_row_regime_values(regime, L_prefix, m):
    """regime_values of a dynamic regime as it was: the rule once per row."""
    return np.array([float(regime.rule(m, tuple(L_prefix[i, : m + 1])))
                     for i in range(L_prefix.shape[0])])


# ---------------------------------------------------------------------------
# Reference: the per-module column builders.
# ---------------------------------------------------------------------------


def old_covariate_keys(m):  # scenarios._l_cols, sndm._covariate_cols
    return {f"l{j}" for j in range(m)} | {f"a{j}" for j in range(m)} | {"a_prev"}


def old_treatment_keys(m):  # features.history_cols, scenarios._a_cols
    return ({f"l{j}" for j in range(m + 1)} | {f"a{j}" for j in range(m)}
            | {"lm", "a_prev"})


def old_trajectory_keys(K):  # scenarios._y_cols, features.row_cols
    return {f"l{j}" for j in range(K + 1)} | {f"a{j}" for j in range(K + 1)}


def old_cofactor_keys(K):  # direct_effect._de_occ_cols
    return old_trajectory_keys(K) | {"lm", "a_prev"}


def _table(seed: int, y_levels: int) -> JointTable:
    return random_sequential_table(np.random.default_rng(seed), l_levels=3,
                                   a_levels=2, y_levels=y_levels)


def _threshold(m, l_bar):
    return 1.0 if l_bar[-1] >= 0.5 else 0.0


def _alternating(m, l_bar):
    return float((m + sum(l_bar)) % 2)


def _hand_table() -> JointTable:
    """K = 1 table that keeps its zero-probability cells: L1 = 1 never follows
    (L0, A0) = (0, 1), A1 = 1 never follows (A0, L1) = (1, 1), and Y = 2 has
    no mass when A1 = 0."""
    cells, probs = [], []
    for l0, a0, l1, a1, y in np.ndindex(2, 2, 2, 2, 3):
        p_l1 = 0.0 if (l0, a0) == (0, 1) else 0.6
        p_a1 = 0.0 if (a0, l1) == (1, 1) else 0.5
        p_y = (0.5, 0.5, 0.0) if a1 == 0 else (0.2, 0.3, 0.5)
        cells.append((l0, a0, l1, a1, y))
        probs.append(0.5 * 0.5 * (p_l1 if l1 else 1.0 - p_l1)
                     * (p_a1 if a1 else 1.0 - p_a1) * p_y[y])
    return JointTable(sequential_trial_scenario(K=1).schema,
                      np.array(cells, dtype=float), np.array(probs))


def _oracle_table(kind: str, seed: int) -> JointTable:
    rng = np.random.default_rng(seed)
    if kind == "sequential":
        K = int(rng.integers(1, 4))
        effects = tuple(rng.uniform(-1.0, 1.0, K + 1))
        if rng.random() < 0.5:
            return enumerate_joint(sequential_trial_scenario(K=K, a_effects=effects),
                                   y_bins=np.linspace(-2.0, 6.0, 7))
        return enumerate_joint(sequential_trial_scenario(K=K, a_effects=effects,
                                                         y_noise_sd=0.0))
    if kind == "direct-effect":
        psi = (float(rng.uniform(0.0, 2.0)), float(rng.uniform(-1.0, 1.0)))
        return enumerate_joint(direct_effect_scenario(psi=psi))
    if kind == "discrete-trial":
        a0, a1 = rng.uniform(-1.0, 1.0, 2)
        return enumerate_joint(discrete_trial_scenario(a0_effect=a0, a1_effect=a1))
    if kind == "thinned":
        # Zero whole (a0, l1, a1) histories and single cells.
        t = random_sequential_table(rng, l_levels=3, y_levels=3)
        a0, l1, a1 = (t.cells[:, c].astype(int) for c in (1, 2, 3))
        drop = rng.random((2, 3, 2))[a0, l1, a1] < 0.2
        probs = np.where(drop | (rng.random(t.probs.size) < 0.1), 0.0, t.probs)
        return JointTable(t.schema, t.cells, probs / probs.sum())
    return _hand_table()


ENUMERATION_KINDS = ["sequential-binned", "sequential-noiseless", "direct-effect",
                     "discrete-trial", "blip", "zero-branches"]


def _enumeration_case(kind: str, seed: int):
    """A scenario with random effects and the y_bins it is enumerated with."""
    rng = np.random.default_rng(seed)
    if kind.startswith("sequential"):
        K = int(rng.integers(1, 4))
        effects = tuple(float(v) for v in rng.uniform(-1.0, 1.0, K + 1))
        u_effect = float(rng.uniform(0.0, 3.0))
        if kind == "sequential-binned":
            return (sequential_trial_scenario(K=K, a_effects=effects, u_effect=u_effect),
                    np.linspace(-2.0, 6.0, 10))
        return sequential_trial_scenario(K=K, a_effects=effects, u_effect=u_effect,
                                         y_noise_sd=0.0), None
    if kind == "direct-effect":
        psi = (float(rng.uniform(0.0, 2.0)), float(rng.uniform(-1.0, 1.0)))
        return direct_effect_scenario(psi=psi, u_effect=float(rng.uniform(0.0, 2.0)),
                                      h_atoms=int(rng.integers(2, 10))), None
    if kind == "discrete-trial":
        a0, a1, u = (float(v) for v in rng.uniform(-1.0, 1.0, 3))
        return discrete_trial_scenario(a0_effect=a0, a1_effect=a1, u_effect=u), None
    if kind == "blip":
        h_atoms = int(rng.integers(2, 10))
        if rng.random() < 0.3:
            return sndm_scenario(family="multiplicative", h_atoms=h_atoms,
                                 psi=(float(rng.uniform(-0.5, 0.5)),)), None
        cofactors = ("1",) if rng.random() < 0.5 else ("1", "lm")
        psi = tuple(float(v) for v in rng.uniform(-1.0, 2.0, len(cofactors)))
        return sndm_scenario(h_atoms=h_atoms, cofactors=cofactors, psi=psi), None
    # A zero-probability hidden atom and noise atom, and A1 = 0 impossible
    # after L1 = 0 (expit(40) rounds to 1).
    config = discrete_trial_scenario(a1_effect=float(rng.uniform(-1.0, 1.0)))
    noise = DiscreteMarginal((-1.0, 0.0, 1.0, 2.0), (0.25, 0.5, 0.25, 0.0))
    return dataclasses.replace(
        config,
        u_law=DiscreteMarginal((0.0, 1.0, 2.0), (0.5, 0.0, 0.5)),
        a_laws=(config.a_laws[0], BernoulliLogit(("1", "lm"), (40.0, -80.0))),
        y_law=dataclasses.replace(config.y_law, noise=noise),
    ), None


def _continuous_covariate_scenario() -> ScenarioConfig:
    schema = Schema((continuous(), continuous()), (binary(), binary()))
    return ScenarioConfig(
        name="continuous-covariates",
        schema=schema,
        u_law=DiscreteMarginal((0.0, 1.0), (0.5, 0.5)),
        l_laws=(NormalLinear(("1", "u"), (0.0, 1.0)),
                NormalLinear(("u", "a0", "l0"), (1.0, 0.5, 0.3))),
        a_laws=(BernoulliLogit(("1", "lm"), (0.0, 1.0)),
                BernoulliLogit(("1", "lm", "a0"), (0.0, 1.0, -0.5))),
        y_law=LinearOutcome(("1", "u", "a0", "a1", "l1"), (0.0, 1.0, 0.5, 0.5, 0.2),
                            noise_sd=1.0),
    )


def _outcome_parents(n: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    cols = {f"{v}{j}": rng.integers(0, 2, n).astype(float) for v in "la" for j in (0, 1)}
    cols["u"] = rng.standard_normal(n)
    return cols


OUTCOME_LAWS = {
    "noiseless": LinearOutcome(("1", "u", "a0", "a0*a1"), (0.3, 1.0, -0.7, 0.25)),
    "discrete-noise": LinearOutcome(("u", "a0", "l1"), (1.0, 0.4, -0.3),
                                    noise=DiscreteMarginal((-1.0, 0.0, 1.0),
                                                           (0.25, 0.5, 0.25))),
    "blip": BlipOutcome(BlipSpec("additive", ("1", "lm")).with_psi((1.0, 0.5))),
}


class TestGroupRows:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 6),
           levels=st.integers(1, 4))
    def test_matches_unique_rows(self, seed, width, levels):
        rng = np.random.default_rng(seed)
        M = rng.integers(-levels, levels, size=(200, width)) / 3.0
        keys, inverse = group_rows(M)
        want, want_inverse = np.unique(np.round(M, 9), axis=0, return_inverse=True)
        np.testing.assert_array_equal(keys, want)
        np.testing.assert_array_equal(inverse, want_inverse.ravel())

    def test_rounding_merges_nearby_rows(self):
        keys, inverse = group_rows(np.array([[1.0], [1.0 + 1e-12], [0.5]]))
        np.testing.assert_array_equal(keys, [[0.5], [1.0]])
        np.testing.assert_array_equal(inverse, [1, 1, 0])

    def test_zero_width_is_one_group(self):
        keys, inverse = group_rows(np.zeros((4, 0)))
        assert keys.shape == (1, 0)
        np.testing.assert_array_equal(inverse, np.zeros(4))

    def test_exact_grouping_keeps_nearby_rows_apart(self):
        keys, inverse = group_rows(np.array([[1.0], [1.0 + 1e-12], [0.5], [1.0]]),
                                   decimals=None)
        np.testing.assert_array_equal(keys, [[0.5], [1.0], [1.0 + 1e-12]])
        np.testing.assert_array_equal(inverse, [1, 2, 0, 1])


class TestTableLawOracle:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), y_levels=st.integers(2, 4),
           parents=st.sampled_from([[1], [0, 1, 2], [0, 1, 2, 3], [2, 3], [3]]))
    def test_masses_match_masked_sums(self, seed, y_levels, parents):
        table = _table(seed, y_levels)
        law = _TableLaw(table, 4, parents)
        for key, mass, probs in zip(law.keys, law.mass, law.probs):
            assert mass == pytest.approx(masked_sum(table, parents, key), abs=1e-15)
            want = masked_y_given(table, parents, list(key))
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), y_levels=st.integers(2, 4),
           k=st.integers(0, 1))
    def test_factor_matches_per_row_definition(self, seed, y_levels, k):
        table = _table(seed, y_levels)
        np.testing.assert_allclose(_table_factor(table, k), masked_factor(table, k),
                                   rtol=0, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), y_levels=st.integers(2, 4),
           parents=st.sampled_from([[0, 1, 2, 3], [0, 1, 2], [1]]))
    def test_y_laws_behind_the_null_predicates(self, seed, y_levels, parents):
        # The three predicates read P(Y | l0, a0, l1, a1), P(Y | l0, a0, l1)
        # and P(Y | a0); every supported condition must match.
        table = _table(seed, y_levels)
        law = _TableLaw(table, 4, parents)
        levels = [np.unique(table.cells[:, c]) for c in parents]
        for vals in np.array(np.meshgrid(*levels, indexing="ij")).reshape(len(parents), -1).T:
            want = masked_y_given(table, parents, list(vals))
            hit = np.all(law.keys == np.round(vals, 9), axis=1)
            if want is None:
                assert not np.any(hit & (law.mass > 0))
            else:
                np.testing.assert_allclose(law.probs[hit][0], want, rtol=0, atol=1e-14)


class TestReplacedPathsAreUnchanged:
    @pytest.mark.parametrize("table", [
        enumerate_joint(sequential_trial_scenario(K=1), y_bins=np.linspace(-2, 6, 6)),
        enumerate_joint(sequential_trial_scenario(K=2), y_bins=np.linspace(-2, 6, 10)),
        enumerate_joint(discrete_trial_scenario()),
        enumerate_joint(direct_effect_scenario()),
        enumerate_joint(sndm_scenario(h_atoms=5)),
    ], ids=["seq-K1", "seq-K2", "discrete", "direct-effect", "sndm"])
    def test_mc_draws_equal_the_masked_laws(self, table):
        K = table.schema.K
        l_laws = [MaskedConditional(table, m) for m in range(K + 1)]
        laws = ConditionalLaws.from_table(table)
        for plan in (Regime.static((1.0,) * (K + 1)), Regime.dynamic(_threshold)):
            np.testing.assert_array_equal(g_formula_mc(laws, plan, 3000, 5).samples,
                                          float_mc(l_laws, MaskedOutcome(table), plan, 3000, 5))

    def test_rules_see_the_tables_own_values(self):
        # Levels 1/3 and 2/3 are not 9-decimal numbers: a rule handed rounded
        # history keys would see 0.333333333 < 1/3 and withhold treatment.
        third = 1.0 / 3.0
        cells, probs = [], []
        for l0, a0, l1, a1, y in np.ndindex(2, 2, 2, 2, 2):
            p_y = 0.8 if a1 else 0.2
            cells.append(((l0 + 1) * third, a0, (l1 + 1) * third, a1, y))
            probs.append(p_y if y else 1.0 - p_y)
        table = JointTable(sequential_trial_scenario(K=1).schema, np.array(cells),
                           np.array(probs) / 16.0)
        seen = set()

        def rule(m, l_bar):
            seen.update(l_bar)
            return float(min(l_bar) >= third)

        exact = g_formula_exact(table, Regime.dynamic(rule, "all-at-least-a-third"))
        want = g_formula_exact(table, Regime.static((1.0, 1.0)))
        np.testing.assert_array_equal(exact.atom_probs, want.atom_probs)
        assert seen == {third, 2 * third}
        seen.clear()
        mc = g_formula_mc(table.laws, Regime.dynamic(rule, "treat"), 2000, 3)
        always = g_formula_mc(table.laws, Regime.dynamic(lambda m, l_bar: 1.0, "treat"), 2000, 3)
        np.testing.assert_array_equal(mc.samples, always.samples)
        assert seen == {third, 2 * third}

    @settings(max_examples=20, deadline=None)
    @given(psi0=st.floats(0.0, 2.0), psi1=st.floats(-1.0, 1.0),
           d0=st.floats(-1.0, 1.0), d1=st.floats(-1.0, 1.0))
    def test_table_moment_check_equals_the_cell_loops(self, psi0, psi1, d0, d1):
        table = enumerate_joint(direct_effect_scenario(psi=(psi0, psi1)))
        split = SplitSchema((0,), (1,))
        spec = DeSndmSpec(additive_blip("1", "a1", psi=(psi0 + d0, psi1 + d1)))
        got = direct_effect_moment_check(table, split, spec).per_occasion
        assert got == masked_moment_check(table, split, spec)

    def test_data_moment_check_equals_the_cell_loops(self):
        cfg = direct_effect_scenario(psi=(1.0, 0.5))
        ds = simulate(cfg, 3000, seed=3)
        split = SplitSchema((0,), (1,))
        spec = DeSndmSpec(additive_blip("1", "a1", psi=(0.8, 0.2)))
        laws = {1: cfg.a_laws[1]}
        w = ipw_weights(ds, split, laws, "design").w_from(1, ds.n)
        S = ds.A[:, :1] * np.column_stack([np.ones(ds.n), ds.A[:, 1]])
        tv = ds.Y + S @ np.array([0.8, 0.2])
        worst = 0.0
        keys = np.round(ds.L[:, :1], 9)
        for u in np.unique(keys, axis=0):
            in_cell = np.all(np.abs(keys - u) <= 1e-9, axis=1)
            means = [float(np.mean(tv[sel] / w[sel]))
                     for a in np.unique(ds.A[in_cell, 0])
                     for sel in [in_cell & (np.abs(ds.A[:, 0] - a) <= 1e-9)]]
            if len(means) >= 2:
                worst = max(worst, max(means) - min(means))
        got = direct_effect_moment_check(ds, split, spec, z_laws=laws)
        assert got.per_occasion == {0: worst}


class TestForwardPassOracle:
    """Exact and conditional standardization against the path walkers: equal
    atoms, probabilities within 1e-15, and PositivityError in the same cases."""

    @staticmethod
    def assert_same_law(table, regime, hist=None):
        def run():
            if hist is None:
                return g_formula_exact(table, regime)
            return g_formula_conditional(table, regime, hist)

        try:
            want = walker_law(table, regime, hist)
        except PositivityError:
            with pytest.raises(PositivityError):
                run()
            return
        got = run()
        np.testing.assert_array_equal(got.atoms, list(want))
        np.testing.assert_allclose(got.atom_probs, list(want.values()), rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["sequential", "direct-effect", "discrete-trial",
                                 "thinned", "hand"]),
           seed=st.integers(0, 10**6),
           plan=st.one_of(st.lists(st.sampled_from([0.0, 1.0]), min_size=4, max_size=4),
                          st.sampled_from([_threshold, _alternating])))
    def test_exact_and_conditional_laws_match_the_walkers(self, kind, seed, plan):
        table = _oracle_table(kind, seed)
        K = table.schema.K
        regime = (Regime.static(plan[: K + 1]) if isinstance(plan, list)
                  else Regime.dynamic(plan))
        self.assert_same_law(table, regime)
        for m in range(K + 1):
            l_cols = [table.l_col(j) for j in range(m + 1)]
            for l_bar in np.unique(table.cells[:, l_cols], axis=0):
                l_bar = tuple(float(v) for v in l_bar)
                a_prev = tuple(_regime_prefix(table, regime, l_bar[:m]))
                self.assert_same_law(table, regime, History(m, l_bar, a_prev))

    def test_hand_table_exercises_both_outcomes(self):
        t = _hand_table()
        # A0 = 1 then L1 = 1 (reachable from L0 = 1) leaves no mass at A1 = 1.
        with pytest.raises(PositivityError, match="a1"):
            g_formula_exact(t, Regime.static((1.0, 1.0)))
        with pytest.raises(PositivityError):
            walker_law(t, Regime.static((1.0, 1.0)))
        # Y = 2 has zero-probability cells behind A1 = 0 but is not listed.
        got = g_formula_exact(t, Regime.static((1.0, 0.0)))
        np.testing.assert_array_equal(got.atoms, [0.0, 1.0])
        self.assert_same_law(t, Regime.static((0.0, 1.0)))
        self.assert_same_law(t, Regime.static((1.0, 0.0)))


class TestContextKeys:
    """Each caller sees exactly the columns the per-module builders gave it."""

    L = np.arange(12.0).reshape(4, 3)
    A = -np.arange(12.0).reshape(4, 3)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_covariate_draw(self, m):
        for extra in ("u", "h"):
            cols = history_cols(self.L, self.A, m, m, m, extra={extra: np.ones(4)})
            assert set(cols) == old_covariate_keys(m) | {extra}

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_treatment(self, m):
        cols = history_cols(self.L, self.A, m + 1, m, m)
        assert set(cols) == old_treatment_keys(m)
        np.testing.assert_array_equal(cols["lm"], self.L[:, m])

    def test_outcome(self):
        cols = history_cols(self.L, self.A, 3, 3, extra={"u": np.ones(4)})
        assert set(cols) == old_trajectory_keys(2) | {"u"}

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_direct_effect_cofactors(self, m):
        cols = history_cols(self.L, self.A, 3, 3, m)
        assert set(cols) == old_cofactor_keys(2)
        np.testing.assert_array_equal(cols["a_prev"],
                                      self.A[:, m - 1] if m else np.zeros(4))

    def test_prefix_arrays_need_no_padding(self):
        # Exact enumeration passes only the values drawn so far.
        L, A = np.array([[1.0, 0.0]]), np.array([[1.0]])
        assert set(history_cols(L, A, 1, 1, 1)) == old_covariate_keys(1)
        assert set(history_cols(L, A, 2, 1, 1)) == old_treatment_keys(1)


class TestArrayEnumerationOracle:
    """Array-at-a-time enumeration against the recursive walk: equal cells
    and equal probabilities."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(ENUMERATION_KINDS), seed=st.integers(0, 10**6))
    @example(kind="sequential-noiseless", seed=218635)
    def test_tables_match_the_recursive_walk(self, kind, seed):
        config, y_bins = _enumeration_case(kind, seed)
        want = recursive_enumerate_joint(config, y_bins)
        got = enumerate_joint(config, y_bins)
        np.testing.assert_array_equal(got.cells, want.cells)
        np.testing.assert_array_equal(got.probs, want.probs)

    def test_zero_probability_branches_leave_no_cells(self):
        config, _ = _enumeration_case("zero-branches", 0)
        table = enumerate_joint(config)
        assert np.all(table.probs > 0.0)
        l1, a1 = table.cells[:, table.l_col(1)], table.cells[:, table.a_col(1)]
        assert not np.any((l1 == 0.0) & (a1 == 0.0))
        assert np.any((l1 == 1.0) & (a1 == 0.0))


class TestLinearLawsPerRow:
    """A law's value for a row is the same alone and inside a batch."""

    LAWS = {
        "logit": lambda law, cols: law.mean(cols),
        "normal": lambda law, cols: law.mean(cols),
        "outcome": lambda law, cols: law.mean(cols),
    }

    @pytest.mark.parametrize("kind", sorted(LAWS))
    def test_one_row_equals_its_row_in_a_batch(self, kind):
        rng = np.random.default_rng(7)
        terms = ("1", "l0", "a0", "l1", "a1", "u", "a0*l1")
        coefs = tuple(rng.uniform(-2.0, 2.0, len(terms)))
        law = {"logit": BernoulliLogit, "normal": NormalLinear,
               "outcome": LinearOutcome}[kind](terms, coefs)
        cols = {name: rng.standard_normal(512) for name in ("l0", "a0", "l1", "a1", "u")}
        batch = self.LAWS[kind](law, cols)
        alone = [self.LAWS[kind](law, {k: v[i : i + 1] for k, v in cols.items()})[0]
                 for i in range(512)]
        np.testing.assert_array_equal(batch, alone)


class TestOutcomeLawsPerRow:
    """n-row atoms and bin masses equal n one-row calls."""

    @staticmethod
    def one_row(cols, i):
        return {k: v[i : i + 1] for k, v in cols.items()}

    @pytest.mark.parametrize("name", sorted(OUTCOME_LAWS))
    def test_atoms(self, name):
        law, cols = OUTCOME_LAWS[name], _outcome_parents(50, 1)
        values, probs = law.atoms(cols)
        assert values.shape == probs.shape and values.shape[0] == 50
        for i in range(50):
            v1, p1 = law.atoms(self.one_row(cols, i))
            np.testing.assert_allclose(values[i], v1[0], rtol=1e-15, atol=1e-15)
            np.testing.assert_array_equal(probs[i], p1[0])

    def test_bin_probs(self):
        law = LinearOutcome(("1", "u", "a1"), (0.5, 1.0, 0.8), noise_sd=0.7)
        cols, edges = _outcome_parents(50, 2), np.linspace(-2.0, 3.0, 9)
        mass = law.bin_probs(cols, edges)
        assert mass.shape == (50, 8)
        for i in range(50):
            np.testing.assert_allclose(mass[i], law.bin_probs(self.one_row(cols, i), edges)[0],
                                       rtol=1e-14, atol=1e-15)


class TestRegimeRuleOncePerPrefix:
    """regime_values calls a dynamic rule once per distinct (exactly equal)
    covariate prefix and gives what one call per row gave."""

    @staticmethod
    def counted(rule):
        calls = []

        def wrapped(m, l_bar):
            calls.append(l_bar)
            return rule(m, l_bar)

        return wrapped, calls

    @staticmethod
    def prefixes(kind: str, rng) -> np.ndarray:
        if kind == "discrete":
            return rng.integers(0, 3, size=(400, 3)).astype(float)
        if kind == "continuous":
            L = rng.standard_normal((40, 3))[rng.integers(0, 40, 400)]
            L[:5] = L[5:10] + 1e-12  # rows that 9-decimal rounding would merge
            return L
        return np.zeros((0, 3))

    @pytest.mark.parametrize("kind", ["discrete", "continuous", "empty"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_once_per_prefix_and_equal_to_per_row(self, kind, m):
        L = self.prefixes(kind, np.random.default_rng(m))

        def rule(m, l_bar):
            return float(np.sin(1e9 * sum(l_bar)) + m)

        counted, calls = self.counted(rule)
        got = regime_values(Regime.dynamic(counted), L, m)
        distinct = {tuple(row) for row in L[:, : m + 1]}
        assert len(calls) == len(distinct)
        assert set(calls) == distinct
        assert got.shape == (L.shape[0],) and got.dtype == np.float64
        np.testing.assert_array_equal(got, per_row_regime_values(Regime.dynamic(rule), L, m))

    def test_rollout_under_a_dynamic_regime_equals_per_row(self, monkeypatch):
        # Continuous covariates: every prefix is distinct, so the rule runs
        # once per row either way, and the draws must agree bit for bit.
        config = _continuous_covariate_scenario()
        counted, calls = self.counted(lambda m, l_bar: float(l_bar[-1] > np.mean(l_bar)))
        regime = Regime.dynamic(counted, "above-mean")
        got = counterfactual_draws(config, regime, 3000, seed=4)
        grouped = len(calls)
        monkeypatch.setattr(scenarios, "regime_values", per_row_regime_values)
        want = counterfactual_draws(config, regime, 3000, seed=4)
        np.testing.assert_array_equal(got, want)
        assert 2 * grouped == len(calls)
