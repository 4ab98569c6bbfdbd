"""The row group-by, the history-column builder, the forward pass over
table laws, array-at-a-time enumeration and once-per-prefix regime rules
against the code they replaced, which is kept below as the reference."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmethods import scenarios, streams
from gmethods.data import (
    History,
    Regime,
    Schema,
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
)
from gmethods.errors import ConfigError, EstimationError, PositivityError
from gmethods.features import eval_terms, history_cols
from gmethods.gformula import (
    _POSITIVITY_EPS,
    ConditionalLaws,
    JointTable,
    _TableLaw,
    _unsupported,
    g_formula_conditional,
    g_formula_exact,
    g_formula_mc,
)
from gmethods.glm import _ndtr as ndtr
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
    counterfactual_draws,
    direct_effect_scenario,
    discrete_trial_scenario,
    enumerate_joint,
    sequential_trial_scenario,
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
    """P(Y = y | condition) over the table's distinct outcome values, or None
    if the event is null."""
    denom = masked_sum(table, idx, vals)
    if denom <= 0.0:
        return None
    ycol = table.cells.shape[1] - 1
    return np.array([
        masked_sum(table, idx + [ycol], vals + [y]) for y in np.unique(table.cells[:, ycol])
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


def per_key_draw(law, rng, key) -> np.ndarray:
    """_TableLaw.draw as it was: one ``rng.choice`` per key present, in
    ascending key order."""
    counts = np.bincount(key, minlength=len(law.keys))
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(counts)
    out = np.empty(len(key), dtype=np.intp)
    for g in np.flatnonzero(counts):
        out[order[ends[g] - counts[g] : ends[g]]] = rng.choice(
            len(law.values), size=int(counts[g]), p=law.probs[g])
    return out


def sorted_index(law, rows) -> np.ndarray:
    """Positions in ``law.keys`` of the parent rows ``rows``, by stacking them
    under the keys and grouping at 9 decimals, as ``_TableLaw.index`` did.
    A row missing from the table, or with mass below ``_POSITIVITY_EPS``,
    raises PositivityError naming its columns."""
    G = len(law.keys)
    both, group = group_rows(np.vstack([law.keys, rows]))
    key_of = np.full(len(both), -1)
    key_of[group[:G]] = np.arange(G)
    idx = key_of[group[G:]]
    bad = (idx < 0) | (law.mass[idx] < _POSITIVITY_EPS)
    if np.any(bad):
        _unsupported(law, rows[np.argmax(bad)])
    return idx


def unique_extend(law, nxt, regime, m, key, j) -> np.ndarray:
    """_TableLaw.extend as it was: the distinct (key, j) pairs by np.unique,
    matched against the next law's keys by sorting."""
    pairs, at = np.unique(key * len(law.values) + j, return_inverse=True)
    k, v = np.divmod(pairs, len(law.values))
    path = np.column_stack([law.keys[k], law.values[v]])
    path = np.column_stack([path, regime_values(regime, path[:, 0::2], m)])
    return sorted_index(nxt, path)[at]


def extend_outcome(extend, *args):
    """The keys an extend returns, or the PositivityError it raises."""
    try:
        return ("keys", extend(*args).tolist())
    except PositivityError as exc:
        return ("PositivityError", str(exc))


def hand_table(cell, weight) -> JointTable:
    """A K = 1 table with one row per binary index (l0, a0, l1, a1, y): the row
    holds ``cell(*index)`` and the unnormalized mass ``weight(*index)``."""
    index = list(np.ndindex(2, 2, 2, 2, 2))
    w = np.array([weight(*i) for i in index], dtype=float)
    return JointTable(sequential_trial_scenario(K=1).schema,
                      np.array([cell(*i) for i in index], dtype=float), w / w.sum())


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


def _assign(regime: Regime, l_bar) -> float:
    """Treatment the regime assigns after the covariate history l_bar."""
    return float(regime_values(regime, np.array([l_bar], dtype=float), len(l_bar) - 1)[0])


def _regime_prefix(table: JointTable, regime: Regime, l_prefix: tuple[float, ...]) -> list[float]:
    """Treatments the regime assigns along an observed covariate prefix."""
    return [_assign(regime, l_prefix[: j + 1]) for j in range(len(l_prefix))]


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
        am = _assign(regime, l_prefix + [float(lv)])
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
                          a_prefix + [_assign(regime, hist.l_bar)], 1.0, out)
    total = sum(out.values())
    return {k: v / total for k, v in sorted(out.items()) if v > 0.0}


# ---------------------------------------------------------------------------
# Reference: the recursive enumeration, one path and one density call at a time.
# The laws now answer for n parent rows: the walker reads row 0 of a one-row
# answer for the atoms of each variable, and computes bin mass itself, with
# the package's normal CDF (``tests/test_glm.py`` checks that against scipy),
# so the comparison here is of enumeration order and summation, to the bit.
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
            mu = float(config.y_law.mean(cols)[0])
            sd = config.y_law.noise_sd
            mass = np.diff(ndtr((edges - mu) / sd))
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
        for lv in config.l_laws[m].atoms(lcols)[0][0]:
            pl = float(np.asarray(config.l_laws[m].density(lv, lcols))[0])
            if pl <= 0.0:
                continue
            acols = history_cols(np.array([lvals + [lv]]), Ap, m + 1, m, m)
            for av in config.a_laws[m].atoms(acols)[0][0]:
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


def _ref_group_rows(M, decimals=9):
    """The former ``group_rows`` body: a sorted copy of the rows compared
    with ``np.any(..., axis=1)`` (oracle for the column-at-a-time form)."""
    R = np.asarray(M, dtype=float)
    if decimals is not None:
        R = np.round(R, decimals)
    n = R.shape[0]
    if R.shape[1] == 0:
        return np.zeros((min(n, 1), 0)), np.zeros(n, dtype=np.intp)
    order = np.lexsort(R.T[::-1])
    S = R[order]
    first = np.ones(n, dtype=bool)
    first[1:] = np.any(S[1:] != S[:-1], axis=1)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return S[first], inverse


def _group_rows_input(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    ties = rng.integers(-2, 3, size=(300, 4)) / 3.0
    if name == "ties":
        return ties
    if name == "ties-wide":
        return rng.integers(0, 2, size=(500, 9)).astype(float)
    if name in ("binary-16", "binary-17"):  # the widest binary rows counted, then sorted
        return rng.integers(0, 2, size=(400, int(name[-2:]))).astype(float)
    if name == "intercept-and-binary":  # a logistic design of binary regressors
        return np.column_stack([np.ones(1000), rng.integers(0, 2, size=(1000, 2))]).astype(float)
    if name == "binary-one-row":
        return np.tile([1.0, 0.0, 1.0], (7, 1))
    if name == "nearby":  # equal after rounding to 9 places, apart exactly
        return ties + rng.choice([0.0, 1e-12, -1e-12], size=ties.shape)
    if name == "continuous":
        return np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
    if name == "zero-rows":
        return np.zeros((0, 3))
    if name == "zero-columns":
        return np.zeros((5, 0))
    if name == "zero-rows-and-columns":
        return np.zeros((0, 0))
    if name == "signed-zero":
        return np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [-0.0, 1.0], [1.0, 0.0]])
    if name == "nan":
        M = ties[:40].copy()
        M[rng.random(M.shape) < 0.1] = np.nan
        M[5] = M[9] = np.nan
        return M
    raise KeyError(name)


@pytest.mark.parametrize("decimals", [9, None])
@pytest.mark.parametrize("name", ["ties", "ties-wide", "binary-16", "binary-17",
                                  "intercept-and-binary", "binary-one-row", "nearby",
                                  "continuous", "zero-rows", "zero-columns",
                                  "zero-rows-and-columns", "signed-zero", "nan"])
def test_group_rows_matches_the_sorted_copy_form(name, decimals):
    M = _group_rows_input(name)
    keys, inverse = group_rows(M, decimals=decimals)
    want_keys, want_inverse = _ref_group_rows(M, decimals=decimals)
    assert np.array_equal(keys, want_keys, equal_nan=True)
    assert keys.shape == want_keys.shape
    assert np.array_equal(np.signbit(keys), np.signbit(want_keys))
    assert np.array_equal(inverse, want_inverse)
    assert inverse.dtype == want_inverse.dtype


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
        # 1,024 outcome keys: draws are ordered by 16-bit keys.
        enumerate_joint(sequential_trial_scenario(K=4), y_bins=np.linspace(-2, 6, 6)),
    ], ids=["seq-K1", "seq-K2", "discrete", "direct-effect", "sndm", "seq-K4"])
    def test_mc_draws_equal_the_masked_laws(self, table):
        K = table.schema.K
        l_laws = [MaskedConditional(table, m) for m in range(K + 1)]
        laws = ConditionalLaws.from_table(table)
        for plan in (Regime.static((1.0,) * (K + 1)), Regime.dynamic(_threshold)):
            for draws in (3000, 9000):  # one block, and past one
                np.testing.assert_array_equal(
                    g_formula_mc(laws, plan, draws, 5).samples,
                    float_mc(l_laws, MaskedOutcome(table), plan, draws, 5))

    @pytest.mark.parametrize("K", [1, 4])
    def test_draw_and_extend_equal_the_per_key_forms(self, K):
        table = enumerate_joint(sequential_trial_scenario(K=K), y_bins=np.linspace(-2, 6, 6))
        laws = table.laws
        chain = laws.l_laws + (laws.y_law,)
        plan = Regime.dynamic(_threshold)
        rng = np.random.default_rng(K)
        for m, law in enumerate(chain):
            key = rng.choice(np.flatnonzero(law.mass > 0.0), size=5000)  # shuffled keys
            got, want = streams.substream(3, "draw", m), streams.substream(3, "draw", m)
            j = law.draw(got, key)
            np.testing.assert_array_equal(j, per_key_draw(law, want, key))
            assert got.random() == want.random()
            if m <= K:
                np.testing.assert_array_equal(
                    law.extend(chain[m + 1], plan, m, key, j),
                    unique_extend(law, chain[m + 1], plan, m, key, j))

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

    # (table, plans, whether some extension is unsupported)
    LINK_CASES = {
        # Treatments 7.0 and 0.5 are outside every occasion's support {0, 1}.
        "outside-support": lambda: (
            enumerate_joint(sequential_trial_scenario(K=2), y_bins=np.linspace(-2, 6, 6)),
            (Regime.static((7.0, 7.0, 7.0)),
             Regime.dynamic(lambda m, l_bar: 0.5 if l_bar[-1] else 1.0, "half-if-l")),
            True),
        # The history (l0, a0) = (1, 1) has rows, all of zero mass.
        "zero-mass": lambda: (
            hand_table(lambda *i: i, lambda l0, a0, l1, a1, y: 0.0 if l0 and a0 else 1.0),
            (Regime.static((1.0, 1.0)), Regime.dynamic(_threshold)),
            True),
        # Levels 1/3 and 2/3 are not 9-decimal numbers.
        "thirds": lambda: (
            hand_table(lambda l0, a0, l1, a1, y: ((l0 + 1) / 3, a0, (l1 + 1) / 3, a1, y),
                       lambda l0, a0, l1, a1, y: 0.8 if y == a1 else 0.2),
            (Regime.static((1.0, 1.0)),
             Regime.dynamic(lambda m, l_bar: float(min(l_bar) >= 1 / 3))),
            False),
        # L1 = 0.1 + 0.2 next to a1 = 0 and 0.3 next to a1 = 1: one value at 9
        # decimals, two exactly.
        "near-levels": lambda: (
            hand_table(lambda l0, a0, l1, a1, y: (l0, a0, (0.3 if a1 else 0.1 + 0.2) * l1, a1, y),
                       lambda l0, a0, l1, a1, y: 1.0 + l0 + y),
            (Regime.static((1.0, 1.0)), Regime.static((0.0, 0.0)), Regime.dynamic(_threshold)),
            False),
    }

    @pytest.mark.parametrize("case", list(LINK_CASES))
    def test_linked_extend_equals_the_index_form(self, case):
        table, plans, unsupported = self.LINK_CASES[case]()
        laws = table.laws
        chain = laws.l_laws + (laws.y_law,)
        rng = np.random.default_rng(7)
        wants = []
        for plan in plans:
            for m in range(laws.K + 1):
                law = chain[m]
                key, j = np.nonzero(law.probs > 0.0)  # every live history and value
                # Half the pairs, then all (half of them kept in the plan),
                # then all again and shuffled (every supported pair kept).
                perm = rng.permutation(len(key))
                for at in (perm[: len(key) // 2], np.arange(len(key)), np.arange(len(key)),
                           perm):
                    args = (chain[m + 1], plan, m, key[at], j[at])
                    want = extend_outcome(unique_extend, law, *args)
                    assert extend_outcome(law.extend, *args) == want
                wants.append(want[0])
        assert ("PositivityError" in wants) == unsupported

    @settings(max_examples=20, deadline=None)
    @given(psi0=st.floats(0.0, 2.0), psi1=st.floats(-1.0, 1.0),
           d0=st.floats(-1.0, 1.0), d1=st.floats(-1.0, 1.0))
    def test_table_moment_check_equals_the_cell_loops(self, psi0, psi1, d0, d1):
        table = enumerate_joint(direct_effect_scenario(psi=(psi0, psi1)))
        split = SplitSchema((0,), (1,))
        spec = DeSndmSpec(additive_blip("1", "a1", psi=(psi0 + d0, psi1 + d1)))
        got = direct_effect_moment_check(table, split, spec).per_occasion
        assert got == masked_moment_check(table, split, spec)


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


class TestRegimePlans:
    """Each covariate law keeps one plan per regime, filled lazily by extend:
    no order of passes, and no warm plan, changes an output or an error."""

    SEQ_K2 = enumerate_joint(sequential_trial_scenario(K=2), y_bins=np.linspace(-2, 6, 10))

    @staticmethod
    def fresh(table: JointTable) -> JointTable:
        """The same table with no laws built yet, so no plan."""
        return JointTable(table.schema, table.cells, table.probs)

    @staticmethod
    def histories(table: JointTable, regime: Regime) -> list[History]:
        """Every observed covariate history, with the treatments the regime
        assigns along it."""
        out = []
        for m in range(table.schema.K + 1):
            l_cols = [table.l_col(j) for j in range(m + 1)]
            for l_bar in np.unique(table.cells[:, l_cols], axis=0):
                l_bar = tuple(float(v) for v in l_bar)
                out.append(History(m, l_bar, tuple(_regime_prefix(table, regime, l_bar[:m]))))
        return out

    @staticmethod
    def run(table: JointTable, regime: Regime, step):
        """One pass ("exact", "mc" or a History) as its law's arrays, or the
        PositivityError it raised."""
        try:
            if step == "exact":
                law = g_formula_exact(table, regime)
            elif step == "mc":
                law = g_formula_mc(table.laws, regime, 9000, 5)
            else:
                law = g_formula_conditional(table, regime, step)
        except PositivityError as exc:
            return ("PositivityError", str(exc))
        if law.kind == "samples":
            return ("samples", law.samples)
        return ("exact", law.atoms, law.atom_probs)

    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want) and got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert (g == w) if isinstance(w, str) else np.array_equal(g, w)

    @pytest.mark.parametrize("order", [("exact", "mc", "conditional"), ("mc", "exact"),
                                       ("conditional", "exact")])
    @pytest.mark.parametrize("case", ["seq-K2", "hand", "thinned"])
    def test_every_order_of_passes_gives_the_cold_outputs(self, case, order):
        table = {"seq-K2": self.SEQ_K2, "hand": _hand_table(),
                 "thinned": _oracle_table("thinned", 3)}[case]
        K = table.schema.K
        regimes = (Regime.static((1.0,) * (K + 1)), Regime.static((0.0, 1.0, 0.0)[: K + 1]),
                   Regime.dynamic(_threshold), Regime.dynamic(_alternating))
        outcomes = set()
        for regime in regimes:
            warm = self.fresh(table)
            for name in order:
                steps = self.histories(table, regime) if name == "conditional" else [name]
                for step in steps:
                    got = self.run(warm, regime, step)
                    self.assert_same(got, self.run(self.fresh(table), regime, step))
                    outcomes.add(got[0])
        assert {"exact", "samples" if "mc" in order else "exact"} <= outcomes
        assert ("PositivityError" in outcomes) == (case != "seq-K2")

    def test_a_positivity_error_reads_the_same_after_a_warm_plan(self):
        # Under (1, 1), L0 = 0 has a supported path and L0 = 1 does not.
        table, regime = _hand_table(), Regime.static((1.0, 1.0))
        cold = {step: self.run(self.fresh(table), regime, step) for step in ("exact", "mc")}
        assert cold["exact"][0] == cold["mc"][0] == "PositivityError"
        warm = self.fresh(table)
        assert self.run(warm, regime, History(0, (0.0,), ()))[0] == "exact"
        assert all(np.any(law.plans[regime] >= 0) for law in warm.laws.l_laws)
        for step in ("exact", "mc", "exact"):  # an unsupported pair is never kept
            assert self.run(warm, regime, step) == cold[step]

    def test_the_plan_is_keyed_by_the_whole_regime(self):
        table = self.fresh(self.SEQ_K2)
        ones, zeros = Regime.static((1.0, 1.0, 1.0), "p"), Regime.static((0.0, 0.0, 0.0), "p")
        laws = {}
        for regime in (ones, zeros, ones):
            got = self.run(table, regime, "exact")
            self.assert_same(got, self.run(self.fresh(table), regime, "exact"))
            laws[regime.plan] = got
        assert not np.array_equal(laws[ones.plan][2], laws[zeros.plan][2])
        assert all(len(law.plans) == 2 for law in table.laws.l_laws)

    def test_equal_regimes_share_one_plan(self):
        table = self.fresh(self.SEQ_K2)
        calls = []

        def rule(m, l_bar):
            calls.append((m, l_bar))
            return _threshold(m, l_bar)

        first, second = Regime.dynamic(rule, "x"), Regime.dynamic(rule, "x")
        assert first is not second and first == second
        want = self.run(table, first, "exact")
        called = len(calls)
        self.assert_same(self.run(table, second, "exact"), want)
        assert len(calls) == called > 0
        assert all(list(law.plans) == [first] for law in table.laws.l_laws)

    @pytest.mark.parametrize("rule", [_threshold, _alternating])
    def test_a_rule_runs_once_per_prefix_across_the_passes(self, rule):
        table = self.fresh(self.SEQ_K2)
        calls = Counter()

        def counted(m, l_bar):
            calls[m, l_bar] += 1
            return rule(m, l_bar)

        regime = Regime.dynamic(counted, "counted")
        g_formula_exact(table, regime)
        g_formula_mc(table.laws, regime, 20000, 5)  # three blocks
        for l0 in table.covariate_support(0):
            g_formula_conditional(table, regime, History(0, (float(l0),), ()))
        assert {m for m, _ in calls} == {0, 1, 2}
        assert max(calls.values()) == 1


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
    """n-row atoms, binned ones included, equal n one-row calls."""

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
        law = scenarios._BinnedOutcome(
            LinearOutcome(("1", "u", "a1"), (0.5, 1.0, 0.8), noise_sd=0.7),
            np.linspace(-2.0, 3.0, 9))
        cols = _outcome_parents(50, 2)
        values, probs = law.atoms(cols)
        assert values.shape == probs.shape == (50, 8)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        for i in range(50):
            v1, p1 = law.atoms(self.one_row(cols, i))
            np.testing.assert_array_equal(values[i], v1[0])
            np.testing.assert_array_equal(probs[i], p1[0])


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
