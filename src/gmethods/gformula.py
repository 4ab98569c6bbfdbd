"""Standardization over covariate history: exact, conditional, and MC forms.

The internal standard object is the survivor function S_g(y) = pr[Y_g > y]
of the outcome under a regime g; CSV export converts to the distribution
function F = 1 - S.  Exact evaluation consumes a JointTable (finite joint
law of the observable record); Monte Carlo evaluation consumes conditional
law objects and rolls trajectories forward under the regime.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import History, Regime, Schema, apply_regime, regime_values
from .errors import ConfigError, EstimationError, PositivityError
from .features import Cols
from .glm import expit
from . import streams

_MATCH_TOL = 1e-9
_POSITIVITY_EPS = 1e-12


def group_rows(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of M, compared after rounding to 9 decimals.

    Returns the distinct rounded rows in lexicographic order and, for each
    row of M, the index of its group.  A zero-width M is one group.
    """
    R = np.round(np.asarray(M, dtype=float), 9)
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


@dataclass(frozen=True)
class JointTable:
    """Finite joint law of (L0, A0, ..., LK, AK, Y): support rows + probabilities."""

    schema: Schema
    cells: np.ndarray  # (ncells, 2(K+1)+1), columns L0,A0,...,LK,AK,Y
    probs: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if cells.ndim != 2 or cells.shape[1] != 2 * (self.schema.K + 1) + 1:
            raise ConfigError("cell width does not match the schema")
        if probs.shape != (cells.shape[0],):
            raise ConfigError("one probability per support row required")
        if np.any(probs < -1e-15):
            raise ConfigError("negative cell probability")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ConfigError(
                f"cell probabilities sum to {probs.sum()!r}, not 1 within 1e-12"
            )
        for arr in (cells, probs):
            arr.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "probs", probs)

    @staticmethod
    def l_col(m: int) -> int:
        return 2 * m

    @staticmethod
    def a_col(m: int) -> int:
        return 2 * m + 1

    def y_values(self) -> np.ndarray:
        return np.unique(self.cells[:, -1])

    def covariate_support(self, m: int) -> np.ndarray:
        return np.unique(self.cells[:, self.l_col(m)])

    def treatment_support(self, m: int) -> np.ndarray:
        return np.unique(self.cells[:, self.a_col(m)])

    def match(self, assign: dict[int, float]) -> np.ndarray:
        """Boolean mask of cells whose column values match ``assign``."""
        mask = np.ones(self.cells.shape[0], dtype=bool)
        for col, v in assign.items():
            mask &= np.abs(self.cells[:, col] - float(v)) <= _MATCH_TOL
        return mask

    def prob(self, assign: dict[int, float]) -> float:
        return float(self.probs[self.match(assign)].sum())

    def to_csv(self, path: str) -> None:
        cols = self.schema.columns() + ["prob"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for row, p in zip(self.cells, self.probs):
                w.writerow([repr(float(v)) for v in row] + [repr(float(p))])

    @staticmethod
    def from_csv(path: str, schema: Schema) -> "JointTable":
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r, None)
            if header != schema.columns() + ["prob"]:
                raise ConfigError(f"unexpected table header in {path}")
            raw = [row for row in r if row]
        arr = np.array(raw, dtype=float)
        return JointTable(schema, arr[:, :-1], arr[:, -1])


@dataclass(frozen=True)
class RegimeDistribution:
    """Outcome law under a regime: exact atoms or Monte Carlo samples."""

    kind: str  # "exact" | "samples"
    regime_name: str
    atoms: np.ndarray | None = None
    atom_probs: np.ndarray | None = None
    samples: np.ndarray | None = None

    @staticmethod
    def exact(atoms: np.ndarray, probs: np.ndarray, regime_name: str = "") -> "RegimeDistribution":
        order = np.argsort(atoms)
        return RegimeDistribution("exact", regime_name,
                                  np.asarray(atoms, float)[order],
                                  np.asarray(probs, float)[order], None)

    @staticmethod
    def from_samples(samples: np.ndarray, regime_name: str = "") -> "RegimeDistribution":
        return RegimeDistribution("samples", regime_name, None, None,
                                  np.asarray(samples, dtype=float))

    @property
    def n_samples(self) -> int:
        return 0 if self.samples is None else int(self.samples.size)

    def survivor(self, y) -> np.ndarray | float:
        """S(y) = pr[Y > y], vectorized over y."""
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        if self.kind == "exact":
            out = np.array([float(self.atom_probs[self.atoms > v].sum()) for v in ys])
        else:
            out = np.array([float(np.mean(self.samples > v)) for v in ys])
        return out if np.ndim(y) else float(out[0])

    def cdf(self, y) -> np.ndarray | float:
        s = self.survivor(y)
        return 1.0 - s

    def mean(self) -> float:
        if self.kind == "exact":
            return float(np.sum(self.atoms * self.atom_probs))
        return float(np.mean(self.samples))

    def to_csv(self, path: str) -> None:
        """Exact laws export a (y, F) grid; sample laws a raw sample column."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            if self.kind == "exact":
                w.writerow(["y", "F"])
                running = np.cumsum(self.atom_probs)
                for v, F in zip(self.atoms, running):
                    w.writerow([repr(float(v)), repr(float(F))])
            else:
                w.writerow(["y"])
                for v in self.samples:
                    w.writerow([repr(float(v))])


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


def g_formula_exact(table: JointTable, regime: Regime) -> RegimeDistribution:
    """Exact standardized outcome law under the regime."""
    out: dict[float, float] = {}
    _accumulate_paths(table, regime, 0, [], [], 1.0, out)
    atoms = np.array(sorted(out.keys()))
    probs = np.array([out[k] for k in sorted(out.keys())])
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise EstimationError(f"path weights sum to {total!r}; table is inconsistent")
    return RegimeDistribution.exact(atoms, probs / total, regime.name)


def g_formula_conditional(table: JointTable, regime: Regime, hist: History) -> RegimeDistribution:
    """Standardized law given covariate history l_bar_m, treatments by regime.

    Treatments before hist.m are those the regime assigns along the observed
    covariate prefix; from hist.m on, the regime continues and remaining
    covariates are integrated out.
    """
    m = hist.m
    a_prefix = _regime_prefix(table, regime, hist.l_bar[:m]) if m > 0 else []
    cond = {}
    for j in range(m + 1):
        cond[table.l_col(j)] = hist.l_bar[j]
    for j in range(m):
        cond[table.a_col(j)] = a_prefix[j]
    if table.prob(cond) < _POSITIVITY_EPS:
        raise PositivityError("conditioning event of probability zero")
    out: dict[float, float] = {}
    am = apply_regime(regime, hist)
    _accumulate_paths(
        table, regime, m + 1,
        list(hist.l_bar), a_prefix + [am],
        1.0, out,
    )
    atoms = np.array(sorted(out.keys()))
    probs = np.array([out[k] for k in sorted(out.keys())])
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise EstimationError(f"path weights sum to {total!r}; table is inconsistent")
    return RegimeDistribution.exact(atoms, probs / total, regime.name)


class _TableLaw:
    """Exact law of one table column given other columns, read off a JointTable.

    ``keys`` are the distinct parent rows (see ``group_rows``), ``mass`` their
    probabilities, ``values`` the distinct values of the column, and
    ``probs[i, j]`` the probability of ``values[j]`` given ``keys[i]`` (a zero
    row where the parent row has no mass).  ``row_key`` and ``row_value``
    place each table row in ``keys`` and ``values``.
    """

    def __init__(self, table: JointTable, column: int, parents: list[int]):
        names = table.schema.columns()
        self.name = names[column]
        self.parent_names = [names[c].lower() for c in parents]
        self.keys, self.row_key = group_rows(table.cells[:, parents])
        self.values, self.row_value = np.unique(table.cells[:, column], return_inverse=True)
        G, V = len(self.keys), len(self.values)
        self.mass = np.bincount(self.row_key, weights=table.probs, minlength=G)
        joint = np.bincount(self.row_key * V + self.row_value, weights=table.probs,
                            minlength=G * V).reshape(G, V)
        live = self.mass > 0.0
        self.probs = np.zeros((G, V))
        self.probs[live] = joint[live] / self.mass[live, None]
        self._cpt = {tuple(k): p for k, p, ok in zip(self.keys, self.probs, live) if ok}

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        """Draw the column given each row's parent values in ``cols``."""
        parts = [cols[name] for name in self.parent_names]
        keys, inverse = group_rows(np.column_stack(parts) if parts else np.zeros((n, 0)))
        out = np.empty(n)
        for g, key in enumerate(keys):
            probs = self._cpt.get(tuple(key))
            if probs is None:
                raise PositivityError(
                    f"law of {self.name} required for an unsupported history {tuple(key)}"
                )
            sel = inverse == g
            out[sel] = rng.choice(self.values, size=int(sel.sum()), p=probs)
        return out


@dataclass(frozen=True)
class ConditionalLaws:
    """Conditional laws f(l_m | past) and f(y | path) for MC standardization.

    Law objects expose ``sample(rng, cols, n)``; covariate laws see columns
    l0..l_{m-1}, a0..a_{m-1}, the outcome law sees the full path.
    """

    K: int
    l_laws: tuple
    y_law: object

    @staticmethod
    def from_table(table: JointTable) -> "ConditionalLaws":
        def given_past(col: int) -> _TableLaw:
            return _TableLaw(table, col, list(range(col)))

        K = table.schema.K
        return ConditionalLaws(
            K,
            tuple(given_past(table.l_col(m)) for m in range(K + 1)),
            given_past(table.cells.shape[1] - 1),
        )


def g_formula_mc(
    laws: ConditionalLaws,
    regime: Regime,
    draws: int,
    seed: int,
) -> RegimeDistribution:
    """Monte Carlo standardization: roll covariates forward under the regime."""
    if draws <= 0:
        raise ConfigError("draws must be positive")
    K = laws.K
    ys = np.empty(draws)
    done = 0
    for b in range(streams.block_count(draws)):
        rng = streams.substream(seed, "g-formula-mc", regime.name, b)
        nb = streams.BLOCK
        L = np.zeros((nb, K + 1))
        A = np.zeros((nb, K + 1))
        cols: dict[str, np.ndarray] = {}
        for m in range(K + 1):
            L[:, m] = laws.l_laws[m].sample(rng, dict(cols), nb)
            cols[f"l{m}"] = L[:, m]
            A[:, m] = regime_values(regime, L[:, : m + 1], m)
            cols[f"a{m}"] = A[:, m]
        yb = laws.y_law.sample(rng, cols, nb)
        take = min(nb, draws - done)
        ys[done : done + take] = yb[:take]
        done += take
        if done >= draws:
            break
    return RegimeDistribution.from_samples(ys, regime.name)


def g_mean_plugin(theta, gamma, a0, a1):
    """Plug-in standardized mean for the two-occasion linear/logistic factorization.

    theta = (intercept, early-treatment, covariate, late-treatment) from the
    linear outcome model; gamma = (intercept, early-treatment) from the
    logistic covariate model.  Vectorized over (a0, a1).
    """
    theta = np.asarray(theta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if theta.shape != (4,) or gamma.shape != (2,):
        raise ConfigError("theta must have 4 entries and gamma 2")
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    return theta[0] + theta[1] * a0 + theta[3] * a1 + theta[2] * expit(
        gamma[0] + gamma[1] * a0
    )
