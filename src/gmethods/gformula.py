"""Standardization over covariate history: exact, conditional, and MC forms.

The internal standard object is the survivor function S_g(y) = pr[Y_g > y]
of the outcome under a regime g; its CSV export, through
``data._write_table``, is the distribution function F = 1 - S.  Exact,
conditional and Monte Carlo evaluation all read the same conditional laws
of a JointTable (finite joint law of the observable record), built once
per table as ``JointTable.laws``, which ``ConditionalLaws.from_table``
returns.  Building them links each
covariate law to the next one through a child map (see ``_TableLaw``).
All three forms start at the root law's one history and carry a history
as its integer position in the current law's keys, advanced through one
step, ``_TableLaw.extend``, a lookup in the regime's plan: the conditional
form extends by each observed covariate value of its history, then it and
the exact form extend every live history by each covariate value of
positive probability, and the Monte Carlo form extends each draw by the
value it draws.  A plan maps each (history, value) pair of one law to the
next law's key under one regime; it is kept on the law per regime, so the
three forms share it, and filled lazily from the child map for the pairs
some pass reaches.  No history is ever matched against a law's keys by
sorting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

import numpy as np

from .data import History, Regime, Schema, _read_table, _write_table, group_rows, regime_values
from .errors import ConfigError, EstimationError, PositivityError, _count
from .glm import expit
from .laws import _choice_cdf, _invert_cdf
from . import streams

_MATCH_TOL = 1e-9
_POSITIVITY_EPS = 1e-12


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
        if not (np.all(np.isfinite(cells)) and np.all(np.isfinite(probs))):
            raise ConfigError("non-finite cell value or probability")
        if np.any(probs < -1e-15):
            raise ConfigError("negative cell probability")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ConfigError(
                f"cell probabilities sum to {probs.sum()!r}, not 1 within 1e-12"
            )
        probs = np.maximum(probs, 0.0)  # roundoff negatives admitted above
        for arr in (cells, probs):
            arr.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "probs", probs)

    @cached_property
    def laws(self) -> "ConditionalLaws":
        """The table's conditional laws, built on first use and then kept."""
        return ConditionalLaws._build(self)

    @staticmethod
    def l_col(m: int) -> int:
        return 2 * m

    @staticmethod
    def a_col(m: int) -> int:
        return 2 * m + 1

    def covariate_support(self, m: int) -> np.ndarray:
        return np.unique(self.cells[:, self.l_col(m)])

    def match(self, assign: dict[int, float]) -> np.ndarray:
        """Boolean mask of cells whose column values match ``assign``."""
        mask = np.ones(self.cells.shape[0], dtype=bool)
        for col, v in assign.items():
            mask &= np.abs(self.cells[:, col] - float(v)) <= _MATCH_TOL
        return mask

    def prob(self, assign: dict[int, float]) -> float:
        return float(self.probs[self.match(assign)].sum())

    def to_csv(self, path: str) -> None:
        _write_table(path, self.schema.columns() + ["prob"], [*self.cells.T, self.probs])

    @staticmethod
    def from_csv(path: str, schema: Schema) -> "JointTable":
        rows = _read_table(path, schema.columns() + ["prob"])
        return JointTable(schema, rows[:, :-1], rows[:, -1])


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
        return 1.0 - self.survivor(y)

    def mean(self) -> float:
        if self.kind == "exact":
            return float(np.sum(self.atoms * self.atom_probs))
        return float(np.mean(self.samples))

    def to_csv(self, path: str) -> None:
        """Exact laws export a (y, F) grid; sample laws a raw sample column."""
        if self.kind == "exact":
            _write_table(path, ["y", "F"], [self.atoms, np.cumsum(self.atom_probs)])
        else:
            _write_table(path, ["y"], [self.samples])


class _TableLaw:
    """Exact law of one table column given other columns, read off a JointTable.

    ``keys`` are the distinct parent rows (see ``group_rows``), each held as
    its first table row's own values; ``mass`` their probabilities, ``values``
    the distinct values of the column, and ``probs[i, j]`` the probability of
    ``values[j]`` given ``keys[i]`` (a zero row where the parent row has no
    mass; ``cdf`` holds the rows' CDFs).  ``row_key`` and ``row_value`` place
    each table row in ``keys`` and ``values``.  ``draw`` and ``extend`` advance
    histories held as positions in ``keys``.

    A covariate law of ``ConditionalLaws`` is linked to the next law when
    the laws are built (``link``): ``child[k, v, t]`` is the position in the
    next law's keys of ``keys[k]`` extended by ``values[v]`` and
    ``treatments[t]``, the t-th distinct treatment of the occasion, or -1
    where the table has no such history or its mass is below
    ``_POSITIVITY_EPS``.  It is filled by one scatter over the table's rows,
    with values and treatments compared after rounding to 9 decimals, as
    ``group_rows`` compares them.  A forward pass starts at the root law's
    one key, 0, so every history it holds was reached through a link.

    ``plans[regime][k, v]`` is ``child[k, v, t]`` at the treatment t the
    regime assigns to ``keys[k]`` extended by ``values[v]``, or -1 where it
    is not known yet.  A plan is made on a regime's first ``extend`` and
    kept, keyed by the (frozen, hashable) regime, so equal regimes share it.
    It is filled lazily: ``extend`` reads the child map, and calls the
    regime, only for the pairs its plan does not hold yet, and keeps the
    supported ones, so a rule is called only on histories some pass reaches.
    An unsupported pair is never kept, and it raises the same
    ``PositivityError`` however warm the plan is.
    """

    def __init__(self, table: JointTable, column: int, parents: list[int]):
        names = table.schema.columns()
        self.name = names[column]
        self.parent_names = [names[c].lower() for c in parents]
        _, self.row_key = group_rows(table.cells[:, parents])
        _, first = np.unique(self.row_key, return_index=True)
        self.keys = table.cells[np.ix_(first, parents)]
        self.values, self.row_value = np.unique(table.cells[:, column], return_inverse=True)
        G, V = len(self.keys), len(self.values)
        self.mass = np.bincount(self.row_key, weights=table.probs, minlength=G)
        joint = np.bincount(self.row_key * V + self.row_value, weights=table.probs,
                            minlength=G * V).reshape(G, V)
        live = self.mass > 0.0
        self.probs = np.zeros((G, V))
        self.probs[live] = joint[live] / self.mass[live, None]
        self.cdf = _choice_cdf(self.probs)
        self.plans: dict[Regime, np.ndarray] = {}

    def link(self, nxt: "_TableLaw", treatment: np.ndarray) -> None:
        """Store ``treatments`` and ``child`` for extending into ``nxt``, whose
        parents are this law's parents, its column and the table column
        ``treatment``.  The last treatment slot, all -1, takes a treatment
        the table does not hold.  ``position`` maps each value, rounded to
        9 decimals, to its place in ``values``."""
        self.treatments, row_t = np.unique(np.round(treatment, 9), return_inverse=True)
        rounded = np.round(self.values, 9)
        _, same = np.unique(rounded, return_inverse=True)
        child = np.full((len(self.keys), same.max() + 1, len(self.treatments) + 1), -1,
                        dtype=np.min_scalar_type(-len(nxt.keys)))
        child[self.row_key, same[self.row_value], row_t] = nxt.row_key
        supported = np.append(nxt.mass >= _POSITIVITY_EPS, False)  # -1 reads the False
        child[~supported[child]] = -1
        self.child = child[:, same]
        self.position = dict(zip(rounded.tolist(), range(len(self.values))))

    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct values at 12 decimals, and each value's position among them."""
        return np.unique([round(float(v), 12) for v in self.values], return_inverse=True)

    def draw(self, rng: np.random.Generator, key: np.ndarray) -> np.ndarray:
        """Positions in ``values`` drawn given each history ``key``, the same as
        one ``rng.choice`` per key present in ascending key order: each draw's
        uniform, handed out in stable key order, inverts its key's CDF."""
        order = np.argsort(key.astype(np.min_scalar_type(len(self.keys) - 1)), kind="stable")
        u = np.empty(len(key))
        u[order] = rng.random(len(key))
        return _invert_cdf(self.cdf, u, key)

    def extend(self, nxt: "_TableLaw", regime: Regime, m: int, key: np.ndarray,
               j: np.ndarray) -> np.ndarray:
        """Positions in ``nxt.keys`` of the histories ``keys[key]`` extended by
        the covariate value ``values[j]`` at occasion m and the treatment the
        regime assigns, read from the regime's plan.  The pairs the plan does
        not hold yet are read from ``child`` (the regime sees each distinct
        such pair once, with the table's own values) and then kept in it."""
        plan = self.plans.get(regime)
        if plan is None:
            plan = self.plans[regime] = np.full(self.probs.shape, -1, dtype=np.intp)
        code = key * len(self.values) + j
        idx = plan.ravel()[code]  # a flat gather: about twice as fast as plan[key, j]
        miss = idx < 0
        if not miss.any():
            return idx
        code = code[miss]
        seen = np.bincount(code, minlength=plan.size) > 0
        k, v = np.divmod(np.flatnonzero(seen), len(self.values))
        a = regime_values(regime, np.column_stack([self.keys[k, 0::2], self.values[v]]), m)
        held, T = np.round(a, 9), len(self.treatments)
        t = np.searchsorted(self.treatments, held)
        t[self.treatments[np.minimum(t, T - 1)] != held] = T
        found = self.child[k, v, t].astype(np.intp)
        if np.any(found < 0):
            b = np.argmax(found < 0)
            _unsupported(nxt, np.concatenate([self.keys[k[b]], [self.values[v[b]], a[b]]]))
        plan[k, v] = found
        idx[miss] = found[np.cumsum(seen)[code] - 1]
        return idx


def _unsupported(law: _TableLaw, row: np.ndarray) -> NoReturn:
    at = dict(zip(law.parent_names, map(float, row)))
    raise PositivityError(f"law of {law.name} required for an unsupported history {at}")


@dataclass(frozen=True)
class ConditionalLaws:
    """Conditional laws f(l_m | past) and f(y | path) for standardization.

    The covariate law at occasion m sees columns l0, a0, ..., l_{m-1},
    a_{m-1}, the outcome law the full path; each is a ``_TableLaw``, and
    each covariate law is linked to the next, so its ``extend`` lands in
    the next one's ``keys``.
    """

    K: int
    l_laws: tuple
    y_law: object

    @staticmethod
    def from_table(table: JointTable) -> "ConditionalLaws":
        """The table's laws, ``table.laws``: built on first use and then kept."""
        return table.laws

    @staticmethod
    def _build(table: JointTable) -> "ConditionalLaws":
        def given_past(col: int) -> _TableLaw:
            return _TableLaw(table, col, list(range(col)))

        K = table.schema.K
        chain = [given_past(table.l_col(m)) for m in range(K + 1)]
        chain.append(given_past(table.cells.shape[1] - 1))
        for m in range(K + 1):
            chain[m].link(chain[m + 1], table.cells[:, table.a_col(m)])
        return ConditionalLaws(K, tuple(chain[:-1]), chain[-1])


def _roll_forward(table: JointTable, regime: Regime, l_bar: tuple = ()) -> RegimeDistribution:
    """Outcome law under the regime, walked forward from the root law's one
    history, key 0.

    Each occasion extends every live history through ``_TableLaw.extend``,
    with the treatment the regime assigns: while ``l_bar`` lasts by its
    observed covariate value (a value the table does not hold raises
    ``PositivityError``), then by each covariate value of positive
    probability, weighted by it.  The outcome law is mixed with the weights.
    """
    laws = table.laws
    chain = laws.l_laws + (laws.y_law,)
    key, w = np.zeros(1, dtype=np.intp), np.ones(1)
    for m in range(laws.K + 1):
        law = chain[m]
        if m < len(l_bar):
            j = law.position.get(float(np.round(l_bar[m], 9)))
            if j is None:
                raise PositivityError(f"{law.name} = {l_bar[m]!r} is not a value of the table")
            j = np.array([j])
        else:
            i, j = np.nonzero(law.probs[key] > 0.0)
            w, key = w[i] * law.probs[key[i], j], key[i]
        key = law.extend(chain[m + 1], regime, m, key, j)
    atoms, at = laws.y_law.atoms
    probs = np.bincount(at, weights=w @ laws.y_law.probs[key])
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise EstimationError(f"path weights sum to {total!r}; table is inconsistent")
    keep = probs > 0.0
    return RegimeDistribution.exact(atoms[keep], probs[keep] / total, regime.name)


def g_formula_exact(table: JointTable, regime: Regime) -> RegimeDistribution:
    """Exact standardized outcome law under the regime."""
    return _roll_forward(table, regime)


def g_formula_conditional(table: JointTable, regime: Regime, hist: History) -> RegimeDistribution:
    """Standardized law given covariate history l_bar_m, treatments by regime.

    Treatments through hist.m are those the regime assigns along the observed
    covariate prefix, and ``hist.a_bar_prev`` must equal them; from hist.m on,
    the regime continues and remaining covariates are integrated out.
    """
    m = hist.m
    if m > table.schema.K:
        raise ConfigError(f"history at occasion {m} is past the table's last occasion")
    L = np.array([hist.l_bar], dtype=float)
    A = tuple(float(regime_values(regime, L[:, : j + 1], j)[0]) for j in range(m))
    if np.any(np.abs(np.subtract(A, hist.a_bar_prev)) > _MATCH_TOL):
        raise ConfigError(
            f"history treatments {hist.a_bar_prev} differ from the "
            f"{A} that {regime.name} assigns along {hist.l_bar}"
        )
    return _roll_forward(table, regime, hist.l_bar)


def g_formula_mc(
    laws: ConditionalLaws,
    regime: Regime,
    draws: int,
    seed: int,
) -> RegimeDistribution:
    """Monte Carlo standardization: roll covariates forward under the regime,
    each draw carried as its history's position in the current law."""
    draws = _count("draws", draws)
    chain = laws.l_laws + (laws.y_law,)
    nb = streams.BLOCK
    ys = np.empty(streams.block_count(draws) * nb)
    for b in range(streams.block_count(draws)):
        rng = streams.substream(seed, "g-formula-mc", regime.name, b)
        key = np.zeros(nb, dtype=np.intp)
        for m in range(laws.K + 1):
            key = chain[m].extend(chain[m + 1], regime, m, key, chain[m].draw(rng, key))
        ys[b * nb : (b + 1) * nb] = laws.y_law.values[laws.y_law.draw(rng, key)]
    return RegimeDistribution.from_samples(ys[:draws], regime.name)


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
