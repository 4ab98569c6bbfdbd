"""Parametric conditional laws used by scenarios and Monte Carlo rollouts.

Every law answers the same calls, given its parent columns ``cols`` (a
name -> array mapping, one row per parent row; see the features module for
term names):

* ``sample(rng, cols, n)`` — consumes the stream of n draws and returns
  one value per parent row, ``len(cols) <= n`` values: a block rollout
  draws its full variate count and evaluates only the rows it keeps (a law
  that draws refuses fewer draws than rows);
* ``density(values, cols)`` — the density of ``values`` (a scalar or one
  value per row) given each parent row; a finite law's density is its pmf;
* ``mean(cols)`` — the mean given each parent row;
* ``atoms(cols)`` — on finite laws only, (values, probs), each (n, k): the
  k atoms of the law and their masses given each of n parent rows.

A root law (the hidden cause) has no parents.  It receives the occasion-0
context ``history_cols(L, A, 0, 0, 0)``, which holds only "a_prev" = 0 and
so gives the row count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .features import Cols, eval_term
from .glm import expit

_SQRT2PI = np.sqrt(2.0 * np.pi)


def _linear(terms: tuple[str, ...], coefs: tuple[float, ...], cols: Cols) -> np.ndarray:
    """coefs . terms(parents), summed a term column at a time: unlike a BLAS
    ``X @ coefs``, a row's value does not depend on the rows evaluated with it."""
    if not terms:
        raise ConfigError("empty term list")
    return sum(eval_term(t, cols) * float(c) for t, c in zip(terms, coefs))


def _rows(cols: Cols) -> int:
    """The number of parent rows."""
    return len(next(iter(cols.values())))


def _ones(cols: Cols) -> np.ndarray:
    """A column of ones, one per parent row."""
    return np.ones(_rows(cols))


def _kept(draws: np.ndarray, cols: Cols) -> np.ndarray:
    """The leading draws, one per parent row; refuses fewer draws than rows."""
    rows = _rows(cols)
    if rows > len(draws):
        raise ConfigError(f"{rows} parent rows but only {len(draws)} draws")
    return draws[:rows]


def _choice_cdf(probs: np.ndarray) -> np.ndarray:
    """Each row's CDF as ``Generator.choice`` computes it (the cumsum over its
    last entry; a zero row stays zero), kept as the V - 1 leading columns."""
    cdf = np.cumsum(probs, axis=1)
    np.divide(cdf, cdf[:, -1:], out=cdf, where=cdf[:, -1:] > 0.0)
    return cdf[:, :-1].T.copy()


def _invert_cdf(cdf: np.ndarray, u: np.ndarray, key) -> np.ndarray:
    """Positions drawn at the uniforms ``u`` from the ``_choice_cdf`` rows ``key``:
    the count of entries <= u, ``Generator.choice``'s searchsorted(side="right")."""
    return sum((col[key] <= u for col in cdf), np.zeros(len(u), dtype=np.intp))


def _finite_density(values, support, probs) -> np.ndarray:
    """Mass of ``values`` on atoms ``support`` with ``probs``."""
    v = np.asarray(values, dtype=float)[..., None]
    hit = np.abs(v - np.asarray(support, dtype=float)) <= 1e-9
    return np.where(hit, probs, 0.0).sum(axis=-1)


def _normal_density(values, mu, sd: float) -> np.ndarray:
    z = (np.asarray(values, dtype=float) - mu) / sd
    return np.exp(-0.5 * z * z) / (sd * _SQRT2PI)


@dataclass(frozen=True)
class DiscreteMarginal:
    """Finite-support law that ignores its parents (hidden causes, noise)."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        # Any sequence or 1-D array is stored as a float tuple, so the law
        # stays frozen and hashable.
        for name in ("values", "probs"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if len(self.values) != len(self.probs) or not self.values:
            raise ConfigError("values and probs must align and be non-empty")
        if np.min(np.diff(np.sort(self.values)), initial=np.inf) <= 1e-9:
            raise ConfigError("values must be distinct")
        if abs(sum(self.probs) - 1.0) > 1e-12 or min(self.probs) < 0:
            raise ConfigError("probs must be non-negative and sum to 1")

    def atoms(self, cols: Cols) -> tuple[np.ndarray, np.ndarray]:
        shape = (_rows(cols), len(self.values))
        return np.broadcast_to(self.values, shape), np.broadcast_to(self.probs, shape)

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        u = _kept(rng.random(n), cols)
        return np.asarray(self.values)[_invert_cdf(_choice_cdf(np.array([self.probs])), u, 0)]

    def density(self, values, cols: Cols) -> np.ndarray:
        return _finite_density(values, self.values, self.probs) * _ones(cols)

    def mean(self, cols: Cols) -> np.ndarray:
        return float(np.dot(self.values, self.probs)) * _ones(cols)


@dataclass(frozen=True)
class ConstantLaw:
    """Degenerate law (e.g. an absent covariate pinned at 0); draws no variates."""

    value: float = 0.0

    def atoms(self, cols: Cols) -> tuple[np.ndarray, np.ndarray]:
        return np.full((_rows(cols), 1), float(self.value)), np.ones((_rows(cols), 1))

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        return np.full(_rows(cols), float(self.value))

    def density(self, values, cols: Cols) -> np.ndarray:
        return _finite_density(values, (float(self.value),), 1.0) * _ones(cols)

    def mean(self, cols: Cols) -> np.ndarray:
        return float(self.value) * _ones(cols)


@dataclass(frozen=True)
class BernoulliLogit:
    """pr[X=1 | parents] = expit(coefs . terms(parents))."""

    terms: tuple[str, ...]
    coefs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.coefs):
            raise ConfigError("terms and coefs must align")

    def atoms(self, cols: Cols) -> tuple[np.ndarray, np.ndarray]:
        p = self.mean(cols)
        probs = np.column_stack([1.0 - p, p])
        return np.broadcast_to((0.0, 1.0), probs.shape), probs

    def mean(self, cols: Cols) -> np.ndarray:
        return expit(_linear(self.terms, self.coefs, cols))

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        return (_kept(rng.random(n), cols) < self.mean(cols)).astype(float)

    def density(self, values, cols: Cols) -> np.ndarray:
        p = self.mean(cols)
        v = np.asarray(values, dtype=float)
        return np.where(np.abs(v - 1.0) <= 1e-9, p,
                        np.where(np.abs(v) <= 1e-9, 1.0 - p, 0.0))


@dataclass(frozen=True)
class NormalLinear:
    """X | parents ~ Normal(coefs . terms(parents), sd^2); with terms ("1",)
    it is a root or noise law Normal(mu, sd^2)."""

    terms: tuple[str, ...]
    coefs: tuple[float, ...]
    sd: float = 1.0

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.coefs):
            raise ConfigError("terms and coefs must align")
        if self.sd <= 0:
            raise ConfigError("sd must be positive")

    def mean(self, cols: Cols) -> np.ndarray:
        return _linear(self.terms, self.coefs, cols)

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        return self.mean(cols) + self.sd * _kept(rng.standard_normal(n), cols)

    def density(self, values, cols: Cols) -> np.ndarray:
        return _normal_density(values, self.mean(cols), self.sd)


@dataclass(frozen=True)
class LinearOutcome:
    """Y = coefs . terms(parents) + noise (normal, finite-discrete, or none)."""

    terms: tuple[str, ...]
    coefs: tuple[float, ...]
    noise_sd: float = 0.0
    noise: DiscreteMarginal | ConstantLaw | None = None

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.coefs):
            raise ConfigError("terms and coefs must align")
        if self.noise is not None and self.noise_sd != 0.0:
            raise ConfigError("choose normal or discrete noise, not both")

    def mean(self, cols: Cols) -> np.ndarray:
        mu = _linear(self.terms, self.coefs, cols)
        return mu if self.noise is None else mu + self.noise.mean(cols)

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        out = _linear(self.terms, self.coefs, cols)
        if self.noise_sd > 0.0:
            out = out + self.noise_sd * _kept(rng.standard_normal(n), cols)
        elif self.noise is not None:
            out = out + self.noise.sample(rng, cols, n)
        return out

    def density(self, values, cols: Cols) -> np.ndarray:
        """The noise law's density at ``values`` minus the linear part."""
        mu = _linear(self.terms, self.coefs, cols)
        if self.noise_sd > 0.0:
            return _normal_density(values, mu, self.noise_sd)
        return (self.noise or ConstantLaw()).density(np.asarray(values, dtype=float) - mu,
                                                     cols)

    def atoms(self, cols: Cols) -> tuple[np.ndarray, np.ndarray]:
        """The noise law's atoms shifted by the linear part; discrete noise
        or none only."""
        if self.noise_sd > 0.0:
            raise ConfigError("normal-noise outcome has no atoms; pass y_bins")
        values, probs = (self.noise or ConstantLaw()).atoms(cols)
        return _linear(self.terms, self.coefs, cols)[:, None] + values, probs
