"""Parametric conditional laws used by scenarios and Monte Carlo rollouts.

Every law answers the same calls, given its parent columns ``cols`` (a
name -> array mapping, one row per parent row; see the features module for
term names):

* ``sample(rng, cols, n)`` — n draws, one per parent row;
* ``density(values, cols)`` — the density of ``values`` (a scalar or one
  value per row) given each parent row; a finite law's density is its pmf;
* ``mean(cols)`` — the mean given each parent row;
* ``support()`` — the support, on finite laws only.

A root law (the hidden cause) has no parents.  It receives the occasion-0
context ``history_cols(L, A, 0, 0, 0)``, which holds only "a_prev" = 0 and
so gives the row count.  Outcome laws also give their ``atoms`` or normal
``bin_probs`` as (n, k) arrays, one row per parent row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError
from .features import Cols, eval_terms
from .glm import expit

_SQRT2PI = np.sqrt(2.0 * np.pi)


def _linear(terms: tuple[str, ...], coefs: tuple[float, ...], cols: Cols) -> np.ndarray:
    """coefs . terms(parents), summed a term column at a time: unlike a BLAS
    ``X @ coefs``, a row's value does not depend on the rows evaluated with it."""
    X = eval_terms(terms, cols)
    return sum(X[:, k] * float(c) for k, c in enumerate(coefs))


def _ones(cols: Cols) -> np.ndarray:
    """A column of ones, one per parent row."""
    return np.ones(len(next(iter(cols.values()))))


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
        if len(self.values) != len(self.probs) or not self.values:
            raise ConfigError("values and probs must align and be non-empty")
        if np.min(np.diff(np.sort(self.values)), initial=np.inf) <= 1e-9:
            raise ConfigError("values must be distinct")
        if abs(sum(self.probs) - 1.0) > 1e-12 or min(self.probs) < 0:
            raise ConfigError("probs must be non-negative and sum to 1")

    def support(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        return rng.choice(np.asarray(self.values, dtype=float), size=n,
                          p=np.asarray(self.probs, dtype=float))

    def density(self, values, cols: Cols) -> np.ndarray:
        return _finite_density(values, self.values, self.probs) * _ones(cols)

    def mean(self, cols: Cols) -> np.ndarray:
        return float(np.dot(self.values, self.probs)) * _ones(cols)


@dataclass(frozen=True)
class ConstantLaw:
    """Degenerate law (e.g. an absent covariate pinned at 0); draws no variates."""

    value: float = 0.0

    def support(self) -> tuple[float, ...]:
        return (float(self.value),)

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        return np.full(n, float(self.value))

    def density(self, values, cols: Cols) -> np.ndarray:
        return _finite_density(values, self.support(), 1.0) * _ones(cols)

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

    def support(self) -> tuple[float, ...]:
        return (0.0, 1.0)

    def mean(self, cols: Cols) -> np.ndarray:
        return expit(_linear(self.terms, self.coefs, cols))

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        return (rng.random(n) < self.mean(cols)).astype(float)

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
        return self.mean(cols) + self.sd * rng.standard_normal(n)

    def density(self, values, cols: Cols) -> np.ndarray:
        return _normal_density(values, self.mean(cols), self.sd)


@dataclass(frozen=True)
class LinearOutcome:
    """Y = coefs . terms(parents) + noise (normal, finite-discrete, or none)."""

    terms: tuple[str, ...]
    coefs: tuple[float, ...]
    noise_sd: float = 0.0
    noise: DiscreteMarginal | None = None

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
            out = out + self.noise_sd * rng.standard_normal(n)
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
        """(values, probs), each (n, k): the k atoms of Y given each of n
        parent rows; discrete noise or none only."""
        if self.noise_sd > 0.0:
            raise ConfigError("normal-noise outcome has no atoms; pass y_bins")
        mu = _linear(self.terms, self.coefs, cols)[:, None]
        if self.noise is None:
            return mu, np.ones_like(mu)
        values = mu + np.asarray(self.noise.values, dtype=float)
        return values, np.broadcast_to(np.asarray(self.noise.probs, dtype=float),
                                       values.shape)

    def bin_probs(self, cols: Cols, edges: np.ndarray) -> np.ndarray:
        """(n, bins) mass of Y in [edge_j, edge_{j+1}) given each of n parent
        rows (normal noise)."""
        mu = self.mean(cols)[:, None]
        cdf = ndtr((np.asarray(edges, dtype=float) - mu) / self.noise_sd)
        return np.diff(cdf, axis=1)
