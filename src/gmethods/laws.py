"""Parametric conditional laws used by scenarios and Monte Carlo rollouts.

Each law exposes what the samplers and exact evaluators need: ``sample`` for
vectorized draws given parent columns, ``pmf``/``density`` for likelihood
evaluation, and a finite ``support`` where one exists.  Outcome laws also
give their ``atoms`` or normal ``bin_probs`` as (n, k) arrays, one row per
parent row.  Parent columns are passed as a name -> array mapping (see the
features module for term names).
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


@dataclass(frozen=True)
class DiscreteMarginal:
    """Finite-support marginal (for hidden causes and noise)."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probs) or not self.values:
            raise ConfigError("values and probs must align and be non-empty")
        if abs(sum(self.probs) - 1.0) > 1e-12 or min(self.probs) < 0:
            raise ConfigError("probs must be non-negative and sum to 1")

    def support(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(np.asarray(self.values, dtype=float), size=n,
                          p=np.asarray(self.probs, dtype=float))

    def pmf(self, value: float) -> float:
        for v, p in zip(self.values, self.probs):
            if abs(float(v) - float(value)) <= 1e-9:
                return float(p)
        return 0.0


@dataclass(frozen=True)
class NormalMarginal:
    mean: float
    sd: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal(n)

    def density(self, values: np.ndarray) -> np.ndarray:
        z = (np.asarray(values, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * _SQRT2PI)


@dataclass(frozen=True)
class ConstantLaw:
    """Degenerate law (e.g. an absent covariate pinned at 0)."""

    value: float = 0.0

    def support(self) -> tuple[float, ...]:
        return (float(self.value),)

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        return np.full(n, float(self.value))

    def pmf(self, value, cols: Cols) -> np.ndarray:
        n = len(next(iter(cols.values()))) if cols else 1
        v = np.asarray(value, dtype=float)
        return np.where(np.abs(v - self.value) <= 1e-9, 1.0, 0.0) * np.ones(n)


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

    def prob(self, cols: Cols) -> np.ndarray:
        return expit(_linear(self.terms, self.coefs, cols))

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        return (rng.random(n) < self.prob(cols)).astype(float)

    def pmf(self, value, cols: Cols) -> np.ndarray:
        """Probability of ``value`` (scalar or per-row array) given parents."""
        p = self.prob(cols)
        v = np.asarray(value, dtype=float)
        return np.where(np.abs(v - 1.0) <= 1e-9, p,
                        np.where(np.abs(v) <= 1e-9, 1.0 - p, 0.0))


@dataclass(frozen=True)
class NormalLinear:
    """X | parents ~ Normal(coefs . terms(parents), sd^2)."""

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

    def density(self, values: np.ndarray, cols: Cols) -> np.ndarray:
        z = (np.asarray(values, dtype=float) - self.mean(cols)) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * _SQRT2PI)


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
        return _linear(self.terms, self.coefs, cols)

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        out = self.mean(cols)
        if self.noise_sd > 0.0:
            out = out + self.noise_sd * rng.standard_normal(n)
        elif self.noise is not None:
            out = out + self.noise.sample(rng, n)
        return out

    def atoms(self, cols: Cols) -> tuple[np.ndarray, np.ndarray]:
        """(values, probs), each (n, k): the k atoms of Y given each of n
        parent rows; discrete noise or none only."""
        if self.noise_sd > 0.0:
            raise ConfigError("normal-noise outcome has no atoms; pass y_bins")
        mu = self.mean(cols)[:, None]
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
