"""Exception types shared across the package, and the readers of config values."""

from __future__ import annotations

import math
from numbers import Integral, Real


class GmethodsError(Exception):
    """Base class for all package errors."""


class ValidationError(GmethodsError):
    """A dataset or container violates its declared schema."""


class ConfigError(GmethodsError):
    """A scenario, design, or CLI configuration is malformed."""


class PositivityError(GmethodsError):
    """A required conditional law has (numerically) zero support."""


class SeparationError(GmethodsError):
    """Logistic likelihood is unbounded (perfect separation)."""


class ConvergenceError(GmethodsError):
    """An iterative fit failed to converge within its iteration budget."""


class EstimationError(GmethodsError):
    """An estimator or test cannot be formed from the given inputs."""


def _count(key: str, value, minimum: int = 1) -> int:
    """``value`` as an int of at least ``minimum``.

    Python and numpy integers pass.  A bool, a non-integral number or a
    string is a ``ConfigError``, never truncated by ``int()``.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        kind = "a positive" if minimum > 0 else "a non-negative"
        raise ConfigError(f"{key} must be {kind} integer, not {value!r}")
    if value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, not {value!r}")
    return int(value)


def _typed(key: str, value, kind: str):
    """``value`` as a config ``kind``: a "number" (a finite float; a bool is
    not one), a "list" (a tuple; a string is not one), a "mapping", a
    "boolean" or a "string".  Anything else is a ``ConfigError``."""
    if kind == "number":
        ok = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    else:
        ok = isinstance(value, {"list": (list, tuple), "mapping": dict,
                                "boolean": bool, "string": str}[kind])
    if not ok:
        raise ConfigError(f"{key} must be a {kind}, not {value!r}")
    return float(value) if kind == "number" else tuple(value) if kind == "list" else value


def _level(key: str, value) -> float:
    """A test level: a number strictly between 0 and 1 (NaN is none)."""
    level = _typed(key, value, "number")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"{key} must lie strictly between 0 and 1, got {level!r}")
    return level


def _terms(key: str, value) -> tuple[str, ...]:
    """A config list of feature terms; YAML reads an unquoted 1 as a number."""
    return tuple(str(t) for t in _typed(key, value, "list"))
