"""Data containers: schemas, datasets, regimes, histories, and the CSV format.

Occasions are indexed 0..K.  A subject's record is the time-ordered vector
(L_0, A_0, L_1, A_1, ..., L_K, A_K, Y); the virtual pre-study treatment
A_{-1} is identically 0.  All values are stored as float64; discreteness is
carried by kind metadata, not dtype.

Every CSV the package writes goes through ``_write_table`` and every CSV it
reads through ``_read_table``; no other module formats or parses one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ValidationError

_LEVEL_TOL = 1e-9


@dataclass(frozen=True)
class VarKind:
    """Kind of one covariate or treatment column."""

    kind: str  # "binary" | "discrete" | "continuous"
    levels: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "binary":
            object.__setattr__(self, "levels", (0.0, 1.0))
        elif self.kind == "discrete":
            if not self.levels:
                raise ConfigError("discrete kind requires a level list")
            lv = tuple(sorted(float(v) for v in self.levels))
            if len(set(lv)) != len(lv):
                raise ConfigError("discrete levels must be distinct")
            object.__setattr__(self, "levels", lv)
        elif self.kind == "continuous":
            object.__setattr__(self, "levels", None)
        else:
            raise ConfigError(f"unknown variable kind {self.kind!r}")

    @property
    def is_discrete(self) -> bool:
        return self.kind != "continuous"


def binary() -> VarKind:
    return VarKind("binary")


def discrete(*levels: float) -> VarKind:
    return VarKind("discrete", tuple(levels))


def continuous() -> VarKind:
    return VarKind("continuous")


def constant() -> VarKind:
    """Degenerate placeholder column (always 0), e.g. an absent L_0."""
    return VarKind("discrete", (0.0,))


@dataclass(frozen=True)
class Schema:
    """Shapes and kinds for a K+1-occasion study; outcome is continuous."""

    covariates: tuple[VarKind, ...]
    treatments: tuple[VarKind, ...]

    def __post_init__(self) -> None:
        if len(self.covariates) == 0 or len(self.covariates) != len(self.treatments):
            raise ConfigError(
                "need one covariate kind and one treatment kind per occasion"
            )

    @property
    def K(self) -> int:
        return len(self.treatments) - 1

    def columns(self) -> list[str]:
        cols: list[str] = []
        for m in range(self.K + 1):
            cols += [f"L{m}", f"A{m}"]
        cols.append("Y")
        return cols

    def to_dict(self) -> dict:
        def enc(v: VarKind) -> dict:
            d: dict = {"kind": v.kind}
            if v.kind == "discrete":
                d["levels"] = list(v.levels or ())
            return d

        return {
            "covariates": [enc(v) for v in self.covariates],
            "treatments": [enc(v) for v in self.treatments],
        }

    @staticmethod
    def from_dict(d: dict) -> "Schema":
        def dec(e: dict) -> VarKind:
            return VarKind(e["kind"], tuple(e.get("levels", ()) or ()) or None)

        return Schema(
            tuple(dec(e) for e in d["covariates"]),
            tuple(dec(e) for e in d["treatments"]),
        )


@dataclass(frozen=True)
class History:
    """What is observable at occasion m just before A_m is assigned."""

    m: int
    l_bar: tuple[float, ...]
    a_bar_prev: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.l_bar) != self.m + 1 or len(self.a_bar_prev) != self.m:
            raise ValidationError(
                f"history at occasion {self.m} needs {self.m + 1} covariates "
                f"and {self.m} prior treatments"
            )


@dataclass(frozen=True)
class Dataset:
    """n subjects stored column-wise: L (n, K+1), A (n, K+1), Y (n,)."""

    schema: Schema
    L: np.ndarray
    A: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        L = np.ascontiguousarray(np.asarray(self.L, dtype=np.float64))
        A = np.ascontiguousarray(np.asarray(self.A, dtype=np.float64))
        Y = np.ascontiguousarray(np.asarray(self.Y, dtype=np.float64))
        if L.ndim == 1:
            L = L[:, None]
        if A.ndim == 1:
            A = A[:, None]
        for arr in (L, A, Y):
            arr.setflags(write=False)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.L.shape[0]


def _is_binary(values) -> bool:
    """Whether every value lies within ``_LEVEL_TOL`` of 0 or 1 (NaN does
    not): the one test of a 0/1 column, as ``validate`` reads a binary kind."""
    v = np.asarray(values, dtype=float)
    return bool(np.all((np.abs(v) <= _LEVEL_TOL) | (np.abs(v - 1.0) <= _LEVEL_TOL)))


def _two_occasions(dataset: Dataset, caller: str) -> None:
    if dataset.schema.K != 1:
        raise ConfigError(f"{caller} expects a two-occasion dataset")


def _check_column(tag: str, values: np.ndarray, kind: VarKind | None) -> None:
    """Refuse a column's first non-finite value, then its first value off its
    kind's levels; the outcome Y has no kind."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValidationError(f"row {bad[0]}, column {tag}: non-finite "
                              f"{'outcome' if kind is None else 'value'}")
    if kind is None or not kind.is_discrete:
        return
    levels = np.asarray(kind.levels, dtype=float)
    dist = np.min(np.abs(values[:, None] - levels[None, :]), axis=1)
    bad = np.nonzero(dist > _LEVEL_TOL)[0]
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"row {i}, column {tag}: level violation "
            f"(value {float(values[i])!r} not in {kind.levels})"
        )


def validate(dataset: Dataset) -> None:
    """Raise ValidationError naming the first offending row and column."""
    K = dataset.schema.K
    if dataset.L.shape != (dataset.n, K + 1) or dataset.A.shape != (dataset.n, K + 1):
        raise ValidationError(
            f"shape mismatch: schema has K={K} but arrays are "
            f"L{dataset.L.shape}, A{dataset.A.shape}"
        )
    if dataset.Y.shape != (dataset.n,):
        raise ValidationError(f"shape mismatch: Y has shape {dataset.Y.shape}")
    for m in range(K + 1):
        _check_column(f"L{m}", dataset.L[:, m], dataset.schema.covariates[m])
        _check_column(f"A{m}", dataset.A[:, m], dataset.schema.treatments[m])
    _check_column("Y", dataset.Y, None)


def group_rows(M: np.ndarray, decimals: int | None = 9) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of M, compared after rounding to ``decimals`` places
    (exactly, with ``decimals=None``).

    Returns the distinct (rounded) rows in lexicographic order and, for each
    row of M, the index of its group.  A zero-width M is one group.  The
    lexsorted rows are compared one column at a time, and each group's first
    row in that order is gathered as its distinct row.  Rows of at most 16
    exact 0s and 1s skip the sort: as binary numbers they count into 2^p bins.
    """
    R = np.asarray(M, dtype=float)
    if decimals is not None:
        R = np.round(R, decimals)
    n, p = R.shape
    if p == 0:
        return np.zeros((min(n, 1), 0)), np.zeros(n, dtype=np.intp)
    bits = R.view(np.uint64)  # +0.0 and 1.0 bit for bit, the first row checked first
    if p <= 16 and all(((b == 0) | (b == 0x3FF0000000000000)).all() for b in (bits[:1], bits)):
        place = 1 << np.arange(p - 1, -1, -1)
        code = (R @ place).astype(np.intp)
        count = np.bincount(code, minlength=1 << p)
        present = np.flatnonzero(count)
        return ((present[:, None] & place) > 0).astype(float), (np.cumsum(count > 0) - 1)[code]
    order = np.lexsort(R.T[::-1])
    first = np.zeros(n, dtype=bool)
    first[:1] = True
    for col in R.T:
        c = col[order]
        first[1:] |= c[1:] != c[:-1]
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return R[order[first]], inverse


@dataclass(frozen=True)
class Regime:
    """A treatment plan: static values or a rule applied to covariate history."""

    kind: str  # "static" | "dynamic"
    plan: tuple[float, ...] = ()
    rule: Callable[[int, tuple[float, ...]], float] | None = None
    name: str = ""

    @staticmethod
    def static(plan: tuple[float, ...] | list[float], name: str = "") -> "Regime":
        plan = tuple(float(v) for v in plan)
        return Regime("static", plan, None, name or f"static{plan}")

    @staticmethod
    def dynamic(rule: Callable[[int, tuple[float, ...]], float], name: str = "") -> "Regime":
        return Regime("dynamic", (), rule, name or "dynamic")

    @staticmethod
    def threshold(cutoff: float, name: str = "") -> "Regime":
        """Treat exactly when the current covariate reaches ``cutoff``."""
        return Regime.dynamic(lambda m, l_bar: 1.0 if l_bar[-1] >= cutoff else 0.0,
                              name or f"treat-if-covariate>={cutoff:g}")


def _check_plan(regime: Regime, occasions: int) -> None:
    """Refuse a static plan without exactly one finite entry per occasion: a
    longer one would otherwise be cut short without a word, and a non-finite
    one give non-finite outcomes.  Every entry point that takes a regime
    calls this before ``regime_values``."""
    if regime.kind == "static" and len(regime.plan) != occasions:
        raise ConfigError(f"static plan must hold one entry per occasion ({occasions}), "
                          f"not {len(regime.plan)}")
    if regime.kind == "static" and not np.all(np.isfinite(regime.plan)):
        raise ConfigError(f"static plan entries must be finite, not {regime.plan}")


def regime_values(regime: Regime, L_prefix: np.ndarray, m: int) -> np.ndarray:
    """Treatment the regime assigns at occasion m to each row of L_prefix,
    the covariate history (n, m+1); a static plan has passed ``_check_plan``.

    A dynamic rule must be a pure function of (m, l_bar): it is called once
    per distinct covariate prefix, with that prefix's own values (rows are
    grouped by exact equality), and its value, which must be finite, is
    scattered back to every row that shares the prefix.  Standardization
    over a table calls it through ``gformula._TableLaw.extend``, whose
    per-regime plan keeps what it found, so there a rule runs once per
    distinct prefix per table and regime, not once per pass.
    """
    n = L_prefix.shape[0]
    if regime.kind == "static":
        return np.full(n, float(regime.plan[m]))
    if regime.rule is None:
        raise ConfigError("dynamic regime has no rule")
    prefixes, inverse = group_rows(L_prefix[:, : m + 1], decimals=None)
    values = np.array([float(regime.rule(m, tuple(p))) for p in prefixes], dtype=float)
    if not np.all(np.isfinite(values)):
        i = int(np.argmin(np.isfinite(values)))
        raise ConfigError(f"{regime.name} assigns {float(values[i])!r} at occasion {m} "
                          f"to covariate prefix {tuple(prefixes[i].tolist())}")
    return values[inverse]


def _quoted(cell: str) -> str:
    """A text cell as ``csv.writer`` quotes it: only if it holds , " CR or LF."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_table(path: str, header: list[str], columns: list) -> None:
    """Write ``header`` and one CRLF-ended line per row of ``columns``: a numpy
    column as the ``repr`` of each ``.tolist()`` value, any other as text
    cells through ``_quoted``; the bytes ``csv.writer`` writes."""
    cells = [map(repr, col.tolist()) if isinstance(col, np.ndarray) else map(_quoted, col)
             for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, zip(*cells)), ""]))


def _read_table(path: str, header: list[str]) -> np.ndarray:
    """The non-blank rows under ``header`` as an (n, len(header)) float array;
    a wrong header, no row, a row of another width or a non-numeric cell is a
    ``ValidationError`` naming the row (0-based, as ``validate`` counts)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise ValidationError(f"CSV header {got} in {path} does not match {header}")
        rows = [row for row in reader if row]
    if not rows:
        raise ValidationError(f"no data rows in {path}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(f"row {i} of {path} has {len(row)} cells, not {len(header)}")
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        for i, row in enumerate(rows):
            try:
                np.array(row, dtype=float)
            except ValueError as exc:
                raise ValidationError(f"row {i} of {path}: {exc}") from None
        raise


def write_csv(dataset: Dataset, path: str) -> None:
    """Write the flat (L0,A0,...,LK,AK,Y) layout through ``_write_table``."""
    flat = np.empty((dataset.n, 2 * (dataset.schema.K + 1) + 1))
    flat[:, 0:-1:2], flat[:, 1:-1:2], flat[:, -1] = dataset.L, dataset.A, dataset.Y
    _write_table(path, dataset.schema.columns(), list(flat.T))


def read_csv(path: str, schema: Schema) -> Dataset:
    """Read a dataset written by write_csv; header must match the schema."""
    flat = _read_table(path, schema.columns())
    ds = Dataset(schema, flat[:, 0:-1:2], flat[:, 1:-1:2], flat[:, -1])
    validate(ds)
    return ds
