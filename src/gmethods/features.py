"""Token-based feature terms.

A term is a string naming one regressor column: either a base column ("1",
"u", "y", "l0", "a2", "lm", "a_prev") or a product of bases joined with
"*" ("a0*l1").  The bases a term may use are exactly its context's columns
(any other is a ``ConfigError``), and ``history_cols`` builds every context
from how many covariates and treatments are observed:

* root law, whose value is the root column "u" (a scenario's hidden cause,
  or the residual outcome H of a blip model) — only "a_prev" = 0, the
  occasion-0 context ``history_cols(L, A, 0, 0, 0)``, which gives the row
  count;
* covariate law at occasion m — l0..l(m-1), a0..a(m-1), "a_prev", plus the
  root column "u";
* treatment law and blip cofactors at occasion m — l0..lm, a0..a(m-1),
  "lm", "a_prev";
* outcome law — every l and a, plus "u";
* direct-effect cofactors at studied-arm occasion m — l0..lm, a0..a(m-1),
  "lm", "a_prev", plus the fixed arm's treatments after m.

"lm" is the current covariate at the context's occasion, "a_prev" the
previous treatment (zero at occasion 0).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import ConfigError

Cols = Mapping[str, np.ndarray]


def history_cols(
    L: np.ndarray,
    A: np.ndarray,
    n_l: int,
    n_a: int,
    m: int | None = None,
    *,
    extra: Cols | None = None,
) -> dict[str, np.ndarray]:
    """Columns l0..l(n_l-1) and a0..a(n_a-1) of the observed trajectory.

    With an occasion ``m`` the context also holds "a_prev" (A_{m-1}, zero at
    m = 0) and, once L_m is observed (``n_l > m``), "lm".  ``extra`` adds
    columns from outside the trajectory, such as "u" or "y".
    """
    cols = {f"l{j}": L[:, j] for j in range(n_l)}
    cols.update({f"a{j}": A[:, j] for j in range(n_a)})
    if m is not None:
        if n_l > m:
            cols["lm"] = L[:, m]
        cols["a_prev"] = A[:, m - 1] if m >= 1 else np.zeros(L.shape[0])
    if extra:
        cols.update(extra)
    return cols


def eval_term(term: str, cols: Cols) -> np.ndarray:
    """Evaluate one term to a new column: its bases' product, or ones for "1"."""
    out = None
    for base in term.split("*"):
        base = base.strip()
        if base == "1":
            continue
        if base not in cols:
            raise ConfigError(
                f"unknown feature term {base!r}; available: "
                f"{sorted(cols.keys()) + ['1']}"
            )
        col = np.asarray(cols[base], dtype=float)
        out = col.copy() if out is None else out * col
    return np.ones(len(next(iter(cols.values())))) if out is None else out


def eval_terms(terms: tuple[str, ...] | list[str], cols: Cols) -> np.ndarray:
    """Stack terms into an (n, p) design matrix, filled a column at a time."""
    if not terms:
        raise ConfigError("empty term list")
    X = np.empty((len(next(iter(cols.values()))), len(terms)))
    for k, term in enumerate(terms):
        X[:, k] = eval_term(term, cols)
    return X


def term_bases(terms) -> set[str]:
    bases: set[str] = set()
    for term in terms:
        for base in term.split("*"):
            base = base.strip()
            if base != "1":
                bases.add(base)
    return bases


def uses_covariates(terms) -> bool:
    """True if any term references an l-column (current or lagged)."""
    return any(b.startswith("l") for b in term_bases(terms))
