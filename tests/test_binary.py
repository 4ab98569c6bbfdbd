"""Every consumer of a 0/1 column reads it by one rule, ``data._is_binary``:
each value within 1e-9 of 0 or 1, and NaN is not binary.

Before the rule had one statement, a fixed-arm treatment 1e-12 off {0, 1}
got a normal-linear law in ``fit_z_laws`` while every other consumer read
it as binary, and a NaN passed the other consumers' tests: ``fit_logistic``
then raised a ConvergenceError after 100 Newton steps.
"""

import numpy as np
import pytest

from gmethods.data import Dataset, validate
from gmethods.direct_effect import SplitSchema, fit_z_laws
from gmethods.errors import EstimationError, ValidationError
from gmethods.glm import fit_logistic
from gmethods.gnull import GTestSpec, pooled_g_test
from gmethods.laws import BernoulliLogit
from gmethods.scenarios import simulate, sndm_scenario
from gmethods.sndm import additive_blip, g_test_at, sndm_mle

BASE = simulate(sndm_scenario(psi=(1.0,)), 400, seed=7)


def with_column(array: str, m: int, col: np.ndarray) -> Dataset:
    L, A = BASE.L.copy(), BASE.A.copy()
    {"L": L, "A": A}[array][:, m] = col
    return Dataset(BASE.schema, L, A, BASE.Y)


def first(value: float):
    """The column A0 with its first entry replaced by ``value``."""
    def make(col):
        out = col.copy()
        out[0] = value
        return out
    return make


# Each column, built from a 0/1 column, and whether it is binary.
COLUMNS = {
    "exact": (lambda col: col, True),
    "1e-12-off": (lambda col: np.abs(col - 1e-12), True),
    "half": (first(0.5), False),
    "nan": (first(float("nan")), False),
}


def accepts(call, *errors) -> bool:
    """True when ``call`` returns, False when it raises one of ``errors``."""
    try:
        call()
    except errors:
        return False
    return True


def z_law_is_logistic(col) -> bool:
    """A fitted fixed-arm law is logistic for a 0/1 column, normal-linear for
    another finite one; a NaN is refused."""
    try:
        laws, _ = fit_z_laws(with_column("A", 1, col), SplitSchema((0,), (1,)), ("1", "lm"))
    except EstimationError:
        return False
    return isinstance(laws[1], BernoulliLogit)


# Each consumer's verdict on a column: True when it reads the column as 0/1.
CONSUMERS = {
    "fit_logistic": lambda col: accepts(
        lambda: fit_logistic(np.column_stack([np.ones(BASE.n), BASE.L[:, 1]]), col),
        EstimationError),
    "pooled_g_test": lambda col: accepts(
        lambda: pooled_g_test(with_column("A", 0, col), GTestSpec(("1", "lm", "a_prev"))),
        EstimationError),
    "g_test_at": lambda col: accepts(
        lambda: g_test_at(with_column("A", 0, col), additive_blip("1"), 0.0,
                          treatment_terms=("1", "lm", "a_prev"), alpha_known=(0.0, 0.5, 0.5)),
        EstimationError),
    "sndm_mle": lambda col: accepts(
        lambda: sndm_mle(with_column("L", 1, col), additive_blip("1"),
                         covariate_terms=("1", "u"), psi_fixed=(1.0,)),
        EstimationError),
    "fit_z_laws": z_law_is_logistic,
    "validate": lambda col: accepts(lambda: validate(with_column("A", 0, col)), ValidationError),
}


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize("column", COLUMNS)
def test_one_verdict_per_column(column, consumer):
    make, binary = COLUMNS[column]
    assert CONSUMERS[consumer](make(BASE.A[:, 0])) is binary


def test_a_nan_fixed_arm_is_refused():
    # fit_z_laws reads a non-binary column as normal-linear; a NaN in it once
    # gave a law with NaN coefficients and NaN weights.
    with pytest.raises(EstimationError, match="linear response is non-finite"):
        z_col = first(float("nan"))(BASE.A[:, 1])
        fit_z_laws(with_column("A", 1, z_col), SplitSchema((0,), (1,)), ("1", "lm"))
