"""Term grammar: context columns and product evaluation."""

import numpy as np
import pytest

from gmethods.errors import ConfigError
from gmethods.features import (
    eval_term,
    eval_terms,
    history_cols,
    term_bases,
    uses_covariates,
)

L = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
A = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])


def test_history_at_first_occasion_has_no_treatments():
    cols = history_cols(L, A, 1, 0, 0)
    assert set(cols) == {"l0", "lm", "a_prev"}
    np.testing.assert_array_equal(cols["lm"], L[:, 0])
    np.testing.assert_array_equal(cols["a_prev"], np.zeros(3))  # virtual a_{-1}


def test_history_at_second_occasion():
    cols = history_cols(L, A, 2, 1, 1)
    assert set(cols) == {"l0", "l1", "a0", "lm", "a_prev"}
    np.testing.assert_array_equal(cols["lm"], L[:, 1])
    np.testing.assert_array_equal(cols["a_prev"], A[:, 0])


def test_full_trajectory_carries_outcome():
    y = np.array([5.0, 6.0, 7.0])
    cols = history_cols(L, A, 2, 2, extra={"y": y})
    assert set(cols) == {"l0", "l1", "a0", "a1", "y"}
    np.testing.assert_array_equal(cols["y"], y)


def test_products_and_intercept():
    cols = history_cols(L, A, 2, 1, 1)
    np.testing.assert_array_equal(eval_term("1", cols), np.ones(3))
    np.testing.assert_array_equal(eval_term("a0*lm", cols), A[:, 0] * L[:, 1])
    X = eval_terms(("1", "lm", "a0*lm"), cols)
    assert X.shape == (3, 3)


def test_unknown_term_names_the_offender():
    with pytest.raises(ConfigError, match="'a9'"):
        eval_term("a9", history_cols(L, A, 2, 1, 1))


def test_empty_term_list_rejected():
    with pytest.raises(ConfigError):
        eval_terms((), history_cols(L, A, 1, 0, 0))


def test_term_bases_and_covariate_scan():
    assert term_bases(("1", "a0*lm", "a_prev")) == {"a0", "lm", "a_prev"}
    assert uses_covariates(("1", "a_prev")) is False
    assert uses_covariates(("a0*l1",)) is True
    assert uses_covariates(("lm",)) is True
