"""Every public test and estimator refuses a level outside (0, 1).

A level of 5 once made ``naive_test`` report p = 0.82 with ``reject=True``,
``g_estimate(level=1.5)`` accepted no grid point and returned normally, and
``direct_effect_gnull_test(level=-1)`` never rejected.
"""

import numpy as np
import pytest

from gmethods.direct_effect import (
    DeSndmSpec,
    SplitSchema,
    direct_effect_g_estimate,
    direct_effect_gnull_test,
    naive_direct_effect_demo,
)
from gmethods.errors import ConfigError
from gmethods.glm import fit_logistic, robust_score_test, score_test_added, wald_test
from gmethods.gnull import GTestSpec, gnull_score_test, naive_test, pooled_g_test
from gmethods.scenarios import make_scenario, simulate
from gmethods.sndm import BlipSpec, additive_blip, g_estimate, g_test_at, sndm_lr_test

TERMS = ("1", "lm", "a_prev")


def data(name, params=None, n=200):
    return simulate(make_scenario(name, params), n, 3)


def _glm_inputs():
    ds = data("sndm-additive")
    X = np.column_stack([np.ones(ds.n), ds.L[:, 0]])
    return X, ds.A[:, 0], ds.Y[:, None]


def _de_estimate(level):
    ds = data("direct-effect-discrete", {"psi": (1.0, 0.5)})
    spec = DeSndmSpec(BlipSpec("additive", ("1",)))
    return direct_effect_g_estimate(ds, SplitSchema((0,), (1,)), spec,
                                    psi_box=[(0.0, 2.0)], grid_points=5, level=level)


CALLS = {
    "naive_test": lambda level: naive_test(data("dag1b"), level=level),
    "gnull_score_test": lambda level: gnull_score_test(
        data("dag1b"), make_scenario("dag1b").a_laws, level=level),
    "pooled_g_test": lambda level: pooled_g_test(
        data("sndm-additive"), GTestSpec(treatment_terms=TERMS), level=level),
    "g_test_at": lambda level: g_test_at(
        data("sndm-additive"), additive_blip("1"), 1.0, treatment_terms=TERMS, level=level),
    "g_estimate": lambda level: g_estimate(
        data("sndm-additive"), additive_blip("1"), treatment_terms=TERMS,
        psi_box=[(0.0, 2.0)], grid_points=5, level=level),
    "sndm_lr_test": lambda level: sndm_lr_test(
        data("sndm-additive"), additive_blip("1"),
        covariate_terms={0: ("1", "u"), 1: ("u", "a0", "l0")}, level=level),
    "direct_effect_gnull_test": lambda level: direct_effect_gnull_test(
        data("dag1b"), level=level),
    "naive_direct_effect_demo": lambda level: naive_direct_effect_demo(
        data("masked-interaction"), level=level),
    "direct_effect_g_estimate": _de_estimate,
    "wald_test": lambda level: wald_test(
        fit_logistic(*_glm_inputs()[:2]), (1,), level=level),
    "score_test_added": lambda level: score_test_added(*_glm_inputs(), level=level),
    "robust_score_test": lambda level: robust_score_test(
        *_glm_inputs(), np.arange(200), level=level),
}


@pytest.mark.parametrize("level", [0, 1, 5, -0.1, float("nan")])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_level_outside_0_1_is_refused(name, level):
    with pytest.raises(ConfigError, match=r"^level must (lie strictly between 0 and 1|be a number)"):
        CALLS[name](level)

