"""Named substream behavior: determinism, separation, block layout."""

import numpy as np
import pytest

from gmethods.data import Regime
from gmethods.errors import ConfigError
from gmethods.gformula import g_formula_mc
from gmethods.scenarios import dag1b_scenario, discrete_trial_scenario, enumerate_joint, simulate
from gmethods.streams import BLOCK, block_count, substream
from gmethods.studies import StudyConfig, run_study


def test_same_address_same_draws():
    a = substream(123, "scenario", "replicate", 4).random(16)
    b = substream(123, "scenario", "replicate", 4).random(16)
    np.testing.assert_array_equal(a, b)


def test_different_names_differ():
    a = substream(123, "alpha").random(8)
    b = substream(123, "beta").random(8)
    assert not np.array_equal(a, b)


def test_different_roots_differ():
    a = substream(1, "x").random(8)
    b = substream(2, "x").random(8)
    assert not np.array_equal(a, b)


def test_int_and_str_labels_are_distinct_addresses():
    # "7" the string and 7 the int must not collide by accident.
    a = substream(9, 7).random(4)
    b = substream(9, "7").random(4)
    # They may theoretically collide, but the construction hashes the
    # repr with a type tag, so equality would be a bug.
    assert not np.array_equal(a, b)


def test_block_count():
    assert block_count(0) == 0
    assert block_count(1) == 1
    assert block_count(BLOCK) == 1
    assert block_count(BLOCK + 1) == 2


@pytest.mark.parametrize("seed", [1.9, 3.5, 2.0, "7", True, None, -1],
                         ids=["float", "half", "integral-float", "string", "bool", "none",
                              "negative"])
def test_root_seed_is_a_non_negative_integer(seed):
    # 1.9 once gave seed 1's stream, "7" and True were read as 7 and 1, and
    # None died with a bare TypeError.
    with pytest.raises(ConfigError, match="seed must be"):
        substream(seed, "x")


def test_numpy_integer_seeds_are_the_same_stream():
    np.testing.assert_array_equal(substream(np.int64(5), "x").random(4),
                                  substream(5, "x").random(4))


def test_every_entry_point_reads_its_seed_through_substream():
    cfg = dag1b_scenario()
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, not 1.9"):
        simulate(cfg, 50, 1.9)
    laws = enumerate_joint(discrete_trial_scenario()).laws
    with pytest.raises(ConfigError, match="not 3.5"):
        g_formula_mc(laws, Regime.static((1.0, 1.0)), 100, 3.5)
    with pytest.raises(ConfigError, match="not 2.5"):
        run_study(StudyConfig(cfg, 50, 1, 2.5, (("naive", {}),)))
