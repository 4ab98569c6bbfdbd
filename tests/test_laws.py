"""Every conditional law answers sample, density and mean alike, and every
finite law its atoms."""

from dataclasses import replace

import numpy as np
import pytest

from gmethods.direct_effect import SplitSchema, ipw_weights
from gmethods.errors import ConfigError
from gmethods.features import history_cols
from gmethods.laws import (
    BernoulliLogit,
    ConstantLaw,
    DiscreteMarginal,
    LinearOutcome,
    NormalLinear,
)
from gmethods.scenarios import (
    binary_two_occasion_scenario,
    discrete_trial_scenario,
    enumerate_joint,
    simulate,
)

N = 400
TERMS = ("1", "l0", "u", "a0*l0")


def parents(seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {name: rng.standard_normal(N) for name in ("l0", "a0", "u", "a_prev")}


FINITE = {
    "discrete": DiscreteMarginal((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3)),
    "constant": ConstantLaw(1.5),
    "logit": BernoulliLogit(TERMS, (0.3, -1.2, 0.8, 0.5)),
}
CONTINUOUS = {
    "normal": NormalLinear(TERMS, (0.3, -1.2, 0.8, 0.5), 1.7),
    "normal-root": NormalLinear(("1",), (0.4,), 0.6),
    "outcome": LinearOutcome(TERMS, (1.0, 0.5, -0.5, 0.2), noise_sd=0.8),
}
ATOMS = dict(FINITE, outcome=LinearOutcome(
    TERMS, (1.0, 0.5, -0.5, 0.2),
    noise=DiscreteMarginal((-1.0, 0.0, 3.0), (0.5, 0.25, 0.25))))
EVERY_FINITE = dict(ATOMS, **{"outcome-noiseless": LinearOutcome(TERMS, (1.0, 0.5, -0.5, 0.2))})


@pytest.mark.parametrize("name", sorted({**ATOMS, **CONTINUOUS}))
def test_sample_gives_one_draw_per_row(name):
    law = {**ATOMS, **CONTINUOUS}[name]
    draws = law.sample(np.random.default_rng(1), parents(), N)
    assert draws.shape == (N,)
    assert np.isfinite(draws).all()


@pytest.mark.parametrize("name", sorted(EVERY_FINITE))
def test_finite_density_sums_to_one_and_gives_the_mean(name):
    # The atoms enumeration branches on are the values IPW reads densities at.
    law, cols = EVERY_FINITE[name], parents(2)
    values, probs = law.atoms(cols)
    assert values.shape == probs.shape and probs.shape[0] == N
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(law.mean(cols), (values * probs).sum(axis=1),
                               rtol=0, atol=1e-12)
    for k in range(values.shape[1]):
        np.testing.assert_array_equal(law.density(values[:, k], cols), probs[:, k])
    assert np.all(law.density(values.max(axis=1) + 0.125, cols) == 0.0)


def test_outcome_atoms_carry_its_density_and_mean():
    law, cols = ATOMS["outcome"], parents(3)
    values, probs = law.atoms(cols)
    dens = np.column_stack([law.density(values[:, k], cols) for k in range(values.shape[1])])
    np.testing.assert_array_equal(dens, probs)
    np.testing.assert_allclose(law.mean(cols), (values * dens).sum(axis=1), atol=1e-12)


@pytest.mark.parametrize("name", sorted(FINITE))
def test_density_takes_one_value_per_row(name):
    law, cols = FINITE[name], parents(4)
    atoms = law.atoms(cols)[0][0]  # the same atoms on every row
    values = np.random.default_rng(5).choice(atoms, size=N)
    per_row = law.density(values, cols)
    for v in atoms:
        at = values == v
        np.testing.assert_array_equal(per_row[at], law.density(v, cols)[at])


@pytest.mark.parametrize("name", sorted(CONTINUOUS))
def test_normal_density_integrates_to_one_and_sample_mean_is_mean(name):
    law, cols = CONTINUOUS[name], parents(6)
    mu = law.mean(cols)
    sd = getattr(law, "sd", None) or law.noise_sd
    grid = mu[:, None] + sd * np.linspace(-12.0, 12.0, 4001)
    dens = np.column_stack([law.density(grid[:, k], cols) for k in range(grid.shape[1])])
    np.testing.assert_allclose(np.trapezoid(dens, grid, axis=1), 1.0, atol=1e-9)
    draws = np.concatenate([law.sample(np.random.default_rng(7 + r), cols, N)
                            for r in range(10)])
    assert abs(np.mean(draws - np.tile(mu, 10))) < 5.0 * sd / np.sqrt(draws.size)


def test_discrete_sample_mean_is_mean():
    law, cols = FINITE["discrete"], parents()
    draws = law.sample(np.random.default_rng(8), cols, N)
    se = np.sqrt(np.dot(law.probs, np.square(law.values)) - law.mean(cols)[0] ** 2)
    assert abs(draws.mean() - law.mean(cols)[0]) < 5.0 * se / np.sqrt(N)


def test_discrete_values_must_be_distinct():
    with pytest.raises(ConfigError, match="distinct"):
        DiscreteMarginal((0.0, 1.0, 0.0), (0.25, 0.5, 0.25))


class TestOneProtocolForEveryConsumer:
    """Calls that each consumer used to get wrong by guessing at a law's type."""

    def test_root_style_law_as_late_design_mean(self):
        cfg = binary_two_occasion_scenario()
        ds = simulate(cfg, 50, seed=1)
        late = DiscreteMarginal((0.0, 1.0), (0.7, 0.3))
        np.testing.assert_allclose(late.mean(history_cols(ds.L, ds.A, 2, 1, 1)), 0.3,
                                   rtol=0, atol=1e-15)

    def test_fair_coin_design_law_weights(self):
        cfg = binary_two_occasion_scenario()
        ds = simulate(cfg, 50, seed=2)
        w = ipw_weights(ds, SplitSchema((0,), (1,)),
                        {1: DiscreteMarginal((0.0, 1.0), (0.5, 0.5))}, "design")
        np.testing.assert_array_equal(w.factors[1], np.full(ds.n, 0.5))

    def test_constant_hidden_cause_simulates(self):
        cfg = replace(discrete_trial_scenario(), u_law=ConstantLaw(1.0))
        ds, U = simulate(cfg, 30, seed=3, return_hidden=True)
        assert ds.n == 30
        np.testing.assert_array_equal(U, np.ones(30))

    def test_constant_hidden_cause_enumerates(self):
        base = discrete_trial_scenario()
        got = enumerate_joint(replace(base, u_law=ConstantLaw(1.0)))
        want = enumerate_joint(replace(base, u_law=DiscreteMarginal((1.0,), (1.0,))))
        np.testing.assert_array_equal(got.cells, want.cells)
        np.testing.assert_array_equal(got.probs, want.probs)

    def test_continuous_hidden_cause_has_no_table(self):
        cfg = replace(discrete_trial_scenario(), u_law=NormalLinear(("1",), (0.0,)))
        with pytest.raises(ConfigError, match="no finite support"):
            enumerate_joint(cfg)

    def test_constant_noise_outcome_enumerates(self):
        base = discrete_trial_scenario()
        y_law = base.y_law

        def with_noise(noise):
            return enumerate_joint(replace(base, y_law=replace(y_law, noise=noise)))

        got, want = with_noise(ConstantLaw(1.0)), with_noise(DiscreteMarginal((1.0,), (1.0,)))
        np.testing.assert_array_equal(got.cells, want.cells)
        np.testing.assert_array_equal(got.probs, want.probs)


def test_constant_noise_outcome_has_one_atom():
    law = LinearOutcome(("1",), (0.5,), noise=ConstantLaw(1.0))
    values, probs = law.atoms(parents())
    np.testing.assert_array_equal(values, np.full((N, 1), 1.5))
    np.testing.assert_array_equal(probs, np.ones((N, 1)))


class TestDiscreteMarginalInput:
    def test_arrays_become_float_tuples(self):
        law = DiscreteMarginal(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert law.values == (0.0, 1.0) and law.probs == (0.5, 0.5)
        assert all(type(v) is float for v in law.values + law.probs)
        assert law == DiscreteMarginal((0, 1), (0.5, 0.5))
        assert hash(law) == hash(DiscreteMarginal((0.0, 1.0), (0.5, 0.5)))

    @pytest.mark.parametrize("values, probs", [((), ()), (np.array([]), np.array([]))])
    def test_empty_is_refused(self, values, probs):
        with pytest.raises(ConfigError, match="non-empty"):
            DiscreteMarginal(values, probs)

    def test_duplicate_array_values_are_refused(self):
        with pytest.raises(ConfigError, match="distinct"):
            DiscreteMarginal(np.array([0.0, 1.0, 0.0]), np.array([0.25, 0.5, 0.25]))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("name", sorted({**ATOMS, **CONTINUOUS}))
def test_fewer_rows_than_draws_gives_the_leading_draws(name, bit_generator):
    # A block rollout passes the rows it keeps and its full draw count: the
    # values are the full call's leading rows, and the stream ends where the
    # full call leaves it.
    law, cols = {**ATOMS, **CONTINUOUS}[name], parents(9)
    full_rng, lean_rng = (np.random.Generator(bit_generator(10)) for _ in range(2))
    full = law.sample(full_rng, cols, N)
    lean = law.sample(lean_rng, {k: v[:150] for k, v in cols.items()}, N)
    np.testing.assert_array_equal(lean, full[:150])
    np.testing.assert_array_equal(lean_rng.random(4), full_rng.random(4))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("values, probs", [
    ((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3)),
    ((-1.0, 0.5, 2.0), (0.3, 0.0, 0.7)),
    ((-1.0, 0.5, 2.0), (0.6, 0.4, 0.0)),
    ((1.0,), (1.0,)),
])
def test_discrete_sample_equals_generator_choice(values, probs, bit_generator):
    # The inverse CDF is computed here, not by numpy; Generator.choice over
    # the full draw count is the reference for the kept rows and the stream.
    law = DiscreteMarginal(values, probs)
    got_rng, want_rng = (np.random.Generator(bit_generator(4)) for _ in range(2))
    got = law.sample(got_rng, {"a_prev": np.zeros(150)}, 8192)
    want = want_rng.choice(np.asarray(values), size=8192, p=np.asarray(probs))
    np.testing.assert_array_equal(got, want[:150])
    np.testing.assert_array_equal(got_rng.random(4), want_rng.random(4))


@pytest.mark.parametrize("n", [1, 149])
@pytest.mark.parametrize("name", sorted(set({**ATOMS, **CONTINUOUS}) - {"constant"}))
def test_fewer_draws_than_rows_are_refused(name, n):
    # Fewer draws than parent rows cannot give one value per row; n = 1
    # would otherwise broadcast one draw over every row.
    law, cols = {**ATOMS, **CONTINUOUS}[name], parents(9)
    with pytest.raises(ConfigError, match="150 parent rows but only"):
        law.sample(np.random.default_rng(3), {k: v[:150] for k, v in cols.items()}, n)
