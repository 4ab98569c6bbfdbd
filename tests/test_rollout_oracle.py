"""The lean block rollouts against the full-block code they replaced.

``simulate``, ``counterfactual_draws`` and ``mc_regime_draws`` (the
counterfactual draws of a blip model's scenario) evaluate each law on the
rows a block keeps only, while still consuming the block's full draw count.  The reference copies below evaluate every law on all
``streams.BLOCK`` rows of every block and then cut to n, as the package did
before; every output must agree bit for bit.
"""

import numpy as np
import pytest

from gmethods import streams
from gmethods.data import Regime, Schema, continuous, regime_values
from gmethods.features import history_cols
from gmethods.laws import BernoulliLogit, DiscreteMarginal, NormalLinear
from gmethods.scenarios import (
    SCENARIOS,
    BlipOutcome,
    ScenarioConfig,
    counterfactual_draws,
    mc_regime_draws,
    simulate,
)
from gmethods.sndm import additive_blip

SIZES = (1, 999, 8191, 8192, 8193, 20_000)


def full_block_rollout(config, n, seed, regime):
    """_rollout as it was: every law evaluated on the whole block."""
    K = config.schema.K
    U = np.empty(n)
    L = np.empty((n, K + 1))
    A = np.empty((n, K + 1))
    Y = np.empty(n)
    done = 0
    for b in range(streams.block_count(n)):
        rng = streams.substream(seed, config.name, "subjects", b)
        nb = streams.BLOCK
        Lb = np.empty((nb, K + 1))
        Ab = np.empty((nb, K + 1))
        u = config.u_law.sample(rng, history_cols(Lb, Ab, 0, 0, 0), nb)
        for m in range(K + 1):
            lcols = history_cols(Lb, Ab, m, m, m, extra={"u": u})
            Lb[:, m] = config.l_laws[m].sample(rng, lcols, nb)
            if regime is None:
                acols = history_cols(Lb, Ab, m + 1, m, m)
                Ab[:, m] = config.a_laws[m].sample(rng, acols, nb)
            else:
                Ab[:, m] = regime_values(regime, Lb[:, : m + 1], m)
        ycols = history_cols(Lb, Ab, K + 1, K + 1, extra={"u": u})
        yb = config.y_law.sample(rng, ycols, nb)
        take = min(nb, n - done)
        sl = slice(done, done + take)
        U[sl] = u[:take]
        L[sl] = Lb[:take]
        A[sl] = Ab[:take]
        Y[sl] = yb[:take]
        done += take
    return U, L, A, Y


def _threshold(m, l_bar):
    return float(l_bar[-1] > 0.3)


def _regimes(K):
    return {"static": Regime.static((1.0,) * (K + 1)),
            "dynamic": Regime.dynamic(_threshold, "above-0.3")}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_rollouts_equal_the_full_block_rollout(name, n):
    config = SCENARIOS[name]()
    ds, U = simulate(config, n, seed=5, return_hidden=True)
    want = full_block_rollout(config, n, 5, None)
    for got, ref in zip((U, ds.L, ds.A, ds.Y), want):
        assert np.array_equal(got, ref)
    for regime in _regimes(config.schema.K).values():
        assert np.array_equal(counterfactual_draws(config, regime, n, seed=6),
                              full_block_rollout(config, n, 6, regime)[3])


MC_MODELS = {
    "logit": (BernoulliLogit(("1", "u"), (0.0, 0.5)),
              BernoulliLogit(("1", "u", "a0", "l0"), (-0.2, 0.5, 0.3, 0.4))),
    "normal": (NormalLinear(("1", "u"), (0.1, 0.7), 0.9),
               NormalLinear(("1", "u", "l0", "a0*l0"), (0.0, 0.4, 0.5, -0.3), 1.2)),
    "mixed": (DiscreteMarginal((0.0, 1.0, 2.0), (0.3, 0.3, 0.4)),
              BernoulliLogit(("1", "u", "l0"), (0.2, -0.4, 0.3))),
}


def blip_model_config(spec, h_law, covariate_models):
    """The scenario a blip model is: H as the hidden cause, the covariate
    models as covariate laws, the blip as the outcome; no treatment law."""
    kinds = (continuous(),) * len(covariate_models)
    return ScenarioConfig("sndm-mc", Schema(kinds, kinds), h_law, covariate_models,
                          (None,) * len(covariate_models), BlipOutcome(spec))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("models", sorted(MC_MODELS))
@pytest.mark.parametrize("kind", ["static", "dynamic"])
def test_mc_regime_draws_equal_the_full_block_draws(kind, models, n):
    spec = additive_blip("1", "lm", psi=(0.5, 0.2))
    regime = _regimes(1)[kind]
    h_law = NormalLinear(("1",), (0.0,))
    got = mc_regime_draws(spec, regime, h_law=h_law, covariate_models=MC_MODELS[models],
                          draws=n, seed=3)
    want = full_block_rollout(blip_model_config(spec, h_law, MC_MODELS[models]), n, 3, regime)
    assert np.array_equal(got.samples, want[3])
    assert got.regime_name == regime.name
