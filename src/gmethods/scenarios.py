"""Structural data-generating scenarios with a hidden common cause.

A scenario is a list of conditional laws in time order: hidden cause U,
then per occasion a covariate law (which may see U) and a treatment law
(which sees only the observed past — treatments are randomized given
history by construction), then the outcome law (which may see U).

The same config drives three things: observational sampling (U discarded),
counterfactual sampling under a manipulated treatment plan (the ground
truth for standardization), and exact enumeration of the observable joint
law when every law is finite-discrete.  A fitted blip model is a scenario
too, with the residual outcome as its hidden cause, so its standardized law
(``mc_regime_draws``) is the same counterfactual sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import streams
from .data import (
    Dataset,
    Regime,
    Schema,
    _check_plan,
    binary,
    constant,
    continuous,
    group_rows,
    regime_values,
)
from .errors import ConfigError, EstimationError, _count, _typed
from .features import Cols, history_cols
from .gformula import JointTable, RegimeDistribution
from .glm import _ndtr
from .laws import (
    BernoulliLogit,
    ConstantLaw,
    DiscreteMarginal,
    LinearOutcome,
    NormalLinear,
)
from .sndm import BlipSpec, blip_up


@dataclass(frozen=True)
class BlipOutcome:
    """Deterministic outcome: push the hidden cause up through a blip family.

    With U playing the residual outcome, the implied observational law
    satisfies the blip model exactly at the configured psi.
    """

    blip: BlipSpec

    def __post_init__(self) -> None:
        self.blip.require_psi()

    def _paths(self, cols: Cols):
        K = max(int(k[1:]) for k in cols if k.startswith("l") and k[1:].isdigit())
        L = np.column_stack([cols[f"l{j}"] for j in range(K + 1)])
        A = np.column_stack([cols[f"a{j}"] for j in range(K + 1)])
        return L, A

    def sample(self, rng: np.random.Generator, cols: Cols, n: int) -> np.ndarray:
        L, A = self._paths(cols)
        return blip_up(self.blip, np.asarray(cols["u"], dtype=float), L, A)

    def atoms(self, cols: Cols) -> tuple[np.ndarray, np.ndarray]:
        """(values, probs), each (n, 1): the single atom per parent row."""
        L, A = self._paths(cols)
        y = blip_up(self.blip, np.asarray(cols["u"], dtype=float), L, A)[:, None]
        return y, np.ones_like(y)


@dataclass(frozen=True)
class ScenarioConfig:
    """Structural equations for one K+1-occasion study."""

    name: str
    schema: Schema
    u_law: object
    l_laws: tuple
    a_laws: tuple
    y_law: object

    def __post_init__(self) -> None:
        K1 = self.schema.K + 1
        if len(self.l_laws) != K1 or len(self.a_laws) != K1:
            raise ConfigError("one covariate law and one treatment law per occasion")


def _rollout(
    config: ScenarioConfig,
    n: int,
    seed: int,
    regime: Regime | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample n subjects; treatments come from the laws or from a regime.

    Each block's laws consume a full block of draws but are evaluated on the
    rows the block keeps only (see the streams module)."""
    n = _count("n", n)
    K = config.schema.K
    nb = streams.BLOCK
    U = np.empty(n)
    L = np.empty((n, K + 1))
    A = np.empty((n, K + 1))
    Y = np.empty(n)
    for b in range(streams.block_count(n)):
        rng = streams.substream(seed, config.name, "subjects", b)
        sl = slice(b * nb, min(n, (b + 1) * nb))
        Lb, Ab = L[sl], A[sl]
        U[sl] = config.u_law.sample(rng, history_cols(Lb, Ab, 0, 0, 0), nb)
        u = U[sl]
        for m in range(K + 1):
            lcols = history_cols(Lb, Ab, m, m, m, extra={"u": u})
            Lb[:, m] = config.l_laws[m].sample(rng, lcols, nb)
            if regime is None:
                acols = history_cols(Lb, Ab, m + 1, m, m)
                Ab[:, m] = config.a_laws[m].sample(rng, acols, nb)
            else:
                Ab[:, m] = regime_values(regime, Lb[:, : m + 1], m)
        ycols = history_cols(Lb, Ab, K + 1, K + 1, extra={"u": u})
        Y[sl] = config.y_law.sample(rng, ycols, nb)
    return U, L, A, Y


def simulate(config: ScenarioConfig, n: int, seed: int,
             return_hidden: bool = False):
    """Observational draw; the hidden cause is discarded unless asked for."""
    U, L, A, Y = _rollout(config, n, seed, regime=None)
    ds = Dataset(config.schema, L, A, Y)
    return (ds, U) if return_hidden else ds


def counterfactual_draws(
    config: ScenarioConfig,
    regime: Regime | None,
    n: int,
    seed: int,
) -> np.ndarray:
    """Ground-truth outcome draws under a manipulated treatment plan.

    With regime=None the treatment laws run untouched, which reproduces the
    observational outcome stream draw for draw at equal seed.
    """
    if regime is not None:
        _check_plan(regime, config.schema.K + 1)
    _, _, _, Y = _rollout(config, n, seed, regime=regime)
    return Y


def mc_regime_draws(
    blip_spec: BlipSpec,
    regime: Regime,
    *,
    h_law,
    covariate_models: tuple,
    draws: int,
    seed: int = 0,
) -> RegimeDistribution:
    """Monte Carlo standardized outcome law implied by a blip model.

    The model is a scenario: its hidden cause "u" is the residual outcome H
    (``h_law``), its covariate laws are ``covariate_models`` (one per
    occasion, free to use "u"), and its outcome pushes H up through the
    blip.  The law under ``regime`` is that scenario's counterfactual draws;
    its treatment laws are never read.  The streams do not depend on the
    regime, so with psi = 0 every regime gives the same draws.
    """
    K1 = len(covariate_models)
    config = ScenarioConfig(
        name="sndm-mc",
        schema=Schema((continuous(),) * K1, (continuous(),) * K1),
        u_law=h_law,
        l_laws=tuple(covariate_models),
        a_laws=(None,) * K1,
        y_law=BlipOutcome(blip_spec),
    )
    y = counterfactual_draws(config, regime, draws, seed)
    return RegimeDistribution.from_samples(y, regime.name)


class _BinnedOutcome:
    """A normal-noise outcome discretized by bin edges: the atoms are the bin
    midpoints, with exact bin mass and the tail mass folded into the end bins."""

    def __init__(self, law, y_bins) -> None:
        if not getattr(law, "noise_sd", 0.0) > 0.0:
            raise ConfigError("y_bins discretizes normal outcome noise, and this outcome "
                              "has none; enumerate its atoms without y_bins")
        edges = np.asarray(y_bins, dtype=float)
        if (edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges))
                or not np.all(np.diff(edges) > 0.0)):
            raise ConfigError("y_bins must be at least two finite, strictly increasing edges")
        self.law, self.edges = law, edges

    def atoms(self, cols: Cols) -> tuple[np.ndarray, np.ndarray]:
        # Paths share few outcome means, so bin masses are computed once per mean.
        mean, rows = np.unique(self.law.mean(cols), return_inverse=True)
        z = (self.edges - mean[:, None]) / self.law.noise_sd
        cdf = _ndtr(z)
        probs = np.diff(cdf, axis=1)
        probs[:, 0] += cdf[:, 0]
        probs[:, -1] += _ndtr(-z[:, -1])
        probs = probs[rows]
        return np.broadcast_to(0.5 * (self.edges[:-1] + self.edges[1:]), probs.shape), probs


def _branch(P: np.ndarray, w: np.ndarray, law, cols: Cols):
    """Extend every path (row of P, weight w) by each atom of law with
    positive probability; rows stay in (path, atom) order."""
    if not hasattr(law, "atoms"):
        raise ConfigError(
            f"{type(law).__name__} has no finite support; exact enumeration "
            "needs discrete laws everywhere"
        )
    values, p = law.atoms(cols)
    i, j = np.nonzero(p > 0.0)
    return np.column_stack([P[i], values[i, j]]), w[i] * p[i, j], i


def enumerate_joint(config: ScenarioConfig, y_bins: np.ndarray | None = None) -> JointTable:
    """Exact observable joint law, hidden cause summed out.

    All of U, L_m, A_m must be finite-discrete.  The outcome must either
    have atoms itself or, with normal noise, be discretized by the strictly
    increasing edge vector ``y_bins`` (bin mass is exact; the representative
    value is the bin midpoint, with tail mass folded into the end bins).

    Every live (u, l0, a0, ..., l_m) path is one row of an array, and every
    variable, the outcome included, extends the paths by one ``atoms`` call
    on all of them; the hidden cause branches first, from the one-row
    occasion-0 context.  Rows stay in depth-first order (u atom, then atom
    order at each step), and each cell sums its path masses in that order.
    """
    K = config.schema.K
    y_law = config.y_law if y_bins is None else _BinnedOutcome(config.y_law, y_bins)
    root = np.zeros((1, 0))
    P, w, _ = _branch(root, np.ones(1), config.u_law, history_cols(root, root, 0, 0, 0))
    U, P = P[:, 0], P[:, 1:]  # path columns l0, a0, l1, a1, ...
    for m in range(K + 1):
        lcols = history_cols(P[:, 0::2], P[:, 1::2], m, m, m, extra={"u": U})
        P, w, i = _branch(P, w, config.l_laws[m], lcols)
        U = U[i]
        acols = history_cols(P[:, 0::2], P[:, 1::2], m + 1, m, m)
        P, w, i = _branch(P, w, config.a_laws[m], acols)
        U = U[i]
    ycols = history_cols(P[:, 0::2], P[:, 1::2], K + 1, K + 1, extra={"u": U})
    keys, w, _ = _branch(P, w, y_law, ycols)
    distinct, at = np.unique(keys, return_inverse=True)
    rounded = np.array([round(float(v), 12) for v in distinct])
    cells, cell = group_rows(rounded[at].reshape(keys.shape), decimals=None)
    probs = np.bincount(cell, weights=w, minlength=len(cells))
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise EstimationError(f"enumerated mass {total!r} is not 1; check the laws")
    return JointTable(config.schema, cells, probs / total)


# ---------------------------------------------------------------------------
# Named scenario factories.
#
# The two-occasion family: hidden U, early treatment A0, covariate L := L1,
# late treatment A1, outcome Y.  L0 is a degenerate placeholder.  Effects
# are knobs so one family covers the null and every single-arrow alternative.
# ---------------------------------------------------------------------------


def two_occasion_scenario(
    *,
    name: str = "two-occasion",
    a0_effect: float = 0.0,
    a1_effect: float = 0.0,
    u_effect: float = 2.0,
    interaction: float = 0.0,  # coefficient on u*a1 in the outcome
    intercept: float = 1.0,
    y_noise_sd: float = 1.0,
    u_prob: float = 0.5,
    l_coefs: tuple[float, float, float] = (-0.5, 1.5, 1.0),
    a1_coefs: tuple[float, float] = (0.5, 0.7),
    a1_sd: float = 1.0,
) -> ScenarioConfig:
    """Continuous-treatment two-occasion trial with a hidden binary cause."""
    schema = Schema((constant(), binary()), (continuous(), continuous()))
    return ScenarioConfig(
        name=name,
        schema=schema,
        u_law=DiscreteMarginal((0.0, 1.0), (1.0 - u_prob, u_prob)),
        l_laws=(
            ConstantLaw(0.0),
            BernoulliLogit(("1", "u", "a0"), l_coefs),
        ),
        a_laws=(
            NormalLinear(("1",), (0.0,), 1.0),
            NormalLinear(("a0", "lm"), a1_coefs, a1_sd),
        ),
        y_law=LinearOutcome(
            ("1", "u", "a0", "a1", "u*a1"),
            (intercept, u_effect, a0_effect, a1_effect, interaction),
            noise_sd=y_noise_sd,
        ),
    )


def dag1a_scenario(a0_effect: float = 0.5, a1_effect: float = 0.5, **kw) -> ScenarioConfig:
    """Both treatments act on the outcome."""
    return two_occasion_scenario(name="dag1a", a0_effect=a0_effect,
                                 a1_effect=a1_effect, **kw)


def dag1b_scenario(**kw) -> ScenarioConfig:
    """Joint null: neither treatment acts, but U drives both L and Y."""
    return two_occasion_scenario(name="dag1b", **kw)


def dag1c_scenario(a1_effect: float = 0.5, **kw) -> ScenarioConfig:
    """Only the late treatment acts on the outcome."""
    return two_occasion_scenario(name="dag1c", a1_effect=a1_effect, **kw)


def dag1d_scenario(a0_effect: float = 0.5, **kw) -> ScenarioConfig:
    """Only the early treatment acts on the outcome."""
    return two_occasion_scenario(name="dag1d", a0_effect=a0_effect, **kw)


def binary_two_occasion_scenario(
    *,
    name: str = "binary-trial",
    a0_effect: float = 0.0,
    a1_effect: float = 0.0,
    u_effect: float = 1.5,
    interaction: float = 0.0,
    intercept: float = 1.0,
    y_noise_sd: float = 0.5,
    l_coefs: tuple[float, float, float] = (-0.4, 1.2, 1.0),
    a1_coefs: tuple[float, float, float] = (-0.3, 0.8, 0.4),
) -> ScenarioConfig:
    """Two-occasion trial with binary randomized treatments (known design)."""
    schema = Schema((constant(), binary()), (binary(), binary()))
    return ScenarioConfig(
        name=name,
        schema=schema,
        u_law=DiscreteMarginal((0.0, 1.0), (0.5, 0.5)),
        l_laws=(
            ConstantLaw(0.0),
            BernoulliLogit(("1", "u", "a0"), l_coefs),
        ),
        a_laws=(
            BernoulliLogit(("1",), (0.0,)),
            BernoulliLogit(("1", "lm", "a0"), a1_coefs),
        ),
        y_law=LinearOutcome(
            ("1", "u", "a0", "a1", "u*a1"),
            (intercept, u_effect, a0_effect, a1_effect, interaction),
            noise_sd=y_noise_sd,
        ),
    )


def masked_interaction_scenario(interaction: float = 1.5, **kw) -> ScenarioConfig:
    """Late treatment acts only in the U=1 stratum (no main a1 term)."""
    kw.setdefault("name", "masked-interaction")
    return binary_two_occasion_scenario(interaction=interaction, **kw)


def sequential_trial_scenario(
    K: int = 2,
    *,
    name: str = "sequential-trial",
    a_effects: tuple[float, ...] | None = None,
    u_effect: float = 2.0,
    y_noise_sd: float = 1.0,
) -> ScenarioConfig:
    """K+1 occasions of binary covariates and binary randomized treatments."""
    a_effects = tuple(a_effects or (0.0,) * (K + 1))
    if len(a_effects) != K + 1:
        raise ConfigError("one treatment effect per occasion")
    schema = Schema(tuple(binary() for _ in range(K + 1)),
                    tuple(binary() for _ in range(K + 1)))
    l_laws = tuple(
        BernoulliLogit(("1", "u", "a_prev"), (0.2, 0.8, 0.5)) for _ in range(K + 1)
    )
    a_laws = tuple(
        BernoulliLogit(("1", "lm", "a_prev"), (0.3, 0.5, -0.4)) for _ in range(K + 1)
    )
    y_terms = ("1", "u") + tuple(f"a{m}" for m in range(K + 1))
    y_coefs = (1.0, u_effect) + a_effects
    return ScenarioConfig(
        name=name,
        schema=schema,
        u_law=DiscreteMarginal((0.0, 1.0), (0.5, 0.5)),
        l_laws=l_laws,
        a_laws=a_laws,
        y_law=LinearOutcome(y_terms, y_coefs, noise_sd=y_noise_sd),
    )


def discrete_trial_scenario(
    *,
    name: str = "discrete-trial",
    a0_effect: float = 0.5,
    a1_effect: float = 1.0,
    u_effect: float = 1.0,
) -> ScenarioConfig:
    """All-discrete two-occasion scenario (exact tables available)."""
    schema = Schema((binary(), binary()), (binary(), binary()))
    return ScenarioConfig(
        name=name,
        schema=schema,
        u_law=DiscreteMarginal((0.0, 1.0), (0.5, 0.5)),
        l_laws=(
            BernoulliLogit(("1", "u"), (-0.85, 1.7)),
            BernoulliLogit(("1", "u", "a0", "l0"), (-0.3, 0.9, 0.8, 0.4)),
        ),
        a_laws=(
            BernoulliLogit(("1", "l0"), (-0.8, 0.8)),
            BernoulliLogit(("1", "lm", "a0"), (-0.2, 0.6, 0.4)),
        ),
        y_law=LinearOutcome(
            ("u", "a0", "a1"),
            (u_effect, a0_effect, a1_effect),
            noise=DiscreteMarginal((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25)),
        ),
    )


def _discretized_normal(points: int = 9, span: float = 2.0) -> DiscreteMarginal:
    vals = np.linspace(-span, span, points)
    w = np.exp(-0.5 * vals**2)
    w = w / w.sum()
    return DiscreteMarginal(tuple(float(v) for v in vals), tuple(float(p) for p in w))


def sndm_scenario(
    *,
    name: str = "sndm-additive",
    psi: tuple[float, ...] = (1.0,),
    cofactors: tuple[str, ...] = ("1",),
    family: str = "additive",
    h_atoms: int | None = None,
) -> ScenarioConfig:
    """Blip-generated data: U is the residual outcome, treatments randomized.

    ``h_atoms`` switches the residual-outcome law from standard normal to a
    discretized version with that many atoms (enables exact tables).  The
    multiplicative family needs positive outcomes, so there U is exp(Z / 2)
    for Z on the discretized normal's atoms (``h_atoms``, default 9).
    """
    blip = BlipSpec(family, tuple(cofactors)).with_psi(psi)
    schema = Schema((binary(), binary()), (binary(), binary()))
    if family == "multiplicative":
        atoms = _discretized_normal(h_atoms or 9)
        u_law = DiscreteMarginal(tuple(float(np.exp(0.5 * v)) for v in atoms.values),
                                 atoms.probs)
    else:
        u_law = _discretized_normal(h_atoms) if h_atoms else NormalLinear(("1",), (0.0,))
    # Both occasions share one assignment law on pooled-history terms, so the
    # pooled treatment model with alpha = (-0.1, 0.7, -0.3) is exactly right.
    assign = BernoulliLogit(("1", "lm", "a_prev"), (-0.1, 0.7, -0.3))
    return ScenarioConfig(
        name=name,
        schema=schema,
        u_law=u_law,
        l_laws=(
            BernoulliLogit(("1", "u"), (0.2, 0.7)),
            BernoulliLogit(("u", "a0", "l0"), (0.5, 0.6, -0.3)),
        ),
        a_laws=(assign, assign),
        y_law=BlipOutcome(blip),
    )


def direct_effect_scenario(
    *,
    name: str = "direct-effect-discrete",
    psi: tuple[float, float] = (1.0, 0.5),
    u_effect: float = 1.0,
    h_atoms: int = 7,
) -> ScenarioConfig:
    """Early treatment shifts Y by psi1 + psi2*a1; late treatment is a weight.

    All-discrete: the early-treatment residual H = Y + a0*(psi1 + psi2*a1)
    equals the hidden cause exactly, so weighted-moment checks have an exact
    oracle.
    """
    schema = Schema((constant(), binary()), (binary(), binary()))
    return ScenarioConfig(
        name=name,
        schema=schema,
        u_law=_discretized_normal(h_atoms),
        l_laws=(
            ConstantLaw(0.0),
            BernoulliLogit(("1", "u", "a0"), (-0.3, u_effect, 0.8)),
        ),
        a_laws=(
            BernoulliLogit(("1",), (0.0,)),
            BernoulliLogit(("1", "lm", "a0"), (-0.2, 0.7, 0.4)),
        ),
        y_law=LinearOutcome(("u", "a0", "a0*a1"), (1.0, -psi[0], -psi[1])),
    )


def design_alpha(config: ScenarioConfig, terms: tuple[str, ...],
                 occasions=None) -> tuple[float, ...] | None:
    """Known pooled treatment-model coefficients, if the design provides them.

    Returns the shared coefficient vector when every requested occasion's
    assignment law is logistic with exactly ``terms``; None otherwise (the
    caller then estimates the model).
    """
    occs = range(config.schema.K + 1) if occasions is None else occasions
    coefs = None
    for m in occs:
        law = config.a_laws[m]
        if not isinstance(law, BernoulliLogit) or tuple(law.terms) != tuple(terms):
            return None
        c = tuple(float(v) for v in law.coefs)
        if coefs is None:
            coefs = c
        elif c != coefs:
            return None
    return coefs


SCENARIOS = {
    "dag1a": dag1a_scenario,
    "dag1b": dag1b_scenario,
    "dag1c": dag1c_scenario,
    "dag1d": dag1d_scenario,
    "two-occasion": two_occasion_scenario,
    "binary-trial": binary_two_occasion_scenario,
    "masked-interaction": masked_interaction_scenario,
    "sequential-trial": sequential_trial_scenario,
    "discrete-trial": discrete_trial_scenario,
    "sndm-additive": sndm_scenario,
    "direct-effect-discrete": direct_effect_scenario,
}


def _finite(value) -> bool:
    """Whether every number in a param value, nested lists included, is finite."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return all(map(_finite, value))
    return not isinstance(value, Real) or math.isfinite(value)


def make_scenario(name: str, params: dict | None = None) -> ScenarioConfig:
    """The registered scenario built with ``params``; a non-finite number in
    a param, or params its factory refuses, are a ``ConfigError``."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    params = _typed(f"scenario {name!r} params", params or {}, "mapping")
    for key, value in params.items():
        if not _finite(value):
            raise ConfigError(f"scenario {name!r} param {key!r} must hold finite numbers, "
                              f"not {value!r}")
    try:
        return SCENARIOS[name](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario {name!r}: {exc}") from exc
