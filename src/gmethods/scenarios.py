"""Structural data-generating scenarios with a hidden common cause.

A scenario is a list of conditional laws in time order: hidden cause U,
then per occasion a covariate law (which may see U) and a treatment law
(which sees only the observed past — treatments are randomized given
history by construction), then the outcome law (which may see U).

The same config drives three things: observational sampling (U discarded),
counterfactual sampling under a manipulated treatment plan (the ground
truth for standardization), and exact enumeration of the observable joint
law when every law is finite-discrete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import streams
from .data import (
    Dataset,
    Regime,
    Schema,
    binary,
    constant,
    continuous,
    group_rows,
    regime_values,
)
from .errors import ConfigError, EstimationError
from .features import Cols, history_cols
from .gformula import JointTable
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
    """Sample n subjects; treatments come from the laws or from a regime."""
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
        if done >= n:
            break
    return U, L, A, Y


def simulate(config: ScenarioConfig, n: int, seed: int,
             return_hidden: bool = False):
    """Observational draw; the hidden cause is discarded unless asked for."""
    if n <= 0:
        raise ConfigError("n must be positive")
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
    if n <= 0:
        raise ConfigError("n must be positive")
    _, _, _, Y = _rollout(config, n, seed, regime=regime)
    return Y


def _law_support(law) -> tuple[float, ...]:
    sup = getattr(law, "support", None)
    if sup is None:
        raise ConfigError(
            f"{type(law).__name__} has no finite support; exact enumeration "
            "needs discrete laws everywhere"
        )
    return sup()


def _branch(P: np.ndarray, w: np.ndarray, law, cols: Cols):
    """Extend every path (row of P, weight w) by each support value of law
    with positive probability; rows stay in (path, support value) order."""
    sup = np.asarray(_law_support(law), dtype=float)
    p = np.column_stack([law.density(v, cols) for v in sup])
    i, j = np.nonzero(p > 0.0)
    return np.column_stack([P[i], sup[j]]), w[i] * p[i, j], i


def enumerate_joint(config: ScenarioConfig, y_bins: np.ndarray | None = None) -> JointTable:
    """Exact observable joint law, hidden cause summed out.

    All of U, L_m, A_m must be finite-discrete.  The outcome must either
    have atoms itself or, with normal noise, be discretized by the edge
    vector ``y_bins`` (bin mass is exact; the representative value is the
    bin midpoint, with tail mass folded into the end bins).

    Every live (u, l0, a0, ..., l_m) path is one row of an array, so each
    law's density is evaluated once per support value and occasion; the
    hidden cause branches first, from the one-row occasion-0 context.  Rows
    stay in depth-first order (u atom, then support order at each occasion),
    and each cell sums its path masses in that order.
    """
    K = config.schema.K
    if y_bins is not None and not getattr(config.y_law, "noise_sd", 0.0) > 0.0:
        raise ConfigError("y_bins discretizes normal outcome noise, and this outcome "
                          "has none; enumerate its atoms without y_bins")
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
    if y_bins is None:
        y, py = config.y_law.atoms(ycols)
    else:
        edges = np.asarray(y_bins, dtype=float)
        py = config.y_law.bin_probs(ycols, edges)
        mu = config.y_law.mean(ycols)
        sd = config.y_law.noise_sd
        py[:, 0] += ndtr((edges[0] - mu) / sd)
        py[:, -1] += ndtr(-((edges[-1] - mu) / sd))
        y = np.broadcast_to(0.5 * (edges[:-1] + edges[1:]), py.shape)
    i, j = np.nonzero(py > 0.0)
    keys = np.column_stack([P[i], y[i, j]])
    distinct, at = np.unique(keys, return_inverse=True)
    rounded = np.array([round(float(v), 12) for v in distinct])
    cells, cell = group_rows(rounded[at].reshape(keys.shape), decimals=None)
    probs = np.bincount(cell, weights=w[i] * py[i, j], minlength=len(cells))
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise EstimationError(f"enumerated mass {total!r} is not 1; check the laws")
    return JointTable(config.schema, cells, probs / total)


@dataclass(frozen=True)
class FaithfulnessDiagnostics:
    """Sample moments that reveal which arrows are active."""

    cov_y_l: float
    cov_y_a0: float
    cov_y_a1: float
    cov_l_a0: float
    partials: dict[str, float]
    n: int


def _column(dataset: Dataset, name: str) -> np.ndarray:
    name = name.lower()
    if name == "y":
        return dataset.Y
    if name == "l":
        return dataset.L[:, min(1, dataset.schema.K)]
    if name.startswith("l"):
        return dataset.L[:, int(name[1:])]
    if name.startswith("a"):
        return dataset.A[:, int(name[1:])]
    raise ConfigError(f"unknown diagnostic column {name!r}")


def _partial_corr(x: np.ndarray, y: np.ndarray, given: list[np.ndarray]) -> float:
    X = np.column_stack([np.ones(len(x))] + given)
    bx, *_ = np.linalg.lstsq(X, x, rcond=None)
    by, *_ = np.linalg.lstsq(X, y, rcond=None)
    rx = x - X @ bx
    ry = y - X @ by
    sx, sy = np.std(rx), np.std(ry)
    if sx == 0.0 or sy == 0.0:
        raise EstimationError("zero-variance column: partial correlation undefined")
    return float(np.mean(rx * ry) / (sx * sy))


def diagnostics(dataset: Dataset, partials=()) -> FaithfulnessDiagnostics:
    """Covariances among (Y, L, A0, A1) plus requested partial correlations.

    ``partials`` entries are (x, y, (given, ...)) column-name triples.
    """
    if dataset.n < 3:
        raise EstimationError("diagnostics need at least 3 rows")
    if dataset.schema.K < 1:
        raise ConfigError("diagnostics expect a two-occasion (K=1) dataset")
    Y = dataset.Y
    Lc = _column(dataset, "l")
    A0 = dataset.A[:, 0]
    A1 = dataset.A[:, 1]

    def cov(a, b) -> float:
        return float(np.mean((a - a.mean()) * (b - b.mean())))

    out: dict[str, float] = {}
    for x, y, given in partials:
        key = f"{x}~{y}|{','.join(given)}"
        out[key] = _partial_corr(
            _column(dataset, x), _column(dataset, y),
            [_column(dataset, g) for g in given],
        )
    return FaithfulnessDiagnostics(
        cov_y_l=cov(Y, Lc),
        cov_y_a0=cov(Y, A0),
        cov_y_a1=cov(Y, A1),
        cov_l_a0=cov(Lc, A0),
        partials=out,
        n=dataset.n,
    )


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


def make_scenario(name: str, params: dict | None = None) -> ScenarioConfig:
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    return SCENARIOS[name](**(params or {}))
