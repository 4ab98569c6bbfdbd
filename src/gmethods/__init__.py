"""Causal analysis of sequential treatments.

Simulation scenarios with hidden common causes and exact enumeration;
standardization over treatment regimes (exact, Monte Carlo, and plug-in);
randomization tests of "treatment has no effect" that stay valid where
regression adjustment does not; g-estimation of shift-type structural
models; and weighted tests and estimators for direct effects of early
treatments.  The ``cli`` module exposes the same machinery as the
``gmethods`` command.

``__all__`` is the API that README's "Public API" section lists: the entry
points, the types a caller builds or gets back, and the errors.  The
wiring between modules is imported from its module.
"""

from .data import (
    Dataset,
    History,
    Regime,
    Schema,
    VarKind,
    binary,
    constant,
    continuous,
    discrete,
    read_csv,
    validate,
    write_csv,
)
from .direct_effect import (
    DeMomentReport,
    DeSndmSpec,
    NaiveDirectEffectReport,
    SplitSchema,
    direct_effect_g_estimate,
    direct_effect_gnull_test,
    direct_effect_moment_check,
    naive_direct_effect_demo,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    EstimationError,
    GmethodsError,
    PositivityError,
    SeparationError,
    ValidationError,
)
from .gformula import (
    ConditionalLaws,
    JointTable,
    RegimeDistribution,
    g_formula_conditional,
    g_formula_exact,
    g_formula_mc,
    g_mean_plugin,
)
from .glm import (
    FittedGlm,
    TestReport,
    fit_linear,
    fit_logistic,
    wald_test,
)
from .gnull import (
    GTestSpec,
    gnull_score_test,
    gnull_table_check,
    naive_test,
    pooled_g_test,
)
from .laws import (
    BernoulliLogit,
    ConstantLaw,
    DiscreteMarginal,
    LinearOutcome,
    NormalLinear,
)
from .reproduce import ReproduceReport
from .scenarios import (
    ScenarioConfig,
    counterfactual_draws,
    enumerate_joint,
    make_scenario,
    mc_regime_draws,
    simulate,
)
from .sndm import (
    BlipSpec,
    GEstimate,
    SndmMle,
    additive_blip,
    blip_down,
    blip_up,
    empirical_static_survivor,
    g_estimate,
    g_test_at,
    multiplicative_blip,
    sndm_lr_test,
    sndm_mle,
)
from .studies import (
    AnalysisSummary,
    StudyConfig,
    StudyRow,
    run_study,
    summarize,
    write_study_log,
)

import numpy as _np

# glibc returns heap memory to the system whenever the free space at the top
# of the heap exceeds twice the largest mmap-served block freed so far.  A
# score test on a few thousand rows frees several 100-500 kB temporaries per
# call, so without a larger freed block every call faults their pages back in
# (160-390 minor faults per naive_direct_effect_demo on 5,000 rows in
# direct-effect-study units, against none with the block).  Allocating and
# freeing one 4 MiB block raises that bound once.
_np.empty(1 << 19)

__version__ = "0.1.0"

__all__ = [
    "AnalysisSummary",
    "BernoulliLogit",
    "BlipSpec",
    "ConditionalLaws",
    "ConfigError",
    "ConstantLaw",
    "ConvergenceError",
    "Dataset",
    "DeMomentReport",
    "DeSndmSpec",
    "DiscreteMarginal",
    "EstimationError",
    "FittedGlm",
    "GEstimate",
    "GmethodsError",
    "GTestSpec",
    "History",
    "JointTable",
    "LinearOutcome",
    "NaiveDirectEffectReport",
    "NormalLinear",
    "PositivityError",
    "Regime",
    "RegimeDistribution",
    "ReproduceReport",
    "ScenarioConfig",
    "Schema",
    "SeparationError",
    "SndmMle",
    "SplitSchema",
    "StudyConfig",
    "StudyRow",
    "TestReport",
    "ValidationError",
    "VarKind",
    "additive_blip",
    "binary",
    "blip_down",
    "blip_up",
    "constant",
    "continuous",
    "counterfactual_draws",
    "direct_effect_g_estimate",
    "direct_effect_gnull_test",
    "direct_effect_moment_check",
    "discrete",
    "empirical_static_survivor",
    "enumerate_joint",
    "fit_linear",
    "fit_logistic",
    "g_estimate",
    "g_formula_conditional",
    "g_formula_exact",
    "g_formula_mc",
    "g_mean_plugin",
    "g_test_at",
    "gnull_score_test",
    "gnull_table_check",
    "make_scenario",
    "mc_regime_draws",
    "multiplicative_blip",
    "naive_direct_effect_demo",
    "naive_test",
    "pooled_g_test",
    "read_csv",
    "run_study",
    "simulate",
    "sndm_lr_test",
    "sndm_mle",
    "summarize",
    "validate",
    "wald_test",
    "write_csv",
    "write_study_log",
]
