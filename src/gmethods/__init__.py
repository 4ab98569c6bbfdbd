"""Causal analysis of sequential treatments.

Simulation scenarios with hidden common causes and exact enumeration;
standardization over treatment regimes (exact, Monte Carlo, and plug-in);
randomization tests of "treatment has no effect" that stay valid where
regression adjustment does not; g-estimation of shift-type structural
models; and weighted tests and estimators for direct effects of early
treatments.  The ``cli`` module exposes the same machinery as the
``gmethods`` command.
"""

from .data import (
    Dataset,
    History,
    Regime,
    Schema,
    Trajectory,
    VarKind,
    apply_regime,
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
    fit_z_laws,
    ipw_weights,
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
    expit,
    fit_linear,
    fit_logistic,
    logit,
    pooled_rows,
    robust_score_test,
    score_test_added,
    wald_test,
)
from .gnull import (
    GnullScoreInputs,
    GTestSpec,
    gnull_score_test,
    gnull_table_check,
    naive_test,
    parametric_null_check,
    pooled_g_test,
    random_sequential_table,
)
from .laws import (
    BernoulliLogit,
    ConstantLaw,
    DiscreteMarginal,
    LinearOutcome,
    NormalLinear,
)
from .reproduce import REPRODUCERS, CheckLine, ReproduceReport
from .scenarios import (
    SCENARIOS,
    ScenarioConfig,
    counterfactual_draws,
    diagnostics,
    enumerate_joint,
    make_scenario,
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
    mc_regime_draws,
    multiplicative_blip,
    shift_basis,
    sndm_lr_test,
    sndm_mle,
)
from .studies import (
    ANALYSES,
    AnalysisSummary,
    StudyConfig,
    StudyRow,
    format_summary,
    replicate_seed,
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
    "ANALYSES",
    "AnalysisSummary",
    "BernoulliLogit",
    "BlipSpec",
    "CheckLine",
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
    "GnullScoreInputs",
    "GTestSpec",
    "History",
    "JointTable",
    "LinearOutcome",
    "NaiveDirectEffectReport",
    "NormalLinear",
    "PositivityError",
    "Regime",
    "RegimeDistribution",
    "REPRODUCERS",
    "ReproduceReport",
    "SCENARIOS",
    "ScenarioConfig",
    "Schema",
    "SeparationError",
    "SndmMle",
    "SplitSchema",
    "StudyConfig",
    "StudyRow",
    "TestReport",
    "Trajectory",
    "ValidationError",
    "VarKind",
    "additive_blip",
    "apply_regime",
    "binary",
    "blip_down",
    "blip_up",
    "constant",
    "continuous",
    "counterfactual_draws",
    "diagnostics",
    "direct_effect_g_estimate",
    "direct_effect_gnull_test",
    "direct_effect_moment_check",
    "discrete",
    "empirical_static_survivor",
    "enumerate_joint",
    "expit",
    "fit_linear",
    "fit_logistic",
    "fit_z_laws",
    "g_estimate",
    "g_formula_conditional",
    "g_formula_exact",
    "g_formula_mc",
    "g_mean_plugin",
    "g_test_at",
    "gnull_score_test",
    "gnull_table_check",
    "ipw_weights",
    "logit",
    "make_scenario",
    "mc_regime_draws",
    "multiplicative_blip",
    "naive_direct_effect_demo",
    "naive_test",
    "parametric_null_check",
    "pooled_g_test",
    "pooled_rows",
    "random_sequential_table",
    "read_csv",
    "replicate_seed",
    "robust_score_test",
    "run_study",
    "score_test_added",
    "shift_basis",
    "simulate",
    "sndm_lr_test",
    "sndm_mle",
    "summarize",
    "validate",
    "wald_test",
    "write_csv",
    "write_study_log",
    "__version__",
]
