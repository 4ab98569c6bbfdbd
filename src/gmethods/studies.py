"""Replicate studies: run the registered analyses over simulated datasets.

``ANALYSES`` maps each analysis to a function that returns the library's
result object, and ``PARAMS`` declares the params it reads, each with a
kind and a default.  ``read_params`` reads a study's analysis entries and
the top level of a ``gmethods g-estimate`` or ``direct-effect`` config by
that one declaration; ``row_fields`` turns any result into a log row.

A study is (scenario, n, replicates, seed, analyses).  Each replicate gets
its own derived seed, so results are independent of execution order and of
how many workers run them.  Analysis failures are recorded per replicate
and the study continues.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import streams
from .data import Dataset, _write_table
from .direct_effect import (
    DeSndmSpec,
    SplitSchema,
    direct_effect_g_estimate,
    direct_effect_gnull_test,
    naive_direct_effect_demo,
)
from .errors import ConfigError, GmethodsError, _count, _level, _terms, _typed
from .glm import TestReport
from .gnull import GTestSpec, gnull_score_test, naive_test, pooled_g_test
from .scenarios import ScenarioConfig, design_alpha, simulate
from .sndm import BlipSpec, GEstimate, _grid_spec, g_estimate


@dataclass(frozen=True)
class StudyRow:
    """One analysis on one replicate — a row of the study log."""

    scenario: str
    n: int
    replicate: int
    analysis: str
    statistic: float = float("nan")
    p: float = float("nan")
    reject: bool | None = None
    estimate: float = float("nan")
    ci_lo: float = float("nan")
    ci_hi: float = float("nan")
    error: str = ""


@dataclass(frozen=True)
class StudyConfig:
    scenario: ScenarioConfig
    n: int
    replicates: int
    seed: int
    analyses: tuple[tuple[str, dict], ...]

    def __post_init__(self) -> None:
        _count("replicates", self.replicates)
        _count("n", self.n)
        object.__setattr__(self, "analyses", tuple(
            (name, read_params(name, params)) for name, params in self.analyses))


REQUIRED = object()  # the default of a param that has none


def read_params(name: str, params, top_level: tuple[str, ...] = ()) -> dict:
    """Every param of analysis ``name``: each given value read by its kind in
    ``PARAMS[name]``, each absent one at its default.  A key that neither the
    analysis nor ``top_level`` reads, or an absent required one, is a
    ``ConfigError``, and so is a bad search grid (``psi_box`` and
    ``grid_points``), so a study stops before its first replicate.
    ``top_level`` names the other keys of a single-run config, whose params
    sit beside them at the top level, so its messages name the bare key; a
    study's messages name the analysis too."""
    if name not in ANALYSES:
        raise ConfigError(f"unknown analysis {name!r}; registered: {sorted(ANALYSES)}")
    if not isinstance(params, dict):
        raise ConfigError(f"params of analysis {name!r} must be a mapping")
    declared = PARAMS[name]
    unread = sorted(set(params) - set(declared) - set(top_level))
    if unread:
        raise ConfigError(f"analysis {name!r} has no parameter {unread[0]!r}; "
                          f"it reads {[*top_level, *declared]}")
    where = "" if top_level else f"{name} "
    out = {}
    for key, (kind, default) in declared.items():
        if key in params:
            out[key] = _param(where + key, params[key], kind)
        elif default is REQUIRED:
            raise ConfigError(f"missing '{where}{key}' key")
        else:
            out[key] = default
    if "grid_points" in declared:
        try:
            _grid_spec(_search_box(out), out["grid_points"], len(out["cofactors"]))
        except ConfigError as exc:
            raise ConfigError(f"{where}{exc}") from None
    return out


def _param(key: str, value, kind: str | None):
    """A param read by its kind: feature "terms", a test "level" strictly
    between 0 and 1, an "alpha" ('design', 'fitted' or a list of numbers), a
    "split" of occasions ({p: [...], z: [...]}), or an ``errors._typed``
    kind.  ``grid_points`` (kind None) is one count or one per component,
    checked with the box in ``read_params``."""
    if kind == "terms":
        return _terms(key, value)
    if kind == "level":
        return _level(key, value)
    if kind == "alpha":
        if isinstance(value, str):
            if value not in ("design", "fitted"):
                raise ConfigError(f"{key} must be 'design', 'fitted' or a list of numbers, "
                                  f"not {value!r}")
            return value
        return tuple(_typed(key, v, "number") for v in _typed(key, value, "list"))
    if kind == "split":
        sect = _typed(key, value, "mapping")
        return SplitSchema(*(tuple(_count(f"{key} {arm}", v, 0)
                                   for v in _typed(f"{key} {arm}", sect.get(arm, ()), "list"))
                             for arm in ("p", "z")))
    return value if kind is None else _typed(key, value, kind)


def replicate_seed(root_seed: int, index: int) -> int:
    """Stable per-replicate seed, independent of worker scheduling."""
    return int(streams.substream(root_seed, "replicate", index).integers(0, 2**62))


def _alpha(config: ScenarioConfig, alpha, terms):
    """The treatment-model coefficients an ``alpha`` param names (None: fit
    them).  Its default, None, takes the design's where the scenario has one."""
    if alpha == "fitted" or isinstance(alpha, tuple):
        return None if alpha == "fitted" else alpha
    found = design_alpha(config, terms)
    if found is None and alpha == "design":
        raise ConfigError("alpha: design — but the scenario's assignment laws do not "
                          f"share a logistic model on terms {terms}")
    return found


def _search_box(p: dict):
    """The psi_box of a g-estimate or de-estimate analysis; absent, (-4, 4)
    per blip component."""
    return [(-4.0, 4.0)] * len(p["cofactors"]) if p["psi_box"] is None else p["psi_box"]


def _an_g_estimate(dataset: Dataset, config: ScenarioConfig, p: dict) -> GEstimate:
    return g_estimate(dataset, BlipSpec(p["family"], p["cofactors"]),
                      treatment_terms=p["treatment_terms"], psi_box=_search_box(p),
                      alpha_known=_alpha(config, p["alpha"], p["treatment_terms"]),
                      grid_points=p["grid_points"], level=p["level"])


def _an_de_estimate(dataset: Dataset, config: ScenarioConfig, p: dict) -> GEstimate:
    split = p["split"]
    spec = DeSndmSpec(BlipSpec(p["family"], p["cofactors"]), mean_terms=p["mean_terms"])
    z_laws, p_alpha = None, None
    if p["known_design"]:
        z_laws = {k: config.a_laws[k] for k in split.z_occasions}
        p_alpha = design_alpha(config, spec.mean_terms, occasions=split.p_occasions)
    return direct_effect_g_estimate(dataset, split, spec, psi_box=p["psi_box"], z_laws=z_laws,
                                    z_terms=p["z_terms"], p_alpha_known=p_alpha,
                                    grid_points=p["grid_points"], level=p["level"])


# Each analysis, (dataset, scenario, params) -> its result object, and the
# params it reads, key -> (kind, default).  A default of None stands for a
# rule the analysis applies: the g-estimate box is (-4, 4) per component,
# and alpha is the design's where the scenario has one, else fitted.
ANALYSES = {
    "naive": lambda ds, cfg, p: naive_test(ds, level=p["level"]),
    "gnull-score": lambda ds, cfg, p: gnull_score_test(ds, cfg.a_laws, level=p["level"]),
    "pooled-g": lambda ds, cfg, p: pooled_g_test(ds, GTestSpec(
        p["treatment_terms"], _alpha(cfg, p["alpha"], p["treatment_terms"])), level=p["level"]),
    "de-gnull": lambda ds, cfg, p: direct_effect_gnull_test(
        ds, a1_law=cfg.a_laws[1] if p["known_design"] else None, level=p["level"]),
    "naive-de": lambda ds, cfg, p: naive_direct_effect_demo(
        ds, a1_alpha_known=design_alpha(cfg, ("1", "lm", "a0"), occasions=(1,)),
        level=p["level"]),
    "g-estimate": _an_g_estimate,
    "de-estimate": _an_de_estimate,
}
_LEVEL = {"level": ("level", 0.05)}
_DESIGN = {"treatment_terms": ("terms", ("1", "lm", "a_prev")), "alpha": ("alpha", None),
           **_LEVEL}
_BLIP = {"family": ("string", "additive"), "cofactors": ("terms", ("1",))}
PARAMS = {
    "naive": _LEVEL, "gnull-score": _LEVEL, "naive-de": _LEVEL,
    "de-gnull": {"known_design": ("boolean", True), **_LEVEL},
    "pooled-g": _DESIGN,
    "g-estimate": {**_BLIP, "psi_box": ("list", None), "grid_points": (None, 201), **_DESIGN},
    "de-estimate": {"split": ("split", REQUIRED), **_BLIP, "mean_terms": ("terms", ("1",)),
                    "z_terms": ("terms", ("1", "lm", "a_prev")), "psi_box": ("list", REQUIRED),
                    "grid_points": (None, 201), "known_design": ("boolean", True), **_LEVEL},
}


def row_fields(result) -> dict:
    """The study-log fields of an analysis result: a test's statistic, p and
    decision; an estimate's first component with its one-run interval; the
    naive scan's largest p, covariate-test p and joint decision."""
    if isinstance(result, TestReport):
        return {"statistic": result.statistic, "p": result.p_value, "reject": result.reject}
    if isinstance(result, GEstimate):
        lo, hi = result.interval or (float("nan"), float("nan"))
        return {"statistic": result.statistic_at_hat, "p": result.p_at_hat,
                "estimate": float(result.psi_hat[0]), "ci_lo": lo, "ci_hi": hi}
    return {"statistic": result.scan_max_p, "p": result.covariate_test.p_value,
            "reject": result.naive_reject}


def run_replicate(config: StudyConfig, index: int) -> list[StudyRow]:
    seed = replicate_seed(config.seed, index)
    dataset = simulate(config.scenario, config.n, seed)
    rows = []
    for name, params in config.analyses:
        base = dict(scenario=config.scenario.name, n=config.n,
                    replicate=index, analysis=name)
        try:
            result = ANALYSES[name](dataset, config.scenario, dict(params))
            rows.append(StudyRow(**base, **row_fields(result)))
        except GmethodsError as exc:
            rows.append(StudyRow(**base, error=f"{type(exc).__name__}: {exc}"))
    return rows


def run_study(config: StudyConfig, jobs: int = 1) -> list[StudyRow]:
    """All replicates, all analyses; rows sorted by (replicate, analysis order)."""
    indices = list(range(config.replicates))
    if jobs <= 1:
        batches = [run_replicate(config, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(run_replicate, [config] * len(indices), indices))
    return [row for batch in batches for row in batch]


def write_study_log(path: str, rows: list[StudyRow]) -> None:
    def floats(key: str) -> np.ndarray:
        return np.array([getattr(r, key) for r in rows], dtype=float)

    _write_table(path, ["scenario", "n", "replicate", "analysis", "statistic",
                        "p", "reject", "estimate", "ci_lo", "ci_hi"],
                 [[r.scenario for r in rows], [str(r.n) for r in rows],
                  [str(r.replicate) for r in rows], [r.analysis for r in rows],
                  floats("statistic"), floats("p"),
                  ["" if r.reject is None else str(int(r.reject)) for r in rows],
                  floats("estimate"), floats("ci_lo"), floats("ci_hi")])


@dataclass(frozen=True)
class AnalysisSummary:
    analysis: str
    replicates: int
    errors: int
    reject_rate: float = float("nan")
    reject_rate_se: float = float("nan")
    mean_estimate: float = float("nan")
    estimate_se: float = float("nan")


def summarize(rows: list[StudyRow]) -> list[AnalysisSummary]:
    """Per-analysis aggregation: rejection rates and estimate means with MC SEs."""
    order: list[str] = []
    groups: dict[str, list[StudyRow]] = {}
    for r in rows:
        if r.analysis not in groups:
            order.append(r.analysis)
            groups[r.analysis] = []
        groups[r.analysis].append(r)
    out = []
    for name in order:
        g = groups[name]
        ok = [r for r in g if not r.error]
        errors = len(g) - len(ok)
        decided = [r for r in ok if r.reject is not None]
        kw: dict = {}
        if decided:
            rate = float(np.mean([r.reject for r in decided]))
            kw["reject_rate"] = rate
            kw["reject_rate_se"] = float(np.sqrt(rate * (1 - rate) / len(decided)))
        ests = np.array([r.estimate for r in ok], dtype=float)
        ests = ests[np.isfinite(ests)]
        if ests.size:
            kw["mean_estimate"] = float(ests.mean())
            kw["estimate_se"] = float(ests.std(ddof=1) / np.sqrt(ests.size)) \
                if ests.size > 1 else 0.0
        out.append(AnalysisSummary(name, len(g), errors, **kw))
    return out


def format_summary(summaries: list[AnalysisSummary]) -> str:
    lines = [f"{'analysis':<14} {'reps':>5} {'errors':>6} {'reject':>8} "
             f"{'(se)':>8} {'estimate':>10} {'(se)':>8}"]
    for s in summaries:
        rej = "" if np.isnan(s.reject_rate) else f"{s.reject_rate:.3f}"
        rse = "" if np.isnan(s.reject_rate_se) else f"{s.reject_rate_se:.3f}"
        est = "" if np.isnan(s.mean_estimate) else f"{s.mean_estimate:.4f}"
        ese = "" if np.isnan(s.estimate_se) else f"{s.estimate_se:.4f}"
        lines.append(f"{s.analysis:<14} {s.replicates:>5} {s.errors:>6} "
                     f"{rej:>8} {rse:>8} {est:>10} {ese:>8}")
    return "\n".join(lines)
