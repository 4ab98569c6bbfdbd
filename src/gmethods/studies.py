"""Replicate studies: run named analyses over simulated datasets.

A study is (scenario, n, replicates, seed, analyses).  Each replicate gets
its own derived seed, so results are independent of execution order and of
how many workers run them.  Analysis failures are recorded per replicate
and the study continues.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .data import Dataset
from .errors import ConfigError, GmethodsError
from .gnull import GnullScoreInputs, GTestSpec, gnull_score_test, naive_test, pooled_g_test
from .scenarios import ScenarioConfig, design_alpha, simulate
from .sndm import BlipSpec, g_estimate


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
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        for name, _ in self.analyses:
            if name not in ANALYSES:
                raise ConfigError(
                    f"unknown analysis {name!r}; registered: {sorted(ANALYSES)}"
                )


def replicate_seed(root_seed: int, index: int) -> int:
    """Stable per-replicate seed, independent of worker scheduling."""
    return int(streams.substream(root_seed, "replicate", index).integers(0, 2**62))


def _from_report(rep) -> dict:
    return {"statistic": rep.statistic, "p": rep.p_value, "reject": rep.reject}


def _an_naive(dataset: Dataset, config: ScenarioConfig, params: dict) -> dict:
    return _from_report(naive_test(dataset, level=params.get("level", 0.05)))


def _an_gnull_score(dataset: Dataset, config: ScenarioConfig, params: dict) -> dict:
    inputs = GnullScoreInputs.from_scenario(config)
    return _from_report(gnull_score_test(dataset, inputs,
                                         level=params.get("level", 0.05)))


def _an_pooled_g(dataset: Dataset, config: ScenarioConfig, params: dict) -> dict:
    terms = tuple(params.get("treatment_terms", ("1", "lm", "a_prev")))
    alpha = params.get("alpha_known")
    if alpha is None and params.get("design_alpha", True):
        alpha = design_alpha(config, terms)
    spec = GTestSpec(treatment_terms=terms,
                     alpha_known=tuple(alpha) if alpha is not None else None)
    return _from_report(pooled_g_test(dataset, spec, level=params.get("level", 0.05)))


def _an_de_gnull(dataset: Dataset, config: ScenarioConfig, params: dict) -> dict:
    from .direct_effect import direct_effect_gnull_test

    law = config.a_laws[1] if params.get("known_design", True) else None
    return _from_report(direct_effect_gnull_test(
        dataset, a1_law=law, level=params.get("level", 0.05)))


def _an_naive_de(dataset: Dataset, config: ScenarioConfig, params: dict) -> dict:
    from .direct_effect import naive_direct_effect_demo

    terms = ("1", "lm", "a0")
    alpha = design_alpha(config, terms, occasions=(1,))
    rep = naive_direct_effect_demo(dataset, a1_alpha_known=alpha,
                                   level=params.get("level", 0.05))
    return {"statistic": rep.scan_max_p, "p": rep.covariate_test.p_value,
            "reject": rep.naive_reject}


def _an_g_estimate(dataset: Dataset, config: ScenarioConfig, params: dict) -> dict:
    blip = BlipSpec(params.get("family", "additive"),
                    tuple(params.get("cofactors", ("1",))))
    box = params.get("psi_box") or [(-4.0, 4.0)] * blip.dim
    terms = tuple(params.get("treatment_terms", ("1", "lm", "a_prev")))
    alpha = params.get("alpha_known")
    if alpha is None and params.get("design_alpha", True):
        alpha = design_alpha(config, terms)
    est = g_estimate(dataset, blip, treatment_terms=terms, psi_box=box,
                     alpha_known=alpha,
                     grid_points=params.get("grid_points", 201),
                     level=params.get("level", 0.05))
    out = {"statistic": est.statistic_at_hat, "p": est.p_at_hat,
           "reject": None, "estimate": float(est.psi_hat[0])}
    if blip.dim == 1 and est.accepted.any():
        acc = est.grid[est.accepted, 0]
        out["ci_lo"], out["ci_hi"] = float(acc.min()), float(acc.max())
    return out


ANALYSES = {
    "naive": _an_naive,
    "gnull-score": _an_gnull_score,
    "pooled-g": _an_pooled_g,
    "de-gnull": _an_de_gnull,
    "naive-de": _an_naive_de,
    "g-estimate": _an_g_estimate,
}


def run_replicate(config: StudyConfig, index: int) -> list[StudyRow]:
    seed = replicate_seed(config.seed, index)
    dataset = simulate(config.scenario, config.n, seed)
    rows = []
    for name, params in config.analyses:
        base = dict(scenario=config.scenario.name, n=config.n,
                    replicate=index, analysis=name)
        try:
            out = ANALYSES[name](dataset, config.scenario, dict(params))
            rows.append(StudyRow(**base, **out))
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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "n", "replicate", "analysis", "statistic",
                    "p", "reject", "estimate", "ci_lo", "ci_hi"])
        for r in rows:
            w.writerow([
                r.scenario, r.n, r.replicate, r.analysis,
                repr(float(r.statistic)), repr(float(r.p)),
                "" if r.reject is None else int(r.reject),
                repr(float(r.estimate)), repr(float(r.ci_lo)), repr(float(r.ci_hi)),
            ])


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
