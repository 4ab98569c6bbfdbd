"""The three benchmark workloads: how a unit is built, run and checked.

A unit is one study replicate or one standardization table.  Every input
is derived from the benchmark seed and the unit index, so unit ``i`` of a
seed is the same work on every run; the package sees only those inputs.
Calls into ``gmethods`` go through module attributes (``studies.run_replicate``,
not a name imported from it), so the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gmethods import direct_effect, gformula, scenarios, sndm, studies
from gmethods.data import History, Regime
from gmethods.errors import GmethodsError

# DKW band at failure probability 1e-9 per comparison: with two plans per
# unit and a few hundred units a run, a correct sampler essentially never
# leaves it, while a biased one does.
DKW_DELTA = 1e-9
MC_DRAWS = 8192
Y_EDGES = np.linspace(-2.0, 6.0, 10)  # 9 outcome bins
PERTURB = (0.5, 0.5)  # perturbation for the moment check


@dataclass
class UnitResult:
    """What one unit produced: the values the gates and the reference read."""

    failed: bool
    values: dict


@dataclass
class Workload:
    run_unit: Callable[[int], UnitResult]
    gate: Callable[[list[UnitResult]], list[str]]  # failure messages, empty if ok


def _study_unit(config: studies.StudyConfig, log_path: str) -> Callable[[int], UnitResult]:
    """One replicate through the study runner, as ``gmethods study --jobs 1`` runs it."""

    def run(i: int) -> UnitResult:
        rows = studies.run_replicate(config, i)
        studies.write_study_log(log_path, rows)
        studies.summarize(rows)
        values = {r.analysis: {"statistic": r.statistic, "p": r.p,
                               "reject": r.reject, "estimate": r.estimate,
                               "ci_lo": r.ci_lo, "ci_hi": r.ci_hi}
                  for r in rows}
        return UnitResult(any(r.error for r in rows), values)

    return run


def _ok(results: list[UnitResult]) -> list[UnitResult]:
    return [r for r in results if not r.failed]


def _gate_gestimate(results: list[UnitResult]) -> list[str]:
    rows = [r.values["g-estimate"] for r in _ok(results)]
    if not rows:
        return ["no g-estimate replicate succeeded"]
    err = float(np.median([abs(r["estimate"] - 1.0) for r in rows]))
    cover = float(np.mean([r["ci_lo"] <= 1.0 <= r["ci_hi"] for r in rows]))
    out = []
    if not err < 0.15:
        out.append(f"median |psi_hat - 1| = {err:.4f}, requires < 0.15")
    if not cover >= 0.90:
        out.append(f"grid confidence set covers psi = 1 in {cover:.3f}, requires >= 0.90")
    return out


def _gate_direct_effect(results: list[UnitResult]) -> list[str]:
    ok = _ok(results)
    if not ok:
        return ["no direct-effect replicate succeeded"]
    naive = float(np.mean([r.values["naive-de"]["reject"] for r in ok]))
    de = float(np.mean([r.values["de-gnull"]["reject"] for r in ok]))
    out = []
    if not naive >= 0.5:
        out.append(f"naive-de rejects in {naive:.3f}, requires >= 0.5")
    if not de <= 0.10:
        out.append(f"de-gnull rejects in {de:.3f}, requires <= 0.10")
    return out


def gestimate_study(seed: int, out_dir: str) -> Workload:
    config = studies.StudyConfig(
        scenario=scenarios.make_scenario("sndm-additive", {"psi": (1.0,)}),
        n=1000, replicates=1, seed=seed,
        analyses=(("g-estimate", {"family": "additive", "cofactors": ("1",),
                                  "psi_box": [(-2.0, 4.0)], "grid_points": 201}),),
    )
    log = os.path.join(out_dir, "gestimate-study-log.csv")
    return Workload(_study_unit(config, log), _gate_gestimate)


def direct_effect_study(seed: int, out_dir: str) -> Workload:
    config = studies.StudyConfig(
        scenario=scenarios.make_scenario("masked-interaction"),
        n=5000, replicates=1, seed=seed,
        analyses=tuple((name, {}) for name in ("naive", "gnull-score", "de-gnull", "naive-de")),
    )
    log = os.path.join(out_dir, "direct-effect-study-log.csv")
    return Workload(_study_unit(config, log), _gate_direct_effect)


def _threshold(m: int, l_bar: tuple[float, ...]) -> float:
    """Dynamic plan: treat exactly when the current covariate is raised."""
    return 1.0 if l_bar[-1] >= 0.5 else 0.0


PLANS = (Regime.static((1.0, 1.0, 1.0)), Regime.dynamic(_threshold, "threshold"))


def _sup_cdf_gap(exact: gformula.RegimeDistribution, samples: np.ndarray) -> float:
    """sup_y |F_mc(y) - F_exact(y)|, evaluated just above each exact atom."""
    grid = exact.atoms + 1e-9
    F = np.cumsum(exact.atom_probs)
    F_hat = np.searchsorted(np.sort(samples), grid, side="right") / samples.size
    return float(np.max(np.abs(F_hat - F)))


def _standardization_unit(seed: int) -> Callable[[int], UnitResult]:
    dkw = math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * MC_DRAWS))
    split = direct_effect.SplitSchema((0,), (1,))
    family = sndm.additive_blip("1", "a1")

    def run(i: int) -> UnitResult:
        rng = np.random.default_rng([seed, i])
        effects = tuple(float(v) for v in rng.uniform(-1.0, 1.0, 3))
        psi = (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 1.0)))
        mc_seed = int(rng.integers(0, 2**62))
        values: dict = {"problems": []}
        try:
            cfg = scenarios.sequential_trial_scenario(K=2, a_effects=effects)
            table = scenarios.enumerate_joint(cfg, y_bins=Y_EDGES)
            laws = gformula.ConditionalLaws.from_table(table)
            p_l0 = {float(v): table.prob({table.l_col(0): float(v)})
                    for v in table.covariate_support(0)}
            for plan in PLANS:
                exact = gformula.g_formula_exact(table, plan)
                mc = gformula.g_formula_mc(laws, plan, MC_DRAWS, mc_seed)
                gap = _sup_cdf_gap(exact, mc.samples)
                if not gap < dkw:
                    values["problems"].append(
                        f"{plan.name}: sup |F_mc - F| = {gap:.5f}, DKW band {dkw:.5f}")
                mixed = sum(p * gformula.g_formula_conditional(
                                table, plan, History(0, (l0,), ())).mean()
                            for l0, p in p_l0.items())
                if not abs(mixed - exact.mean()) < 1e-10:
                    values["problems"].append(
                        f"{plan.name}: conditional laws mix to {mixed!r}, "
                        f"exact mean {exact.mean()!r}")
                values[plan.name] = {"exact_mean": exact.mean(), "mc_mean": mc.mean(),
                                     "mc_se2": float(np.var(mc.samples) / MC_DRAWS)}
            de_table = scenarios.enumerate_joint(scenarios.direct_effect_scenario(psi=psi))
            at_true = direct_effect.direct_effect_moment_check(
                de_table, split, direct_effect.DeSndmSpec(family.with_psi(psi))).worst
            moved = tuple(p + d for p, d in zip(psi, PERTURB))
            at_moved = direct_effect.direct_effect_moment_check(
                de_table, split, direct_effect.DeSndmSpec(family.with_psi(moved))).worst
        except GmethodsError as exc:
            return UnitResult(True, {"error": f"{type(exc).__name__}: {exc}"})
        if not at_true < 1e-10:
            values["problems"].append(f"moment check at the true psi = {at_true:.2e}")
        if not at_moved > max(10.0 * at_true, 1e-6):
            values["problems"].append(f"moment check at a perturbed psi = {at_moved:.2e}")
        values["moment_moved"] = at_moved
        return UnitResult(False, values)

    return run


def _gate_standardization(results: list[UnitResult]) -> list[str]:
    out = [f"unit {i}: {msg}" for i, r in enumerate(results)
           for msg in r.values.get("problems", ())]
    # Pooled over units, MC means must agree with exact means within 5 SEs:
    # this sees a sampler bias far below the per-unit DKW band.
    for plan in PLANS:
        units = [r.values[plan.name] for r in _ok(results)]
        gap = sum(u["mc_mean"] - u["exact_mean"] for u in units)
        se = math.sqrt(sum(u["mc_se2"] for u in units))
        if not abs(gap) < 5.0 * se:
            out.append(f"{plan.name}: pooled MC - exact mean = {gap:.4g}, 5 SE = {5 * se:.4g}")
    return out


def standardization(seed: int, out_dir: str) -> Workload:
    return Workload(_standardization_unit(seed), _gate_standardization)


WORKLOADS = {
    "gestimate-study": gestimate_study,
    "direct-effect-study": direct_effect_study,
    "standardization": standardization,
}


def build(name: str, seed: int, out_dir: str) -> Workload:
    return WORKLOADS[name](seed, out_dir)
