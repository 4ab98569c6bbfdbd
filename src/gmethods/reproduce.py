"""Pinned-seed reproductions of the package's headline numerical claims.

Each runner regenerates one benchmark end to end from a fixed root seed —
simulation, analysis, decision — and reports one pass/fail line per check.
The CLI ``reproduce`` subcommand and the acceptance tests both call these
runners, so the registry names are a stable interface.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import streams
from .data import History, Regime
from .direct_effect import DeSndmSpec, SplitSchema, direct_effect_moment_check
from .errors import ConfigError
from .gformula import (
    g_formula_conditional,
    g_formula_exact,
    g_formula_mc,
    g_mean_plugin,
)
from .glm import expit, fit_linear, fit_logistic
from .gnull import gnull_table_check, random_sequential_table
from .scenarios import (
    counterfactual_draws,
    dag1a_scenario,
    dag1b_scenario,
    dag1c_scenario,
    design_alpha,
    direct_effect_scenario,
    discrete_trial_scenario,
    enumerate_joint,
    masked_interaction_scenario,
    sequential_trial_scenario,
    simulate,
    sndm_scenario,
)
from .sndm import (
    additive_blip,
    blip_down,
    blip_down_arrays,
    blip_up,
    empirical_static_survivor,
    g_estimate,
    g_test_at,
    multiplicative_blip,
    shift_basis,
)
from .studies import StudyConfig, replicate_seed, run_study

SEEDS = {
    "theorem2": 11201,
    "gnull-level": 11202,
    "sndm-recovery": 11203,
    "appendix29": 11204,
    "lemma2": 11205,
    "direct-effect-level": 13301,
}


@dataclass(frozen=True)
class CheckLine:
    label: str
    observed: str
    requirement: str
    ok: bool


@dataclass(frozen=True)
class ReproduceReport:
    name: str
    seed: int
    lines: tuple[CheckLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.ok for line in self.lines)

    def format(self) -> str:
        out = [f"reproduce {self.name}  (root seed {self.seed})"]
        for ln in self.lines:
            mark = "PASS" if ln.ok else "FAIL"
            out.append(f"[{mark}] {ln.label}: {ln.observed}  (requires {ln.requirement})")
        out.append(f"RESULT: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out)


def _derive(seed: int, *labels) -> int:
    """A child integer seed for an independent named stage of a runner."""
    return int(streams.substream(seed, *labels).integers(0, 2**62))


def _rate(label: str, hits: int, total: int, lo: float, hi: float,
          extra: str = "") -> CheckLine:
    # With no decided replicate r is nan, every comparison is False and the
    # line fails as "0/0".
    r = hits / total if total else float("nan")
    obs = f"{hits}/{total}" + (f" = {r:.3f}" if total else "") + extra
    if lo <= 0.0:
        return CheckLine(label, obs, f"rate <= {hi:g}", r <= hi)
    if hi >= 1.0:
        return CheckLine(label, obs, f"rate >= {lo:g}", r >= lo)
    return CheckLine(label, obs, f"rate in [{lo:g}, {hi:g}]", lo <= r <= hi)


def _rejections(cfg, n: int, reps: int, seed: int, *checks) -> list[CheckLine]:
    """One ``run_study`` of the analyses; a rejection-rate line per check.

    Each check is (analysis, label, lo, hi).  Replicate i is
    ``simulate(cfg, n, replicate_seed(seed, i))``, shared by every analysis.
    Only replicates without an error are counted.  Those that raised
    ``PositivityError`` are named on the line; any other error is named
    too, by type, and fails the line.
    """
    rows = run_study(StudyConfig(cfg, n, reps, seed, tuple((c[0], {}) for c in checks)))
    lines = []
    for j, (_, label, lo, hi) in enumerate(checks):
        mine = rows[j::len(checks)]
        kinds = Counter(r.error.split(":", 1)[0] for r in mine if r.error)
        floor = kinds.pop("PositivityError", 0)
        extra = f" ({floor} replicates at the positivity floor)" if floor else ""
        if kinds:
            extra += " (errored: " + ", ".join(
                f"{k} {kind}" for kind, k in sorted(kinds.items())) + ")"
        decided = [r for r in mine if not r.error]
        line = _rate(label, sum(bool(r.reject) for r in decided), len(decided),
                     lo, hi, extra)
        lines.append(replace(line, ok=line.ok and not kinds))
    return lines


# ---------------------------------------------------------------------------
# theorem2: the regression-adjusted test rejects a true null; the
# randomization score test holds its level; and at large n the fitted
# model pair visibly contradicts a flat standardized-mean surface.
# ---------------------------------------------------------------------------


def _plugin_grid_mc(th, ga, points, draws: int, seed: int):
    """Monte Carlo standardization of the fitted model pair on a grid.

    For each treatment pair, draws the covariate from its fitted logistic
    law and averages the fitted outcome mean.  Returns the per-cell MC
    standard errors — the numerical yardstick for how much of the grid
    variation could be evaluation noise rather than model structure.
    """
    rng = streams.substream(seed, "plugin-grid")
    ses = []
    for a0, a1 in points:
        p = float(expit(ga.coef[0] + ga.coef[1] * a0))
        lsamp = (rng.random(draws) < p).astype(float)
        cell = (th.coef[0] + th.coef[1] * a0 + th.coef[2] * lsamp
                + th.coef[3] * a1)
        ses.append(float(np.std(cell, ddof=1) / np.sqrt(draws)))
    return ses


def run_theorem2(seed: int | None = None) -> ReproduceReport:
    seed = SEEDS["theorem2"] if seed is None else seed
    cfg = dag1b_scenario()
    lines = _rejections(
        cfg, 2000, 200, seed,
        ("naive", "regression-adjusted test rejects the true null", 0.90, 1.0),
        ("gnull-score", "randomization score test holds its level", 0.02, 0.08))

    big = simulate(cfg, 100_000, _derive(seed, "mechanism"))
    ones = np.ones(big.n)
    th = fit_linear(np.column_stack([ones, big.A[:, 0], big.L[:, 1], big.A[:, 1]]),
                    big.Y)
    ga = fit_logistic(np.column_stack([ones, big.A[:, 0]]), big.L[:, 1])
    z2 = abs(float(th.coef[2])) / float(np.sqrt(th.vcov[2, 2]))
    z1 = abs(float(ga.coef[1])) / float(np.sqrt(ga.vcov[1, 1]))
    lines.append(CheckLine("covariate slope in the outcome model is nonzero",
                           f"|theta2|/SE = {z2:.1f}", "> 4", z2 > 4.0))
    lines.append(CheckLine("treatment slope in the covariate model is nonzero",
                           f"|gamma1|/SE = {z1:.1f}", "> 4", z1 > 4.0))

    points = list(itertools.product((-1.0, 0.0, 1.0), repeat=2))
    vals = [float(g_mean_plugin(th.coef, ga.coef, a0, a1)) for a0, a1 in points]
    ses = _plugin_grid_mc(th, ga, points, 1_000_000, _derive(seed, "grid"))
    spread = max(vals) - min(vals)
    se = max(ses)
    lines.append(CheckLine(
        "standardized mean varies across the 3x3 treatment grid",
        f"spread = {spread:.4f} with max MC SE = {se:.2e}",
        "spread > 10 * MC SE", spread > 10.0 * se))
    return ReproduceReport("theorem2", seed, tuple(lines))


# ---------------------------------------------------------------------------
# gnull-level: agreement of the two exact null characterizations on random
# tables, plus test levels for the score test and the pooled test.
# ---------------------------------------------------------------------------


def run_gnull_level(seed: int | None = None) -> ReproduceReport:
    seed = SEEDS["gnull-level"] if seed is None else seed
    rng = streams.substream(seed, "tables")
    parents = (("l1",), ("a0", "l1"), ("a0", "l1", "a1"))
    agree = 0
    for i in range(100):
        table = random_sequential_table(
            rng,
            l_levels=2 + i % 2,
            y_levels=2 + i % 3,
            y_parents=parents[i % 3],
        )
        res = gnull_table_check(table)
        agree += int(res["joint_with_standardized"] == res["joint_with_marginal"])
    lines = [CheckLine(
        "standardized and marginal forms of the null agree on random tables",
        f"{agree}/100 tables", "all 100", agree == 100)]

    lines += _rejections(
        dag1b_scenario(), 2000, 200, _derive(seed, "score-level"),
        ("gnull-score", "randomization score test level (two occasions)", 0.02, 0.08))
    lines += _rejections(
        sequential_trial_scenario(K=2), 1000, 200, _derive(seed, "pooled-level"),
        ("pooled-g", "pooled occasion-level test level (three occasions)", 0.02, 0.08))
    return ReproduceReport("gnull-level", seed, tuple(lines))


# ---------------------------------------------------------------------------
# sndm-recovery: g-estimation recovers a scalar shift parameter, the
# residual transform is exactly invertible, and the plug-in standardization
# agrees with ground-truth counterfactual draws.
# ---------------------------------------------------------------------------


def run_sndm_recovery(seed: int | None = None) -> ReproduceReport:
    seed = SEEDS["sndm-recovery"] if seed is None else seed
    cfg = sndm_scenario(psi=(1.0,))
    family = additive_blip("1")
    terms = ("1", "lm", "a_prev")
    alpha = design_alpha(cfg, terms)
    root = _derive(seed, "recovery")
    errs, cover = [], 0
    for i in range(200):
        ds = simulate(cfg, 1000, replicate_seed(root, i))
        est = g_estimate(ds, family, treatment_terms=terms,
                         psi_box=[(-2.0, 4.0)], alpha_known=alpha)
        errs.append(abs(float(est.psi_hat[0]) - 1.0))
        cover += int(g_test_at(ds, family, [1.0], treatment_terms=terms,
                               alpha_known=alpha).p_value >= 0.05)
    med = float(np.median(errs))
    lines = [
        CheckLine("median g-estimation error",
                  f"median |psi_hat - 1| = {med:.4f}", "< 0.15", med < 0.15),
        _rate("95% confidence-set coverage of the true parameter",
              cover, 200, 0.90, 1.0),
    ]

    rng = streams.substream(seed, "trajectories")
    n = 1000
    L = rng.uniform(-1.0, 1.0, size=(n, 2))
    A = rng.uniform(-1.0, 1.0, size=(n, 2))
    Y = rng.normal(size=n) * 3.0
    rich = additive_blip("1", "a_prev", "lm", psi=(2.0, 3.0, 4.0))
    zero = additive_blip("1", "a_prev", "lm", psi=(0.0, 0.0, 0.0))
    bd0 = blip_down_arrays(zero, L, A, Y)
    exact_zero = bool(np.all(bd0.h_per_occasion == Y[:, None]))
    lines.append(CheckLine("zero shift parameter leaves every outcome unchanged",
                           "H == Y on all rows" if exact_zero else "H != Y somewhere",
                           "exact equality", exact_zero))
    err_add = float(np.max(np.abs(blip_up(rich, blip_down_arrays(rich, L, A, Y).h, L, A) - Y)))
    lines.append(CheckLine("additive residual/restore round trip",
                           f"max |Y'' - Y| = {err_add:.1e}", "< 1e-12", err_add < 1e-12))
    Yp = np.exp(rng.normal(size=n))
    mult = multiplicative_blip("1", "a_prev", "lm", psi=(0.5, 0.8, -0.6))
    err_mul = float(np.max(np.abs(blip_up(mult, blip_down_arrays(mult, L, A, Yp).h, L, A) - Yp)))
    lines.append(CheckLine("multiplicative residual/restore round trip",
                           f"max |Y'' - Y| = {err_mul:.1e}", "< 1e-12", err_mul < 1e-12))
    closed = Y + shift_basis(rich, L, A) @ rich.require_psi()
    err_closed = float(np.max(np.abs(closed - blip_down_arrays(rich, L, A, Y).h)))
    lines.append(CheckLine("closed-form residual matches the recursion",
                           f"max diff = {err_closed:.1e}", "< 1e-12", err_closed < 1e-12))

    big = simulate(cfg, 100_000, _derive(seed, "standardize"))
    plan = (1.0, 1.0)
    emp = empirical_static_survivor(big, additive_blip("1", psi=(1.0,)), plan)
    cf = counterfactual_draws(cfg, Regime.static(plan), 100_000, _derive(seed, "truth"))
    ygrid = np.quantile(cf, np.linspace(0.1, 0.9, 9))
    s_emp = np.asarray(emp.survivor(ygrid))
    s_cf = np.array([float(np.mean(cf > y)) for y in ygrid])
    sbar = 0.5 * (s_emp + s_cf)
    band = 3.0 * np.sqrt(sbar * (1.0 - sbar) * (1.0 / emp.n_samples + 1.0 / cf.size))
    worst = float(np.max(np.abs(s_emp - s_cf) / band))
    lines.append(CheckLine(
        "standardized survivor matches ground-truth counterfactual draws",
        f"max |dS| / (3 SE) = {worst:.2f} over 9 quantiles", "<= 1", worst <= 1.0))
    return ReproduceReport("sndm-recovery", seed, tuple(lines))


# ---------------------------------------------------------------------------
# appendix29: exact-vs-sampled standardization agreement on an all-discrete
# scenario, and the per-cell conditional identity for the residual outcome.
# ---------------------------------------------------------------------------


def _treat_if_covariate(m: int, l_bar: tuple[float, ...]) -> float:
    """Dynamic plan: treat exactly when the current covariate is raised."""
    return 1.0 if l_bar[-1] >= 0.5 else 0.0


def run_appendix29(seed: int | None = None) -> ReproduceReport:
    seed = SEEDS["appendix29"] if seed is None else seed
    cfg = discrete_trial_scenario()
    table = enumerate_joint(cfg)
    laws = table.laws
    draws = 100_000
    dkw = 3.0 * np.sqrt(np.log(2.0) / (2.0 * draws))
    lines = []
    regimes = (Regime.static((1.0, 1.0)),
               Regime.dynamic(_treat_if_covariate, "treat-if-covariate"))
    for regime in regimes:
        exact = g_formula_exact(table, regime)
        # evaluate just above each atom so ties cannot flip a comparison
        grid = exact.atoms + 1e-9
        F = np.cumsum(exact.atom_probs)
        cf = counterfactual_draws(cfg, regime, draws, _derive(seed, "cf", regime.name))
        sup_cf = float(np.max(np.abs(
            np.array([float(np.mean(cf <= y)) for y in grid]) - F)))
        mc = g_formula_mc(laws, regime, draws, _derive(seed, "mc", regime.name))
        sup_mc = float(np.max(np.abs(
            np.array([float(np.mean(mc.samples <= y)) for y in grid]) - F)))
        lines.append(CheckLine(
            f"exact law matches counterfactual draws ({regime.name})",
            f"sup |F_hat - F| = {sup_cf:.5f}", f"< {dkw:.5f} (DKW band)",
            sup_cf < dkw))
        lines.append(CheckLine(
            f"exact law matches resampled standardization ({regime.name})",
            f"sup |F_hat - F| = {sup_mc:.5f}", f"< {dkw:.5f} (DKW band)",
            sup_mc < dkw))

    cfg8 = sndm_scenario(name="sndm-discrete", psi=(1.0, 0.5),
                         cofactors=("1", "lm"), h_atoms=7)
    table8 = enumerate_joint(cfg8)
    ds = simulate(cfg8, 100_000, _derive(seed, "cells"))
    per = blip_down(additive_blip("1", "lm", psi=(1.0, 0.5)), ds).h_per_occasion
    for m in (0, 1):
        units = ok = 0
        if m == 0:
            cells = [((l0,), ()) for l0 in (0.0, 1.0)]
        else:
            cells = [((l0, l1), (a0,))
                     for l0, a0, l1 in itertools.product((0.0, 1.0), repeat=3)]
        for l_bar, a_prev in cells:
            regime = Regime.static(a_prev + (0.0,) * (2 - len(a_prev)))
            cond = g_formula_conditional(table8, regime, History(m, l_bar, a_prev))
            mask = np.ones(ds.n, dtype=bool)
            for j, lv in enumerate(l_bar):
                mask &= np.abs(ds.L[:, j] - lv) <= 1e-9
            for j, av in enumerate(a_prev):
                mask &= np.abs(ds.A[:, j] - av) <= 1e-9
            n_cell = int(mask.sum())
            if n_cell == 0:
                continue
            hm = per[mask, m]
            mids = 0.5 * (cond.atoms[:-1] + cond.atoms[1:])
            for y in mids:
                s = float(cond.survivor(y))
                s_hat = float(np.mean(hm > y))
                band = 3.0 * np.sqrt(s * (1.0 - s) / n_cell)
                units += 1
                ok += int(abs(s_hat - s) <= band)
        frac = ok / units
        lines.append(CheckLine(
            f"conditional residual law matches the standardized law (occasion {m})",
            f"{ok}/{units} cell/threshold units within 3 SEs ({frac:.3f})",
            ">= 0.95", frac >= 0.95))
    return ReproduceReport("appendix29", seed, tuple(lines))


# ---------------------------------------------------------------------------
# lemma2: with a treatment effect confined to a hidden stratum, the naive
# regression-flavored analysis keeps "discovering" a direct effect of the
# early treatment while the weighted independence test stays at its level.
# ---------------------------------------------------------------------------


def run_lemma2(seed: int | None = None) -> ReproduceReport:
    seed = SEEDS["lemma2"] if seed is None else seed
    lines = _rejections(
        masked_interaction_scenario(), 5000, 100, _derive(seed, "masked"),
        ("naive-de", "naive analysis claims a direct effect under the null", 0.5, 1.0),
        ("de-gnull", "weighted independence test stays at level", 0.0, 0.10))
    return ReproduceReport("lemma2", seed, tuple(lines))


# ---------------------------------------------------------------------------
# direct-effect-level: level and power of the weighted independence test,
# plus the exact weighted-moment characterization on a joint table.
# ---------------------------------------------------------------------------


def run_direct_effect_level(seed: int | None = None) -> ReproduceReport:
    seed = SEEDS["direct-effect-level"] if seed is None else seed
    lines = _rejections(
        dag1c_scenario(), 2000, 200, _derive(seed, "level"),
        ("de-gnull", "level when only the late treatment acts", 0.02, 0.08))
    lines += _rejections(
        dag1a_scenario(), 2000, 200, _derive(seed, "power"),
        ("de-gnull", "power when the early treatment acts", 0.8, 1.0))

    cfg = direct_effect_scenario(psi=(1.0, 0.5))
    table = enumerate_joint(cfg)
    split = SplitSchema((0,), (1,))
    blip = additive_blip("1", "a1")
    dev0 = direct_effect_moment_check(
        table, split, DeSndmSpec(blip.with_psi((1.0, 0.5)))).worst
    dev1 = direct_effect_moment_check(
        table, split, DeSndmSpec(blip.with_psi((1.5, 1.0)))).worst
    lines.append(CheckLine("weighted moment is flat at the true parameter",
                           f"max within-cell spread = {dev0:.2e}", "< 1e-10",
                           dev0 < 1e-10))
    lines.append(CheckLine("weighted moment moves at a perturbed parameter",
                           f"max within-cell spread = {dev1:.2e}",
                           "> 10x the true-parameter spread and > 1e-6",
                           dev1 > max(10.0 * dev0, 1e-6)))
    return ReproduceReport("direct-effect-level", seed, tuple(lines))


REPRODUCERS = {
    "theorem2": run_theorem2,
    "gnull-level": run_gnull_level,
    "sndm-recovery": run_sndm_recovery,
    "appendix29": run_appendix29,
    "lemma2": run_lemma2,
    "direct-effect-level": run_direct_effect_level,
}


def run(name: str, seed: int | None = None) -> ReproduceReport:
    if name not in REPRODUCERS:
        raise ConfigError(
            f"unknown reproduction {name!r}; known: {', '.join(sorted(REPRODUCERS))}"
        )
    return REPRODUCERS[name](seed)
