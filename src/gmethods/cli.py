"""Command-line front end: simulation, replicate studies, and reports.

Configuration is a single YAML file with a required ``config_version: 1``
key; a key the subcommand does not read is a configuration error.
``g-estimate`` and ``direct-effect`` run one registered study analysis
(``studies.ANALYSES``) on one simulated dataset: their configs hold the
common keys beside that analysis's params, read by the same declaration as
a study's (``studies.PARAMS``).  Flags
``--seed`` and ``--out`` override their config counterparts, and so does
``--jobs`` on ``study``, the one subcommand that runs replicates in
parallel.  Exit codes: 0 success, 1 analysis or threshold failure, 2
configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

import yaml

from .data import Regime, write_csv
from .errors import ConfigError, GmethodsError, ValidationError, _count, _typed
from .gformula import g_formula_exact, g_formula_mc
from .reproduce import REPRODUCERS, run as run_reproduction
from .scenarios import enumerate_joint, make_scenario, simulate
from .studies import (
    ANALYSES,
    StudyConfig,
    format_summary,
    read_params,
    replicate_seed,
    run_study,
    summarize,
    write_study_log,
)


# The keys of each config that ``studies.read_params`` does not check.
# ``simulate`` and ``study`` share theirs, so one file serves both.
REPLICATE_KEYS = ("config_version", "scenario", "n", "replicates", "seed", "jobs",
                  "analyses", "out")
G_FORMULA_KEYS = ("config_version", "scenario", "method", "regime", "draws", "seed", "out")


def _known_keys(what: str, sect: dict, keys: tuple[str, ...]) -> None:
    unread = [key for key in sect if key not in keys]
    if unread:
        raise ConfigError(f"{what} key must be one of {', '.join(keys)}, not {unread[0]!r}")


def _load_config(path: str | None, keys: tuple[str, ...] | None = None) -> dict:
    """The config at ``path``; with ``keys``, any other top-level key is an error."""
    if path is None:
        raise ConfigError("this subcommand needs --config")
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    version = _typed("config", cfg, "mapping").get("config_version")
    if version != 1:
        raise ConfigError("config_version must be present and equal to 1")
    if keys is not None:
        _known_keys("config", cfg, keys)
    return cfg


def _tuplify(value):
    """YAML lists become tuples so they can feed frozen law definitions."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    if isinstance(value, dict):
        return {k: _tuplify(v) for k, v in value.items()}
    return value


def _scenario_from(cfg: dict):
    sect = cfg.get("scenario")
    if sect is None:
        raise ConfigError("missing 'scenario' section")
    if isinstance(sect, str):
        return make_scenario(sect)
    name = _typed("scenario", sect, "mapping").get("name")
    if name is None:
        raise ConfigError("missing 'scenario.name' key")
    return make_scenario(name, _tuplify(sect.get("params", {}) or {}))


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing '{key}' key")
    return cfg[key]


def _seed_of(args, cfg: dict) -> int:
    return _count("seed", args.seed if args.seed is not None else _require(cfg, "seed"), 0)


def _out_dir(args, cfg: dict) -> str:
    out = args.out or cfg.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _regime_from(sect) -> Regime:
    """The config's regime; ``g_formula_exact`` and ``g_formula_mc`` check
    a static plan against the scenario (``data._check_plan``)."""
    if sect is None:
        raise ConfigError("missing 'regime' section")
    kind = _typed("regime", sect, "mapping").get("kind")
    if kind not in ("static", "threshold"):
        raise ConfigError("regime.kind must be 'static' or 'threshold'")
    _known_keys(f"{kind} regime", sect, ("kind", "plan" if kind == "static" else "cutoff"))
    if kind == "threshold":
        return Regime.threshold(_typed("regime cutoff", sect.get("cutoff", 0.5), "number"))
    plan = sect.get("plan")
    if plan is None:
        raise ConfigError("static regime needs a 'plan' list")
    return Regime.static(tuple(_typed("regime plan", v, "number")
                               for v in _typed("regime plan", plan, "list")))


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, REPLICATE_KEYS)
    scenario = _scenario_from(cfg)
    n = _count("n", _require(cfg, "n"))
    reps = _count("replicates", cfg.get("replicates", 1))
    seed = _seed_of(args, cfg)
    out = _out_dir(args, cfg)
    files = []
    for i in range(reps):
        s = replicate_seed(seed, i)
        fname = f"{scenario.name}-rep{i:03d}.csv"
        write_csv(simulate(scenario, n, s), os.path.join(out, fname))
        files.append({"replicate": i, "seed": s, "rows": n, "file": fname})
    manifest = {
        "config_version": 1,
        "scenario": scenario.name,
        "n": n,
        "replicates": reps,
        "seed": seed,
        "files": files,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {reps} replicate file(s) and manifest.json to {out}")
    return 0


def cmd_study(args) -> int:
    cfg = _load_config(args.config, REPLICATE_KEYS)
    scenario = _scenario_from(cfg)
    analyses_cfg = _require(cfg, "analyses")
    if not isinstance(analyses_cfg, list) or not analyses_cfg:
        raise ConfigError("'analyses' must be a non-empty list")
    analyses = []
    for item in analyses_cfg:
        if isinstance(item, str):
            item = {"name": item}
        if not isinstance(item, dict):
            raise ConfigError(f"analysis entry {item!r} must be a name or a mapping")
        name = item.get("name")
        if name is None:
            raise ConfigError("each analysis needs a 'name' key")
        analyses.append((name, _tuplify(item.get("params", {}) or {})))
    study = StudyConfig(
        scenario=scenario,
        n=_require(cfg, "n"),
        replicates=_require(cfg, "replicates"),
        seed=_seed_of(args, cfg),
        analyses=tuple(analyses),
    )
    jobs = _count("jobs", args.jobs if args.jobs is not None else cfg.get("jobs", 1))
    out = _out_dir(args, cfg)
    rows = run_study(study, jobs=jobs)
    log_path = os.path.join(out, "study-log.csv")
    write_study_log(log_path, rows)
    print(format_summary(summarize(rows)))
    print(f"study log: {log_path}")
    errored = [r for r in rows if r.error]
    if errored:
        kinds = Counter(r.error.split(":", 1)[0] for r in errored)
        counts = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
        first = errored[0]
        print(f"{len(errored)} replicate analysis run(s) errored ({counts}); "
              "the log holds nan rows for them", file=sys.stderr)
        print(f"first error: replicate {first.replicate}, analysis {first.analysis}: "
              f"{first.error}", file=sys.stderr)
        return 1
    return 0


def cmd_reproduce(args) -> int:
    report = run_reproduction(args.name, args.seed)
    print(report.format())
    return 0 if report.passed else 1


def cmd_g_formula(args) -> int:
    cfg = _load_config(args.config, G_FORMULA_KEYS)
    scenario = _scenario_from(cfg)
    regime = _regime_from(cfg.get("regime"))
    method = cfg.get("method", "exact")
    table = enumerate_joint(scenario)
    if method == "exact":
        dist = g_formula_exact(table, regime)
    elif method == "mc":
        seed = _seed_of(args, cfg)
        dist = g_formula_mc(table.laws, regime, cfg.get("draws", 100_000), seed)
    else:
        raise ConfigError("method must be 'exact' or 'mc'")
    out = _out_dir(args, cfg)
    path = os.path.join(out, f"g-formula-{method}.csv")
    dist.to_csv(path)
    print(f"standardized mean under {regime.name}: {dist.mean():.6f}")
    print(f"distribution grid: {path}")
    return 0


def _run_analysis(args, cfg: dict, name: str, *top_level: str):
    """Analysis ``name`` on ``simulate(scenario, n, seed)``, with the config's
    own seed; its params are the config's keys beside the common ones."""
    scenario = _scenario_from(cfg)
    n = _count("n", _require(cfg, "n"))
    seed = _seed_of(args, cfg)
    params = read_params(name, _tuplify(cfg),
                         ("config_version", "scenario", "n", "seed", "out", *top_level))
    return ANALYSES[name](simulate(scenario, n, seed), scenario, params)


def _print_estimate(args, cfg: dict, est, with_set: bool) -> None:
    path = os.path.join(_out_dir(args, cfg), f"{args.command}-grid.csv")
    est.to_csv(path)
    psi = ", ".join(f"{v:.4f}" for v in est.psi_hat)
    print(f"psi_hat = ({psi});  score p-value at psi_hat = {est.p_at_hat:.4f}")
    if with_set and est.confidence_set.size:
        lo = est.confidence_set.min(axis=0)
        hi = est.confidence_set.max(axis=0)
        rng = ", ".join(f"[{a:.4f}, {b:.4f}]" for a, b in zip(lo, hi))
        shape = ("within:" if est.interval or len(lo) > 1
                 else f"in {est.pieces} pieces, within")
        print(f"{100 * (1 - est.level):.0f}% confidence set {shape} {rng}")
    elif with_set:
        print("confidence set is empty at the grid resolution")
    if est.note:
        print(f"note: {est.note}")
    print(f"grid: {path}")


def cmd_g_estimate(args) -> int:
    cfg = _load_config(args.config)
    _print_estimate(args, cfg, _run_analysis(args, cfg, "g-estimate"), with_set=True)
    return 0


def cmd_direct_effect(args) -> int:
    cfg = _load_config(args.config)
    mode = cfg.get("mode", "test")
    if mode == "estimate":
        est = _run_analysis(args, cfg, "de-estimate", "mode")
        _print_estimate(args, cfg, est, with_set=False)
        return 0
    if mode != "test":
        raise ConfigError("mode must be 'test' or 'estimate'")
    rep = _run_analysis(args, cfg, "de-gnull", "mode")
    verdict = "reject" if rep.reject else "no evidence against"
    print(f"direct-effect test: statistic = {rep.statistic:.4f}, "
          f"p = {rep.p_value:.4f} -> {verdict} the no-direct-effect null")
    if rep.note:
        print(f"note: {rep.note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmethods",
        description="Sequential-treatment analyses: simulation, replicate "
                    "studies, standardization, g-estimation, direct effects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--seed", type=int, help="root seed (overrides the config)")
        p.add_argument("--out", help="output directory (overrides the config)")

    p = sub.add_parser("simulate", help="write replicate datasets and a manifest")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("study", help="run analyses over replicates; write a study log")
    common(p)
    p.add_argument("--jobs", type=int, help="worker processes")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("reproduce", help="re-run a pinned-seed benchmark")
    p.add_argument("name", choices=sorted(REPRODUCERS),
                   help="which benchmark to regenerate")
    p.add_argument("--seed", type=int, help="override the pinned root seed")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("g-formula", help="standardized outcome law under a regime")
    common(p)
    p.set_defaults(func=cmd_g_formula)

    p = sub.add_parser("g-estimate", help="g-estimation of a shift parameter")
    common(p)
    p.set_defaults(func=cmd_g_estimate)

    p = sub.add_parser("direct-effect", help="weighted direct-effect test or estimate")
    common(p)
    p.set_defaults(func=cmd_direct_effect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GmethodsError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
