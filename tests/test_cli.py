"""End-to-end command-line checks: config parsing, outputs, exit codes."""

import json
import re

import numpy as np
import pytest
import yaml

from gmethods import studies
from gmethods.cli import main
from gmethods.data import Regime, write_csv
from gmethods.gformula import ConditionalLaws, g_formula_exact, g_formula_mc
from gmethods.scenarios import enumerate_joint, make_scenario, simulate
from gmethods.studies import replicate_seed

STUDY_HEADER = "scenario,n,replicate,analysis,statistic,p,reject,estimate,ci_lo,ci_hi"


def cfg_file(tmp_path, name="cfg.yaml", **sections):
    """Write a YAML config; config_version 1 is filled in unless overridden."""
    sections.setdefault("config_version", 1)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(sections))
    return str(path)


def stderr_of(capsys):
    return capsys.readouterr().err


class TestConfigLoading:
    """The shared YAML loader and its error reporting (exit code 2)."""

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_config_flag_required(self, capsys):
        assert main(["simulate"]) == 2
        assert "config error: this subcommand needs --config" in stderr_of(capsys)

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 2
        assert "config file not found" in stderr_of(capsys)

    def test_invalid_yaml(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("scenario: [dag1b, \n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "not valid YAML" in stderr_of(capsys)

    def test_config_must_be_a_mapping(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "mapping" in stderr_of(capsys)

    def test_config_version_is_gated(self, tmp_path, capsys):
        bare = tmp_path / "bare.yaml"
        bare.write_text("scenario: dag1b\n")
        assert main(["simulate", "--config", str(bare)]) == 2
        assert "config_version" in stderr_of(capsys)
        wrong = cfg_file(tmp_path, "v2.yaml", config_version=2, scenario="dag1b")
        assert main(["simulate", "--config", wrong]) == 2

    def test_scenario_section_required(self, tmp_path, capsys):
        path = cfg_file(tmp_path, n=10, seed=1)
        assert main(["simulate", "--config", path]) == 2
        assert "missing 'scenario' section" in stderr_of(capsys)

    def test_scenario_needs_a_name(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario={"params": {}}, n=10, seed=1)
        assert main(["simulate", "--config", path]) == 2
        assert "missing 'scenario.name' key" in stderr_of(capsys)

    def test_unknown_scenario_is_a_config_error(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="nope", n=10, seed=1)
        assert main(["simulate", "--config", path]) == 2
        assert "unknown scenario" in stderr_of(capsys)

    def test_bad_scenario_params_are_a_config_error(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario={"name": "dag1b", "params": {"bogus": 1}},
                        n=10, seed=1)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: scenario 'dag1b': " in stderr_of(capsys)

    def test_missing_n_and_seed_are_named(self, tmp_path, capsys):
        no_n = cfg_file(tmp_path, "no-n.yaml", scenario="dag1b", seed=1)
        assert main(["simulate", "--config", no_n]) == 2
        assert "missing 'n' key" in stderr_of(capsys)
        no_seed = cfg_file(tmp_path, "no-seed.yaml", scenario="dag1b", n=10)
        assert main(["simulate", "--config", no_seed]) == 2
        assert "missing 'seed' key" in stderr_of(capsys)
        # --seed on the command line satisfies the requirement.
        out = tmp_path / "out"
        rc = main(["simulate", "--config", no_seed, "--seed", "3",
                   "--out", str(out)])
        assert rc == 0


class TestConfigCounts:
    """Every count key is read by one rule: an integer of at least its minimum
    (0 for seed and split occasions, 1 otherwise), never truncated."""

    BAD = [2.5, "many", True]
    BASE = {
        "simulate": dict(scenario="dag1b", n=10, seed=1),
        "study": dict(scenario="dag1b", n=10, replicates=1, seed=1, analyses=["naive"]),
        "g-estimate": dict(scenario="sndm-additive", n=10, seed=1, psi_box=[[-1.0, 1.0]],
                           family="additive", cofactors=["1"]),
        "direct-effect": dict(scenario="direct-effect-discrete", n=10, seed=1,
                              mode="estimate", split={"p": [0], "z": [1]},
                              psi_box=[[0.0, 2.0]],
                              family="additive", cofactors=["1"]),
    }

    def refused(self, tmp_path, capsys, command, key, **changes):
        sections = {**self.BASE[command], **changes}
        out = tmp_path / "out"
        rc = main([command, "--config", cfg_file(tmp_path, **sections), "--out", str(out)])
        assert rc == 2
        assert stderr_of(capsys).startswith(f"config error: {key} must be")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("value", BAD + [-1])
    def test_seed(self, tmp_path, capsys, value):
        self.refused(tmp_path, capsys, "simulate", "seed", seed=value)

    @pytest.mark.parametrize("command", sorted(BASE))
    @pytest.mark.parametrize("value", BAD + [0])
    def test_n(self, tmp_path, capsys, command, value):
        # n: 2.5 once wrote a 2-row dataset with "n": 2 in its manifest.
        self.refused(tmp_path, capsys, command, "n", n=value)

    @pytest.mark.parametrize("command", ["simulate", "study"])
    @pytest.mark.parametrize("value", BAD + [0])
    def test_replicates(self, tmp_path, capsys, command, value):
        self.refused(tmp_path, capsys, command, "replicates", replicates=value)

    @pytest.mark.parametrize("command", ["study"])
    @pytest.mark.parametrize("value", BAD + [0])
    def test_jobs(self, tmp_path, capsys, command, value):
        self.refused(tmp_path, capsys, command, "jobs", jobs=value)

    @pytest.mark.parametrize("key", ["p", "z"])
    @pytest.mark.parametrize("value", BAD + [-1])
    def test_split_occasions(self, tmp_path, capsys, key, value):
        split = {"p": [0], "z": [1], key: [value]}
        self.refused(tmp_path, capsys, "direct-effect", f"split {key}", split=split)


class TestConfigTypes:
    """Config numbers, lists and sections of the wrong type, keys a
    subcommand does not read and a static plan of the wrong length are
    refused with exit 2 and a message naming the key, never a traceback."""

    GFORMULA = dict(scenario="discrete-trial")
    SIMULATE = TestConfigCounts.BASE["simulate"]
    STUDY = TestConfigCounts.BASE["study"]
    GESTIMATE = TestConfigCounts.BASE["g-estimate"]
    DIRECT = TestConfigCounts.BASE["direct-effect"]

    @pytest.mark.parametrize("command, base, changes, message", [
        ("g-formula", GFORMULA, {"regime": {"kind": "threshold", "cutoff": "high"}},
         "regime cutoff must be a number"),
        ("g-formula", GFORMULA, {"regime": {"kind": "threshold", "cutoff": float("nan")}},
         "regime cutoff must be a number"),
        ("g-formula", GFORMULA, {"regime": {"kind": "static", "plan": [1, "x"]}},
         "regime plan must be a number"),
        ("g-formula", GFORMULA, {"regime": {"kind": "static", "plan": 1}},
         "regime plan must be a list"),
        ("g-formula", GFORMULA, {"regime": ["static"]}, "regime must be a mapping"),
        ("direct-effect", DIRECT, {"split": {"p": 0, "z": [1]}}, "split p must be a list"),
        ("direct-effect", DIRECT, {"split": [0, 1]}, "split must be a mapping"),
        ("direct-effect", DIRECT, {"mean_terms": 3}, "mean_terms must be a list"),
        ("direct-effect", DIRECT, {"z_terms": "lm"}, "z_terms must be a list"),
        ("g-estimate", GESTIMATE, {"treatment_terms": 5}, "treatment_terms must be a list"),
        ("g-estimate", GESTIMATE, {"cofactors": 1}, "cofactors must be a list"),
        ("g-estimate", GESTIMATE, {"family": ["additive"]}, "family must be a string"),
        # Each of these once ran: one file written, the exact method run, the
        # key ignored, and a four-entry plan printed as static(1.0, 1.0, 0.0, 5.0).
        ("simulate", SIMULATE, {"replicate": 3}, "config key must be one of config_version, "
         "scenario, n, replicates, seed, jobs, analyses, out"),
        ("g-formula", GFORMULA, {"methd": "mc"}, "config key must be one of config_version, "
         "scenario, method, regime, draws, seed, out"),
        ("study", STUDY, {"job": 2}, "config key must be one of config_version, "
         "scenario, n, replicates, seed, jobs, analyses, out"),
        ("g-formula", GFORMULA, {"regime": {"kind": "static", "plan": [1, 1, 0, 5]}},
         "static plan must hold one entry per occasion (2)"),
        ("g-formula", GFORMULA, {"regime": {"kind": "static", "plan": [1, 1], "cutof": 1}},
         "static regime key must be one of kind, plan"),
        ("g-formula", GFORMULA, {"regime": {"kind": "threshold", "plan": [1, 1]}},
         "threshold regime key must be one of kind, cutoff"),
        # Each of these once exited 0 and wrote nan or +-inf outcomes.
        ("simulate", SIMULATE, {"scenario": {"name": "dag1b",
                                             "params": {"intercept": float("nan")}}},
         "scenario 'dag1b' param 'intercept' must hold finite numbers"),
        ("simulate", SIMULATE, {"scenario": {"name": "sequential-trial",
                                             "params": {"a_effects": [float("inf"), 0.0]}}},
         "scenario 'sequential-trial' param 'a_effects' must hold finite numbers"),
        ("simulate", SIMULATE, {"scenario": {"name": "direct-effect-discrete",
                                             "params": {"psi": [float("nan"), 0.5]}}},
         "scenario 'direct-effect-discrete' param 'psi' must hold finite numbers"),
        ("simulate", SIMULATE, {"scenario": {"name": "two-occasion",
                                             "params": {"y_noise_sd": float("inf")}}},
         "scenario 'two-occasion' param 'y_noise_sd' must hold finite numbers"),
        ("simulate", SIMULATE, {"scenario": {"name": "sndm-additive",
                                             "params": {"psi": [float("nan")]}}},
         "scenario 'sndm-additive' param 'psi' must hold finite numbers"),
    ], ids=["cutoff-word", "cutoff-nan", "plan-word", "plan-number", "regime-list", "split-number",
            "split-list", "mean-terms", "z-terms", "treatment-terms", "cofactors",
            "blip-word", "simulate-key", "g-formula-key", "study-key", "plan-length",
            "static-key", "threshold-key", "nan-intercept", "inf-effect", "nan-de-psi",
            "inf-noise", "nan-sndm-psi"])
    def test_refused(self, tmp_path, capsys, command, base, changes, message):
        out = tmp_path / "out"
        path = cfg_file(tmp_path, **{**base, **changes})
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert stderr_of(capsys).startswith(f"config error: {message}, not ")
        assert not out.exists() or not any(out.iterdir())

    def test_unquoted_terms_are_read_as_names(self, tmp_path, capsys):
        # YAML reads the term 1 as a number; it names the intercept.
        path = cfg_file(tmp_path, **{**self.GESTIMATE, "treatment_terms": [1, "lm"],
                                     "grid_points": 5})
        assert main(["g-estimate", "--config", path, "--out", str(tmp_path / "out")]) == 0


class TestSimulate:
    """Replicate files plus a manifest, reproducible from config + seed."""

    def run(self, tmp_path, outname, extra=(), **sections):
        sections.setdefault("scenario", "dag1b")
        sections.setdefault("n", 40)
        sections.setdefault("replicates", 2)
        sections.setdefault("seed", 11)
        path = cfg_file(tmp_path, f"{outname}.yaml", **sections)
        out = tmp_path / outname
        rc = main(["simulate", "--config", path, "--out", str(out), *extra])
        return rc, out

    def test_writes_replicates_and_manifest(self, tmp_path, capsys):
        rc, out = self.run(tmp_path, "sim1")
        assert rc == 0
        assert "wrote 2 replicate file(s) and manifest.json" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "dag1b"
        assert manifest["n"] == 40
        assert manifest["seed"] == 11
        assert [f["file"] for f in manifest["files"]] == [
            "dag1b-rep000.csv", "dag1b-rep001.csv"]
        assert [f["seed"] for f in manifest["files"]] == [
            replicate_seed(11, 0), replicate_seed(11, 1)]
        for entry in manifest["files"]:
            assert (out / entry["file"]).exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        # A study's keys are legal here, so one file serves both commands.
        _, first = self.run(tmp_path, "sima")
        _, second = self.run(tmp_path, "simb", analyses=["naive"], jobs=2)
        for name in ("manifest.json", "dag1b-rep000.csv", "dag1b-rep001.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_replicate_file_matches_a_library_draw(self, tmp_path):
        _, out = self.run(tmp_path, "simc")
        ds = simulate(make_scenario("dag1b"), 40, replicate_seed(11, 1))
        want = tmp_path / "want.csv"
        write_csv(ds, str(want))
        assert (out / "dag1b-rep001.csv").read_text() == want.read_text()

    def test_seed_flag_overrides_the_config(self, tmp_path):
        _, base = self.run(tmp_path, "simd")
        _, other = self.run(tmp_path, "sime", extra=("--seed", "12"))
        manifest = json.loads((other / "manifest.json").read_text())
        assert manifest["seed"] == 12
        assert ((base / "dag1b-rep000.csv").read_bytes()
                != (other / "dag1b-rep000.csv").read_bytes())

    def test_jobs_is_not_a_simulate_flag(self, tmp_path):
        # Writing the CSV files is most of simulate's time, so worker
        # processes only made it slower; it runs serially.
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, "simjobs", extra=("--jobs", "2"))
        assert exc.value.code == 2
        assert not (tmp_path / "simjobs").exists()


class TestStudy:
    """Replicate-by-analysis grid with a CSV log and a printed summary."""

    def run(self, tmp_path, outname, analyses, extra=(), **sections):
        sections.setdefault("scenario", "dag1b")
        sections.setdefault("n", 150)
        sections.setdefault("replicates", 2)
        sections.setdefault("seed", 5)
        sections["analyses"] = analyses
        path = cfg_file(tmp_path, f"{outname}.yaml", **sections)
        out = tmp_path / outname
        rc = main(["study", "--config", path, "--out", str(out), *extra])
        return rc, out / "study-log.csv"

    def test_writes_log_and_summary(self, tmp_path, capsys):
        rc, log = self.run(tmp_path, "st1", ["naive", "gnull-score"])
        assert rc == 0
        lines = log.read_text().splitlines()
        assert lines[0] == STUDY_HEADER
        assert len(lines) == 1 + 2 * 2  # replicates x analyses
        printed = capsys.readouterr().out
        assert "naive" in printed and "gnull-score" in printed
        assert f"study log: {log}" in printed

    def test_analysis_params_are_forwarded(self, tmp_path):
        rc, log = self.run(tmp_path, "st2",
                           [{"name": "naive", "params": {"level": 0.5}}])
        assert rc == 0
        assert len(log.read_text().splitlines()) == 3

    def test_analyses_must_be_a_nonempty_list(self, tmp_path, capsys):
        rc, _ = self.run(tmp_path, "st3", [])
        assert rc == 2
        assert "'analyses' must be a non-empty list" in stderr_of(capsys)
        rc, _ = self.run(tmp_path, "st4", "naive")
        assert rc == 2

    def test_each_analysis_needs_a_name(self, tmp_path, capsys):
        rc, _ = self.run(tmp_path, "st5", [{"params": {}}])
        assert rc == 2
        assert "needs a 'name' key" in stderr_of(capsys)

    def test_unknown_analysis_is_a_config_error(self, tmp_path, capsys):
        rc, _ = self.run(tmp_path, "st6", ["nope"])
        assert rc == 2
        assert "config error" in stderr_of(capsys)

    def test_params_must_be_a_mapping(self, tmp_path, capsys):
        rc, _ = self.run(tmp_path, "st14", [{"name": "naive", "params": [1, 2]}])
        assert rc == 2
        assert "params of analysis 'naive' must be a mapping" in stderr_of(capsys)

    @pytest.mark.parametrize("entry", [["naive", 1], 3])
    def test_each_analysis_is_a_name_or_a_mapping(self, tmp_path, capsys, entry):
        rc, _ = self.run(tmp_path, "st15", [entry])
        assert rc == 2
        assert "must be a name or a mapping" in stderr_of(capsys)

    @pytest.mark.parametrize("entry, message", [
        ({"name": "pooled-g", "params": {"treatment_terms": 5}},
         "pooled-g treatment_terms must be a list, not 5"),
        ({"name": "naive", "params": {"level": "high"}},
         "naive level must be a number, not 'high'"),
        ({"name": "pooled-g", "params": {"alpha": 0.5}},
         "pooled-g alpha must be a list, not 0.5"),
        ({"name": "pooled-g", "params": {"alpha": [0.1, "x", 0.3]}},
         "pooled-g alpha must be a number, not 'x'"),
        ({"name": "de-gnull", "params": {"known_design": "yes"}},
         "de-gnull known_design must be a boolean, not 'yes'"),
        ({"name": "g-estimate", "params": {"family": 2}},
         "g-estimate family must be a string, not 2"),
        ({"name": "g-estimate", "params": {"psi_box": 0}},
         "g-estimate psi_box must be a list, not 0"),
    ])
    def test_param_values_are_read_by_kind(self, tmp_path, capsys, entry, message):
        rc, _ = self.run(tmp_path, "st16", [entry])
        assert rc == 2
        assert stderr_of(capsys) == f"config error: {message}\n"

    @pytest.mark.parametrize("level", [0, 1, 5, -0.1])
    def test_level_lies_strictly_between_0_and_1(self, tmp_path, capsys, level):
        rc, log = self.run(tmp_path, "st19", [{"name": "naive", "params": {"level": level}}])
        assert rc == 2
        assert stderr_of(capsys) == (f"config error: naive level must lie strictly "
                                     f"between 0 and 1, got {float(level)!r}\n")
        assert not log.exists()

    def test_unquoted_treatment_terms_are_read_as_names(self, tmp_path):
        # YAML reads the 1 of [1, lm, a_prev] as a number, as in the CLI's
        # own term lists.
        logs = [self.run(tmp_path, name, [{"name": "pooled-g", "params": {
            "treatment_terms": terms}}], scenario="sequential-trial")
            for name, terms in (("st17", [1, "lm", "a_prev"]), ("st18", ["1", "lm", "a_prev"]))]
        assert [rc for rc, _ in logs] == [0, 0]
        assert logs[0][1].read_text() == logs[1][1].read_text()

    def test_errored_analyses_flip_the_exit_code(self, tmp_path, capsys):
        # pooled-g needs binary treatments; dag1b's are continuous, so every
        # replicate errors, the rows are logged, and the command exits 1.
        rc, log = self.run(tmp_path, "st7", ["pooled-g"])
        assert rc == 1
        assert "errored" in stderr_of(capsys)
        lines = log.read_text().splitlines()
        assert lines[0] == STUDY_HEADER
        # The log keeps its fixed column set; errored rows show up as nan
        # statistics with a blank reject field.
        assert lines[1] == "dag1b,150,0,pooled-g,nan,nan,,nan,nan,nan"

    def test_errored_runs_are_named_on_stderr(self, tmp_path, capsys):
        # The log has no error column, so stderr counts the errors by type
        # and quotes the first one.
        rc, _ = self.run(tmp_path, "st10", ["naive", "pooled-g"])
        assert rc == 1
        err = stderr_of(capsys).splitlines()
        assert err[0] == ("2 replicate analysis run(s) errored (2 EstimationError); "
                          "the log holds nan rows for them")
        assert err[1] == ("first error: replicate 0, analysis pooled-g: EstimationError: "
                          "score test needs binary treatments; A0 is not 0/1")

    def test_wrong_length_alpha_is_a_logged_config_error(self, tmp_path, capsys):
        # Two coefficients for the three default treatment terms: each
        # replicate logs a ConfigError row instead of crashing the study.
        rc, log = self.run(tmp_path, "st11", [{"name": "g-estimate", "params": {
            "alpha": [0.1, 0.2], "psi_box": [[0.0, 2.0]], "grid_points": 5}}],
            scenario="sndm-additive")
        assert rc == 1
        err = stderr_of(capsys).splitlines()
        assert err[0].startswith("2 replicate analysis run(s) errored (2 ConfigError)")
        assert err[1].endswith("ConfigError: alpha_known must match the treatment terms")
        assert log.read_text().splitlines()[1] == \
            "sndm-additive,150,0,g-estimate,nan,nan,,nan,nan,nan"

    def test_grid_points_list_is_accepted(self, tmp_path, capsys):
        # g-estimate takes one count per blip component as a list, as the
        # g-estimate subcommand does.
        rc, log = self.run(tmp_path, "st12", [{"name": "g-estimate", "params": {
            "psi_box": [[0.0, 2.0]], "grid_points": [11]}}], scenario="sndm-additive")
        assert rc == 0
        assert stderr_of(capsys) == ""
        assert len(log.read_text().splitlines()) == 3

    def test_bad_grid_is_refused_before_any_replicate(self, tmp_path, capsys, monkeypatch):
        # The grid is checked when the config loads: no replicate is
        # simulated and no log is written.
        drawn = []
        monkeypatch.setattr(studies, "simulate", lambda *args: drawn.append(args))
        split = {"p": [0], "z": [1]}
        cases = [
            ("g-estimate", {"psi_box": [[0.0, 2.0]], "grid_points": [1]},
             "grid_points must be at least 2 per component"),
            ("g-estimate", {"cofactors": ["1", "a_prev"], "grid_points": [5]},
             "grid_points must give one count per blip component (2)"),
            ("g-estimate", {"psi_box": [[2.0, 0.0]]}, "psi_box needs lo < hi for every component"),
            ("de-estimate", {"split": split, "psi_box": [[0.0, 2.0]], "grid_points": 1},
             "grid_points must be at least 2 per component"),
            ("de-estimate", {"split": split, "cofactors": ["1", "a1"],
                             "psi_box": [[0.0, 2.0]]},
             "psi_box must give (lo, hi) per blip component"),
        ]
        for i, (name, params, message) in enumerate(cases):
            rc, log = self.run(tmp_path, f"grid{i}", [{"name": name, "params": params}],
                               scenario="direct-effect-discrete")
            assert rc == 2
            assert stderr_of(capsys) == f"config error: {name} {message}\n"
            assert not log.parent.exists()
        assert drawn == []

    def test_jobs_flag_leaves_the_log_unchanged(self, tmp_path):
        _, serial = self.run(tmp_path, "st8", ["naive"], n=120)
        _, par = self.run(tmp_path, "st9", ["naive"], extra=("--jobs", "2"),
                          n=120)
        assert serial.read_bytes() == par.read_bytes()


class TestReproduce:
    """Pinned-seed benchmark runner wired through the CLI."""

    def test_unknown_name_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "bogus"])
        assert exc.value.code == 2

    def test_theorem2_passes_end_to_end(self, capsys):
        rc = main(["reproduce", "theorem2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("reproduce theorem2")
        assert "RESULT: PASS" in out

    def test_seed_flag_overrides_the_pinned_root(self, capsys):
        rc = main(["reproduce", "theorem2", "--seed", "999"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(root seed 999)" in out


class TestGFormula:
    """Standardized outcome law under a regime, exact and Monte Carlo."""

    def test_exact_static_matches_the_library(self, tmp_path, capsys):
        # The exact method needs no seed at all.
        path = cfg_file(tmp_path, scenario="discrete-trial",
                        regime={"kind": "static", "plan": [1, 1]})
        out = tmp_path / "gf1"
        assert main(["g-formula", "--config", path, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        got = float(re.search(r"standardized mean under .*: (-?\d+\.\d+)",
                              printed).group(1))
        table = enumerate_joint(make_scenario("discrete-trial"))
        want = g_formula_exact(table, Regime.static((1.0, 1.0))).mean()
        assert abs(got - want) < 5e-7
        assert (out / "g-formula-exact.csv").exists()

    def test_exact_method_accepts_the_mc_keys(self, tmp_path, capsys):
        # One config may switch method alone; the exact method reads neither key.
        path = cfg_file(tmp_path, scenario="discrete-trial", method="exact", draws=20000,
                        seed=5, regime={"kind": "static", "plan": [1, 1]})
        assert main(["g-formula", "--config", path, "--out", str(tmp_path / "gf")]) == 0

    def test_threshold_regime_is_named_in_the_report(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="discrete-trial",
                        regime={"kind": "threshold", "cutoff": 0.5})
        assert main(["g-formula", "--config", path,
                     "--out", str(tmp_path / "gf2")]) == 0
        assert "treat-if-covariate>=0.5" in capsys.readouterr().out

    def test_mc_grid_matches_a_library_draw(self, tmp_path):
        path = cfg_file(tmp_path, scenario="discrete-trial", method="mc",
                        draws=4000, seed=9,
                        regime={"kind": "static", "plan": [1, 1]})
        out = tmp_path / "gf3"
        assert main(["g-formula", "--config", path, "--out", str(out)]) == 0
        table = enumerate_joint(make_scenario("discrete-trial"))
        dist = g_formula_mc(ConditionalLaws.from_table(table),
                            Regime.static((1.0, 1.0)), 4000, 9)
        want = tmp_path / "want.csv"
        dist.to_csv(str(want))
        assert (out / "g-formula-mc.csv").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("draws", [2.5, "many", True])
    def test_draws_must_be_a_positive_integer(self, tmp_path, capsys, draws):
        # Once 2.5 ran 2 draws, "many" ended in a ValueError and true ran 1 draw.
        path = cfg_file(tmp_path, scenario="discrete-trial", method="mc",
                        draws=draws, seed=9, regime={"kind": "static", "plan": [1, 1]})
        assert main(["g-formula", "--config", path, "--out", str(tmp_path / "gf")]) == 2
        assert "draws must be a positive integer" in stderr_of(capsys)

    def test_jobs_is_not_a_g_formula_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["g-formula", "--jobs", "2"])
        assert exc.value.code == 2

    def test_method_is_validated(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="discrete-trial", method="bogus",
                        regime={"kind": "static", "plan": [1, 1]})
        assert main(["g-formula", "--config", path]) == 2
        assert "method must be 'exact' or 'mc'" in stderr_of(capsys)

    def test_regime_section_is_required(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="discrete-trial")
        assert main(["g-formula", "--config", path]) == 2
        assert "missing 'regime' section" in stderr_of(capsys)

    def test_static_regime_needs_a_plan(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="discrete-trial",
                        regime={"kind": "static"})
        assert main(["g-formula", "--config", path]) == 2
        assert "needs a 'plan' list" in stderr_of(capsys)

    def test_regime_kind_is_validated(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="discrete-trial",
                        regime={"kind": "sometimes"})
        assert main(["g-formula", "--config", path]) == 2
        assert "regime.kind" in stderr_of(capsys)

    def test_exact_needs_a_discrete_scenario(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="dag1b",
                        regime={"kind": "static", "plan": [1, 1]})
        assert main(["g-formula", "--config", path]) == 2
        assert "config error" in stderr_of(capsys)


class TestGEstimate:
    """Grid g-estimation of a shift parameter from a YAML run description."""

    def test_recovers_a_planted_shift(self, tmp_path, capsys):
        path = cfg_file(tmp_path,
                        scenario={"name": "sndm-additive",
                                  "params": {"psi": [1.0]}},
                        n=2500, seed=73, alpha="design",
                        family="additive", cofactors=["1"],
                        psi_box=[[0.0, 2.0]], grid_points=41)
        out = tmp_path / "ge1"
        assert main(["g-estimate", "--config", path, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        psi = float(re.search(r"psi_hat = \((-?\d+\.\d+)\)", printed).group(1))
        assert abs(psi - 1.0) < 0.3
        assert "% confidence set within:" in printed
        assert (out / "g-estimate-grid.csv").exists()

    def test_a_set_in_two_pieces_is_not_printed_as_one_interval(self, tmp_path, capsys):
        # At n = 20 the score test accepts both ends of the box but rejects
        # the grid points around psi = 1, between them.
        path = cfg_file(tmp_path,
                        scenario={"name": "sndm-additive", "params": {"psi": [1.0]}},
                        n=20, seed=123, alpha="design",
                        family="additive", cofactors=["1"],
                        psi_box=[[-4.0, 6.0]])
        out = tmp_path / "ge-pieces"
        assert main(["g-estimate", "--config", path, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "95% confidence set in 2 pieces, within [-4.0000, 6.0000]\n" in printed
        assert "within:" not in printed
        grid = np.loadtxt(out / "g-estimate-grid.csv", delimiter=",", skiprows=1)
        assert not grid[np.isclose(grid[:, 0], 1.0), 3].any()

    def test_explicit_alpha_vector_is_accepted(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="sndm-additive", n=400, seed=3,
                        alpha=[-0.1, 0.7, -0.3],
                        family="additive", cofactors=["1"],
                        psi_box=[[-1.0, 3.0]], grid_points=17)
        assert main(["g-estimate", "--config", path,
                     "--out", str(tmp_path / "ge2")]) == 0
        assert "psi_hat = (" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha, message", [
        ([0.1, 0.2], "alpha_known must match the treatment terms"),
        (["a", "b", "c"], "alpha must be a number, not 'a'"),
    ])
    def test_bad_alpha_vector_is_a_config_error(self, tmp_path, capsys, alpha, message):
        path = cfg_file(tmp_path, scenario="sndm-additive", n=200, seed=3,
                        alpha=alpha,
                        family="additive", cofactors=["1"],
                        psi_box=[[-1.0, 3.0]], grid_points=5)
        assert main(["g-estimate", "--config", path,
                     "--out", str(tmp_path / "ge3")]) == 2
        assert message in stderr_of(capsys)

    def test_design_alpha_requires_a_shared_logistic_model(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="dag1b", n=100, seed=3,
                        alpha="design",
                        family="additive", cofactors=["1"],
                        psi_box=[[-1.0, 1.0]])
        assert main(["g-estimate", "--config", path]) == 2
        assert "do not share a logistic model" in stderr_of(capsys)

    def test_blip_defaults_to_an_additive_intercept_shift(self, tmp_path):
        # The g-estimate study analysis's defaults: family additive,
        # cofactors ("1",).
        base = dict(scenario="sndm-additive", n=100, seed=3, psi_box=[[-1.0, 1.0]],
                    grid_points=5)
        grids = []
        for name, blip in (("bare", {}), ("given", dict(family="additive", cofactors=["1"]))):
            path = cfg_file(tmp_path, f"{name}.yaml", **base, **blip)
            assert main(["g-estimate", "--config", path, "--out", str(tmp_path / name)]) == 0
            grids.append((tmp_path / name / "g-estimate-grid.csv").read_bytes())
        assert grids[0] == grids[1]

    def test_psi_box_defaults_to_minus_4_to_4(self, tmp_path):
        path = cfg_file(tmp_path, scenario="sndm-additive", n=100, seed=3, grid_points=5)
        assert main(["g-estimate", "--config", path, "--out", str(tmp_path / "ge")]) == 0
        grid = np.loadtxt(tmp_path / "ge" / "g-estimate-grid.csv", delimiter=",", skiprows=1)
        assert grid[:, 0].tolist() == [-4.0, -2.0, 0.0, 2.0, 4.0]

    def test_malformed_grid_is_a_config_error(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="sndm-additive", n=100, seed=3,
                        family="additive", cofactors=["1"],
                        psi_box=[[-1.0, 1.0]], grid_points=1)
        assert main(["g-estimate", "--config", path]) == 2
        assert "grid_points must be at least 2" in stderr_of(capsys)


class TestDirectEffect:
    """Weighted no-direct-effect test and the two-arm blip estimate."""

    def test_test_mode_reports_a_verdict(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="dag1b", n=700, seed=7,
                        mode="test", known_design=True)
        assert main(["direct-effect", "--config", path]) == 0
        printed = capsys.readouterr().out
        assert re.search(r"direct-effect test: statistic = -?\d+\.\d+, "
                         r"p = \d\.\d+ -> ", printed)
        assert "the no-direct-effect null" in printed

    def test_estimate_mode_recovers_the_blip(self, tmp_path, capsys):
        path = cfg_file(tmp_path,
                        scenario={"name": "direct-effect-discrete",
                                  "params": {"psi": [1.0, 0.5]}},
                        n=2500, seed=67, mode="estimate", known_design=True,
                        split={"p": [0], "z": [1]},
                        family="additive", cofactors=["1", "a1"],
                        z_terms=["1"],
                        psi_box=[[0.0, 2.0], [-0.5, 1.5]],
                        grid_points=[9, 9])
        out = tmp_path / "de1"
        assert main(["direct-effect", "--config", path, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        m = re.search(r"psi_hat = \((-?\d+\.\d+), (-?\d+\.\d+)\)", printed)
        assert abs(float(m.group(1)) - 1.0) < 0.5
        assert abs(float(m.group(2)) - 0.5) < 0.5
        assert "note: known randomization design" in printed
        assert (out / "direct-effect-grid.csv").exists()

    # README's estimate config; the known design's studied-arm coefficients
    # are looked up on the studied arm's own model, ``mean_terms``.
    README_ESTIMATE = dict(
        scenario={"name": "direct-effect-discrete", "params": {"psi": [1.0, 0.5]}},
        n=2500, seed=67, mode="estimate", known_design=True, split={"p": [0], "z": [1]},
        family="additive", cofactors=["1", "a1"], z_terms=["1"],
        psi_box=[[0.0, 2.0], [-0.5, 1.5]], grid_points=[9, 9])

    def test_known_design_does_not_depend_on_z_terms(self, tmp_path, capsys):
        # Without README's z_terms line the fixed arm's terms default to
        # ("1", "lm", "a_prev"); the studied arm's model is still ("1",).
        cfg = {k: v for k, v in self.README_ESTIMATE.items() if k != "z_terms"}
        path = cfg_file(tmp_path, **cfg)
        assert main(["direct-effect", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert "note: known randomization design" in capsys.readouterr().out

    def test_known_design_with_other_mean_terms_runs(self, tmp_path, capsys):
        # The design's A0 law is on ("1",), so on ("1", "l0") it is estimated.
        path = cfg_file(tmp_path, **{**self.README_ESTIMATE, "mean_terms": ["1", "l0"]})
        assert main(["direct-effect", "--config", path, "--out", str(tmp_path / "b")]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "psi_hat = (" in out

    def test_estimate_mode_requires_split_and_box(self, tmp_path, capsys):
        base = dict(scenario="direct-effect-discrete", n=100, seed=1,
                    mode="estimate",
                    family="additive", cofactors=["1"])
        no_split = cfg_file(tmp_path, "de-nosplit.yaml",
                            psi_box=[[0.0, 2.0]], **base)
        assert main(["direct-effect", "--config", no_split]) == 2
        assert "missing 'split' key" in stderr_of(capsys)
        no_box = cfg_file(tmp_path, "de-nobox.yaml",
                          split={"p": [0], "z": [1]}, **base)
        assert main(["direct-effect", "--config", no_box]) == 2
        assert "missing 'psi_box' key" in stderr_of(capsys)

    def test_unknown_cofactor_is_a_config_error(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="direct-effect-discrete", n=100, seed=1,
                        mode="estimate", split={"p": [0], "z": [1]},
                        family="additive", cofactors=["1", "lx"],
                        psi_box=[[0.0, 2.0], [-0.5, 1.5]], grid_points=5)
        assert main(["direct-effect", "--config", path]) == 2
        assert stderr_of(capsys).startswith("config error: unknown feature term 'lx'")

    def test_mode_is_validated(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="dag1b", n=50, seed=1, mode="nope")
        assert main(["direct-effect", "--config", path]) == 2
        assert "mode must be 'test' or 'estimate'" in stderr_of(capsys)


class TestOneVocabulary:
    """``g-estimate`` and ``direct-effect`` run the registered study analyses
    on ``simulate(scenario, n, seed)``, with the study's keys and defaults."""

    GESTIMATE = dict(scenario={"name": "sndm-additive", "params": {"psi": [1.0]}},
                     n=2500, seed=73, family="additive", cofactors=["1"],
                     treatment_terms=["1", "lm", "a_prev"], alpha="design",
                     psi_box=[[0.0, 2.0]], grid_points=201)

    @pytest.mark.parametrize("key, value", [
        ("alpha_known", "design"), ("design_alpha", False),
        ("blip", {"family": "additive", "cofactors": ["1"]}), ("alpha_knwon", "design")])
    def test_retired_and_misspelled_keys_are_refused(self, tmp_path, capsys, key, value):
        # alpha_knwon once ran silently with a fitted alpha.
        gest = cfg_file(tmp_path, "ge.yaml", **{**self.GESTIMATE, key: value})
        out = tmp_path / "ge"
        assert main(["g-estimate", "--config", gest, "--out", str(out)]) == 2
        err = stderr_of(capsys)
        assert err.startswith(f"config error: analysis 'g-estimate' has no parameter {key!r}")
        assert "'alpha'" in err and "'family'" in err and "'cofactors'" in err
        assert not out.exists()
        rc, log = TestStudy().run(tmp_path, "st", [{"name": "g-estimate",
                                                    "params": {key: value}}])
        assert rc == 2 and not log.exists()
        assert stderr_of(capsys).startswith(
            f"config error: analysis 'g-estimate' has no parameter {key!r}")

    @staticmethod
    def row_of(name, sections):
        """The study-log row of analysis ``name`` on the dataset the CLI draws."""
        scenario = make_scenario(sections["scenario"]["name"], sections["scenario"]["params"])
        params = {k: v for k, v in sections.items() if k in studies.PARAMS[name]}
        result = studies.ANALYSES[name](simulate(scenario, sections["n"], sections["seed"]),
                                        scenario, studies.read_params(name, params))
        return studies.StudyRow("s", sections["n"], 0, name, **studies.row_fields(result))

    def printed(self, tmp_path, capsys, command, sections):
        out = tmp_path / command
        assert main([command, "--config", cfg_file(tmp_path, **sections),
                     "--out", str(out)]) == 0
        return capsys.readouterr().out.splitlines()

    def test_g_estimate_prints_the_analysis_row(self, tmp_path, capsys):
        row = self.row_of("g-estimate", self.GESTIMATE)
        assert self.printed(tmp_path, capsys, "g-estimate", self.GESTIMATE)[:2] == [
            f"psi_hat = ({row.estimate:.4f});  score p-value at psi_hat = {row.p:.4f}",
            f"95% confidence set within: [{row.ci_lo:.4f}, {row.ci_hi:.4f}]"]

    def test_test_mode_prints_the_de_gnull_row(self, tmp_path, capsys):
        sections = dict(scenario={"name": "dag1b", "params": {}}, n=700, seed=7, mode="test",
                        known_design=True)
        row = self.row_of("de-gnull", sections)
        verdict = "reject" if row.reject else "no evidence against"
        assert self.printed(tmp_path, capsys, "direct-effect", sections)[0] == (
            f"direct-effect test: statistic = {row.statistic:.4f}, p = {row.p:.4f} "
            f"-> {verdict} the no-direct-effect null")

    def test_estimate_mode_prints_the_de_estimate_row(self, tmp_path, capsys):
        sections = TestDirectEffect.README_ESTIMATE
        row = self.row_of("de-estimate", sections)
        line = self.printed(tmp_path, capsys, "direct-effect", sections)[0]
        assert line.startswith(f"psi_hat = ({row.estimate:.4f}, ")
        assert line.endswith(f");  score p-value at psi_hat = {row.p:.4f}")

    def test_known_design_defaults_to_true_in_test_mode(self, tmp_path, capsys):
        # The de-gnull study analysis's default; the subcommand once fitted A1's law.
        sections = dict(scenario="dag1b", n=700, seed=7, mode="test")
        bare = self.printed(tmp_path, capsys, "direct-effect", sections)
        given = self.printed(tmp_path, capsys, "direct-effect",
                             {**sections, "known_design": True})
        assert bare == given and "note: known randomization design" in bare
