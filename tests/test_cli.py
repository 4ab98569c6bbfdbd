"""End-to-end command-line checks: config parsing, outputs, exit codes."""

import json
import re

import pytest
import yaml

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
        _, first = self.run(tmp_path, "sima")
        _, second = self.run(tmp_path, "simb")
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

    def test_parallel_run_matches_serial(self, tmp_path):
        _, serial = self.run(tmp_path, "simser")
        _, par = self.run(tmp_path, "simpar", extra=("--jobs", "2"))
        for name in ("manifest.json", "dag1b-rep000.csv", "dag1b-rep001.csv"):
            assert (serial / name).read_bytes() == (par / name).read_bytes()

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        rc, _ = self.run(tmp_path, "simjobs", extra=("--jobs", "0"))
        assert rc == 2
        assert "jobs must be at least 1" in stderr_of(capsys)


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
            "alpha_known": [0.1, 0.2], "psi_box": [[0.0, 2.0]], "grid_points": 5}}],
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

    def test_bad_grid_points_are_logged_config_errors(self, tmp_path, capsys):
        rc, log = self.run(tmp_path, "st13", [{"name": "g-estimate", "params": {
            "psi_box": [[0.0, 2.0]], "grid_points": [1]}}], scenario="sndm-additive")
        assert rc == 1
        err = stderr_of(capsys).splitlines()
        assert err[0].startswith("2 replicate analysis run(s) errored (2 ConfigError)")
        assert err[1].endswith("ConfigError: grid_points must be at least 2 per component")
        assert log.read_text().splitlines()[1] == \
            "sndm-additive,150,0,g-estimate,nan,nan,,nan,nan,nan"

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
                        n=2500, seed=73, alpha_known="design",
                        blip={"family": "additive", "cofactors": ["1"]},
                        psi_box=[[0.0, 2.0]], grid_points=41)
        out = tmp_path / "ge1"
        assert main(["g-estimate", "--config", path, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        psi = float(re.search(r"psi_hat = \((-?\d+\.\d+)\)", printed).group(1))
        assert abs(psi - 1.0) < 0.3
        assert "% confidence set within:" in printed
        assert (out / "g-estimate-grid.csv").exists()

    def test_explicit_alpha_vector_is_accepted(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="sndm-additive", n=400, seed=3,
                        alpha_known=[-0.1, 0.7, -0.3],
                        blip={"family": "additive", "cofactors": ["1"]},
                        psi_box=[[-1.0, 3.0]], grid_points=17)
        assert main(["g-estimate", "--config", path,
                     "--out", str(tmp_path / "ge2")]) == 0
        assert "psi_hat = (" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha, message", [
        ([0.1, 0.2], "alpha_known must match the treatment terms"),
        (["a", "b", "c"], "alpha_known must be 'design' or a list of numbers"),
    ])
    def test_bad_alpha_vector_is_a_config_error(self, tmp_path, capsys, alpha, message):
        path = cfg_file(tmp_path, scenario="sndm-additive", n=200, seed=3,
                        alpha_known=alpha,
                        blip={"family": "additive", "cofactors": ["1"]},
                        psi_box=[[-1.0, 3.0]], grid_points=5)
        assert main(["g-estimate", "--config", path,
                     "--out", str(tmp_path / "ge3")]) == 2
        assert message in stderr_of(capsys)

    def test_design_alpha_requires_a_shared_logistic_model(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="dag1b", n=100, seed=3,
                        alpha_known="design",
                        blip={"family": "additive", "cofactors": ["1"]},
                        psi_box=[[-1.0, 1.0]])
        assert main(["g-estimate", "--config", path]) == 2
        assert "do not share a logistic model" in stderr_of(capsys)

    def test_blip_section_required(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="sndm-additive", n=100, seed=3,
                        psi_box=[[-1.0, 1.0]])
        assert main(["g-estimate", "--config", path]) == 2
        assert "missing 'blip' section" in stderr_of(capsys)

    def test_psi_box_required(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="sndm-additive", n=100, seed=3,
                        blip={"family": "additive", "cofactors": ["1"]})
        assert main(["g-estimate", "--config", path]) == 2
        assert "missing 'psi_box' key" in stderr_of(capsys)

    def test_malformed_grid_is_a_config_error(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="sndm-additive", n=100, seed=3,
                        blip={"family": "additive", "cofactors": ["1"]},
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
                        blip={"family": "additive", "cofactors": ["1", "a1"]},
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

    def test_estimate_mode_requires_split_and_box(self, tmp_path, capsys):
        base = dict(scenario="direct-effect-discrete", n=100, seed=1,
                    mode="estimate",
                    blip={"family": "additive", "cofactors": ["1"]})
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
                        blip={"family": "additive", "cofactors": ["1", "lx"]},
                        psi_box=[[0.0, 2.0], [-0.5, 1.5]], grid_points=5)
        assert main(["direct-effect", "--config", path]) == 2
        assert stderr_of(capsys).startswith("config error: unknown feature term 'lx'")

    def test_mode_is_validated(self, tmp_path, capsys):
        path = cfg_file(tmp_path, scenario="dag1b", n=50, seed=1, mode="nope")
        assert main(["direct-effect", "--config", path]) == 2
        assert "mode must be 'test' or 'estimate'" in stderr_of(capsys)
