"""Replicate studies: scheduling, logging, and summaries."""

import re
from itertools import count

import numpy as np
import pytest

from gmethods import reproduce, studies
from gmethods.direct_effect import DeSndmSpec, SplitSchema, direct_effect_g_estimate
from gmethods.errors import ConfigError, EstimationError, PositivityError
from gmethods.gnull import naive_test
from gmethods.scenarios import (
    dag1b_scenario,
    design_alpha,
    direct_effect_scenario,
    simulate,
    sndm_scenario,
)
from gmethods.sndm import BlipSpec, additive_blip, g_estimate, g_test_at
from gmethods.studies import (
    ANALYSES,
    StudyConfig,
    StudyRow,
    format_summary,
    replicate_seed,
    run_study,
    summarize,
    write_study_log,
)

HEADER = "scenario,n,replicate,analysis,statistic,p,reject,estimate,ci_lo,ci_hi"


def small_config(replicates=3, seed=77):
    return StudyConfig(
        scenario=dag1b_scenario(),
        n=200,
        replicates=replicates,
        seed=seed,
        analyses=(("naive", {}), ("gnull-score", {})),
    )


def log_text(rows, tmp_path, name="log.csv"):
    path = str(tmp_path / name)
    write_study_log(path, rows)
    with open(path) as fh:
        return fh.read()


class TestStudyConfig:
    def test_unknown_analysis_rejected(self):
        with pytest.raises(ConfigError, match="unknown analysis"):
            StudyConfig(dag1b_scenario(), 100, 2, 1, (("anova", {}),))

    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            StudyConfig(dag1b_scenario(), 100, 0, 1, (("naive", {}),))
        with pytest.raises(ConfigError):
            StudyConfig(dag1b_scenario(), 0, 2, 1, (("naive", {}),))

    @pytest.mark.parametrize("name", ["naive", "g-estimate"])
    def test_unread_parameter_rejected(self, name):
        # A misspelled "level" once ran silently at the default level 0.05.
        with pytest.raises(ConfigError, match=f"analysis '{name}' has no parameter 'levl'"):
            StudyConfig(dag1b_scenario(), 100, 2, 1, ((name, {"levl": 0.5}),))

    def test_every_analysis_declares_its_parameters(self):
        assert set(studies.PARAMS) == set(ANALYSES)

    def test_registered_analyses(self):
        assert set(ANALYSES) == {"naive", "gnull-score", "pooled-g",
                                 "de-gnull", "naive-de", "g-estimate", "de-estimate"}

    def test_every_param_has_a_default_that_its_kind_reads(self):
        # A default is read by the same kind as a given value, so the two
        # ways in cannot disagree on what an absent key means.
        for name, declared in studies.PARAMS.items():
            for key, (kind, default) in declared.items():
                if default is not studies.REQUIRED and default is not None:
                    assert studies._param(key, default, kind) == default, (name, key)

    @pytest.mark.parametrize("key", ["alpha_known", "design_alpha", "blip", "alpha_knwon"])
    def test_retired_and_misspelled_keys_name_the_keys_read(self, key):
        with pytest.raises(ConfigError, match=rf"analysis 'g-estimate' has no parameter "
                                              rf"'{key}'; it reads \[.*'alpha'"):
            StudyConfig(sndm_scenario(), 100, 2, 1, (("g-estimate", {key: "design"}),))

    def test_a_required_param_is_named(self):
        with pytest.raises(ConfigError, match="missing 'de-estimate split' key"):
            StudyConfig(direct_effect_scenario(), 100, 2, 1,
                        (("de-estimate", {"psi_box": [[0.0, 2.0]]}),))


class TestRunStudy:
    def test_row_grid(self):
        rows = run_study(small_config())
        assert len(rows) == 6
        assert [r.replicate for r in rows] == [0, 0, 1, 1, 2, 2]
        assert [r.analysis for r in rows] == ["naive", "gnull-score"] * 3
        assert all(r.scenario == "dag1b" and r.n == 200 for r in rows)
        assert all(r.error == "" for r in rows)
        assert all(np.isfinite(r.p) for r in rows)

    def test_replicate_seed_is_order_free(self):
        assert replicate_seed(7, 3) == replicate_seed(7, 3)
        assert replicate_seed(7, 3) != replicate_seed(7, 4)
        assert replicate_seed(7, 3) != replicate_seed(8, 3)

    def test_adding_replicates_extends_the_prefix(self, tmp_path):
        short = run_study(small_config(replicates=2))
        long = run_study(small_config(replicates=4))
        assert log_text(long, tmp_path).startswith(log_text(short, tmp_path))

    def test_workers_do_not_change_results(self, tmp_path):
        serial = run_study(small_config(), jobs=1)
        parallel = run_study(small_config(), jobs=2)
        assert log_text(serial, tmp_path, "a.csv") == log_text(
            parallel, tmp_path, "b.csv")

    def test_analysis_failure_is_recorded_not_raised(self):
        # The pooled test needs binary treatments; this scenario's are
        # continuous, so every replicate logs an error row and the study
        # carries on with the remaining analysis.
        config = StudyConfig(dag1b_scenario(), 150, 2, 5,
                             (("pooled-g", {}), ("naive", {})))
        rows = run_study(config)
        pooled = [r for r in rows if r.analysis == "pooled-g"]
        naive = [r for r in rows if r.analysis == "naive"]
        assert len(pooled) == 2 and len(naive) == 2
        assert all("EstimationError" in r.error for r in pooled)
        assert all(np.isnan(r.statistic) for r in pooled)
        assert all(r.error == "" for r in naive)

    def test_g_estimate_logs_no_ends_for_two_rays(self):
        # At n = 20 the accepted grid is [-4, -1.75] and [1.15, 6]: two rays
        # cut off by the box, which exclude psi = 1.  Their outer ends would
        # read as one interval [-4, 6] that covers it.
        scenario = sndm_scenario(psi=(1.0,))
        config = StudyConfig(scenario, 20, 1, 154,
                             (("g-estimate", {"psi_box": [[-4, 6]]}),))
        (row,) = run_study(config)
        assert row.error == "" and np.isfinite(row.estimate)
        assert np.isnan(row.ci_lo) and np.isnan(row.ci_hi)
        terms = ("1", "lm", "a_prev")
        ds = simulate(scenario, 20, replicate_seed(154, 0))
        alpha = design_alpha(scenario, terms)
        est = g_estimate(ds, additive_blip("1"), treatment_terms=terms,
                         psi_box=[[-4, 6]], alpha_known=alpha)
        accepted = est.grid[est.accepted, 0]
        assert (accepted.min(), accepted.max()) == (-4.0, 6.0)
        assert not est.accepted[np.argmin(np.abs(est.grid[:, 0] - 1.0))]
        assert g_test_at(ds, additive_blip("1"), 1.0, treatment_terms=terms,
                         alpha_known=alpha).reject

    def test_g_estimate_analysis_reports_interval(self):
        config = StudyConfig(
            sndm_scenario(psi=(1.0,)), 800, 2, 9,
            (("g-estimate", {"cofactors": ("1",),
                             "psi_box": ((0.0, 2.0),),
                             "grid_points": 21}),),
        )
        rows = run_study(config)
        for r in rows:
            assert r.error == ""
            assert np.isfinite(r.estimate)
            assert r.ci_lo <= r.estimate <= r.ci_hi
            assert r.reject is None


    def test_de_estimate_logs_the_first_component(self):
        # A two-component set has no one-run interval, so ci_lo/ci_hi are nan.
        scenario = direct_effect_scenario(psi=(1.0, 0.5))
        params = {"split": {"p": [0], "z": [1]}, "cofactors": ["1", "a1"],
                  "z_terms": ["1"], "psi_box": [[0.0, 2.0], [-0.5, 1.5]],
                  "grid_points": [9, 9]}
        (row,) = run_study(StudyConfig(scenario, 2500, 1, 67, (("de-estimate", params),)))
        ds = simulate(scenario, 2500, replicate_seed(67, 0))
        est = direct_effect_g_estimate(
            ds, SplitSchema((0,), (1,)), DeSndmSpec(BlipSpec("additive", ("1", "a1"))),
            psi_box=[[0.0, 2.0], [-0.5, 1.5]], grid_points=[9, 9], z_terms=("1",),
            z_laws={1: scenario.a_laws[1]},
            p_alpha_known=design_alpha(scenario, ("1",), occasions=(0,)))
        assert row.error == "" and row.reject is None
        assert (row.estimate, row.statistic, row.p) == (
            est.psi_hat[0], est.statistic_at_hat, est.p_at_hat)
        assert np.isnan(row.ci_lo) and np.isnan(row.ci_hi)


class TestStudyLog:
    def test_header_and_reject_encoding(self, tmp_path):
        rows = run_study(small_config(replicates=2))
        text = log_text(rows, tmp_path)
        lines = text.strip().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 1 + len(rows)
        for line, row in zip(lines[1:], rows):
            fields = line.split(",")
            assert fields[3] == row.analysis
            assert fields[6] == str(int(row.reject))

    def test_undecided_reject_left_blank(self, tmp_path):
        row = StudyRow("s", 10, 0, "g-estimate", estimate=1.0)
        text = log_text([row], tmp_path)
        assert text.strip().splitlines()[1].split(",")[6] == ""


class TestSummaries:
    def test_reject_rate_is_the_flag_mean(self):
        rows = run_study(small_config(replicates=5))
        for s in summarize(rows):
            flags = [r.reject for r in rows if r.analysis == s.analysis]
            assert s.replicates == 5
            assert s.errors == 0
            assert abs(s.reject_rate - float(np.mean(flags))) < 1e-15

    def test_error_rows_excluded_from_rates(self):
        rows = [
            StudyRow("s", 10, 0, "naive", statistic=1.0, p=0.5, reject=False),
            StudyRow("s", 10, 1, "naive", error="EstimationError: boom"),
            StudyRow("s", 10, 2, "naive", statistic=9.0, p=0.01, reject=True),
        ]
        (s,) = summarize(rows)
        assert s.replicates == 3
        assert s.errors == 1
        assert abs(s.reject_rate - 0.5) < 1e-15

    def test_estimate_mean_and_se(self):
        rows = [
            StudyRow("s", 10, 0, "g-estimate", estimate=1.0),
            StudyRow("s", 10, 1, "g-estimate", estimate=3.0),
        ]
        (s,) = summarize(rows)
        assert abs(s.mean_estimate - 2.0) < 1e-15
        assert abs(s.estimate_se - 1.0) < 1e-15  # sd=sqrt(2), /sqrt(2)

    def test_format_summary_lists_each_analysis(self):
        rows = run_study(small_config(replicates=2))
        text = format_summary(summarize(rows))
        assert "naive" in text and "gnull-score" in text
        assert text.splitlines()[0].startswith("analysis")


class TestReproducerRejections:
    """``reproduce._rejections``: the reproducers' rejection rates come from
    ``run_study`` rows, and an errored replicate never counts as a
    non-rejection."""

    CHECKS = (("naive", "naive rate", 0.0, 1.0), ("gnull-score", "score rate", 0.0, 1.0))

    @staticmethod
    def fail_naive(monkeypatch, replicates, error=EstimationError):
        """Make "naive" raise ``error`` on the given replicates (serial order)."""
        calls = count()
        naive = studies.ANALYSES["naive"]

        def flaky(dataset, config, params):
            if next(calls) in replicates:
                raise error("no fit")
            return naive(dataset, config, params)

        monkeypatch.setitem(studies.ANALYSES, "naive", flaky)

    def test_errored_replicates_leave_the_count_and_fail_the_line(self, monkeypatch):
        self.fail_naive(monkeypatch, {1, 3})
        cfg = dag1b_scenario()
        naive, score = reproduce._rejections(cfg, 50, 4, 9, *self.CHECKS)
        hits = sum(naive_test(simulate(cfg, 50, replicate_seed(9, i))).reject
                   for i in (0, 2))
        assert naive.observed == (f"{hits}/2 = {hits / 2:.3f} "
                                  "(errored: 2 EstimationError)")
        assert not naive.ok
        assert re.fullmatch(r"\d/4 = \d\.\d{3}", score.observed)
        assert score.ok

    def test_all_errored_fails_as_zero_of_zero(self, monkeypatch):
        self.fail_naive(monkeypatch, {0, 1, 2, 3})
        naive, _ = reproduce._rejections(dag1b_scenario(), 50, 4, 9, *self.CHECKS)
        assert naive.observed == "0/0 (errored: 4 EstimationError)"
        assert not naive.ok

    def test_positivity_floor_is_named_and_leaves_the_count(self, monkeypatch):
        self.fail_naive(monkeypatch, {2}, PositivityError)
        naive, _ = reproduce._rejections(dag1b_scenario(), 50, 4, 9, *self.CHECKS)
        assert naive.observed.startswith(tuple(f"{h}/3 = " for h in range(4)))
        assert naive.observed.endswith(" (1 replicates at the positivity floor)")
        assert naive.ok
