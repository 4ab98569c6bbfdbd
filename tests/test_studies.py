"""Replicate studies: scheduling, logging, and summaries."""

import numpy as np
import pytest

from gmethods.errors import ConfigError
from gmethods.scenarios import dag1b_scenario, sndm_scenario
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

    def test_registered_analyses(self):
        assert set(ANALYSES) == {"naive", "gnull-score", "pooled-g",
                                 "de-gnull", "naive-de", "g-estimate"}


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
