"""Acceptance gate: the headline guarantees, re-run end to end.

Every numbered check below re-executes one of the pinned-seed benchmark
runners (the same ones behind ``gmethods reproduce``) and holds it to the
shipped tolerance.  Each test prints a single pass/fail line to the real
terminal so a full run reads as a checklist.
"""

import pytest

from gmethods import reproduce


@pytest.fixture(scope="module")
def theorem2():
    return reproduce.run("theorem2")


@pytest.fixture(scope="module")
def gnull_level():
    return reproduce.run("gnull-level")


@pytest.fixture(scope="module")
def sndm_recovery():
    return reproduce.run("sndm-recovery")


@pytest.fixture(scope="module")
def appendix29():
    return reproduce.run("appendix29")


@pytest.fixture(scope="module")
def lemma2():
    return reproduce.run("lemma2")


@pytest.fixture(scope="module")
def de_level():
    return reproduce.run("direct-effect-level")


def line(report, fragment):
    """The unique check line whose label contains the fragment."""
    hits = [ln for ln in report.lines if fragment in ln.label]
    assert len(hits) == 1, f"check {fragment!r} matched {len(hits)} lines"
    return hits[0]


def announce(capsys, number, lines):
    ok = all(ln.ok for ln in lines)
    detail = "; ".join(f"{ln.label}: {ln.observed}" for ln in lines)
    with capsys.disabled():
        print(f"\nacceptance {number:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


class TestAcceptance:
    """One test per acceptance criterion, at the stated tolerance."""

    def test_01_false_rejection_under_the_joint_null(self, theorem2, capsys):
        """Regression-adjusted testing rejects a true joint null at least 90%
        of the time while the randomization score test keeps a 5% +/- 3%
        level (n = 2000, 200 replicates)."""
        naive = line(theorem2, "rejects the true null")
        score = line(theorem2, "holds its level")
        assert naive.requirement == "rate >= 0.9"
        assert score.requirement == "rate in [0.02, 0.08]"
        assert announce(capsys, 1, [naive, score])

    def test_02_model_pair_contradicts_a_flat_surface(self, theorem2, capsys):
        """At n = 100000 the fitted covariate and treatment slopes each exceed
        4 SEs, and the standardized mean moves more than 10x its MC SE
        across the 3x3 treatment grid."""
        checks = [line(theorem2, "covariate slope"),
                  line(theorem2, "treatment slope"),
                  line(theorem2, "varies across the 3x3 treatment grid")]
        assert checks[0].requirement == "> 4"
        assert checks[1].requirement == "> 4"
        assert checks[2].requirement == "spread > 10 * MC SE"
        assert announce(capsys, 2, checks)

    def test_03_null_characterizations_agree_on_random_tables(self, gnull_level, capsys):
        """The standardized and marginal exact forms of the sequential null
        (each via exact summation at 1e-10) agree on all 100 random tables."""
        agree = line(gnull_level, "agree on random tables")
        assert agree.requirement == "all 100"
        assert announce(capsys, 3, [agree])

    def test_04_standardization_oracles_agree(self, appendix29, capsys):
        """Exact standardization matches 100000 counterfactual draws and
        100000 resampled-standardization draws within the 3-sigma DKW band,
        for one static and one dynamic regime."""
        checks = [line(appendix29, "counterfactual draws (static"),
                  line(appendix29, "resampled standardization (static"),
                  line(appendix29, "counterfactual draws (treat-if"),
                  line(appendix29, "resampled standardization (treat-if")]
        for ln in checks:
            assert "DKW" in ln.requirement
        assert announce(capsys, 4, checks)

    def test_05_score_and_pooled_tests_hold_level(self, gnull_level, capsys):
        """Both null tests stay within 5% +/- 3% over 200 replicates: the
        randomization score test at two occasions and the pooled
        occasion-level test on a three-occasion binary trial."""
        checks = [line(gnull_level, "score test level (two occasions)"),
                  line(gnull_level, "pooled occasion-level test level")]
        for ln in checks:
            assert ln.requirement == "rate in [0.02, 0.08]"
        assert announce(capsys, 5, checks)

    def test_06_shift_parameter_recovery(self, sndm_recovery, capsys):
        """g-estimation on blip-generated data (true shift 1, n = 1000, 200
        replicates): median error < 0.15 and confidence-set coverage of the
        truth >= 0.90."""
        checks = [line(sndm_recovery, "median g-estimation error"),
                  line(sndm_recovery, "confidence-set coverage")]
        assert checks[0].requirement == "< 0.15"
        assert checks[1].requirement == "rate >= 0.9"
        assert announce(capsys, 6, checks)

    def test_07_residual_transform_identities(self, sndm_recovery, capsys):
        """A zero shift leaves outcomes untouched exactly; removing and
        restoring the shifts round-trips within 1e-12 on 1000 random
        trajectories (both families); the closed additive form matches the
        occasion recursion within 1e-12."""
        checks = [line(sndm_recovery, "zero shift parameter"),
                  line(sndm_recovery, "additive residual/restore"),
                  line(sndm_recovery, "multiplicative residual/restore"),
                  line(sndm_recovery, "closed-form residual")]
        for ln in checks[1:]:
            assert ln.requirement == "< 1e-12"
        assert announce(capsys, 7, checks)

    def test_08_conditional_residual_laws_match(self, appendix29, capsys):
        """On an all-discrete blip scenario at n = 100000, the per-cell
        conditional survivor of the residual outcome matches conditional
        standardization within 3 binomial SEs in >= 95% of cell/threshold
        units, at both occasions."""
        checks = [line(appendix29, "standardized law (occasion 0)"),
                  line(appendix29, "standardized law (occasion 1)")]
        for ln in checks:
            assert ln.requirement == ">= 0.95"
        assert announce(capsys, 8, checks)

    def test_09_standardization_paths_are_consistent(self, sndm_recovery, capsys):
        """The plug-in standardization's survivor matches ground-truth
        counterfactual draws within 3 binomial SEs at the tested points."""
        checks = [line(sndm_recovery, "ground-truth counterfactual draws")]
        assert checks[0].requirement == "<= 1"
        assert announce(capsys, 9, checks)

    def test_10_direct_effect_guarantees(self, de_level, lemma2, capsys):
        """The weighted no-direct-effect test holds a 5% +/- 3% level when
        only the late treatment acts and has power >= 0.8 when the early one
        does; the naive analysis invents a direct effect in >= 50% of
        replicates on the masked-interaction null; the exact weighted moment
        is flat (< 1e-10) at the true shift and moves at a perturbed one."""
        checks = [line(de_level, "level when only the late treatment acts"),
                  line(de_level, "power when the early treatment acts"),
                  line(lemma2, "naive analysis claims a direct effect"),
                  line(de_level, "flat at the true parameter"),
                  line(de_level, "moves at a perturbed parameter")]
        assert checks[0].requirement == "rate in [0.02, 0.08]"
        assert checks[1].requirement == "rate >= 0.8"
        assert checks[2].requirement == "rate >= 0.5"
        assert checks[3].requirement == "< 1e-10"
        assert announce(capsys, 10, checks)

    def test_every_benchmark_passes_outright(self, theorem2, gnull_level,
                                             sndm_recovery, appendix29,
                                             lemma2, de_level, capsys):
        """Each pinned-seed benchmark passes every one of its own checks,
        including the ones not singled out above."""
        reports = [theorem2, gnull_level, sndm_recovery, appendix29,
                   lemma2, de_level]
        failed = [f"{r.name}: {ln.label}"
                  for r in reports for ln in r.lines if not ln.ok]
        with capsys.disabled():
            verdict = "PASS" if not failed else "FAIL"
            print(f"\nacceptance --: {verdict} — 6/6 benchmark reports clean"
                  if not failed else
                  f"\nacceptance --: FAIL — {', '.join(failed)}")
        assert failed == []
