"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The traced-pair tests run two traced runs per workload on the same seed
(including every reproducer), so the module takes several minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402

EXACT_COUNTS = (
    "sndm.g_estimate.score_evals_per_call",
    "sndm.g_test_at.calls",
    "glm.fit_logistic.iterations",
    "scenarios.simulate.rows",
    "scenarios.enumerate_joint.rows",
    "gformula.g_formula_mc.draws",
    "studies.run_replicate.errors",
)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module",
                params=("gestimate-study", "direct-effect-study", "standardization"))
def traced_pair(request):
    results = []
    for _ in range(2):
        proc = _run("--workload", request.param, "--seed", "1", "--seconds", "1",
                    "--trace", "1")
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def test_count_metrics_repeat_exactly(traced_pair):
    first, second = (r["metrics"] for r in traced_pair)
    counts = {k for k, m in first.items() if m["unit"] == "count"}
    assert set(EXACT_COUNTS) <= counts
    for key in sorted(counts):
        assert first[key]["value"] == second[key]["value"], key


def test_self_times_account_for_unit_time(traced_pair):
    for result in traced_pair:
        m, n = result["metrics"], result["attempted"]
        self_sum = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
        traced = n / m["trace.traced_units_per_s"]["value"]
        untraced = n / m["trace.untraced_units_per_s"]["value"]
        assert self_sum == pytest.approx(traced, rel=1e-9)
        assert abs(self_sum - untraced) <= abs(traced - untraced) + 1e-9 * traced


def test_fails_without_package_source():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run("--workload", "standardization", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_install_wraps_every_binding_and_uninstall_restores():
    from gmethods import glm, sndm

    original = glm.score_test_added
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sndm.score_test_added is glm.score_test_added
        assert glm.score_test_added is not original
    finally:
        tracer.uninstall()
    assert sndm.score_test_added is original and glm.score_test_added is original


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.unit = 0

    def outer():
        time.sleep(0.01)
        tracer.span("inner", time.sleep, 0.02)

    tracer.span("outer", outer)
    m = tracer.layer_metrics({0})
    assert m["outer.calls"] == m["inner.calls"] == 1
    assert m["outer.total_s"] >= m["inner.total_s"] + 0.009
    assert m["outer.self_s"] == pytest.approx(m["outer.total_s"] - m["inner.total_s"],
                                              abs=1e-12)
