"""Benchmark runner for the gmethods package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One caller runs units back to back (a closed loop, jobs = 1) in
this process.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  end-to-end metrics: set-up time (median of fresh processes),
           unit-time p90, share of units without error, and peak resident
           memory.  Throughput and the unit-time median are printed too, but
           are not in the result: on a shared machine they swing with its
           speed phases far more than the p90 does (see README, Noise).
--trace 1  per-layer metrics: each of a fixed number of units runs once
           untraced and once with spans around the package's public
           functions; then every pinned-seed reproducer runs once, traced.

A run whose outputs fail a correctness check prints ``"correct": false``
with no metrics and exits 1.  Extra records (machine facts, spans, study
logs) go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

import reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_UNITS = 100  # so that the p90 has at least ten samples beyond it
SETUP_REPEATS = 3
# Units per traced run: fixed, so the exact counts repeat run to run.
TRACE_UNITS = {"gestimate-study": 300, "direct-effect-study": 300, "standardization": 100}

SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import gmethods, workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "gmethods", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}; run from a gmethods checkout")
    sys.path.insert(0, SRC)
    import gmethods

    if not os.path.abspath(gmethods.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported gmethods from {gmethods.__file__}, not {SRC}")


def _openblas_threads() -> int | None:
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(\S*openblas\S*\.so\S*)", fh.read())))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _openblas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "loadavg_at_start": os.getloadavg(),
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of importing gmethods and building the configs."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, BENCH_DIR, workload, str(seed), OUT_DIR],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(w, seconds: float) -> tuple[list, list[float]]:
    """Closed loop: units back to back until both the time and MIN_UNITS are reached."""
    results, times = [], []
    start = time.perf_counter()
    while len(results) < MIN_UNITS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results.append(w.run_unit(len(results)))
        times.append(time.perf_counter() - t0)
    return results, times


def end_to_end(w, args) -> tuple[list, dict, dict]:
    """The untraced run: the result's metrics, and others that are only printed."""
    setup = setup_seconds(args.workload, args.seed)
    w.run_unit(0)  # warm-up: lazy imports and first-call costs
    start = time.perf_counter()
    results, times = measure(w, args.seconds)
    wall = time.perf_counter() - start
    ms = [1000.0 * t for t in times]
    failed = sum(r.failed for r in results)
    print(f"units: {len(ms)} (p90 has {len(ms) - int(0.9 * len(ms))} samples beyond it)")
    metrics = {
        "setup_s": _metric(setup, "s"),
        "unit_p90_ms": _metric(statistics.quantiles(ms, n=10)[-1], "ms"),
        "ok_share": _metric(1.0 - failed / len(results), "share"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB"),
    }
    printed = {
        "units_per_s": _metric(len(results) / wall, "1/s"),
        "unit_p50_ms": _metric(statistics.median(ms), "ms"),
    }
    return results, metrics, printed


def per_layer(w, args) -> tuple[list, dict, list[str]]:
    from gmethods import reproduce

    import tracing

    n = TRACE_UNITS[args.workload]
    tracer = tracing.Tracer()
    w.run_unit(0)
    # Each unit runs untraced and traced back to back, in alternating order,
    # so that drift in machine speed does not show up as tracing overhead.
    plain, results, untraced = [], [], []
    for i in range(n):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    tracer.unit = i
                    results.append(tracer.span(tracing.UNIT_SPAN, w.run_unit, i))
                finally:
                    tracer.uninstall()
            else:
                t0 = time.perf_counter()
                plain.append(w.run_unit(i))
                untraced.append(time.perf_counter() - t0)
    untraced_s = sum(untraced)
    traced_s = sum(end - start for name, start, end, _, _ in tracer.spans
                   if name == tracing.UNIT_SPAN)

    reports = {}
    tracer.install()
    try:
        for name in reproduce.REPRODUCERS:
            tracer.unit = f"reproduce:{name}"
            index = len(tracer.spans)  # the span reproduce.run opens next
            reports[name] = (reproduce.run(name), tracer.spans[index])
    finally:
        tracer.uninstall()

    problems = [f"reproduce {name}: FAIL" for name, (rep, _) in reports.items()
                if not rep.passed]
    if [json.dumps(r.values, sort_keys=True) for r in plain] != \
            [json.dumps(r.values, sort_keys=True) for r in results]:
        problems.append("traced units computed different values from untraced ones")

    units = set(range(n))
    layer = tracer.layer_metrics(units)
    metrics = {}
    for name in tracing.LAYER_SPANS:
        metrics[f"{name}.calls"] = _metric(layer.get(f"{name}.calls", 0), "count")
        metrics[f"{name}.self_s"] = _metric(layer.get(f"{name}.self_s", 0.0), "s")
        metrics[f"{name}.total_s"] = _metric(layer.get(f"{name}.total_s", 0.0), "s")
    for span, (count, _) in tracing.COUNTS.items():
        key = f"{span}.{count}"
        metrics[key] = _metric(layer.get(key, 0), "count")
    estimates = layer.get("sndm.g_estimate.calls", 0)
    under = tracer.calls_under("glm.score_test_added", "sndm.g_estimate", units)
    metrics["sndm.g_estimate.score_evals_per_call"] = _metric(
        under / estimates if estimates else 0.0, "count")
    metrics["bench.unit.self_s"] = _metric(layer[f"{tracing.UNIT_SPAN}.self_s"], "s")
    metrics["trace.untraced_units_per_s"] = _metric(n / untraced_s, "1/s")
    metrics["trace.untraced_unit_p50_ms"] = _metric(1000.0 * statistics.median(untraced), "ms")
    metrics["trace.traced_units_per_s"] = _metric(n / traced_s, "1/s")
    metrics["trace.overhead_units_per_s"] = _metric(n / traced_s - n / untraced_s, "1/s")
    for name, (_, span) in reports.items():
        metrics[f"reproduce.{name}.wall_s"] = _metric(span[2] - span[1], "s")

    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "unit", "self"],
                   "rows": [list(s) + [own] for s, own in
                            zip(tracer.spans, tracer.self_times())]}, fh)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return results, metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gestimate-study", "direct-effect-study", "standardization"))
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    facts = machine_facts()
    print("machine: " + json.dumps(facts))
    w = workloads.build(args.workload, args.seed, OUT_DIR)
    if args.trace:
        results, metrics, problems = per_layer(w, args)
        printed = {}
    else:
        results, metrics, printed = end_to_end(w, args)
        problems = []
    problems += w.gate(results)
    if args.seed == reference.DEFAULT_SEED:
        problems += reference.compare(args.workload, [r.values for r in results])
    failed = sum(r.failed for r in results)
    correct = not problems
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    if correct:
        for name, m in metrics.items():
            print(f"{name} = {m['value']!r} {m['unit']}")
        for name, m in printed.items():
            print(f"{name} = {m['value']!r} {m['unit']} (not in the result)")
    result = {"correct": correct, "attempted": len(results), "failed": failed,
              "metrics": metrics if correct else {}}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"machine": facts, "args": vars(args), "problems": problems,
                   "printed": printed if correct else {},
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
