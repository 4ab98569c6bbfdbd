"""Stored per-unit statistics on the default seed, and the comparison with them.

A speed-up must not change what the package computes.  On the default seed
the first ``UNITS`` units of every workload are compared with
``reference.json``: estimates, test statistics, p-values and decisions of
the study workloads, and the exact and sampled means and the perturbed
moment check of the standardization workload.  Confidence-interval ends
are left out: they are grid points today and exact ends are planned.

Regenerate (only when a change to the statistics is intended) with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import os
import sys

DEFAULT_SEED = 1
UNITS = 20
RTOL = 1e-7
ATOL = 1e-9
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
_SKIP = {"ci_lo", "ci_hi", "problems", "error"}


def record(values: dict) -> dict:
    """The parts of a unit's values that the reference pins."""
    return {k: record(v) if isinstance(v, dict) else v
            for k, v in values.items() if k not in _SKIP}


def _differences(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [d for k in want for d in _differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(want) and math.isnan(got):
            return []
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif got == want:
        return []
    return [f"{where}: {got!r} != reference {want!r}"]


def compare(workload: str, values: list[dict]) -> list[str]:
    """Differences between the first units' values and the stored reference."""
    with open(PATH) as fh:
        want = json.load(fh)[workload]
    got = [record(v) for v in values[: len(want)]]
    if len(got) < len(want):
        return [f"only {len(got)} units to compare, reference has {len(want)}"]
    return [d for i, (g, w) in enumerate(zip(got, want))
            for d in _differences(g, w, f"unit {i}")]


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    table = {}
    for name in workloads.WORKLOADS:
        w = workloads.build(name, DEFAULT_SEED, out_dir)
        table[name] = [record(w.run_unit(i).values) for i in range(UNITS)]
    with open(PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
