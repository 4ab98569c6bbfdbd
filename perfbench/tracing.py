"""Spans around the package's public functions, kept in memory.

``Tracer.install`` replaces each spanned function at every ``gmethods.*``
module attribute that binds it, because modules call each other through
their own ``from .x import f`` names (``sndm`` calls ``score_test_added``
that way).  ``uninstall`` puts the originals back.  Spans are plain tuples
``(name, start, end, parent, unit)``; self time is a span's duration minus
the time its children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SPANNED = (
    "studies.run_replicate", "studies.write_study_log", "studies.summarize",
    "streams.substream",
    "scenarios.simulate", "scenarios.enumerate_joint",
    "glm.fit_linear", "glm.fit_logistic", "glm.score_test_added",
    "glm.robust_score_test", "glm.wald_test",
    "gnull.naive_test", "gnull.gnull_score_test",
    "sndm.g_estimate", "sndm.g_test_at",
    "direct_effect.direct_effect_gnull_test", "direct_effect.naive_direct_effect_demo",
    "direct_effect.ipw_weights", "direct_effect.direct_effect_moment_check",
    "gformula.ConditionalLaws.from_table", "gformula.g_formula_exact",
    "gformula.g_formula_mc", "gformula.g_formula_conditional",
    "reproduce.run",
)

UNIT_SPAN = "bench.unit"
# Spans reported as per-layer metrics.  No workload calls robust_score_test
# (only direct-effect g-estimation does) and reproduce.run is timed per
# reproducer instead, so their metrics would read 0 on every run.
LAYER_SPANS = tuple(s for s in SPANNED if s not in ("glm.robust_score_test", "reproduce.run"))


def _simulated_rows(result) -> int:
    return (result[0] if isinstance(result, tuple) else result).n


# Exact work counts read off a spanned call's result: span -> (metric, count).
COUNTS = {
    "glm.fit_logistic": ("iterations", lambda res: res.iterations),
    "scenarios.simulate": ("rows", _simulated_rows),
    "scenarios.enumerate_joint": ("rows", lambda res: res.cells.shape[0]),
    "gformula.g_formula_mc": ("draws", lambda res: res.n_samples),
    "studies.run_replicate": ("errors", lambda rows: sum(1 for r in rows if r.error)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counts: list[tuple[str, int, object]] = []
        self.unit: object = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.unit))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.unit)
        count = COUNTS.get(name)
        if count is not None:
            self.counts.append((f"{name}.{count[0]}", int(count[1](result)), self.unit))
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gmethods" or key.startswith("gmethods."))]
        for name in SPANNED:
            module_name, _, attr = name.partition(".")
            module = sys.modules[f"gmethods.{module_name}"]
            if "." in attr:  # a static method on a class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, staticmethod(self._wrap(name, original.__func__)))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, units: set) -> dict[str, float]:
        """calls, self_s, total_s and the exact counts over the given units.

        ``total_s`` counts only the outermost span of a name, so recursion
        is not double counted.
        """
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        names = [s[0] for s in self.spans]
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            if unit not in units:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += selfs[i]
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.total_s"] += end - start
        for key, value, unit in self.counts:
            if unit in units:
                out[key] += value
        return out

    def calls_under(self, child: str, ancestor: str, units: set) -> int:
        """Number of ``child`` spans with an ``ancestor`` span above them."""
        hits = 0
        for name, _, _, parent, unit in self.spans:
            if name != child or unit not in units:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            hits += p >= 0
        return hits
