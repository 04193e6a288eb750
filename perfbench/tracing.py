"""Span tracing around the calls into each qhyp layer, kept in memory.

The tracer wraps public functions (and the few private ones that mark a
layer boundary, such as the double-precision fusion sum) in every module
where callers look them up, so `jones_log_all_colors` is traced both in
quantum.jones and in quantum.turaevviro. Each span records its name, start,
end, parent span and op id. Self time is a span's duration minus the
durations of its direct children. Cache counts come from `cache_info()`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import qhyp.census
import qhyp.monodromy
import qhyp.rationals
import qhyp.surgery
import qhyp.twistknots
from qhyp.quantum import growth, jones, oracles, recoupling, turaevviro

FIG8_PAIR = jones._FIG8_PAIR

#: exact-layer modules: every public function is traced as <layer>.<name>
EXACT_LAYERS = {
    "rationals": qhyp.rationals,
    "twistknots": qhyp.twistknots,
    "surgery": qhyp.surgery,
    "monodromy": qhyp.monodromy,
    "census": qhyp.census,
}

#: (span name, defining module, attribute) of the quantum-layer boundaries
QUANTUM_SPANS = (
    ("jones.colored_jones", jones, "colored_jones"),
    ("jones.all_colors", jones, "jones_log_all_colors"),
    ("jones.value_mp", jones, "jones_value_mp"),
    ("jones.fusion_double", jones, "_fusion_log_double"),
    ("jones.fusion_mp", jones, "fusion_value_mp"),
    ("jones.mp_level", jones, "_mp_level"),
    ("jones.fig8_sum", jones, "figure_eight_log"),
    ("jones.fig8_mp", jones, "figure_eight_cross_sum_mp"),
    ("recoupling.level", recoupling, "recoupling_level"),
    ("turaevviro.complement", turaevviro, "tv_knot_complement"),
    ("turaevviro.surgery", turaevviro, "tv_surgery"),
    ("growth.fit", growth, "ltv_estimate"),
    ("growth.report", growth, "q_hyperbolicity_report"),
    ("oracles.rmatrix", oracles, "colored_jones_rmatrix_oracle"),
    ("oracles.bracket", oracles, "colored_jones_kauffman_oracle"),
)

def _dps_of(precision: str) -> int:
    digits = "".join(ch for ch in precision if ch.isdigit())
    return int(digits) if digits else 0


class Tracer:
    """In-memory spans with one id per op, plus the counts read from calls."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = 0
        self.colors_requested = 0
        self.fusion_dps_max = 0
        self.surgery_escalated = 0
        self.surgery_dps_max = 0
        self._patches: list = []

    def next_op(self):
        self.op += 1

    # -- wrapping -------------------------------------------------------

    def _note(self, name, args, kwargs, result):
        """Counts that ratios need, read from arguments and results."""
        if name == "jones.all_colors" or name == "jones.value_mp":
            if args[0].canonical_pair() != FIG8_PAIR:
                self.colors_requested += len(args[2]) if name == "jones.all_colors" else 1
        elif name == "jones.colored_jones":
            method = args[3] if len(args) > 3 else kwargs.get("method", "fusion")
            self.colors_requested += method == "fusion"
        elif name == "jones.fusion_mp":
            dps = args[3] if len(args) > 3 else kwargs["dps"]
            self.fusion_dps_max = max(self.fusion_dps_max, dps)
        elif name == "turaevviro.surgery":
            if result.precision.startswith("mp"):
                self.surgery_escalated += 1
                self.surgery_dps_max = max(self.surgery_dps_max, _dps_of(result.precision))

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = [name, start, end, parent, self.op]
            self._note(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch_everywhere(self, name, original):
        """Replace `original` in every loaded qhyp module and the benchmark."""
        wrapped = self.wrap(name, original)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "qhyp" or mod_name.startswith("qhyp.") or mod_name == "workloads"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self):
        for name, module, attr in QUANTUM_SPANS:
            self._patch_everywhere(name, getattr(module, attr))
        cls = recoupling.RecouplingLevel
        self._patches.append((cls, "tet_grid", cls.tet_grid))
        cls.tet_grid = self.wrap("recoupling.tet_grid", cls.tet_grid)
        for layer, module in EXACT_LAYERS.items():
            for attr, fn in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    self._patch_everywhere(f"{layer}.{attr}", fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
            calls[name] += 1
        return totals, calls

    def layer_metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s."""
        totals, calls = self.self_times()
        out = {}
        for span in (
            "jones.fusion_mp", "jones.fig8_sum", "jones.fig8_mp",
            "recoupling.tet_grid", "turaevviro.surgery", "turaevviro.complement",
            "oracles.rmatrix", "oracles.bracket",
        ):
            out[f"{span}.calls"] = calls[span]
        for span in (
            "jones.fusion_mp", "jones.fusion_double", "jones.fig8_sum", "jones.fig8_mp",
            "recoupling.tet_grid", "turaevviro.surgery", "turaevviro.complement",
            "growth.fit", "growth.report", "oracles.rmatrix", "oracles.bracket",
        ):
            out[f"{span}.self_s"] = totals[span]
        for layer in EXACT_LAYERS:
            out[f"{layer}.self_s"] = sum(
                (v for k, v in totals.items() if k.startswith(layer + ".")), 0.0
            )
        out["jones.fusion_mp.dps_max"] = self.fusion_dps_max
        out["jones.mp_level.builds"] = jones._mp_level.cache_info().misses
        out["jones.escalated_ratio"] = (
            calls["jones.fusion_mp"] / self.colors_requested if self.colors_requested else 0.0
        )
        info = recoupling.recoupling_level.cache_info()
        lookups = info.hits + info.misses
        out["recoupling.level.builds"] = info.misses
        out["recoupling.level.hit_ratio"] = info.hits / lookups if lookups else 0.0
        surgeries = calls["turaevviro.surgery"]
        out["turaevviro.surgery.escalated_ratio"] = (
            self.surgery_escalated / surgeries if surgeries else 0.0
        )
        out["turaevviro.surgery.dps_max"] = self.surgery_dps_max
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, op]) + "\n")

