"""Spans around calls into aoarima's public functions, recorded from outside.

Nothing under ``src/`` changes: a traced run rebinds each public function
named in ``TRACED`` to a timing wrapper in every ``aoarima.*`` namespace
that holds it, so calls made through another module's globals (``outliers``
calling ``scan`` or ``fit_arima``, ``estimation.filter_residuals`` calling
``pi_weights`` and ``difference``) are seen too. Spans stay in memory and
are written out when the run ends. Stdlib only: this module is imported
before ``aoarima`` in processes whose imports are being measured.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "series": ("difference", "acf"),
    "estimation": ("ols", "fit_ar_ols", "yule_walker", "fit_arma_css", "fit_arima",
                   "pi_weights", "filter_residuals"),
    "outliers": ("scan", "adjust_residuals", "correct_series", "joint_refit",
                 "detect_iterative"),
    "diagnostics": ("ljung_box", "ks_normal", "comparison_table"),
    "cli": ("main", "read_series_csv", "cmd_fit", "cmd_detect", "render_report"),
}

# Spans whose self time is a layer metric of its own.
_OWN_METRIC = {
    "series.difference": "series.difference_ms",
    "estimation.pi_weights": "estimation.pi_weights_ms",
    "estimation.filter_residuals": "estimation.filter_residuals_ms",
    "outliers.scan": "outliers.scan_ms",
    "outliers.adjust_residuals": "outliers.adjust_residuals_ms",
    "outliers.correct_series": "outliers.correct_series_ms",
    "outliers.detect_iterative": "outliers.detect_iterative_self_ms",
}
# The model-fitting stage: OLS on pure AR orders, CSS otherwise. Inside
# detect_iterative it is the final model (the MSE ladder of joint_refit
# calls, or the refit on the corrected series); outside, the initial fit.
_FITTING = {"estimation.fit_arima", "estimation.fit_ar_ols", "estimation.fit_arma_css",
            "estimation.yule_walker", "estimation.ols", "outliers.joint_refit"}

CALL_COUNTS = {
    "estimation.pi_weights": "estimation.pi_weights_calls",
    "estimation.fit_arma_css": "estimation.fit_arma_css_calls",
    "estimation.ols": "estimation.ols_calls",
    "outliers.joint_refit": "outliers.joint_refit_calls",
    "outliers.scan": "outliers.scan_calls",
    "series.difference": "series.difference_calls",
}


class Tracer:
    """Records (name, parent, op, start, end) spans while installed."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, op, start, end, scan note]
        self.op = 0
        self._stack = []
        self._saved = []
        self._settled = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        is_scan = name == "outliers.scan"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # scan(e, pi, ...): keep the weights and the scanned length
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0,
                   (args[1], args[0].n) if is_scan else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Rebind every traced function in every loaded aoarima namespace."""
        wrappers = {}
        for mod, names in TRACED.items():
            module = sys.modules.get(f"aoarima.{mod}")
            if module is None:
                continue
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = self._wrap(f"{mod}.{fname}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "aoarima" and not modname.startswith("aoarima."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def settle(self):
        """Replace the weights kept by new scan spans with their kernel length.

        Called between operations, so a run holds no residual or weight
        arrays beyond the one it is working on.
        """
        lens = {}
        for rec in self.spans[self._settled:]:
            if rec[5] is not None:
                pi, n = rec[5]
                if id(pi) not in lens:
                    lens[id(pi)] = _kernel_len(pi)
                rec[5] = (lens[id(pi)], n)
        self._settled = len(self.spans)


def _kernel_len(pi) -> int:
    """Scan kernel taps: 1 + the index of the last non-zero pi weight (pi_0 = 1)."""
    nz = pi.weights.nonzero()[0]
    return 2 + int(nz[-1]) if nz.size else 1


def summarize(spans, ops=None) -> dict:
    """Self time and calls per function, layer metrics and kernel counts.

    Self time is a span's duration minus the durations of its direct
    children. Times are totals in seconds over the spans of the operations
    in ``ops`` (default: all). The spans must be settled.
    """
    child = [0.0] * len(spans)
    for name, parent, _op, start, end, _note in spans:
        if parent >= 0:
            child[parent] += end - start
    fn_self = defaultdict(float)
    fn_calls = defaultdict(int)
    layer = defaultdict(float)
    counts = defaultdict(int)
    kernel_lens = []
    macs = 0
    for i, (name, parent, op, start, end, note) in enumerate(spans):
        if ops is not None and op not in ops:
            continue
        self_s = end - start - child[i]
        fn_self[name] += self_s
        fn_calls[name] += 1
        if name in CALL_COUNTS:
            counts[CALL_COUNTS[name]] += 1
        if name in _OWN_METRIC:
            layer[_OWN_METRIC[name]] += self_s
        elif name in _FITTING or (name == "series.acf" and parent >= 0
                                  and spans[parent][0] in _FITTING):
            layer[_fitting_stage(spans, i)] += self_s
        if note is not None:  # a settled scan span: (kernel length, n - d)
            kernel_lens.append(note[0])
            macs += note[0] * note[1]
    return {
        "fn_self_s": dict(fn_self),
        "fn_calls": dict(fn_calls),
        "layer_s": dict(layer),
        "counts": dict(counts),
        "kernel_len_sum": sum(kernel_lens),
        "scan_macs": macs,
    }


def _fitting_stage(spans, i) -> str:
    while i >= 0:
        if spans[i][0] == "outliers.detect_iterative":
            return "outliers.final_model_ms"
        i = spans[i][1]
    return "estimation.fit_ms"


def parse_importtime(text: str) -> dict:
    """Self import time per top-level package from ``python -X importtime``."""
    self_us = defaultdict(int)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us[fields[2].strip().split(".")[0]] += int(fields[0])
    return {
        "import.numpy_ms": self_us["numpy"] / 1000.0,
        "import.scipy_ms": self_us["scipy"] / 1000.0,
        "import.aoarima_self_ms": self_us["aoarima"] / 1000.0,
    }


def module_counts(before) -> dict:
    """Modules loaded since the snapshot ``before``, and how many are scipy's."""
    new = [m for m in sys.modules if m not in before]
    return {
        "import.modules_loaded": len(new),
        "import.scipy_modules": sum(1 for m in new if m == "scipy" or m.startswith("scipy.")),
    }


def export_spans(spans) -> list:
    """Spans as JSON-ready rows: name, parent, op, start_ms, duration_ms."""
    t0 = spans[0][3] if spans else 0.0
    return [[name, parent, op, round((start - t0) * 1e3, 6), round((end - start) * 1e3, 6)]
            for name, parent, op, start, end, _note in spans]
