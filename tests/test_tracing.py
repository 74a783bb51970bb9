"""The benchmark's tracer against the names it rebinds.

``perfbench/tracing.py`` wraps aoarima's public functions by name, from
outside the package, so a rename in ``src/`` would otherwise break only the
traced benchmark runs.
"""

import importlib
import importlib.util
from importlib import resources
from pathlib import Path

import aoarima
from aoarima.cli import read_series_csv

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_traced_name_resolves():
    for mod, names in tracing.TRACED.items():
        module = importlib.import_module(f"aoarima.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"aoarima.{mod}.{name}"


def test_traced_demo_detect_records_scans():
    y = read_series_csv(str(resources.files("aoarima") / "data" / "demo_series.csv"))
    scan = aoarima.outliers.scan
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fit = aoarima.fit_arima(y, aoarima.ArimaOrder(2, 0, 0), True)
        aoarima.detect_iterative(y, fit)
    finally:
        tracer.uninstall()
    assert aoarima.outliers.scan is scan
    tracer.settle()
    summary = tracing.summarize(tracer.spans)
    scans = summary["counts"]["outliers.scan_calls"]
    assert scans == summary["fn_calls"]["outliers.scan"] == 4  # 3 hits and the rejected candidate
    assert summary["kernel_len_sum"] == 3 * scans  # AR(2): pi_0, pi_1, pi_2
