"""The benchmark's tracer against the names it rebinds.

``perfbench/tracing.py`` wraps aoarima's public functions by name, from
outside the package, so a rename in ``src/`` would otherwise break only the
traced benchmark runs. A traced run also exits 1 when a per-layer metric
has no value: when no traced call reaches the public function whose self
time is that layer (a stage inlined into its caller, say). So the tracer is
run here the way the traced runs run it, and every layer must show up.
"""

import importlib
import importlib.util
import json
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest

import aoarima
from aoarima.cli import read_series_csv

from conftest import pi_weights_reference

_ROOT = Path(__file__).resolve().parent.parent


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


tracing = _load_perfbench("tracing")
inputs = _load_perfbench("inputs")
# The per-layer metrics that spans measure: the self time of a function of its own, or a fitting stage.
SPAN_LAYERS = set(tracing._OWN_METRIC.values()) | {"estimation.fit_ms", "outliers.final_model_ms"}
DEMO_CSV = str(resources.files("aoarima") / "data" / "demo_series.csv")


def traced(run):
    """The summary of the spans of ``run()``, and what it returned, with the tracer installed around it."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = run()
    finally:
        tracer.uninstall()
    tracer.settle()
    return tracing.summarize(tracer.spans), out


def test_span_layers_are_benchmark_metrics():
    listed = {m["name"] for m in json.loads((_ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert SPAN_LAYERS <= listed


def test_every_traced_name_resolves():
    for mod, names in tracing.TRACED.items():
        module = importlib.import_module(f"aoarima.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"aoarima.{mod}.{name}"


def test_traced_demo_detect_records_scans():
    y = read_series_csv(DEMO_CSV)
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


def test_traced_cli_runs_measure_every_layer(tmp_path):
    # the two invocations of the benchmark's cli_cold workload, each as its traced child runs it
    layers = set()
    for command, order in (("detect", "2,0,0"), ("fit", "1,0,1")):
        args = [command, "--input", DEMO_CSV, "--order", order, "--format", "json",
                "--output", str(tmp_path / "report.json")]
        summary, code = traced(lambda: aoarima.cli.main(args))
        assert code == 0, command
        layers |= summary["layer_s"].keys()
    assert SPAN_LAYERS - layers == set()


# the orders of the in-process workloads: AR(2) ends on the MSE ladder, ARIMA(1,1,1) on a CSS refit
@pytest.mark.parametrize("order", [aoarima.ArimaOrder(2, 0, 0), aoarima.ArimaOrder(1, 1, 1)], ids=str)
def test_traced_operation_measures_every_layer(order):
    spec = aoarima.SimSpec(order=order, n=400, seed=7, phi=(0.2237, 0.4282)[:order.p], theta=(0.3,)[:order.q])
    planted = ((100, 8.0), (250, -8.0), (330, 8.0))
    y = aoarima.inject(aoarima.simulate(spec), aoarima.InjectionPlan(points=planted))
    summary, result = traced(lambda: aoarima.detect_iterative(y, aoarima.fit_arima(y, order, True)))
    assert {t for t, _ in planted} <= {r.T for r in result.outliers}
    assert SPAN_LAYERS - summary["layer_s"].keys() == set()


@pytest.mark.parametrize("workload", ["ar_long", "arima_css"])
def test_traced_counts_at_benchmark_shape(workload):
    # one operation of the workload as its traced runs make it: the first series of seed 401
    spec = inputs.WORKLOADS[workload]
    order = aoarima.ArimaOrder(*spec["order"])
    y = aoarima.TimeSeries(inputs.make_cases(workload, 401)[0].values)
    config = aoarima.DetectionConfig(critical_value=spec["critical"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = aoarima.fit_arima(y, order, True)
        summary, result = traced(lambda: aoarima.detect_iterative(y, fit, config))
        pi = aoarima.pi_weights(fit, y.n - order.d - 1)
    counts, calls = summary["counts"], summary["fn_calls"]
    scans = counts["outliers.scan_calls"]
    support = pi_weights_reference(pi.ar, pi.ma, pi.m)[2]
    assert summary["kernel_len_sum"] == (1 + support) * scans  # every scan: pi_0 and the support
    assert summary["scan_macs"] == summary["kernel_len_sum"] * (y.n - order.d)
    assert scans == result.iterations_run
    hits = result.iterations_run - (result.terminated_by == "no_candidate")
    assert calls["outliers.adjust_residuals"] == hits == len(result.outliers)
    assert counts["estimation.pi_weights_calls"] == 1
    if workload == "ar_long":  # the counts the traced ar_long run reports
        assert (support, scans, hits, summary["scan_macs"]) == (2, 9, 8, 540_000)
