"""One process of an in-process workload: set up, then run operations.

Usage: python3 [-X importtime] worker.py WORKLOAD SEED SECONDS TRACE

An operation is ``fit_arima`` then ``detect_iterative`` on one series,
called through the public API, one at a time (a closed loop with one
client). The worker imports aoarima, makes its inputs, runs one warm-up
operation and prints ``READY <input seconds>``; the parent times set-up
from process start to that line, less the input time. It then runs
operations for SECONDS and prints one JSON line with the samples. With
TRACE 1 it alternates untraced and traced operations on each series.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from pathlib import Path
from time import perf_counter

import tracing

_before = set(sys.modules) | {"inputs"}  # the benchmark's own input module is not counted

import aoarima  # noqa: E402  (set-up time starts with this import)

import inputs  # noqa: E402


# Per-operation counts of a traced run come from the first traced operation
# on each of the first COUNTED series, so they repeat exactly for a seed.
COUNTED = 8


class CheckFailed(Exception):
    pass


def check(case: inputs.Case, result) -> None:
    """Raise CheckFailed unless ``result`` is a correct detection on ``case``."""
    fit = result.final_fit
    numbers = [v for r in result.outliers for v in (r.omega_hat, r.lambda_hat, r.tau2)]
    numbers += list(result.sigma_trail) + list(result.mse_trail)
    if isinstance(fit, aoarima.ArimaFit):
        numbers += [*fit.phi, *fit.theta, fit.intercept, fit.sigma2, fit.mse]
    else:
        numbers += [*fit.coefficients, *fit.std_errors, fit.mse]
    if not all(math.isfinite(v) for v in numbers):
        raise CheckFailed("non-finite value in the detection result")
    expected = case.values.copy()
    for r in result.outliers:
        expected[r.T - 1] -= r.omega_hat
    if not (expected == result.corrected_series.values).all():
        raise CheckFailed("corrected_series is not the input minus omega_hat at the detected labels")
    missing = {t for t, _ in case.planted} - {r.T for r in result.outliers}
    if missing:
        raise CheckFailed(f"planted outliers not detected at labels {sorted(missing)}")


def main() -> None:
    workload, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(aoarima.__file__).resolve().parents:
        sys.exit(f"aoarima was imported from {aoarima.__file__}, not from {src}")
    warnings.simplefilter("ignore")
    spec = inputs.WORKLOADS[workload]
    order = aoarima.ArimaOrder(*spec["order"])
    config = aoarima.DetectionConfig(critical_value=spec["critical"])

    t0 = perf_counter()
    cases = inputs.make_cases(workload, seed)
    series = [aoarima.TimeSeries(c.values) for c in cases]
    gen_s = perf_counter() - t0

    def op(i):
        t0 = perf_counter()
        fit = aoarima.fit_arima(series[i], order, True)
        t1 = perf_counter()
        result = aoarima.detect_iterative(series[i], fit, config)
        t2 = perf_counter()
        return result, t1 - t0, t2 - t1

    errors = []
    try:
        check(cases[0], op(0)[0])
    except Exception as exc:  # reported as a failed run, not a crash
        errors.append(f"warm-up: {type(exc).__name__}: {exc}")
    modules = tracing.module_counts(_before)
    print("READY", repr(gen_s), flush=True)

    tracer = tracing.Tracer() if trace else None
    out = {"op_s": [], "fit_s": [], "detect_s": [], "traced_op_s": [], "attempted": 0,
           "failed": 0, "warmup_failed": bool(errors)}
    count_ops = {}  # case index -> op index of its first traced operation, first COUNTED cases
    detected = useful = 0
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        k = (i // 2 if trace else i) % len(cases)
        traced = trace and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        out["attempted"] += 1
        try:
            try:
                result, fit_s, detect_s = op(k)
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.settle()
            if traced:
                out["traced_op_s"].append(fit_s + detect_s)
            else:
                out["op_s"].append(fit_s + detect_s)
                out["fit_s"].append(fit_s)
                out["detect_s"].append(detect_s)
            check(cases[k], result)
        except Exception as exc:  # one failed operation; the loop goes on
            out["failed"] += 1
            if len(errors) < 3:
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            if traced and k < COUNTED and k not in count_ops:
                count_ops[k] = i
                labels = {r.T for r in result.outliers}
                detected += len(labels)
                useful += len(labels & {t for t, _ in cases[k].planted})
        i += 1
    out["elapsed_s"] = perf_counter() - start
    out["errors"] = errors
    if trace:
        first = set(count_ops.values())
        out["modules"] = modules
        out["times"] = tracing.summarize(tracer.spans)
        out["counts"] = tracing.summarize(tracer.spans, first)
        out["count_ops"] = len(first)
        out["detected"] = detected
        out["useful"] = useful
        out["spans"] = tracing.export_spans(tracer.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
