#!/usr/bin/env python3
"""Median time and minor page faults per call of each stage of the detect loop.

Runs the operations of one benchmark workload (``perfbench/inputs.py``)
in this process, as the benchmark's worker does: ``fit_arima`` and then
``detect_iterative`` on each series in turn, after one warm-up
operation, with BLAS on one thread. Every public function that
``perfbench/tracing.py`` names is wrapped by that module's tracer, here
also counting the minor page faults (``getrusage``) of each call.

For each stage it prints the calls per operation, the median self time
per call in microseconds and the mean self minor faults per call; self
means less the calls the stage makes to other traced functions, whose
own ``getrusage`` reads (about a microsecond a call) count to them. The
last row is the whole operation, timed and counted outside the tracer.
Page faults move the timings of the long workloads: a fresh 160 KB array
can fault on every page or on none, depending on what the heap held.

    PYTHONPATH=src python3 scripts/detect_stages.py --workload ar_long --seed 401 --ops 200
"""

import argparse
import functools
import os
import statistics
import sys
import warnings
from collections import defaultdict
from pathlib import Path
from resource import RUSAGE_SELF, getrusage
from time import perf_counter

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (numpy only: the benchmark's seeded series)
import tracing  # noqa: E402

import aoarima  # noqa: E402


def _minflt() -> int:
    return getrusage(RUSAGE_SELF).ru_minflt


class FaultTracer(tracing.Tracer):
    """The benchmark's tracer, also counting the minor faults of every span."""

    def __init__(self):
        super().__init__()
        self.faults = {}  # span index -> minor faults of the call, its traced calls included

    def _wrap(self, name, fn):
        stack, faults = self._stack, self.faults

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = _minflt()
            try:
                return fn(*args, **kwargs)
            finally:
                faults[stack[-1]] = _minflt() - before  # the span the tracer opened around this call

        return super()._wrap(name, counted)


def stage_table(tracer: FaultTracer) -> dict:
    """Per stage: the self time (s) and self minor faults of each of its calls."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    child_faults = [0] * len(spans)
    for i, (_name, parent, _op, start, end, _note) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
            child_faults[parent] += tracer.faults[i]
    table = defaultdict(lambda: ([], []))
    for i, (name, _parent, _op, start, end, _note) in enumerate(spans):
        times, faults = table[name]
        times.append(end - start - child_s[i])
        faults.append(tracer.faults[i] - child_faults[i])
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS), default="ar_long")
    parser.add_argument("--seed", type=int, default=401)
    parser.add_argument("--ops", type=int, default=100, help="operations after the warm-up")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    warnings.simplefilter("ignore")
    spec = inputs.WORKLOADS[args.workload]
    order = aoarima.ArimaOrder(*spec["order"])
    config = aoarima.DetectionConfig(critical_value=spec["critical"])
    series = [aoarima.TimeSeries(c.values) for c in inputs.make_cases(args.workload, args.seed)]

    def op(y):
        return aoarima.detect_iterative(y, aoarima.fit_arima(y, order, True), config)

    op(series[0])  # warm-up
    tracer = FaultTracer()
    op_us, op_faults = [], []
    tracer.install()
    try:
        for i in range(args.ops):
            tracer.op = i
            before, t0 = _minflt(), perf_counter()
            op(series[i % len(series)])
            op_us.append((perf_counter() - t0) * 1e6)
            op_faults.append(_minflt() - before)
            tracer.settle()  # drop the weights a scan span keeps
    finally:
        tracer.uninstall()

    print(f"{args.workload} seed {args.seed}: {args.ops} operations after one warm-up, "
          f"order {tuple(spec['order'])}, n = {spec['n']}")
    print(f"{'stage':34s} {'calls/op':>9s} {'median us/call':>15s} {'minor faults/call':>18s}")
    table = stage_table(tracer)
    for name, (times, faults) in sorted(table.items(), key=lambda kv: -sum(kv[1][0])):
        print(f"{name:34s} {len(times) / args.ops:9.3f} {statistics.median(times) * 1e6:15.1f} "
              f"{sum(faults) / len(faults):18.2f}")
    print(f"{'operation':34s} {1.0:9.3f} {statistics.median(op_us):15.1f} {statistics.fmean(op_faults):18.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
