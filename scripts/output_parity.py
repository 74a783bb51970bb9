#!/usr/bin/env python3
"""Dump every number the detection loop returns, and compare two dumps.

``dump`` runs ``fit_arima`` and then ``detect_iterative`` (with the
workload's order and critical value, an intercept, and warnings off) on
the series of one benchmark workload (``perfbench/inputs.py``) for each
given seed, and writes every number they return to a JSON file.
``--order p,d,q`` fits that order instead of the workload's, so a path
the workloads do not take (say the coordinate sweeps of Brent searches
that find theta for q >= 2) gets the same comparison. JSON writes a
float as its shortest round-trip repr, so the dump keeps every bit. The
``aoarima`` imported is whatever ``PYTHONPATH`` names, so two checkouts
are compared by dumping from each:

    PYTHONPATH=A/src python3 scripts/output_parity.py dump --workload ar_long --seeds 401 402 --out a.json
    PYTHONPATH=B/src python3 scripts/output_parity.py dump --workload ar_long --seeds 401 402 --out b.json
    python3 scripts/output_parity.py compare a.json b.json

    PYTHONPATH=A/src python3 scripts/output_parity.py dump --workload arima_css --order 1,1,2 \
        --seeds 401 --out a112.json

``compare`` prints, for each field group, how many numbers are bit for bit
equal, and the largest difference relative to the field's largest
magnitude (over every series). The labels (outlier positions and the
iterations that found them, iterations run, the final model's kind) and
``terminated_by`` must be equal: it exits 1 when they are not, or when
the two dumps are of different series or orders.
"""

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402  (numpy only: the benchmark's seeded series)

# The numeric field groups of one series' record, in print order. The standard errors are groups of
# their own: scaled by the largest number of the estimates (the SSE), a change in one would not show.
GROUPS = ("fit.estimates", "fit.std_errors", "fit.residuals", "outliers", "sigma_trail", "mse_trail",
          "corrected_series", "final.estimates", "final.std_errors", "final.residuals", "final.nested_sse")


def _estimates(fit) -> list:
    """Every scalar of an ``ArimaFit`` or an ``OlsResult`` but the standard errors, in a fixed order."""
    if hasattr(fit, "phi"):
        return [*fit.phi, *fit.theta, fit.intercept, fit.sigma2, fit.sse, fit.mse]
    return [*fit.coefficients, fit.sse, fit.mse, fit.df_residual]


def _std_errors(fit) -> list:
    """The coefficient standard errors of an ``ArimaFit`` or an ``OlsResult``."""
    return list(fit.coefficient_std_errors if hasattr(fit, "phi") else fit.std_errors)


def record(values: np.ndarray, order, critical: float) -> dict:
    """The labels and the field groups of one fit and detection run."""
    import aoarima

    series = aoarima.TimeSeries(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = aoarima.fit_arima(series, order, True)
        result = aoarima.detect_iterative(series, fit, aoarima.DetectionConfig(critical_value=critical))
    final = result.final_fit
    return {
        "labels": {
            "outliers": [[r.T, r.iteration] for r in result.outliers],
            "iterations_run": result.iterations_run,
            "final_kind": type(final).__name__,
            "terminated_by": result.terminated_by,
        },
        "fit.estimates": _estimates(fit),
        "fit.std_errors": _std_errors(fit),
        "fit.residuals": fit.residuals.values.tolist(),
        "outliers": [v for r in result.outliers for v in (r.omega_hat, r.lambda_hat, r.tau2)],
        "sigma_trail": list(result.sigma_trail),
        "mse_trail": list(result.mse_trail),
        "corrected_series": result.corrected_series.values.tolist(),
        "final.estimates": _estimates(final),
        "final.std_errors": _std_errors(final),
        "final.residuals": np.asarray(getattr(final.residuals, "values", final.residuals)).tolist(),
        "final.nested_sse": list(getattr(final, "_nested_sse", [])),
    }


def dump(args) -> int:
    import aoarima

    spec = inputs.WORKLOADS[args.workload]
    order = aoarima.ArimaOrder(*(args.order or spec["order"]))
    out = {"workload": args.workload, "order": [order.p, order.d, order.q], "aoarima": aoarima.__file__,
           "series": {}}
    for seed in args.seeds:
        for i, case in enumerate(inputs.make_cases(args.workload, seed)[:args.series]):
            out["series"][f"{seed}/{i}"] = record(case.values, order, spec["critical"])
    Path(args.out).write_text(json.dumps(out))
    print(f"wrote {len(out['series'])} series of {args.workload} at order {out['order']} "
          f"from {out['aoarima']} to {args.out}")
    return 0


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def compare(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    if (a["workload"], a["order"]) != (b["workload"], b["order"]) or a["series"].keys() != b["series"].keys():
        print(f"FAIL: the dumps are of different series or orders ({a['workload']} {a['order']}, "
              f"{b['workload']} {b['order']})")
        return 1
    mismatched = [key for key in a["series"] if a["series"][key]["labels"] != b["series"][key]["labels"]]
    print(f"{a['workload']} at order {a['order']}: {len(a['series'])} series; {args.a} against {args.b}")
    print(f"{'field group':<18}{'numbers':>10}{'bit-identical':>15}{'max |diff| / max |a|':>22}")
    for group in GROUPS:
        total = same = 0
        worst = 0.0
        for key, rec in a["series"].items():
            x, y = rec[group], b["series"][key][group]
            total += len(x)
            if len(x) != len(y) or not x:
                continue
            same += int(np.sum(_bits(x) == _bits(y)))
            scale = float(np.max(np.abs(x)))
            diff = float(np.max(np.abs(np.subtract(x, y))))
            worst = max(worst, diff / scale if scale else diff)
        print(f"{group:<18}{total:>10}{same:>15}{worst:>22.3g}")
    terminated = sum(a["series"][k]["labels"]["terminated_by"] == b["series"][k]["labels"]["terminated_by"]
                     for k in a["series"])
    print(f"labels equal on {len(a['series']) - len(mismatched)} of {len(a['series'])} series, "
          f"terminated_by on {terminated}")
    if mismatched:
        print(f"FAIL: labels or terminated_by differ on {', '.join(mismatched)}")
        return 1
    print("PASS")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write every number of the loop on a workload's series")
    d.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    d.add_argument("--order", type=lambda text: tuple(int(v) for v in text.split(",")), default=None,
                   metavar="P,D,Q", help="fit this order instead of the workload's")
    d.add_argument("--seeds", type=int, nargs="+", required=True, help="input seeds")
    d.add_argument("--series", type=int, default=None, help="only the first SERIES series of each seed")
    d.add_argument("--out", required=True, help="JSON file to write")
    c = sub.add_parser("compare", help="compare two dumps field group by field group")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args()
    return dump(args) if args.command == "dump" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
