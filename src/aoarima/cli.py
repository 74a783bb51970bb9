"""Command-line front end: fit, detect, and simulate subcommands.

Input CSVs carry one numeric column named ``value`` (header optional) or
two columns ``t,value``, whose consecutive integer ``t`` labels the
values; decimal points only. Reports are emitted as
text, JSON (schema documented in the README, ``schema_version`` 1), or
CSV tables. File writes go through a temp-file-then-rename onto the
resolved path, so a crash never leaves a half-written report; a device
or a pipe at that path is written in place.

Exit codes: 0 success, 2 input error (the CSV, or an option outside its
range), 3 model or math error (a series too short for the order or for a
Ljung-Box lag among them), 4 internal invariant violation.

Set ``AOARIMA_VERBOSE=1`` for progress notes on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .diagnostics import ks_normal, ljung_box
from .errors import AoArimaError, ParseError, RankError
from .estimation import ArimaFit, ArimaOrder, fit_arima
from .outliers import DetectionConfig, DetectionResult, detect_iterative
from .series import TimeSeries, acf, pacf
from .simulate import InjectionPlan, SimSpec, simulate, inject

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_INTERNAL = 4


def _note(msg: str) -> None:
    if os.environ.get("AOARIMA_VERBOSE", "") not in ("", "0"):
        print(msg, file=sys.stderr)


def _atomic_write(path: str, text: str) -> None:
    path = os.path.realpath(path)  # replace a link's target, not the link
    if os.path.exists(path) and not os.path.isfile(path):  # a device or a pipe: write in place
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:  # after a failed write or rename, leave no temp file behind
        if os.path.exists(tmp):
            os.remove(tmp)


def read_series_csv(path: str) -> TimeSeries:
    """Parse a one-column ``value`` or two-column ``t,value`` CSV.

    ``t`` must count up by one; its first value becomes the start index,
    so the series' labels are the file's.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    values = []
    ncols = start = None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if ncols is None:
            ncols = len(fields)
            if ncols not in (1, 2):
                raise ParseError(f"expected 1 or 2 columns, found {ncols}", lineno)
            header = [f.lower() for f in fields]
            if header == ["value"] or header == ["t", "value"]:
                continue  # optional header row
            if any(not _is_number(f) for f in fields):
                raise ParseError(
                    "header must be 'value' or 't,value' when the first row is not numeric",
                    lineno,
                )
        if len(fields) != ncols:
            raise ParseError(f"expected {ncols} columns, found {len(fields)}", lineno)
        if ncols == 2:
            try:
                t = int(fields[0])
            except ValueError:
                raise ParseError(f"t is not an integer: {fields[0]!r}", lineno) from None
            start = t if start is None else start
            if t != start + len(values):
                raise ParseError(f"t must count up by one: expected {start + len(values)}, got {t}", lineno)
        cell = fields[-1]
        if not _is_number(cell):
            raise ParseError(f"not a number: {cell!r}", lineno)
        values.append(float(cell))
    if not values:
        raise ParseError(f"no data rows in {path}")
    return TimeSeries(np.asarray(values), start_index=1 if start is None else start)


def _is_number(s: str) -> bool:
    try:
        v = float(s)
    except ValueError:
        return False
    return math.isfinite(v)


def _model_summary(fit: ArimaFit) -> dict:
    return {
        "intercept": float(fit.intercept),
        "phi": [float(v) for v in fit.phi],
        "theta": [float(v) for v in fit.theta],
        "std_errors": [float(v) for v in fit.coefficient_std_errors],
        "sigma2": float(fit.sigma2),
        "sse": float(fit.sse),
        "mse": float(fit.mse),
    }


def _collect_warnings(caught) -> list:
    return sorted({f"{w.category.__name__}: {w.message}" for w in caught})


def cmd_fit(args: argparse.Namespace) -> dict:
    """Fit a model and run the residual diagnostics; returns the report."""
    series = read_series_csv(args.input)
    _note(f"read {series.n} observations from {args.input}")
    order, with_intercept = args.order, not args.no_intercept
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_arima(series, order, with_intercept)
    _note(f"fitted order ({order.p},{order.d},{order.q})")
    lb = ljung_box(fit.residuals, args.lags, fitted_params=order.p + order.q)
    ks = ks_normal(fit.residuals)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "input": os.path.basename(args.input),
        "n": int(series.n),
        "order": {"p": order.p, "d": order.d, "q": order.q},
        "with_intercept": with_intercept,
        "model": _model_summary(fit),
        "ljung_box": [
            {"lag": int(h), "statistic": float(t.statistic), "df": int(t.df_or_n), "p_value": float(t.p_value)}
            for h, t in zip(args.lags, lb)
        ],
        "ks_normal": {
            "statistic": float(ks.statistic),
            "p_value": float(ks.p_value),
            "n": int(ks.df_or_n),
            "note": "approximate (parameters estimated from the sample)",
        },
        "warnings": _collect_warnings(caught),
    }
    if args.plots_dir:
        _emit_fit_plot_data(args.plots_dir, series, fit)
    return report


def cmd_detect(args: argparse.Namespace) -> dict:
    """Run iterative outlier detection and correction; returns the report."""
    # built before the warnings are caught: a CriticalValueWarning goes to stderr
    detection = DetectionConfig(
        critical_value=args.critical,
        max_outliers=args.max_outliers,
        max_iterations=args.max_iterations,
        refit_each_iteration=args.refit_each_iteration,
        scan_margin=args.scan_margin,
    )
    series = read_series_csv(args.input)
    _note(f"read {series.n} observations from {args.input}")
    order, with_intercept = args.order, not args.no_intercept
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_arima(series, order, with_intercept)
        result = detect_iterative(series, fit, detection)
    _note(f"{len(result.outliers)} outlier(s) in {result.iterations_run} iteration(s)")
    last_label = series.start_index + series.n - 1
    first, last = float(result.mse_trail[0]), float(result.mse_trail[-1])
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "detect",
        "input": os.path.basename(args.input),
        "n": int(series.n),
        "order": {"p": order.p, "d": order.d, "q": order.q},
        "with_intercept": with_intercept,
        "config": {
            "critical_value": float(detection.critical_value),
            "max_outliers": int(detection.max_outliers),
            "max_iterations": int(detection.max_iterations),
            "refit_each_iteration": bool(detection.refit_each_iteration),
            "scan_margin": detection.scan_margin,
        },
        "initial_model": _model_summary(fit),
        "outliers": [
            {
                "T": int(r.T),
                "omega_hat": float(r.omega_hat),
                "lambda_hat": float(r.lambda_hat),
                "tau2": float(r.tau2),
                "iteration": int(r.iteration),
                "edge": bool(r.T >= last_label - 1),
            }
            for r in result.outliers
        ],
        "sigma_trail": [float(s) for s in result.sigma_trail],
        "mse_trail": [float(m) for m in result.mse_trail],
        "improvement_pct": 100.0 * (first - last) / first if first != 0.0 else 0.0,
        "iterations_run": int(result.iterations_run),
        "terminated_by": result.terminated_by,
        "final_model": _final_model_summary(result),
        "corrected_series": [float(v) for v in result.corrected_series.values],
        "warnings": _collect_warnings(caught),
    }
    if args.corrected_output:
        _write_series_csv(args.corrected_output, result.corrected_series, with_labels=True)
        _note(f"wrote corrected series to {args.corrected_output}")
    if args.plots_dir:
        _emit_fit_plot_data(args.plots_dir, series, fit)
        _write_series_csv(
            os.path.join(args.plots_dir, "corrected.csv"), result.corrected_series, with_labels=True
        )
    return report


def _final_model_summary(result: DetectionResult) -> dict:
    final = result.final_fit
    if isinstance(final, ArimaFit):
        out = _model_summary(final)
        out["kind"] = "arima_css" if final.order.q else "arima_ols"
        return out
    k = len(result.outliers)
    coeffs = [float(c) for c in final.coefficients]
    return {
        "kind": "joint_ols",
        "coefficients": coeffs,
        "std_errors": [float(s) for s in final.std_errors],
        "omega_refined": coeffs[len(coeffs) - k:] if k else [],
        "sse": float(final.sse),
        "mse": float(final.mse),
        "df_residual": int(final.df_residual),
    }


def cmd_simulate(args: argparse.Namespace) -> None:
    """Generate a seeded series, optionally inject outliers, write a CSV."""
    spec = SimSpec(
        order=ArimaOrder(p=len(args.phi), d=args.d, q=len(args.theta)),
        n=args.n,
        seed=args.seed,
        phi=args.phi,
        theta=args.theta,
        intercept=args.intercept,
        sigma=args.sigma,
        burn_in=args.burn_in,
    )
    series = simulate(spec)
    if args.inject:
        series = inject(series, InjectionPlan(points=args.inject))
    _write_series_csv(args.output, series, with_labels=False)
    _note(f"wrote {series.n} simulated values to {args.output}")


def _write_series_csv(path: str, series: TimeSeries, with_labels: bool) -> None:
    if with_labels:
        lines = ["t,value"] + [
            f"{t},{float(v)!r}" for t, v in zip(series.labels(), series.values)
        ]
    else:
        lines = ["value"] + [repr(float(v)) for v in series.values]
    _atomic_write(path, "\n".join(lines) + "\n")


def _emit_fit_plot_data(plots_dir: str, series: TimeSeries, fit: ArimaFit) -> None:
    os.makedirs(plots_dir, exist_ok=True)
    max_lag = min(36, series.n // 2)
    for name, values in (("acf", acf(series, max_lag)), ("pacf", pacf(series, max_lag))):
        rows = [f"lag,{name}"] + [f"{k},{float(v)!r}" for k, v in enumerate(values)]
        _atomic_write(os.path.join(plots_dir, f"{name}.csv"), "\n".join(rows) + "\n")
    _write_series_csv(os.path.join(plots_dir, "residuals.csv"), fit.residuals, with_labels=True)


# ---------------------------------------------------------------- rendering


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


def _render_csv(report: dict) -> str:
    if report["command"] == "fit":
        rows = ["name,estimate,std_error"]
        for name, est, se in _coefficient_rows(report["model"], report["with_intercept"]):
            rows.append(f"{name},{est!r},{se!r}")
        return "\n".join(rows) + "\n"
    rows = ["T,omega_hat,lambda_hat,tau2,iteration,edge"]
    for rec in report["outliers"]:
        rows.append(
            f"{rec['T']},{rec['omega_hat']!r},{rec['lambda_hat']!r},"
            f"{rec['tau2']!r},{rec['iteration']},{int(rec['edge'])}"
        )
    return "\n".join(rows) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _coefficient_rows(model: dict, with_intercept: bool):
    """(name, estimate, std error) of each coefficient: intercept, ar1.., ma1.."""
    names = (["intercept"] if with_intercept else []) \
        + [f"ar{i+1}" for i in range(len(model["phi"]))] \
        + [f"ma{i+1}" for i in range(len(model["theta"]))]
    estimates = ([model["intercept"]] if with_intercept else []) + model["phi"] + model["theta"]
    return zip(names, estimates, model["std_errors"])


def _render_model_lines(model: dict, with_intercept: bool) -> list:
    lines = ["  coefficient   estimate      std error"]
    for name, est, se in _coefficient_rows(model, with_intercept):
        lines.append(f"  {name:<12}  {_fmt(est):>12}  {_fmt(se):>12}")
    lines.append(
        f"  sigma2 = {_fmt(model['sigma2'])}   mse = {_fmt(model['mse'])}   sse = {_fmt(model['sse'])}"
    )
    return lines


def _render_text(report: dict) -> str:
    lines = []
    order = report.get("order")
    if report["command"] == "fit":
        lines.append(
            f"Model fit: order ({order['p']},{order['d']},{order['q']}) on "
            f"{report['n']} observations from {report['input']}"
        )
        lines.extend(_render_model_lines(report["model"], report["with_intercept"]))
        lines.append("Ljung-Box residual autocorrelation test:")
        lines.append("  lag   statistic   df   p-value")
        for row in report["ljung_box"]:
            lines.append(
                f"  {row['lag']:<4}  {_fmt(row['statistic']):>9}   {row['df']:<3}  {_fmt(row['p_value'])}"
            )
        ks = report["ks_normal"]
        lines.append(
            f"Normality (Kolmogorov-Smirnov): D = {_fmt(ks['statistic'])}, "
            f"p = {_fmt(ks['p_value'])} [{ks['note']}]"
        )
    elif report["command"] == "detect":
        lines.append(
            f"Outlier detection: order ({order['p']},{order['d']},{order['q']}), "
            f"critical value {_fmt(report['config']['critical_value'])}, "
            f"{report['n']} observations from {report['input']}"
        )
        lines.append("Initial model:")
        lines.extend(_render_model_lines(report["initial_model"], report["with_intercept"]))
        if report["outliers"]:
            lines.append("Detected additive outliers:")
            lines.append("  T      omega_hat     lambda_hat    tau2      iteration")
            for rec in report["outliers"]:
                edge = "  [edge: low confidence]" if rec["edge"] else ""
                lines.append(
                    f"  {rec['T']:<5}  {_fmt(rec['omega_hat']):>10}  {_fmt(rec['lambda_hat']):>12}"
                    f"  {_fmt(rec['tau2']):>8}  {rec['iteration']:<4}{edge}"
                )
        else:
            lines.append("No additive outliers detected.")
        lines.append(f"Innovation scale by iteration: {', '.join(_fmt(s) for s in report['sigma_trail'])}")
        lines.append("MSE ladder (indicators added in detection order):")
        for i, m in enumerate(report["mse_trail"]):
            lines.append(f"  {i} outlier indicator(s): mse = {_fmt(m)}")
        lines.append(f"MSE improvement: {_fmt(report['improvement_pct'])}%")
        lines.append(
            f"Stopped after {report['iterations_run']} iteration(s): {report['terminated_by']}"
        )
        final = report["final_model"]
        if final["kind"] == "joint_ols":
            lines.append("Final joint regression (lags + outlier indicators):")
            lines.append(f"  coefficients: {', '.join(_fmt(c) for c in final['coefficients'])}")
            if final["omega_refined"]:
                lines.append(f"  refined magnitudes: {', '.join(_fmt(w) for w in final['omega_refined'])}")
            lines.append(f"  mse = {_fmt(final['mse'])}")
        else:
            lines.append("Final model refit on the corrected series:")
            lines.extend(_render_model_lines(final, report["with_intercept"]))
    if report.get("warnings"):
        lines.append("Warnings:")
        for w in report["warnings"]:
            lines.append(f"  {w}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- argument parsing


def _arg_type(parse):
    """An argparse type from ``parse``: its ValueError is a usage error (exit 2), not a crash."""
    def typed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from None
    return typed


def _number(kind=float, low=-math.inf, strict=False):
    """A finite ``kind`` of at least ``low``, or above it when ``strict``."""
    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value):
            raise ValueError("not a finite number")
        if value < low or (strict and value == low):
            raise ValueError(f"must be {'above' if strict else 'at least'} {low}")
        return value
    return _arg_type(parse)


def _list(parse, least: int = 0):
    """A comma-separated list of at least ``least`` ``parse`` values; blank items are skipped."""
    def parse_all(text: str) -> tuple:
        values = tuple(parse(v) for v in text.split(",") if v.strip())
        if len(values) < least:
            raise ValueError(f"need at least {least} value(s)")
        return values
    return _arg_type(parse_all)


@_arg_type
def _parse_order(text: str) -> ArimaOrder:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("order must be three comma-separated integers p,d,q")
    order = ArimaOrder(*(int(v) for v in parts))
    if order.p + order.q == 0:
        raise ValueError("a model needs p + q >= 1")
    return order


def _parse_injection(chunk: str) -> tuple:
    if ":" not in chunk:
        raise ValueError("an injection must look like T:omega")
    t, w = chunk.split(":", 1)
    return int(t), _number()(w)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoarima",
        description="ARIMA fitting with additive-outlier detection and correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="input CSV (one 'value' column or 't,value')")
        p.add_argument("--order", required=True, type=_parse_order, help="model order p,d,q")
        p.add_argument("--no-intercept", action="store_true", help="suppress the regression constant")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--plots-dir", help="directory for tidy plot-data CSVs")

    fit = sub.add_parser("fit", help="fit a model and run residual diagnostics")
    add_common(fit)
    fit.add_argument("--lags", type=_list(_number(int, 1), least=1), default=(12, 24, 36),
                     help="Ljung-Box lags (default 12,24,36)")

    det = sub.add_parser("detect", help="detect and correct additive outliers")
    add_common(det)
    det.add_argument("--critical", type=_number(float, 0.0, strict=True), default=3.0,
                     help="detection threshold (default 3.0)")
    det.add_argument("--max-outliers", type=_number(int, 1), default=10)
    det.add_argument("--max-iterations", type=_number(int, 1), default=20)
    det.add_argument("--refit-each-iteration", action="store_true",
                     help="re-estimate the model after every detection (off: keep initial weights)")
    det.add_argument("--scan-margin", type=_number(int, 0), default=None,
                     help="positions excluded at the start of the scan (default: the AR order)")
    det.add_argument("--corrected-output", help="write the corrected series CSV here")

    sim = sub.add_parser("simulate", help="generate a seeded series as CSV")
    sim.add_argument("--n", required=True, type=_number(int, 1), help="series length")
    sim.add_argument("--seed", required=True, type=int, help="generator seed")
    sim.add_argument("--phi", type=_list(_number()), default=(), help="AR coefficients a,b,...")
    sim.add_argument("--theta", type=_list(_number()), default=(), help="MA coefficients a,b,...")
    sim.add_argument("--d", type=int, choices=(0, 1, 2), default=0, help="integration order")
    sim.add_argument("--intercept", type=_number(), default=0.0)
    sim.add_argument("--sigma", type=_number(float, 0.0), default=1.0, help="innovation standard deviation")
    sim.add_argument("--burn-in", type=_number(int, 0), default=None)
    sim.add_argument("--inject", type=_list(_parse_injection), default=(),
                     help="additive outliers to plant, e.g. '98:8,162:-6'")
    sim.add_argument("--output", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":  # the labels' range depends on --n, so no argparse type can check it
        labels = [t for t, _ in args.inject]
        if len(set(labels)) != len(labels) or not all(1 <= t <= args.n for t in labels):
            parser.error(f"argument --inject: labels must be distinct and within [1, {args.n}]")
    try:
        if args.command == "fit":
            report = cmd_fit(args)
        elif args.command == "detect":
            report = cmd_detect(args)
        else:
            cmd_simulate(args)
            return EXIT_OK
        text = render_report(report, args.format)
        if args.output:
            _atomic_write(args.output, text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.no_intercept:
            hint = "the model fits the series exactly, so its coefficients are not identified"
        else:
            hint = "a rank-deficient design often means a constant input column; try --no-intercept"
        print(f"hint: {hint}; check the input file", file=sys.stderr)
        return EXIT_MODEL
    except AoArimaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
