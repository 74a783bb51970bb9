"""Command-line front end: fit, detect, and simulate subcommands.

Input CSVs carry one numeric column named ``value`` (header optional) or
two columns ``t,value``; decimal points only. Reports are emitted as
text, JSON (schema documented in the README, ``schema_version`` 1), or
CSV tables. All file writes go through a temp-file-then-rename so a
crash never leaves a half-written report.

Exit codes: 0 success, 2 input error, 3 model or math error,
4 internal invariant violation.

Set ``AOARIMA_VERBOSE=1`` for progress notes on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import comparison_table, ks_normal, ljung_box
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


@dataclass
class RunConfig:
    """Parsed invocation of one subcommand."""

    command: str
    input: str | None = None
    order: ArimaOrder | None = None
    with_intercept: bool = True
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    format: str = "text"
    output: str | None = None
    corrected_output: str | None = None
    plots_dir: str | None = None
    lags: tuple = (12, 24, 36)
    # simulate-only fields
    n: int = 0
    seed: int = 0
    phi: tuple = ()
    theta: tuple = ()
    d: int = 0
    intercept: float = 0.0
    sigma: float = 1.0
    burn_in: int | None = None
    injections: tuple = ()


def _verbose() -> bool:
    return os.environ.get("AOARIMA_VERBOSE", "") not in ("", "0")


def _note(msg: str) -> None:
    if _verbose():
        print(msg, file=sys.stderr)


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_series_csv(path: str) -> TimeSeries:
    """Parse a one-column ``value`` or two-column ``t,value`` CSV."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    values = []
    ncols = None
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
        cell = fields[-1]
        if not _is_number(cell):
            raise ParseError(f"not a number: {cell!r}", lineno)
        values.append(float(cell))
    if not values:
        raise ParseError(f"no data rows in {path}")
    return TimeSeries(np.asarray(values))


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


def cmd_fit(config: RunConfig) -> dict:
    """Fit a model and run the residual diagnostics; returns the report."""
    series = read_series_csv(config.input)
    _note(f"read {series.n} observations from {config.input}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_arima(series, config.order, config.with_intercept)
    _note(f"fitted order ({config.order.p},{config.order.d},{config.order.q})")
    lb = ljung_box(fit.residuals, config.lags, fitted_params=config.order.p + config.order.q)
    ks = ks_normal(fit.residuals)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "input": os.path.basename(config.input),
        "n": int(series.n),
        "order": {"p": config.order.p, "d": config.order.d, "q": config.order.q},
        "with_intercept": bool(config.with_intercept),
        "model": _model_summary(fit),
        "ljung_box": [
            {"lag": int(h), "statistic": float(t.statistic), "df": int(t.df_or_n), "p_value": float(t.p_value)}
            for h, t in zip(config.lags, lb)
        ],
        "ks_normal": {
            "statistic": float(ks.statistic),
            "p_value": float(ks.p_value),
            "n": int(ks.df_or_n),
            "note": "approximate (parameters estimated from the sample)",
        },
        "warnings": _collect_warnings(caught),
    }
    if config.plots_dir:
        _emit_fit_plot_data(config.plots_dir, series, fit)
    return report


def cmd_detect(config: RunConfig) -> dict:
    """Run iterative outlier detection and correction; returns the report."""
    series = read_series_csv(config.input)
    _note(f"read {series.n} observations from {config.input}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_arima(series, config.order, config.with_intercept)
        result = detect_iterative(series, fit, config.detection)
    _note(f"{len(result.outliers)} outlier(s) in {result.iterations_run} iteration(s)")
    last_label = series.start_index + series.n - 1
    ladder = comparison_table(
        [(f"{i} indicator(s)", _MseOnly(m)) for i, m in enumerate(result.mse_trail)]
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "detect",
        "input": os.path.basename(config.input),
        "n": int(series.n),
        "order": {"p": config.order.p, "d": config.order.d, "q": config.order.q},
        "with_intercept": bool(config.with_intercept),
        "config": {
            "critical_value": float(config.detection.critical_value),
            "max_outliers": int(config.detection.max_outliers),
            "max_iterations": int(config.detection.max_iterations),
            "refit_each_iteration": bool(config.detection.refit_each_iteration),
            "scan_margin": config.detection.scan_margin,
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
        "improvement_pct": float(ladder.improvement_pct),
        "iterations_run": int(result.iterations_run),
        "terminated_by": result.terminated_by,
        "final_model": _final_model_summary(result),
        "corrected_series": [float(v) for v in result.corrected_series.values],
        "warnings": _collect_warnings(caught),
    }
    if config.corrected_output:
        _write_series_csv(config.corrected_output, result.corrected_series, with_labels=True)
        _note(f"wrote corrected series to {config.corrected_output}")
    if config.plots_dir:
        _emit_fit_plot_data(config.plots_dir, series, fit)
        _write_series_csv(
            os.path.join(config.plots_dir, "corrected.csv"), result.corrected_series, with_labels=True
        )
    return report


class _MseOnly:
    """Adapter handing a bare mean squared error to the comparison ladder."""

    def __init__(self, mse: float):
        self.mse = mse


def _final_model_summary(result: DetectionResult) -> dict:
    final = result.final_fit
    if isinstance(final, ArimaFit):
        out = _model_summary(final)
        out["kind"] = "arima_css"
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


def cmd_simulate(config: RunConfig) -> dict:
    """Generate a seeded series, optionally inject outliers, write a CSV."""
    order = ArimaOrder(p=len(config.phi), d=config.d, q=len(config.theta))
    spec = SimSpec(
        order=order,
        n=config.n,
        seed=config.seed,
        phi=config.phi,
        theta=config.theta,
        intercept=config.intercept,
        sigma=config.sigma,
        burn_in=config.burn_in,
    )
    series = simulate(spec)
    if config.injections:
        series = inject(series, InjectionPlan(points=config.injections))
    _write_series_csv(config.output, series, with_labels=False)
    _note(f"wrote {series.n} simulated values to {config.output}")
    return {"command": "simulate", "n": series.n, "output": config.output}


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
    a = acf(series, max_lag)
    p = pacf(series, max_lag)
    _atomic_write(
        os.path.join(plots_dir, "acf.csv"),
        "\n".join(["lag,acf"] + [f"{k},{float(v)!r}" for k, v in enumerate(a)]) + "\n",
    )
    _atomic_write(
        os.path.join(plots_dir, "pacf.csv"),
        "\n".join(["lag,pacf"] + [f"{k},{float(v)!r}" for k, v in enumerate(p)]) + "\n",
    )
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


def _parse_order(text: str) -> ArimaOrder:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("order must be three comma-separated integers p,d,q")
    try:
        p, d, q = (int(v) for v in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad order {text!r}: {exc}") from None
    try:
        return ArimaOrder(p, d, q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_float_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}: {exc}") from None


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lag list {text!r}: {exc}") from None


def _parse_injections(text: str) -> tuple:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise argparse.ArgumentTypeError(f"injection {chunk!r} must look like T:omega")
        t, w = chunk.split(":", 1)
        try:
            out.append((int(t), float(w)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad injection {chunk!r}: {exc}") from None
    return tuple(out)


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
    fit.add_argument("--lags", type=_parse_int_list, default=(12, 24, 36),
                     help="Ljung-Box lags (default 12,24,36)")

    det = sub.add_parser("detect", help="detect and correct additive outliers")
    add_common(det)
    det.add_argument("--critical", type=float, default=3.0, help="detection threshold (default 3.0)")
    det.add_argument("--max-outliers", type=int, default=10)
    det.add_argument("--max-iterations", type=int, default=20)
    det.add_argument("--refit-each-iteration", action="store_true",
                     help="re-estimate the model after every detection (off: keep initial weights)")
    det.add_argument("--scan-margin", type=int, default=None,
                     help="positions excluded at the start of the scan (default: the AR order)")
    det.add_argument("--corrected-output", help="write the corrected series CSV here")

    sim = sub.add_parser("simulate", help="generate a seeded series as CSV")
    sim.add_argument("--n", required=True, type=int, help="series length")
    sim.add_argument("--seed", required=True, type=int, help="generator seed")
    sim.add_argument("--phi", type=_parse_float_list, default=(), help="AR coefficients a,b,...")
    sim.add_argument("--theta", type=_parse_float_list, default=(), help="MA coefficients a,b,...")
    sim.add_argument("--d", type=int, default=0, help="integration order")
    sim.add_argument("--intercept", type=float, default=0.0)
    sim.add_argument("--sigma", type=float, default=1.0, help="innovation standard deviation")
    sim.add_argument("--burn-in", type=int, default=None)
    sim.add_argument("--inject", type=_parse_injections, default=(),
                     help="additive outliers to plant, e.g. '98:8,162:-6'")
    sim.add_argument("--output", required=True, help="output CSV path")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.command in ("fit", "detect"):
        cfg.input = args.input
        cfg.order = args.order
        cfg.with_intercept = not args.no_intercept
        cfg.format = args.format
        cfg.output = args.output
        cfg.plots_dir = args.plots_dir
        if args.command == "fit":
            cfg.lags = args.lags
        else:
            cfg.detection = DetectionConfig(
                critical_value=args.critical,
                max_outliers=args.max_outliers,
                max_iterations=args.max_iterations,
                refit_each_iteration=args.refit_each_iteration,
                scan_margin=args.scan_margin,
            )
            cfg.corrected_output = args.corrected_output
    else:
        cfg.n = args.n
        cfg.seed = args.seed
        cfg.phi = args.phi
        cfg.theta = args.theta
        cfg.d = args.d
        cfg.intercept = args.intercept
        cfg.sigma = args.sigma
        cfg.burn_in = args.burn_in
        cfg.injections = args.inject
        cfg.output = args.output
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "fit":
            report = cmd_fit(config)
        elif args.command == "detect":
            report = cmd_detect(config)
        else:
            cmd_simulate(config)
            return EXIT_OK
        text = render_report(report, config.format)
        if config.output:
            _atomic_write(config.output, text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: a rank-deficient design often means a constant input column; "
            "try --no-intercept or check the input file",
            file=sys.stderr,
        )
        return EXIT_MODEL
    except AoArimaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
