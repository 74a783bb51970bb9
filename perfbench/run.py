"""The aoarima benchmark: three workloads, measured end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists is in BENCHMARK.json and perfbench/README.md):

* ``cli_cold``  -- each operation is a fresh ``python -m aoarima.cli`` on the
  bundled demo CSV, alternating ``detect --order 2,0,0`` and
  ``fit --order 1,0,1``. The seed is unused: the input is the frozen,
  golden-checked fixture.
* ``ar_long``   -- in-process ``fit_arima`` + ``detect_iterative`` on AR(2),
  n = 20 000, 8 planted outliers, c = 5.0.
* ``arima_css`` -- the same on ARIMA(1,1,1), n = 2 000, 4 planted, c = 4.5.

Every workload is a closed loop with one client and BLAS/OpenMP pinned to
one thread. Set-up is done ``SETUPS`` times per run (fresh interpreters)
and reported as a median; the in-process workloads split the measured
seconds across those interpreters. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones. The last line of stdout is one
JSON object; the lines before it are the run record and a readable table.
Spans and samples are written to ``.perfbench-out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEMO_CSV = SRC / "aoarima" / "data" / "demo_series.csv"
GOLDEN = ROOT / "tests" / "data" / "detect_golden.json"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("cli_cold", "ar_long", "arima_css")
SETUPS = 5
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
CLI_COMMANDS = {"detect": ("detect", "2,0,0"), "fit": ("fit", "1,0,1")}
DEMO_PLANTED = {98, 162, 180}  # labels of the outliers planted in the demo CSV
GOLDEN_RTOL = 1e-12  # the golden-report policy in ROADMAP.md
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AOARIMA_") and k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def tail(samples) -> tuple:
    """(value, percentile, beyond): the highest percentile with 10 samples beyond it.

    With fewer than 20 samples that percentile would fall below the
    median, so the median is returned instead, with the count beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return statistics.median(xs), 50.0, n // 2


# ---------------------------------------------------------------- checks


def golden_mismatch(got, want, where="report"):
    """First difference from the golden report, or None.

    Structure, strings and booleans must match exactly (so the detected
    labels and ``terminated_by`` do); numbers within 1e-12 relative.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{where}: keys differ from the golden report"
        for key in want:
            found = golden_mismatch(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length differs from the golden report"
        for i, (g, w) in enumerate(zip(got, want)):
            found = golden_mismatch(g, w, f"{where}[{i}]")
            if found:
                return found
        return None
    numbers = isinstance(want, (int, float)) and not isinstance(want, bool) \
        and isinstance(got, (int, float)) and not isinstance(got, bool)
    if numbers and abs(got - want) <= GOLDEN_RTOL * max(abs(got), abs(want)):
        return None
    if not numbers and type(got) is type(want) and got == want:
        return None
    return f"{where}: {got!r} differs from the golden {want!r}"


def check_cli(kind: str, code: int, path: Path, golden: dict):
    """(problem or None, report) for one CLI invocation."""
    if code != 0:
        return f"{kind} exited with code {code}", None
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"{kind}: unreadable report: {exc}", None
    if kind == "detect":
        return golden_mismatch(report, golden), report
    model = report.get("model", {})
    coefs = [model.get("intercept"), *model.get("phi", []), *model.get("theta", [])]
    if not all(isinstance(v, float) and math.isfinite(v) for v in coefs):
        return "fit: coefficients are missing or not finite", report
    return None, report


# ---------------------------------------------------------------- workloads


def run_cli_cold(seconds: float, trace: bool, env: dict, work: Path) -> dict:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    report_path = work / "report.json"
    spans_path = work / "spans.json"

    def invoke(kind: str, traced: bool):
        command, order = CLI_COMMANDS[kind]
        args = [command, "--input", str(DEMO_CSV), "--order", order,
                "--format", "json", "--output", str(report_path)]
        if traced:
            argv = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "aoarima.cli", *args]
        report_path.unlink(missing_ok=True)
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        elapsed = perf_counter() - t0
        problem, report = check_cli(kind, proc.returncode, report_path, golden)
        traced_data = None
        if traced and problem is None:
            traced_data = json.loads(spans_path.read_text(encoding="utf-8"))
            traced_data["import"] = tracing.parse_importtime(proc.stderr)
            traced_data["report"] = report
            if SRC not in Path(traced_data["aoarima_file"]).resolve().parents:
                problem = f"aoarima was imported from {traced_data['aoarima_file']}, not from {SRC}"
        return elapsed, problem, traced_data

    errors = []
    setups = []
    for _ in range(SETUPS):
        elapsed, problem, _ = invoke("detect", False)
        setups.append(elapsed)
        if problem:
            errors.append(f"warm-up: {problem}")
    warmup_failed = bool(errors)

    plan = [("detect", False), ("fit", False)]
    if trace:
        plan = [("detect", False), ("detect", True), ("fit", False), ("fit", True)]
    samples = {"detect": [], "fit": []}
    traced_runs = []
    attempted = failed = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        kind, traced = plan[attempted % len(plan)]
        elapsed, problem, traced_data = invoke(kind, traced)
        attempted += 1
        if problem:
            failed += 1
            if len(errors) < 3:
                errors.append(problem)
        if not traced:
            samples[kind].append(elapsed)
        elif traced_data is not None:
            traced_runs.append((kind, elapsed, traced_data))
    elapsed = perf_counter() - start
    ops = samples["detect"] + samples["fit"]
    out = {
        "attempted": attempted, "failed": failed, "errors": errors, "warmup_failed": warmup_failed,
        "setup_samples_s": setups,
        "ops_per_s": len(ops) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
        "op_s": ops, "detect_s": samples["detect"], "fit_s": samples["fit"],
    }
    if trace:
        out.update(_cli_layers(ops, traced_runs))
    return out


def _cli_layers(untraced_ops, traced_runs) -> dict:
    """Per-layer numbers of cli_cold: means per invocation, counts from the
    first traced detect and fit (the fixture makes them repeat exactly)."""
    layers = {}
    if not traced_runs:
        return {"layers": layers, "fn_table": {}, "traced_ops": 0}
    n = len(traced_runs)
    summaries = [data["summary"] for _, _, data in traced_runs]
    layer_s = _sum_dicts(s["layer_s"] for s in summaries)
    for name, total in layer_s.items():
        layers[name] = total * 1e3 / n
    for name in tracing.parse_importtime(""):
        layers[name] = statistics.median(data["import"][name] for _, _, data in traced_runs)
    firsts = {}
    for kind, _, data in traced_runs:
        firsts.setdefault(kind, data)
    layers.update(_counts([d["summary"] for d in firsts.values()],
                          [d["modules"] for d in firsts.values()], len(firsts)))
    found = {o["T"] for o in firsts["detect"]["report"]["outliers"]} if "detect" in firsts else set()
    layers["outliers.detected"] = len(found)
    layers["outliers.useful_ratio"] = len(found & DEMO_PLANTED) / len(found) if found else 0.0
    layers["trace.overhead_ms"] = 1e3 * (statistics.median(e for _, e, _ in traced_runs)
                                         - statistics.median(untraced_ops))
    return {
        "layers": layers,
        "fn_table": _fn_table(summaries, n),
        "traced_ops": n,
        "spans": [data["spans"] for _, _, data in traced_runs],
    }


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, env: dict, work: Path) -> dict:
    workers = []
    for k in range(SETUPS):
        argv = [sys.executable, *(["-X", "importtime"] if trace else []), str(HERE / "worker.py"),
                workload, str(seed), repr(seconds / SETUPS), "1" if trace else "0"]
        err_path = work / f"worker{k}.err"
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = perf_counter()
            with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=err, text=True) as proc:
                ready = proc.stdout.readline()
                ready_at = perf_counter()
                try:
                    rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    raise
        stderr = err_path.read_text(encoding="utf-8")
        if proc.returncode != 0 or not ready.startswith("READY "):
            raise RuntimeError(f"worker {k} failed (exit {proc.returncode}):\n{stderr[-3000:]}")
        result = json.loads(rest.strip().splitlines()[-1])
        result["setup_s"] = ready_at - t0 - float(ready.split()[1])
        if trace:
            result["import"] = tracing.parse_importtime(stderr)
        workers.append(result)

    ops = [x for w in workers for x in w["op_s"]]
    errors = [e for w in workers for e in w["errors"]][:3]
    out = {
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "errors": errors,
        "warmup_failed": any(w["warmup_failed"] for w in workers),
        "setup_samples_s": [w["setup_s"] for w in workers],
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ops_per_s": len(ops) / sum(w["elapsed_s"] for w in workers),
        "op_s": ops,
        "detect_s": [x for w in workers for x in w["detect_s"]],
        "fit_s": [x for w in workers for x in w["fit_s"]],
    }
    if trace:
        out.update(_in_process_layers(workers, ops))
    return out


def _in_process_layers(workers, untraced_ops) -> dict:
    traced = [x for w in workers for x in w["traced_op_s"]]
    n = len(traced)
    if not n:
        return {"layers": {}, "fn_table": {}, "traced_ops": 0}
    layers = {name: total * 1e3 / n
              for name, total in _sum_dicts(w["times"]["layer_s"] for w in workers).items()}
    for name in tracing.parse_importtime(""):
        layers[name] = statistics.median(w["import"][name] for w in workers)
    # Counts come from one worker's first traced operation on each of the
    # first series, so they repeat exactly for a seed.
    w = max(workers, key=lambda w: w["count_ops"])
    layers.update(_counts([w["counts"]], [w["modules"]], w["count_ops"]))
    layers["outliers.detected"] = w["detected"] / w["count_ops"]
    layers["outliers.useful_ratio"] = w["useful"] / w["detected"] if w["detected"] else 0.0
    layers["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(untraced_ops))
    return {
        "layers": layers,
        "fn_table": _fn_table([w["times"] for w in workers], n),
        "traced_ops": n,
        "spans": [w["spans"] for w in workers],
    }


def _sum_dicts(dicts) -> dict:
    total = {}
    for d in dicts:
        for k, v in d.items():
            total[k] = total.get(k, 0) + v
    return total


def _counts(summaries, modules, ops) -> dict:
    """Per-operation counts, and the computed scan kernel length and MACs."""
    counts = _sum_dicts(s["counts"] for s in summaries)
    out = {name: counts.get(name, 0) / ops for name in tracing.CALL_COUNTS.values()}
    scans = counts.get("outliers.scan_calls", 0)
    out["outliers.scan_kernel_len"] = (sum(s["kernel_len_sum"] for s in summaries) / scans
                                       if scans else 0.0)
    out["outliers.scan_macs"] = sum(s["scan_macs"] for s in summaries) / ops
    for name in ("import.modules_loaded", "import.scipy_modules"):
        out[name] = statistics.mean(m[name] for m in modules)
    return out


def _fn_table(summaries, ops) -> dict:
    """Self ms and calls per operation for every traced function."""
    self_s = _sum_dicts(s["fn_self_s"] for s in summaries)
    calls = _sum_dicts(s["fn_calls"] for s in summaries)
    return {name: (self_s[name] * 1e3 / ops, calls[name] / ops) for name in self_s}


# ---------------------------------------------------------------- report


def run_record(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_rev": rev, "src_lines": src_lines,
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": os.cpu_count(), "pinned_cpu": max(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV, "setups": SETUPS,
    }


def end_to_end(res: dict) -> dict:
    return {
        "setup_s": res["setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "op_p50_ms": 1e3 * statistics.median(res["op_s"]),
        "op_tail_ms": 1e3 * tail(res["op_s"])[0],
        "ops_per_s": res["ops_per_s"],
        "detect_p50_s": statistics.median(res["detect_s"]),
        "fit_p50_s": statistics.median(res["fit_s"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    missing = [p for p in (SRC / "aoarima" / "__init__.py", DEMO_CSV, GOLDEN, ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print("perfbench: not an aoarima checkout; missing " + ", ".join(map(str, missing)),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trace = bool(args.trace)

    # One client on one CPU: the run and every process it starts share the
    # highest-numbered CPU this process may use.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.workload == "cli_cold":
            res = run_cli_cold(args.seconds, trace, env, work)
        else:
            res = run_in_process(args.workload, args.seed, args.seconds, trace, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = res["layers"] if trace else end_to_end(res) if res["op_s"] else {}
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    unmeasured = [m["name"] for m in listed if m["name"] not in values]
    if unmeasured:
        print("perfbench: no completed operation to measure "
              f"{', '.join(unmeasured)}; errors: {res['errors']}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    record = run_record(args)
    correct = res["failed"] == 0 and not res["warmup_failed"]

    for key, value in record.items():
        print(f"# {key}: {value}")
    for err in res["errors"]:
        print(f"# error: {err}")
    print(f"# fail_ratio: {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    if not trace:
        value, pct, beyond = tail(res["op_s"])
        print(f"# op_tail_ms is p{pct:.1f} of {len(res['op_s'])} operations ({beyond} beyond it)")
        print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in res['setup_samples_s'])}")
    else:
        print(f"# per-function self time over {res['traced_ops']} traced operations:")
        for name, (ms, calls) in sorted(res["fn_table"].items(), key=lambda kv: -kv[1][0]):
            print(f"#   {name:<32} {ms:12.4f} ms/op {calls:10.3f} calls/op")
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:>16.6f} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    dump = {"record": record, "correct": correct, "metrics": metrics,
            **{k: res[k] for k in ("attempted", "failed", "errors", "setup_samples_s", "op_s",
                                   "detect_s", "fit_s")}}
    if trace:
        dump["functions"] = res["fn_table"]
        dump["spans"] = res["spans"]
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(dump), encoding="utf-8")
    print(f"# written: {out_file.relative_to(ROOT)}")

    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
