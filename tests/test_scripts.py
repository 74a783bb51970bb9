"""The scripts are the only non-test callers of the public API: run each in a fresh interpreter."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args, expected", [
    ("run_demo.py", [], ["T = 98", "T = 162", "T = 180"]),
    ("pick_demo_seed.py", [], ["frozen seed 20180967"]),
    ("threshold_study.py", ["--seeds", "5", "--critical", "3.0"], []),
    ("css_parity.py", ["--seeds", "3"], ["PASS"]),
    ("detect_stages.py", ["--workload", "arima_css", "--ops", "3"],
     ["outliers.scan ", "minor faults/call", "operation "]),
])
def test_script_runs(script, args, expected):
    proc = run(script, *args)
    assert proc.returncode == 0, proc.stderr
    for text in expected:
        assert text in proc.stdout


def run(script, *args):
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )


def test_output_parity_of_two_dumps(tmp_path):
    dumps = [str(tmp_path / f"{name}.json") for name in "ab"]
    for out in dumps:
        proc = run("output_parity.py", "dump", "--workload", "arima_css", "--seeds", "401",
                   "--series", "4", "--out", out)
        assert proc.returncode == 0, proc.stderr
    proc = run("output_parity.py", "compare", *dumps)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "labels equal on 4 of 4 series, terminated_by on 4" in proc.stdout
    assert "PASS" in proc.stdout
    rows = [line.split() for line in proc.stdout.splitlines() if line.startswith(("fit.", "outliers"))]
    assert rows and all(row[1] == row[2] for row in rows)  # every number bit-identical
    record = json.loads(open(dumps[1]).read())
    record["series"]["401/2"]["labels"]["terminated_by"] = "max_iterations"
    with open(dumps[1], "w") as fh:
        json.dump(record, fh)
    proc = run("output_parity.py", "compare", *dumps)
    assert proc.returncode == 1 and "FAIL: labels or terminated_by differ on 401/2" in proc.stdout


def test_output_parity_at_a_given_order(tmp_path):
    # q = 2 searches theta by a bounded least-squares solve, a path no workload order takes
    dumps = [str(tmp_path / f"{name}.json") for name in "ab"]
    for out in dumps:
        proc = run("output_parity.py", "dump", "--workload", "arima_css", "--order", "1,1,2", "--seeds", "401",
                   "--series", "2", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "at order [1, 1, 2]" in proc.stdout
    proc = run("output_parity.py", "compare", *dumps)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "labels equal on 2 of 2 series, terminated_by on 2" in proc.stdout
    record = json.loads(open(dumps[0]).read())
    # phi, theta_1, theta_2, intercept, sigma2, sse and mse of the (1,1,2) fit, and its four standard errors
    assert len(record["series"]["401/0"]["fit.estimates"]) == 7
    assert len(record["series"]["401/0"]["fit.std_errors"]) == 4
    record["order"] = [1, 1, 1]
    with open(dumps[1], "w") as fh:
        json.dump(record, fh)
    proc = run("output_parity.py", "compare", *dumps)
    assert proc.returncode == 1 and "FAIL: the dumps are of different series or orders" in proc.stdout
