"""The scripts are the only non-test callers of the public API: run each in a fresh interpreter."""

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
])
def test_script_runs(script, args, expected):
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for text in expected:
        assert text in proc.stdout
