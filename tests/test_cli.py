import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import aoarima
from aoarima import ParseError
from aoarima.cli import (
    EXIT_INPUT,
    EXIT_MODEL,
    EXIT_OK,
    main,
    read_series_csv,
)


def demo_csv() -> str:
    return str(resources.files("aoarima") / "data" / "demo_series.csv")


class TestReadSeriesCsv:
    def test_plain_column_without_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.5\n2.5\n3.5\n")
        assert read_series_csv(str(p)).values.tolist() == [1.5, 2.5, 3.5]

    def test_header_and_blank_lines(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("value\n\n1.0\n2.0\n\n")
        assert read_series_csv(str(p)).values.tolist() == [1.0, 2.0]

    def test_two_column_form(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("t,value\n1,10.0\n2,11.0\n")
        assert read_series_csv(str(p)).values.tolist() == [10.0, 11.0]

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("value\n1.0\noops\n")
        with pytest.raises(ParseError) as err:
            read_series_csv(str(p))
        assert err.value.line == 3

    def test_rejects_unknown_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(ParseError):
            read_series_csv(str(p))

    def test_rejects_non_finite(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("value\ninf\n")
        with pytest.raises(ParseError):
            read_series_csv(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            read_series_csv(str(p))


class TestFitCommand:
    def test_fit_report_has_two_ar_coefficients(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "fit", "--input", demo_csv(), "--order", "2,0,0",
            "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert len(report["model"]["phi"]) == 2
        assert len(report["ljung_box"]) == 3
        assert report["ks_normal"]["p_value"] < 0.05  # contaminated demo fails normality

    def test_empty_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert main(["fit", "--input", str(p), "--order", "2,0,0"]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_constant_column_exits_3_with_hint(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        p.write_text("value\n" + "5.0\n" * 30)
        assert main(["fit", "--input", str(p), "--order", "1,0,0"]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert "hint" in err

    def test_plot_data_emitted(self, tmp_path):
        plots = tmp_path / "plots"
        code = main([
            "fit", "--input", demo_csv(), "--order", "2,0,0",
            "--output", str(tmp_path / "r.txt"), "--plots-dir", str(plots),
        ])
        assert code == EXIT_OK
        for name in ("acf.csv", "pacf.csv", "residuals.csv"):
            text = (plots / name).read_text().splitlines()
            assert len(text) > 2 and "," in text[0]

    def test_json_round_trip_preserves_numbers(self, tmp_path):
        out = tmp_path / "report.json"
        main([
            "fit", "--input", demo_csv(), "--order", "2,0,0",
            "--format", "json", "--output", str(out),
        ])
        report = json.loads(out.read_text())
        re_emitted = json.dumps(report, indent=2) + "\n"
        assert re_emitted == out.read_text()


class TestDetectCommand:
    def test_detect_finds_demo_outliers(self, tmp_path):
        out = tmp_path / "detect.json"
        code = main([
            "detect", "--input", demo_csv(), "--order", "2,0,0",
            "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert [r["T"] for r in report["outliers"]] == [98, 162, 180]
        assert report["improvement_pct"] > 40.0
        ladder = report["mse_trail"]
        assert all(b < a for a, b in zip(ladder, ladder[1:]))
        assert report["terminated_by"] == "no_candidate"
        assert not any(r["edge"] for r in report["outliers"])

    def test_clean_series_yields_empty_table(self, tmp_path):
        clean = tmp_path / "clean.csv"
        assert main([
            "simulate", "--n", "200", "--seed", "424200", "--phi", "0.2237,0.4282",
            "--output", str(clean),
        ]) == EXIT_OK
        out = tmp_path / "detect.json"
        code = main([
            "detect", "--input", str(clean), "--order", "2,0,0",
            "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["outliers"] == []
        assert report["improvement_pct"] == 0.0

    def test_huge_critical_value_detects_nothing(self, tmp_path, recwarn):
        out = tmp_path / "detect.json"
        code = main([
            "detect", "--input", demo_csv(), "--order", "2,0,0",
            "--critical", "100", "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["outliers"] == []

    def test_corrected_series_csv(self, tmp_path):
        corrected = tmp_path / "corrected.csv"
        code = main([
            "detect", "--input", demo_csv(), "--order", "2,0,0",
            "--output", str(tmp_path / "r.txt"), "--corrected-output", str(corrected),
        ])
        assert code == EXIT_OK
        lines = corrected.read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 201

    def test_csv_format_outlier_table(self, tmp_path):
        out = tmp_path / "table.csv"
        main([
            "detect", "--input", demo_csv(), "--order", "2,0,0",
            "--format", "csv", "--output", str(out),
        ])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("T,omega_hat,lambda_hat")
        assert len(lines) == 4

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "r.json"
        main([
            "detect", "--input", demo_csv(), "--order", "2,0,0",
            "--format", "json", "--output", str(out),
        ])
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_golden_report_bytes(self, tmp_path):
        golden = os.path.join(os.path.dirname(__file__), "data", "detect_golden.json")
        out = tmp_path / "detect.json"
        code = main([
            "detect", "--input", demo_csv(), "--order", "2,0,0",
            "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        with open(golden, "rb") as fh:
            expected = fh.read()
        assert out.read_bytes() == expected


class TestSimulateCommand:
    def test_same_seed_gives_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--n", "50", "--seed", "42", "--phi", "0.5"]
        assert main(args + ["--output", str(a)]) == EXIT_OK
        assert main(args + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_injection_shifts_exactly_one_row(self, tmp_path):
        plain, injected = tmp_path / "p.csv", tmp_path / "i.csv"
        base = ["simulate", "--n", "120", "--seed", "7", "--phi", "0.4"]
        main(base + ["--output", str(plain)])
        main(base + ["--inject", "98:8", "--output", str(injected)])
        a = np.loadtxt(plain, skiprows=1)
        b = np.loadtxt(injected, skiprows=1)
        diff = b - a
        assert diff[97] == pytest.approx(8.0, abs=1e-12)
        others = np.delete(diff, 97)
        assert np.all(others == 0.0)

    def test_explosive_coefficients_exit_3(self, tmp_path, capsys):
        code = main([
            "simulate", "--n", "50", "--seed", "1", "--phi", "1.2",
            "--output", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_MODEL
        assert "root" in capsys.readouterr().err

    def test_header_is_value(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["simulate", "--n", "5", "--seed", "3", "--output", str(out)])
        assert out.read_text().splitlines()[0] == "value"


# Run in a fresh interpreter: the import state of the test process says nothing.
COLD_PATH = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def no_scipy(step):
    mods = scipy_modules()
    assert not mods, f"{step} loaded {len(mods)} scipy modules: {mods[:5]} ..."

csv, out = sys.argv[1:]
import aoarima
no_scipy("import aoarima")
import aoarima.cli
assert aoarima.cli.main(["detect", "--input", csv, "--order", "2,0,0", "--output", out]) == 0
no_scipy("an AR detect")
assert aoarima.cli.main(["fit", "--input", csv, "--order", "1,0,1", "--output", out]) == 0
assert scipy_modules(), "an MA fit ran without scipy"
"""


class TestColdPath:
    def test_ar_detect_loads_no_scipy(self, tmp_path):
        src = os.path.dirname(os.path.dirname(aoarima.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", COLD_PATH, demo_csv(), str(tmp_path / "report.txt")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
