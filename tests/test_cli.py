import ast
import json
import os
import pathlib
import stat
import subprocess
import sys
import threading
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

    def test_first_t_is_the_start_index(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("t,value\n1001,10.0\n1002,11.0\n\n1003,12.0\n")
        series = read_series_csv(str(p))
        assert series.start_index == 1001
        assert series.labels().tolist() == [1001, 1002, 1003]
        assert series.values.tolist() == [10.0, 11.0, 12.0]

    @pytest.mark.parametrize("text, line", [
        ("t,value\n1001,1.0\nfoo,2.0\n1005,3.0\n", 3),  # not an integer
        ("t,value\n1001,1.0\n1002,2.0\n1005,3.0\n", 4),  # a gap
        ("1,1.0\n2,2.0\n2,3.0\n", 3),  # a repeat, without a header
        ("t,value\n5,1.0\n4,2.0\n", 3),  # counting down
        ("t,value\n1,1.0\n2.5,2.0\n", 3),  # not an integer label
    ])
    def test_t_must_be_consecutive_integers(self, tmp_path, text, line):
        p = tmp_path / "x.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            read_series_csv(str(p))
        assert err.value.line == line

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

    def test_default_lags_on_a_short_series_exit_3(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        values = np.random.default_rng(1).standard_normal(30)
        p.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        assert main(["fit", "--input", str(p), "--order", "1,0,0"]) == EXIT_MODEL  # lag 36 of 29 residuals
        assert "lag 36" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "detect"])
    @pytest.mark.parametrize("order", ["0,1,0", "0,0,0", "1,3,0", "1,0", "a,0,0"])
    def test_bad_order_exits_2(self, command, order, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", demo_csv(), "--order", order])
        assert exc.value.code == EXIT_INPUT
        assert "--order" in capsys.readouterr().err

    @pytest.mark.parametrize("lags", ["", "0", "12,x"])
    def test_bad_lags_exit_2(self, lags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", demo_csv(), "--order", "2,0,0", "--lags", lags])
        assert exc.value.code == EXIT_INPUT
        assert "--lags" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag, value", [
        ("--max-outliers", "0"),
        ("--max-iterations", "0"),
        ("--critical", "0"),
        ("--critical", "nan"),
        ("--critical", "inf"),
        ("--scan-margin", "-1"),
    ])
    def test_bad_option_exits_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--input", demo_csv(), "--order", "2,0,0", flag, value])
        assert exc.value.code == EXIT_INPUT
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["1,0,1", "0,1,1", "1,0,2"])
    def test_constant_series_exits_3_without_nan(self, tmp_path, capsys, order):
        p = tmp_path / "const.csv"
        p.write_text("value\n" + "5.0\n" * 60)
        assert main(["detect", "--input", str(p), "--order", order, "--format", "json"]) == EXIT_MODEL
        captured = capsys.readouterr()
        assert "hint" in captured.err
        assert "NaN" not in captured.out

    @pytest.mark.parametrize("order", ["0,1,1", "1,0,1"])
    def test_exact_fit_without_intercept_does_not_suggest_no_intercept(self, tmp_path, capsys, order):
        p = tmp_path / "const.csv"
        p.write_text("value\n" + "5.0\n" * 60)
        assert main(["fit", "--input", str(p), "--order", order, "--no-intercept"]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert "hint" in err and "try --no-intercept" not in err

    def test_scan_margin_below_p_exits_3_naming_it(self, tmp_path, capsys):
        values = read_series_csv(demo_csv()).values.copy()
        values[0] += 15.0  # the scan from position 1 accepts label 1, which the joint regression lacks
        p = tmp_path / "bumped.csv"
        p.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        assert main(["detect", "--input", str(p), "--order", "2,0,0", "--scan-margin", "0"]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert "scan_margin" in err and "hint" not in err

    def test_labels_follow_the_t_column(self, tmp_path):
        values = read_series_csv(demo_csv()).values
        labelled = tmp_path / "labelled.csv"
        rows = (f"{1000 + i},{v!r}\n" for i, v in enumerate(values.tolist(), 1))
        labelled.write_text("t,value\n" + "".join(rows))
        out, corrected = tmp_path / "detect.json", tmp_path / "corrected.csv"
        code = main([
            "detect", "--input", str(labelled), "--order", "2,0,0",
            "--format", "json", "--output", str(out), "--corrected-output", str(corrected),
        ])
        assert code == EXIT_OK
        assert [r["T"] for r in json.loads(out.read_text())["outliers"]] == [1098, 1162, 1180]
        lines = corrected.read_text().splitlines()
        assert lines[1].startswith("1001,") and lines[-1].startswith("1200,")

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

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "D"
        target.mkdir()
        code = main(["detect", "--input", demo_csv(), "--order", "2,0,0", "--output", str(target)])
        assert code == EXIT_INPUT
        assert "error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["D"]

    def test_output_symlink_stays_a_link_to_the_report(self, tmp_path):
        target, link, plain = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "plain.json"
        target.write_text("old report\n")
        link.symlink_to(target)
        args = ["detect", "--input", demo_csv(), "--order", "2,0,0", "--format", "json"]
        assert main(args + ["--output", str(link)]) == EXIT_OK
        assert main(args + ["--output", str(plain)]) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "plain.json", "target.json"]

    def test_output_fifo_is_written_in_place(self, tmp_path):
        fifo, plain = tmp_path / "pipe", tmp_path / "plain.txt"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        args = ["detect", "--input", demo_csv(), "--order", "2,0,0"]
        assert main(args + ["--output", str(fifo)]) == EXIT_OK
        reader.join(timeout=30)
        assert not reader.is_alive(), "nothing was written to the pipe"
        assert main(args + ["--output", str(plain)]) == EXIT_OK
        assert got == [plain.read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    @pytest.mark.parametrize("order, kind", [
        ("2,1,0", "arima_ols"),  # differenced pure AR: an OLS refit on the corrected series
        ("1,1,1", "arima_css"),
        ("2,0,0", "joint_ols"),
    ])
    def test_final_model_kind_names_its_estimator(self, tmp_path, order, kind):
        out = tmp_path / "detect.json"
        code = main(["detect", "--input", demo_csv(), "--order", order, "--format", "json",
                     "--output", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["final_model"]["kind"] == kind

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


@pytest.mark.parametrize("golden, command, fmt, produced", [
    ("fit_golden.txt", "fit", "text", "report"),
    ("fit_golden.csv", "fit", "csv", "report"),
    ("detect_golden.txt", "detect", "text", "report"),
    ("detect_golden.csv", "detect", "csv", "report"),
    ("pacf_golden.csv", "fit", "text", os.path.join("plots", "pacf.csv")),
])
def test_golden_rendered_bytes(tmp_path, golden, command, fmt, produced):
    code = main([
        command, "--input", demo_csv(), "--order", "2,0,0", "--format", fmt,
        "--output", str(tmp_path / "report"), "--plots-dir", str(tmp_path / "plots"),
    ])
    assert code == EXIT_OK
    with open(os.path.join(os.path.dirname(__file__), "data", golden), "rb") as fh:
        assert (tmp_path / produced).read_bytes() == fh.read()


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

    @pytest.mark.parametrize("flag, value", [
        ("--n", "0"),
        ("--sigma", "-1"),
        ("--sigma", "nan"),
        ("--burn-in", "-1"),
        ("--d", "3"),
        ("--phi", "nan"),
        ("--intercept", "inf"),
        ("--inject", "3:nan"),
        ("--inject", "3"),
        ("--inject", "300:1"),
        ("--inject", "5:1,5:2"),
    ])
    def test_bad_option_exits_2(self, tmp_path, flag, value, capsys):
        args = {"--n": "50", "--seed": "3", "--output": str(tmp_path / "s.csv"), flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *(v for item in args.items() for v in item)])
        assert exc.value.code == EXIT_INPUT
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

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
assert aoarima.cli.main(["fit", "--input", csv, "--order", "2,0,0", "--output", out]) == 0
no_scipy("an AR fit")
for order in ("1,0,1", "1,0,2"):  # every theta search is a variable projection, searched by Brent
    assert aoarima.cli.main(["fit", "--input", csv, "--order", order, "--output", out]) == 0
    assert scipy_modules(), "an MA fit ran without scipy"
    for unused in ("scipy.signal", "scipy.optimize"):
        mods = [m for m in scipy_modules() if m == unused or m.startswith(unused + ".")]
        assert not mods, f"an MA fit at {order} loaded {len(mods)} {unused} modules"
"""


def imports_module(path, module: str) -> bool:
    """Whether the Python file at ``path`` imports ``module`` or one of its submodules."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(m == module or m.startswith(module + ".") for m in names):
            return True
    return False


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

    # simulate keeps lfilter's rounding with a plain loop, and the theta search is Brent's
    @pytest.mark.parametrize("module", ["scipy.signal", "scipy.optimize"])
    def test_no_module_imports(self, module):
        package = pathlib.Path(aoarima.__file__).parent
        assert [p.name for p in sorted(package.glob("*.py")) if imports_module(p, module)] == []
