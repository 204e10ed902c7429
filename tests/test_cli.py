"""End-to-end tests of the command-line surface and its exit codes."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import growthcast
from growthcast import RateSeries, fit_line, load_series
from growthcast.cli import main
from growthcast.fileio import read_model, read_rates, write_rates

DATA = Path(__file__).parent / "data"
GDP_FIXTURE = DATA / "gdp_per_capita.csv"
LOGISTIC_FIXTURE = DATA / "logistic_population.csv"
_C_NOT_REPRESENTABLE = (
    "normalization constant for {} is not float-representable ({}); "
    "re-express the model with t_ref near the anchor time"
)
_LEAVES_AT = "the trajectory leaves the float range at t0 = {}"


def write_exponential_series(path, r=0.02, n=50):
    t = np.arange(0.0, float(n))
    v = 100.0 * np.exp(r * t)
    lines = ["# label: expo\n# unit: u\nt,value\n"]
    lines += [f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, v)]
    Path(path).write_text("".join(lines), encoding="utf-8")


class TestRatesCommand:
    def test_direct_rates_constant_column(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        write_exponential_series(src)
        out = tmp_path / "r.csv"
        assert main(["rates", str(src), "--method", "direct", "--out", str(out)]) == 0
        rs, meta = read_rates(out)
        assert len(rs) == 49  # n - 1 rows
        np.testing.assert_allclose(rs.rates, math.exp(0.02) - 1.0, rtol=1e-12)
        assert meta["label"] == "expo"

    def test_even_window_usage_error(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["rates", str(GDP_FIXTURE), "--method", "refined", "--window", "2", "--out", str(out)]
        )
        assert code == 2

    def test_log_transform_with_zero_is_exit_3(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("t,value\n0,1.0\n1,0.0\n2,2.0\n", encoding="utf-8")
        out = tmp_path / "r.csv"
        code = main(["rates", str(src), "--transform", "log", "--out", str(out)])
        assert code == 3
        assert "log" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "direct"], "direct rates are beyond the float range at t = 1.0"),
            (["--method", "refined"], "refined rates are beyond the float range at t = 0.0"),
            (["--transform", "reciprocal"], "reciprocal transform leaves the float range at t=3.0"),
        ],
        ids=["direct", "refined", "reciprocal"],
    )
    def test_rates_beyond_float_range_are_exit_3(self, tmp_path, capsys, flags, message):
        src = tmp_path / "s.csv"
        src.write_text("t,value\n0,1e308\n1,-1e308\n2,1e308\n3,5e-324\n4,1e308\n5,1\n6,2\n7,3\n")
        out = tmp_path / "r.csv"
        code = main(["rates", str(src), *flags, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_reciprocal_transform_unit(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["rates", str(GDP_FIXTURE), "--transform", "reciprocal", "--out", str(out)])
        assert code == 0
        assert "# unit: 1/(1990 Int. GK$)\n" in out.read_text()
        assert read_rates(out)[1]["unit"] == "1/(1990 Int. GK$)"

    def test_refined_on_fixture(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["rates", str(GDP_FIXTURE), "--method", "refined", "--out", str(out)])
        assert code == 0
        rs, meta = read_rates(out)
        assert len(rs) == 71  # refined spans every input point
        assert meta["method"] == "refined"


class TestFitCommand:
    def test_logistic_pipeline_recovers_kind(self, tmp_path):
        rates = tmp_path / "r.csv"
        assert main(["rates", str(LOGISTIC_FIXTURE), "--out", str(rates)]) == 0
        model_file = tmp_path / "m.txt"
        code = main(["fit", str(rates), "--linearization", "r-vs-s", "--out", str(model_file)])
        assert code == 0
        m = read_model(model_file)
        assert m.kind.value == "linear_s"
        # fixture was generated with a = 0.06, b = -0.005; the direct
        # rates carry a finite-difference bias at the few-percent level
        assert m.params.a == pytest.approx(0.06, rel=0.05)
        assert m.params.b == pytest.approx(-0.005, rel=0.05)
        assert m.unit == "millions"

    def test_shifted_without_aux_is_usage_error(self, tmp_path, capsys):
        rates = tmp_path / "r.csv"
        assert main(["rates", str(GDP_FIXTURE), "--out", str(rates)]) == 0
        code = main(["fit", str(rates), "--linearization", "shifted-ln-vs-t", "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "aux-a" in capsys.readouterr().err

    def test_range_restriction_applies(self, tmp_path):
        rates = tmp_path / "r.csv"
        assert main(["rates", str(GDP_FIXTURE), "--out", str(rates)]) == 0
        model_file = tmp_path / "m.txt"
        code = main([
            "fit", str(rates), "--linearization", "r-vs-t",
            "--range", "1990:2010", "--out", str(model_file),
        ])
        assert code == 0
        text = model_file.read_text()
        assert "n_points = 21" in text

    def test_recip_s_takes_series_input(self, tmp_path):
        src = tmp_path / "h.csv"
        t = np.linspace(0.0, 9.0, 40)
        lines = ["t,value\n"] + [f"{float(a)!r},{float(1.0/(10.0-a))!r}\n" for a in t]
        src.write_text("".join(lines), encoding="utf-8")
        model_file = tmp_path / "m.txt"
        code = main(["fit", str(src), "--linearization", "recip-s-vs-t", "--out", str(model_file)])
        assert code == 0
        m = read_model(model_file)
        assert m.kind.value == "hyperbolic"
        assert m.params.C == pytest.approx(10.0, rel=1e-9)
        assert m.params.b == pytest.approx(1.0, rel=1e-9)

    def test_recip_s_constant_series_is_exit_3(self, tmp_path, capsys):
        src = tmp_path / "c.csv"
        src.write_text("t,value\n0,2\n1,2\n2,2\n3,2\n", encoding="utf-8")
        model_file = tmp_path / "m.txt"
        code = main(["fit", str(src), "--linearization", "recip-s-vs-t", "--out", str(model_file)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: fitted line degenerates out of the hyperbolic family: "
            "hyperbolic requires 'b' != 0\n"
        )
        assert not model_file.exists()

    def test_recip_s_drop_reads_like_the_rate_fits(self, tmp_path, capsys):
        # one zero value in the series, one negative rate in the rates:
        # each fit drops one point and says so in the same words
        src = tmp_path / "z.csv"
        src.write_text("t,value\n0,1\n1,2\n2,0\n3,4\n4,5\n", encoding="utf-8")
        rates = tmp_path / "r.csv"
        rates.write_text("t,rate,size\n0,0.10,1\n1,0.09,1\n2,-0.01,1\n3,0.07,1\n4,0.06,1\n")
        amplitude = (
            "warning: ln-r-vs-t: amplitude stored as exp(intercept): the log-linear and "
            "exponential-rate forms are the same law\n"
        )
        texts = {}
        for lin, path, more in (("recip-s-vs-t", src, ""), ("ln-r-vs-t", rates, amplitude)):
            model_file = tmp_path / f"{lin}.txt"
            code = main(["fit", str(path), "--linearization", lin, "--out", str(model_file)])
            assert code == 0
            assert capsys.readouterr().err == (
                f"warning: {lin}: dropped 1 point(s) outside the transform domain\n" + more
            )
            texts[lin] = model_file.read_text()
        note = "# warning: dropped 1 point(s) outside the transform domain\n"
        assert all(note in text for text in texts.values())

    def test_recip_s_range_restriction(self, tmp_path):
        model_file = tmp_path / "m.txt"
        code = main([
            "fit", str(GDP_FIXTURE), "--linearization", "recip-s-vs-t",
            "--range", "1960:1990", "--out", str(model_file),
        ])
        assert code == 0
        assert "n_points = 31, dropped_points = 0" in model_file.read_text()
        src = load_series(GDP_FIXTURE, "t", "value")
        inside = (src.times >= 1960.0) & (src.times <= 1990.0)
        line = fit_line(src.times[inside], 1.0 / src.values[inside])
        m = read_model(model_file)
        assert (m.params.b, m.params.C) == (-line.slope, line.intercept)
        assert m.unit == "1990 Int. GK$"

    def test_recip_s_range_keeping_one_point_is_exit_3(self, tmp_path, capsys):
        model_file = tmp_path / "m.txt"
        code = main([
            "fit", str(GDP_FIXTURE), "--linearization", "recip-s-vs-t",
            "--range", "1960:1960.5", "--out", str(model_file),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: fewer than 2 points inside t range [1960.0, 1960.5]\n"
        )
        assert not model_file.exists()

    def test_size_dependent_fit_refuses_unit_mismatch(self, tmp_path, capsys):
        rates = tmp_path / "r.csv"
        assert main(["rates", str(LOGISTIC_FIXTURE), "--out", str(rates)]) == 0
        code = main([
            "fit", str(rates), "--linearization", "r-vs-s",
            "--unit", "thousands", "--out", str(tmp_path / "m.txt"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: size-dependent fit refused: --unit 'thousands' disagrees with "
            "the rates file unit 'millions'\n"
        )

    def test_size_independent_fit_takes_a_different_unit(self, tmp_path):
        rates = tmp_path / "r.csv"
        assert main(["rates", str(GDP_FIXTURE), "--unit", "usd", "--out", str(rates)]) == 0
        model_file = tmp_path / "m.txt"
        code = main([
            "fit", str(rates), "--linearization", "r-vs-t", "--unit", "eur",
            "--out", str(model_file),
        ])
        assert code == 0
        assert read_model(model_file).unit == "eur"

    def test_non_finite_size_in_rates_file_is_exit_2(self, tmp_path, capsys):
        rates = tmp_path / "r.csv"
        rates.write_text("t,rate,size\n0,0.10,1.0\n1,0.09,nan\n2,0.08,3.0\n3,0.07,4.0\n")
        model_file = tmp_path / "m.txt"
        code = main(["fit", str(rates), "--linearization", "r-vs-s", "--out", str(model_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sizes contain non-finite" in err
        assert "Traceback" not in err
        assert not model_file.exists()

    def test_scan_aux_selects_displacement(self, tmp_path):
        a0, b0, r0 = 10.0, 6.0, 0.25
        t = np.arange(0.0, 40.0)
        rates_path = tmp_path / "r.csv"
        lines = ["t,rate,size\n"]
        lines += [
            f"{float(x)!r},{float(1.0 / (a0 - b0 * math.exp(-r0 * x)))!r},1.0\n" for x in t
        ]
        rates_path.write_text("".join(lines), encoding="utf-8")
        model_file = tmp_path / "m.txt"
        code = main([
            "fit", str(rates_path), "--linearization", "shifted-ln-vs-t",
            "--scan-aux", "5:15", "--out", str(model_file),
        ])
        assert code == 0
        m = read_model(model_file)
        assert m.kind.value == "rate_shifted_exp"
        assert m.params.a == pytest.approx(a0, rel=1e-6)
        assert m.params.r == pytest.approx(r0, rel=1e-6)

    def test_scan_aux_prints_its_drops(self, tmp_path, capsys):
        # a zero rate has no finite reciprocal, so every candidate drops it
        t = np.arange(0.0, 40.0)
        rates = 1.0 / (10.0 - 6.0 * np.exp(-0.25 * t))
        rates[7] = 0.0
        rates_path = tmp_path / "r.csv"
        rates_path.write_text("t,rate,size\n" + "".join(
            f"{float(x)!r},{float(r)!r},1.0\n" for x, r in zip(t, rates)
        ))
        model_file = tmp_path / "m.txt"
        code = main([
            "fit", str(rates_path), "--linearization", "shifted-ln-vs-t",
            "--scan-aux", "5:15", "--out", str(model_file),
        ])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: shifted-ln-vs-t: dropped 1 point(s) outside the transform domain\n"
        )
        assert "n_points = 39, dropped_points = 1" in model_file.read_text()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["ln-r-vs-t"], "rate_ln_linear parameter 'a' must be finite, got inf"),
            (["shifted-ln-vs-t", "--aux-a", "30"], "rate_shifted_exp parameter 'b' must be finite"),
            (["shifted-ln-vs-t", "--scan-aux", "25:60"], "no scan value of a admits a fit"),
        ],
        ids=["ln-r-vs-t", "aux-a", "scan-aux"],
    )
    def test_amplitude_beyond_float_range_is_exit_3(self, tmp_path, capsys, flags, message):
        t = np.arange(1950.0, 2020.0)
        rates = tmp_path / "r.csv"
        rates.write_text("t,rate,size\n" + "".join(
            f"{float(x)!r},{0.05 * math.exp(-0.4 * (x - 1950.0))!r},1.0\n" for x in t
        ))
        model_file = tmp_path / "m.txt"
        code = main(["fit", str(rates), "--linearization", *flags, "--out", str(model_file)])
        assert code == 3
        err = capsys.readouterr().err
        # a failed fit gives no report, so no warning line comes before the
        # error, although the shifted fit drops points on the way
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not model_file.exists()

    def test_log_transform_rates_lift_to_loglog(self, tmp_path):
        src = tmp_path / "s.csv"
        t = np.arange(0.0, 60.0)
        v = np.exp(np.exp(0.01 * t))  # ln S grows exponentially
        lines = ["t,value\n"] + [f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, v)]
        src.write_text("".join(lines), encoding="utf-8")
        rates = tmp_path / "r.csv"
        assert main(["rates", str(src), "--transform", "log", "--out", str(rates)]) == 0
        model_file = tmp_path / "m.txt"
        assert main(["fit", str(rates), "--linearization", "r-vs-t", "--out", str(model_file)]) == 0
        m = read_model(model_file)
        assert m.kind.value == "loglog_t"
        assert "lifted" in model_file.read_text()

    def test_fit_warning_is_one_line_on_stderr(self, tmp_path):
        rates = tmp_path / "g.csv"
        assert main(["rates", str(GDP_FIXTURE), "--out", str(rates)]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(growthcast.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "growthcast.cli", "fit", str(rates),
             "--linearization", "shifted-ln-vs-t", "--aux-a", "60", "--out", str(tmp_path / "m.txt")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == (
            "warning: shifted-ln-vs-t: dropped 18 point(s) outside the transform domain\n"
        )

    def test_main_restores_warning_state(self, tmp_path, capsys):
        rates = tmp_path / "g.csv"
        assert main(["rates", str(GDP_FIXTURE), "--out", str(rates)]) == 0
        before = (warnings.showwarning, list(warnings.filters))
        code = main([
            "fit", str(rates), "--linearization", "shifted-ln-vs-t", "--aux-a", "60",
            "--out", str(tmp_path / "m.txt"),
        ])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: shifted-ln-vs-t: dropped 18 point(s) outside the transform domain\n"
        )
        assert (warnings.showwarning, list(warnings.filters)) == before

    @pytest.mark.parametrize(
        "flag, value",
        [("--range", "0:inf"), ("--range", "nan:2000"), ("--scan-aux", "40:inf"),
         ("--aux-a", "nan"), ("--aux-a", "inf")],
    )
    def test_non_finite_pair_names_its_flag(self, tmp_path, capsys, flag, value):
        rates = tmp_path / "g.csv"
        assert main(["rates", str(GDP_FIXTURE), "--out", str(rates)]) == 0
        code = main([
            "fit", str(rates), "--linearization", "shifted-ln-vs-t", f"{flag}={value}",
            "--out", str(tmp_path / "m.txt"),
        ] + ([] if flag in ("--scan-aux", "--aux-a") else ["--aux-a", "60"]))
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag} values must be finite, got {value!r}\n"

    @pytest.mark.parametrize(
        "lin, extra",
        [("r-vs-t", []), ("recip-s-vs-t", []), ("shifted-ln-vs-t", ["--scan-aux", "40:160"])],
    )
    @pytest.mark.parametrize("t_range", ["1990:1960", "1975:1975"])
    def test_reversed_or_empty_range_is_exit_2(self, tmp_path, capsys, lin, extra, t_range):
        rates = tmp_path / "g.csv"
        assert main(["rates", str(GDP_FIXTURE), "--out", str(rates)]) == 0
        model_file = tmp_path / "m.txt"
        source = GDP_FIXTURE if lin == "recip-s-vs-t" else rates
        code = main([
            "fit", str(source), "--linearization", lin, "--range", t_range, *extra,
            "--out", str(model_file),
        ])
        assert code == 2
        t1, t2 = (float(v) for v in t_range.split(":"))
        assert capsys.readouterr().err == f"error: t range needs t1 < t2, got [{t1}, {t2}]\n"
        assert not model_file.exists()

    def test_empty_range_value_is_exit_2(self, tmp_path, capsys):
        rates = tmp_path / "g.csv"
        assert main(["rates", str(GDP_FIXTURE), "--out", str(rates)]) == 0
        model_file = tmp_path / "m.txt"
        code = main([
            "fit", str(rates), "--linearization", "r-vs-t", "--range=", "--out", str(model_file),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --range must look like A:B, got ''\n"
        assert not model_file.exists()


class TestForecastCommand:
    def test_world_linear_forecast(self, tmp_path):
        model_file = tmp_path / "m.txt"
        model_file.write_text(
            "kind = linear_t\na = 0.252\nb = -0.0001197\nt_ref = 0.0\n", encoding="utf-8"
        )
        out = tmp_path / "p.csv"
        code = main([
            "forecast", str(model_file), "--anchor", "2030:8.4e9",
            "--grid", "2030:2110:5", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "# feature: maximum" in text
        assert "t_star = 2105.2" in text

    def test_normalized_model_needs_no_anchor(self, tmp_path):
        model_file = tmp_path / "m.txt"
        model_file.write_text(
            "kind = rate_ln_linear\na = 21790000000.0\nb = -0.01406\nC = 15600000000.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "p.csv"
        code = main(["forecast", str(model_file), "--grid", "2030:2100:10", "--out", str(out)])
        assert code == 0
        proj = load_series(out, "t", "value")
        assert proj.values[0] == pytest.approx(8.364e9, rel=1e-3)

    def test_grid_crossing_singularity_truncates_exit_0(self, tmp_path, capsys):
        model_file = tmp_path / "m.txt"
        model_file.write_text("kind = hyperbolic\nb = 1.0\nC = 10.0\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        code = main(["forecast", str(model_file), "--grid", "0:20:1", "--out", str(out)])
        assert code == 0
        assert "truncated" in capsys.readouterr().err
        proj = load_series(out, "t", "value")
        assert proj.times[-1] < 10.0

    def test_non_positive_anchor_exit_3(self, tmp_path):
        model_file = tmp_path / "m.txt"
        model_file.write_text("kind = exp_const\na = 0.02\n", encoding="utf-8")
        code = main([
            "forecast", str(model_file), "--anchor", "0:-5",
            "--grid", "0:10:1", "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 3

    def test_missing_anchor_on_unnormalized_model(self, tmp_path):
        model_file = tmp_path / "m.txt"
        model_file.write_text("kind = exp_const\na = 0.02\n", encoding="utf-8")
        code = main(["forecast", str(model_file), "--grid", "0:10:1", "--out", str(tmp_path / "p.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "record, t_star",
        [
            # S(t*) = exp(ln 100 * e^45): the value of F is finite, S is not
            ("kind = loglog_t\na = 0.3\nb = -0.001\n", "300.0"),
            ("kind = linear_t\na = 0.3\nb = -1e-05\n", "29999.999999999996"),
        ],
        ids=["loglog_t", "linear_t"],
    )
    def test_maximum_beyond_float_range_keeps_its_time(self, tmp_path, record, t_star):
        model_file = tmp_path / "m.txt"
        model_file.write_text(record, encoding="utf-8")
        out = tmp_path / "p.csv"
        code = main([
            "forecast", str(model_file), "--anchor", "0:100",
            "--grid", "0:10:1", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert f"# feature: maximum, t_star = {t_star} (" in text
        assert "beyond the float range" in text
        assert "s_star" not in text and "inf" not in text

    @pytest.mark.parametrize(
        "record, flags, feature",
        [
            # t* = -a/b and t* = C/b are beyond the float range
            ("kind = linear_t\na = 1.0\nb = -6.35e-318\n", ["--anchor", "0:1"], "maximum"),
            ("kind = hyperbolic\nb = 1e-300\nC = 1e10\n", [], "singularity"),
        ],
        ids=["linear_t", "hyperbolic"],
    )
    def test_feature_time_beyond_float_range_is_none(self, tmp_path, record, flags, feature):
        model_file = tmp_path / "m.txt"
        model_file.write_text(record, encoding="utf-8")
        out = tmp_path / "p.csv"
        code = main(["forecast", str(model_file), *flags, "--grid", "0:3:1", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert f"# feature: none ({feature} time is beyond the float range)\n" in text
        assert "inf" not in text

    def test_loglog_t_minimum_beyond_float_range_names_no_time(self, tmp_path, capsys):
        # C < 0 (anchor below S = 1) and -a/b overflows
        model_file = tmp_path / "m.txt"
        model_file.write_text(
            "kind = loglog_t\na = 5.460987896459454e+217\nb = -5.2160937140885485e-230\n",
            encoding="utf-8",
        )
        out = tmp_path / "p.csv"
        code = main([
            "forecast", str(model_file), "--anchor=0.0:1.4125245691891383e-05",
            "--grid=0.0:10.0:1", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""
        text = out.read_text()
        assert (
            "# feature: none (C < 0: ln S is negative with a minimum of S beyond the float range)\n"
            in text
        )
        assert "inf" not in text

    def test_linear_s_past_its_singular_time_is_exit_3_naming_it(self, tmp_path, capsys):
        # a * C underflows to 0 in the singular time's ratio b / (a C);
        # the time is still found, in log space
        model_file = tmp_path / "m.txt"
        model_file.write_text("kind = linear_s\na = 1e-200\nb = 1.0\nC = 1e-200\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        code = main(["forecast", str(model_file), "--grid", "0:3:1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == (
            "error: linear_s trajectory undefined where its denominator <= 0 "
            "(singular at t = -9.210340371976184e+202)\n"
        )
        assert not out.exists()

    def test_trajectory_beyond_float_range_is_exit_3(self, tmp_path, capsys):
        model_file = tmp_path / "m.txt"
        model_file.write_text("kind = loglog_t\na = 0.3\nb = -0.001\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        code = main([
            "forecast", str(model_file), "--anchor", "0:100",
            "--grid=-20:200:2", "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: loglog_t size is beyond the float range at t = 18.0\n"
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "record, flags, message",
        [
            # b t0' = 711 overflows exp, though g = (a/b) e^(b t0') is finite
            ("kind = rate_ln_linear\na = 1.33e-307\nb = 0.36\n",
             ["--anchor", "1975:1", "--grid", "1975:1980:1"],
             _C_NOT_REPRESENTABLE.format("rate_ln_linear", _LEAVES_AT.format(1975.0))),
            ("kind = rate_shifted_exp\na = 10\nb = 1\nr = 0.5\n",
             ["--anchor=-2000:1", "--grid=-2000:-1990:1"],
             _C_NOT_REPRESENTABLE.format("rate_shifted_exp", _LEAVES_AT.format(-2000.0))),
            # r a underflows to 0
            ("kind = rate_shifted_exp\na = 1e-200\nb = -1\nr = 1e-200\n",
             ["--anchor=0:1", "--grid=0:3:1"],
             _C_NOT_REPRESENTABLE.format("rate_shifted_exp", _LEAVES_AT.format(0.0))),
            # g = t0'/a + ln(a - b e^(-r t0'))/(r a) = inf - inf
            ("kind = rate_shifted_exp\na = 1e-315\nb = 1\nr = 1\n",
             ["--anchor=1000:1", "--grid=1000:1003:1"],
             _C_NOT_REPRESENTABLE.format("rate_shifted_exp", "ln C = nan")),
            # C = 1/s0 + b t0' overflows
            ("kind = hyperbolic\nb = 1e300\nt_ref = -1e10\n", ["--anchor=0:1", "--grid=0:3:1"],
             _C_NOT_REPRESENTABLE.format("hyperbolic", "C = inf")),
            # a / b underflows to 0, so there is no singular time to guard
            ("kind = rate_shifted_exp\na = 1e-320\nb = 1e10\nr = 1\nC = 1\n",
             ["--grid=0:3:1"], "rate_shifted_exp trajectory undefined where a - b*exp(-r*t') <= 0"),
        ],
        ids=["ln-linear-exp-overflow", "shifted-exp-overflow", "shifted-exp-ra-underflow",
             "shifted-exp-nan", "hyperbolic-overflow", "shifted-exp-ab-underflow"],
    )
    def test_derived_constant_beyond_float_range_is_exit_3(
        self, tmp_path, capsys, record, flags, message
    ):
        model_file = tmp_path / "m.txt"
        model_file.write_text(record, encoding="utf-8")
        out = tmp_path / "p.csv"
        code = main(["forecast", str(model_file), *flags, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_finite_model_parameter_is_exit_2(self, tmp_path, capsys):
        model_file = tmp_path / "m.txt"
        model_file.write_text("kind = linear_t\na = nan\nb = 0.1\n", encoding="utf-8")
        code = main([
            "forecast", str(model_file), "--anchor", "0:100",
            "--grid", "0:10:1", "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(model_file) in err and "'a'" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("kind = linear_t\na 0.02\n", "line 2: expected 'key = value', got 'a 0.02'"),
            ("a = 0.02\nb = 0.1\n", "model file is missing the 'kind' field"),
            ("kind = linear_t\na = 0.02\nb = fast\n", "cannot parse b = 'fast' as a number"),
            ("kind = linear_t\nA = 0.02\n", "unknown model field 'A'; expected one of "
             "('kind', 'a', 'b', 'r', 'C', 't_ref', 'unit')"),
        ],
        ids=["no-equals", "no-kind", "not-a-number", "unknown-field"],
    )
    def test_malformed_model_file_is_exit_2(self, tmp_path, capsys, text, message):
        model_file = tmp_path / "m.txt"
        model_file.write_text(text, encoding="utf-8")
        out = tmp_path / "p.csv"
        code = main([
            "forecast", str(model_file), "--anchor", "0:100", "--grid", "0:10:1", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {model_file}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--anchor", "0:nan", "--grid", "0:10:1"], "--anchor values must be finite, got '0:nan'"),
            (["--anchor", "inf:1", "--grid", "0:10:1"], "--anchor values must be finite, got 'inf:1'"),
            (["--anchor", "0:1", "--grid", "0:nan:1"], "--grid values must be finite, got '0:nan:1'"),
            (["--anchor", "0:1", "--grid", "0:inf:1"], "--grid values must be finite, got '0:inf:1'"),
            (["--anchor", "0:1", "--grid", "0:1:inf"], "--grid values must be finite, got '0:1:inf'"),
            # 1e17 points need 8e17 bytes, more than any 64-bit address space
            # maps, and 1e316 exceed numpy's size limit: both fail at once
            (["--anchor", "0:1", "--grid", "0:1e17:1"],
             "--grid '0:1e17:1' has more points than can be allocated"),
            (["--anchor", "0:1", "--grid", "0:1e300:1e-16"],
             "--grid '0:1e300:1e-16' has more points than can be allocated"),
            (["--anchor", "0:1", "--grid", "5:0:1"], "--grid needs stop > start and step > 0"),
            (["--anchor", "0:1", "--grid", "0:5:0"], "--grid needs stop > start and step > 0"),
            (["--anchor", "0:abc", "--grid", "0:5:1"], "--anchor must be numeric, got '0:abc'"),
            (["--anchor", "0:1", "--grid", "0:5"],
             "--grid must look like start:stop:step, got '0:5'"),
        ],
    )
    def test_bad_anchor_or_grid_names_its_flag(self, tmp_path, capsys, flags, message):
        model_file = tmp_path / "m.txt"
        model_file.write_text("kind = exp_const\na = 0.02\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        code = main(["forecast", str(model_file), *flags, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestIntegrateCommand:
    def test_discrete_reconstruction_round_trip(self, tmp_path):
        rates = tmp_path / "r.csv"
        assert main(["rates", str(GDP_FIXTURE), "--out", str(rates)]) == 0
        out = tmp_path / "recon.csv"
        src = load_series(GDP_FIXTURE, "t", "value")
        anchor = f"{src.times[0]}:{src.values[0]}"
        code = main(["integrate", str(rates), "--anchor", anchor, "--out", str(out)])
        assert code == 0
        recon = load_series(out, "t", "value")
        np.testing.assert_allclose(recon.values, src.values, rtol=1e-12)

    def test_size_beyond_float_range_is_exit_3(self, tmp_path, capsys):
        rates = tmp_path / "r.csv"
        rates.write_text("t,rate,size\n1,1e200,1\n2,1e200,1\n3,1e200,1\n")
        out = tmp_path / "x.csv"
        code = main(["integrate", str(rates), "--anchor", "0:1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: discretely integrated size is beyond the float range at t = 2.0\n"
        assert not out.exists()

    def test_polynomial_route_size_beyond_float_range_is_exit_3(self, tmp_path, capsys):
        # run under the suite's error::RuntimeWarning filter: an overflow
        # warning from the exp would raise here instead of exiting 3
        rates = tmp_path / "r.csv"
        rates.write_text("t,rate,size\n0,100,1\n1,200,1\n2,300,1\n3,400,1\n")
        out = tmp_path / "x.csv"
        code = main([
            "integrate", str(rates), "--anchor", "0:1", "--poly-degree", "1",
            "--grid", "0:3:0.5", "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: rate-law integral is beyond the float range at t = 3.0\n"
        assert not out.exists()

    def test_polynomial_route_needs_grid(self, tmp_path, capsys):
        rates = tmp_path / "r.csv"
        assert main(["rates", str(GDP_FIXTURE), "--out", str(rates)]) == 0
        out = tmp_path / "x.csv"
        code = main([
            "integrate", str(rates), "--anchor", "1960:7000", "--poly-degree", "3",
            "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --grid is required with --poly-degree\n"
        assert not out.exists()

    def test_polynomial_route_respects_range(self, tmp_path):
        rates = tmp_path / "r.csv"
        assert main(["rates", str(GDP_FIXTURE), "--out", str(rates)]) == 0
        code = main([
            "integrate", str(rates), "--anchor", "1960:7000", "--poly-degree", "3",
            "--grid", "1960:2100:5", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3  # 2100 is outside the fitted rate range

    def test_polynomial_route_inside_range(self, tmp_path):
        rates = tmp_path / "r.csv"
        assert main(["rates", str(GDP_FIXTURE), "--method", "refined", "--out", str(rates)]) == 0
        out = tmp_path / "x.csv"
        code = main([
            "integrate", str(rates), "--anchor", "1960:7000", "--poly-degree", "6",
            "--grid", "1960:2015:5", "--out", str(out),
        ])
        assert code == 0
        recon = load_series(out, "t", "value")
        assert recon.values[0] == pytest.approx(7000.0, rel=1e-12)

    def test_polynomial_interpolation_regime_warns(self, tmp_path, capsys):
        rates = tmp_path / "r.csv"
        rates.write_text("t,rate,size\n0,0.10,1\n1,0.12,1\n2,0.09,1\n3,0.11,1\n")
        out = tmp_path / "x.csv"
        code = main([
            "integrate", str(rates), "--anchor", "0:1", "--poly-degree", "3",
            "--grid", "0:3:1", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: interpolation regime: polynomial degree equals point count minus one\n"
        )
        assert out.exists()


class TestDiagnoseCommand:
    def test_identifies_logistic_fixture(self, tmp_path, capsys):
        code = main(["diagnose", str(LOGISTIC_FIXTURE)])
        assert code == 0
        out = capsys.readouterr().out
        assert "winner: linear_s" in out
        assert "stability:" in out

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.txt"
        code = main(["diagnose", str(GDP_FIXTURE), "--out", str(out)])
        assert code == 0
        assert "winner:" in out.read_text()

    @pytest.mark.parametrize("flag", ["--threshold", "--aux-a"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_value_is_exit_2(self, capsys, flag, value):
        code = main(["diagnose", str(GDP_FIXTURE), f"{flag}={value}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} values must be finite, got {value!r}\n"
        assert captured.out == ""

    def test_empty_out_value_is_exit_2(self, capsys):
        code = main(["diagnose", str(GDP_FIXTURE), "--out="])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
        assert captured.out == ""


class TestLineBreaksInMetadata:
    """A label or unit holding a line break would end its metadata line
    early and leave a file that no command reads back: exit 2, no file."""

    @staticmethod
    def assert_refused(code, capsys, key, value, out):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {key} must not contain a line break, got {value!r}\n"
        assert list(out.parent.glob(out.name + "*")) == []

    @pytest.mark.parametrize("value", ["x\ny", "x\ry"])
    @pytest.mark.parametrize("flag", ["label", "unit"])
    def test_rates(self, tmp_path, capsys, flag, value):
        out = tmp_path / "r.csv"
        code = main(["rates", str(GDP_FIXTURE), f"--{flag}", value, "--out", str(out)])
        self.assert_refused(code, capsys, flag, value, out)

    @pytest.mark.parametrize("value", ["p\nq", "p\rq"])
    def test_forecast_label(self, tmp_path, capsys, value):
        model = tmp_path / "m.txt"
        model.write_text("kind = exp_const\na = 0.02\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        code = main([
            "forecast", str(model), "--anchor", "0:1", "--grid", "0:5:1",
            "--label", value, "--out", str(out),
        ])
        self.assert_refused(code, capsys, "label", value, out)

    @pytest.mark.parametrize("value", ["x\ny", "x\ry"])
    def test_diagnose_label(self, tmp_path, capsys, value):
        out = tmp_path / "rep.txt"
        code = main(["diagnose", str(GDP_FIXTURE), "--label", value, "--out", str(out)])
        self.assert_refused(code, capsys, "label", value, out)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("lin", ["r-vs-t", "recip-s-vs-t"])
    def test_fit_unit(self, tmp_path, capsys, lin):
        rates = tmp_path / "r.csv"
        assert main(["rates", str(LOGISTIC_FIXTURE), "--out", str(rates)]) == 0
        source = rates if lin == "r-vs-t" else LOGISTIC_FIXTURE
        out = tmp_path / "m.txt"
        code = main([
            "fit", str(source), "--linearization", lin, "--unit", "a\nb", "--out", str(out),
        ])
        self.assert_refused(code, capsys, "unit", "a\nb", out)


class TestSeriesFlags:
    """Each command takes only the series overrides it reads."""

    @pytest.mark.parametrize("argv, flag", [
        (["fit", "--linearization", "recip-s-vs-t"], "--label"),
        (["diagnose"], "--unit"),
    ])
    def test_unused_override_is_a_usage_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.txt"
        code = main([argv[0], str(GDP_FIXTURE), *argv[1:], flag, "x", "--out", str(out)])
        assert code == 2
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err
        assert not out.exists()


class TestReproduceCommand:
    @pytest.mark.parametrize("case", ["world-pop", "japan-gdp", "uk-gdpcap"])
    def test_each_case_passes(self, tmp_path, capsys, case):
        code = main(["reproduce", case, "--out", str(tmp_path / "rep")])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_unknown_case_lists_names(self, tmp_path, capsys):
        code = main(["reproduce", "atlantis", "--out", str(tmp_path / "rep")])
        assert code == 2
        err = capsys.readouterr().err
        for name in ("uk-gdpcap", "world-pop", "japan-gdp"):
            assert name in err

    def test_world_pop_table_contents(self, tmp_path, capsys):
        code = main(["reproduce", "world-pop", "--out", str(tmp_path / "rep")])
        assert code == 0
        table = (tmp_path / "rep" / "world-pop_scenarios.csv").read_text()
        assert "asymptotic" in table and "maximum" in table
        assert "indistinguishable,yes,yes" in table  # 2030 and 2050 agree
        report = (tmp_path / "rep" / "world-pop_report.txt").read_text()
        assert report.count("PASS") == 8

    def test_uk_report_has_integration_consistency(self, tmp_path):
        code = main(["reproduce", "uk-gdpcap", "--out", str(tmp_path / "rep")])
        assert code == 0
        report = (tmp_path / "rep" / "uk-gdpcap_report.txt").read_text()
        assert "line integration consistency" in report
        assert report.count("PASS") == 3

    def test_japan_report_footnotes_rounding(self, tmp_path):
        code = main(["reproduce", "japan-gdp", "--out", str(tmp_path / "rep")])
        assert code == 0
        report = (tmp_path / "rep" / "japan-gdp_report.txt").read_text()
        assert "2006" in report  # the published-year discrepancy is documented
        assert "PASS" in report


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        src = tmp_path / "s.csv"
        write_exponential_series(src)
        outs = []
        for run in ("a", "b"):
            rates = tmp_path / f"r_{run}.csv"
            model = tmp_path / f"m_{run}.txt"
            proj = tmp_path / f"p_{run}.csv"
            assert main(["rates", str(src), "--out", str(rates)]) == 0
            assert main(["fit", str(rates), "--linearization", "r-vs-t", "--out", str(model)]) == 0
            assert main([
                "forecast", str(model), "--anchor", "0:100", "--grid", "0:100:5", "--out", str(proj)
            ]) == 0
            outs.append((rates.read_bytes(), model.read_bytes(), proj.read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for 2 BLAS threads")
    def test_fit_files_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits long dot products across its threads, which
        # reorders the sums; at 2e4 points the least-squares sums must
        # not go through it
        rng = np.random.default_rng(11)
        t = 1950.0 + 0.01 * np.arange(20_000)
        rates = 1.0 / (80.0 - 30.0 * np.exp(-0.02 * (t - 1950.0)))
        rates *= 1.0 + 0.01 * rng.standard_normal(t.size)
        src = tmp_path / "r.csv"
        write_rates(src, RateSeries(times=t, rates=rates, sizes=np.ones_like(t)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(growthcast.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        fits = {
            "line": ["--linearization", "r-vs-t"],
            "scan": ["--linearization", "shifted-ln-vs-t", "--scan-aux", "40:160"],
        }
        written = {}
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            for name, flags in fits.items():
                out = tmp_path / f"{name}_{threads}.txt"
                proc = subprocess.run(
                    [sys.executable, "-m", "growthcast.cli", "fit", str(src), *flags,
                     "--out", str(out)],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
                written[name, threads] = out.read_bytes()
        for name in fits:
            assert written[name, "1"] == written[name, "2"], name

    def test_pipes_compose_full_loop(self, tmp_path):
        # forecast output is itself a valid series file for cmd_rates
        model_file = tmp_path / "m.txt"
        model_file.write_text("kind = exp_const\na = 0.02\n", encoding="utf-8")
        proj = tmp_path / "p.csv"
        assert main(["forecast", str(model_file), "--anchor", "0:100", "--grid", "0:50:1", "--out", str(proj)]) == 0
        rates = tmp_path / "r.csv"
        assert main(["rates", str(proj), "--out", str(rates)]) == 0
        rs, _ = read_rates(rates)
        np.testing.assert_allclose(rs.rates, math.exp(0.02) - 1.0, rtol=1e-10)

    def test_sidecar_written(self, tmp_path):
        src = tmp_path / "s.csv"
        write_exponential_series(src)
        out = tmp_path / "r.csv"
        assert main(["rates", str(src), "--out", str(out)]) == 0
        meta = Path(str(out) + ".meta").read_text()
        assert "command: rates" in meta
