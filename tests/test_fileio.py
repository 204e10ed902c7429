import dataclasses

import numpy as np
import pytest

import oracles
from growthcast import (
    ConfigError,
    InputError,
    Model,
    ModelKind,
    Params,
    ParseError,
    RateMethod,
    RateSeries,
    TimeSeries,
    ValidationError,
    load_series,
    project,
)
from growthcast import fileio
from growthcast.fileio import (
    _CHUNK_ROWS,
    format_float,
    read_model,
    read_rates,
    write_model,
    write_projection,
    write_rates,
    write_series,
)


class TestSeriesRoundTrip:
    def test_write_then_load(self, tmp_path):
        ts = TimeSeries(
            np.array([2000.0, 2001.5, 2003.0]),
            np.array([1.25, 2.5, 3.125]),
            label="demo",
            unit="widgets",
        )
        path = tmp_path / "s.csv"
        write_series(path, ts)
        back = load_series(path, "t", "value")
        np.testing.assert_array_equal(back.times, ts.times)
        np.testing.assert_array_equal(back.values, ts.values)
        assert back.label == "demo"
        assert back.unit == "widgets"


class TestRatesRoundTrip:
    def test_write_then_read(self, tmp_path):
        rs = RateSeries(
            times=np.array([1.0, 2.0]),
            rates=np.array([0.1, 0.2]),
            sizes=np.array([10.0, 12.0]),
            source_label="x",
            method=RateMethod.REFINED,
        )
        path = tmp_path / "r.csv"
        write_rates(path, rs, unit="persons", transform="log")
        back, meta = read_rates(path)
        np.testing.assert_array_equal(back.rates, rs.rates)
        np.testing.assert_array_equal(back.sizes, rs.sizes)
        assert back.method is RateMethod.REFINED
        assert meta["transform"] == "log"
        assert meta["unit"] == "persons"

    def test_missing_rate_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n1,2\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_rates(path)

    def test_bad_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,rate,size\n1,0.1,2\n2,zzz,3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 3"):
            read_rates(path)

    def test_sizes_default_to_one(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("rate,t\n0.5,1\n0.25,2\n", encoding="utf-8")
        rs, meta = read_rates(path)
        np.testing.assert_array_equal(rs.sizes, [1.0, 1.0])
        assert rs.method is RateMethod.DIRECT and meta == {}

    def test_unknown_method_is_config_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("# method: spline\nt,rate\n1,0.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown rate method 'spline'"):
            read_rates(path)

    def test_non_increasing_time_names_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("t,rate\n1,0.5\n2,0.5\n2,0.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="row 4: duplicated time 2.0"):
            read_rates(path)


class TestReadRatesMatchesLoop:
    """read_rates against the line-splitting reader it replaced."""

    @pytest.mark.parametrize("seed", range(4))
    def test_well_formed_files(self, seed, tmp_path):
        rng = np.random.default_rng([seed, 91])
        for k in range(20):
            n = int(rng.integers(1, 30))
            cols = ["t", "rate", "size"][: int(rng.integers(2, 4))]
            rng.shuffle(cols)
            rs = RateSeries(
                times=np.cumsum(rng.uniform(0.01, 2.0, n)) + rng.choice([0.0, 1900.0]),
                rates=rng.standard_normal(n) * 10.0 ** rng.integers(-6, 2),
                sizes=rng.uniform(0.1, 1e9, n),
            )
            head = ["# label: demo", "", "# method: refined", "# unit: m/s"][: rng.integers(0, 5)]
            arrays = {"t": rs.times, "rate": rs.rates, "size": rs.sizes}
            rows = [",".join(f" {float(arrays[c][i])!r}" for c in cols) for i in range(n)]
            text = "\n".join(head + [", ".join(cols)] + rows) + "\n"
            path = tmp_path / f"r{k}.csv"
            path.write_text(text, encoding="utf-8")
            want, want_meta = oracles.read_rates_loop(path)
            got, got_meta = read_rates(path)
            assert got_meta == want_meta
            assert (got.source_label, got.method) == (want.source_label, want.method)
            for field in ("times", "rates", "sizes"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize(
        "body, row",
        [("1,0.1,2\n2,x,3\n", 3), ("1,0.1,2\n2,0.1\n", 3), ("1,0.1,2\n2,,3\n", 3),
         ("1,0.1,2\n1,0.2,3\n", None)],
    )
    def test_errors_keep_class_and_row(self, tmp_path, body, row):
        path = tmp_path / "r.csv"
        path.write_text("t,rate,size\n" + body, encoding="utf-8")
        with pytest.raises(InputError) as want:
            oracles.read_rates_loop(path)
        with pytest.raises(type(want.value)) as got:
            read_rates(path)
        if row is not None:
            assert f"row {row}:" in str(want.value) and f"row {row}:" in str(got.value)


class TestModelRoundTrip:
    @pytest.mark.parametrize(
        "model",
        [
            Model(ModelKind.LINEAR_T, Params(a=2.520e-1, b=-1.197e-4), unit="persons"),
            Model(ModelKind.RATE_LN_LINEAR, Params(a=2.179e10, b=-1.406e-2, C=15.6e9)),
            Model(ModelKind.RATE_SHIFTED_EXP, Params(a=8.0, b=4.0, r=0.3), t_ref=1950.0),
            Model(ModelKind.HYPERBOLIC, Params(b=1.0, C=10.0)),
        ],
    )
    def test_bit_exact_round_trip(self, tmp_path, model):
        path = tmp_path / "m.txt"
        write_model(path, model, comments=["a comment line"])
        back = read_model(path)
        assert back.kind is model.kind
        assert back.params == model.params  # repr round-trips floats exactly
        assert back.t_ref == model.t_ref
        assert back.unit == model.unit

    def test_unused_fields_absent(self, tmp_path):
        path = tmp_path / "m.txt"
        write_model(path, Model(ModelKind.EXP_CONST, Params(a=0.02)))
        text = path.read_text()
        assert "b =" not in text and "r =" not in text and "C =" not in text

    def test_unknown_kind_lists_valid_kinds(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("kind = wibble\na = 1.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="linear_t"):
            read_model(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("kind = exp_const\na = 1.0\nzeta = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="zeta"):
            read_model(path)


class TestProjectionFile:
    def test_header_carries_model_anchor_feature(self, tmp_path):
        m = Model(ModelKind.LINEAR_T, Params(a=2.520e-1, b=-1.197e-4), unit="persons")
        proj = project(m, (2030.0, 8.4e9), np.arange(2030.0, 2101.0, 10.0), label="world")
        path = tmp_path / "p.csv"
        write_projection(path, proj)
        text = path.read_text()
        assert "# label: world" in text
        assert "# model: linear_t" in text
        assert "# anchor: t0 = 2030.0" in text
        assert "# feature: maximum" in text
        # the data block is a valid series file
        back = load_series(path, "t", "value")
        assert len(back) == len(proj.series)


# cells whose repr is easy to get wrong: signed zero, the smallest
# subnormal, exponent notation on both sides, inexact decimals
_SPECIALS = [-0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3]


def _columns(n):
    """n strictly increasing times and two columns cycling through _SPECIALS and random magnitudes."""
    rng = np.random.default_rng(n)
    times = np.concatenate(([-0.0, 5e-324, 1e-5, 0.1, 1 / 3], 1.0 + np.arange(n) / 3))[:n]
    pool = np.concatenate(
        (_SPECIALS, rng.standard_normal(90) * 10.0 ** rng.integers(-300, 300, 90))
    )
    return times, np.resize(pool, n), -np.resize(pool[::-1], n)


def _cell_by_cell(delimiter, *columns):
    """The data rows as the per-row writer loops rendered them."""
    return "".join(
        delimiter.join(format_float(x) for x in row) + "\n" for row in zip(*columns)
    )


def _write_all(tmp_path, n, delimiter):
    """Write a series, a rates and a projection file of n rows; return (path, expected text)."""
    times, values, sizes = _columns(n)
    series = tmp_path / "s.csv"
    write_series(series, TimeSeries(times, values, label="L", unit="U"), delimiter=delimiter)
    rates = tmp_path / "r.csv"
    rs = RateSeries(times, values, sizes, source_label="L", method=RateMethod.REFINED)
    write_rates(rates, rs, unit="U", transform="log", delimiter=delimiter)
    proj = project(Model(ModelKind.EXP_CONST, Params(a=0.02)), (0.0, 1.0), [0.0, 1.0])
    proj = dataclasses.replace(proj, series=TimeSeries(times, values, label="L"))
    projection = tmp_path / "p.csv"
    write_projection(projection, proj, delimiter=delimiter)
    two_columns = _cell_by_cell(delimiter, times, values)
    return [
        (series, f"# label: L\n# unit: U\nt{delimiter}value\n" + two_columns),
        (
            rates,
            "# label: L\n# method: refined\n# transform: log\n# unit: U\n"
            f"t{delimiter}rate{delimiter}size\n" + _cell_by_cell(delimiter, times, values, sizes),
        ),
        (
            projection,
            "# label: L\n# model: exp_const (a = 0.02, C = 1.0), t_ref = 0.0\n"
            "# anchor: t0 = 0.0, s0 = 1.0\n"
            "# feature: none (constant rate: pure exponential, no finite feature)\n"
            f"t{delimiter}value\n" + two_columns,
        ),
    ]


class TestChunkedWriters:
    """Each writer's file is the cell-by-cell format_float text, across chunk edges."""

    @pytest.mark.parametrize("delimiter", [";", "%s%"])
    @pytest.mark.parametrize("n", [2, 6, 7, 8, 15])
    def test_rows_across_chunk_edges(self, tmp_path, monkeypatch, n, delimiter):
        monkeypatch.setattr(fileio, "_CHUNK_ROWS", 7)
        for path, expected in _write_all(tmp_path, n, delimiter):
            assert path.read_bytes().decode("utf-8") == expected, path.name

    def test_rows_across_the_real_chunk_edge(self, tmp_path):
        for path, expected in _write_all(tmp_path, _CHUNK_ROWS + 1, ","):
            assert path.read_bytes().decode("utf-8") == expected, path.name
