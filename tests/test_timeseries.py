import io
import math

import numpy as np
import pytest

import oracles
from growthcast import (
    ConfigError,
    DomainError,
    InputError,
    ParseError,
    TimeSeries,
    TransformKind,
    ValidationError,
    load_series,
    transform_series,
)
from growthcast.timeseries import read_table


def make_series(times, values, **kw):
    return TimeSeries(np.asarray(times, float), np.asarray(values, float), **kw)


class TestTimeSeriesInvariants:
    def test_basic_construction(self):
        ts = make_series([1830, 1831], [2208, 2260], label="uk", unit="GK$")
        assert len(ts) == 2
        assert list(ts.points) == [(1830.0, 2208.0), (1831.0, 2260.0)]

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            make_series([2000], [1.0])

    def test_rejects_duplicate_times(self):
        with pytest.raises(ValidationError):
            make_series([2000, 2000], [1.0, 2.0])

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValidationError):
            make_series([2001, 2000], [1.0, 2.0])

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValidationError):
            make_series([0, 1], [1.0, math.nan])
        with pytest.raises(ValidationError):
            make_series([0, 1], [1.0, math.inf])

    def test_arrays_are_read_only(self):
        ts = make_series([0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    # (times, values, message): most cases also fail a later check, which
    # pins the order of the checks
    @pytest.mark.parametrize("times, values, message", [
        ([0.0, math.nan], [1.0], "times and values must be 1-d arrays of equal length"),
        ([[0.0, 1.0]], [[1.0, 2.0]], "times and values must be 1-d arrays of equal length"),
        (0.0, 1.0, "times and values must be 1-d arrays of equal length"),
        ([math.nan], [1.0], "a series needs at least 2 points, got 1"),
        ([], [], "a series needs at least 2 points, got 0"),
        ([1.0, math.inf], [math.nan, 2.0], "times contain non-finite entries"),
        ([1.0, 0.0], [1.0, -math.inf], "values contain non-finite entries"),
        ([0.0, 2.0, 1.0, 0.5], [1.0, 2.0, 3.0, 4.0],
         "times must be strictly increasing; violation between t=2.0 and t=1.0"),
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0],
         "times must be strictly increasing; violation between t=1.0 and t=1.0"),
    ])
    def test_first_failing_check_names_itself(self, times, values, message):
        with pytest.raises(ValidationError) as info:
            TimeSeries(times, values)
        assert str(info.value) == message

    def test_caller_arrays_stay_writable_when_a_check_fails(self):
        times, values = np.array([1.0, 0.0]), np.array([1.0, 2.0])
        with pytest.raises(ValidationError):
            TimeSeries(times, values)
        assert times.flags.writeable and values.flags.writeable


class TestLoadSeries:
    def test_two_rows(self):
        src = io.StringIO("year,gdp\n1830,2208\n1831,2260\n")
        ts = load_series(src, "year", "gdp")
        assert len(ts) == 2
        assert ts.times[0] == 1830.0
        assert ts.values[1] == 2260.0

    def test_duplicate_time_is_validation_error(self):
        src = io.StringIO("t,v\n2000,1\n2000,2\n")
        with pytest.raises(ValidationError, match="duplicated"):
            load_series(src, "t", "v")

    def test_non_numeric_cell_names_the_row(self):
        src = io.StringIO("t,v\n2000,1\n2001,abc\n")
        with pytest.raises(ParseError, match="row 3"):
            load_series(src, "t", "v")

    def test_missing_column_is_config_error(self):
        src = io.StringIO("t,v\n2000,1\n2001,2\n")
        with pytest.raises(ConfigError, match="population"):
            load_series(src, "t", "population")

    def test_metadata_lines_supply_label_and_unit(self):
        src = io.StringIO("# label: world\n# unit: persons\nt,v\n2000,1\n2001,2\n")
        ts = load_series(src, "t", "v")
        assert ts.label == "world"
        assert ts.unit == "persons"

    def test_explicit_label_wins_over_metadata(self):
        src = io.StringIO("# label: world\nt,v\n2000,1\n2001,2\n")
        ts = load_series(src, "t", "v", label="mine")
        assert ts.label == "mine"

    def test_custom_delimiter(self):
        src = io.StringIO("t;v\n2000;1\n2001;2\n")
        ts = load_series(src, "t", "v", delimiter=";")
        assert len(ts) == 2

    def test_fractional_years_accepted(self):
        src = io.StringIO("t,v\n2000.25,1\n2000.75,2\n")
        ts = load_series(src, "t", "v")
        assert ts.times[1] == 2000.75


class TestTransformSeries:
    def test_log_of_exponentials(self):
        ts = make_series([0, 1], [math.e, math.e**2])
        out = transform_series(ts, TransformKind.LOG)
        assert out.values == pytest.approx([1.0, 2.0], abs=1e-15)

    def test_reciprocal(self):
        ts = make_series([0, 1], [2.0, 4.0])
        out = transform_series(ts, TransformKind.RECIPROCAL)
        assert out.values == pytest.approx([0.5, 0.25])

    def test_log_rejects_non_positive(self):
        ts = make_series([0, 1], [1.0, -1.0])
        with pytest.raises(DomainError):
            transform_series(ts, TransformKind.LOG)

    def test_reciprocal_rejects_zero(self):
        ts = make_series([0, 1], [1.0, 0.0])
        with pytest.raises(DomainError):
            transform_series(ts, TransformKind.RECIPROCAL)

    def test_unit_annotation(self):
        ts = make_series([0, 1], [1.0, 2.0], unit="persons")
        assert transform_series(ts, TransformKind.LOG).unit == "ln(persons)"
        assert transform_series(ts, TransformKind.RECIPROCAL).unit == "1/(persons)"

    def test_reciprocal_is_involutive(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.5, 50.0, size=40)
        ts = make_series(np.arange(40), values)
        back = transform_series(
            transform_series(ts, TransformKind.RECIPROCAL), TransformKind.RECIPROCAL
        )
        np.testing.assert_allclose(back.values, ts.values, rtol=1e-15)

    def test_times_unchanged(self):
        ts = make_series([1990, 1995, 2003], [1.0, 2.0, 3.0])
        out = transform_series(ts, TransformKind.LOG)
        np.testing.assert_array_equal(out.times, ts.times)


def _cell(rng, x):
    """One well-formed text for the float x, in one of several spellings."""
    style = rng.integers(0, 5)
    if style == 0:
        return repr(x)
    if style == 1:
        return f"{x:.6e}"
    if style == 2:
        return f"  {x!r} "
    if style == 3:
        return f"{x:.3f}"
    return str(np.float32(x))


def _random_table(rng, columns, delimiter):
    """Text of a well-formed table: metadata and blank lines above the header."""
    n = int(rng.integers(2, 40))
    times = np.cumsum(rng.uniform(0.01, 3.0, n)) + rng.choice([0.0, 1800.0])
    data = {columns[0]: times}
    for col in columns[1:]:
        data[col] = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 12)
    lines = []
    for key in rng.permutation(["label", "unit", "method", "note"])[: rng.integers(0, 4)]:
        value = {"method": "refined"}.get(key, f"value of {key}: x")
        lines.append(f"#{' ' * int(rng.integers(0, 2))}{key}: {value}")
        if rng.random() < 0.3:
            lines.append("")
    lines.append(delimiter.join(columns))
    for i in range(n):
        cells = [_cell(rng, float(data[col][i])) for col in columns]
        lines.append(delimiter.join(cells))
    eol = "\r\n" if rng.random() < 0.3 else "\n"
    return eol.join(lines) + eol


class TestReaderMatchesLoop:
    """load_series against the row-by-row reader it replaced."""

    @pytest.mark.parametrize("seed", range(4))
    def test_well_formed_tables(self, seed, tmp_path):
        rng = np.random.default_rng([seed, 77])
        compared = 0
        for k in range(25):
            delimiter = str(rng.choice([",", ";", "\t", "|"]))
            path = tmp_path / f"s{k}.csv"
            path.write_text(_random_table(rng, ["t", "value"], delimiter), encoding="utf-8")
            try:
                want = oracles.load_series_loop(path, "t", "value", delimiter=delimiter)
            except ValidationError as exc:  # a formatted time repeated
                with pytest.raises(ValidationError) as got:
                    load_series(path, "t", "value", delimiter=delimiter)
                assert str(got.value).endswith(str(exc))
                continue
            got = load_series(path, "t", "value", delimiter=delimiter)
            np.testing.assert_array_equal(got.times, want.times)
            np.testing.assert_array_equal(got.values, want.values)
            assert (got.label, got.unit) == (want.label, want.unit)
            compared += 1
        assert compared >= 15

    @pytest.mark.parametrize(
        "body, row",
        [
            ("1,2\n2,abc\n3,4\n", 3),
            ("1,2\n2,\n3,4\n", 3),
            ("1,2\n2\n3,4\n", 3),
            ("1,2\n2,3\nx,4\n", 4),
            ("1,2\n2,3\n2,4\n", 4),
            ("1,2\n3,3\n2,4\n", 4),
            ("1,2\n", None),
        ],
    )
    def test_errors_keep_class_and_row(self, body, row):
        text = "# label: x\nt,value\n" + body
        with pytest.raises(InputError) as want:
            oracles.load_series_loop(io.StringIO(text), "t", "value")
        with pytest.raises(type(want.value)) as got:
            load_series(io.StringIO(text), "t", "value")
        if row is not None:
            assert f"row {row}:" in str(want.value) and f"row {row}:" in str(got.value)

    def test_bad_cell_message_names_file_row_and_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,value\n1,2\n2,abc\n", encoding="utf-8")
        with pytest.raises(ParseError) as got:
            load_series(path, "t", "value")
        assert str(got.value) == (
            f"{path}: row 3: cannot parse 'abc' in column 'value' as a number"
        )


class TestReadTable:
    def test_comment_and_blank_lines_skipped_anywhere(self):
        src = io.StringIO("# unit: m\nt,v\n1,2\n\n# a note: not metadata\n   \n2,3\n")
        meta, cols = read_table(src, "t", ("v",))
        assert meta == {"unit": "m"}
        np.testing.assert_array_equal(cols["v"], [2.0, 3.0])

    def test_skipped_lines_are_not_counted_as_rows(self):
        src = io.StringIO("t,v\n1,2\n# note\n\n2,x\n")
        with pytest.raises(ParseError, match="row 3:"):
            read_table(src, "t", ("v",))

    def test_quoted_cells_and_header(self):
        src = io.StringIO('"t";" v "\n"1.5";"2.5e3"\n2;3\n')
        meta, cols = read_table(src, "t", ("v",), delimiter=";")
        np.testing.assert_array_equal(cols["t"], [1.5, 2.0])
        np.testing.assert_array_equal(cols["v"], [2500.0, 3.0])
        with pytest.raises(ParseError, match="cannot parse '2,5'"):
            read_table(io.StringIO('t,v\n1,"2,5"\n'), "t", ("v",))

    def test_optional_column_absent(self):
        meta, cols = read_table(io.StringIO("t,v\n1,2\n"), "t", ("v",), optional=("size",))
        assert set(cols) == {"t", "v"}

    def test_no_header(self):
        with pytest.raises(ParseError, match="no header row"):
            read_table(io.StringIO("# label: x\n\n"), "t", ("v",))

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, delimiter):
        with pytest.raises(ConfigError, match="single character"):
            read_table(io.StringIO("t,v\n1,2\n"), "t", ("v",), delimiter=delimiter)

    def test_nan_time_is_left_to_the_series_finiteness_check(self):
        text = "t,v\n1,1\nnan,2\n0,3\n"
        _, cols = read_table(io.StringIO(text), "t", ("v",))
        assert math.isnan(cols["t"][1])
        with pytest.raises(ValidationError, match="^times contain non-finite entries$"):
            load_series(io.StringIO(text), "t", "v")

    def test_non_increasing_time_names_row(self):
        with pytest.raises(ValidationError, match=r"row 4: non-increasing time 1.5 \(previous 2.0\)"):
            read_table(io.StringIO("t,v\n1,0\n2,0\n1.5,0\n"), "t", ("v",))
