import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from growthcast.timeseries import _numpy_table, read_table, transformed_unit


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

    def test_caller_float64_arrays_are_kept_read_only(self):
        # documented: the record keeps a caller's float64 array uncopied
        # and makes it read-only; a copy passed in leaves the original writable
        times, values = np.arange(3.0), np.ones(3)
        ts = TimeSeries(times, values)
        assert ts.times is times and ts.values is values
        with pytest.raises(ValueError, match="read-only"):
            times[0] = -1.0
        mine = np.arange(3.0)
        TimeSeries(mine.copy(), values)
        mine[0] = -1.0
        assert mine[0] == -1.0


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

    @pytest.mark.parametrize("kind", ["log", "reciprocal", None, 0])
    def test_kind_that_is_not_a_transform_kind_is_refused(self, kind):
        # a value of the enum is not the enum: "log" must not become 1/S
        ts = make_series([0, 1], [1.0, 2.0], unit="persons")
        with pytest.raises(ConfigError) as exc:
            transform_series(ts, kind)
        assert str(exc.value) == f"unknown transform {kind!r}"

    @pytest.mark.parametrize("kind", ["log", "reciprocal", None, 0])
    def test_unit_of_a_kind_that_is_not_a_transform_kind_is_refused(self, kind):
        # "log" must not name the reciprocal unit 1/(u)
        with pytest.raises(ConfigError) as exc:
            transformed_unit("u", kind)
        assert str(exc.value) == f"unknown transform {kind!r}"

    def test_units(self):
        assert transformed_unit("u", TransformKind.LOG) == "ln(u)"
        assert transformed_unit("u", TransformKind.RECIPROCAL) == "1/(u)"
        assert transformed_unit("", TransformKind.LOG) == "ln"
        assert transformed_unit("", TransformKind.RECIPROCAL) == "1/"

    @pytest.mark.parametrize("unit", ["", "u", "1990 Int. GK$", "ln(u)", "(u)", "a) (b"])
    def test_log_argument_unit_inverts_the_log_unit(self, unit):
        from growthcast.timeseries import log_argument_unit

        assert log_argument_unit(transformed_unit(unit, TransformKind.LOG)) == unit

    @pytest.mark.parametrize("unit", ["", "u", "1/(u)", "1/", "ln u", "ln(u", "lnu)"])
    def test_log_argument_unit_keeps_any_other_unit(self, unit):
        from growthcast.timeseries import log_argument_unit

        assert log_argument_unit(unit) == unit


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
    def test_oversized_cell_names_its_row(self):
        src = io.StringIO("t,v\n1,2\n2," + "9" * 200_000 + "\n")
        with pytest.raises(ParseError) as exc:
            read_table(src, "t", ("v",))
        assert str(exc.value) == "row 3: field larger than field limit (131072)"

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


def read_outcome(reader, text, delimiter):
    """What ``reader`` makes of ``text``: its metadata and each column's
    bits, or its error as (type, message)."""
    try:
        meta, cols = reader(io.StringIO(text), "t", ("v",), optional=("x",), delimiter=delimiter)
    except Exception as exc:
        return type(exc), str(exc)
    return meta, {name: (col.shape, col.tobytes()) for name, col in cols.items()}


#: Cells that one reader or the other may read otherwise: spellings that
#: ``float`` accepts and numpy's parser does not, blanks that only one of
#: them strips, quotes, NUL, and a cell over csv's field limit.
ODD_CELLS = [
    "1_0", "\u0661\u0662", "\u00a01.5", "1.5\u2003", "\x0b1", " 2.5 ", '"3.5"', '" 4"',
    '"1,5"', '"1', "inf", "-Infinity", "nan", "NaN", "", " ", "abc", "\x1c1", "1\x1f",
    "1\x00", "0x10", "1e400", "-0.0", "+.5", "#1", "9" * 131_073,
]

CELLS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda x: f"{x:.25e}"),
    st.sampled_from(ODD_CELLS),
    st.text(max_size=3),
)

DELIMITERS = st.one_of(
    st.sampled_from([",", ";", " ", "\t", "|", '"', "\x1c", "\u00a0", ".", "e", "1", "#"]),
    st.characters(exclude_categories=("Cs",)),
)


@st.composite
def tables(draw):
    """A header naming t, v and maybe x in any order, then rows: well-formed
    ones (increasing times, blanks around some cells) or rows of any cells,
    of any length, with comment and blank lines between them."""
    d = draw(DELIMITERS)
    names = draw(st.permutations(["t", "v", "x"]))[: draw(st.integers(2, 3))]
    lines = [d.join(names)]
    t = 0.0
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["good", "good", "odd", "skip"]))
        if kind == "skip":
            lines.append(draw(st.sampled_from(["", "  ", "# note", " # x: y"])))
            continue
        if kind == "good":
            t += draw(st.floats(0.5, 10.0))
            pad = draw(st.sampled_from(["", " ", "\t"]))
            cells = [f"{pad}{t!r}" if n == "t" else repr(draw(st.floats())) for n in names]
        else:
            cells = draw(st.lists(CELLS, min_size=len(names) - 1, max_size=len(names) + 1))
        lines.append(d.join(cells))
    return "\n".join(lines) + "\n", d


class TestReaderMatchesCsv:
    """numpy's parser and its fallback read every table as csv.reader and float did."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tables())
    def test_same_columns_or_same_error(self, table):
        text, delimiter = table
        assert read_outcome(read_table, text, delimiter) == read_outcome(
            oracles.read_table_csv, text, delimiter
        )

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("t,v\n1,1_0\n", id="underscore"),  # float accepts it, numpy does not
            pytest.param("t,v\n1,\u0661\n", id="arabic-digit"),
            pytest.param("t,v\n1,\u00a02\u2003\n", id="unicode-blanks"),
            pytest.param("t,v\n1,2\x1c\n", id="x1c"),  # numpy strips it as a blank, float does not
            pytest.param("t,v\n1,2,\x00\n", id="nul"),
            pytest.param('x,t,v\n"a\nb",1,2\n', id="quote-over-two-lines"),
            pytest.param(
                'y,t,v\n"' + "a" * 70_000 + "\n" + "a" * 70_000 + '",1,2\n',
                id="quote-over-the-field-limit",
            ),
            pytest.param("t,v\n1,2\n2\n", id="short-row"),
            pytest.param("t,v\n1,2,3\n2,3\n", id="long-row"),
            pytest.param("t,v\n", id="header-only"),
            pytest.param("t,v\n1,2\n2," + "9" * 131_073 + "\n", id="cell-over-the-limit"),
            pytest.param("t,v,x\n1,2," + "9" * 131_073 + "\n", id="optional-over-the-limit"),
            pytest.param('t,"v\n1,2\n2,3\n', id="quote-in-the-header"),
            pytest.param('t,"v\n1,2\n2,1_0\n', id="quote-in-the-header-then-a-refused-cell"),
        ],
    )
    @pytest.mark.parametrize("delimiter", [",", " "])
    def test_inputs_numpy_must_leave_to_csv(self, text, delimiter):
        text = text.replace(",", delimiter)
        assert read_outcome(read_table, text, delimiter) == read_outcome(
            oracles.read_table_csv, text, delimiter
        )

    def test_numpy_reads_a_plain_table(self):
        body = ["1.5,2.5e-3,-7", "2,inf,nan"]
        table = _numpy_table(body, ",", [0, 2])
        assert table is not None
        assert table.tolist()[0] == [1.5, -7.0]
