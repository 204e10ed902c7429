import dataclasses
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _cell_by_cell(*columns):
    """The data rows as the per-row writer loops rendered them."""
    return "".join(",".join(format_float(x) for x in row) + "\n" for row in zip(*columns))


def _write_all(tmp_path, n, label):
    """Write a series, a rates and a projection file of n rows; return (path, expected text)."""
    times, values, sizes = _columns(n)
    series = tmp_path / "s.csv"
    write_series(series, TimeSeries(times, values, label=label, unit="U"))
    rates = tmp_path / "r.csv"
    rs = RateSeries(times, values, sizes, source_label=label, method=RateMethod.REFINED)
    write_rates(rates, rs, unit="U", transform="log")
    proj = project(Model(ModelKind.EXP_CONST, Params(a=0.02)), (0.0, 1.0), [0.0, 1.0])
    proj = dataclasses.replace(proj, series=TimeSeries(times, values, label=label))
    projection = tmp_path / "p.csv"
    write_projection(projection, proj)
    two_columns = _cell_by_cell(times, values)
    return [
        (series, f"# label: {label}\n# unit: U\nt,value\n" + two_columns),
        (
            rates,
            f"# label: {label}\n# method: refined\n# transform: log\n# unit: U\n"
            "t,rate,size\n" + _cell_by_cell(times, values, sizes),
        ),
        (
            projection,
            f"# label: {label}\n# model: exp_const (a = 0.02, C = 1.0), t_ref = 0.0\n"
            "# anchor: t0 = 0.0, s0 = 1.0\n"
            "# feature: none (constant rate: pure exponential, no finite feature)\n"
            "t,value\n" + two_columns,
        ),
    ]


class TestChunkedWriters:
    """Each writer's file is its metadata as given, then the cell-by-cell
    format_float text, across chunk edges."""

    # labels that must reach the file untouched: no % formatting of the
    # head, a tab kept, a non-ASCII character encoded as UTF-8
    @pytest.mark.parametrize("label", [";", "%s%", "\t", "\u2192"])
    @pytest.mark.parametrize("n", [2, 6, 7, 8, 15])
    def test_rows_across_chunk_edges(self, tmp_path, monkeypatch, n, label):
        monkeypatch.setattr(fileio, "_CHUNK_ROWS", 7)
        for path, expected in _write_all(tmp_path, n, label):
            assert path.read_bytes().decode("utf-8") == expected, path.name

    def test_rows_across_the_real_chunk_edge(self, tmp_path):
        for path, expected in _write_all(tmp_path, _CHUNK_ROWS + 1, "L"):
            assert path.read_bytes().decode("utf-8") == expected, path.name


def _reprs(x):
    """The cells ``fileio._repr_cells`` gives for x, as text."""
    cells = fileio._repr_cells(np.asarray(x, dtype=float))
    lines = np.full((len(cells), 1), ord("\n"), np.uint8)
    text = np.hstack((cells, lines)).tobytes().translate(None, fileio._PAD).decode("ascii")
    return text.split("\n")[:-1]


def _powers_of_two():
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate((p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)))


def _projection_shape():
    """Thinned 100-year grid of 10^6 points and an exponential trajectory on it."""
    t = np.linspace(2024.37, 2124.37, 1_000_000)[::41]
    return np.concatenate((t, 18734.25 * np.exp(0.0213 * (t - t[0]))))


def _short_decimals():
    """Exactly representable short decimals m 2^-n and their 1-ulp neighbours."""
    rng = np.random.default_rng(21)
    x = np.concatenate((
        rng.integers(1, 10**6, 20_000) / 2.0 ** rng.integers(0, 30, 20_000),
        np.arange(0.0, 5000.0, 0.25),
        rng.integers(1, 1 << 53, 5_000) * 2.0 ** rng.integers(0, 40, 5_000),
    ))
    return np.concatenate((x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)))


_RNG = np.random.default_rng(20)

#: Every class of double whose repr takes a different path through the formatter.
_INPUTS = {
    "bit patterns": _RNG.integers(0, 0x7FF0 << 48, 100_000, dtype=np.uint64).view(float),
    "subnormals": _RNG.integers(1, 1 << 52, 100_000, dtype=np.uint64).view(float),
    "smallest subnormals": np.arange(1, 5000, dtype=np.uint64).view(float),
    "powers of two and neighbours": _powers_of_two(),
    "powers of ten": 10.0 ** np.arange(-323, 309),
    "integers below 2^53": _RNG.integers(0, 1 << 53, 50_000).astype(float),
    "integers above 2^53": _RNG.integers(1 << 53, 1 << 62, 50_000).astype(float),
    "uniform decimals": _RNG.uniform(-1e4, 1e4, 50_000),
    "rounded decimals": np.round(_RNG.uniform(0.0, 1e8, 50_000)) / 10.0 ** _RNG.integers(0, 8, 50_000),
    "year grids": np.concatenate((np.arange(1900.0, 2101.0), np.linspace(2020.0, 2120.0, 50_001))),
    "form edges": np.array([
        1e16, 9999999999999998.0, 1e17, 0.0001, 0.00011, 9.9e-5, 1e-4 - 1e-20, 123456789.0, 1e100,
    ]),
    "extremes": np.array([0.0, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308]),
    "long-series projection": _projection_shape(),
    # their rounding interval's ends are where the derived end products decide
    "short decimals and neighbours": _short_decimals(),
}


class TestReprCells:
    """The vectorised formatter gives Python's repr, byte for byte."""

    @pytest.mark.parametrize("name", sorted(_INPUTS))
    def test_matches_repr_on_both_signs(self, name):
        x = np.concatenate((_INPUTS[name], -_INPUTS[name]))
        assert _reprs(x) == [repr(v) for v in x.tolist()]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_any_finite_floats(self, values):
        assert _reprs(values) == [repr(v) for v in values]

    def test_cells_are_as_wide_as_the_longest(self):
        assert fileio._repr_cells(np.array([1.0, 2.5])).shape == (2, 3)
        widest = [-1.2345678901234567e-308, 0.5]
        assert fileio._repr_cells(np.array(widest)).shape == (2, fileio._CELL)

    def test_constants_span_only_the_decimal_exponents_met(self, monkeypatch):
        monkeypatch.setattr(fileio, "_G", {})
        fileio._repr_cells(np.array([0.5, 3.0, 700.0]))
        assert sorted(fileio._G) == [-17, -16, -15, -14, -13]

    def test_exponent_and_prefix_steps_run_only_where_needed(self, monkeypatch):
        ran = []
        for step in ("_put_exponent", "_put_prefix"):
            spy = lambda *a, step=step, real=getattr(fileio, step): ran.append(step) or real(*a)
            monkeypatch.setattr(fileio, step, spy)
        steps = {}
        for name in sorted(_INPUTS):
            ran.clear()
            fileio._repr_cells(_INPUTS[name])
            steps[name] = set(ran)
        assert steps["long-series projection"] == set()
        assert steps["year grids"] == set()
        assert steps["powers of ten"] == {"_put_exponent", "_put_prefix"}
        assert steps["integers above 2^53"] == {"_put_exponent"}
        assert steps["uniform decimals"] == {"_put_prefix"}  # has negative cells

    def test_tables_match_the_loop(self):
        for got, want in zip(fileio._tables(), oracles.tables_loop(), strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_shifted_g_leaves_room_for_one_carry(self):
        # _shortest's derived interval ends borrow or carry at most 1 only if
        # the low 63 bits of g1 2^s stay under 2^63 - 2^52, s = h - 1 or h
        _, k = fileio._shortest(np.array([5e-324, np.finfo(float).max]).view(np.uint64))
        for j in range(int(k[0]), int(k[1]) + 1):
            g1 = fileio._g(j)[0]
            for s in range(1, 6):  # h is 2..5 for every double
                assert (g1 << s) & ((1 << 63) - 1) < (1 << 63) - (1 << 52), (j, s)


class TestWriterMatchesPercentR:
    """Whole files equal those of the replaced chunked ``%r`` writer."""

    # text the head must keep as given, as in TestChunkedWriters
    @pytest.mark.parametrize("label", [",", "\t", "\u2192", "%s%"])
    @pytest.mark.parametrize(
        "rows, chunk",
        [(0, 4), (1, 4), (3, 1), (200, 7), (200, 64), (1023, _CHUNK_ROWS), (1024, _CHUNK_ROWS)],
    )
    def test_same_bytes(self, tmp_path, monkeypatch, label, rows, chunk):
        rng = np.random.default_rng(rows + chunk)
        pool = np.concatenate([_INPUTS[name][:50] for name in sorted(_INPUTS)])
        columns = (
            np.arange(rows) * 0.25 + 1990.0,
            rng.choice(pool, rows) * rng.choice([-1.0, 1.0], rows),
            rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows),
        )
        head = f"# label: x\u00e9{label}\nt,a,b\n"
        monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk)
        fileio._write_table(tmp_path / "new.csv", head, *columns)
        oracles.write_table_percent_r(tmp_path / "old.csv", head, ",", *columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_one_column(self, tmp_path):
        column = np.array([-0.0, 1e-7, 2.5, 1e22])
        fileio._write_table(tmp_path / "new.csv", "x\n", column)
        oracles.write_table_percent_r(tmp_path / "old.csv", "x\n", ",", column)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()



def _rewriters(n):
    """Name -> (write to a path, the file that write makes there) for each output writer."""
    times, values, sizes = _columns(n)
    ts = TimeSeries(times, values, label="L", unit="U")
    rs = RateSeries(times, values, sizes, source_label="L", method=RateMethod.REFINED)
    proj = project(Model(ModelKind.EXP_CONST, Params(a=0.02)), (0.0, 1.0), [0.0, 1.0])
    proj = dataclasses.replace(proj, series=ts)
    model = Model(ModelKind.RATE_SHIFTED_EXP, Params(a=8.0, b=4.0, r=0.3), t_ref=1950.0, unit="U")
    sidecar = [("input", "s" * n), ("grid", "0:1:1")]
    return {
        "series": (lambda p: write_series(p, ts), str),
        "rates": (lambda p: write_rates(p, rs, unit="U", transform="log"), str),
        "projection": (lambda p: write_projection(p, proj), str),
        "model": (lambda p: write_model(p, model, comments=["c" * n]), str),
        "sidecar": (lambda p: fileio.write_sidecar(p, "rates", sidecar), lambda p: f"{p}.meta"),
    }


_WRITERS = sorted(_rewriters(2))


class TestRewrite:
    """Writing over an existing file gives the bytes of a write to a fresh
    path: each output file is rewritten in place and cut to its length."""

    @staticmethod
    def _fresh(tmp_path, name, n):
        write, made = _rewriters(n)[name]
        write(tmp_path / "fresh")
        return (tmp_path / made("fresh")).read_bytes()

    @pytest.mark.parametrize("before", ["longer", "shorter", "missing"])
    @pytest.mark.parametrize("name", _WRITERS)
    def test_same_bytes_as_a_fresh_write(self, tmp_path, name, before):
        expected = self._fresh(tmp_path, name, 40)
        write, made = _rewriters(40)[name]
        target = tmp_path / made("out")
        if before == "longer":
            target.write_bytes(b"\xffold\n" * len(expected))
        elif before == "shorter":
            target.write_bytes(b"old\n")
        write(tmp_path / "out")
        assert target.read_bytes() == expected

    @pytest.mark.parametrize("name", _WRITERS)
    def test_a_longer_write_of_the_same_writer(self, tmp_path, name):
        expected = self._fresh(tmp_path, name, 5)
        long_write, made = _rewriters(3 * _CHUNK_ROWS // 2)[name]
        long_write(tmp_path / "out")
        _rewriters(5)[name][0](tmp_path / "out")
        assert (tmp_path / made("out")).read_bytes() == expected

    @pytest.mark.parametrize("name", _WRITERS)
    def test_through_a_symlink(self, tmp_path, name):
        expected = self._fresh(tmp_path, name, 40)
        write, made = _rewriters(40)[name]
        real = tmp_path / made("real")
        real.write_bytes(b"old\n" * len(expected))
        link = tmp_path / made("link")
        try:
            os.symlink(real, link)
        except (OSError, NotImplementedError):
            pytest.skip("no symlinks here")
        write(tmp_path / "link")
        assert link.is_symlink()
        assert real.read_bytes() == expected

    @pytest.mark.skipif(os.name != "posix", reason="POSIX mode bits")
    @pytest.mark.parametrize("name", _WRITERS)
    def test_an_existing_file_keeps_its_mode(self, tmp_path, name):
        write, made = _rewriters(40)[name]
        target = tmp_path / made("out")
        target.write_bytes(b"old\n")
        os.chmod(target, 0o640)
        write(tmp_path / "out")
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o640

    @pytest.mark.skipif(os.name != "posix", reason="POSIX mode bits")
    def test_a_new_file_gets_the_mode_of_a_truncating_open(self, tmp_path):
        with open(tmp_path / "ref", "wb"):
            pass
        write_series(tmp_path / "new", TimeSeries(*_columns(3)[:2]))
        fileio.write_text(tmp_path / "new.txt", "x\n")
        expected = stat.S_IMODE(os.stat(tmp_path / "ref").st_mode)
        assert stat.S_IMODE(os.stat(tmp_path / "new").st_mode) == expected
        assert stat.S_IMODE(os.stat(tmp_path / "new.txt").st_mode) == expected


class TestNonRegularTargets:
    """A device or a pipe is written to and never cut: truncate refuses
    both (EINVAL on /dev/null, ESPIPE on a pipe)."""

    def test_series_to_devnull(self):
        write_series(os.devnull, TimeSeries(*_columns(3 * _CHUNK_ROWS // 2)[:2]))

    def test_text_to_devnull(self):
        fileio.write_text(os.devnull, "x\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="POSIX FIFOs")
    def test_table_into_a_fifo(self, tmp_path):
        times, values, _ = _columns(3 * _CHUNK_ROWS // 2)
        ts = TimeSeries(times, values, label="L")
        write_series(tmp_path / "fresh.csv", ts)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        read = []

        def drain():
            with open(fifo, "rb") as fh:
                read.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        write_series(fifo, ts)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert read == [(tmp_path / "fresh.csv").read_bytes()]


class TestInterruptedWrite:
    def test_file_ends_after_the_chunks_written(self, tmp_path, monkeypatch):
        """The writer's exception comes out as raised, and the file holds
        the head and the first chunk, none of the old file's bytes: what a
        truncating open left."""
        monkeypatch.setattr(fileio, "_CHUNK_ROWS", 4)
        times, values, _ = _columns(12)
        head = "# label: L\nt,value\n"
        fileio._write_table(tmp_path / "first.csv", head, times[:4], values[:4])
        target = tmp_path / "out.csv"
        target.write_bytes(b"old\n" * 10_000)
        real = fileio._repr_cells
        calls = []
        failure = RuntimeError("second chunk")

        def fail_on_second_call(x):
            calls.append(len(x))
            if len(calls) == 2:
                raise failure
            return real(x)

        monkeypatch.setattr(fileio, "_repr_cells", fail_on_second_call)
        with pytest.raises(RuntimeError) as info:
            fileio._write_table(target, head, times, values)
        assert info.value is failure
        assert info.value.__context__ is None
        assert calls == [8, 8]
        assert target.read_bytes() == (tmp_path / "first.csv").read_bytes()
