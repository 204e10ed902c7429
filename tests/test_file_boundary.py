"""Property tests at the file boundary: generated series and rates files
through ``cli.main``.

Every run must either exit 0 having written only finite numbers, or exit
2 (input) or 3 (numeric) with an ``error:`` line; an exception escaping
``main`` (a traceback, or a numpy ``RuntimeWarning`` raised as an error
by the test configuration) fails the test. Well-formed files must read
back exactly what ``write_series`` and ``write_rates`` wrote.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcast import RateMethod, RateSeries, TimeSeries, load_series
from growthcast.cli import main
from growthcast.fileio import read_rates, write_rates, write_series

DELIMITERS = [",", ";", "\t", "|", " "]

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# text that survives a '# key: value' line unchanged: no line breaks,
# no surrounding blanks
meta_text = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12
).map(str.strip)


@st.composite
def cells(draw, value, delimiter):
    """The text of one cell of the float ``value``, sometimes malformed."""
    form = draw(st.sampled_from(["repr", "repr", "repr", "exp", "quoted", "padded", "bad"]))
    if form == "exp":
        return f"{value:.4e}"
    if form == "quoted":
        return f'"{value!r}"'
    if form == "padded" and delimiter != " ":
        return f"  {value!r} "
    if form == "bad":
        return draw(st.sampled_from(["", "abc", "1.2.3", "nan", "inf", "-", '"1', "0x10"]))
    return repr(value)


@st.composite
def table_file(draw, columns):
    """Text of a delimited table with a ``t`` column, its delimiter, its times.

    ``columns`` maps each further column to two value strategies: one
    for clean tables, one for the rest. Times start at a calendar year
    or near zero. A clean table has increasing times and well-formed
    cells; the others mix in duplicated times, quoted and padded cells,
    short rows, bad cells, and blank and comment lines.
    """
    clean = draw(st.booleans())
    delimiter = draw(st.sampled_from(DELIMITERS))
    n = draw(st.integers(0, 25))
    t0 = draw(st.sampled_from([0.0, 0.5, 1.0, 1800.0, 1950.0, 2000.25]))
    steps = draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n))
    times = (t0 + np.cumsum(steps)).tolist()
    if not clean and n > 2 and draw(st.booleans()):
        i = draw(st.integers(1, n - 1))
        times[i] = times[i - 1]  # a duplicated time
    names = ["t", *columns]
    lines = [
        f"# {key}: {val}"
        for key, val in draw(
            st.lists(st.tuples(st.sampled_from(["label", "unit", "method", "transform"]),
                               meta_text), max_size=3)
        )
    ]
    lines.append(delimiter.join(f'"{c}"' if draw(st.booleans()) else c for c in names))
    for i in range(n):
        values = [times[i]] + [draw(columns[c][0 if clean else 1]) for c in names[1:]]
        if clean:
            row = [repr(v) for v in values]
        else:
            row = [draw(cells(v, delimiter)) for v in values]
            if draw(st.integers(0, 9)) == 0:
                row = row[:-1]  # a short row
        lines.append(delimiter.join(row))
        if not clean and draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# a comment", "#"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol, delimiter, times


SERIES = {"value": (st.floats(1e-3, 1e9), st.one_of(st.floats(-1e9, 1e9), st.just(0.0)))}
RATES = {
    "rate": (st.floats(-0.2, 0.3), st.one_of(st.floats(-0.5, 0.5), st.sampled_from([0.0, -2.0]))),
    "size": (st.floats(1e-3, 1e9), st.floats(-1e9, 1e9)),
}


def run(argv):
    """cli.main with its stderr captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_finite_outputs(path: Path) -> None:
    """Every number in a written data or model file is finite."""
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        if " = " in line:  # model file record
            key, _, val = line.partition(" = ")
            if key in ("kind", "unit"):
                continue
            cells = [val]
        else:
            cells = line.split(",")
        for cell in cells:
            assert math.isfinite(float(cell)), f"{path.name}: {line!r}"


def check_outcome(code, err, outputs):
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 0:
        for path in outputs:
            assert_finite_outputs(path)
    else:
        assert err.splitlines()[-1].startswith("error: "), err


@SETTINGS
@given(table_file(SERIES), st.sampled_from(["direct", "refined"]),
       st.sampled_from(["none", "log"]))
def test_series_file_through_rates_fit_and_integrate(table, method, transform):
    text, delimiter, _ = table
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "s.csv").write_text(text, encoding="utf-8")
        code, err = run(["rates", str(d / "s.csv"), "--method", method, "--window", "3",
                         "--degree", "1", "--transform", transform,
                         "--delimiter", delimiter, "--out", str(d / "r.csv")])
        check_outcome(code, err, [d / "r.csv"])
        code, err = run(["fit", str(d / "s.csv"), "--linearization", "recip-s-vs-t",
                         "--delimiter", delimiter, "--out", str(d / "h.txt")])
        check_outcome(code, err, [d / "h.txt"])
        if not (d / "r.csv").exists():
            return
        for lin in (["r-vs-t"], ["ln-r-vs-t"], ["shifted-ln-vs-t", "--scan-aux", "1:40"]):
            code, err = run(["fit", str(d / "r.csv"), "--linearization", *lin,
                             "--out", str(d / "m.txt")])
            check_outcome(code, err, [d / "m.txt"])
        code, err = run(["integrate", str(d / "r.csv"), "--anchor", "0:1",
                         "--out", str(d / "x.csv")])
        check_outcome(code, err, [d / "x.csv"])


@SETTINGS
@given(table_file(RATES), st.data(), st.floats(1e-3, 1e6))
def test_rates_file_through_fit_and_integrate(table, data, s0):
    text, delimiter, times = table
    t0 = data.draw(st.sampled_from([-1.0, *times[:3]]))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "r.csv").write_text(text, encoding="utf-8")
        for lin in (["r-vs-t"], ["r-vs-s"], ["recip-r-vs-t"], ["ln-r-vs-t"],
                    ["shifted-ln-vs-t", "--scan-aux", "0.5:30"]):
            code, err = run(["fit", str(d / "r.csv"), "--linearization", *lin,
                             "--delimiter", delimiter, "--out", str(d / "m.txt")])
            check_outcome(code, err, [d / "m.txt"])
        code, err = run(["integrate", str(d / "r.csv"), f"--anchor={t0!r}:{s0!r}",
                         "--delimiter", delimiter, "--out", str(d / "x.csv")])
        check_outcome(code, err, [d / "x.csv"])


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def increasing_times(draw, min_size):
    times = draw(st.lists(finite, min_size=min_size, max_size=30, unique=True))
    return np.sort(np.array(times, dtype=float))


@SETTINGS
@given(increasing_times(2), st.data(), meta_text, meta_text,
       st.sampled_from(DELIMITERS[:4]))
def test_written_series_reads_back_exactly(times, data, label, unit, delimiter):
    values = np.array(data.draw(st.lists(finite, min_size=times.size, max_size=times.size)))
    ts = TimeSeries(times, values, label=label, unit=unit)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        write_series(path, ts, delimiter=delimiter)
        back = load_series(path, "t", "value", delimiter=delimiter)
    np.testing.assert_array_equal(back.times, ts.times)
    np.testing.assert_array_equal(back.values, ts.values)
    assert (back.label, back.unit) == (label, unit)


@SETTINGS
@given(increasing_times(1), st.data(), meta_text, meta_text,
       st.sampled_from(list(RateMethod)), st.sampled_from(DELIMITERS[:4]))
def test_written_rates_read_back_exactly(times, data, label, unit, method, delimiter):
    column = st.lists(finite, min_size=times.size, max_size=times.size)
    rs = RateSeries(times, np.array(data.draw(column)), np.array(data.draw(column)),
                    source_label=label, method=method)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.csv"
        write_rates(path, rs, unit=unit, transform="log", delimiter=delimiter)
        back, meta = read_rates(path, delimiter=delimiter)
    for field in ("times", "rates", "sizes"):
        np.testing.assert_array_equal(getattr(back, field), getattr(rs, field))
    assert (back.source_label, back.method) == (label, method)
    assert meta.get("unit", "") == unit and meta["transform"] == "log"
