"""Time series of a growing quantity: ingestion, validation, transforms.

A :class:`TimeSeries` is an immutable pair of arrays (times in calendar
years, observed sizes) with a label and a unit. Times must be strictly
increasing and all values finite; violations raise at construction so
downstream gradient code never sees bad spacing.

:func:`read_table` is the one reader of delimited data files, series
(:func:`load_series`) and rates (``fileio.read_rates``) alike: it reads
the stream once and converts each needed column in bulk, and looks for
the offending cell only when a conversion fails.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NoReturn, Sequence, TextIO, Union

import numpy as np

from .errors import ConfigError, DomainError, ParseError, ValidationError


class TransformKind(Enum):
    """Elementwise value transform: natural log or reciprocal."""

    LOG = "log"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class TimeSeries:
    """Ordered (time, value) observations of a growing entity.

    times are real-valued calendar years (fractional allowed), strictly
    increasing, at least two of them; values must all be finite.
    """

    times: np.ndarray
    values: np.ndarray
    label: str = ""
    unit: str = ""

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.shape != values.shape:
            raise ValidationError("times and values must be 1-d arrays of equal length")
        if times.size < 2:
            raise ValidationError(f"a series needs at least 2 points, got {times.size}")
        if not np.all(np.isfinite(times)):
            raise ValidationError("times contain non-finite entries")
        if not np.all(np.isfinite(values)):
            raise ValidationError("values contain non-finite entries")
        dt = np.diff(times)
        if np.any(dt <= 0):
            bad = int(np.argmax(dt <= 0))
            raise ValidationError(
                f"times must be strictly increasing; violation between "
                f"t={times[bad]} and t={times[bad + 1]}"
            )
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def points(self) -> Iterable[tuple[float, float]]:
        return zip(self.times.tolist(), self.values.tolist())


def read_table(
    source: Union[str, Path, TextIO],
    time_column: str,
    columns: Sequence[str],
    *,
    optional: Sequence[str] = (),
    delimiter: str = ",",
) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Read named float columns of a delimited text table, and its metadata.

    The stream is read once. Blank lines and lines starting with '#' are
    skipped wherever they are; those above the header row that read
    ``# key: value`` are the metadata. Rows are split by ``csv.reader``,
    so quoted cells work, and header names are stripped of surrounding
    blanks. The time column and ``columns`` must be present,
    ``optional`` columns are read when they are. Every cell is converted
    by ``float``; the first empty, missing or unparseable cell is a
    ``ParseError`` naming its row (the header is row 1, skipped lines
    are not counted). Times must strictly increase: a duplicated or
    non-increasing time is a ``ValidationError`` naming its row.
    Returns the metadata and one array per column read, keyed by name.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
        where = f"{source}: "
    else:
        text, where = source.read(), ""
    # line breaks as universal newlines read them: \n, \r\n and \r only
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    meta: dict[str, str] = {}
    header_at = None
    for i, raw in enumerate(lines):
        stripped = raw.strip()
        if not stripped:
            continue
        if not stripped.startswith("#"):
            header_at = i
            break
        key, colon, val = stripped.lstrip("#").partition(":")
        if colon:
            meta[key.strip()] = val.strip()
    if header_at is None:
        raise ParseError(f"{where}no header row found")
    body = [ln for ln in lines[header_at + 1 :] if (s := ln.strip()) and s[0] != "#"]
    try:
        reader = csv.reader([lines[header_at]] + body, delimiter=delimiter)
        header = [name.strip() for name in next(reader)]
        rows = list(reader)
    except (TypeError, ValueError):
        raise ConfigError(f"delimiter must be a single character, got {delimiter!r}") from None
    except csv.Error as exc:
        raise ParseError(f"{where}row {reader.line_num}: {exc}") from None

    wanted = [time_column, *columns]
    for col in wanted:
        if col not in header:
            raise ConfigError(f"{where}column {col!r} not found; available columns: {header}")
    wanted += [col for col in optional if col in header]
    out: dict[str, np.ndarray] = {}
    try:
        for col in wanted:
            cells = map(itemgetter(header.index(col)), rows)
            out[col] = np.fromiter(map(float, cells), dtype=float, count=len(rows))
    except (IndexError, ValueError):
        _raise_first_bad_cell(where, header, rows, wanted)

    times = out[time_column]
    bad = np.flatnonzero(times[1:] <= times[:-1])
    if bad.size:
        i = int(bad[0]) + 1
        prev, now = float(times[i - 1]), float(times[i])
        kind = "duplicated" if now == prev else "non-increasing"
        raise ValidationError(f"{where}row {i + 2}: {kind} time {now} (previous {prev})")
    return meta, out


def _raise_first_bad_cell(
    where: str, header: list[str], rows: list[list[str]], wanted: list[str]
) -> NoReturn:
    """Raise the ParseError of the first cell ``float`` cannot read, row by row."""
    for n, row in enumerate(rows, start=2):  # header is row 1
        for col in wanted:
            j = header.index(col)
            cell = row[j] if j < len(row) else ""
            if not cell.strip():
                raise ParseError(f"{where}row {n}: empty cell in column {col!r}")
            try:
                float(cell)
            except ValueError:
                raise ParseError(
                    f"{where}row {n}: cannot parse {cell!r} in column {col!r} as a number"
                ) from None
    raise AssertionError("no bad cell found")  # pragma: no cover


def load_series(
    source: Union[str, Path, TextIO],
    time_column: str,
    value_column: str,
    *,
    delimiter: str = ",",
    label: str | None = None,
    unit: str | None = None,
) -> TimeSeries:
    """Read a delimited text table into a validated TimeSeries.

    The table is read by :func:`read_table`; its ``# key: value``
    metadata may supply the label and unit (explicit arguments win).
    Rows are expected in time order; duplicated or non-increasing times
    are an error rather than being silently sorted, since reordering
    hides data-entry mistakes that corrupt gradients.
    """
    meta, cols = read_table(source, time_column, (value_column,), delimiter=delimiter)
    times = cols[time_column]
    if times.size < 2:
        raise ValidationError(f"a series needs at least 2 rows, got {times.size}")
    return TimeSeries(
        times=times,
        values=cols[value_column],
        label=label if label is not None else meta.get("label", ""),
        unit=unit if unit is not None else meta.get("unit", ""),
    )


def transform_series(ts: TimeSeries, kind: TransformKind) -> TimeSeries:
    """Replace values elementwise by ln(value) or 1/value.

    Times are unchanged; the unit string is annotated with the transform.
    LOG requires every value > 0, RECIPROCAL every value != 0.
    """
    if kind is TransformKind.LOG:
        if np.any(ts.values <= 0):
            bad = int(np.argmax(ts.values <= 0))
            raise DomainError(
                f"log transform requires positive values; value "
                f"{ts.values[bad]} at t={ts.times[bad]}"
            )
        new_values = np.log(ts.values)
        new_unit = f"ln({ts.unit})" if ts.unit else "ln"
    elif kind is TransformKind.RECIPROCAL:
        if np.any(ts.values == 0):
            bad = int(np.argmax(ts.values == 0))
            raise DomainError(f"reciprocal transform hit a zero value at t={ts.times[bad]}")
        new_values = 1.0 / ts.values
        new_unit = f"1/({ts.unit})" if ts.unit else "1/"
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigError(f"unknown transform {kind!r}")
    return TimeSeries(times=ts.times, values=new_values, label=ts.label, unit=new_unit)
