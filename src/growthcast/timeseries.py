"""Time series of a growing quantity: ingestion, validation, transforms.

A :class:`TimeSeries` is an immutable pair of arrays (times in calendar
years, observed sizes) with a label and a unit. Times must be strictly
increasing and all values finite; violations raise at construction so
downstream gradient code never sees bad spacing. ``rates.RateSeries``
shares these checks, and the library builds both through them.

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
from typing import Any, Iterable, NoReturn, Optional, Sequence, TextIO, Union

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
        _set_checked_fields(
            self,
            ("times", "values"),
            least=2,
            too_few="a series needs at least 2 points, got {n}",
            not_increasing="times must be strictly increasing; violation between "
            "t={prev} and t={now}",
        )

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def points(self) -> Iterable[tuple[float, float]]:
        return zip(self.times.tolist(), self.values.tolist())


def _set_checked_fields(
    record: Any, names: tuple[str, ...], *, least: int, too_few: str, not_increasing: str
) -> None:
    """Set ``record``'s fields ``names`` (times first) to read-only float64 arrays, checked.

    In order, the first failure raising a ValidationError: one 1-d shape;
    at least ``least`` points (``too_few``, formatted with n); each field
    finite; strictly increasing times (``not_increasing``, formatted with
    prev and now). No array is made read-only unless all checks pass.
    """
    arrays = [np.asarray(getattr(record, name), dtype=float) for name in names]
    shape = arrays[0].shape
    if len(shape) != 1 or any(arr.shape != shape for arr in arrays):
        listed = ", ".join(names[:-1]) + " and " + names[-1]
        raise ValidationError(f"{listed} must be 1-d arrays of equal length")
    n = shape[0]
    if n < least:
        raise ValidationError(too_few.format(n=n))
    for name, arr in zip(names, arrays):
        if np.count_nonzero(np.isfinite(arr)) != n:
            raise ValidationError(f"{name} contain non-finite entries")
    times = arrays[0]
    i = _first_non_increasing(times)
    if i is not None:
        raise ValidationError(not_increasing.format(prev=times[i - 1], now=times[i]))
    for name, arr in zip(names, arrays):
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def _first_non_increasing(times: np.ndarray) -> Optional[int]:
    """The first i with times[i] <= times[i - 1], or None; one comparison when there is none.

    A NaN compares neither way and is never the answer: finiteness is a separate check.
    """
    up = times[1:] > times[:-1]
    if np.count_nonzero(up) == up.size:
        return None
    bad = np.flatnonzero(times[1:] <= times[:-1])
    return int(bad[0]) + 1 if bad.size else None


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
    i = _first_non_increasing(times)
    if i is not None:
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

    Times are unchanged; the unit becomes :func:`transformed_unit`.
    LOG requires every value > 0, RECIPROCAL every value != 0.
    """
    if kind is TransformKind.LOG:
        if (ts.values <= 0).any():
            bad = int(np.argmax(ts.values <= 0))
            raise DomainError(
                f"log transform requires positive values; value "
                f"{ts.values[bad]} at t={ts.times[bad]}"
            )
        new_values = np.log(ts.values)
    elif kind is TransformKind.RECIPROCAL:
        if (ts.values == 0).any():
            bad = int(np.argmax(ts.values == 0))
            raise DomainError(f"reciprocal transform hit a zero value at t={ts.times[bad]}")
        with np.errstate(over="ignore"):
            new_values = 1.0 / ts.values
        if not np.isfinite(new_values).all():
            bad = int(np.argmax(~np.isfinite(new_values)))
            raise DomainError(f"reciprocal transform leaves the float range at t={ts.times[bad]}")
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigError(f"unknown transform {kind!r}")
    unit = transformed_unit(ts.unit, kind)
    return TimeSeries(times=ts.times, values=new_values, label=ts.label, unit=unit)


def transformed_unit(unit: str, kind: TransformKind) -> str:
    """The unit of transformed values: ``ln(unit)`` or ``1/(unit)``, "ln" or "1/" when unitless."""
    name = "ln" if kind is TransformKind.LOG else "1/"
    return f"{name}({unit})" if unit else name
