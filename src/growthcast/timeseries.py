"""Time series of a growing quantity: ingestion, validation, transforms.

A :class:`TimeSeries` is an immutable pair of arrays (times in calendar
years, observed sizes) with a label and a unit. Times must be strictly
increasing and all values finite; violations raise at construction so
downstream gradient code never sees bad spacing. ``rates.RateSeries``
shares these checks, and the library builds both through them.

:func:`read_table` is the one reader of delimited data files, series
(:func:`load_series`) and rates (``fileio.read_rates``) alike: it reads
the stream once and converts the needed columns in bulk by numpy's C
text parser where it gives the bits of ``float``, and otherwise cell by
cell by ``csv.reader`` and ``float``, which stop at the offending cell.

An error about a point names the first offending one: ``_first_at`` is
the one rule, shared with ``rates`` and ``forecast``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, TextIO, Union

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
    increasing, at least two of them; values must all be finite. Both are
    stored read-only, a caller's own float64 array uncopied: pass a copy
    to keep writing to it.
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
    i = _first_at(times[1:] <= times[:-1])
    if i is not None:
        raise ValidationError(not_increasing.format(prev=times[i], now=times[i + 1]))
    for name, arr in zip(names, arrays):
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def _first_at(bad: np.ndarray, start: int = 0) -> Optional[int]:
    """The first True index of ``bad`` at or after ``start``, else the last one before it,
    else None: the one rule naming an offending point. One ``np.count_nonzero`` if none."""
    if not np.count_nonzero(bad):
        return None
    if np.count_nonzero(bad[start:]):
        return start + int(np.argmax(bad[start:]))
    return start - 1 - int(np.argmax(bad[start - 1 :: -1]))


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
    ``# key: value`` are the metadata. The header row is split by
    ``csv.reader`` and its names are stripped of surrounding blanks. The
    time column and ``columns`` must be present, ``optional`` columns are
    read when they are. The body is read by ``np.loadtxt``, whose C
    parser converts each cell as ``float`` does, where
    ``_numpy_may_read`` finds that it splits the rows as ``csv.reader``
    does; otherwise, or when it refuses a cell, the rows are split by
    ``csv.reader`` and every cell is converted by ``float``, row by row.
    Quoted cells work either way. The first empty, missing or unparseable cell
    is a ``ParseError`` naming its row (the header is row 1, skipped
    lines are not counted). Times must strictly increase: a duplicated
    or non-increasing time is a ``ValidationError`` naming its row.
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
    fast = _numpy_may_read(text, lines[header_at], body, delimiter)
    try:
        reader = csv.reader([lines[header_at]] + ([] if fast else body), delimiter=delimiter)
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
    usecols = [header.index(col) for col in wanted]
    table = _numpy_table(body, delimiter, usecols) if fast else None
    if table is None:
        if fast:
            rows = list(csv.reader(body, delimiter=delimiter))
        cells = []  # row by row, so the first bad cell stops the pass
        for n, row in enumerate(rows, start=2):  # header is row 1
            for col, j in zip(wanted, usecols):
                cell = row[j] if j < len(row) else ""
                try:
                    cells.append(float(cell))
                except ValueError:
                    bad = f"cannot parse {cell!r} in column {col!r} as a number"
                    if not cell.strip():
                        bad = f"empty cell in column {col!r}"
                    raise ParseError(f"{where}row {n}: {bad}") from None
        table = np.array(cells).reshape(len(rows), len(wanted))
    out = {col: table[:, k].copy() for k, col in enumerate(wanted)}  # contiguous

    times = out[time_column]
    i = _first_at(times[1:] <= times[:-1])
    if i is not None:
        prev, now = float(times[i]), float(times[i + 1])
        kind = "duplicated" if now == prev else "non-increasing"
        raise ValidationError(f"{where}row {i + 3}: {kind} time {now} (previous {prev})")
    return meta, out


def _numpy_may_read(text: str, header: str, body: list[str], delimiter: str) -> bool:
    """Whether numpy's parser reads ``body`` into the cells of ``csv.reader``
    wherever it reads it at all. Not when the body is empty (``loadtxt``
    warns), the header line holds a quote (``csv.reader`` may read on into
    the body), the delimiter is not one character, the text holds NUL (a
    csv error before Python 3.11) or \\x1c-\\x1f (``loadtxt`` strips them
    as blanks, ``float`` does not), or a cell may outgrow csv's field limit."""
    limit = csv.field_size_limit()
    return (
        bool(body)
        and '"' not in header
        and isinstance(delimiter, str)
        and len(delimiter) == 1
        and not any(c in text for c in "\x00\x1c\x1d\x1e\x1f")
        and (len(text) <= limit or ('"' not in text and max(map(len, body)) <= limit))
    )


def _numpy_table(body: list[str], delimiter: str, usecols: list[int]) -> Optional[np.ndarray]:
    """Columns ``usecols`` of ``body`` by numpy's C parser, which converts each cell
    with CPython's ``PyOS_string_to_double``, the bits of ``float``. None where
    it refuses a cell (``float`` also takes ``1_0`` and non-ASCII digits) or
    finds other rows than the lines (a quoted cell spans lines)."""
    try:
        table = np.loadtxt(
            body, delimiter=delimiter, quotechar='"', comments=None, usecols=usecols, ndmin=2
        )
    except Exception:  # any refusal: csv.reader and float name the offending cell
        return None
    return table if len(table) == len(body) else None


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
    LOG requires every value > 0, RECIPROCAL every value != 0; a
    ``kind`` that is not a TransformKind is a ConfigError.
    """
    unit = transformed_unit(ts.unit, kind)
    if kind is TransformKind.LOG:
        new_values = _log_values(ts)
    else:  # RECIPROCAL
        i = _first_at(ts.values == 0)
        if i is not None:
            raise DomainError(f"reciprocal transform hit a zero value at t={ts.times[i]}")
        with np.errstate(over="ignore"):
            new_values = 1.0 / ts.values
        i = _first_at(~np.isfinite(new_values))
        if i is not None:
            raise DomainError(f"reciprocal transform leaves the float range at t={ts.times[i]}")
    return TimeSeries(times=ts.times, values=new_values, label=ts.label, unit=unit)


def _log_values(ts: TimeSeries) -> np.ndarray:
    """ln of every value of ``ts``; a DomainError names the first value that is not positive."""
    i = _first_at(ts.values <= 0)
    if i is not None:
        raise DomainError(
            f"log transform requires positive values; value {ts.values[i]} at t={ts.times[i]}"
        )
    return np.log(ts.values)


def transformed_unit(unit: str, kind: TransformKind) -> str:
    """The unit of transformed values: ``ln(unit)`` or ``1/(unit)``, "ln" or "1/" when unitless.

    A ``kind`` that is not a TransformKind is a ConfigError.
    """
    if not isinstance(kind, TransformKind):
        raise ConfigError(f"unknown transform {kind!r}")
    name = "ln" if kind is TransformKind.LOG else "1/"
    return f"{name}({unit})" if unit else name


def log_argument_unit(unit: str) -> str:
    """The unit whose log :func:`transformed_unit` wrote as ``unit``: X of ``ln(X)``,
    "" of "ln"; a unit of any other form is returned as it is."""
    if unit == "ln":
        return ""
    return unit[3:-1] if unit.startswith("ln(") and unit.endswith(")") else unit
