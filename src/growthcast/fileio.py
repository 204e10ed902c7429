"""Reading and writing the tool's delimited-text file formats.

Data files are UTF-8 delimited text with a header row and optional
``# key: value`` metadata lines above it. Model files are flat
``key = value`` records with the fixed field set
{kind, a, b, r, C, t_ref, unit}; fields a kind does not use are absent.

Everything written here is deterministic: every float cell is its
repr (shortest exact round-trip, :func:`format_float`) and no
timestamps enter data files. Run metadata goes into a ``.meta`` sidecar
next to each output.

Data rows are streamed to the file in chunks of ``_CHUNK_ROWS`` rows,
each chunk formatted in one ``%`` operation, so a 10^6-row projection
is never held in memory as text.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .fitting import FitReport
from .forecast import Projection, ScenarioReport
from .models import Model, ModelKind, Params
from .rates import RateMethod, RateSeries
from .timeseries import TimeSeries, read_table

PathLike = Union[str, Path]

_MODEL_FIELDS = ("kind", "a", "b", "r", "C", "t_ref", "unit")

#: Rows formatted per write in :func:`_write_table`; bounds the text held in memory.
_CHUNK_ROWS = 1 << 16


def format_float(x: float) -> str:
    """Shortest exact round-trip text of a float, as every output file writes it."""
    return repr(float(x))


def _meta_block(meta: dict[str, str]) -> str:
    return "".join(f"# {k}: {v}\n" for k, v in meta.items() if v != "")


def _write_table(path: PathLike, head: str, delimiter: str, *columns: np.ndarray) -> None:
    """Write ``head``, then one delimited row per index of the float64 columns.

    Each cell is the text :func:`format_float` gives: ``tolist`` yields
    Python floats and ``%r`` of a Python float is its repr.
    """
    row = delimiter.replace("%", "%%").join(["%r"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            chunk = np.column_stack([c[start:stop] for c in columns])
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def write_series(path: PathLike, ts: TimeSeries, delimiter: str = ",") -> None:
    head = _meta_block({"label": ts.label, "unit": ts.unit}) + f"t{delimiter}value\n"
    _write_table(path, head, delimiter, ts.times, ts.values)


def write_rates(
    path: PathLike,
    rs: RateSeries,
    unit: str = "",
    transform: str = "",
    delimiter: str = ",",
) -> None:
    meta = {
        "label": rs.source_label,
        "method": rs.method.value,
        "transform": transform,
        "unit": unit,
    }
    head = _meta_block(meta) + f"t{delimiter}rate{delimiter}size\n"
    _write_table(path, head, delimiter, rs.times, rs.rates, rs.sizes)


def read_rates(path: PathLike, delimiter: str = ",") -> tuple[RateSeries, dict[str, str]]:
    """Read a rates table (columns t, rate and optionally size) plus its metadata.

    The table is read by :func:`timeseries.read_table`; sizes default to
    1 when the file has no size column.
    """
    meta, cols = read_table(path, "t", ("rate",), optional=("size",), delimiter=delimiter)
    try:
        method = RateMethod(meta.get("method") or RateMethod.DIRECT.value)
    except ValueError:
        valid = ", ".join(m.value for m in RateMethod)
        raise ConfigError(
            f"{path}: unknown rate method {meta['method']!r}; valid methods: {valid}"
        ) from None
    rs = RateSeries(
        times=cols["t"],
        rates=cols["rate"],
        sizes=cols.get("size", np.ones_like(cols["t"])),
        source_label=meta.get("label", ""),
        method=method,
    )
    return rs, meta


def write_model(path: PathLike, model: Model, comments: Sequence[str] = ()) -> None:
    lines = [f"# {c}\n" for c in comments]
    p = model.params
    record = {
        "kind": model.kind.value,
        "a": p.a,
        "b": p.b,
        "r": p.r,
        "C": p.C,
        "t_ref": model.t_ref,
        "unit": model.unit or None,
    }
    for key in _MODEL_FIELDS:
        val = record[key]
        if val is None:
            continue
        rendered = val if isinstance(val, str) else format_float(val)
        lines.append(f"{key} = {rendered}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_model(path: PathLike) -> Model:
    fields: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for n, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(f"{path}: line {n}: expected 'key = value', got {stripped!r}")
            key, _, val = stripped.partition("=")
            key = key.strip()
            if key not in _MODEL_FIELDS:
                raise ConfigError(
                    f"{path}: unknown model field {key!r}; expected one of {_MODEL_FIELDS}"
                )
            fields[key] = val.strip()
    if "kind" not in fields:
        raise ConfigError(f"{path}: model file is missing the 'kind' field")
    try:
        kind = ModelKind(fields.pop("kind"))
    except ValueError:
        valid = ", ".join(k.value for k in ModelKind)
        raise ConfigError(f"{path}: unknown model kind; valid kinds: {valid}") from None
    unit = fields.pop("unit", "")
    numeric: dict[str, float] = {}
    for key, val in fields.items():
        try:
            numeric[key] = float(val)
        except ValueError:
            raise ParseError(f"{path}: cannot parse {key} = {val!r} as a number") from None
    t_ref = numeric.pop("t_ref", 0.0)
    params = Params(
        a=numeric.get("a"), b=numeric.get("b"), r=numeric.get("r"), C=numeric.get("C")
    )
    try:
        return Model(kind=kind, params=params, t_ref=t_ref, unit=unit)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def fit_report_comments(report: FitReport) -> list[str]:
    """Human-readable '#' header lines summarizing a fit."""
    line = report.line
    out = [
        f"linearization: {report.linearization.value}",
        f"line: intercept = {format_float(line.intercept)}, slope = {format_float(line.slope)}",
        f"fit: r_squared = {format_float(line.r_squared)}, rms_residual = {format_float(line.rms_residual)}, "
        f"n_points = {line.n_points}, dropped_points = {line.dropped_points}",
    ]
    out.extend(f"warning: {w}" for w in report.warnings)
    return out


def write_projection(path: PathLike, proj: Projection, delimiter: str = ",") -> None:
    m = proj.model
    p = m.params
    param_text = ", ".join(
        f"{k} = {format_float(v)}"
        for k, v in (("a", p.a), ("b", p.b), ("r", p.r), ("C", p.C))
        if v is not None
    )
    feat = proj.features
    feat_bits = [f"feature: {feat.kind.value}"]
    if feat.t_star is not None:
        feat_bits.append(f"t_star = {format_float(feat.t_star)}")
    if feat.s_star is not None:
        feat_bits.append(f"s_star = {format_float(feat.s_star)}")
    meta_lines = [
        f"# label: {proj.series.label}\n",
        f"# unit: {proj.series.unit}\n" if proj.series.unit else "",
        f"# model: {m.kind.value} ({param_text}), t_ref = {format_float(m.t_ref)}\n",
        f"# anchor: t0 = {format_float(proj.anchor[0])}, s0 = {format_float(proj.anchor[1])}\n",
        "# " + ", ".join(feat_bits) + ("" if not feat.note else f" ({feat.note})") + "\n",
    ]
    meta_lines.extend(f"# warning: {w}\n" for w in proj.warnings)
    head = "".join(meta_lines) + f"t{delimiter}value\n"
    _write_table(path, head, delimiter, proj.series.times, proj.series.values)


def write_scenario_table(path: PathLike, report: ScenarioReport, delimiter: str = ",") -> None:
    """Scenario-by-year table with feature columns, plot-ready."""
    header = ["scenario"] + [format_float(y) for y in report.report_years]
    header += ["feature", "feature_t", "feature_s"]
    lines = [
        _meta_block(
            {
                "unit": report.unit,
                "indistinguishable_threshold": format_float(report.threshold),
            }
        ),
        delimiter.join(header) + "\n",
    ]
    for row in report.rows:
        cells = [row.label]
        cells += ["" if v is None else format_float(v) for v in row.values]
        cells.append(row.features.kind.value)
        cells.append("" if row.features.t_star is None else format_float(row.features.t_star))
        cells.append("" if row.features.s_star is None else format_float(row.features.s_star))
        lines.append(delimiter.join(cells) + "\n")
    flag_cells = ["indistinguishable"]
    flag_cells += [
        "" if f is None else ("yes" if f else "no") for f in report.indistinguishable
    ]
    flag_cells += ["", "", ""]
    lines.append(delimiter.join(flag_cells) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def write_sidecar(path: PathLike, command: str, args: Iterable[tuple[str, str]]) -> None:
    """Deterministic run-metadata sidecar (<output>.meta)."""
    from . import __version__

    lines = [f"command: {command}\n", f"version: {__version__}\n"]
    lines.extend(f"{k}: {v}\n" for k, v in args)
    Path(str(path) + ".meta").write_text("".join(lines), encoding="utf-8")
