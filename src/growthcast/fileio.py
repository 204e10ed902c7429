"""Reading and writing the tool's delimited-text file formats.

Data files are written as UTF-8 comma-separated text (the readers take
any one-character delimiter) with a header row and optional
``# key: value`` metadata lines above it. Model files are flat
``key = value`` records with the fixed field set
{kind, a, b, r, C, t_ref, unit}; fields a kind does not use are absent.
A metadata value or model unit with a line break would end its line
early, so the writers refuse it (``ConfigError``) before opening a file.

Everything written here is deterministic: every float cell is its
repr (shortest exact round-trip, :func:`format_float`) and no
timestamps enter data files. Run metadata goes into a ``.meta`` sidecar
next to each output.

Data rows are streamed to the file in chunks of ``_CHUNK_ROWS`` rows.
Each chunk's cells are formatted in one numpy pass that computes the
repr text of every cell at once (:func:`_repr_cells`), so a 10^6-row
projection is never held in memory as text and no cell goes through a
per-float ``repr`` call. Tables of fewer than ``_BULK_ROWS`` rows are
formatted with ``%r`` in one ``%`` operation, which is cheaper there.

The readers import the records they build when first called, so
writing a file loads no model or rate code.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .timeseries import read_table

if TYPE_CHECKING:
    from .fitting import FitReport
    from .forecast import Projection, ScenarioReport
    from .models import Model
    from .rates import RateSeries
    from .timeseries import TimeSeries

PathLike = Union[str, Path]

_MODEL_FIELDS = ("kind", "a", "b", "r", "C", "t_ref", "unit")

#: Rows formatted per write in :func:`_write_table`; bounds the text and the
#: formatter's temporaries held in memory.
_CHUNK_ROWS = 1 << 13

#: Tables with fewer rows are formatted by ``%r``. The bulk formatter's fixed
#: cost per call and its tables built on first use outweigh its gain below
#: about 10^3 rows: the CLI's 10^2-row files stay on ``%r``.
_BULK_ROWS = 1 << 10


def format_float(x: float) -> str:
    """Shortest exact round-trip text of a float, as every output file writes it."""
    return repr(float(x))


def _one_line(key: str, value: str) -> str:
    """``value``, refused when a line break in it would end its line early."""
    if "\n" in value or "\r" in value:
        raise ConfigError(f"{key} must not contain a line break, got {value!r}")
    return value


def _meta_block(meta: dict[str, str]) -> str:
    return "".join(f"# {k}: {_one_line(k, v)}\n" for k, v in meta.items() if v != "")


# Shortest round-trip digits: the Schubfach algorithm (R. Giulietti, "The
# Schubfach way to render doubles", 2020), as in Java's DoubleToDecimal, on
# whole uint64 arrays. Every uint64 constant is an np.uint64 scalar, so that
# numpy 1.x value-based casting and numpy 2 (NEP 50) give the same bits.
_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_LO63 = _U64((1 << 63) - 1)

#: k -> (g0 low limb, g0 high limb, g1 low limb, g1 high limb, g1): the
#: 126-bit Schubfach constant g = g1 2^63 + g0 of 10^-k, filled on first use.
_G: dict[int, tuple[int, int, int, int, int]] = {}


def _g(k: int) -> tuple[int, int, int, int, int]:
    """g = floor(10^-k / 2^r) + 1, where r puts 10^-k / 2^r in [2^125, 2^126)."""
    limbs = _G.get(k)
    if limbs is None:
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            p = 10**k
            g = (1 << (p.bit_length() + 125)) // p + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        limbs = _G[k] = (g0 & 0xFFFFFFFF, g0 >> 32, g1 & 0xFFFFFFFF, g1 >> 32, g1)
    return limbs


def _mulhi(a0, a1, b0, b1):
    """High 64 bits of the 128-bit product (a1 2^32 + a0)(b1 2^32 + b0), from 32-bit limbs."""
    t = a1 * b0 + ((a0 * b0) >> _U64(32))
    u = a0 * b1 + (t & _LO32)
    return a1 * b1 + (t >> _U64(32)) + (u >> _U64(32))


def _rop(g, cp):
    """Schubfach's rounded-to-odd g cp / 2^127 (Java's ``rop``): the floor of
    the product's top bits, with its lowest bit set when a lower bit was."""
    g00, g01, g10, g11, g1 = g
    c0 = cp & _LO32
    c1 = cp >> _U64(32)
    x1 = _mulhi(g00, g01, c0, c1)
    y1 = _mulhi(g10, g11, c0, c1)
    z = ((g1 * cp) >> _U64(1)) + x1
    return (y1 + (z >> _U64(63))) | (((z & _LO63) + _LO63) >> _U64(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, k) with |x| = D 10^k, D the shortest decimal that reads back as x.

    ``bits`` is the uint64 view of finite float64 cells. Among the
    decimals of fewest digits inside x's rounding interval D is the one
    nearest x, ties to even, which is how ``repr`` picks its digits. A
    zero cell gets D = 0. D has at most 17 digits and may end in zeros.
    Java's code asks for at least two digits and so scales the two
    smallest subnormals by 10; here the one-digit-shorter candidate is
    tried for every cell instead, which gives 5e-324 where Java has 4.9e-324.
    """
    bq = (bits >> _U64(52)) & _U64(0x7FF)
    frac = bits & _U64((1 << 52) - 1)
    c = frac | ((bq != _U64(0)).astype(np.uint64) << _U64(52))
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    # a power of two has a lower neighbour twice as close as its upper one
    irregular = (frac == _U64(0)) & (bq > _U64(1))
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    lo = int(k.min())
    table = np.array([_g(j) for j in range(lo, int(k.max()) + 1)], dtype=np.uint64)
    at = k - lo
    g = tuple(limb.take(at) for limb in table.T)
    cb = c << _U64(2)
    odd = c & _U64(1)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U64(2) + irregular) << h) + odd
    vbr = _rop(g, (cb + _U64(2)) << h) - odd
    s = vb >> _U64(2)
    sp10 = (s // _U64(10)) * _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = (sp10 + _U64(10)) << _U64(2) <= vbr
    uin = vbl <= s << _U64(2)
    win = (s + _U64(1)) << _U64(2) <= vbr
    mid = (s << _U64(2)) + _U64(2)
    above = (vb > mid) | ((vb == mid) & (s & _U64(1)).astype(bool))
    d = np.where(upin != wpin, sp10 + _U64(10) * wpin, s + np.where(uin != win, win, above))
    d *= (bits << _U64(1)) != _U64(0)  # D = 0 for +-0.0
    return d, k


#: Width of one formatted cell: "-1.2345678901234567e-308" is the longest repr.
_CELL = 24
#: Pads cells to ``_CELL`` bytes; no UTF-8 text contains it, so deleting it
#: from a chunk's bytes leaves exactly the cells and their separators.
_PAD = b"\xff"
_POW10 = np.array([10**i for i in range(1, 18)], dtype=np.uint64)
_SCALE17 = np.array([10 ** (17 - i) for i in range(18)], dtype=np.uint64)
_SIGNS = np.frombuffer(b"+-.0--.0", np.uint32)
_E_PAD = np.frombuffer(b"e" + _PAD * 3, np.uint32)[0]


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """The source byte of each output byte of a cell, and the cell's length, per layout class.

    A cell's source row holds 3 unused bytes and the 17 digits, then
    "0" and 3 exponent digits, the exponent sign, "-", ".", "0", "e" and
    padding (bytes 20-23, 24, 25, 26, 27, 28, 29). The class is
    (sign, digit count n in 1..17, form): the form is the decimal point
    position dp = -3..16 in positional notation, or an exponent of 2 or
    3 digits. The rules are ``repr``'s: exponent form when dp <= -4 or
    dp > 16, with the exponent's sign and at least 2 of its digits;
    otherwise "0." and zeros before the digits when dp <= 0, and zeros
    and ".0" after them when dp >= n.
    """
    n = np.arange(1, 18, dtype=np.int8)[:, None, None]
    form = np.arange(22, dtype=np.int8)[None, :, None]
    p = np.arange(_CELL, dtype=np.int8)
    # positional: an integer part of `whole` bytes, ".", the fraction; byte p
    # shows digit v of the digits padded with zeros on both sides
    dp = form - 3
    whole = np.maximum(dp, 1)
    v = p - (p > whole) - (whole - dp)
    positional = np.where(p == whole, 26, np.where((v >= 0) & (v < n), 3 + v, 27))
    # exponent: a digit, then "." and the other digits if any, "e", sign, digits
    digits = form - 18
    mantissa = np.where(n == 1, 1, n + 1)
    e = p - mantissa
    exponent = np.where(
        p < mantissa,
        np.where(p == 1, 26, 3 + p - (p > 1)),
        np.where(e == 0, 28, np.where(e == 1, 24, 22 - digits + e)),
    )
    is_exp = form >= 20
    length = np.where(is_exp, mantissa + 2 + digits, whole + 1 + np.maximum(n - dp, 1))
    unsigned = np.where(p >= length, 29, np.where(is_exp, exponent, positional))
    cols = np.empty((2, 17 * 22, _CELL), np.intp)
    cols[0] = unsigned.reshape(-1, _CELL)
    cols[1, :, 0] = 25
    cols[1, :, 1:] = cols[0, :, :-1]
    return cols.reshape(-1, _CELL), np.concatenate((length.ravel(), length.ravel() + 1))


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Built on first use: the ASCII text of 0000..9999 as uint32 words, the
    trailing zeros of each (4 for 0000), and :func:`_layouts`."""
    ten = np.arange(10, dtype=np.uint8)
    text = np.empty((10, 10, 10, 10, 4), np.uint8)
    text[..., 0] = ten[:, None, None, None] + np.uint8(48)
    text[..., 1] = ten[:, None, None] + np.uint8(48)
    text[..., 2] = ten[:, None] + np.uint8(48)
    text[..., 3] = ten + np.uint8(48)
    z = (ten == 0).astype(np.int8)
    zeros = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    return (text.view(np.uint32).ravel(), zeros.ravel(), *_layouts())


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """``repr`` of each finite float64 in ``x``, as rows of bytes padded with ``_PAD``.

    The rows are as wide as the longest cell, at most ``_CELL`` bytes.
    """
    quads, zeros, layouts, lengths = _tables()
    bits = x.view(np.uint64)
    d, k = _shortest(bits)
    m = len(x)
    # D's digits left-aligned in 17 places: a lead digit and four groups of four
    nd = np.searchsorted(_POW10, d, side="right") + 1
    padded = d * _SCALE17.take(nd)
    top = padded // _U64(10**8)
    low = (padded - top * _U64(10**8)).astype(float)
    high = top.astype(float)
    head = np.floor(high / 1e4)
    groups = np.empty((m, 5), np.intp)
    groups[:, 0] = lead = np.floor(head / 1e4)
    groups[:, 1] = head - 1e4 * lead
    groups[:, 2] = second = high - 1e4 * head
    groups[:, 3] = third = np.floor(low / 1e4)
    groups[:, 4] = fourth = low - 1e4 * third
    # trailing zeros of the 17 digits; a group of 0000 adds its 4 to those before it
    tz = zeros.take(groups[:, 1])
    tz = zeros.take(groups[:, 2]) + (second == 0) * tz
    tz = zeros.take(groups[:, 3]) + (third == 0) * tz
    tz = zeros.take(groups[:, 4]) + (fourth == 0) * tz
    decpt = np.where(d == _U64(0), 1, k + nd)
    exp10 = decpt - 1
    src = np.empty((m, 32), np.uint8)
    words = src.view(np.uint32)
    words[:, :5] = quads.take(groups)
    words[:, 5] = quads.take(np.abs(exp10))
    words[:, 6] = np.where(exp10 < 0, _SIGNS[1], _SIGNS[0])
    words[:, 7] = _E_PAD
    form = np.where(
        (decpt > -4) & (decpt <= 16), decpt + 3, 20 + (np.abs(exp10) >= 100)
    )
    neg = (bits >> _U64(63)).astype(np.intp)
    cls = (neg * 17 + 16 - tz) * 22 + form
    idx = layouts[:, : lengths.take(cls).max()].take(cls, axis=0)
    idx += np.arange(0, 32 * m, 32)[:, None]
    return src.ravel().take(idx)


def _write_table(path: PathLike, head: str, *columns: np.ndarray) -> None:
    """Write ``head``, then one comma-separated row per index of the float64 columns.

    Each cell is the text :func:`format_float` gives, Python's float
    ``repr``: the shortest decimal that reads back as the cell, nearest
    it when several are that short (Schubfach, :func:`_shortest`), laid
    out by ``repr``'s rules (:func:`_layouts`). All cells of a chunk are
    formatted in one pass, then joined with commas and newlines.
    A table of fewer than ``_BULK_ROWS`` rows is formatted by ``%r``
    instead, which costs less than the bulk pass's fixed cost there.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        if len(columns[0]) < _BULK_ROWS:
            row = ",".join(["%r"] * len(columns)) + "\n"
            fh.write((row * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist()))
            return
        seps = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = np.column_stack([c[start : start + _CHUNK_ROWS] for c in columns])
            cells = _repr_cells(chunk.ravel())
            width = cells.shape[1]
            rows = np.empty(chunk.shape + (width + 1,), np.uint8)
            rows[..., :width] = cells.reshape(chunk.shape + (width,))
            rows[..., width] = seps
            fh.write(rows.tobytes().translate(None, _PAD).decode("ascii"))


def write_series(path: PathLike, ts: TimeSeries) -> None:
    head = _meta_block({"label": ts.label, "unit": ts.unit}) + "t,value\n"
    _write_table(path, head, ts.times, ts.values)


def write_rates(path: PathLike, rs: RateSeries, unit: str = "", transform: str = "") -> None:
    meta = {
        "label": rs.source_label,
        "method": rs.method.value,
        "transform": transform,
        "unit": unit,
    }
    head = _meta_block(meta) + "t,rate,size\n"
    _write_table(path, head, rs.times, rs.rates, rs.sizes)


def read_rates(path: PathLike, delimiter: str = ",") -> tuple[RateSeries, dict[str, str]]:
    """Read a rates table (columns t, rate and optionally size) plus its metadata.

    The table is read by :func:`timeseries.read_table`; sizes default to
    1 when the file has no size column.
    """
    from .rates import RateMethod, RateSeries

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
        "unit": _one_line("unit", model.unit) or None,
    }
    for key in _MODEL_FIELDS:
        val = record[key]
        if val is None:
            continue
        rendered = val if isinstance(val, str) else format_float(val)
        lines.append(f"{key} = {rendered}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_model(path: PathLike) -> Model:
    from .models import Model, ModelKind, Params

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


def write_projection(path: PathLike, proj: Projection) -> None:
    m = proj.model
    p = m.params
    param_text = ", ".join(
        f"{k} = {format_float(v)}"
        for k, v in (("a", p.a), ("b", p.b), ("r", p.r), ("C", p.C))
        if v is not None
    )
    feat = proj.features
    feat_bits = [feat.kind.value]
    if feat.t_star is not None:
        feat_bits.append(f"t_star = {format_float(feat.t_star)}")
    if feat.s_star is not None:
        feat_bits.append(f"s_star = {format_float(feat.s_star)}")
    meta = {
        "label": proj.series.label,
        "unit": proj.series.unit,
        "model": f"{m.kind.value} ({param_text}), t_ref = {format_float(m.t_ref)}",
        "anchor": f"t0 = {format_float(proj.anchor[0])}, s0 = {format_float(proj.anchor[1])}",
        "feature": ", ".join(feat_bits) + ("" if not feat.note else f" ({feat.note})"),
    }
    head = _meta_block(meta) + "".join(f"# warning: {w}\n" for w in proj.warnings)
    _write_table(path, head + "t,value\n", proj.series.times, proj.series.values)


def write_scenario_table(path: PathLike, report: ScenarioReport) -> None:
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
        ",".join(header) + "\n",
    ]
    for row in report.rows:
        cells = [row.label]
        cells += ["" if v is None else format_float(v) for v in row.values]
        cells.append(row.features.kind.value)
        cells.append("" if row.features.t_star is None else format_float(row.features.t_star))
        cells.append("" if row.features.s_star is None else format_float(row.features.s_star))
        lines.append(",".join(cells) + "\n")
    flag_cells = ["indistinguishable"]
    flag_cells += [
        "" if f is None else ("yes" if f else "no") for f in report.indistinguishable
    ]
    flag_cells += ["", "", ""]
    lines.append(",".join(flag_cells) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def write_sidecar(path: PathLike, command: str, args: Iterable[tuple[str, str]]) -> None:
    """Deterministic run-metadata sidecar (<output>.meta)."""
    from . import __version__

    lines = [f"command: {command}\n", f"version: {__version__}\n"]
    lines.extend(f"{k}: {v}\n" for k, v in args)
    Path(str(path) + ".meta").write_text("".join(lines), encoding="utf-8")
