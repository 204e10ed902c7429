"""Reading and writing the tool's delimited-text file formats.

Data files are written as UTF-8 comma-separated text (the readers take
any one-character delimiter) with a header row and optional
``# key: value`` metadata lines above it. Model files are flat
``key = value`` records with the fixed field set: kind, the fields of
``models.Params`` in their order, t_ref and unit; fields a kind does not
use are absent.
A metadata value or model unit with a line break would end its line
early, so the writers refuse it (``ConfigError``) before opening a file.

Everything written here is deterministic: every float cell is its
repr (shortest exact round-trip, :func:`format_float`) and no
timestamps enter data files. Run metadata goes into a ``.meta`` sidecar
next to each output.

Every output file is written here, as UTF-8 bytes, so its lines end
in LF on every platform: text by :func:`write_text`, data rows by
:func:`_write_table`, which streams them in chunks of ``_CHUNK_ROWS``
rows. Each chunk's cells are formatted in one numpy pass, with no
per-float ``repr`` call: :func:`_shortest` finds every cell's digits by
the Schubfach algorithm at one 64x128-bit product per cell, and
:func:`_repr_cells` lays out every cell's bytes in uint64 words by
arithmetic and one table lookup, padding the shorter cells with a byte
that is then deleted from the chunk. A 10^6-row projection is never
held in memory as text.

Both open their file through :func:`_rewrite`: an existing file is
rewritten in place, not truncated on opening, and then cut to the new
length, so its bytes are those of a write to a fresh path; only a
regular file is cut, so a device or a pipe can be written to. When the
writer raises, the file ends after the bytes written so far, as a
truncating open left it. A killed process is another matter: it can
leave the new head over the old file's tail, where a truncating write
left a short file.

The readers import the records they build when first called, so
writing a file loads no model or rate code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import stat
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .timeseries import read_table

if TYPE_CHECKING:
    from .fitting import FitReport
    from .forecast import Projection, ScenarioReport
    from .models import Features, Model
    from .rates import RateSeries
    from .timeseries import TimeSeries

PathLike = Union[str, Path]

#: Rows formatted per write in :func:`_write_table`; bounds the text and the
#: formatter's temporaries held in memory (about 5 MB at two columns).
_CHUNK_ROWS = 1 << 13


def format_float(x: float) -> str:
    """Shortest exact round-trip text of a float, as every output file writes it."""
    return repr(float(x))


def format_features(feat: Features) -> str:
    """``kind, t_star = ..., s_star = ...`` of a feature, without its note."""
    stars = (("t_star", feat.t_star), ("s_star", feat.s_star))
    return ", ".join([feat.kind.value] + [f"{k} = {format_float(v)}" for k, v in stars if v is not None])


@contextlib.contextmanager
def _rewrite(path: PathLike) -> Iterator[BinaryIO]:
    """``path`` opened to write bytes from its start, cut where the writing ended.

    Not truncating on opening lets a rewrite reuse the old file's pages.
    Only a regular file is cut: ``truncate`` refuses ``/dev/null``
    (EINVAL) and a pipe (ESPIPE).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def write_text(path: PathLike, text: str) -> None:
    """Write ``text`` as UTF-8 bytes, so its lines end in LF on every platform.

    The file is rewritten in place and cut to the new length (a device
    or a pipe is written, not cut), by the opener every output file
    goes through. The bytes equal those of a write to a fresh path.
    """
    with _rewrite(path) as fh:
        fh.write(text.encode("utf-8"))


def _one_line(key: str, value: str) -> str:
    """``value``, refused when a line break in it would end its line early."""
    if "\n" in value or "\r" in value:
        raise ConfigError(f"{key} must not contain a line break, got {value!r}")
    return value


def _meta_block(meta: dict[str, str], warnings: Sequence[str] = ()) -> str:
    """The ``# key: value`` lines of ``meta``'s nonempty values, then one ``# warning:`` line per note."""
    lines = [f"# {k}: {_one_line(k, v)}\n" for k, v in meta.items() if v != ""]
    return "".join(lines + [f"# warning: {w}\n" for w in warnings])


# Shortest round-trip digits: the Schubfach algorithm (R. Giulietti, "The
# Schubfach way to render doubles", 2020), as in Java's DoubleToDecimal, on
# whole uint64 arrays. Every uint64 constant is an np.uint64 scalar, so that
# numpy 1.x value-based casting and numpy 2 (NEP 50) give the same bits.
_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_LO63 = _U64((1 << 63) - 1)

#: k -> (g1, g0): the 126-bit Schubfach constant g = g1 2^63 + g0 of 10^-k,
#: filled on first use.
_G: dict[int, tuple[int, int]] = {}


def _g(k: int) -> tuple[int, int]:
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
        limbs = _G[k] = (g >> 63, g & ((1 << 63) - 1))
    return limbs


def _mulhi(a, c0, c1):
    """High 64 bits of a cp, for a < 2^63 and cp = c1 2^32 + c0 < 2^60.

    With those bounds the middle partial products and the carry sum to
    less than 2^64, so no carry needs splitting off.
    """
    a0 = a & _LO32
    a1 = a >> _U64(32)
    return ((((a0 * c0) >> _U64(32)) + a1 * c0 + a0 * c1) >> _U64(32)) + a1 * c1


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, k) with |x| = D 10^k, D the shortest decimal that reads back as x.

    ``bits`` is the uint64 view of finite float64 cells. Among the
    decimals of fewest digits inside x's rounding interval D is the one
    nearest x, ties to even, which is how ``repr`` picks its digits. A
    zero cell gets D = 0. D has at most 17 digits and may end in zeros;
    a normal x gets 16 or 17. Java's code asks for at least two digits
    and so scales the two smallest subnormals by 10; here the
    one-digit-shorter candidate is tried for every cell instead, which
    gives 5e-324 where Java has 4.9e-324.

    Each cell costs one 64x128-bit product, of g and cp = 4c 2^h. Java
    forms x's scaled value and both ends of its rounding interval with
    three such products, each kept as T = floor(g1 cp / 2) + floor(g0 cp
    / 2^64) and rounded to odd (``rop``). The ends' multipliers differ
    from cp by a power of two, 2^e, so their T differ from x's by
    g1 2^(e-1) plus floor(g0 2^e / 2^64) and a borrow or carry out of
    the low word of g0 cp: shifts of g, not products.
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
    g = table.T.take(k - lo, axis=1)
    g1, g0 = g
    cp = c << (h + _U64(2))
    # the products g1 cp = y1 2^64 + y0 and g0 cp = x1 2^64 + x0
    y0, x0 = g * cp
    y1, x1 = _mulhi(g, cp & _LO32, cp >> _U64(32))
    # x's T = vh 2^63 + vl
    vl = (y0 >> _U64(1)) + x1
    vh = y1 + (vl >> _U64(63))
    vl &= _LO63
    vb = vh | ((vl + _LO63) >> _U64(63))
    # the ends: cp - 2^el below, el = h + 1 or h for a power of two, and
    # cp + 2^e above, e = h + 1; the low 63 bits of g1 2^(e-1) stay under
    # 2^63 - 2^52 for every k, so the sums below borrow or carry at most 1
    e = h + _U64(1)
    el = e - irregular
    r = vl - ((g1 << (h - irregular)) & _LO63) - (g0 >> (_U64(64) - el)) - (x0 < (g0 << el))
    vbl = (vh - (g1 >> (_U64(64) - el)) - (r >> _U64(63))) | (((r & _LO63) + _LO63) >> _U64(63))
    low = g0 << e
    r = vl + ((g1 << h) & _LO63) + (g0 >> (_U64(64) - e)) + ((x0 + low) < low)
    vbr = (vh + (g1 >> (_U64(64) - e)) + (r >> _U64(63))) | (((r & _LO63) + _LO63) >> _U64(63))
    odd = c & _U64(1)
    vbl += odd
    vbr -= odd
    s = vb >> _U64(2)
    sp10 = (s // _U64(10)) * _U64(10)
    sp40 = sp10 << _U64(2)
    upin = vbl <= sp40
    wpin = sp40 + _U64(40) <= vbr
    uin = vbl <= (vb & _U64((1 << 64) - 4))
    win = (vb | _U64(3)) < vbr
    # s or s + 1 when only one is in the interval, else the nearer, ties to even
    d = s + (win & (~uin | ((vb & _U64(3)) + (s & _U64(1)) > _U64(2))))
    # the one-digit-shorter candidate when only one of its two is in
    sp10 += _U64(10) * wpin
    d += (upin ^ wpin) * (sp10 - d)
    d *= (bits << _U64(1)) != _U64(0)  # D = 0 for +-0.0
    return d, k


#: Width of one formatted cell: "-1.2345678901234567e-308" is the longest repr.
_CELL = 24
#: Pads cells to a common width; no UTF-8 text contains it, so deleting it
#: from a chunk's bytes leaves exactly the cells and their separators.
_PAD = b"\xff"
_POW10 = np.array([10**i for i in range(1, 18)], dtype=np.uint64)
_SCALE17 = np.array([10 ** (17 - i) for i in range(18)], dtype=np.uint64)
#: Offset of the decimal point position in the :func:`_tables` forms.
_DECPT = 330
#: "0.000" as a little-endian word: the prefix of 0.0001 <= |x| < 1.
_ZEROS = _U64(int.from_bytes(b"0.000", "little"))


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Built on first use: per decimal point position, and per (point byte, length).

    A cell with digits D and its point after dp of them is written by
    ``repr``'s rules: exponent form when dp <= -4 or dp > 16, with the
    exponent's sign and at least 2 of its digits; otherwise "0." and
    zeros before the digits when dp <= 0, and zeros and ".0" after them
    when dp >= the digit count. The forms, indexed by dp + ``_DECPT``,
    give where the point goes among D's 17 digits (17: nowhere), the
    fewest bytes kept from them, how many bytes of "-0.000" go before
    them and how many exponent bytes after; then the exponent text XOR
    0xFF. The marks, indexed by point * 19 + length, are the three
    little-endian words that OR digit values 0..9 into their ASCII text,
    give the point byte (value 0) a ".", and pad the bytes from the
    length on.
    """
    dp = np.arange(-_DECPT, _DECPT + 1)
    plain = (1 <= dp) & (dp <= 16)
    small = (-3 <= dp) & (dp <= 0)
    # the exponent text "e%+03d" % (dp - 1), one byte a column, of 4 or 5 bytes
    e = np.abs(dp - 1)
    three = e >= 100
    size = np.where(plain | small, 0, 4 + three)
    digits = np.stack((e // 100, e // 10 % 10, e % 10), axis=1)
    text = np.zeros((dp.size, 8), np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(dp > 1, ord("+"), ord("-"))
    text[:, 2:5] = ord("0") + np.where(three[:, None], digits, np.roll(digits, -1, axis=1))
    text[np.arange(8) >= size[:, None]] = 0xFF  # so that the XOR leaves 0 there
    forms = np.stack((
        np.where(plain, dp, np.where(small, 17, 1)),
        np.where(plain, dp + 2, 0),
        np.where(small, 2 - dp, 0),
        size,
    )).astype(np.intp)
    marks = np.full((18, 19, _CELL), ord("0"), np.uint8)
    marks[np.arange(18), :, np.arange(18)] = ord(".")
    marks[:, np.arange(19)[:, None] <= np.arange(_CELL)] = _PAD[0]
    return (
        forms,
        (~text).view("<u8").ravel().astype(np.uint64),
        marks.view("<u8").reshape(18 * 19, 3).T.astype(np.uint64),
    )


def _put_exponent(words: np.ndarray, length: np.ndarray, suffix: np.ndarray) -> None:
    """XOR each cell's exponent text ``suffix`` into ``words`` from byte ``length`` on.

    The text may span two words; numpy gives 0 for a shift by 64 or
    more, as a negative one is in uint64.
    """
    shift = ((length - np.array([[0], [8], [16]])) * 8).astype(np.uint64)
    words ^= (suffix << shift) | (suffix >> (_U64(0) - shift))


def _put_prefix(words: np.ndarray, before: np.ndarray, neg: np.ndarray) -> None:
    """Shift each cell's 24 bytes up by ``before`` and write its sign and "0.000" there.

    ``neg`` is 1 for a negative cell; numpy gives 0 for a shift by 64.
    """
    shift = before.astype(np.uint64) * _U64(8)
    words[1:] = (words[1:] << shift) | (words[:-1] >> (_U64(64) - shift))
    prefix = (_ZEROS << (neg * _U64(8))) | (neg * _U64(ord("-")))
    words[0] = (words[0] << shift) | (prefix & ((_U64(1) << shift) - _U64(1)))


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """``repr`` of each finite float64 in ``x``, as rows of bytes padded with ``_PAD``.

    The rows are as wide as the longest cell, at most ``_CELL`` bytes.
    Each cell is laid out in little-endian uint64 words, one numpy array
    per word, with no per-byte index: its 17 digits (:func:`_shortest`)
    get a 0 digit inserted where the point goes by arithmetic, U = 10 D -
    9 (D mod 10^(17 - point)), and U's 18 digits go to bytes by splitting
    into halves, quarters, pairs and single digits within the words. One
    table word per (point, length) then makes them ASCII, writes the
    point and pads the rest; the exponent is XORed in after the kept
    digits (:func:`_put_exponent`), and a sign or "0.000" prefix shifts
    the words up (:func:`_put_prefix`), each only in a chunk that has
    such cells.
    """
    forms, suffixes, marks = _tables()
    bits = x.view(np.uint64)
    d, k = _shortest(bits)
    m = len(x)
    # left-align D, of nd digits, to 17
    nd = np.searchsorted(_POW10, d, side="right") + 1
    d *= _SCALE17.take(nd)
    dp = k + nd
    dp[d == _U64(0)] = 1
    dp += _DECPT
    point, fewest, before, after = forms.take(dp, axis=1)
    u = d * _U64(10) - (d % _SCALE17.take(point)) * _U64(9)
    words = np.empty((3, m), np.uint64)
    hundreds = u // _U64(100)
    words[0] = hundreds // _U64(10**8)
    words[1] = hundreds - words[0] * _U64(10**8)
    pair = u - hundreds * _U64(100)
    tens = pair // _U64(10)
    words[2] = tens | ((pair - tens * _U64(10)) << _U64(8))
    # 8 digits to bytes, the first digit lowest: 4 + 4 into the 32-bit
    # halves, 2 + 2 into each half's 16-bit quarters, 1 + 1 into bytes;
    # x // 100 = (x 5243) >> 19 for x < 10^4 and x // 10 = (x 103) >> 10
    # for x < 100, with no carry between the fields
    w = words[:2]
    hi = w // _U64(10000)
    w = hi | ((w - hi * _U64(10000)) << _U64(32))
    hi = ((w * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)
    w = hi | ((w - hi * _U64(100)) << _U64(16))
    hi = ((w * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    words[:2] = hi | ((w - hi * _U64(10)) << _U64(8))
    # U's last nonzero digit byte, from the exponent of each word as a
    # float: exact, as a word of digit bytes 0..9 cannot round up to the
    # next power of two; an all-zero word gives a negative byte
    last = ((words.astype(float).view(np.int64) >> 52) - 1023) >> 3
    last += np.array([[0], [8], [16]])
    length = np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], fewest - 1)) + 1
    neg = bits >> _U64(63)
    before += neg.astype(np.intp)
    words |= marks.take(point * 19 + length, axis=1)
    # each step only in a chunk that has such cells: one 8192-row
    # long-series chunk has none, and running both there costs a fifth more
    if after.any():
        _put_exponent(words, length, suffixes.take(dp))
    if before.any():
        _put_prefix(words, before, neg)
    width = int((before + length + after).max())
    return words.T.astype("<u8", order="C").view(np.uint8)[:, :width]


def _write_table(path: PathLike, head: str, *columns: np.ndarray) -> None:
    """Write ``head``, then one comma-separated row per index of the float64 columns.

    Each cell is the text :func:`format_float` gives, Python's float
    ``repr``: the shortest decimal that reads back as the cell, nearest
    it when several are that short (Schubfach, :func:`_shortest`), laid
    out by ``repr``'s rules (:func:`_repr_cells`). All cells of a chunk
    are formatted in one pass, then joined with commas and newlines.
    The file is written as bytes and rewritten in place, as by
    :func:`write_text`, so its lines end in LF on every platform.
    """
    with _rewrite(path) as fh:
        fh.write(head.encode("utf-8"))
        seps = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = np.column_stack([c[start : start + _CHUNK_ROWS] for c in columns])
            cells = _repr_cells(chunk.ravel())
            width = cells.shape[1]
            # the rows are laid out in a bytearray through a numpy view of
            # it, so the pad is deleted from it with no bytes copy
            buf = bytearray(chunk.size * (width + 1))
            rows = np.frombuffer(buf, np.uint8).reshape(chunk.shape + (width + 1,))
            rows[..., :width] = cells.reshape(chunk.shape + (width,))
            rows[..., width] = seps
            fh.write(buf.translate(None, _PAD))


def write_series(path: PathLike, ts: TimeSeries, warnings: Sequence[str] = ()) -> None:
    head = _meta_block({"label": ts.label, "unit": ts.unit}, warnings) + "t,value\n"
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
    record = {
        "kind": model.kind.value,
        **vars(model.params),
        "t_ref": model.t_ref,
        "unit": _one_line("unit", model.unit) or None,
    }
    for key, val in record.items():
        if val is None:
            continue
        rendered = val if isinstance(val, str) else format_float(val)
        lines.append(f"{key} = {rendered}\n")
    write_text(path, "".join(lines))


def read_model(path: PathLike) -> Model:
    from .models import Model, ModelKind, Params

    names = ("kind", *(f.name for f in dataclasses.fields(Params)), "t_ref", "unit")
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
            if key not in names:
                raise ConfigError(f"{path}: unknown model field {key!r}; expected one of {names}")
            if key in fields:
                raise ParseError(f"{path}: line {n}: model field {key!r} is given twice")
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
    try:
        return Model(kind=kind, params=Params(**numeric), t_ref=t_ref, unit=unit)
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
    param_text = ", ".join(
        f"{k} = {format_float(v)}" for k, v in vars(m.params).items() if v is not None
    )
    feat = proj.features
    meta = {
        "label": proj.series.label,
        "unit": proj.series.unit,
        "model": f"{m.kind.value} ({param_text}), t_ref = {format_float(m.t_ref)}",
        "anchor": f"t0 = {format_float(proj.anchor[0])}, s0 = {format_float(proj.anchor[1])}",
        "feature": format_features(feat) + ("" if not feat.note else f" ({feat.note})"),
    }
    head = _meta_block(meta, proj.warnings) + "t,value\n"
    _write_table(path, head, proj.series.times, proj.series.values)


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
    write_text(path, "".join(lines))


def write_sidecar(path: PathLike, command: str, args: Iterable[tuple[str, str]]) -> None:
    """The deterministic sidecar <output>.meta: the command, the version, then each argument;
    the CLI passes all but --out, in its parser's order, and refuses a line break in any."""
    from . import __version__

    lines = [f"command: {command}\n", f"version: {__version__}\n"]
    lines.extend(f"{k}: {v}\n" for k, v in args)
    write_text(str(path) + ".meta", "".join(lines))
