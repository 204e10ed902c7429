"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own evaluation paths: plain
Python/NumPy arithmetic, classical fixed-step Runge-Kutta, SciPy's
adaptive quadrature, per-window LAPACK least squares, exact rational
arithmetic and plain Python loops.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Callable, NoReturn, Optional, Sequence, TextIO, Union

import numpy as np

from growthcast import (
    CollapseError,
    ConfigError,
    DegenerateFitError,
    EmptyLinearizationError,
    NumericError,
    ParseError,
    RateMethod,
    TimeSeries,
    ValidationError,
)
from growthcast.diagnostics import (
    _MIN_TEST_POINTS,
    _R2_TIE_DECIMALS,
    Candidate,
    IdentificationReport,
    _constant_rate_candidate,
)
from growthcast.fileio import _CELL, _DECPT, _PAD
from growthcast.fitting import (
    _LINEARIZATIONS,
    FitReport,
    LinearizationKind,
    LineFit,
    _fit_lines,
    _line_coords,
    _Lines,
    fit_line,
    fit_rate_model,
    linearize,
    linearize_series,
)
from growthcast.models import LOG_LIFT, ArrayLike, Model, ModelKind, _log_trajectory
from growthcast.rates import (
    RateSeries,
    SmoothingConfig,
    direct_rates,
    estimate_rates,
    rate_of_transform,
    refined_rates,
)
from growthcast.timeseries import TransformKind, _first_at

#: Simplest-first order used to break r^2 ties (``diagnostics`` before
#: its tests were stated in one table).
_CATALOG_ORDER = (
    ModelKind.EXP_CONST,
    ModelKind.LINEAR_T,
    ModelKind.LINEAR_S,
    ModelKind.HYPERBOLIC,
    ModelKind.LOGLOG_T,
    ModelKind.LOGLOG_S,
    ModelKind.RATE_RECIP_LINEAR,
    ModelKind.RATE_LN_LINEAR,
    ModelKind.RATE_SHIFTED_EXP,
)

_RATE_TESTS = (
    LinearizationKind.R_VS_T,
    LinearizationKind.R_VS_S,
    LinearizationKind.RECIP_R_VS_T,
    LinearizationKind.LN_R_VS_T,
)


def model_kind_for(linearization: LinearizationKind) -> ModelKind:
    return _LINEARIZATIONS[linearization][0]


def rk4_log_integrate(
    rate: Callable[[float], float], t0: float, s0: float, grid: Sequence[float], h: float
) -> np.ndarray:
    """Integrate d(ln S)/dt = rate(t) from (t0, s0) with classical RK4.

    Returns S at each grid point; each inter-point interval is subdivided
    into steps of at most h.
    """
    out = np.empty(len(grid))
    ln_s = math.log(s0)
    t = t0
    for j, target in enumerate(grid):
        span = target - t
        if span > 0:
            n = max(1, math.ceil(span / h))
            dt = span / n
            for _ in range(n):
                k1 = rate(t)
                k2 = rate(t + dt / 2)
                k3 = k2  # no state dependence: k3 equals k2
                k4 = rate(t + dt)
                ln_s += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                t += dt
        out[j] = math.exp(ln_s)
    return out


def poly_derivative_over_value(coeffs: Sequence[float], t: np.ndarray) -> np.ndarray:
    """p'(t) / p(t) for a power-basis polynomial, via symbolic differentiation."""
    c = np.asarray(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, c.size)
    num = np.polynomial.polynomial.polyval(t, dc)
    den = np.polynomial.polynomial.polyval(t, c)
    return num / den


def local_poly_gradients(times: np.ndarray, values: np.ndarray, cfg) -> np.ndarray:
    """Windowed least-squares polynomial derivative, one SVD solve per point.

    The per-point ``lstsq`` loop that ``rates._local_poly_gradients``
    replaced, kept as its reference: same window placement, shift and
    scaling, a LAPACK SVD solve per window.
    """
    n = times.size
    w = cfg.window
    half = w // 2
    grads = np.empty(n)
    for i in range(n):
        lo = min(max(i - half, 0), n - w)
        idx = slice(lo, lo + w)
        x = times[idx] - times[i]
        scale = np.max(np.abs(x))
        xs = x / scale
        # Vandermonde least squares in the scaled variable
        V = np.vander(xs, cfg.degree + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(V, values[idx], rcond=None)
        grads[i] = coef[1] / scale
    return grads


def exact_local_poly_gradients(times: np.ndarray, values: np.ndarray, cfg) -> np.ndarray:
    """The same windowed derivative solved exactly, rounded once at the end.

    Each window's shifted and scaled abscissae and its values are exact
    binary fractions; scaled by powers of two they become integers, and
    the integer normal equations are solved by fraction-free (Bareiss)
    elimination and Cramer's rule for the degree-1 coefficient. Slow;
    meant for a handful of windows.
    """
    n = times.size
    w = cfg.window
    p = cfg.degree + 1
    grads = np.empty(n)
    for i in range(n):
        lo = min(max(i - w // 2, 0), n - w)
        x = times[lo : lo + w] - times[i]
        scale = np.max(np.abs(x))
        xs = [Fraction(float(a)) for a in x / scale]
        ys = [Fraction(float(b)) for b in values[lo : lo + w]]
        ex = math.lcm(*(a.denominator for a in xs))  # xs = X / ex
        ey = math.lcm(*(b.denominator for b in ys))  # ys = Y / ey
        X = [int(a * ex) for a in xs]
        Y = [int(b * ey) for b in ys]
        moments = [sum(a**k for a in X) for k in range(2 * p - 1)]
        gram = [moments[j : j + p] for j in range(p)]
        rhs = [sum(a**j * b for a, b in zip(X, Y)) for j in range(p)]
        with_rhs = [row[:1] + [r] + row[2:] for row, r in zip(gram, rhs)]
        # in the integer basis X^k the degree-1 coefficient is ex * c[1] * ey
        c1 = Fraction(_bareiss_det(with_rhs), _bareiss_det(gram)) * ex / ey
        grads[i] = float(c1 / Fraction(float(scale)))
    return grads


def _bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in matrix]
    m = len(a)
    sign, prev = 1, 1
    for k in range(m - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, m) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for r in range(k + 1, m):
            for c in range(k + 1, m):
                a[r][c] = (a[r][c] * a[k][k] - a[r][k] * a[k][c]) // prev
        prev = a[k][k]
    return sign * a[m - 1][m - 1]


def integrate_discrete_loop(
    grid: np.ndarray, rate_for_step: np.ndarray, anchor_idx: int, s0: float
) -> np.ndarray:
    """Discrete step integration, one step per loop iteration.

    The loop that ``forecast.integrate_discrete`` replaced, kept as its
    reference. ``rate_for_step[i]`` bridges (grid[i - 1], grid[i]); the
    size at ``grid[anchor_idx]`` is s0, later sizes multiply by 1 + R dt
    and earlier ones divide by it. Raises CollapseError, with the
    library's message, at the first factor <= 0 in each direction.
    """
    values = np.empty_like(grid)
    values[anchor_idx] = s0
    for i in range(anchor_idx + 1, grid.size):
        dt = grid[i] - grid[i - 1]
        factor = 1.0 + rate_for_step[i] * dt
        if factor <= 0:
            raise CollapseError(
                f"step into t = {grid[i]} would drive the size non-positive "
                f"(1 + R*dt = {factor})"
            )
        values[i] = values[i - 1] * factor
    for i in range(anchor_idx - 1, -1, -1):
        dt = grid[i + 1] - grid[i]
        factor = 1.0 + rate_for_step[i + 1] * dt
        if factor <= 0:
            raise CollapseError(
                f"backward step into t = {grid[i]} would drive the size non-positive "
                f"(1 + R*dt = {factor})"
            )
        values[i] = values[i + 1] / factor
    return values


def scan_shifted_aux_loop(
    rs: RateSeries,
    a_min: float,
    a_max: float,
    steps: int = 200,
    t_range: Optional[tuple[float, float]] = None,
    min_keep_fraction: float = 0.75,
) -> tuple[float, FitReport]:
    """The aux scan as one ``fit_rate_model`` per candidate.

    The loop that ``fitting.scan_shifted_aux`` replaced, kept as its
    reference: every grid point and every ternary-refinement step is a
    full fit, skipped when the fit raises or keeps too few points.
    """
    if not (a_min < a_max) or steps < 2:
        raise ConfigError("scan needs a_min < a_max and at least 2 steps")

    def try_fit(a: float) -> Optional[FitReport]:
        try:
            report = fit_rate_model(
                rs, LinearizationKind.SHIFTED_LN_VS_T, t_range=t_range, aux_a=a
            )
        except (EmptyLinearizationError, DegenerateFitError):
            return None
        n_total = report.line.n_points + report.line.dropped_points
        if report.line.n_points < max(3, min_keep_fraction * n_total):
            return None
        return report

    best: tuple[float, FitReport] | None = None
    for a in np.linspace(a_min, a_max, steps):
        report = try_fit(float(a))
        if report is None:
            continue
        if best is None or report.line.r_squared > best[1].line.r_squared:
            best = (float(a), report)
    if best is None:
        raise EmptyLinearizationError("no scan value of a admits a fit")

    # refine between the neighboring grid points: r^2 is smooth in a near
    # the optimum and the grid alone leaves a bias of order one step
    step = (a_max - a_min) / (steps - 1)
    lo, hi = best[0] - step, best[0] + step
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = try_fit(m1)
        f2 = try_fit(m2)
        r1 = -np.inf if f1 is None else f1.line.r_squared
        r2 = -np.inf if f2 is None else f2.line.r_squared
        if r1 < r2:
            lo = m1
            if f2 is not None and r2 > best[1].line.r_squared:
                best = (m2, f2)
        else:
            hi = m2
            if f1 is not None and r1 > best[1].line.r_squared:
                best = (m1, f1)
        if hi - lo <= 1e-12 * max(1.0, abs(best[0])):
            break
    return best


def write_table_percent_r(
    path, head: str, delimiter: str, *columns: np.ndarray, chunk_rows: int = 1 << 16
) -> None:
    """The chunked ``%r`` writer that ``fileio._write_table`` replaced, verbatim.

    Each cell is Python's float ``repr``: ``tolist`` yields Python
    floats and ``%r`` of a Python float is its repr. Only the chunk size,
    ``fileio._CHUNK_ROWS`` there, became a parameter.
    """
    row = delimiter.replace("%", "%%").join(["%r"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for start in range(0, len(columns[0]), chunk_rows):
            stop = start + chunk_rows
            chunk = np.column_stack([c[start:stop] for c in columns])
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def tables_loop() -> tuple[np.ndarray, ...]:
    """``fileio._tables`` as it was first written, a Python loop over the
    decimal point positions, verbatim."""
    forms, suffixes = [], []
    for dp in range(-_DECPT, _DECPT + 1):
        if 1 <= dp <= 16:
            point, fewest, before, suffix = dp, dp + 2, 0, b""
        elif -3 <= dp <= 0:
            point, fewest, before, suffix = 17, 0, 2 - dp, b""
        else:
            point, fewest, before, suffix = 1, 0, 0, b"e%+03d" % (dp - 1)
        forms.append((point, fewest, before, len(suffix)))
        suffixes.append(int.from_bytes(suffix, "little") ^ ((1 << 8 * len(suffix)) - 1))
    marks = np.full((18, 19, _CELL), ord("0"), np.uint8)
    marks[np.arange(18), :, np.arange(18)] = ord(".")
    marks[:, np.arange(19)[:, None] <= np.arange(_CELL)] = _PAD[0]
    return (
        np.array(forms, np.intp).T.copy(),
        np.array(suffixes, np.uint64),
        marks.view("<u8").reshape(18 * 19, 3).T.astype(np.uint64),
    )


def load_series_loop(
    source: Union[str, Path, TextIO],
    time_column: str,
    value_column: str,
    *,
    delimiter: str = ",",
    label: str | None = None,
    unit: str | None = None,
) -> TimeSeries:
    """A series file read row by row through ``csv.DictReader``.

    The reader that ``timeseries.load_series`` replaced, kept as its
    reference for well-formed files: metadata and blank lines only above
    the header, one ``float`` per cell, a per-row time-order check.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_series_loop(
                fh, time_column, value_column,
                delimiter=delimiter, label=label, unit=unit,
            )

    meta: dict[str, str] = {}
    body_lines: list[str] = []
    for raw in source:
        stripped = raw.strip()
        if not body_lines and (not stripped or stripped.startswith("#")):
            if stripped.startswith("#"):
                text = stripped.lstrip("#").strip()
                if ":" in text:
                    key, _, val = text.partition(":")
                    meta[key.strip()] = val.strip()
            continue
        body_lines.append(raw)
    if not body_lines:
        raise ParseError("input contains no header row")

    reader = csv.DictReader(io.StringIO("".join(body_lines)), delimiter=delimiter)
    fieldnames = reader.fieldnames or []
    for col in (time_column, value_column):
        if col not in fieldnames:
            raise ConfigError(
                f"column {col!r} not found; available columns: {fieldnames}"
            )

    times: list[float] = []
    values: list[float] = []
    for idx, row in enumerate(reader, start=2):  # header is row 1
        for col, sink in ((time_column, times), (value_column, values)):
            cell = row.get(col)
            if cell is None or cell.strip() == "":
                raise ParseError(f"row {idx}: empty cell in column {col!r}")
            try:
                sink.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"row {idx}: cannot parse {cell!r} in column {col!r} as a number"
                ) from None

    if len(times) < 2:
        raise ValidationError(f"a series needs at least 2 rows, got {len(times)}")
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            kind = "duplicated" if times[i] == times[i - 1] else "non-increasing"
            raise ValidationError(
                f"row {i + 2}: {kind} time {times[i]} (previous {times[i - 1]})"
            )
    return TimeSeries(
        times=np.array(times),
        values=np.array(values),
        label=label if label is not None else meta.get("label", ""),
        unit=unit if unit is not None else meta.get("unit", ""),
    )


def _read_table_loop(path, delimiter: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    header: Optional[list[str]] = None
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            stripped = raw.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                if header is None and ":" in stripped:
                    key, _, val = stripped.lstrip("#").partition(":")
                    meta[key.strip()] = val.strip()
                continue
            cells = [c.strip() for c in stripped.split(delimiter)]
            if header is None:
                header = cells
            else:
                rows.append(cells)
    if header is None:
        raise ParseError(f"{path}: no header row found")
    return meta, header, rows


def read_rates_loop(path, delimiter: str = ",") -> tuple[RateSeries, dict[str, str]]:
    """A rates file split line by line on the delimiter.

    The reader that ``fileio.read_rates`` replaced, kept as its reference
    for well-formed files.
    """
    meta, header, rows = _read_table_loop(path, delimiter)
    for col in ("t", "rate"):
        if col not in header:
            raise ConfigError(f"{path}: rates file must have a {col!r} column, got {header}")
    it = header.index("t")
    ir = header.index("rate")
    isz = header.index("size") if "size" in header else None
    times, rates, sizes = [], [], []
    for n, cells in enumerate(rows, start=2):
        try:
            times.append(float(cells[it]))
            rates.append(float(cells[ir]))
            sizes.append(float(cells[isz]) if isz is not None else 1.0)
        except (ValueError, IndexError):
            raise ParseError(f"{path}: row {n}: cannot parse {cells!r}") from None
    method = RateMethod(meta.get("method", "direct")) if meta.get("method") else RateMethod.DIRECT
    rs = RateSeries(
        times=np.array(times),
        rates=np.array(rates),
        sizes=np.array(sizes),
        source_label=meta.get("label", ""),
        method=method,
    )
    return rs, meta


def _line_candidate(
    rs: RateSeries,
    lin: LinearizationKind,
    transform: Optional[TransformKind] = None,
    aux_a: Optional[float] = None,
) -> Optional[Candidate]:
    """The linearity test of ``lin``; rates of ln S test the lifted family."""
    try:
        xs, ys, dropped = linearize(rs, lin, aux_a=aux_a)
        if xs.size < 2:
            return None
        fit = fit_line(xs, ys)
    except (EmptyLinearizationError, DegenerateFitError):
        return None

    note = ""
    valid = True
    kind = model_kind_for(lin)
    if kind is ModelKind.LINEAR_S:
        # a = 0 is outside this family (the law degenerates to R ~ S,
        # which is the hyperbolic family); demote when the intercept is
        # numerically zero.
        scale = float(np.max(np.abs(ys))) or 1.0
        if abs(fit.intercept) <= 1e-8 * scale:
            valid = False
            note = "intercept consistent with zero: law reduces to rate proportional to size"
    return Candidate(
        model_kind=LOG_LIFT[kind] if transform is TransformKind.LOG else kind,
        linearization=lin,
        r_squared=fit.r_squared,
        rms_residual=fit.rms_residual,
        dropped_points=dropped,
        transform=transform,
        note=note,
        valid=valid,
    )


def identify_per_test(
    ts: TimeSeries,
    method: RateMethod = RateMethod.DIRECT,
    cfg: Optional[SmoothingConfig] = None,
    aux_a: Optional[float] = None,
) -> IdentificationReport:
    """``diagnostics.identify`` as one linearize and one fit_line per test.

    The loop that the batched ``identify`` replaced, kept as its
    reference; it ranks a test whatever the number of points it keeps.

    Rank every catalog family by how well its linearity test fits.

    Rates are computed from the series with the requested method; the
    log-of-size families are tested on the rates of ln S, and the
    hyperbolic reciprocal test runs on the raw series values. The
    shifted-exponential family needs its displacement parameter a and is
    skipped (with a note) when none is supplied. Ties in r^2 (to 1e-10)
    are broken by fewer dropped points, then simplest family first.
    """
    if method is RateMethod.DIRECT:
        rs = direct_rates(ts)
    else:
        rs = refined_rates(ts, cfg)

    notes: list[str] = []
    candidates: list[Candidate] = [_constant_rate_candidate(rs)]

    for lin in (
        LinearizationKind.R_VS_T,
        LinearizationKind.R_VS_S,
        LinearizationKind.RECIP_R_VS_T,
        LinearizationKind.LN_R_VS_T,
    ):
        cand = _line_candidate(rs, lin)
        if cand is not None:
            candidates.append(cand)

    # hyperbolic signature: reciprocal of the raw series affine in time
    try:
        xs, ys, dropped = linearize_series(ts)
        fit = fit_line(xs, ys)
        candidates.append(
            Candidate(
                model_kind=model_kind_for(LinearizationKind.RECIP_S_VS_T),
                linearization=LinearizationKind.RECIP_S_VS_T,
                r_squared=fit.r_squared,
                rms_residual=fit.rms_residual,
                dropped_points=dropped,
            )
        )
    except (EmptyLinearizationError, DegenerateFitError, NumericError):
        notes.append("hyperbolic reciprocal test skipped (degenerate on this series)")

    # log-of-size families need a positive series
    if np.all(ts.values > 0):
        try:
            rs_log = rate_of_transform(ts, TransformKind.LOG, method, cfg)
            for lin in (LinearizationKind.R_VS_T, LinearizationKind.R_VS_S):
                cand = _line_candidate(rs_log, lin, transform=TransformKind.LOG)
                if cand is not None:
                    candidates.append(cand)
        except (NumericError, ValidationError):
            notes.append("log-of-size tests skipped (log rates undefined on this series)")
    else:
        notes.append("log-of-size tests skipped (series has non-positive values)")

    if aux_a is not None:
        cand = _line_candidate(rs, LinearizationKind.SHIFTED_LN_VS_T, aux_a=aux_a)
        if cand is not None:
            candidates.append(cand)
    else:
        notes.append("shifted-exponential test skipped (auxiliary parameter a not supplied)")

    order = {kind: i for i, kind in enumerate(_CATALOG_ORDER)}
    ranked = sorted(
        candidates,
        key=lambda c: (
            -round(c.r_squared, _R2_TIE_DECIMALS),
            c.dropped_points,
            not c.valid,
            order[c.model_kind],
        ),
    )
    return IdentificationReport(
        candidates=tuple(ranked), winner=ranked[0], rates=rs, notes=tuple(notes)
    )


def fit_lines_separate(x: np.ndarray, y: np.ndarray, keep: np.ndarray) -> _Lines:
    """``fitting._fit_lines`` with one call per sum, extreme and finiteness check.

    Ordinary least-squares lines through many point sets at once.

    Row i of the (k, n) arrays ``x`` and ``y`` holds one point set, and
    the boolean ``keep`` marks the points it keeps; the others, padding
    included, must hold finite values and are zeroed before any sum.
    Every sum is an ``np.add.reduce`` along the rows, so no BLAS call is
    made and the result does not depend on the BLAS thread count. A row
    that keeps all its points gets the bits a one-row call on those
    points gets; dropped or padded cells change the summation order, so
    elsewhere the sums agree with the compacted points to rounding.

    A row is ``distinct`` when its largest and smallest kept x differ,
    an exact comparison: three copies of 0.1 are refused, although
    their rounded mean is not 0.1 and their sxx is not 0. It is
    ``finite`` when its moments, slope and intercept are inside the
    float range. r_squared is 1 - SSres/SStot, defined as 1 when the
    kept y are exactly constant (SStot = SSres = 0).
    """
    w = keep.astype(float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        n = np.add.reduce(w, axis=1)
        xw = x * w
        yw = y * w
        xm = np.add.reduce(xw, axis=1) / n
        ym = np.add.reduce(yw, axis=1) / n
        # kept cells get x - xm, y - ym exactly; dropped ones stay 0
        dx = xw - xm[:, None] * w
        dy = yw - ym[:, None] * w
        sxx = np.add.reduce(dx * dx, axis=1)
        slope = np.add.reduce(dx * dy, axis=1) / sxx
        intercept = ym - slope * xm
        resid = yw - (intercept[:, None] * w + slope[:, None] * xw)
        ss_res = np.add.reduce(resid * resid, axis=1)
        ss_tot = np.add.reduce(dy * dy, axis=1)
        r2 = np.where(
            ss_tot == 0.0, ss_res == 0.0, np.minimum(1.0, np.maximum(0.0, 1.0 - ss_res / ss_tot))
        )
        rms = np.sqrt(ss_res / n)
    top = np.maximum.reduce(x, axis=1, where=keep, initial=-np.inf)
    distinct = top > np.minimum.reduce(x, axis=1, where=keep, initial=np.inf)
    finite = np.isfinite(sxx) & np.isfinite(slope) & np.isfinite(intercept)
    finite &= np.isfinite(ss_res) & np.isfinite(ss_tot)
    return _Lines(intercept, slope, rms, r2, n.astype(int), distinct, finite)


def line_fit_one_row(x: np.ndarray, y: np.ndarray, dropped: int = 0) -> LineFit:
    """``fitting._line_fit`` as the one-row call of ``_fit_lines`` it was.

    :func:`fit_line` of 1-d float arrays of equal length, ``dropped`` points noted."""
    lines = _fit_lines(x[None], y[None], np.ones((1, x.size), dtype=bool))
    if not lines.distinct[0]:
        raise DegenerateFitError(
            f"line fit needs at least 2 distinct x values, got {np.unique(x).size}"
        )
    if not lines.finite[0]:
        raise DegenerateFitError("line fit sums are beyond the float range")
    # intercept, slope, rms_residual and r_squared lead both records
    return LineFit(*(v.item() for v in lines[:4]), n_points=x.size, dropped_points=dropped)


def constant_rate_candidate_mean(rs: RateSeries) -> Candidate:
    """``diagnostics._constant_rate_candidate`` through ``mean`` and ``np.max``.

    The constant-rate hypothesis, judged as a zero-slope fit.

    r^2 is 1 when the rates are constant to rounding and 0 otherwise: a
    flat line either is the data or explains none of its variation.
    """
    r = rs.rates
    mean = float(r.mean())
    scale = max(abs(mean), 1e-300)
    spread = float(np.max(np.abs(r - mean)))
    constant = spread <= 1e-9 * scale
    rms = math.sqrt(float(np.mean((r - mean) ** 2)))
    return Candidate(
        model_kind=ModelKind.EXP_CONST,
        linearization=LinearizationKind.R_VS_T,
        r_squared=1.0 if constant else 0.0,
        rms_residual=rms,
        dropped_points=0,
        note="constant-rate test (zero-slope fit)",
    )


def identify_stacked(
    ts: TimeSeries,
    method: RateMethod = RateMethod.DIRECT,
    cfg: Optional[SmoothingConfig] = None,
    aux_a: Optional[float] = None,
) -> IdentificationReport:
    """``diagnostics.identify`` as it was before its block was filled from arrays.

    Its ln S tests build a ``RateSeries`` through ``rate_of_transform``,
    and it fits with :func:`fit_lines_separate` and scores the constant
    rate with :func:`constant_rate_candidate_mean`: the reference for
    the bits of the report.

    Rank every catalog family by how well its linearity test fits.

    Rates are computed from the series with the requested method; the
    log-of-size families are tested on the rates of ln S, and the
    hyperbolic reciprocal test runs on the raw series values. The
    shifted-exponential family needs its displacement parameter a and is
    skipped (with a note) when none is supplied. A test that keeps fewer
    than 3 points is not ranked, with a note; nor is one whose line is
    degenerate. Ties in r^2 (to 1e-10) are broken by fewer dropped
    points, then simplest family first.

    Every line test is one row of a single :func:`fit_lines_separate`
    call on the uncompacted coordinates.
    """
    rs = estimate_rates(ts, method, cfg)

    skipped: list[str] = []
    tests = [(lin, None, _line_coords(lin, rs.times, rs.rates, rs.sizes)) for lin in _RATE_TESTS]
    # hyperbolic signature: reciprocal of the raw series affine in time
    recip_s = LinearizationKind.RECIP_S_VS_T
    tests.append((recip_s, None, _line_coords(recip_s, ts.times, None, ts.values)))

    # log-of-size families need a positive series
    if np.all(ts.values > 0):
        try:
            rs_log = rate_of_transform(ts, TransformKind.LOG, method, cfg)
            for lin in (LinearizationKind.R_VS_T, LinearizationKind.R_VS_S):
                coords = _line_coords(lin, rs_log.times, rs_log.rates, rs_log.sizes)
                tests.append((lin, TransformKind.LOG, coords))
        except (NumericError, ValidationError):
            skipped.append("log-of-size tests skipped (log rates undefined on this series)")
    else:
        skipped.append("log-of-size tests skipped (series has non-positive values)")

    if aux_a is not None:
        lin = LinearizationKind.SHIFTED_LN_VS_T
        tests.append((lin, None, _line_coords(lin, rs.times, rs.rates, rs.sizes, aux_a)))
    else:
        skipped.append("shifted-exponential test skipped (auxiliary parameter a not supplied)")

    width = max(x.size for _, _, (x, _, _) in tests)
    xs = np.zeros((len(tests), width))
    ys = np.zeros((len(tests), width))
    keep = np.zeros((len(tests), width), dtype=bool)
    for i, (_, _, (x, y, k)) in enumerate(tests):
        xs[i, : x.size] = x
        ys[i, : x.size] = y
        keep[i, : x.size] = k
    lines = fit_lines_separate(xs, ys, keep)

    notes: list[str] = []
    too_few: list[str] = []
    candidates: list[Candidate] = [constant_rate_candidate_mean(rs)]
    rows = zip(
        tests,
        lines.n_points.tolist(),
        (lines.distinct & lines.finite).tolist(),
        lines.intercept.tolist(),
        lines.r_squared.tolist(),
        lines.rms_residual.tolist(),
    )
    for (lin, transform, (x, y, k)), kept, fits, intercept, r2, rms in rows:
        kind = model_kind_for(lin)
        name = LOG_LIFT[kind] if transform is TransformKind.LOG else kind
        if kept < _MIN_TEST_POINTS:
            too_few.append(
                f"{name.value} test not ranked: keeps {kept} of {x.size} point(s), "
                f"fewer than {_MIN_TEST_POINTS}"
            )
            continue
        if not fits:
            if lin is recip_s:
                notes.append("hyperbolic reciprocal test skipped (degenerate on this series)")
            continue
        note = ""
        valid = True
        if kind is ModelKind.LINEAR_S:
            # a = 0 is outside this family (the law degenerates to R ~ S,
            # which is the hyperbolic family); demote when the intercept is
            # numerically zero.
            scale = float(np.max(np.abs(y[k]))) or 1.0
            if abs(intercept) <= 1e-8 * scale:
                valid = False
                note = "intercept consistent with zero: law reduces to rate proportional to size"
        candidates.append(
            Candidate(
                model_kind=name,
                linearization=lin,
                r_squared=r2,
                rms_residual=rms,
                dropped_points=x.size - kept,
                transform=transform,
                note=note,
                valid=valid,
            )
        )

    order = {kind: i for i, kind in enumerate(_CATALOG_ORDER)}
    ranked = sorted(
        candidates,
        key=lambda c: (
            -round(c.r_squared, _R2_TIE_DECIMALS),
            c.dropped_points,
            not c.valid,
            order[c.model_kind],
        ),
    )
    return IdentificationReport(
        candidates=tuple(ranked),
        winner=ranked[0],
        rates=rs,
        notes=tuple(notes + skipped + too_few),
    )


def local_poly_gradients_whole(
    times: np.ndarray, values: np.ndarray, cfg: SmoothingConfig
) -> np.ndarray:
    """``rates._local_poly_gradients`` as it was before its windows were solved in
    blocks: every window in one batched solve, the reference for its bits.

    Derivative of a windowed least-squares polynomial at every point.

    The window is centered where possible and slides one-sidedly at the
    boundaries (it keeps its full length, anchored at the series edge),
    so the output spans the whole data range. Handles non-uniform
    spacing; the fit abscissa is shifted to the evaluation point and
    scaled to unit range for conditioning.

    All n windows are solved at once. The Vandermonde columns, with the
    values appended as a last column, are orthogonalised one at a time by
    modified Gram-Schmidt with one re-orthogonalisation pass, vectorised
    over the windows; back-substitution in the triangular factor then
    stops at the degree-1 coefficient. Like a per-window SVD solve this
    is backward stable, and the two agree to rounding: within
    1e-10*|g| + 1e-13*max|g| on smooth series for every window 3..11 and
    degree below it. Near-square windows of high degree (degree 7 and
    up on windows 9 and 11) on noisy data are ill-conditioned enough
    that any two stable solvers, the per-window SVD included, differ
    from the exact least-squares derivative by up to about 2e-9*max|g|.
    """
    n = times.size
    w = cfg.window
    p = cfg.degree + 1
    lo = np.clip(np.arange(n) - w // 2, 0, n - w)
    idx = lo + np.arange(w)[:, None]  # (w, n): window offsets along axis 0
    x = times[idx] - times
    scale = np.max(np.abs(x), axis=0)
    xs = x / scale
    # columns 1, xs, ..., xs^degree, then the values: (p + 1, w, n); the
    # first p become Q in place, r[:, :p] is R and r[:, p] is Q^T y
    cols = np.empty((p + 1, w, n))
    cols[0] = 1.0
    for j in range(1, p):
        cols[j] = cols[j - 1] * xs
    cols[p] = values[idx]
    r = np.zeros((p, p + 1, n))
    for j in range(p + 1):
        v = cols[j]
        for _ in range(2):
            for k in range(j):
                c = np.einsum("wn,wn->n", cols[k], v)
                r[k, j] += c
                v -= c * cols[k]
        if j < p:
            r[j, j] = np.sqrt(np.einsum("wn,wn->n", v, v))
            v /= r[j, j]
    # back-substitution of R c = Q^T y, from the top coefficient down to c[1]
    coef = np.empty((p, n))
    for j in range(p - 1, 0, -1):
        coef[j] = (r[j, p] - np.einsum("kn,kn->n", r[j, j + 1 : p], coef[j + 1 : p])) / r[j, j]
    return coef[1] / scale


def log_trajectory_whole(m: Model, t: ArrayLike) -> ArrayLike:
    """``models.log_trajectory_at`` as it was before long arrays were evaluated
    in blocks: one ``_log_trajectory`` call on the whole array, the
    reference for its bits and its errors.

    ln S(t) of a normalized model; scalar in, scalar out.

    Raises SingularityError within 1e-9 years of a finite-time
    singularity and DomainError where the closed form is undefined
    (e.g. past the singular time of a pseudo-hyperbolic trajectory).
    Quiet: a value beyond the float range is inf or nan, with no numpy
    warning.
    """
    with np.errstate(all="ignore"):
        return _log_trajectory(m, t)


def trajectory_whole(m: Model, t: ArrayLike) -> ArrayLike:
    """``models.trajectory_at`` as it was before long arrays were evaluated in
    blocks, the reference for its bits and its errors.

    S(t) of a normalized model, exp of the log-space evaluation. Quiet:
    a size beyond the float range is inf or nan, for the caller to name."""
    with np.errstate(all="ignore"):
        out = np.exp(_log_trajectory(m, t))
    return float(out) if out.ndim == 0 else out



def read_table_csv(
    source: Union[str, Path, TextIO],
    time_column: str,
    columns: Sequence[str],
    *,
    optional: Sequence[str] = (),
    delimiter: str = ",",
) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """``timeseries.read_table`` as it was before numpy's text parser read the
    body: every row through ``csv.reader`` and every cell through ``float``,
    the reference for its columns and its errors.

    Read named float columns of a delimited text table, and its metadata.

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
        _raise_first_bad_cell_csv(where, header, rows, wanted)

    times = out[time_column]
    i = _first_at(times[1:] <= times[:-1])
    if i is not None:
        prev, now = float(times[i]), float(times[i + 1])
        kind = "duplicated" if now == prev else "non-increasing"
        raise ValidationError(f"{where}row {i + 3}: {kind} time {now} (previous {prev})")
    return meta, out


def _raise_first_bad_cell_csv(
    where: str, header: list[str], rows: list[list[str]], wanted: list[str]
) -> NoReturn:
    """Raise the ParseError of the first cell ``float`` cannot read, row by row,
    for :func:`read_table_csv`."""
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
