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
from pathlib import Path
from typing import Callable, Optional, Sequence, TextIO, Union

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
    _CATALOG_ORDER,
    _R2_TIE_DECIMALS,
    Candidate,
    IdentificationReport,
    _constant_rate_candidate,
)
from growthcast.fitting import (
    FitReport,
    LinearizationKind,
    fit_line,
    fit_rate_model,
    linearize,
    linearize_series,
    model_kind_for,
)
from growthcast.models import LOG_LIFT, ModelKind
from growthcast.rates import (
    RateSeries,
    SmoothingConfig,
    direct_rates,
    rate_of_transform,
    refined_rates,
)
from growthcast.timeseries import TransformKind


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


def centered_log_derivative(
    value: Callable[[float], float], t: float, h: float = 1e-4
) -> float:
    """d(ln f)/dt by a centered difference on ln f."""
    return (math.log(value(t + h)) - math.log(value(t - h))) / (2 * h)


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
