"""Least-squares machinery and the linearization dispatch.

Every catalog family becomes a straight line under the right transform
of the empirical rates (or, for hyperbolic growth, of the series
itself). ``linearize`` applies the transform, ``fit_line`` does plain
unweighted least squares, and ``fit_rate_model`` maps the fitted
(intercept, slope) back to model parameters. Each linearization's facts
are stated once, in ``_LINEARIZATIONS``, and every fit that yields a
model (``fit_rate_model``, ``fit_reciprocal_series`` and the aux scan's
final fit) goes through one body, ``_fit``. Notices travel in the
results (``FitReport.warnings``, ``PolyFit.warnings``, drop counts);
no call here emits a Python warning. Every line fit, one or
many at once (``diagnostics.identify`` fits all its tests together), is
one batched pass of ``_fit_lines``, whose sums are ``np.add.reduce``
calls, not BLAS products: a fitted line does not depend on the BLAS
thread count.

=================  ======================  ===========================
linearization      line fitted             resulting model
=================  ======================  ===========================
R_VS_T             R   = a + b t           LINEAR_T(a, b)
R_VS_S             R   = a + b S           LINEAR_S(a, b)
RECIP_R_VS_T       1/R = a + b t           RATE_RECIP_LINEAR(a, b)
LN_R_VS_T          lnR = p + b t           RATE_LN_LINEAR(a=e^p, b)
SHIFTED_LN_VS_T    ln(a0 - 1/R) = q - r t  RATE_SHIFTED_EXP(a0, b=e^q, r)
RECIP_S_VS_T       1/S = C - b t           HYPERBOLIC(b, C), normalized
=================  ======================  ===========================

LN_R_VS_T stores the amplitude as e^intercept: a log-linear rate and an
exponential rate are the same law written two ways, and the model keeps
the exponential-rate convention R = a exp(b t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateFitError,
    EmptyLinearizationError,
    ValidationError,
)
from .models import Model, ModelKind, Params

if TYPE_CHECKING:
    from .rates import RateSeries
    from .timeseries import TimeSeries

_FLOAT_TINY = np.finfo(float).tiny


class LinearizationKind(Enum):
    R_VS_T = "r-vs-t"
    R_VS_S = "r-vs-s"
    RECIP_R_VS_T = "recip-r-vs-t"
    LN_R_VS_T = "ln-r-vs-t"
    SHIFTED_LN_VS_T = "shifted-ln-vs-t"
    RECIP_S_VS_T = "recip-s-vs-t"


@dataclass(frozen=True)
class LineFit:
    intercept: float
    slope: float
    rms_residual: float
    r_squared: float
    n_points: int
    dropped_points: int = 0


@dataclass(frozen=True)
class PolyFit:
    """Least-squares polynomial rate law with its fitted range.

    ``coefficients`` are in the plain power basis, lowest order first,
    so published coefficient sets can be fed in directly. Fits produced
    by :func:`fit_polynomial` additionally keep the internally scaled
    representation used for stable evaluation and integration; raw
    coefficients of high-degree fits on calendar years are reported for
    inspection but are near the conditioning cliff.

    t_min/t_max record the fitted data range; rate-law integration
    refuses to leave it. ``warnings`` holds the fit's notices.
    """

    coefficients: np.ndarray
    degree: int
    rms_residual: float
    t_min: float
    t_max: float
    warnings: tuple[str, ...] = ()
    _series: Optional[np.polynomial.Polynomial] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != 1 or coef.size != self.degree + 1:
            raise ValidationError(
                f"expected {self.degree + 1} coefficients for degree {self.degree}, "
                f"got {coef.size}"
            )
        if self.degree < 0:
            raise ValidationError("degree must be non-negative")
        fields = {"coefficients": coef, "rms_residual": self.rms_residual,
                  "t_min": self.t_min, "t_max": self.t_max}
        for name, val in fields.items():
            if not np.all(np.isfinite(val)):
                raise ValidationError(f"PolyFit field {name!r} must be finite, got {val}")
        if self.t_min >= self.t_max:
            raise ValidationError("t_min must be below t_max")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    def value_at(self, t):
        """Rate-law value; uses the scaled representation when present."""
        if self._series is not None:
            return self._series(t)
        return np.polynomial.polynomial.polyval(t, self.coefficients)

    def antiderivative_at(self, t):
        """Exact antiderivative (integration constant 0 in the working basis)."""
        if self._series is not None:
            return self._series.integ()(t)
        return np.polynomial.polynomial.polyval(
            t, np.polynomial.polynomial.polyint(self.coefficients)
        )


@dataclass(frozen=True)
class FitReport:
    """Outcome of a linearized fit: the line, the mapped model, notices.

    The model comes back un-normalized (C unset) except for the
    hyperbolic reciprocal fit, where the fitted line is itself the
    reciprocal of the trajectory.
    """

    linearization: LinearizationKind
    line: LineFit
    model: Model
    warnings: tuple[str, ...] = ()


class _Lines(NamedTuple):
    """Per-row results of :func:`_fit_lines`; a row fits where both flags hold."""

    intercept: np.ndarray
    slope: np.ndarray
    rms_residual: np.ndarray
    r_squared: np.ndarray
    n_points: np.ndarray
    distinct: np.ndarray  # at least 2 distinct kept x values
    finite: np.ndarray  # every sum inside the float range


def _fit_lines(x: np.ndarray, y: np.ndarray, keep: np.ndarray) -> _Lines:
    """Ordinary least-squares lines through many point sets at once.

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


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> LineFit:
    """Ordinary least squares through closed-form normal equations.

    The one-row case of :func:`_fit_lines`. r_squared is 1 - SSres/SStot,
    defined as 1 when the data are exactly constant (SStot = SSres = 0).
    Fewer than 2 distinct x values, or sums beyond the float range, are a
    DegenerateFitError.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("xs and ys must be 1-d arrays of equal length")
    lines = _fit_lines(x[None], y[None], np.ones((1, x.size), dtype=bool))
    if not lines.distinct[0]:
        raise DegenerateFitError(
            f"line fit needs at least 2 distinct x values, got {np.unique(x).size}"
        )
    if not lines.finite[0]:
        raise DegenerateFitError("line fit sums are beyond the float range")
    return LineFit(
        intercept=float(lines.intercept[0]),
        slope=float(lines.slope[0]),
        rms_residual=float(lines.rms_residual[0]),
        r_squared=float(lines.r_squared[0]),
        n_points=x.size,
    )


def fit_polynomial(xs: Sequence[float], ys: Sequence[float], degree: int) -> PolyFit:
    """Least-squares polynomial of the given degree (>= 1).

    The abscissa is internally mapped to [-1, 1] for conditioning, which
    matters for degree-6 fits on raw calendar years; the raw-basis
    coefficients are mapped back for reporting. The fit notes when it is
    in the interpolation regime (as many coefficients as points).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("xs and ys must be 1-d arrays of equal length")
    if degree < 1:
        raise ValidationError(f"degree must be >= 1, got {degree}")
    n_distinct = np.unique(x).size
    if n_distinct < degree + 1:
        raise DegenerateFitError(
            f"degree {degree} needs at least {degree + 1} distinct x values, "
            f"got {n_distinct}"
        )
    notes = ()
    if n_distinct == degree + 1:
        notes = ("interpolation regime: polynomial degree equals point count minus one",)
    series = np.polynomial.Polynomial.fit(x, y, degree)
    resid = y - series(x)
    rms = math.sqrt(float(np.add.reduce(resid * resid)) / x.size)
    raw = series.convert().coef
    if raw.size < degree + 1:  # trailing exact zeros are trimmed by numpy
        raw = np.pad(raw, (0, degree + 1 - raw.size))
    return PolyFit(
        coefficients=raw,
        degree=degree,
        rms_residual=rms,
        t_min=float(x.min()),
        t_max=float(x.max()),
        warnings=notes,
        _series=series,
    )


def _reciprocal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1/x and the mask of where it is finite; the entries where it is
    not (x = 0, or x so small that 1/x overflows) are set to 0."""
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / x
    keep = np.isfinite(inv)
    inv[~keep] = 0.0
    return inv, keep


def _log_kept(x: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln x where ``keep`` holds (x must be positive there), 0 elsewhere."""
    ys = np.zeros_like(x)
    np.log(x, out=ys, where=keep)
    return ys, keep


def _shifted_ln(rates: np.ndarray, aux_a: Optional[float]) -> tuple[np.ndarray, np.ndarray]:
    if aux_a is None:
        raise ConfigError("shifted-ln-vs-t needs the auxiliary parameter a")
    inv_r, keep = _reciprocal(rates)
    shifted = aux_a - inv_r
    return _log_kept(shifted, keep & (shifted > 0))


def _exp(x: float) -> float:
    """e^x, or inf beyond the float range, so that ``Model`` names the parameter."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _all_kept(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return y, np.ones(y.shape, dtype=bool)


def _a_b(intercept: float, slope: float, aux_a: Optional[float]) -> Params:
    return Params(a=intercept, b=slope)


# What each linearization states, once: the family it fits; the abscissa
# of its line, "t" (time) or "S" (size); its ordinate and keep mask, from
# (rates, sizes, aux_a); and the model parameters, from (intercept,
# slope, aux_a).
_LINEARIZATIONS = {
    LinearizationKind.R_VS_T: (ModelKind.LINEAR_T, "t", lambda r, s, aux: _all_kept(r), _a_b),
    LinearizationKind.R_VS_S: (ModelKind.LINEAR_S, "S", lambda r, s, aux: _all_kept(r), _a_b),
    LinearizationKind.RECIP_R_VS_T: (
        ModelKind.RATE_RECIP_LINEAR, "t", lambda r, s, aux: _reciprocal(r), _a_b
    ),
    LinearizationKind.LN_R_VS_T: (
        ModelKind.RATE_LN_LINEAR,
        "t",
        lambda r, s, aux: _log_kept(r, r > 0),
        lambda i, b, aux: Params(a=_exp(i), b=b),
    ),
    LinearizationKind.SHIFTED_LN_VS_T: (
        ModelKind.RATE_SHIFTED_EXP,
        "t",
        lambda r, s, aux: _shifted_ln(r, aux),
        lambda i, b, aux: Params(a=aux, b=_exp(i), r=-b),
    ),
    LinearizationKind.RECIP_S_VS_T: (
        ModelKind.HYPERBOLIC,
        "t",
        lambda r, s, aux: _reciprocal(s),
        lambda i, b, aux: Params(b=-b, C=i),
    ),
}


def model_kind_for(linearization: LinearizationKind) -> ModelKind:
    return _LINEARIZATIONS[linearization][0]


def _line_coords(
    kind: LinearizationKind,
    times: np.ndarray,
    rates: Optional[np.ndarray],
    sizes: Optional[np.ndarray],
    aux_a: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Straight-line coordinates (x, y, keep) of every point, uncompacted.

    ``keep`` marks the points the transform can represent; the others
    hold a finite y (0), so that :func:`_fit_lines` can take the rows
    as they are. RECIP_S_VS_T reads no rates, and only R_VS_S and
    RECIP_S_VS_T read sizes.
    """
    _, abscissa, ordinate, _ = _LINEARIZATIONS[kind]
    ys, keep = ordinate(rates, sizes, aux_a)
    return (sizes if abscissa == "S" else times), ys, keep


def _compacted(
    kind: LinearizationKind, coords: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, int]:
    """The points of ``coords`` the transform keeps, and the drop count."""
    xs, ys, keep = coords
    dropped = keep.size - int(np.count_nonzero(keep))
    if dropped == keep.size:
        raise EmptyLinearizationError(f"{kind.value}: every point was dropped by the transform")
    return xs[keep], ys[keep], dropped


def linearize(
    rs: RateSeries,
    kind: LinearizationKind,
    aux_a: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Transform a rate series into straight-line coordinates.

    Points the transform cannot represent (non-positive rates under a
    log, rates whose reciprocal is infinite) are dropped and counted;
    real series legitimately contain them (recession years). Returns
    (xs, ys, dropped).
    """
    return _compacted(kind, _line_coords(kind, rs.times, rs.rates, rs.sizes, aux_a))


def linearize_series(ts: TimeSeries) -> tuple[np.ndarray, np.ndarray, int]:
    """Reciprocal-of-size coordinates (t, 1/S) of a raw series.

    The hyperbolic identification test: 1/S affine in t is the unique
    signature of hyperbolic growth. Drops are counted as in
    :func:`linearize`.
    """
    kind = LinearizationKind.RECIP_S_VS_T
    return _compacted(kind, _line_coords(kind, ts.times, None, ts.values))


def _restrict(
    t_range: Optional[tuple[float, float]], what: str, times: np.ndarray, *columns: np.ndarray
) -> tuple[np.ndarray, ...]:
    """``times`` and ``columns`` at the times inside [t1, t2], at least two;
    all of them when there is no range. A range with t1 >= t2 is a
    ConfigError."""
    if t_range is None:
        return (times, *columns)
    t1, t2 = t_range
    if not t1 < t2:
        raise ConfigError(f"t range needs t1 < t2, got [{t1}, {t2}]")
    keep = (times >= t1) & (times <= t2)
    if int(keep.sum()) < 2:
        raise DegenerateFitError(f"fewer than 2 {what} inside t range [{t1}, {t2}]")
    return (times[keep], *(c[keep] for c in columns))


def _fit(
    kind: LinearizationKind,
    coords: tuple[np.ndarray, np.ndarray, np.ndarray],
    aux_a: Optional[float] = None,
    unit: str = "",
) -> FitReport:
    """Fit a line through the kept points of a linearization's ``coords``
    and read the model off it, with the notes every fit carries."""
    xs, ys, dropped = _compacted(kind, coords)
    if xs.size < 2:
        raise DegenerateFitError("fewer than 2 points survive the linearization")
    line = replace(fit_line(xs, ys), dropped_points=dropped)
    model_kind, _, _, params = _LINEARIZATIONS[kind]
    try:
        model = Model(model_kind, params(line.intercept, line.slope, aux_a), unit=unit)
    except ValidationError as exc:
        raise DegenerateFitError(
            f"fitted line degenerates out of the {model_kind.value} family: {exc}"
        ) from exc

    notes: list[str] = []
    if dropped:
        notes.append(f"dropped {dropped} point(s) outside the transform domain")
    span = float(xs.max() - xs.min())
    if abs(line.slope) * span > 10.0 * abs(line.intercept):
        notes.append(
            "ill-conditioned extrapolation: |slope| * span exceeds 10x the intercept"
        )
    if kind is LinearizationKind.LN_R_VS_T:
        notes.append(
            "amplitude stored as exp(intercept): the log-linear and "
            "exponential-rate forms are the same law"
        )
    return FitReport(linearization=kind, line=line, model=model, warnings=tuple(notes))


def fit_rate_model(
    rs: RateSeries,
    kind: LinearizationKind,
    t_range: Optional[tuple[float, float]] = None,
    aux_a: Optional[float] = None,
    unit: str = "",
) -> FitReport:
    """Linearize, fit a line, and map the line back to a model.

    The time-range restriction is applied before linearizing; fitting a
    sub-range is first-class because rate regimes change (a decade of
    exponential decline can sit inside a century of something else).
    """
    times, rates, sizes = _restrict(t_range, "rate points", rs.times, rs.rates, rs.sizes)
    return _fit(kind, _line_coords(kind, times, rates, sizes, aux_a), aux_a, unit)


def fit_reciprocal_series(
    ts: TimeSeries, t_range: Optional[tuple[float, float]] = None
) -> FitReport:
    """Hyperbolic fit of a raw series through its reciprocal values.

    The fitted line 1/S = C - b t is the trajectory's own reciprocal, so
    the returned model arrives normalized.
    """
    kind = LinearizationKind.RECIP_S_VS_T
    times, values = _restrict(t_range, "points", ts.times, ts.values)
    return _fit(kind, _line_coords(kind, times, None, values), unit=ts.unit)


#: Candidate-by-point cells the aux scan scores at once; bounds its memory.
_SCAN_BLOCK_CELLS = 1 << 17


def _shifted_r2_scorer(
    times: np.ndarray, rates: np.ndarray, min_kept: float
) -> Callable[[Sequence[float]], np.ndarray]:
    """A function giving the shifted-ln line's r^2 at many displacements a.

    The returned function scores a candidate -inf where the scan skips
    it: fewer than ``min_kept`` points with a - 1/R > 0 (an infinite
    1/R is never kept), or a line that maps to no valid model (a = 0 or
    non-finite, slope 0 or non-finite, e^intercept beyond the float
    range). Only candidates keeping enough points are computed, in
    blocks of at most ``_SCAN_BLOCK_CELLS`` cells. Per row, the time
    moments are taken in one pass about the mean of all times and the
    log moments in two passes about the row's own kept mean; r^2 then
    agrees with :func:`fit_line` on the same points to about 1e-14,
    losing digits only when a candidate keeps a small cluster of points
    far from the mean of all times.
    """
    t0 = float(times.mean())
    tc = times - t0
    basis = np.stack((np.ones_like(tc), tc, tc * tc))
    inv_r, finite = _reciprocal(rates)
    inv_r[~finite] = np.inf  # never kept
    # a - 1/R > 0 exactly when 1/R < a, so a candidate keeps as many
    # points as there are values of 1/R below it
    inv_sorted = np.sort(inv_r)
    rows = max(1, _SCAN_BLOCK_CELLS // tc.size)

    def score(a_values: Sequence[float]) -> np.ndarray:
        a = np.asarray(a_values, dtype=float)
        out = np.full(a.size, -np.inf)
        kept = np.searchsorted(inv_sorted, a)
        (live,) = np.nonzero((kept >= min_kept) & np.isfinite(a) & (a != 0))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for start in range(0, live.size, rows):
                idx = live[start : start + rows]
                y = a[idx, None] - inv_r
                w = (y > 0).astype(float)
                # dropped points get a finite log, zeroed by w below
                np.log(np.fmax(y, _FLOAT_TINY, out=y), out=y)
                n, sx, sxx = (w @ basis.T).T
                xm = sx / n
                sxx -= sx * xm
                ym = np.einsum("ij,ij->i", w, y) / n
                y -= ym[:, None]
                y *= w
                syy = np.einsum("ij,ij->i", y, y)
                sy, sxy = (y @ basis[:2].T).T
                sxy -= xm * sy
                slope = sxy / sxx
                intercept = ym - slope * (xm + t0)
                r2 = np.clip(np.nan_to_num(sxy * sxy / (sxx * syy), nan=0.0), 0.0, 1.0)
                valid = np.isfinite(slope) & (slope != 0) & np.isfinite(np.exp(intercept))
                out[idx] = np.where(valid, r2, -np.inf)
        return out

    return score


def scan_shifted_aux(
    rs: RateSeries,
    a_min: float,
    a_max: float,
    steps: int = 200,
    t_range: Optional[tuple[float, float]] = None,
    min_keep_fraction: float = 0.75,
) -> tuple[float, FitReport]:
    """Grid-scan the auxiliary parameter of the shifted-exponential law.

    The shifted linearization needs its displacement a before any line
    can be fitted and nothing in the rate data fixes it; this scan picks
    the a in [a_min, a_max] maximizing r^2. Candidates whose transform
    keeps fewer than ``min_keep_fraction`` of the points (and fewer than
    3) are skipped: a displacement that leaves two points always fits a
    perfect line and explains nothing. So are candidates
    :func:`fit_rate_model` would refuse: a = 0, a zero slope, or
    e^intercept beyond the float range. A documented convenience, not a
    substitute for domain knowledge.

    Every candidate of the grid, and of the ternary refinement around
    the best grid point, is scored by :func:`_shifted_r2_scorer` in
    closed form, the whole grid in one call; the first maximum wins.
    Only the chosen a is fitted, through the fit body of
    :func:`fit_rate_model`, so the returned report, drop note included,
    is exactly that of a direct fit at it.
    """
    if not (a_min < a_max) or steps < 2:
        raise ConfigError("scan needs a_min < a_max and at least 2 steps")
    try:
        times, rates = _restrict(t_range, "rate points", rs.times, rs.rates)
    except DegenerateFitError:
        raise EmptyLinearizationError("no scan value of a admits a fit") from None
    score = _shifted_r2_scorer(times, rates, max(3, min_keep_fraction * times.size))
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(a_min, a_max, steps)
    grid_r2 = score(grid)
    k = int(np.argmax(grid_r2))
    if grid_r2[k] == -np.inf:
        raise EmptyLinearizationError("no scan value of a admits a fit")
    best_a, best_r2 = float(grid[k]), float(grid_r2[k])

    # refine between the neighboring grid points: r^2 is smooth in a near
    # the optimum and the grid alone leaves a bias of order one step
    step = (a_max - a_min) / (steps - 1)
    lo, hi = best_a - step, best_a + step
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        r1, r2 = score((m1, m2)).tolist()
        if r1 < r2:
            lo = m1
            if r2 > best_r2:
                best_a, best_r2 = m2, r2
        else:
            hi = m2
            if r1 > best_r2:
                best_a, best_r2 = m1, r1
        if hi - lo <= 1e-12 * max(1.0, abs(best_a)):
            break
    kind = LinearizationKind.SHIFTED_LN_VS_T
    return best_a, _fit(kind, _line_coords(kind, times, rates, None, best_a), best_a)
