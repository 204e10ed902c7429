"""Least-squares machinery and the linearization dispatch.

Every catalog family becomes a straight line under the right transform
of the empirical rates (or, for hyperbolic growth, of the series
itself). ``linearize`` applies the transform, ``fit_line`` does plain
unweighted least squares, and ``fit_rate_model`` maps the fitted
(intercept, slope) back to model parameters:

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
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateFitError,
    EmptyLinearizationError,
    FitWarning,
    ValidationError,
)
from .models import Model, ModelKind, Params
from .rates import RateSeries
from .timeseries import TimeSeries


class LinearizationKind(Enum):
    R_VS_T = "r-vs-t"
    R_VS_S = "r-vs-s"
    RECIP_R_VS_T = "recip-r-vs-t"
    LN_R_VS_T = "ln-r-vs-t"
    SHIFTED_LN_VS_T = "shifted-ln-vs-t"
    RECIP_S_VS_T = "recip-s-vs-t"


_LINEARIZATION_TO_KIND = {
    LinearizationKind.R_VS_T: ModelKind.LINEAR_T,
    LinearizationKind.R_VS_S: ModelKind.LINEAR_S,
    LinearizationKind.RECIP_R_VS_T: ModelKind.RATE_RECIP_LINEAR,
    LinearizationKind.LN_R_VS_T: ModelKind.RATE_LN_LINEAR,
    LinearizationKind.SHIFTED_LN_VS_T: ModelKind.RATE_SHIFTED_EXP,
    LinearizationKind.RECIP_S_VS_T: ModelKind.HYPERBOLIC,
}


def model_kind_for(linearization: LinearizationKind) -> ModelKind:
    return _LINEARIZATION_TO_KIND[linearization]


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
    refuses to leave it.
    """

    coefficients: np.ndarray
    degree: int
    rms_residual: float
    t_min: float
    t_max: float
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


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> LineFit:
    """Ordinary least squares through closed-form normal equations.

    r_squared is 1 - SSres/SStot, defined as 1 when the data are exactly
    constant (SStot = SSres = 0).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("xs and ys must be 1-d arrays of equal length")
    n = x.size
    if n < 2 or np.unique(x).size < 2:
        raise DegenerateFitError(
            f"line fit needs at least 2 distinct x values, got {np.unique(x).size}"
        )
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    dy = y - ym
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ss_res = float(resid @ resid)
    ss_tot = float(dy @ dy)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return LineFit(
        intercept=intercept,
        slope=slope,
        rms_residual=math.sqrt(ss_res / n),
        r_squared=r2,
        n_points=n,
    )


def fit_polynomial(xs: Sequence[float], ys: Sequence[float], degree: int) -> PolyFit:
    """Least-squares polynomial of the given degree (>= 1).

    The abscissa is internally mapped to [-1, 1] for conditioning, which
    matters for degree-6 fits on raw calendar years; the raw-basis
    coefficients are mapped back for reporting. Warns when the fit is in
    the interpolation regime (as many coefficients as points).
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
    if n_distinct == degree + 1:
        warnings.warn(
            "interpolation regime: polynomial degree equals point count minus one",
            FitWarning,
            stacklevel=2,
        )
    series = np.polynomial.Polynomial.fit(x, y, degree)
    resid = y - series(x)
    rms = math.sqrt(float(resid @ resid) / x.size)
    raw = series.convert().coef
    if raw.size < degree + 1:  # trailing exact zeros are trimmed by numpy
        raw = np.pad(raw, (0, degree + 1 - raw.size))
    return PolyFit(
        coefficients=raw,
        degree=degree,
        rms_residual=rms,
        t_min=float(x.min()),
        t_max=float(x.max()),
        _series=series,
    )


def linearize(
    rs: RateSeries,
    kind: LinearizationKind,
    aux_a: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Transform a rate series into straight-line coordinates.

    Points the transform cannot represent (non-positive rates under a
    log, zero rates under a reciprocal) are dropped with a warning and
    counted; real series legitimately contain them (recession years).
    Returns (xs, ys, dropped).
    """
    t = rs.times
    r = rs.rates
    s = rs.sizes

    if kind is LinearizationKind.R_VS_T:
        keep = np.ones_like(r, dtype=bool)
        xs, ys = t, r
    elif kind is LinearizationKind.R_VS_S:
        keep = np.ones_like(r, dtype=bool)
        xs, ys = s, r
    elif kind is LinearizationKind.RECIP_R_VS_T:
        keep = r != 0
        xs, ys = t, np.divide(1.0, r, out=np.zeros_like(r), where=keep)
    elif kind is LinearizationKind.LN_R_VS_T:
        keep = r > 0
        ys = np.zeros_like(r)
        np.log(r, out=ys, where=keep)
        xs = t
    elif kind is LinearizationKind.SHIFTED_LN_VS_T:
        if aux_a is None:
            raise ConfigError("shifted-ln-vs-t needs the auxiliary parameter a")
        keep = r != 0
        shifted = np.full_like(r, -np.inf)
        np.divide(1.0, r, out=shifted, where=keep)
        shifted = aux_a - shifted
        keep &= shifted > 0
        ys = np.zeros_like(r)
        np.log(shifted, out=ys, where=keep)
        xs = t
    elif kind is LinearizationKind.RECIP_S_VS_T:
        keep = s != 0
        xs, ys = t, np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigError(f"unknown linearization {kind!r}")

    dropped = int((~keep).sum())
    if dropped == r.size:
        raise EmptyLinearizationError(
            f"{kind.value}: every point was dropped by the transform"
        )
    if dropped:
        warnings.warn(
            f"{kind.value}: dropped {dropped} point(s) outside the transform domain",
            FitWarning,
            stacklevel=2,
        )
    return xs[keep], ys[keep], dropped


def linearize_series(ts: TimeSeries) -> tuple[np.ndarray, np.ndarray, int]:
    """Reciprocal-of-size coordinates (t, 1/S) of a raw series.

    The hyperbolic identification test: 1/S affine in t is the unique
    signature of hyperbolic growth.
    """
    keep = ts.values != 0
    dropped = int((~keep).sum())
    if dropped == ts.values.size:
        raise EmptyLinearizationError("recip-s-vs-t: every series value is zero")
    if dropped:
        warnings.warn(
            f"recip-s-vs-t: dropped {dropped} zero value(s)", FitWarning, stacklevel=2
        )
    return ts.times[keep], 1.0 / ts.values[keep], dropped


def _range_mask(times: np.ndarray, t_range: tuple[float, float], what: str) -> np.ndarray:
    """The times inside [t1, t2]; at least two must be."""
    t1, t2 = t_range
    keep = (times >= t1) & (times <= t2)
    if int(keep.sum()) < 2:
        raise DegenerateFitError(f"fewer than 2 {what} inside t range [{t1}, {t2}]")
    return keep


def _restrict(rs: RateSeries, t_range: Optional[tuple[float, float]]) -> RateSeries:
    if t_range is None:
        return rs
    keep = _range_mask(rs.times, t_range, "rate points")
    return RateSeries(
        times=rs.times[keep],
        rates=rs.rates[keep],
        sizes=rs.sizes[keep],
        source_label=rs.source_label,
        method=rs.method,
    )


def _line_to_model(kind: LinearizationKind, line: LineFit, aux_a: Optional[float]) -> Model:
    if kind in (LinearizationKind.R_VS_T, LinearizationKind.R_VS_S, LinearizationKind.RECIP_R_VS_T):
        params = Params(a=line.intercept, b=line.slope)
    elif kind is LinearizationKind.LN_R_VS_T:
        params = Params(a=math.exp(line.intercept), b=line.slope)
    elif kind is LinearizationKind.SHIFTED_LN_VS_T:
        params = Params(a=aux_a, b=math.exp(line.intercept), r=-line.slope)
    elif kind is LinearizationKind.RECIP_S_VS_T:
        params = Params(b=-line.slope, C=line.intercept)
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigError(f"unknown linearization {kind!r}")
    return Model(kind=model_kind_for(kind), params=params)


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
    restricted = _restrict(rs, t_range)
    xs, ys, dropped = linearize(restricted, kind, aux_a=aux_a)
    if xs.size < 2:
        raise DegenerateFitError("fewer than 2 points survive the linearization")
    line = replace(fit_line(xs, ys), dropped_points=dropped)
    try:
        model = _line_to_model(kind, line, aux_a)
    except ValidationError as exc:
        raise DegenerateFitError(
            f"fitted line degenerates out of the {model_kind_for(kind).value} "
            f"family: {exc}"
        ) from exc
    if unit:
        model = replace(model, unit=unit)

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


def fit_reciprocal_series(
    ts: TimeSeries, t_range: Optional[tuple[float, float]] = None
) -> FitReport:
    """Hyperbolic fit of a raw series through its reciprocal values.

    The fitted line 1/S = C - b t is the trajectory's own reciprocal, so
    the returned model arrives normalized.
    """
    if t_range is not None:
        keep = _range_mask(ts.times, t_range, "points")
        ts = TimeSeries(ts.times[keep], ts.values[keep], label=ts.label, unit=ts.unit)
    xs, ys, dropped = linearize_series(ts)
    if xs.size < 2:
        raise DegenerateFitError("fewer than 2 points survive the reciprocal transform")
    line = replace(fit_line(xs, ys), dropped_points=dropped)
    model = _line_to_model(LinearizationKind.RECIP_S_VS_T, line, None)
    model = replace(model, unit=ts.unit)
    notes = []
    if dropped:
        notes.append(f"dropped {dropped} zero value(s)")
    return FitReport(
        linearization=LinearizationKind.RECIP_S_VS_T,
        line=line,
        model=model,
        warnings=tuple(notes),
    )


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
    keeps fewer than ``min_keep_fraction`` of the points are skipped: a
    displacement that leaves two points always fits a perfect line and
    explains nothing. A documented convenience, not a substitute for
    domain knowledge.
    """
    if not (a_min < a_max) or steps < 2:
        raise ConfigError("scan needs a_min < a_max and at least 2 steps")

    def try_fit(a: float) -> Optional[FitReport]:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FitWarning)
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
