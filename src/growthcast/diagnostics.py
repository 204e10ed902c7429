"""Model identification and the low-rate instability flag.

Identification runs every candidate family's linearity test over the
same data and ranks them by r^2: whichever transform straightens the
data best names the law. The tests are stated once, in ``_LINE_TESTS``,
whose simplest-first order breaks ties (several transforms exactly
linear, as on clean synthetic data), and fitted together in one batched
least-squares pass that makes no BLAS call. Each test is either ranked
or named in a note that says why it is not.

The stability flag encodes an empirical observation about economies
whose growth rate decays toward zero: once the recent rate drops below
roughly 1.4% per year the trajectory tends to destabilize, because
holding a rate asymptotically at zero requires fine tuning that real
policy cannot deliver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError, NumericError, ValidationError
from .fitting import LinearizationKind, _fit_lines, _line_coords
from .models import ModelKind
from .rates import RateMethod, RateSeries, SmoothingConfig, _rate_arrays, estimate_rates
from .timeseries import TimeSeries, TransformKind, _log_values

#: Default instability threshold, 1.4% per year.
LOW_RATE_THRESHOLD = 0.014

#: Points averaged for the "recent" rate.
RECENT_WINDOW = 5

_R2_TIE_DECIMALS = 10


class StabilityStatus(Enum):
    OK = "ok"
    LOW_RATE_UNSTABLE = "low_rate_unstable"


@dataclass(frozen=True)
class StabilityFlag:
    status: StabilityStatus
    threshold: float
    recent_rate: float


@dataclass(frozen=True)
class Candidate:
    """One family's linearity test: transform, fit quality, validity."""

    model_kind: ModelKind
    linearization: LinearizationKind
    r_squared: float
    rms_residual: float
    dropped_points: int
    transform: Optional[TransformKind] = None
    note: str = ""
    valid: bool = True


@dataclass(frozen=True)
class IdentificationReport:
    """Candidates ranked best-fit first; winner is the top entry.

    ``rates`` are the growth rates of the series that the rate-based
    tests ranked, computed with the requested method.
    """

    candidates: tuple[Candidate, ...]
    winner: Candidate
    rates: RateSeries
    notes: tuple[str, ...] = ()


def stability_flag(rs: RateSeries, threshold: float = LOW_RATE_THRESHOLD) -> StabilityFlag:
    """Flag a series whose recent growth rate has fallen below threshold.

    A recent rate (mean) beyond the float range is a NumericError.
    """
    n = min(RECENT_WINDOW, len(rs))
    with np.errstate(over="ignore", invalid="ignore"):
        recent = float(np.mean(rs.rates[-n:]))
    if not math.isfinite(recent):
        raise NumericError(f"recent rate (mean of the last {n}) is beyond the float range")
    status = (
        StabilityStatus.LOW_RATE_UNSTABLE if recent < threshold else StabilityStatus.OK
    )
    return StabilityFlag(status=status, threshold=threshold, recent_rate=recent)


def _constant_rate_candidate(rs: RateSeries) -> Optional[Candidate]:
    """The constant-rate hypothesis, judged as a zero-slope fit.

    r^2 is 1 when the rates are constant to rounding and 0 otherwise: a
    flat line either is the data or explains none of its variation. None
    when the rates' mean or rms is beyond the float range.
    """
    r = rs.rates
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.add.reduce(r) / r.size)
        dev = r - mean
        constant = float(np.abs(dev).max()) <= 1e-9 * max(abs(mean), 1e-300)
        rms = math.sqrt(float(np.add.reduce(dev**2) / r.size))
    if not (math.isfinite(mean) and math.isfinite(rms)):
        return None
    return Candidate(
        model_kind=ModelKind.EXP_CONST,
        linearization=LinearizationKind.R_VS_T,
        r_squared=1.0 if constant else 0.0,
        rms_residual=rms,
        dropped_points=0,
        note="constant-rate test (zero-slope fit)",
    )


#: Points a linearity test must keep to be ranked: a line through two
#: points has r^2 = 1 by construction (the aux scan's rule).
_MIN_TEST_POINTS = 3

#: The line tests in simplest-first order, the order candidates are built
#: in (after the constant-rate test) and so the order that breaks r^2 ties.
#: Each names its family, its linearization and the points it reads: the
#: rates of S ("rates"), the raw series ("series"), the rates of ln S
#: ("log rates") or the rates of S with the auxiliary parameter a ("aux").
_LINE_TESTS = (
    (ModelKind.LINEAR_T, LinearizationKind.R_VS_T, "rates"),
    (ModelKind.LINEAR_S, LinearizationKind.R_VS_S, "rates"),
    (ModelKind.HYPERBOLIC, LinearizationKind.RECIP_S_VS_T, "series"),
    (ModelKind.LOGLOG_T, LinearizationKind.R_VS_T, "log rates"),
    (ModelKind.LOGLOG_S, LinearizationKind.R_VS_S, "log rates"),
    (ModelKind.RATE_RECIP_LINEAR, LinearizationKind.RECIP_R_VS_T, "rates"),
    (ModelKind.RATE_LN_LINEAR, LinearizationKind.LN_R_VS_T, "rates"),
    (ModelKind.RATE_SHIFTED_EXP, LinearizationKind.SHIFTED_LN_VS_T, "aux"),
)


def identify(
    ts: TimeSeries,
    method: RateMethod = RateMethod.DIRECT,
    cfg: Optional[SmoothingConfig] = None,
    aux_a: Optional[float] = None,
) -> IdentificationReport:
    """Rank every catalog family by how well its linearity test fits.

    Rates are computed from the series with the requested method; the
    log-of-size families are tested on the rates of ln S, and the
    hyperbolic reciprocal test runs on the raw series values. One note
    skips the log-of-size tests when ln S or its rates are undefined,
    and one the shifted-exponential test when its parameter a is not
    supplied. Every other test is ranked or named in a note, ``<family>
    test not ranked: <why>``: the constant-rate test when its mean or
    rms is beyond the float range, a line test when it keeps fewer than
    3 points or its line is degenerate; when nothing is left to rank, a
    NumericError. Ties in r^2 (to 1e-10) are broken by fewer dropped
    points, then by the order of ``_LINE_TESTS``.

    Every line test is one uncompacted row of a masked :func:`fitting._fit_lines`
    block, the one line kernel; the rates of ln S get no record of their own.
    """
    rs = estimate_rates(ts, method, cfg)

    notes: list[str] = []
    # (times, rates, sizes) of each source of points the tests read
    points = {"rates": (rs.times, rs.rates, rs.sizes), "series": (ts.times, None, ts.values)}
    # log-of-size families need a positive series
    try:
        log_values = _log_values(ts)
    except DomainError:
        notes.append("log-of-size tests skipped (series has non-positive values)")
    else:
        try:
            points["log rates"] = _rate_arrays(ts.times, log_values, method, cfg)
        except (NumericError, ValidationError):
            notes.append("log-of-size tests skipped (log rates undefined on this series)")
    if aux_a is not None:
        points["aux"] = points["rates"]
    else:
        notes.append("shifted-exponential test skipped (auxiliary parameter a not supplied)")
    tests = [(kind, lin, src, *points[src]) for kind, lin, src in _LINE_TESTS if src in points]

    # one row per test; the cells past a test's points stay dropped zeros
    shape = (len(tests), len(ts))
    xs, ys, keep = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
    for i, (_, lin, _, times, rates, sizes) in enumerate(tests):
        m = times.size
        xs[i, :m], ys[i, :m], keep[i, :m] = _line_coords(lin, times, rates, sizes, aux_a)
    lines = _fit_lines(xs, ys, keep)

    candidates: list[Candidate] = []
    constant = _constant_rate_candidate(rs)
    if constant is None:
        notes.append("exp_const test not ranked: its rates' mean or rms is beyond the float range")
    else:
        candidates.append(constant)
    rows = zip(
        tests, ys, keep,
        lines.n_points.tolist(),
        (lines.distinct & lines.finite).tolist(),
        lines.intercept.tolist(),
        lines.r_squared.tolist(),
        lines.rms_residual.tolist(),
    )
    for (kind, lin, src, times, _, _), y, k, kept, fits, intercept, r2, rms in rows:
        if kept < _MIN_TEST_POINTS or not fits:
            why = (
                f"keeps {kept} of {times.size} point(s), fewer than {_MIN_TEST_POINTS}"
                if kept < _MIN_TEST_POINTS else "its line is degenerate"
            )
            notes.append(f"{kind.value} test not ranked: {why}")
            continue
        note = ""
        valid = True
        if kind is ModelKind.LINEAR_S:
            # a = 0 is outside this family (the law degenerates to R ~ S,
            # which is the hyperbolic family); demote when the intercept is
            # numerically zero.
            scale = float(np.abs(y[k]).max()) or 1.0
            if abs(intercept) <= 1e-8 * scale:
                valid = False
                note = "intercept consistent with zero: law reduces to rate proportional to size"
        candidates.append(
            Candidate(
                model_kind=kind,
                linearization=lin,
                r_squared=r2,
                rms_residual=rms,
                dropped_points=times.size - kept,
                transform=TransformKind.LOG if src == "log rates" else None,
                note=note,
                valid=valid,
            )
        )

    if not candidates:
        raise NumericError(
            "no identification test can be ranked on this series: the rates' mean or rms "
            "is beyond the float range and no line test fits"
        )
    # stable: equal keys keep the build order, constant rate then _LINE_TESTS
    ranked = sorted(
        candidates,
        key=lambda c: (-round(c.r_squared, _R2_TIE_DECIMALS), c.dropped_points, not c.valid),
    )
    return IdentificationReport(
        candidates=tuple(ranked), winner=ranked[0], rates=rs, notes=tuple(notes)
    )
