"""Model identification and the low-rate instability flag.

Identification runs every candidate family's linearity test over the
same data and ranks them by r^2: whichever transform straightens the
data best names the law. Ties (several transforms exactly linear, which
happens on clean synthetic data) go to the simplest family.

The stability flag encodes an empirical observation about economies
whose growth rate decays toward zero: once the recent rate drops below
roughly 1.4% per year the trajectory tends to destabilize, because
holding a rate asymptotically at zero requires fine tuning that real
policy cannot deliver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    DegenerateFitError,
    EmptyLinearizationError,
    FitWarning,
    NumericError,
    ValidationError,
)
from .fitting import LinearizationKind, fit_line, linearize, linearize_series, model_kind_for
from .models import LOG_LIFT, ModelKind
from .rates import RateMethod, RateSeries, SmoothingConfig, direct_rates, refined_rates, rate_of_transform
from .timeseries import TimeSeries, TransformKind

#: Default instability threshold, 1.4% per year.
LOW_RATE_THRESHOLD = 0.014

#: Points averaged for the "recent" rate.
RECENT_WINDOW = 5

#: Simplest-first order used to break r^2 ties.
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
    """Flag a series whose recent growth rate has fallen below threshold."""
    n = min(RECENT_WINDOW, len(rs))
    recent = float(np.mean(rs.rates[-n:]))
    status = (
        StabilityStatus.LOW_RATE_UNSTABLE if recent < threshold else StabilityStatus.OK
    )
    return StabilityFlag(status=status, threshold=threshold, recent_rate=recent)


def _constant_rate_candidate(rs: RateSeries) -> Candidate:
    """The constant-rate hypothesis, judged as a zero-slope fit.

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


def _line_candidate(
    rs: RateSeries,
    lin: LinearizationKind,
    transform: Optional[TransformKind] = None,
    aux_a: Optional[float] = None,
) -> Optional[Candidate]:
    """The linearity test of ``lin``; rates of ln S test the lifted family."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FitWarning)
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


def identify(
    ts: TimeSeries,
    method: RateMethod = RateMethod.DIRECT,
    cfg: Optional[SmoothingConfig] = None,
    aux_a: Optional[float] = None,
) -> IdentificationReport:
    """Rank every catalog family by how well its linearity test fits.

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FitWarning)
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
