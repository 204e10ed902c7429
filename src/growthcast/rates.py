"""Empirical growth rates of a series.

The growth rate of a quantity S(t) is R = (1/S) dS/dt. Two estimators
are provided:

* direct: the finite-difference form R = (S[i+1] - S[i]) / (S[i] * dt),
  attributed to the right endpoint t[i+1] with size S[i+1]. This pairing
  is exactly invertible (see ``forecast.integrate_discrete``) and is
  exact for hyperbolic data.
* refined: dS/dt estimated as the derivative of a local least-squares
  polynomial over a centered window, divided by the raw value at the
  point. This filters the noise that local gradients inject into the
  direct estimate and reveals the underlying trend. It is the
  Savitzky-Golay smoother (Anal. Chem. 36:1627, 1964) on arbitrary
  spacing (Gorry, Anal. Chem. 63:534, 1991), computed for all windows in
  one batched QR least-squares solve; see ``_local_poly_gradients`` for
  its rounding bound.

Both run in one body, ``_rates``: it checks the series (refined rates
need a full window; a zero value leaves either rate undefined), computes
the chosen estimator's arrays and builds the ``RateSeries``. The public
functions are calls of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError, ValidationError
from .timeseries import TimeSeries, TransformKind, _set_checked_fields, transform_series


class RateMethod(Enum):
    DIRECT = "direct"
    REFINED = "refined"


@dataclass(frozen=True)
class SmoothingConfig:
    """Window/degree of the local polynomial used for refined gradients.

    window counts points (odd, >= 3); degree must be below the window so
    the local fit is overdetermined at interior points.
    """

    window: int = 7
    degree: int = 3

    def __post_init__(self) -> None:
        if self.window < 3 or self.window % 2 == 0:
            raise ValidationError(f"window must be an odd integer >= 3, got {self.window}")
        if not (1 <= self.degree < self.window):
            raise ValidationError(
                f"degree must satisfy 1 <= degree < window, got degree={self.degree} "
                f"window={self.window}"
            )


@dataclass(frozen=True)
class RateSeries:
    """Ordered (time, rate, size) growth-rate points.

    ``sizes`` holds the series value at each time (the transformed value
    F(S) when the rates were computed on a transformed series), which
    size-dependent fits regress against.
    """

    times: np.ndarray
    rates: np.ndarray
    sizes: np.ndarray
    source_label: str = ""
    method: RateMethod = RateMethod.DIRECT

    def __post_init__(self) -> None:
        _set_checked_fields(
            self,
            ("times", "rates", "sizes"),
            least=1,
            too_few="a rate series needs at least one point",
            not_increasing="rate times must be strictly increasing",
        )

    def __len__(self) -> int:
        return int(self.times.size)


def direct_rates(ts: TimeSeries) -> RateSeries:
    """Finite-difference growth rates of a series.

    For each consecutive pair, R = (S[i+1] - S[i]) / (S[i] * (t[i+1]-t[i])),
    attributed to time t[i+1] with size S[i+1]; n points in, n-1 rates out.
    """
    return _rates(ts, RateMethod.DIRECT, None, ts.label)


def _local_poly_gradients(times: np.ndarray, values: np.ndarray, cfg: SmoothingConfig) -> np.ndarray:
    """Derivative of a windowed least-squares polynomial at every point.

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


def refined_rates(ts: TimeSeries, cfg: SmoothingConfig | None = None) -> RateSeries:
    """Growth rates from polynomial-smoothed gradients.

    R at each point is the local-polynomial derivative of S divided by
    the raw series value there; one rate per input point.
    """
    return _rates(ts, RateMethod.REFINED, cfg, ts.label)


def estimate_rates(
    ts: TimeSeries, method: RateMethod = RateMethod.DIRECT, cfg: Optional[SmoothingConfig] = None
) -> RateSeries:
    """Growth rates of a series by ``method``: :func:`direct_rates`, or
    :func:`refined_rates` with ``cfg``."""
    return _rates(ts, method, cfg, ts.label)


def _rates(
    ts: TimeSeries, method: RateMethod, cfg: Optional[SmoothingConfig], label: str
) -> RateSeries:
    """The rates of ``ts`` by ``method``, labelled: the one estimator body."""
    if method is RateMethod.REFINED:
        if cfg is None:
            cfg = SmoothingConfig()
        if len(ts) < cfg.window:
            raise ValidationError(
                f"refined rates need at least window={cfg.window} points, series has {len(ts)}"
            )
    if (ts.values == 0).any():
        bad = int(np.argmax(ts.values == 0))
        raise DomainError(f"{method.value} rates undefined: series value 0 at t={ts.times[bad]}")
    with np.errstate(all="ignore"):
        if method is RateMethod.DIRECT:
            times, sizes = ts.times[1:], ts.values[1:]
            rates = np.diff(ts.values) / (ts.values[:-1] * np.diff(ts.times))
        else:
            times, sizes = ts.times, ts.values
            rates = _local_poly_gradients(ts.times, ts.values, cfg) / ts.values
    if not np.isfinite(rates).all():
        bad = int(np.argmax(~np.isfinite(rates)))
        raise DomainError(f"{method.value} rates are beyond the float range at t = {times[bad]}")
    return RateSeries(times=times, rates=rates, sizes=sizes, source_label=label, method=method)


def rate_of_transform(
    ts: TimeSeries,
    kind: TransformKind,
    method: RateMethod = RateMethod.DIRECT,
    cfg: Optional[SmoothingConfig] = None,
) -> RateSeries:
    """Growth rates of a transformed series F(S).

    Equivalent to computing rates on ``transform_series(ts, kind)``; the
    size field of the result carries F(S), not S, so size-dependent fits
    on the transformed quantity work unchanged.
    """
    label = f"{ts.label} [{kind.value}]" if ts.label else f"[{kind.value}]"
    return _rates(transform_series(ts, kind), method, cfg, label)
