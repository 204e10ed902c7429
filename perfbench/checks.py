"""Correctness checks shared by the workloads (numpy only).

Parameter recovery is judged in the coordinates of the fitted line. If
y_i are the linearized observations the program fitted and e_i their
deviation from the generating line, ordinary least squares moves the
slope by sum((x - xm) e) / Sxx and the level at xm by mean(e). By
Cauchy-Schwarz these are at most sqrt(sum(e^2) / Sxx) and
sqrt(mean(e^2)). Those bounds are the tolerance: they are computed from
the injected noise as it appears in the fit, hold for any noise, and
are never exceeded by a correct fit.
"""

from __future__ import annotations

import math

import numpy as np



class CheckFailed(Exception):
    """An op returned an output that fails its correctness check."""


class ProgramError(Exception):
    """The program failed an op outright: a traceback or an unexpected exit code."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(a, b, rel: float, what: str) -> None:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    scale = np.maximum(np.abs(a), np.abs(b))
    bad = np.abs(a - b) > rel * scale
    require(not bool(np.any(bad)), f"{what}: differs beyond {rel:g} relative")


def finite_positive(values, what: str) -> None:
    v = np.asarray(values, dtype=float)
    require(v.size > 0 and bool(np.all(np.isfinite(v))), f"{what}: non-finite values")
    require(bool(np.all(v > 0)), f"{what}: non-positive values")


TIME_LINEARIZATIONS = ("r-vs-t", "recip-r-vs-t", "ln-r-vs-t", "shifted-ln-vs-t", "recip-s-vs-t")


def generating_line(series, lin: str) -> tuple[float, float, float]:
    """(level, slope, x0) of the generating law: y = level + slope (x - x0)."""
    p = series.params
    fam = series.family
    if lin == "r-vs-t":
        return p["a"], p.get("b", 0.0), series.t0
    if lin == "r-vs-s":
        return p["a"], p["b"], 0.0
    if lin == "recip-r-vs-t":
        return p["a"], p["b"], series.t0
    if lin == "ln-r-vs-t":
        return math.log(p["a"]), p["b"], series.t0
    if lin == "shifted-ln-vs-t":
        return math.log(p["b"]), -p["r"], series.t0
    if lin == "recip-s-vs-t":
        return 1.0 / series.clean[0], -p["b"], series.t0
    raise ValueError(f"{fam}: {lin}")


def linearized(lin: str, t, r, s, aux_a=None):
    """The program's straight-line coordinates of rate points, with its keep rule."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if lin == "r-vs-t":
            keep = np.ones(r.shape, bool)
            x, y = t, r
        elif lin == "r-vs-s":
            keep = np.ones(r.shape, bool)
            x, y = s, r
        elif lin == "recip-r-vs-t":
            keep = r != 0
            x, y = t, 1.0 / r
        elif lin == "ln-r-vs-t":
            keep = r > 0
            x, y = t, np.log(r)
        elif lin == "shifted-ln-vs-t":
            shifted = aux_a - 1.0 / r
            keep = (r != 0) & (shifted > 0)
            x, y = t, np.log(shifted)
        elif lin == "recip-s-vs-t":
            keep = s != 0
            x, y = t, 1.0 / s
        else:
            raise ValueError(lin)
    return x[keep], y[keep]


def model_line(params: dict, lin: str) -> tuple[float, float]:
    """(intercept, slope) of the line a fitted model's parameters encode."""
    if lin in ("r-vs-t", "r-vs-s", "recip-r-vs-t"):
        return params["a"], params["b"]
    if lin == "ln-r-vs-t":
        return math.log(params["a"]), params["b"]
    if lin == "shifted-ln-vs-t":
        return math.log(params["b"]), -params["r"]
    if lin == "recip-s-vs-t":
        return params["C"], -params["b"]
    raise ValueError(lin)


def line_recovery(series, lin: str, x, y, params: dict, t_ref: float) -> dict:
    """Check a fitted model against the generating line; returns the bounds.

    ``x, y`` are the points the program fitted, ``params``/``t_ref`` the
    fitted model. Raises CheckFailed when the fitted slope or level lies
    outside the Cauchy-Schwarz bound of the injected deviations.
    """
    require(x.size >= 2, "fewer than 2 fitted points")
    level, slope, x0 = generating_line(series, lin)
    e = y - (level + slope * (x - x0))
    xm = float(x.mean())
    dx = x - xm
    sxx = float(dx @ dx)
    ss = float(e @ e)
    slope_tol = math.sqrt(ss / sxx)
    level_tol = math.sqrt(ss / x.size)
    intercept_fit, slope_fit = model_line(params, lin)
    x_ref = t_ref if lin in TIME_LINEARIZATIONS else 0.0
    level_fit = intercept_fit + slope_fit * (xm - x_ref)
    level_true = level + slope * (xm - x0)
    # rounding slack: the fit's own arithmetic on values of this size
    eps = 1e-9
    slope_err = abs(slope_fit - slope)
    level_err = abs(level_fit - level_true)
    slope_lim = slope_tol * (1 + 1e-7) + eps * max(abs(slope), abs(slope_fit))
    level_lim = level_tol * (1 + 1e-7) + eps * max(
        abs(intercept_fit), abs(slope_fit * (xm - x_ref)), abs(level_true)
    )
    require(slope_err <= slope_lim, f"{lin} slope off by {slope_err:.3g} > bound {slope_lim:.3g}")
    require(level_err <= level_lim, f"{lin} level off by {level_err:.3g} > bound {level_lim:.3g}")
    return {
        "slope": slope,
        "slope_tol": slope_tol,
        "level_at_zero": level - slope * x0,
        "level_at_zero_tol": level_tol + slope_tol * abs(xm - x0),
    }


def feature_decisive(series, bounds: dict) -> bool:
    """Whether the data fix the sign(s) that decide the feature kind.

    With the fitted line inside the recovery bound, a generating slope
    larger than the bound has the fitted slope's sign; likewise the
    size-law intercept for the asymptote of the logistic families.
    """
    fam = series.family
    if fam == "rate_shifted_exp":
        return True  # no feature whatever the parameters
    if abs(bounds["slope"]) <= bounds["slope_tol"]:
        return False
    if fam in ("linear_s", "loglog_s"):
        return abs(bounds["level_at_zero"]) > bounds["level_at_zero_tol"]
    return True


def local_poly_derivative(t: np.ndarray, v: np.ndarray, window: int = 7, degree: int = 3) -> np.ndarray:
    """Oracle of the refined estimator's definition, vectorized.

    Derivative at each point of the least-squares polynomial over a
    window of ``window`` points, centred where possible and anchored at
    the series edges, in the abscissa shifted to the point and scaled to
    unit range. All windows are solved at once through a stacked
    pseudo-inverse, independently of the program's per-point loop.
    """
    n = t.size
    lo = np.clip(np.arange(n) - window // 2, 0, n - window)
    idx = lo[:, None] + np.arange(window)
    x = t[idx] - t[:, None]
    scale = np.abs(x).max(axis=1)
    vander = (x / scale[:, None])[..., None] ** np.arange(degree + 1)
    coef = np.linalg.pinv(vander) @ v[idx][..., None]
    return coef[:, 1, 0] / scale


def check_refined_rates(times, values, rates, what: str) -> None:
    """Program's refined rates against the oracle, to rounding."""
    want = local_poly_derivative(np.asarray(times, float), np.asarray(values, float)) / values
    err = np.abs(np.asarray(rates) - want)
    tol = 1e-9 * np.abs(want) + 1e-12 * float(np.max(np.abs(want)))
    require(bool(np.all(err <= tol)), f"{what}: off the local-polynomial oracle by up to "
            f"{float(np.max(err / np.maximum(np.abs(want), 1e-300))):.3g} relative")


def scan_grid_best_r2(t, r, a_min: float, a_max: float, steps: int = 200,
                      min_keep: float = 0.75) -> float:
    """Best r^2 over the aux scan's own grid, with its skip rules.

    The scan refines around its best grid point and keeps a refined
    value only when it raises r^2, so its result can never score below
    this; it promises no more (r^2 is jagged in a where points drop).
    All candidates are scored at once, in chunks.
    """
    t = np.asarray(t, float)
    r = np.asarray(r, float)
    tc = t - t.mean()
    with np.errstate(divide="ignore"):
        inv = np.where(r != 0, 1.0 / r, np.inf)
    best = -math.inf
    grid = np.linspace(a_min, a_max, steps)
    for chunk in np.array_split(grid, max(1, steps * r.size // 500_000)):
        shifted = chunk[:, None] - inv[None, :]
        keep = shifted > 0
        n = keep.sum(axis=1)
        y = np.log(np.where(keep, shifted, 1.0))
        xm = (keep * tc).sum(axis=1) / np.maximum(n, 1)
        ym = (keep * y).sum(axis=1) / np.maximum(n, 1)
        dx = (tc[None, :] - xm[:, None]) * keep
        dy = (y - ym[:, None]) * keep
        sxx = (dx * dx).sum(axis=1)
        slope = (dx * dy).sum(axis=1) / np.where(sxx > 0, sxx, 1.0)
        resid = dy - slope[:, None] * dx
        ss_res = (resid * resid).sum(axis=1)
        ss_tot = (dy * dy).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            r2 = np.where(ss_tot == 0, (ss_res == 0).astype(float),
                          np.clip(1.0 - ss_res / ss_tot, 0.0, 1.0))
        ok = n >= np.maximum(3, min_keep * r.size)
        if np.any(ok):
            best = max(best, float(r2[ok].max()))
    return best
