"""Seeded input generator for the growthcast benchmark (numpy only).

Every series comes from one of the nine catalog families. Sizes are
produced by stepping the family's rate law through the discrete
growth-rate definition that the direct estimator inverts,

    S[i+1] = S[i] * (1 + R[i+1] * dt[i]),

solved in closed form for the size-dependent laws. Noise-free direct
rates therefore follow the law exactly, and every deviation of a fitted
line from the generating one comes from what this module injects:
relative noise on each point and, for a share of the series, a few
recession years (a persistent level drop, which gives one negative
direct rate each).

Each series is drawn on calendar years. The timed ops get it on years
since its first observation; with ``as_drawn=True`` the generators
return the inputs as first drawn instead: on their calendar years and
with no draw replaced. Those feed the as-drawn probe, which counts in
every run what the program's known calendar-year defects (ROADMAP item
3) and the replaced draws do to it.

The parameter ranges below are the benchmark's statement of realistic
inputs; ``README.md`` in this directory tabulates them. They are drawn
for realism only: they are not narrowed to steer clear of known program
defects. Only ill-posed short-batch draws are redrawn for the timed
ops: series whose data do not determine their law (``undetermined``;
about 1% of draws, most of them reciprocal-rate series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from checks import generating_line, linearized

FAMILIES = (
    "exp_const",
    "linear_t",
    "hyperbolic",
    "linear_s",
    "loglog_t",
    "loglog_s",
    "rate_recip_linear",
    "rate_ln_linear",
    "rate_shifted_exp",
)

# the linearization that straightens each family ("log" marks rates of ln S)
LINEARIZATION = {
    "exp_const": "r-vs-t",
    "linear_t": "r-vs-t",
    "hyperbolic": "recip-s-vs-t",
    "linear_s": "r-vs-s",
    "loglog_t": "r-vs-t",
    "loglog_s": "r-vs-s",
    "rate_recip_linear": "recip-r-vs-t",
    "rate_ln_linear": "ln-r-vs-t",
    "rate_shifted_exp": "shifted-ln-vs-t",
}
LOG_FAMILIES = ("loglog_t", "loglog_s")

# short-batch and cli series: yearly points ending in a recent year
SHORT_N = (50, 250)
SHORT_END_YEAR = (1990, 2024)
SHORT_NOISE = (2e-4, 3e-3)        # relative, log-uniform
CLI_N = 120
CLI_NOISE = (1e-4, 5e-4)
RECESSION_SHARE = 0.25            # share of series with recession years
RECESSION_YEARS = (1, 3)
RECESSION_DROP = (0.01, 0.04)     # level drop per recession year
START_SIZE = (1e3, 1e9)           # log-uniform

# long-series: 2e4 points at 0.01-year spacing, shifted-exponential law
LONG_N = 20_000
LONG_DT = 0.01
LONG_START_YEAR = (1800, 1824)
LONG_JITTER = 0.3                 # +- share of dt, on odd-numbered ops
LONG_NOISE = (1e-7, 1e-6)
LONG_GRID_POINTS = 1_000_000
LONG_GRID_YEARS = 100.0


@dataclass
class Series:
    """One generated input and the law that produced it.

    The law is ``family`` with ``params`` in time recentred at ``t0``
    (t' = t - t0); for the log families the law is that of F = ln S.
    ``clean`` holds the noise-free sizes, ``values`` the observed ones;
    ``expected_feature`` is the feature kind of the law's trajectory.
    """

    family: str
    params: dict
    t0: float
    times: np.ndarray
    values: np.ndarray
    clean: np.ndarray
    noise: float
    recessions: tuple = ()
    expected_feature: str = "none"
    uniform: bool = True


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def rate_law(family: str, p: dict, tp: np.ndarray) -> np.ndarray:
    """A time-dependent family's rate law at recentred times tp."""
    if family == "exp_const":
        return np.full_like(tp, p["a"])
    if family in ("linear_t", "loglog_t"):
        return p["a"] + p["b"] * tp
    if family == "rate_recip_linear":
        return 1.0 / (p["a"] + p["b"] * tp)
    if family == "rate_ln_linear":
        return p["a"] * np.exp(p["b"] * tp)
    if family == "rate_shifted_exp":
        return 1.0 / (p["a"] - p["b"] * np.exp(-p["r"] * tp))
    raise ValueError(family)


def step_law(family: str, p: dict, times: np.ndarray, start: float) -> np.ndarray:
    """Noise-free sizes (or ln sizes for the log families) on ``times``."""
    dt = np.diff(times)
    tp = times - times[0]
    out = np.empty_like(times)
    out[0] = start
    if family in ("hyperbolic", "linear_s", "loglog_s"):
        # R[i+1] depends on S[i+1]: S[i+1] = S[i](1 + a dt) / (1 - b S[i] dt)
        a = 0.0 if family == "hyperbolic" else p["a"]
        b = p["b"]
        s = start
        for i, h in enumerate(dt.tolist()):
            s = s * (1.0 + a * h) / (1.0 - b * s * h)
            out[i + 1] = s
        return out
    factors = 1.0 + rate_law(family, p, tp[1:]) * dt
    out[1:] = start * np.cumprod(factors)
    return out


def _draw_law(rng: np.random.Generator, family: str, span: float, start: float):
    """Parameters (recentred at the first time), start value, feature kind."""
    f0 = math.log(start)
    if family == "exp_const":
        return {"a": rng.uniform(0.005, 0.04)}, start, "none"
    if family in ("linear_t", "loglog_t"):
        # the rate declines linearly to a share g of its start value over
        # the data and crosses zero afterwards: a maximum
        r0 = rng.uniform(0.01, 0.04)
        g = rng.uniform(0.1, 0.8)
        if family == "loglog_t":
            r0 /= f0
            return {"a": r0, "b": -r0 * (1 - g) / span}, f0, "maximum"
        return {"a": r0, "b": -r0 * (1 - g) / span}, start, "maximum"
    if family == "hyperbolic":
        # size (and rate) grow by a factor f over the data; singular later
        f = rng.uniform(1.5, 4.0)
        return {"b": (1 - 1 / f) / (span * start)}, start, "singularity"
    if family == "linear_s":
        a = rng.uniform(0.02, 0.06)
        share = rng.uniform(0.02, 0.5)  # start size over the carrying capacity
        return {"a": a, "b": -a * share / start}, start, "asymptote"
    if family == "loglog_s":
        share = rng.uniform(0.5, 0.95)  # ln S at the start over its asymptote
        r_f0 = rng.uniform(0.01, 0.04) / f0
        a = r_f0 / (1 - share)
        return {"a": a, "b": -a * share / f0}, f0, "asymptote"
    if family == "rate_recip_linear":
        r0 = rng.uniform(0.01, 0.04)
        if rng.random() < 0.5:
            f = rng.uniform(1.5, 4.0)    # rate rises: singular after the data
            feature = "singularity"
        else:
            f = rng.uniform(0.25, 0.67)  # rate decays: no feature
            feature = "none"
        a = 1 / r0
        return {"a": a, "b": (a / f - a) / span}, start, feature
    if family == "rate_ln_linear":
        r0 = rng.uniform(0.01, 0.05)
        f = rng.uniform(0.1, 0.67)
        return {"a": r0, "b": math.log(f) / span}, start, "asymptote"
    if family == "rate_shifted_exp":
        r_inf = rng.uniform(0.01, 0.03)
        ratio = rng.uniform(1.5, 4.0)  # start rate over the asymptotic rate
        a = 1 / r_inf
        return (
            {"a": a, "b": a - 1 / (ratio * r_inf), "r": _loguniform(rng, 0.02, 0.2)},
            start,
            "none",
        )
    raise ValueError(family)


def _finish(rng, family, params, times, start, feature, noise, recession_share, uniform=True):
    clean = step_law(family, params, times, start)
    if family in LOG_FAMILIES:
        clean = np.exp(clean)
    values = clean * (1.0 + noise * rng.standard_normal(times.size))
    recessions: list[tuple[float, float]] = []
    if recession_share and rng.random() < recession_share:
        k = int(rng.integers(RECESSION_YEARS[0], RECESSION_YEARS[1] + 1))
        for idx in sorted(rng.choice(np.arange(2, times.size - 2), size=k, replace=False)):
            drop = rng.uniform(*RECESSION_DROP)
            values[idx:] *= 1.0 - drop
            recessions.append((float(times[idx]), float(drop)))
    return Series(
        family=family,
        params=params,
        t0=float(times[0]),
        times=times,
        values=values,
        clean=clean,
        noise=noise,
        recessions=tuple(recessions),
        expected_feature=feature,
        uniform=uniform,
    )


def yearly_series(rng, family, n, noise_range, recession_share, calendar=False):
    end = float(rng.integers(SHORT_END_YEAR[0], SHORT_END_YEAR[1] + 1))
    times = np.arange(n, dtype=float) + (end - n + 1 if calendar else 0.0)
    start = _loguniform(rng, *START_SIZE)
    params, start_value, feature = _draw_law(rng, family, float(n - 1), start)
    noise = _loguniform(rng, *noise_range)
    return _finish(rng, family, params, times, start_value, feature, noise, recession_share)


def undetermined(s: Series) -> bool:
    """Whether a series' data fail to determine its law.

    Each family is fitted as a straight line in its linearization's
    coordinates. A small or negative direct rate (a recession year, or
    noise where the rate is low) can land far off that line, in the
    reciprocal and log coordinates at any distance, and the
    least-squares line through the series' own direct rates (the points
    the program keeps) can then lose the law's slope: its sign, so the
    data no longer say whether the rate rises or falls, or so much of
    its size that the fitted law's exponents run beyond any float. The
    line must keep a hundredth of the law's slope, and a tenth for the
    reciprocal-rate family, whose exponent is 1/b itself; that family's
    line must also stay positive through the last year, where the model
    is anchored, and the first projected year after it.
    """
    lin = LINEARIZATION[s.family]
    slope_law = generating_line(s, lin)[1]
    if slope_law == 0.0:
        return False
    t = s.times
    v = np.log(s.values) if s.family in LOG_FAMILIES else s.values
    if lin == "recip-s-vs-t":
        x, y = linearized(lin, t, v, v)
    else:
        r = np.diff(v) / (v[:-1] * np.diff(t))
        x, y = linearized(lin, t[1:], r, v[1:], s.params.get("a"))
    slope, level = np.polyfit(x - x.mean(), y, 1)
    if lin != "recip-r-vs-t":
        return bool(slope / slope_law < 0.01)
    line_end = level + slope * (t[-1] + np.array([0.0, 1.0]) - x.mean())
    return bool(slope / slope_law < 0.1 or line_end.min() <= 1e-6 * np.max(np.abs(y)))


def short_batch(seed: int, count: int, n_range=SHORT_N, as_drawn: bool = False) -> list[Series]:
    """``count`` yearly series, families in a fixed cycle of all nine.

    A draw whose data do not determine its law (``undetermined``) is
    replaced by the next draw of its own sub-stream.
    """
    out = []
    for i in range(count):
        family = FAMILIES[i % len(FAMILIES)]
        for attempt in range(100):
            rng = _rng(seed, 1, i, *((attempt,) if attempt else ()))
            n = int(rng.integers(n_range[0], n_range[1] + 1))
            s = yearly_series(rng, family, n, SHORT_NOISE, RECESSION_SHARE, as_drawn)
            if as_drawn or not undetermined(s):
                break
        out.append(s)
    return out


def long_series(seed: int, index: int, n: int = LONG_N, as_drawn: bool = False) -> Series:
    """A shifted-exponential series at 0.01-year spacing; odd ones jittered."""
    rng = _rng(seed, 2, index)
    start_year = float(rng.integers(LONG_START_YEAR[0], LONG_START_YEAR[1] + 1))
    uniform = index % 2 == 0
    steps = np.arange(n, dtype=float)
    if not uniform:
        steps = steps + rng.uniform(-LONG_JITTER, LONG_JITTER, n)
    times = (start_year if as_drawn else 0.0) + LONG_DT * steps
    span = float(times[-1] - times[0])
    start = _loguniform(rng, *START_SIZE)
    params, start_value, feature = _draw_law(rng, "rate_shifted_exp", span, start)
    noise = _loguniform(rng, *LONG_NOISE)
    return _finish(rng, "rate_shifted_exp", params, times, start_value, feature, noise, 0.0, uniform)


def cli_set(seed: int, index: int, n: int = CLI_N, as_drawn: bool = False) -> dict:
    """Series for one round of the CLI mix, plus the invalid inputs."""
    rng = _rng(seed, 3, index)
    logistic = yearly_series(rng, "linear_s", n, CLI_NOISE, 0.0, as_drawn)
    lint = yearly_series(rng, "linear_t", n, CLI_NOISE, 0.0, as_drawn)
    shifted = yearly_series(rng, "rate_shifted_exp", n, CLI_NOISE, 0.0, as_drawn)
    zero = yearly_series(rng, "exp_const", n, CLI_NOISE, 0.0, as_drawn)
    zero.values[int(rng.integers(1, n - 1))] = 0.0
    dup = yearly_series(rng, "exp_const", n, CLI_NOISE, 0.0, as_drawn)
    k = int(rng.integers(1, n - 1))
    dup.times[k] = dup.times[k - 1]
    # a normalized hyperbolic model singular at t_star, and a grid past it
    t_star = float(rng.integers(2030, 2100))
    b = rng.uniform(1e-12, 1e-9)
    hyper = {"b": b, "C": b * t_star}
    return {
        "logistic": logistic,
        "lint": lint,
        "shifted": shifted,
        "zero": zero,
        "dup": dup,
        "hyper": hyper,
        "hyper_grid": (t_star + 1.0, t_star + 50.0, 1.0),
    }
